"""Command-line front end.

Thin shell over the experiment runners: parse a config (or pick the
default preset for the subcommand), dispatch, persist reports, emit plot
scripts.  Exit codes are the machine contract: 0 all green, 1 bound or
residual violation, 2 config error, raised before any scene is built, 3
resource or numerical failure (a lattice too short for the signal too).
"""

import argparse
import functools
import logging
import os
import sys
import time

from .config import (
    ALL_ORDER,
    EXPERIMENT_NAMES,
    PRESETS,
    check_experiments,
    config_for_experiment,
    from_preset,
    parse_config,
)
from .errors import (
    BoundaryContaminationError,
    ConfigError,
    DivergingPartitionFunctionError,
    InvalidArgumentError,
    ResourceLimitError,
    TruncationError,
)
from .experiments import RUNNERS, ExperimentReport, write_report

log = logging.getLogger("bosonlr")

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3

# experiments whose reports have a natural decay axis worth plotting
_PLOT_AXES = {
    "moments": ("t", ["measured", "bound"], "site"),
    "cutoff": ("lambda", ["measured", "bound"], "t"),
    "lr": ("m", ["measured", "bound"], "t"),
    "local-approx": ("m", ["sup_difference", "envelope"], None),
}


def emit_plot_script(report: ExperimentReport, path) -> str | None:
    """Write a gnuplot script plotting measured and bound on a log scale.

    Returns the path, or None (advisory) when the report has nothing to
    plot: fewer than two sweep points or no decay axis.  Regenerating from
    the same report yields byte-identical output.
    """
    axes = _PLOT_AXES.get(report.experiment)
    if axes is None:
        log.info("%s: no plottable decay axis; skipping plot script", report.experiment)
        return None
    x_col, y_cols, group_col = axes
    rows = [r for r in report.records if r.get(x_col, "") != ""]
    if len(rows) < 2:
        log.info("%s: fewer than two sweep points; nothing to plot", report.experiment)
        return None
    csv_name = os.path.basename(str(path))
    csv_name = csv_name[: -len(".plt")] + ".csv" if csv_name.endswith(".plt") else csv_name + ".csv"
    columns = {name: i + 1 for i, name in enumerate(report.columns)}
    groups = []
    if group_col:
        seen = []
        for r in rows:
            g = r.get(group_col, "")
            if g != "" and g not in seen:
                seen.append(g)
        groups = seen
    lines = [
        f"# decay plot for the {report.experiment} report",
        f"# data: {csv_name}",
        "set datafile separator ','",
        "set logscale y",
        f"set xlabel '{x_col}'",
        "set ylabel 'value'",
        "set key outside",
    ]
    plots = []
    for y in y_cols:
        if group_col and groups:
            for g in groups:
                cond = f"(strcol({columns[group_col]}) eq '{g}' ? ${columns[y]} : 1/0)"
                plots.append(
                    f"'{csv_name}' every ::1 using {columns[x_col]}:{cond} "
                    f"with linespoints title '{y} {group_col}={g}'"
                )
        else:
            plots.append(
                f"'{csv_name}' every ::1 using {columns[x_col]}:{columns[y]} "
                f"with linespoints title '{y}'"
            )
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it
    and changes nothing in it."""
    parser = argparse.ArgumentParser(
        prog="bosonlr",
        description="Verification experiments for finite-lattice boson dynamics",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0, help="more logging")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config file")
    common.add_argument("--preset", choices=sorted(PRESETS), help="named preset to run")
    common.add_argument("--out", help="output directory (overrides BOSONLR_OUT)")
    for name in EXPERIMENT_NAMES:
        sub.add_parser(name, parents=[common], help=f"run the {name} experiment")
    p_all = sub.add_parser("all", parents=[common], help="run every preset, cheap first")
    p_all.add_argument("--keep-going", action="store_true", help="continue past failures")
    p_val = sub.add_parser("validate-config", help="validate a config file and exit")
    p_val.add_argument("--config", required=True, help="path to a JSON config file")
    return parser


def _resolve_config(args, experiment: str):
    if args.config:
        cfg = parse_config(args.config)
    elif args.preset:
        cfg = from_preset(args.preset)
    else:
        cfg = config_for_experiment(experiment)
    # a subcommand runs its experiment whether or not the config lists it;
    # a listed one was checked when the config was made
    if experiment not in cfg.experiments:
        check_experiments(cfg, [experiment])
    return cfg


def _output_dir(args) -> str:
    return args.out or os.environ.get("BOSONLR_OUT") or "reports"


def _run_one(experiment: str, cfg, out_dir: str) -> int:
    runner = RUNNERS[experiment]
    report = runner(cfg)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    stem = f"{experiment}-{stamp}"
    paths = write_report(report, out_dir, stem=stem)
    emit_plot_script(report, os.path.join(out_dir, f"{stem}.plt"))
    for key, val in sorted(report.summary.items()):
        log.info("  %s = %s", key, val)
    print(f"{experiment}: {'PASS' if report.passed else 'FAIL'}  ({paths['csv']})")
    return EXIT_PASS if report.passed else EXIT_VIOLATION


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(message)s")
    try:
        if args.command == "validate-config":
            cfg = parse_config(args.config)
            print(f"config OK: {cfg.name} (experiments: {', '.join(cfg.experiments) or 'none'})")
            return EXIT_PASS
        if args.command == "all":
            worst = EXIT_PASS
            for preset in ALL_ORDER:
                cfg = parse_config(args.config) if args.config else from_preset(preset)
                for experiment in cfg.experiments:
                    code = _run_one(experiment, cfg, _output_dir(args))
                    worst = max(worst, code)
                    if code != EXIT_PASS and not args.keep_going:
                        return code
                if args.config:
                    break  # an explicit config runs once, not the preset ladder
            return worst
        experiment = args.command
        cfg = _resolve_config(args, experiment)
        return _run_one(experiment, cfg, _output_dir(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ResourceLimitError, DivergingPartitionFunctionError, TruncationError, BoundaryContaminationError) as exc:
        print(f"resource/numerical failure: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvalidArgumentError as exc:
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
