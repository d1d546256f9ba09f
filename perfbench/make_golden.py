"""Regenerate perfbench/golden.json, the stored outputs the workloads are
checked against.  Run from the root of a bosonlr checkout:

    python3 perfbench/make_golden.py

Only regenerate after a change that is meant to alter the numbers, and
say so in the change: the file is what keeps a wrong answer from being
timed as a success.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if not os.path.exists(GOLDEN):
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump({"presets": {}, "big-sector": {}}, fh)
    import workloads
    from bosonlr import config, experiments

    golden = {"presets": {}, "big-sector": {}}
    for preset in config.ALL_ORDER:
        cfg = config.from_preset(preset)
        for exp in cfg.experiments:
            report = experiments.RUNNERS[exp](cfg)
            assert report.passed, exp
            golden["presets"][exp] = workloads.plain_records(report.records)

    big = workloads.BigSector(workloads.DEFAULT_SEED)
    big.golden, big.seeded = {}, False
    gates = workloads.Gates()
    big.run_pass(gates)
    big.verify(gates)
    assert gates.failed == 0, gates.messages
    for label, H in big.hamiltonians.items():
        golden["big-sector"][label] = {"dimension": H.basis.dimension, **workloads.fingerprint(H)}
    golden["big-sector"]["values_seed0"] = big.values
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
