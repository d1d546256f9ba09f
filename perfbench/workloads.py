"""The benchmark's workloads: inputs made from a seed, one pass of fixed
work through the public bosonlr API, and the checks on every output.

Each workload is closed loop: one caller in one process, and the next
operation starts only after the previous one returned.  An operation is
one call into the package whose output is checked; ``Gates`` counts the
ones attempted and the ones that failed a check.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np
import scipy.sparse.linalg

import bosonlr as bl
from bosonlr import cli, config, experiments

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


# presets records must match golden.json within |a - b| <= ATOL + RTOL |b|;
# run-to-run differences come from BLAS threading and sit near 1e-15
PRESETS_RTOL = 1e-8
PRESETS_ATOL = 1e-10


class Gates:
    """Attempted and failed operations of a run, with the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, label, problems):
        """One operation; ``problems`` lists the checks its output failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")

    def abort(self, missing, exc):
        """An exception ends the pass; the operations it skipped fail too."""
        missing = max(1, missing)
        self.attempted += missing
        self.failed += missing
        self.messages.append(f"{type(exc).__name__}: {exc}")


def _close(a, b, rtol, atol):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(b) or math.isinf(b):
            return a == b or (math.isnan(a) and math.isnan(b))
        return abs(a - b) <= atol + rtol * abs(b)
    return a == b


def plain_records(records):
    """Records as JSON would store them (numpy scalars become Python ones)."""
    return json.loads(json.dumps(records, default=lambda o: o.item()))


def records_problems(records, golden, rtol, atol):
    records = plain_records(records)
    if len(records) != len(golden):
        return [f"{len(records)} records, expected {len(golden)}"]
    for i, (row, ref) in enumerate(zip(records, golden)):
        if set(row) != set(ref):
            return [f"record {i} has columns {sorted(row)}, expected {sorted(ref)}"]
        for key, want in ref.items():
            if not _close(row[key], want, rtol, atol):
                return [f"record {i} {key} = {row[key]!r}, expected {want!r}"]
    return []


class Workload:
    """A fixed list of operations per pass; ``run_pass`` returns the wall
    time of named parts of the pass (empty when the parts are not timed)."""

    name = ""
    ops_per_pass = 0

    def run_pass(self, gates):
        start = gates.attempted
        try:
            return self._run(gates)
        except Exception as exc:  # a failed operation is counted, not fatal
            gates.abort(self.ops_per_pass - (gates.attempted - start), exc)
            return {}

    def warm_up(self):
        """First call on a small input, so lazy loading is not timed."""
        raise NotImplementedError

    def verify(self, gates):
        """Checks too costly for a timed pass, made once after the passes;
        each operation whose output fails one counts as failed."""


# ---------------------------------------------------------------- presets


class Presets(Workload):
    """The seven shipped experiments on their default presets, in
    ``ALL_ORDER``, run through ``bosonlr all``.  The presets fix every
    input, so the seed changes nothing here."""

    name = "presets"

    def __init__(self, seed, scratch):
        self.scratch = scratch
        self.golden = load_json("golden.json")["presets"]
        self.order = [
            exp for preset in config.ALL_ORDER for exp in config.from_preset(preset).experiments
        ]
        # the seven reports, plus the exit code of the command
        self.ops_per_pass = len(self.order) + 1

    def warm_up(self):
        experiments.RUNNERS["derivative"](config.config_for_experiment("derivative"))

    def _run(self, gates):
        runners = dict(experiments.RUNNERS)
        reports, seconds = {}, {}

        def timed(key, runner):
            def run(cfg):
                t0 = time.perf_counter()
                report = runner(cfg)
                seconds[key] = time.perf_counter() - t0
                reports[key] = report
                return report

            return run

        out = tempfile.mkdtemp(dir=self.scratch)
        experiments.RUNNERS.update({key: timed(key, fn) for key, fn in runners.items()})
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["all", "--out", out])
        finally:
            experiments.RUNNERS.update(runners)
            shutil.rmtree(out, ignore_errors=True)
        for key in self.order:
            report = reports.get(key)
            if report is None:
                gates.check(key, ["did not run"])
                continue
            problems = [] if report.passed else ["report did not pass"]
            problems += records_problems(
                report.records, self.golden[key], PRESETS_RTOL, PRESETS_ATOL
            )
            gates.check(key, problems)
        gates.check("bosonlr all", [] if code == cli.EXIT_PASS else [f"exit code {code}"])
        return seconds


# ------------------------------------------------------------- big-sector


class BigSector(Workload):
    """Library use above the dense cap: enumeration, assembly and Krylov
    evolution of basis states on a 12-site chain and a 3x4 grid, 6
    particles each.  Nothing is diagonalised."""

    name = "big-sector"
    PARTICLES = 6
    TIMES = (0.25, 0.5)
    STARTS = 1

    def __init__(self, seed, scratch=None, small=False):
        rng = np.random.default_rng(seed)
        if small:
            self.lattices = [("chain-6", bl.build_chain(6))]
            self.particles = 3
            self.golden = {}
        else:
            self.lattices = [("chain-12", bl.build_chain(12)), ("grid-3x4", bl.build_grid([3, 4]))]
            self.particles = self.PARTICLES
            self.golden = load_json("golden.json")["big-sector"]
        self.seeded = seed == DEFAULT_SEED and not small
        self.seen = []
        self.hamiltonians = {}
        self.params = bl.ModelParams(hopping=1.0, onsite=1.0)
        self.unitarity = config.DEFAULT_TOLERANCES["unitarity"]
        # start states hold at most one particle per site: the Krylov step
        # count grows with a state's energy spread, and these all share one,
        # so the work of a pass does not depend on the seed
        self.starts = {}
        for label, g in self.lattices:
            n = g.n_vertices
            self.starts[label] = []
            for _ in range(self.STARTS):
                occ = np.zeros(n, dtype=int)
                occ[rng.choice(n, size=self.particles, replace=False)] = 1
                self.starts[label].append((tuple(int(v) for v in occ), int(rng.integers(n))))
        # per lattice: enumerate, assemble, then one evolution per start and time
        self.ops_per_pass = len(self.lattices) * (2 + self.STARTS * len(self.TIMES))

    def warm_up(self):
        BigSector(0, small=True).run_pass(Gates())

    def _run(self, gates):
        values = []
        for label, g in self.lattices:
            reg = bl.full_region(g)
            basis = bl.enumerate_basis(reg, sector=self.particles)
            want = self.golden.get(label, {})
            problems = []
            if want and basis.dimension != want["dimension"]:
                problems.append(f"dimension {basis.dimension}, expected {want['dimension']}")
            if not np.all(basis.totals == self.particles):
                problems.append("a state has the wrong particle number")
            gates.check(f"{label} enumerate", problems)

            H = bl.assemble_hamiltonian(g, reg, basis, self.params)
            problems = []
            if want:
                problems += [
                    f"{key} {got!r}, expected {want[key]!r}"
                    for key, got in fingerprint(H).items()
                    if abs(got - want[key]) > 1e-12 * abs(want[key])
                ]
            if abs(H.matrix - H.matrix.conj().T).max() != 0.0:
                problems.append("not hermitian as stored")
            gates.check(f"{label} assemble", problems)

            total = bl.total_number(basis).matrix
            for occ, x in self.starts[label]:
                psi0 = bl.basis_vector(basis, occ)
                nx = bl.number_operator(basis, x)
                for t in self.TIMES:
                    psi_t = bl.evolve_state(H, psi0, t, engine="krylov")
                    val = bl.heisenberg_expectation(H, nx, psi0, t=t, engine="krylov")
                    amps = psi_t.amplitudes
                    n_total = float(np.vdot(amps, total @ amps).real)
                    direct = complex(np.vdot(amps, nx.matrix @ amps))
                    problems = []
                    if abs(psi_t.norm - 1.0) > self.unitarity:
                        problems.append(f"norm drift {abs(psi_t.norm - 1.0):.3e}")
                    if abs(n_total - self.particles) > 1e-9:
                        problems.append(f"<N> = {n_total!r}")
                    if abs(val - direct) > 1e-9 or abs(val.imag) > 1e-9:
                        problems.append(f"<n_x> = {val!r} against {direct!r} from the evolved state")
                    if self.seeded:
                        want_val = self.golden["values_seed0"][len(values)]
                        if abs(val.real - want_val) > 1e-9:
                            problems.append(f"<n_x> = {val.real!r}, stored seed-0 value {want_val!r}")
                    values.append(val.real)
                    gates.check(f"{label} {occ} x={x} t={t}", problems)
                    self.seen.append((label, occ, x, t, val.real, problems))
            self.hamiltonians[label] = H
        self.values = values
        return {}

    def verify(self, gates):
        """Every evolved <n_x> against scipy's ``expm_multiply``, a
        propagator independent of the package's Krylov code."""
        oracle = {}
        for label, occ, x, t, value, problems in self.seen:
            key = (label, occ, x, t)
            if key not in oracle:
                H = self.hamiltonians[label]
                psi0 = bl.basis_vector(H.basis, occ).amplitudes
                psi_t = scipy.sparse.linalg.expm_multiply(-1j * t * H.matrix, psi0)
                n_x = H.basis.occupations[:, H.basis.site_column(x)]
                oracle[key] = float(np.dot(n_x, np.abs(psi_t) ** 2))
            if abs(value - oracle[key]) > 1e-8 and not problems:
                gates.failed += 1
                gates.messages.append(f"<n_{x}>({t}) = {value!r}, expm_multiply gives {oracle[key]!r}")
        self.seen.clear()


# ------------------------------------------------------- thermal-spectral


class ThermalSpectral(Workload):
    """The dense spectral path, built once and read many times: a
    canonical state (9-site chain, 5 particles) and a grand-canonical one
    (6-site chain, n_max 5, J 0.2, mu -3), each diagonalised, turned into
    a Gibbs state and read through a 21 x 21 strip grid of the two-point
    function, an expectation and a moment bound."""

    name = "thermal-spectral"
    GRID = 21
    T_MAX = 2.0
    BETA = 1.0

    def __init__(self, seed, scratch=None, small=False):
        rng = np.random.default_rng(seed)
        if small:
            specs = [("canonical-4", 4, {"sector": 2}, 1.0, None)]
        else:
            specs = [
                ("canonical-9", 9, {"sector": 5}, 1.0, None),
                ("grand-6", 6, {"n_max": 5}, 0.2, {"mu": -3.0, "tail_tol": 1e-6}),
            ]
        self.states = []
        for label, length, basis_spec, hopping, grand in specs:
            g = bl.build_chain(length)
            basis = experiments.build_basis(g, basis_spec)
            H = bl.assemble_hamiltonian(
                g, bl.full_region(g), basis, bl.ModelParams(hopping=hopping, onsite=1.0)
            )
            a = int(rng.integers(length - 1))
            b = int(rng.integers(length))
            A = bl.local_observable(basis, {"kind": "normalized_hop", "sites": [a, a + 1]})
            B = bl.local_observable(basis, {"kind": "number_function", "site": b, "fn": "inv_one_plus_n"})
            norm_ab = bl.operator_norm(A, seed=seed) * bl.operator_norm(B, seed=seed)
            columns = rng.choice(basis.dimension, size=min(8, basis.dimension), replace=False)
            self.states.append((label, H, A, B, A @ B, norm_ab, grand, columns))
        self.ops_per_pass = 5 * len(self.states)
        ts = np.linspace(-self.T_MAX, self.T_MAX, self.GRID)
        ss = np.linspace(0.0, self.BETA, self.GRID)
        self.grid = [complex(t, -s) for t in ts for s in ss]

    def warm_up(self):
        ThermalSpectral(0, small=True).run_pass(Gates())

    def _run(self, gates):
        for label, H, A, B, AB, norm_ab, grand, columns in self.states:
            decomp = bl.eigendecompose(H)
            V, E = decomp.vectors[:, columns], decomp.energies[columns]
            residual = float(np.abs(H.matrix @ V - V * E).max())
            gates.check(f"{label} eigendecompose", [] if residual <= 1e-9 else [f"residual {residual:.3e}"])

            if grand is None:
                gamma = bl.fixed_sector_gibbs(H, self.BETA, decomp)
            else:
                gamma = bl.gibbs_state(
                    H, self.BETA, grand["mu"], H.basis.max_total,
                    tail_tol=grand["tail_tol"], decomposition=decomp,
                )
            drift = abs(float(gamma.weights.sum()) - 1.0)
            gates.check(f"{label} gibbs", [] if drift <= 1e-12 else [f"weights sum to 1 + {drift:.3e}"])

            gf = bl.GreenFunction(gamma, A, B)
            worst = max(abs(gf(z)) for z in self.grid)
            limit = norm_ab * (1 + 1e-9) + 1e-15
            gates.check(f"{label} strip", [] if worst <= limit else [f"|F| = {worst!r} > {limit!r}"])

            f0 = gf(0.0)
            direct = bl.expectation(gamma, AB)
            gap = abs(f0 - direct)
            gates.check(f"{label} expectation", [] if gap <= 1e-9 else [f"|F(0) - <AB>| = {gap:.3e}"])

            cap = float((1 + H.basis.max_total) ** 2)
            m2 = bl.moment_sup(gamma, 2.0)
            gates.check(f"{label} moment_sup", [] if 1.0 <= m2 <= cap else [f"moment {m2!r} outside [1, {cap}]"])
        return {}


def fingerprint(H):
    """Seed-independent numbers of an assembled operator, stored in
    golden.json: the start states vary with the seed, the Hamiltonian not."""
    return {
        "nnz": int(H.matrix.nnz),
        "trace": float(H.matrix.diagonal().real.sum()),
        "frobenius2": float(np.sum(np.abs(H.matrix.data) ** 2)),
    }


WORKLOADS = {cls.name: cls for cls in (Presets, BigSector, ThermalSpectral)}
