"""The benchmark's three workloads.

Each is a closed loop with one client: a single process issues the next
operation only after the previous one has returned, and starts no threads
beyond numpy's own.  Inputs come from the benchmark seed through
``SeedSequence`` spawn keys; the program sees only generated configs,
command lines and state files.

A round is the unit of work the run loop repeats.  ``run_round(r)`` does
the same work for the same ``r``, so a traced round can be compared with
an untraced one.

The bounded end-to-end times (``state_s``, ``stokes_s``, ``twocopy_m3_s``)
are 1st percentiles of the run's per-operation times (``fast``); the
medians are printed beside them.  On a shared 2-CPU host the time of the
same work drifted by up to 1.8x over a few seconds, with process CPU time
tracking wall time, so the share of a run spent in slow spells moved
whole-run medians by up to 45% between runs.  Interference only ever
slows an operation down, and the 1st percentile stays near the
program's own cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time

import numpy as np

# A sampled estimate fails its check when it lies further than this many
# of its own margin standard errors from the exact criterion.
Z_LIMIT = 6.0
EXACT_TOL = 1e-8

_J = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])


# spawn-key branches of a workload's seed
STATES, MEASURED, WARM_UP = 0, 1, 2


def spawn_seed(seed: int, *key: int) -> int:
    """A 32-bit seed from the benchmark seed and a spawn-key path."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, errors=(), check_errors=()) -> None:
        self.attempted += attempted
        self.failed += len(errors) + len(check_errors)
        self.check_failures += len(check_errors)
        self.reasons.extend(list(errors)[:5] + list(check_errors)[:5])
        del self.reasons[20:]


def _z_problem(label: str, margin_est, margin_true, se):
    z = abs(margin_est - margin_true) / se if se > 0 else math.inf
    if not z <= Z_LIMIT:
        return (f"{label}: margin {margin_est!r} is {z:.2f} standard errors "
                f"(se {se!r}) from the exact {margin_true!r}")
    return None


class ShotsHeavy:
    """Every sampled scheme through ``cli.run_experiment`` at 1e5 shots."""

    name = "shots_heavy"
    key = 1
    schemes = ("locc_i", "locc_ii", "stokes", "twocopy_m1", "twocopy_m3")
    shots = 100_000
    warm_up_shots = 10_000
    n_states = 3

    def __init__(self, g, seed: int, workdir):
        self.g = g
        self.seed = seed
        self.specs = [
            {"kind": "random", "params": {"seed": spawn_seed(seed, self.key, STATES, j)}}
            for j in range(self.n_states)
        ]
        self.times = {s: [] for s in self.schemes}

    def _call(self, branch: int, r: int, k: int, shots: int):
        scheme = self.schemes[k]
        config = {"state": self.specs[r % self.n_states], "scheme": scheme,
                  "shots": shots, "seed": spawn_seed(self.seed, self.key, branch, r, k)}
        started = time.perf_counter()
        record = self.g.cli.run_experiment(config)
        elapsed = time.perf_counter() - started
        est, truth = record["estimate"], record["ground_truth"]
        problem = _z_problem(f"{scheme} round {r}", est["margin"], truth["margin"],
                             est["margin_std_error"])
        return elapsed, problem

    def warm_up(self) -> None:
        for k in range(len(self.schemes)):
            _, problem = self._call(WARM_UP, 0, k, self.warm_up_shots)
            if problem:
                raise RuntimeError(f"warm-up failed its check: {problem}")

    def run_round(self, r: int, tally: Tally) -> None:
        for k, scheme in enumerate(self.schemes):
            try:
                elapsed, problem = self._call(MEASURED, r, k, self.shots)
            except self.g.exceptions.GaussepError as exc:
                tally.add(1, errors=[f"{scheme} round {r}: {exc}"])
                continue
            self.times[scheme].append(elapsed)
            tally.add(1, check_errors=[problem] if problem else [])

    def results(self):
        med = {s: statistics.median(self.times[s]) for s in self.schemes}
        low = {s: fast(self.times[s]) for s in self.schemes}
        e2e = {"state_s": sum(low.values()), "stokes_s": low["stokes"],
               "twocopy_m3_s": low["twocopy_m3"]}
        named = [(f"{s}_call_s", med[s], "s", f"median of {len(self.times[s])} calls")
                 for s in self.schemes]
        return e2e, named


class StatesMany:
    """``gaussep randtest`` over many random states at low shot counts."""

    name = "states_many"
    key = 2
    # (scheme, shots per branch, states per invocation); each invocation
    # runs for about a second.  locc_i and twocopy_m3 run at more shots
    # than stokes because their margin errors are evaluated at the
    # estimate and are too small in the tail at low shot counts: locc_i at
    # 1e3 and twocopy_m3 at 1e4 each put a verdict flip more than 6
    # standard errors from the truth now and then (BASELINE.md).
    plan = (("locc_i", 10_000, 100), ("stokes", 1000, 40), ("twocopy_m3", 30_000, 25))

    def __init__(self, g, seed: int, workdir):
        self.g = g
        self.seed = seed
        self.per_state = {scheme: [] for scheme, _, _ in self.plan}

    def _invoke(self, branch: int, r: int, k: int, n_states: int):
        scheme, shots, _ = self.plan[k]
        seed = spawn_seed(self.seed, self.key, branch, r, k)
        argv = ["randtest", "--n", str(n_states), "--scheme", scheme,
                "--shots", str(shots), "--seed", str(seed)]
        out = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.g.cli.main(argv)
        elapsed = time.perf_counter() - started
        label = f"randtest {scheme} round {r}"
        if code != 0:
            raise RuntimeError(f"{label} exited with {code}")
        payload = json.loads(out.getvalue())
        errors, check_errors = [], []
        for d in payload["disagreements"]:
            if "error" in d:
                errors.append(f"{label} state {d['index']}: {d['error']}")
                continue
            problem = _z_problem(f"{label} state {d['index']}", d["margin_est"],
                                 d["margin_true"], d["margin_std_error"])
            if problem:
                check_errors.append(problem)
        if payload["n_states"] != n_states or (
                sum(payload["confusion"].values()) + len(errors) != n_states):
            raise RuntimeError(f"{label}: counts do not add up to {n_states} states")
        return elapsed, errors, check_errors

    def warm_up(self) -> None:
        for k in range(len(self.plan)):
            _, errors, check_errors = self._invoke(WARM_UP, 0, k, 2)
            if errors or check_errors:
                raise RuntimeError(f"warm-up failed: {errors + check_errors}")

    def run_round(self, r: int, tally: Tally) -> None:
        for k, (scheme, _, n_states) in enumerate(self.plan):
            elapsed, errors, check_errors = self._invoke(MEASURED, r, k, n_states)
            self.per_state[scheme].append(elapsed / n_states)
            tally.add(n_states, errors, check_errors)

    def results(self):
        med = {s: statistics.median(v) for s, v in self.per_state.items()}
        low = {s: fast(v) for s, v in self.per_state.items()}
        e2e = {"state_s": sum(low.values()), "stokes_s": low["stokes"],
               "twocopy_m3_s": low["twocopy_m3"]}
        named = [(f"{scheme}_states_per_s", 1.0 / med[scheme], "1/s",
                  f"{n} states per invocation at {shots} shots, median of "
                  f"{len(self.per_state[scheme])} invocations")
                 for scheme, shots, n in self.plan]
        return e2e, named


def random_two_mode_state(rng: np.random.Generator):
    """Means and a valid covariance matrix by Williamson synthesis.

    cov = S diag(nu1, nu1, nu2, nu2) S^T with S = passive * squeezers *
    passive; ordering (q1, p1, q2, p2), vacuum variance 1/2.
    """
    def passive():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        m = np.block([[u.real, -u.imag], [u.imag, u.real]])  # (q1, q2, p1, p2)
        order = [0, 2, 1, 3]
        return m[np.ix_(order, order)]

    nu = rng.uniform(0.5, 2.5, size=2)
    r = rng.uniform(0.0, 1.0, size=2)
    squeeze = np.diag(np.exp([-r[0], r[0], -r[1], r[1]]))
    s = passive() @ squeeze @ passive()
    cov = s @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ s.T
    return rng.normal(0.0, 0.5, size=4), (cov + cov.T) / 2.0


def spectral_xi_min(cov: np.ndarray) -> float:
    """Smallest symplectic eigenvalue of the partial transpose, from the
    spectrum of i J cov_PT (eigenvalues come in pairs +-nu)."""
    pt = _MIRROR @ cov @ _MIRROR
    return float(np.min(np.abs(np.linalg.eigvals(1j * _J @ pt))))


class ExactOracle:
    """Exact analysis of state files; no sampling at all."""

    name = "exact_oracle"
    key = 3
    n_states = 300
    per_round = 25

    def __init__(self, g, seed: int, workdir):
        self.g = g
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(self.key, STATES)))
        self.paths = []
        for i in range(self.n_states):
            means, cov = random_two_mode_state(rng)
            path = workdir / f"state_{i:03d}.json"
            with open(path, "w") as fh:
                json.dump({"n_modes": 2, "means": means.tolist(), "cov": cov.tolist()}, fh)
            self.paths.append(path)
        self.networks = g.stokes.StokesConfig().networks()
        self.times = []  # per state: (total, stokes part, twocopy_m3 part)

    def _analyze(self, i: int):
        g = self.g
        t0 = time.perf_counter()
        state = g.io.load_state(self.paths[i])
        report = g.core.simon_criterion(state)
        t1 = time.perf_counter()
        pipeline = g.stokes.full_pipeline(state)
        t2 = time.perf_counter()
        c_est = g.twocopy.method3_c(state)
        t3 = time.perf_counter()
        closed = [g.stokes.expect_stokes(net, state) for net in self.networks]
        propagated = [g.stokes.propagated_expectations(net, state) for net in self.networks]
        t4 = time.perf_counter()
        times = (t4 - t0, (t2 - t1) + (t4 - t3), t3 - t2)
        return times, self._check(i, state, report, pipeline, c_est, closed, propagated)

    def _check(self, i, state, report, pipeline, c_est, closed, propagated):
        cov = np.asarray(state.cov)
        scale = max(1.0, float(np.max(np.abs(cov))))
        problems = []
        oracle = spectral_xi_min(cov)
        if not abs(report.xi_min - oracle) <= EXACT_TOL:
            problems.append(f"xi_min {report.xi_min!r} vs spectral oracle {oracle!r}")
        for a_list, b_list in zip(closed, propagated):
            for a, b in zip(a_list, b_list, strict=True):
                va, vb = a.value.value, b.value.value
                if (a.observable, a.phases) != (b.observable, b.phases) or not (
                        abs(va - vb) <= EXACT_TOL * max(1.0, abs(va))):
                    problems.append(f"{a.observable}{a.phases}: closed form {va!r} "
                                    f"vs propagated {vb!r}")
        if not np.max(np.abs(pipeline.gamma_hat - cov)) <= EXACT_TOL * scale:
            problems.append("analytic Stokes reconstruction differs from cov")
        if not np.max(np.abs(c_est.c_hat - cov[:2, 2:])) <= EXACT_TOL * scale:
            problems.append("analytic method3_c differs from the C block")
        return [f"state {i}: {p}" for p in problems]

    def warm_up(self) -> None:
        _, problems = self._analyze(0)
        if problems:
            raise RuntimeError(f"warm-up failed its check: {problems}")

    def run_round(self, r: int, tally: Tally) -> None:
        for j in range(self.per_round):
            i = (r * self.per_round + j) % self.n_states
            try:
                times, problems = self._analyze(i)
            except self.g.exceptions.GaussepError as exc:
                tally.add(1, errors=[f"state {i}: {exc}"])
                continue
            self.times.append(times)
            tally.add(1, check_errors=problems)

    def results(self):
        total, stokes_s, m3_s = zip(*self.times)
        e2e = {"state_s": fast(total), "stokes_s": fast(stokes_s), "twocopy_m3_s": fast(m3_s)}
        n = len(total)
        named = [("analyze_call_s", statistics.median(total), "s", f"median of {n} states")]
        tail = tail_percentile(total)
        if tail is not None:
            pct, value = tail
            named.append(("analyze_call_tail_s", value, "s",
                          f"p{pct:g} of {n} states, {n - math.ceil(n * pct / 100)} beyond it"))
        return e2e, named


def fast(values) -> float:
    """1st percentile of per-operation times: the program's cost with the
    host's slow spells left out."""
    return float(np.percentile(values, 1))


def tail_percentile(values, beyond: int = 10):
    """(p, value) for the highest listed percentile with at least
    ``beyond`` samples above it, or None when there are too few samples."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= beyond:
            return pct, float(np.percentile(values, pct))
    return None


WORKLOADS = {w.name: w for w in (ShotsHeavy, StatesMany, ExactOracle)}
