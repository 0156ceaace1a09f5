"""Declarative Monte-Carlo experiments: mean-distance rates, concentration
tails, trace-moment identities, the U(n)/SU(n) coupling check, and the
Lipschitz/containment inequality suite.

Every experiment is a pure map over (n, replicate) stream keys followed by a
deterministic sorted reduce, so results are identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .ensembles import (
    CIRCLE_TAGS,
    EnsembleTag,
    gue_wigner,
    haar_su,
    haar_unitary,
    randomized_sum,
    sample_circle_ensemble,
    sample_compression,
    sample_randomized_sum,
)
from .errors import ContractError
from .matlin import eig_hermitian, eig_unitary_angles, hs_norm, spectral_diameter
from .measures import EmpiricalMeasureLine, esd_circle, esd_line, pool
from .rng import StreamKey, subkey
from .transport import w1_circle_uniform, wp_line


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one Monte-Carlo run."""

    ensemble: EnsembleTag
    n_grid: tuple
    replicates: int
    master_seed: int
    k_rule: str | None = None  # "half" or "fixed:<int>"; compressions only
    t_grid: tuple | None = None
    moments_kmax: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "ensemble", EnsembleTag(self.ensemble))
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ContractError("n_grid must be nonempty and strictly ascending")
        if any(n < 1 for n in grid):
            raise ContractError("dimensions must be positive")
        object.__setattr__(self, "n_grid", grid)
        if self.replicates < 2:
            raise ContractError("need at least 2 replicates")
        if self.t_grid is not None:
            object.__setattr__(self, "t_grid", tuple(float(t) for t in self.t_grid))
        if self.k_rule is not None and self.k_rule != "half":
            if not self.k_rule.startswith("fixed:") or not self.k_rule[6:].isdigit():
                raise ContractError(f"unknown k_rule {self.k_rule!r}")

    def k_of(self, n: int) -> int:
        if self.k_rule in (None, "half"):
            return math.ceil(n / 2)
        if self.k_rule.startswith("fixed:"):
            return int(self.k_rule.split(":", 1)[1])
        raise ContractError(f"unknown k_rule {self.k_rule!r}")


@dataclass(frozen=True)
class SummaryRecord:
    ensemble: str
    n: int
    replicate: int
    statistic: str
    value: float
    key: StreamKey


@dataclass(frozen=True)
class RateFitResult:
    slope: float
    intercept: float
    slope_stderr: float
    r_squared: float
    n_used: int


@dataclass(frozen=True)
class TailEstimate:
    n: int
    t: float
    p_hat: float
    replicates: int
    wilson_low: float
    wilson_high: float


@dataclass(frozen=True)
class PerDimensionSummary:
    n: int
    x: float  # regression abscissa: n, or k*n for compressions
    mean: float
    std: float
    ci95_low: float
    ci95_high: float


@dataclass(frozen=True)
class RateExperimentResult:
    summaries: tuple
    fit: RateFitResult | None
    records: tuple
    warnings: tuple = ()


@dataclass(frozen=True)
class ConcentrationResult:
    tails: tuple
    std_fit: RateFitResult | None
    std_by_n: tuple  # (n, std) pairs
    records: tuple


@dataclass(frozen=True)
class MomentEstimate:
    ensemble: str
    n: int
    k: int
    mean_re: float
    mean_im: float
    stderr: float
    zero_consistent: bool
    bounded_consistent: bool


@dataclass(frozen=True)
class IdentDistResult:
    ks_statistic: float
    critical_value: float
    accept: bool
    samples_per_side: int


def fit_loglog(points) -> RateFitResult:
    """Least-squares fit of log y against log x."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ContractError("need at least 3 points for a rate fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ContractError("rate fits need strictly positive data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    res = stats.linregress(lx, ly)
    return RateFitResult(
        slope=float(res.slope),
        intercept=float(res.intercept),
        slope_stderr=float(res.stderr),
        r_squared=float(res.rvalue**2),
        n_used=len(pts),
    )


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ContractError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# distance statistics per stream key


def circle_distance_stat(ensemble: EnsembleTag, n: int, key: StreamKey) -> float:
    """d1 from one ensemble sample's spectral measure to the uniform law."""
    u = sample_circle_ensemble(ensemble, n, key)
    return w1_circle_uniform(esd_circle(u)).value


def _d1_to_pooled(sample: EmpiricalMeasureLine, pooled_atoms: np.ndarray) -> float:
    """Exact W1 between a k-atom measure and an (m*k)-atom pooled measure by
    replicating each atom m times (equal-weight multisets of equal size)."""
    m = pooled_atoms.size // sample.atoms.size
    if m * sample.atoms.size != pooled_atoms.size:
        raise ContractError("pooled atom count must be a multiple of the sample's")
    rep = EmpiricalMeasureLine(np.repeat(sample.atoms, m))
    return wp_line(rep, EmpiricalMeasureLine(pooled_atoms), 1.0).value


def _line_model_sample(ensemble: EnsembleTag, n: int, k: int, key: StreamKey):
    if ensemble is EnsembleTag.COMPRESSION:
        return esd_line(sample_compression(n, k, key))
    if ensemble is EnsembleTag.RANDOMIZED_SUM:
        return esd_line(sample_randomized_sum(n, key))
    if ensemble is EnsembleTag.GUE_WIGNER:
        return esd_line(gue_wigner(n, key))
    raise ContractError(f"{ensemble.value} is not a line-model ensemble")


def _rate_task(args):
    """One (n, replicate) cell of a rate experiment; module-level so process
    pools can pickle it."""
    ensemble, n, replicate, seed, k = args
    key = StreamKey(seed, ensemble.value, n, replicate)
    if ensemble in CIRCLE_TAGS:
        return (n, replicate, circle_distance_stat(ensemble, n, key))
    raise ContractError("line-model rate cells are computed in batch per n")


def _parallel_map(fn, items, workers: int):
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as pool_:
        return list(pool_.map(fn, items, chunksize=16))


# ---------------------------------------------------------------------------
# experiments


def _summarize(n, x, values):
    values = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    half = 1.959963984540054 * std / math.sqrt(values.size)
    return PerDimensionSummary(n=n, x=float(x), mean=mean, std=std,
                               ci95_low=mean - half, ci95_high=mean + half)


def run_rate_experiment(plan: ExperimentPlan, workers: int = 1) -> RateExperimentResult:
    """Mean d1 to the reference per dimension, plus a log-log rate fit.

    Circle ensembles measure against the uniform law; line models use a
    split-sample pooled reference: replicates 0..m-1 build the pool and
    replicates m..2m-1 are measured against it.
    """
    ensemble = plan.ensemble
    m = plan.replicates
    summaries, records, warnings = [], [], []

    for n in plan.n_grid:
        if ensemble in CIRCLE_TAGS:
            tasks = [(ensemble, n, r, plan.master_seed, 0) for r in range(m)]
            out = _parallel_map(_rate_task, tasks, workers)
            out.sort(key=lambda t: t[1])
            values = [v for _, _, v in out]
            for _, r, v in out:
                records.append(SummaryRecord(ensemble.value, n, r, "d1",
                                             v, StreamKey(plan.master_seed, ensemble.value, n, r)))
            x = n
        else:
            k = plan.k_of(n) if ensemble is EnsembleTag.COMPRESSION else n
            pool_samples = []
            for r in range(m):
                key = StreamKey(plan.master_seed, ensemble.value, n, r)
                pool_samples.append(_line_model_sample(ensemble, n, k, key))
            pooled = pool(pool_samples)
            values = []
            for r in range(m, 2 * m):
                key = StreamKey(plan.master_seed, ensemble.value, n, r)
                sample = _line_model_sample(ensemble, n, k, key)
                v = _d1_to_pooled(sample, pooled.atoms)
                values.append(v)
                records.append(SummaryRecord(ensemble.value, n, r, "d1", v, key))
                if ensemble is EnsembleTag.RANDOMIZED_SUM:
                    w = _weyl_violation(n, key)
                    records.append(SummaryRecord(ensemble.value, n, r, "weyl_violation", w, key))
            x = k * n if ensemble is EnsembleTag.COMPRESSION else n
        summaries.append(_summarize(n, x, values))

    fit = None
    if len(summaries) >= 3:
        fit = fit_loglog([(s.x, s.mean) for s in summaries])
    else:
        warnings.append("fewer than 3 grid points: rate fit omitted")
    return RateExperimentResult(tuple(summaries), fit, tuple(records), tuple(warnings))


def _weyl_violation(n: int, key: StreamKey) -> float:
    """1.0 if the randomized-sum spectrum escapes the Weyl interval
    [min(A)+min(B), max(A)+max(B)] by more than the slack, else 0.0."""
    a = gue_wigner(n, subkey(key, "a"))
    b = gue_wigner(n, subkey(key, "b"))
    u = haar_unitary(n, subkey(key, "u"))
    mm = randomized_sum(a, b, u)
    ea = eig_hermitian(a).values
    eb = eig_hermitian(b).values
    em = eig_hermitian(mm).values
    slack = 1e-8 * (max(abs(ea[0]), abs(ea[-1])) + max(abs(eb[0]), abs(eb[-1])))
    lo, hi = ea[0] + eb[0] - slack, ea[-1] + eb[-1] + slack
    return 0.0 if (em[0] >= lo and em[-1] <= hi) else 1.0


def run_concentration_experiment(plan: ExperimentPlan, t_grid=None, workers: int = 1) -> ConcentrationResult:
    """Empirical tails P[d1 >= mean + t] per (n, t), plus a log-log fit of
    the per-n standard deviation of d1 against n."""
    ts = tuple(t_grid) if t_grid is not None else (plan.t_grid or ())
    rate = run_rate_experiment(plan, workers=workers)
    tails, stds = [], []
    by_n = {}
    for rec in rate.records:
        if rec.statistic == "d1":
            by_n.setdefault(rec.n, []).append((rec.replicate, rec.value))
    for n in plan.n_grid:
        vals = np.array([v for _, v in sorted(by_n[n])])
        mean = vals.mean()
        stds.append((n, float(vals.std(ddof=1))))
        for t in ts:
            hits = int(np.sum(vals >= mean + t))
            lo, hi = wilson_interval(hits, vals.size)
            tails.append(TailEstimate(n=n, t=float(t), p_hat=hits / vals.size,
                                      replicates=vals.size, wilson_low=lo, wilson_high=hi))
    std_fit = fit_loglog(stds) if len(stds) >= 3 else None
    return ConcentrationResult(tuple(tails), std_fit, tuple(stds), rate.records)


def run_moment_experiment(plan: ExperimentPlan, k_max: int, workers: int = 1):
    """Monte-Carlo estimates of E tr U^k for k = 1..k_max (< n).

    U(n)/SU(n) means should be zero-consistent (|mean| <= 4 stderr); the
    real groups and Sp are bounded-consistent (|mean| <= 1 + 4 stderr).
    """
    ensemble = plan.ensemble
    if ensemble not in CIRCLE_TAGS:
        raise ContractError("moment identities apply to circle ensembles only")
    estimates, records = [], []
    for n in plan.n_grid:
        if k_max >= n:
            raise ContractError(f"moment order must satisfy k < n, got k_max={k_max}, n={n}")
        traces = np.empty((plan.replicates, k_max), dtype=np.complex128)
        for r in range(plan.replicates):
            key = StreamKey(plan.master_seed, ensemble.value, n, r)
            u = sample_circle_ensemble(ensemble, n, key)
            ang = eig_unitary_angles(u).angles
            for k in range(1, k_max + 1):
                traces[r, k - 1] = np.sum(np.exp(1j * k * ang))
        for k in range(1, k_max + 1):
            col = traces[:, k - 1]
            mean = col.mean()
            stderr = math.sqrt((col.real.var(ddof=1) + col.imag.var(ddof=1)) / col.size)
            amean = abs(mean)
            estimates.append(
                MomentEstimate(
                    ensemble=ensemble.value, n=n, k=k,
                    mean_re=float(mean.real), mean_im=float(mean.imag),
                    stderr=stderr,
                    zero_consistent=bool(amean <= 4.0 * stderr),
                    bounded_consistent=bool(amean <= 1.0 + 4.0 * stderr),
                )
            )
    return estimates


def two_sample_ks_critical(n1: int, n2: int, level: float = 0.01) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value."""
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return c * math.sqrt((n1 + n2) / (n1 * n2))


def run_identdist_experiment(n: int, replicates: int, seed: int,
                             ensemble_a: EnsembleTag = EnsembleTag.UNITARY,
                             ensemble_b: EnsembleTag = EnsembleTag.SU,
                             n_b: int | None = None) -> IdentDistResult:
    """Two-sample KS test between d1(mu_U, nu) samples from two ensembles.

    With the defaults this checks that U(n) and SU(n) give identically
    distributed distances; an accept at level 0.01 under a frozen seed is
    the pass condition.
    """
    if replicates < 2:
        raise ContractError("need at least 2 replicates")
    nb = n_b if n_b is not None else n
    xs = np.array([
        circle_distance_stat(ensemble_a, n, StreamKey(seed, ensemble_a.value, n, r))
        for r in range(replicates)
    ])
    ys = np.array([
        circle_distance_stat(ensemble_b, nb, StreamKey(seed, ensemble_b.value, nb, r))
        for r in range(replicates)
    ])
    stat = float(stats.ks_2samp(xs, ys, method="asymp").statistic)
    crit = two_sample_ks_critical(xs.size, ys.size, level=0.01)
    return IdentDistResult(ks_statistic=stat, critical_value=crit,
                           accept=stat <= crit, samples_per_side=replicates)


@dataclass(frozen=True)
class LipschitzReport:
    trials: int
    hw_violations: int          # d2(mu_A, mu_B) <= n^{-1/2} ||A - B||_HS
    conjugation_violations: int  # ||U A U* - V A V*|| <= delta(A) ||U - V||
    compression_violations: int  # compressed version of the conjugation bound
    weyl_violations: int         # spectrum containment for U A U* + B

    @property
    def total(self) -> int:
        return (self.hw_violations + self.conjugation_violations
                + self.compression_violations + self.weyl_violations)


def run_lipschitz_suite(trials: int, n_max: int, seed: int, slack: float = 1e-8) -> LipschitzReport:
    """Check the spectral-measure Lipschitz bound, the conjugation and
    compression Lipschitz bounds, and Weyl containment on random instances.
    All four are theorems; any violation indicates an implementation bug."""
    if n_max > 32:
        raise ContractError("suite is sized for n_max <= 32")
    rng = np.random.default_rng(seed)
    hw = conj = comp = weyl = 0
    for t in range(trials):
        n = int(rng.integers(2, n_max + 1))
        key = StreamKey(seed, "lipschitz_suite", n, t)
        a = gue_wigner(n, subkey(key, "a"))
        b = gue_wigner(n, subkey(key, "b"))
        u = haar_unitary(n, subkey(key, "u"))
        v = haar_unitary(n, subkey(key, "v"))

        ea, eb = eig_hermitian(a).values, eig_hermitian(b).values
        d2 = wp_line(EmpiricalMeasureLine(ea), EmpiricalMeasureLine(eb), 2.0).value
        if d2 > hs_norm(a.entries - b.entries) / math.sqrt(n) + slack:
            hw += 1

        delta = spectral_diameter(a)
        uv = hs_norm(u.entries - v.entries)
        lhs = hs_norm(u.entries @ a.entries @ u.entries.conj().T
                      - v.entries @ a.entries @ v.entries.conj().T)
        if lhs > delta * uv + slack:
            conj += 1

        k = int(rng.integers(1, n + 1))
        pu = (u.entries @ a.entries @ u.entries.conj().T)[:k, :k]
        pv = (v.entries @ a.entries @ v.entries.conj().T)[:k, :k]
        if hs_norm(pu - pv) > delta * uv + slack:
            comp += 1

        em = eig_hermitian(randomized_sum(a, b, u)).values
        if em[0] < ea[0] + eb[0] - slack or em[-1] > ea[-1] + eb[-1] + slack:
            weyl += 1
    return LipschitzReport(trials, hw, conj, comp, weyl)
