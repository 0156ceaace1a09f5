"""Declarative Monte-Carlo experiments.  One run of a plan gives one
``RateExperimentResult``: the mean-distance rate, the concentration tails and
the trace-moment estimates, rendered by its ``summary()`` as summary.json.
Beside it sits the Lipschitz/containment inequality suite.

Every experiment maps one cell kernel over its (n, replicate) stream keys,
in one process pool at most, and reduces the cells in key order, so results
are identical for any worker count.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .ensembles import (
    ENSEMBLES,
    MAX_DIMENSION,
    EnsembleTag,
    haar_unitary,
    randomized_sum,
    randomized_sum_factors,
    sample_compression,
)
from .errors import ContractError, SpeclabError
from .matlin import HermitianView, eig_hermitian, hold_heap, hs_norm, ritz_bounds
from .measures import EmpiricalMeasureLine
from .rng import StreamKey, subkey
from .transport import w1_circle_uniform, wp_line

Z95 = 1.959963984540054  # the normal 97.5% quantile: two-sided 95% intervals


def _show(value) -> str:
    """A plan value as JSON writes it, for refusal messages."""
    return json.dumps(value, default=repr)


def _integer(key: str, value) -> int:
    """A plan integer.  Booleans, strings and non-integral numbers are
    refused rather than converted or truncated."""
    if not isinstance(value, bool) and (isinstance(value, numbers.Integral)
                                        or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ContractError(f"/{key}: expected an integer, got {_show(value)}")


def _real(key: str, value) -> float:
    """A plan real.  Booleans, which would run as 0 or 1, and strings are
    refused, and so are NaN and the infinities, which would reach
    summary.json as tokens that strict JSON readers reject."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            if math.isfinite(real := float(value)):
                return real
    raise ContractError(f"/{key}: expected a finite number, got {_show(value)}")


def _array(key: str, value, item) -> tuple:
    """A plan array, each element converted by ``item(key, element)``."""
    if not isinstance(value, (list, tuple)):
        raise ContractError(f"/{key}: expected an array, got {_show(value)}")
    return tuple(item(key, v) for v in value)


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one Monte-Carlo run.  The fields are the
    plan file's keys, so ``asdict(plan)`` is the plan block of summary.json;
    every refusal is a ``ContractError`` that starts with ``/<key>:``."""

    ensemble: EnsembleTag
    n_grid: tuple
    replicates: int
    seed: int
    k_rule: str | None = None  # "half" or "fixed:<int>"; compressions only
    t_grid: tuple | None = None  # an empty grid is None: no concentration tails
    moments_kmax: int | None = None

    @classmethod
    def from_json(cls, raw, seed: int | None = None) -> ExperimentPlan:
        """The plan a decoded JSON plan file describes.  ``seed``, when
        given, replaces the file's seed, which must still be present."""
        if not isinstance(raw, dict):
            raise ContractError("/: plan must be a JSON object")
        schema = fields(cls)
        for f in schema:
            if f.default is MISSING and f.name not in raw:
                raise ContractError(f"/{f.name}: required field missing")
        unknown = sorted(set(raw) - {f.name for f in schema})
        if unknown:
            raise ContractError(f"/{unknown[0]}: unknown field")
        return cls(**(raw if seed is None else {**raw, "seed": seed}))

    def __post_init__(self):
        try:
            tag = EnsembleTag(self.ensemble)
        except (TypeError, ValueError):
            raise ContractError(f"/ensemble: unknown ensemble {_show(self.ensemble)}") from None
        grid = _array("n_grid", self.n_grid, _integer)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ContractError(f"/n_grid: must be nonempty and strictly ascending, "
                                f"got {list(grid)}")
        if grid[0] < 1:
            raise ContractError(f"/n_grid: dimensions must be positive, got {list(grid)}")
        if grid[-1] > MAX_DIMENSION:
            raise ContractError(f"/n_grid: dimensions must be at most {MAX_DIMENSION}, "
                                f"got {list(grid)}")
        replicates = _integer("replicates", self.replicates)
        if replicates < 2:
            raise ContractError(f"/replicates: need at least 2, got {replicates}")
        seed = _integer("seed", self.seed)
        k_rule = self.k_rule
        # isdecimal, not isdigit: int() rejects digits such as superscripts
        if k_rule is not None and not (isinstance(k_rule, str) and (
                k_rule == "half" or k_rule.startswith("fixed:") and k_rule[6:].isdecimal())):
            raise ContractError(f"/k_rule: unknown rule {_show(k_rule)}")
        t_grid = None if self.t_grid is None else _array("t_grid", self.t_grid, _real) or None
        kmax = None if self.moments_kmax is None else _integer("moments_kmax", self.moments_kmax)
        if kmax is not None and kmax < 1:
            raise ContractError(f"/moments_kmax: must be at least 1, got {kmax}")
        for name, value in (("ensemble", tag), ("n_grid", grid), ("replicates", replicates),
                            ("seed", seed), ("t_grid", t_grid), ("moments_kmax", kmax)):
            object.__setattr__(self, name, value)

        # checks that span several keys
        row = ENSEMBLES[tag]
        if row.half_dimension and any(n % 2 for n in grid):
            raise ContractError(f"/n_grid: {tag.value} requires even ambient "
                                f"dimensions, got {list(grid)}")
        if kmax is not None and row.domain != "circle":
            raise ContractError("/moments_kmax: applies to circle ensembles only")
        if kmax is not None and kmax >= grid[0]:
            raise ContractError(f"/moments_kmax: moment order must satisfy k < n, got "
                                f"moments_kmax={kmax}, min(n_grid)={grid[0]}")
        if k_rule is not None and not row.kn_abscissa:
            raise ContractError("/k_rule: applies to compression plans only")
        # the grid ascends, so a k that fits its first n fits every n
        n = grid[0]
        if row.kn_abscissa and not 1 <= self.k_of(n) <= n:
            raise ContractError(f"/k_rule: k must be in 1..{n}, got {self.k_of(n)} at n={n}")

    def k_of(self, n: int) -> int:
        if self.k_rule in (None, "half"):
            return math.ceil(n / 2)
        return int(self.k_rule[6:])


@dataclass(frozen=True)
class SummaryRecord:
    ensemble: str
    n: int
    replicate: int
    statistic: str
    value: float
    seed: int  # the plan's master seed


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
    """Everything one run of a plan measures; ``summary()`` is summary.json."""

    plan: ExperimentPlan
    summaries: tuple  # PerDimensionSummary per n
    fit: RateFitResult | None  # mean d1 against the abscissa; None below 3 grid points
    records: tuple
    warnings: tuple = ()
    tails: tuple = ()  # TailEstimates per (n, t), when the plan sets t_grid
    std_fit: RateFitResult | None = None  # std(d1) against n, for a t_grid plan; None if one is 0
    moments: tuple = ()  # MomentEstimates, when the plan sets moments_kmax

    @property
    def passed(self) -> bool:
        """The fitted slope is at or below the ensemble's rate threshold."""
        return (self.fit is not None
                and self.fit.slope <= ENSEMBLES[self.plan.ensemble].rate_slope_max)

    def summary(self) -> dict:
        """The summary.json object: the plan, then either the concentration
        block (a plan with a t_grid) or the rate block, then the moments."""
        out: dict = {"plan": asdict(self.plan)}
        if self.plan.t_grid:
            out["concentration"] = {
                "std_by_n": [{"n": s.n, "std": s.std} for s in self.summaries],
                "std_fit": None if self.std_fit is None else asdict(self.std_fit),
                "tails": [asdict(t) for t in self.tails],
            }
        else:
            threshold = ENSEMBLES[self.plan.ensemble].rate_slope_max
            out["rate"] = {
                "per_n": [
                    {"n": s.n, "x": s.x, "mean_d1": s.mean, "std_d1": s.std,
                     "ci95": [s.ci95_low, s.ci95_high]}
                    for s in self.summaries
                ],
                "fit": None if self.fit is None else asdict(self.fit),
                f"slope_flag_leq_{threshold}": self.passed,
                "warnings": list(self.warnings),
            }
        if self.plan.moments_kmax:
            out["moments"] = [asdict(e) for e in self.moments]
        return out


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


def fit_loglog(points) -> RateFitResult:
    """Least-squares fit of log y against log x."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ContractError("need at least 3 points for a rate fit")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ContractError("rate fits need strictly positive data")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    if lx.min() == lx.max():
        raise ContractError("rate fits need at least two distinct x values")
    # scipy.stats.linregress's formulas, so the fit matches it bit for bit
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0) if ssym else np.nan
    slope = ssxym / ssxm
    return RateFitResult(
        slope=float(slope),
        intercept=float(np.mean(ly) - slope * np.mean(lx)),
        slope_stderr=float(np.sqrt((1 - r**2) * ssym / ssxm / (len(pts) - 2))),
        r_squared=float(r**2),
        n_used=len(pts),
    )


def wilson_interval(successes: int, trials: int):
    """Wilson 95% score interval for a binomial proportion."""
    if trials <= 0:
        raise ContractError("need at least one trial")
    p = successes / trials
    denom = 1.0 + Z95**2 / trials
    center = (p + Z95**2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + Z95**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# the cell kernel: one (n, replicate) cell per task


def _d1_to_pooled(sample: EmpiricalMeasureLine, pooled: EmpiricalMeasureLine) -> float:
    """Exact W1 between a sample and the pool of m such samples it is
    measured against."""
    return wp_line(sample, pooled, 1.0)


def _weyl_violation(ea: np.ndarray, eb: np.ndarray, em: np.ndarray, slack: float) -> bool:
    """Whether the sorted spectrum em of U A U* + B escapes the Weyl interval
    [min(A)+min(B), max(A)+max(B)] by more than slack."""
    return not (em[0] >= ea[0] + eb[0] - slack and em[-1] <= ea[-1] + eb[-1] + slack)


def _weyl_record(a: HermitianView, b: HermitianView, em: np.ndarray) -> float:
    """The ``weyl_violation`` record, 1.0 or 0.0, of a measured cell whose
    sum U A U* + B has the sorted spectrum em.

    The Ritz inner bounds of A and B are tried first, with no slack: a
    spectrum inside [theta_min(A) + theta_min(B), theta_max(A) + theta_max(B)]
    is inside the Weyl interval too, and passes the exact check.  Otherwise
    A's and B's full spectra decide it, with a slack of 1e-8 times the sum
    of their spectral radii.
    """
    (a_lo, a_hi), (b_lo, b_hi) = ritz_bounds(a), ritz_bounds(b)
    if a_lo + b_lo <= em[0] and em[-1] <= a_hi + b_hi:
        return 0.0
    ea, eb = eig_hermitian(a).atoms, eig_hermitian(b).atoms
    slack = 1e-8 * (max(abs(ea[0]), abs(ea[-1])) + max(abs(eb[0]), abs(eb[-1])))
    return float(_weyl_violation(ea, eb, em, slack))


def _cell(task) -> dict:
    """One (plan, n, replicate) cell: one draw, one spectrum, and every
    statistic that needs the sample itself.  Module-level so process pools
    can pickle it.

    A circle cell gives ``d1`` to the uniform law, plus ``traces`` (tr U^k
    for k = 1..moments_kmax) when the plan asks for moments.  A line cell
    gives its ``spectrum``; a measured randomized-sum cell (replicate >= m)
    also gives ``weyl_violation`` from the same draw and eigensolve; A's
    and B's full spectra are computed only when their Ritz inner bounds
    cannot certify containment (``_weyl_record``).  A ``SpeclabError``
    comes back as its own type, its message prefixed with the cell's
    ensemble, n and replicate.
    """
    plan, n, r = task
    tag, row = plan.ensemble, ENSEMBLES[plan.ensemble]
    key = StreamKey(plan.seed, tag.value, n, r)
    try:
        if row.sampler is not None:
            measure = row.spectrum(n, key)
            if row.domain == "line":
                return {"spectrum": measure}
            out = {"d1": w1_circle_uniform(measure)}
            if plan.moments_kmax:
                out["traces"] = [np.sum(np.exp(1j * k * measure.atoms))
                                 for k in range(1, plan.moments_kmax + 1)]
            return out
        if tag is EnsembleTag.COMPRESSION:
            return {"spectrum": eig_hermitian(sample_compression(n, plan.k_of(n), key))}
        a, b, u = randomized_sum_factors(n, key)
        out = {"spectrum": eig_hermitian(randomized_sum(a, b, u))}
        if r >= plan.replicates:
            out["weyl_violation"] = _weyl_record(a, b, out["spectrum"].atoms)
        return out
    except SpeclabError as exc:
        # the CLI prints only the message, from whichever process ran the cell
        raise type(exc)(f"{tag.value} n={n} replicate={r}: {exc}") from exc


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parallel_map(fn, items, workers: int):
    # the pool starts all its workers at once, so never ask for more than the CPUs;
    # each worker holds its heap as the CLI's own process does, whatever the start method
    workers = min(workers, usable_cpus())
    if workers <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers, initializer=hold_heap) as pool_:
        try:
            return list(pool_.map(fn, items, chunksize=16))
        except BrokenProcessPool:
            raise SpeclabError(
                "a worker process ended abruptly (killed, or out of memory)") from None


# ---------------------------------------------------------------------------
# experiments: reduces over the cells of one plan


def _summarize(n, x, values):
    values = np.asarray(values, dtype=np.float64)
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    half = Z95 * std / math.sqrt(values.size)
    return PerDimensionSummary(n=n, x=float(x), mean=mean, std=std,
                               ci95_low=mean - half, ci95_high=mean + half)


def _moment_estimates(ensemble: EnsembleTag, n: int, traces: np.ndarray) -> list:
    """E tr U^k per k from a (replicates x k_max) array of traces.

    U(n)/SU(n) means should be zero-consistent (|mean| <= 4 stderr); the
    real groups and Sp are bounded-consistent (|mean| <= 1 + 4 stderr).
    """
    estimates = []
    for k in range(1, traces.shape[1] + 1):
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


def run_rate_experiment(plan: ExperimentPlan, workers: int = 1) -> RateExperimentResult:
    """Mean d1 to the reference per dimension, plus a log-log rate fit; the
    tails P[d1 >= mean + t] and a log-log fit of std(d1) against n when the
    plan sets ``t_grid``; the trace moments when it sets ``moments_kmax``.

    Circle ensembles measure against the uniform law; line models use a
    split-sample pooled reference: the concatenated spectra of replicates
    0..m-1, in replicate order, against which replicates m..2m-1 are
    measured.  Every cell of the plan goes through one ``_parallel_map`` call.
    """
    tag, m = plan.ensemble, plan.replicates
    row = ENSEMBLES[tag]
    first = 0 if row.domain == "circle" else m  # first measured replicate
    reps = first + m
    cells = _parallel_map(_cell, [(plan, n, r) for n in plan.n_grid for r in range(reps)],
                          workers)
    summaries, records, tails, moments, warnings = [], [], [], [], []
    for i, n in enumerate(plan.n_grid):
        block = cells[i * reps:(i + 1) * reps]
        if first:
            pooled = EmpiricalMeasureLine(np.concatenate([c["spectrum"].atoms
                                                          for c in block[:first]]))
            for c in block[first:]:
                c["d1"] = _d1_to_pooled(c["spectrum"], pooled)
        for r in range(first, reps):
            for stat in ("d1", "weyl_violation"):
                if stat in block[r]:
                    records.append(SummaryRecord(tag.value, n, r, stat, block[r][stat], plan.seed))
        x = plan.k_of(n) * n if row.kn_abscissa else n
        d1 = np.array([c["d1"] for c in block[first:]])
        summary = _summarize(n, x, d1)
        summaries.append(summary)
        for t in plan.t_grid or ():
            hits = int(np.sum(d1 >= summary.mean + t))
            lo, hi = wilson_interval(hits, d1.size)
            tails.append(TailEstimate(n=n, t=t, p_hat=hits / d1.size, replicates=d1.size,
                                      wilson_low=lo, wilson_high=hi))
        if plan.moments_kmax:
            moments += _moment_estimates(tag, n, np.array([c["traces"] for c in block]))

    fit = std_fit = None
    if len(summaries) >= 3:
        fit = fit_loglog([(s.x, s.mean) for s in summaries])
        # only the plans whose summary reports this fit compute it; std(d1) can
        # be 0 (every d1 at n = 1 is pi/2), which a log-log fit refuses
        if plan.t_grid and all(s.std > 0 for s in summaries):
            std_fit = fit_loglog([(s.n, s.std) for s in summaries])
    else:
        warnings.append("fewer than 3 grid points: rate fit omitted")
    return RateExperimentResult(plan, tuple(summaries), fit, tuple(records), tuple(warnings),
                                tuple(tails), std_fit, tuple(moments))


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
    sizes = StreamKey(seed, "lipschitz_suite/sizes", n_max).generator()
    hw = conj = comp = weyl = 0
    for t in range(trials):
        n = int(sizes.integers(2, n_max + 1))
        key = StreamKey(seed, "lipschitz_suite", n, t)
        a, b, u = randomized_sum_factors(n, key)
        v = haar_unitary(n, subkey(key, "v"))

        ma, mb = eig_hermitian(a), eig_hermitian(b)
        ea, eb = ma.atoms, mb.atoms
        d2 = wp_line(ma, mb, 2.0)
        if d2 > hs_norm(a.entries - b.entries) / math.sqrt(n) + slack:
            hw += 1

        delta = ea[-1] - ea[0]  # the spectral diameter of A
        uv = hs_norm(u.entries - v.entries)
        uau = u.entries @ a.entries @ u.entries.conj().T
        vav = v.entries @ a.entries @ v.entries.conj().T
        if hs_norm(uau - vav) > delta * uv + slack:
            conj += 1

        k = int(sizes.integers(1, n + 1))
        if hs_norm(uau[:k, :k] - vav[:k, :k]) > delta * uv + slack:
            comp += 1

        if _weyl_violation(ea, eb, eig_hermitian(randomized_sum(a, b, u)).atoms, slack):
            weyl += 1
    return LipschitzReport(trials, hw, conj, comp, weyl)
