"""Exact 1-D Wasserstein distances.

Three exact routes are implemented and cross-checked against each other:
sorted pairing on the line, the circular-CDF formula on the circle, and a
brute-force minimal-assignment oracle for small instances.

The circle's canonical ground metric here is the geodesic (arc-length)
metric, for which the CDF formula is exact.  The chordal metric |e^{it} -
e^{is}| is sandwiched pointwise by (2/pi) geo <= chord <= geo, so every
geodesic value carries a chordal bracket in its metadata; exact chordal
values are available for small n through the assignment oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ContractError, SizeGuardError
from .measures import TWO_PI, EmpiricalMeasureCircle, EmpiricalMeasureLine

ORACLE_MAX_ATOMS = 12


class GroundMetric(Enum):
    LINE_EUCLIDEAN = "line_euclidean"
    CIRCLE_GEODESIC = "circle_geodesic"
    CIRCLE_CHORDAL = "circle_chordal"


class Algorithm(Enum):
    SORTED_PAIRING = "sorted_pairing"
    CIRCLE_CDF = "circle_cdf"
    CDF_INTEGRAL = "cdf_integral"
    ASSIGNMENT_ORACLE = "assignment_oracle"


@dataclass(frozen=True)
class DistanceResult:
    value: float
    p: float
    metric: GroundMetric
    algorithm: Algorithm
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ContractError("distance cannot be negative")
        if not 1.0 <= self.p <= 2.0:
            raise ContractError("p must lie in [1, 2]")


def geodesic_distance(theta, phi):
    """Arc-length distance on the circle, in [0, pi]."""
    d = np.abs(np.mod(theta - phi, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def chordal_distance(theta, phi):
    """|e^{i theta} - e^{i phi}| = 2 sin(geodesic/2)."""
    return 2.0 * np.sin(geodesic_distance(theta, phi) / 2.0)


def wp_line(m1: EmpiricalMeasureLine, m2: EmpiricalMeasureLine, p: float = 1.0) -> DistanceResult:
    """d_p between equal-size empirical line measures via the monotone
    (sorted) coupling, which is exact in one dimension for p >= 1."""
    if len(m1) != len(m2):
        raise ContractError(
            f"atom counts differ ({len(m1)} vs {len(m2)}); weighted transport is unsupported"
        )
    if not 1.0 <= p <= 2.0:
        raise ContractError("p must lie in [1, 2]")
    diffs = np.abs(m1.atoms - m2.atoms)
    value = float(np.mean(diffs**p) ** (1.0 / p))
    return DistanceResult(value, p, GroundMetric.LINE_EUCLIDEAN, Algorithm.SORTED_PAIRING)


def _value_median(los: np.ndarray, his: np.ndarray, masses: np.ndarray) -> float:
    """Median of a mixture of uniform distributions on [lo_i, hi_i] with
    masses m_i; degenerate intervals count as point masses.  A nondegenerate
    median interval is resolved to its midpoint.

    One sorted sweep over the breakpoints: each segment adds its density
    m_i / w_i at lo_i and removes it at hi_i, point masses add a jump at lo_i,
    and a cumulative sum gives the mixture CDF at every breakpoint in
    O(N log N) time and O(N) memory."""
    total = float(np.sum(masses))
    half = total / 2.0
    eps = 1e-12 * max(total, 1.0)

    pts = np.unique(np.concatenate([los, his]))
    widths = his - los
    flat = widths <= 0.0
    size = pts.size
    rate = masses[~flat] / widths[~flat]
    density_steps = (np.bincount(np.searchsorted(pts, los[~flat]), rate, size)
                     - np.bincount(np.searchsorted(pts, his[~flat]), rate, size))
    density = np.maximum(np.cumsum(density_steps)[:-1], 0.0)
    jumps = np.bincount(np.searchsorted(pts, los[flat]), masses[flat], size)
    # cumulative mass at each breakpoint, nondecreasing
    vals = np.concatenate([[0.0], np.cumsum(density * np.diff(pts))]) + np.cumsum(jumps)

    # the cumulative sums round, so a breakpoint within eps below half
    # reaches the half-mass level
    i = int(np.searchsorted(vals, half - eps))
    if i == 0:
        return float(pts[0])
    if i >= size:
        return float(pts[-1])
    if vals[i] > half + eps:
        # the cdf passes half below pts[i] or in its point mass: interpolate
        # toward the mass strictly below pts[i]
        below = vals[i] - jumps[i]
        if below <= half + eps:
            return float(pts[i])
        a, b = pts[i - 1], pts[i]
        fa = vals[i - 1]
        return float(a + (half - fa) / (below - fa) * (b - a))
    # cdf hits half at pts[i]; the median set extends to the last flat point
    j = int(np.searchsorted(vals, half + eps, side="right")) - 1
    return float((pts[i] + pts[j]) / 2.0)


def _circle_cdf_segments(atoms: np.ndarray):
    """Segments of G(t) = F(t) - t/(2*pi) on [0, 2*pi): arrays of segment
    length, value at the left endpoint, and value at the right endpoint.
    G decreases at constant slope -1/(2*pi) inside each segment."""
    n = atoms.size
    lefts = np.concatenate([[0.0], atoms])
    rights = np.concatenate([atoms, [TWO_PI]])
    levels = np.arange(n + 1) / n
    lengths = rights - lefts
    keep = lengths > 0
    lefts, rights, levels, lengths = lefts[keep], rights[keep], levels[keep], lengths[keep]
    g_left = levels - lefts / TWO_PI
    g_right = levels - rights / TWO_PI
    return lengths, g_left, g_right


def w1_circle_uniform(m: EmpiricalMeasureCircle) -> DistanceResult:
    """Exact geodesic W1 to the uniform circle measure.

    Uses min over c of the integral of |F_m(t) - t/(2*pi) - c| dt, where c
    ranges over shifts; the optimal c is a Lebesgue-median of the piecewise
    linear integrand and every segment integral has a closed form.
    """
    lengths, g_left, g_right = _circle_cdf_segments(m.atoms)
    # G's pushforward: uniform on [g_right, g_left] per segment, t-mass = length
    los, his = g_right, g_left
    c = _value_median(los, his, lengths)

    def h(x):
        return x * np.abs(x) / 2.0

    # integral over a segment: since |dG/dt| = 1/(2*pi), dt = 2*pi dv
    value = float(np.sum(TWO_PI * (h(his - c) - h(los - c))))
    return DistanceResult(
        value,
        1.0,
        GroundMetric.CIRCLE_GEODESIC,
        Algorithm.CIRCLE_CDF,
        extras={"chordal_lower": 2.0 / np.pi * value, "chordal_upper": value},
    )


def w1_circle_pair(m1: EmpiricalMeasureCircle, m2: EmpiricalMeasureCircle) -> DistanceResult:
    """Exact geodesic W1 between two empirical circle measures via the
    circular-CDF formula; the integrand is piecewise constant."""
    cuts = np.unique(np.concatenate([[0.0], m1.atoms, m2.atoms, [TWO_PI]]))
    lengths = np.diff(cuts)
    mids = cuts[:-1]
    f1 = np.searchsorted(m1.atoms, mids, side="right") / len(m1)
    f2 = np.searchsorted(m2.atoms, mids, side="right") / len(m2)
    g = f1 - f2
    # any Lebesgue median of g minimizes the integral of |g - c|
    c = _value_median(g, g, lengths)
    value = float(np.sum(lengths * np.abs(g - c)))
    return DistanceResult(
        value,
        1.0,
        GroundMetric.CIRCLE_GEODESIC,
        Algorithm.CIRCLE_CDF,
        extras={"chordal_lower": 2.0 / np.pi * value, "chordal_upper": value},
    )


def w1_line_vs_cdf(
    m: EmpiricalMeasureLine, ref_cdf, support=(-np.inf, np.inf), tol: float = 1e-10
) -> DistanceResult:
    """W1 between an empirical line measure and a continuous reference CDF,
    via the identity W1 = integral of |F_m - F_ref|.

    One adaptive ``quad`` per segment between atoms, so ``ref_cdf`` is called
    on one Python float per quadrature node."""
    from scipy import integrate

    atoms = m.atoms
    n = atoms.size
    lo, hi = support
    lo = min(lo, atoms[0])
    hi = max(hi, atoms[-1])
    total = 0.0
    # left tail: F_m = 0
    if lo < atoms[0]:
        val, _ = integrate.quad(ref_cdf, lo, atoms[0], limit=200, epsabs=tol)
        total += val
    # interior segments: F_m = k/n is constant
    for k in range(1, n):
        a, b = atoms[k - 1], atoms[k]
        if b > a:
            level = k / n
            val, _ = integrate.quad(
                lambda x: abs(level - ref_cdf(x)), a, b, limit=200, epsabs=tol
            )
            total += val
    # right tail: F_m = 1
    if hi > atoms[-1]:
        val, _ = integrate.quad(
            lambda x: abs(1.0 - ref_cdf(x)), atoms[-1], hi, limit=200, epsabs=tol
        )
        total += val
    if not np.isfinite(total):
        raise ContractError("reference CDF is not integrable against the measure")
    return DistanceResult(float(total), 1.0, GroundMetric.LINE_EUCLIDEAN, Algorithm.CDF_INTEGRAL)


def assignment_oracle(m1, m2, metric: GroundMetric, p: float = 1.0) -> DistanceResult:
    """Exact d_p for equal-weight atoms as a minimal assignment (exact
    Hungarian-type solver).  Deliberately limited to small n: this is the
    validation oracle, not the production path."""
    if len(m1) != len(m2):
        raise ContractError("assignment oracle needs equal atom counts")
    n = len(m1)
    if n > ORACLE_MAX_ATOMS:
        raise SizeGuardError(f"oracle limited to n <= {ORACLE_MAX_ATOMS}, got {n}")
    if not 1.0 <= p <= 2.0:
        raise ContractError("p must lie in [1, 2]")
    x = m1.atoms[:, None]
    y = m2.atoms[None, :]
    if metric is GroundMetric.LINE_EUCLIDEAN:
        cost = np.abs(x - y)
    elif metric is GroundMetric.CIRCLE_GEODESIC:
        cost = geodesic_distance(x, y)
    elif metric is GroundMetric.CIRCLE_CHORDAL:
        cost = chordal_distance(x, y)
    else:
        raise ContractError(f"unknown metric {metric}")
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost**p)
    value = float((np.sum(cost[rows, cols] ** p) / n) ** (1.0 / p))
    return DistanceResult(value, p, metric, Algorithm.ASSIGNMENT_ORACLE)


def semicircle_cdf(x: float) -> float:
    """CDF of the standard semicircle law on [-2, 2], for one real x.

    Scalar on ``math``: quadrature calls it once per node, where numpy's
    per-call dispatch on a 0-d array would cost more than the formula."""
    if x <= -2.0:
        return 0.0
    if x >= 2.0:
        return 1.0
    return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) + math.asin(x / 2.0) / math.pi
