"""Exact 1-D Wasserstein distances.

Three exact routes are implemented and cross-checked against each other:
sorted pairing on the line, the circular-CDF formula on the circle, and a
brute-force minimal-assignment oracle for small instances.

Each route returns its distance as a Python float.  The circle's canonical
ground metric here is the geodesic (arc-length) metric, for which the CDF
formula is exact.  The chordal metric |e^{it} - e^{is}| is sandwiched
pointwise by (2/pi) geo <= chord <= geo; exact chordal values are available
for small n through the assignment oracle.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import ContractError, SizeGuardError
from .measures import TWO_PI, EmpiricalMeasureCircle, EmpiricalMeasureLine

ORACLE_MAX_ATOMS = 12
CDF_QUAD_TOL = 1e-10  # absolute tolerance of each quadrature in w1_line_vs_cdf


def line_distance(x, y):
    """|x - y| on the real line."""
    return np.abs(x - y)


def geodesic_distance(theta, phi):
    """Arc-length distance on the circle, in [0, pi]."""
    d = np.abs(np.mod(theta - phi, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def chordal_distance(theta, phi):
    """|e^{i theta} - e^{i phi}| = 2 sin(geodesic/2)."""
    return 2.0 * np.sin(geodesic_distance(theta, phi) / 2.0)


def wp_line(m1: EmpiricalMeasureLine, m2: EmpiricalMeasureLine, p: float = 1.0) -> float:
    """d_p between equal-size empirical line measures via the monotone
    (sorted) coupling, which is exact in one dimension for p >= 1.  A d_p
    that overflows float64 on the way is refused, not returned as inf."""
    if len(m1) != len(m2):
        raise ContractError(
            f"atom counts differ ({len(m1)} vs {len(m2)}); weighted transport is unsupported"
        )
    if not 1.0 <= p <= 2.0:
        raise ContractError("p must lie in [1, 2]")
    with np.errstate(over="ignore"):
        value = np.mean(np.abs(m1.atoms - m2.atoms) ** p) ** (1.0 / p)
    if not np.isfinite(value):
        raise ContractError(f"d_{p:g} between these measures overflows float64")
    return float(value)


def _h(x):
    """An antiderivative of |x|: the integral of |v| dv from 0 to x."""
    return x * np.abs(x) / 2.0


def w1_circle_uniform(m: EmpiricalMeasureCircle) -> float:
    """Exact geodesic W1 to the uniform circle measure, in quantile form.

    With x_i the sorted atoms over 2*pi and z_i = x_i - i/n (i = 1..n),
    W1 = 2*pi * min over theta of the sum of the integrals of |v - theta|
    over [z_i, z_i + 1/n] (Delon, Salomon & Sobolevski, 2010).  The
    intervals' union has density at least 1 between its ends, so its
    median theta is unique; each integral is h(z_i + 1/n - theta) -
    h(z_i - theta) with h(x) = x|x|/2.
    """
    n = len(m)
    z = m.atoms / TWO_PI - np.arange(1, n + 1) / n
    ends = np.concatenate([z, z + 1.0 / n])
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    # the union's density between consecutive ends, and its mass below each end
    density = np.cumsum(np.where(order < n, 1.0, -1.0))[:-1]
    mass = np.concatenate([[0.0], np.cumsum(density * np.diff(ends))])
    theta = np.interp(0.5, mass, ends)
    return float(TWO_PI * np.sum(_h(z + 1.0 / n - theta) - _h(z - theta)))


def w1_circle_pair(m1: EmpiricalMeasureCircle, m2: EmpiricalMeasureCircle) -> float:
    """Exact geodesic W1 between two empirical circle measures via the
    circular-CDF formula: min over c of the integral of |F1 - F2 - c|, where
    F1 - F2 is constant between cuts and c is its length-weighted median."""
    cuts = np.unique(np.concatenate([[0.0], m1.atoms, m2.atoms, [TWO_PI]]))
    lengths = np.diff(cuts)
    mids = cuts[:-1]
    f1 = np.searchsorted(m1.atoms, mids, side="right") / len(m1)
    f2 = np.searchsorted(m2.atoms, mids, side="right") / len(m2)
    g = f1 - f2
    order = np.argsort(g, kind="stable")
    below = np.cumsum(lengths[order])
    c = g[order[np.searchsorted(below, below[-1] / 2.0)]]
    return float(np.sum(lengths * np.abs(g - c)))


@functools.cache
def _load_qagse():
    """QUADPACK's ``qagse`` (Piessens et al., 1983) from scipy's compiled
    ``scipy.integrate._quadpack``, loaded without running the package's
    ``__init__``: that imports scipy.optimize, scipy.special and the ODE
    solvers, about 0.6 s that quadrature never uses."""
    import importlib.machinery
    import importlib.util
    import os

    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.integrate._quadpack", [os.path.join(scipy.__path__[0], "integrate")])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} at {scipy.__path__[0]} has no "
                          "compiled scipy.integrate._quadpack extension")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._qagse


def _quad(f, a: float, b: float) -> float:
    """Integral of f over a finite [a, b], a < b, by ``qagse`` with the
    arguments ``scipy.integrate.quad(f, a, b, limit=200, epsabs=CDF_QUAD_TOL)``
    passes it (1.49e-8 is quad's default epsrel), so every node, subdivision
    and returned float is quad's."""
    value, _, ier = _load_qagse()(f, a, b, (), 0, CDF_QUAD_TOL, 1.49e-8, 200)
    if ier:
        # quad warns for ier 1-5 with IntegrationWarning, which lives in the
        # scipy.integrate package this route does not import
        warnings.warn(f"QUADPACK qagse stopped with ier = {ier} on [{a:.17g}, {b:.17g}]; "
                      "the integral may miss its tolerance", UserWarning, stacklevel=3)
    return value


def w1_line_vs_cdf(m: EmpiricalMeasureLine, ref_cdf, support: tuple[float, float]) -> float:
    """W1 between an empirical line measure and a continuous reference CDF,
    via the identity W1 = integral of |F_m - F_ref|.

    ``support`` is a finite interval (lo, hi), lo < hi, outside which the
    reference has no mass.  One adaptive QUADPACK ``qagse`` per segment
    between atoms, so ``ref_cdf`` is called on one Python float per
    quadrature node."""
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ContractError(f"support must be a finite interval lo < hi, got {support!r}")
    atoms = m.atoms
    n = atoms.size
    ends = [min(lo, atoms[0]), *atoms, max(hi, atoms[-1])]
    total = 0.0
    # F_m = k/n on [ends[k], ends[k + 1]]: 0 on the left tail, 1 on the right
    for k in range(n + 1):
        a, b = ends[k], ends[k + 1]
        if b > a:
            level = k / n
            total += _quad(lambda x: abs(level - ref_cdf(x)), a, b)
    if not np.isfinite(total):
        raise ContractError("reference CDF is not integrable against the measure")
    return float(total)


def assignment_oracle(m1, m2, ground, p: float = 1.0) -> float:
    """Exact d_p for equal-weight atoms as a minimal assignment (exact
    Hungarian-type solver) under the ground distance ``ground(x, y)``:
    ``line_distance``, ``geodesic_distance`` or ``chordal_distance``.
    Deliberately limited to small n: this is the validation oracle, not the
    production path."""
    if len(m1) != len(m2):
        raise ContractError("assignment oracle needs equal atom counts")
    n = len(m1)
    if n > ORACLE_MAX_ATOMS:
        raise SizeGuardError(f"oracle limited to n <= {ORACLE_MAX_ATOMS}, got {n}")
    if not 1.0 <= p <= 2.0:
        raise ContractError("p must lie in [1, 2]")
    cost = ground(m1.atoms[:, None], m2.atoms[None, :])
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost**p)
    return float((np.sum(cost[rows, cols] ** p) / n) ** (1.0 / p))


def semicircle_cdf(x: float) -> float:
    """CDF of the standard semicircle law on [-2, 2], for one real x.

    Scalar on ``math``: quadrature calls it once per node, where numpy's
    per-call dispatch on a 0-d array would cost more than the formula."""
    if x <= -2.0:
        return 0.0
    if x >= 2.0:
        return 1.0
    return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) + math.asin(x / 2.0) / math.pi
