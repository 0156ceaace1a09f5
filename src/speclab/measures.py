"""Empirical spectral measures on the circle and line, pooled estimators,
and piecewise-linear test-function statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .matlin import (
    TWO_PI,
    HermitianView,
    UnitaryView,
    eig_hermitian,
    eig_unitary_angles,
)
from .rng import StreamKey


class EmpiricalMeasureCircle:
    """Uniform measure on n angle atoms in [0, 2*pi)."""

    domain = "circle"
    __slots__ = ("atoms",)

    def __init__(self, angles):
        ang = np.sort(np.asarray(angles, dtype=np.float64))
        if ang.ndim != 1 or ang.size < 1:
            raise ContractError("need a nonempty 1-D array of angles")
        if not np.all(np.isfinite(ang)):
            raise ContractError("angles must be finite")
        if ang[0] < 0.0 or ang[-1] >= TWO_PI:
            raise ContractError("angles must lie in [0, 2*pi)")
        ang.setflags(write=False)
        self.atoms = ang

    def __len__(self):
        return self.atoms.size


class EmpiricalMeasureLine:
    """Uniform measure on n real atoms."""

    domain = "line"
    __slots__ = ("atoms",)

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=np.float64))
        if vals.ndim != 1 or vals.size < 1:
            raise ContractError("need a nonempty 1-D array of values")
        if not np.all(np.isfinite(vals)):
            raise ContractError("values must be finite")
        vals.setflags(write=False)
        self.atoms = vals

    def __len__(self):
        return self.atoms.size


@dataclass(frozen=True)
class PooledMeasure:
    """Uniform measure on the multiset union of several replicate spectra."""

    domain: str
    atoms: np.ndarray
    provenance: tuple = ()

    def __len__(self):
        return self.atoms.size

    def as_measure(self):
        if self.domain == "circle":
            return EmpiricalMeasureCircle(self.atoms)
        return EmpiricalMeasureLine(self.atoms)


class UniformCircleReference:
    """The uniform probability measure on the unit circle."""

    domain = "circle"


class SemicircleReference:
    """The standard semicircle law on [-2, 2]."""

    domain = "line"
    support = (-2.0, 2.0)

    @staticmethod
    def density(x):
        x = np.asarray(x, dtype=np.float64)
        inside = np.abs(x) < 2.0
        out = np.zeros_like(x)
        out[inside] = np.sqrt(4.0 - x[inside] ** 2) / TWO_PI
        return out


def esd_circle(u: UnitaryView) -> EmpiricalMeasureCircle:
    """Empirical spectral measure of a unitary matrix, as angle atoms."""
    return EmpiricalMeasureCircle(eig_unitary_angles(u).angles)


def esd_line(a: HermitianView) -> EmpiricalMeasureLine:
    """Empirical spectral measure of a Hermitian matrix."""
    return EmpiricalMeasureLine(eig_hermitian(a).values)


def pool(samples, provenance: tuple[StreamKey, ...] = ()) -> PooledMeasure:
    """Uniform measure on the multiset union of equally-sized samples.

    Inputs must share a domain and atom count; callers sort by replicate
    index upstream so the result is deterministic.
    """
    samples = list(samples)
    if not samples:
        raise ContractError("cannot pool zero samples")
    domain = samples[0].domain
    n = len(samples[0])
    for s in samples[1:]:
        if s.domain != domain:
            raise ContractError("cannot pool measures from different domains")
        if len(s) != n:
            raise ContractError("cannot pool measures with different atom counts")
    atoms = np.sort(np.concatenate([s.atoms for s in samples]))
    atoms.setflags(write=False)
    return PooledMeasure(domain=domain, atoms=atoms, provenance=tuple(provenance))


@dataclass(frozen=True)
class PiecewiseLinearTestFunction:
    """Piecewise-linear Lipschitz function with f(anchor) = 0.

    Circle functions are 2*pi-periodic with knots in [0, 2*pi) and close up
    linearly from the last knot back to the first; the anchor is angle 0.
    Line functions extrapolate as constants beyond the outer knots; the
    anchor is x = 0.
    """

    domain: str
    knots: np.ndarray
    values: np.ndarray
    lipschitz: float

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or knots.size < 2 or knots.shape != values.shape:
            raise ContractError("knots and values must be matching 1-D arrays, >= 2 knots")
        if np.any(np.diff(knots) <= 0):
            raise ContractError("knots must be strictly increasing")
        if self.domain not in ("circle", "line"):
            raise ContractError(f"unknown domain {self.domain!r}")
        if self.lipschitz < 0:
            raise ContractError("Lipschitz constant must be nonnegative")
        if self.domain == "circle":
            if knots[0] < 0 or knots[-1] >= TWO_PI:
                raise ContractError("circle knots must lie in [0, 2*pi)")
            gaps = np.diff(np.concatenate([knots, [knots[0] + TWO_PI]]))
            rises = np.diff(np.concatenate([values, [values[0]]]))
        else:
            gaps = np.diff(knots)
            rises = np.diff(values)
        slopes = rises / gaps
        if np.any(np.abs(slopes) > self.lipschitz * (1 + 1e-12) + 1e-15):
            raise ContractError("segment slope exceeds the declared Lipschitz constant")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if abs(self(0.0)) > 1e-12:
            raise ContractError("test function must vanish at the anchor point")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.domain == "circle":
            xw = np.mod(x, TWO_PI)
            k = np.concatenate([self.knots, [self.knots[0] + TWO_PI]])
            v = np.concatenate([self.values, [self.values[0]]])
            xw = np.where(xw < k[0], xw + TWO_PI, xw)
            return np.interp(xw, k, v)
        return np.interp(x, self.knots, self.values)

    def integral_uniform_circle(self) -> float:
        """Exact integral against the uniform circle measure: trapezoids on
        each linear segment including the wrap-around one."""
        k = np.concatenate([self.knots, [self.knots[0] + TWO_PI]])
        v = np.concatenate([self.values, [self.values[0]]])
        seg = np.diff(k) * (v[:-1] + v[1:]) / 2.0
        return float(np.sum(seg) / TWO_PI)

    def integral_semicircle(self, tol: float = 1e-10) -> float:
        """Integral against the semicircle density by adaptive quadrature."""
        from scipy import integrate

        lo, hi = SemicircleReference.support
        pts = self.knots[(self.knots > lo) & (self.knots < hi)]
        val, _ = integrate.quad(
            lambda x: float(self(x)) * float(SemicircleReference.density(x)),
            lo,
            hi,
            points=list(pts),
            limit=200,
            epsabs=tol,
        )
        return float(val)


def integrate_against(f: PiecewiseLinearTestFunction, measure) -> float:
    """Integral of f against an empirical measure or a continuous reference."""
    if isinstance(measure, UniformCircleReference):
        return f.integral_uniform_circle()
    if isinstance(measure, SemicircleReference):
        return f.integral_semicircle()
    return float(np.mean(f(measure.atoms)))


def linear_statistic(f: PiecewiseLinearTestFunction, m, ref) -> float:
    """X_f = integral of f against m minus its integral against ref."""
    if f.domain != m.domain or f.domain != ref.domain:
        raise ContractError("test function and measures must share a domain")
    return integrate_against(f, m) - integrate_against(f, ref)
