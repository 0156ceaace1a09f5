"""Empirical spectral measures on the circle and the line, and pooling.

This is the bottom layer: the eigensolvers in ``matlin`` return the measure
types defined here, so the module imports no speclab module but ``errors``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

TWO_PI = 2.0 * np.pi


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

    def __reduce__(self):  # unpickled atoms are revalidated and read-only
        return type(self), (self.atoms,)


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

    def __reduce__(self):  # unpickled atoms are revalidated and read-only
        return type(self), (self.atoms,)


def pool(samples):
    """Uniform measure on the multiset union of equally-sized samples, of the
    samples' own measure type.

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
    return type(samples[0])(np.concatenate([s.atoms for s in samples]))
