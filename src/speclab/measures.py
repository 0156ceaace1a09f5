"""Empirical spectral measures on the circle and the line, and pooling.

This is the bottom layer: the eigensolvers in ``matlin`` return the measure
types defined here, so the module imports no speclab module but ``errors``.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

TWO_PI = 2.0 * np.pi


class _EmpiricalMeasure:
    """Uniform measure on n sorted, finite, read-only atoms: the one
    constructor of both domains, whose messages name the subclass's noun."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        arr = np.asarray(atoms, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ContractError(f"need a nonempty 1-D array of {self.noun}")
        arr = np.sort(arr)
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"{self.noun} must be finite")
        arr.setflags(write=False)
        self.atoms = arr

    def __len__(self):
        return self.atoms.size

    def __reduce__(self):  # unpickled atoms are revalidated and read-only
        return type(self), (self.atoms,)


class EmpiricalMeasureCircle(_EmpiricalMeasure):
    """Uniform measure on n angle atoms in [0, 2*pi)."""

    domain = "circle"
    noun = "angles"
    __slots__ = ()

    def __init__(self, angles):
        super().__init__(angles)
        if self.atoms[0] < 0.0 or self.atoms[-1] >= TWO_PI:
            raise ContractError("angles must lie in [0, 2*pi)")


class EmpiricalMeasureLine(_EmpiricalMeasure):
    """Uniform measure on n real atoms."""

    domain = "line"
    noun = "values"
    __slots__ = ()


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
