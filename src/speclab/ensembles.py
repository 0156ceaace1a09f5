"""Seeded samplers for every random-matrix model in the toolkit.

Haar measure on the classical compact groups O(n), SO(n), SO-(n), U(n),
SU(n), Sp(n/2) inside U(n); the circular ensembles COE(n) and CSE(n); Gaussian
Wigner (GUE-scaled) Hermitian matrices; random compressions; and randomized sums.

Every sampler takes the ambient dimension n that its StreamKey carries, and is
a pure function of that key: replaying a key reproduces the matrix bit-for-bit.
A sampler works on plain arrays and certifies only the matrix it returns, as
one ``UnitaryView`` or ``HermitianView``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, NumericalFailureError
from .matlin import (HermitianView, UnitaryView, qr_positive, det_lu, eig_hermitian,
                     eig_paired_angles, eig_unitary_angles)
from .rng import StreamKey, standard_complex_normal, subkey

DET_TOL = 1e-8
#: the largest ambient dimension n for which numpy can describe an n-by-n
#: complex128 array; numpy refuses a larger one before it allocates anything
MAX_DIMENSION = math.isqrt(np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize)


class EnsembleTag(str, Enum):
    ORTHOGONAL = "orthogonal"
    SO = "so"
    SO_MINUS = "so_minus"
    UNITARY = "unitary"
    SU = "su"
    SYMPLECTIC = "symplectic"
    COE = "coe"
    CSE = "cse"
    GUE_WIGNER = "gue_wigner"
    COMPRESSION = "compression"
    RANDOMIZED_SUM = "randomized_sum"


@dataclass(frozen=True)
class Ensemble:
    """What the code knows about one ensemble: a row of ``ENSEMBLES``."""

    domain: str  # "circle" (eigenangles) or "line" (real eigenvalues)
    #: name of the function in this module that draws one sample; None for
    #: the models built from several factors, which ``sample`` does not offer
    sampler: str | None = None
    half_dimension: bool = False  # the ambient n is even and `sample --n` is n/2 (Sp, CSE)
    #: slope a rate fit must reach for a PASS: the theorem rate is n^{-2/3},
    #: except for compressions, whose rate in kn is (kn)^{-1/3}
    rate_slope_max: float = -0.6
    kn_abscissa: bool = False  # the model has a rank k, and its rate abscissa is k*n
    #: the group's spectra are closed under theta -> -theta but for forced +-1
    #: (O, SO, SO-, Sp), so one symmetric eigensolve gives them
    paired: bool = False

    def sample(self, n: int, key: StreamKey):
        """One draw of ambient dimension n, which the sampler checks.  The
        sampler is looked up by name at call time, so rebinding the module
        attribute (a tracing wrapper, a test's patch) takes effect."""
        if self.sampler is None:
            raise ContractError("this ensemble has no single-matrix sampler")
        return globals()[self.sampler](n, key)

    @property
    def eig(self):
        """The eigensolver of this row's draws: ``eig_hermitian`` for a line
        row, ``eig_paired_angles`` for a paired circle row and
        ``eig_unitary_angles`` for the others.  Looked up at call time, as
        ``sample`` is."""
        if self.domain == "line":
            return eig_hermitian
        return eig_paired_angles if self.paired else eig_unitary_angles

    def spectrum(self, n: int, key: StreamKey):
        """The spectral measure of ``sample(n, key)`` from the row's ``eig``:
        eigenangles for a circle row, eigenvalues for a line row."""
        return self.eig(self.sample(n, key))


def _j_times(m: np.ndarray) -> np.ndarray:
    """J @ m for the symplectic form J of matching size: a strided swap of
    row pairs with a sign, bitwise equal to the dense product."""
    out = np.empty_like(m)
    out[0::2] = -m[1::2]
    out[1::2] = m[0::2]
    return out


def _require_even(n: int, sampler: str) -> None:
    """Refuse an odd ambient dimension, or one below 2, to a sampler of 2x2 blocks."""
    if n % 2:
        raise ContractError(f"{sampler} requires even ambient dimension, got {n}")
    if n < 2:
        raise ContractError(f"{sampler} requires ambient dimension at least 2, got {n}")


def ginibre_complex(n: int, key: StreamKey) -> np.ndarray:
    """n-by-n array of i.i.d. complex standard normals."""
    if n < 1:
        raise ContractError("n must be at least 1")
    rng = key.generator()
    return standard_complex_normal(rng, (n, n))


def ginibre_real(n: int, key: StreamKey) -> np.ndarray:
    """n-by-n float64 array of i.i.d. real standard normals."""
    if n < 1:
        raise ContractError("n must be at least 1")
    rng = key.generator()
    return rng.standard_normal((n, n))


def haar_unitary(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed U(n): positive-diagonal QR of a complex Ginibre matrix."""
    return UnitaryView(qr_positive(ginibre_complex(n, key)))


def haar_orthogonal(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed O(n): positive-diagonal QR of a real Ginibre matrix."""
    return UnitaryView(qr_positive(ginibre_real(n, key)))


def _with_det_sign(q: np.ndarray, want_positive: bool) -> UnitaryView:
    """The Haar O(n) draw q, its last column flipped in place if det has the
    wrong sign.  Right translation by diag(1,...,1,-1) preserves Haar measure
    and swaps the two components.  Flipping a column negates the LU
    determinant exactly, so the check reuses the one factorization."""
    det = det_lu(q).real
    target = 1.0 if want_positive else -1.0
    if det * target < 0:
        q[:, -1] = -q[:, -1]
        det = -det
    if abs(det - target) > DET_TOL:
        raise NumericalFailureError(f"determinant {det} not within {DET_TOL} of {target}")
    return UnitaryView(q)


def haar_so(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed SO(n)."""
    return _with_det_sign(qr_positive(ginibre_real(n, key)), want_positive=True)


def haar_so_minus(n: int, key: StreamKey) -> UnitaryView:
    """Haar measure on the det = -1 coset of O(n)."""
    return _with_det_sign(qr_positive(ginibre_real(n, key)), want_positive=False)


def haar_su(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed SU(n): the last column of a Haar U(n) matrix is scaled
    by det(U)^{-1}.  The correction commutes with left SU(n)-translations, so
    the output law is left-invariant, hence Haar."""
    q = qr_positive(ginibre_complex(n, key))
    q[:, -1] /= det_lu(q)
    det = det_lu(q)
    if abs(det - 1.0) > DET_TOL:
        raise NumericalFailureError(f"det of SU sample is {det}, not 1")
    return UnitaryView(q)


def haar_symplectic(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed Sp(n/2) inside U(n), for even n: the positive-diagonal
    QR of a quaternionic Ginibre matrix (Mezzadri, Notices AMS 2007).

    Quaternions are embedded as 2x2 complex blocks [[a, -conj(b)], [b, conj(a)]],
    aligned with the form J so that a unitary matrix of such blocks is exactly
    one with U J U^T = J.  The embedded quaternionic upper-triangular factor
    is complex upper triangular with a positive diagonal, so by uniqueness
    the complex QR of the embedded Ginibre matrix is its quaternionic QR, and
    Q is a Haar Sp(n/2) sample.
    """
    _require_even(n, "haar_symplectic")
    rng = key.generator()
    a = standard_complex_normal(rng, (n // 2, n // 2))
    b = standard_complex_normal(rng, (n // 2, n // 2))
    g = np.empty((n, n), dtype=np.complex128)
    g[0::2, 0::2] = a
    g[1::2, 0::2] = b
    # each odd column is J conj of the even column before it
    g[:, 1::2] = _j_times(g[:, 0::2].conj())
    q = qr_positive(g)
    defect = np.linalg.norm(q @ _j_times(q.T) - _j_times(np.eye(n)))
    if defect > 1e-8 * np.sqrt(n / 2):
        raise NumericalFailureError(f"symplectic identity violated by {defect:.3e}")
    return UnitaryView(q)


def sample_coe(n: int, key: StreamKey) -> UnitaryView:
    """COE(n): V^T V with V Haar on U(n).  Output is unitary and symmetric."""
    v = qr_positive(ginibre_complex(n, key))
    return UnitaryView(v.T @ v)


def sample_cse(n: int, key: StreamKey) -> UnitaryView:
    """CSE(n), for even n: J V^T J^T V with V Haar on U(n) and J the
    symplectic form.  Output is unitary and self-dual, J M^T J^T = M."""
    _require_even(n, "sample_cse")
    v = qr_positive(ginibre_complex(n, key))
    # J V^T J^T = J (J V)^T
    return UnitaryView(_j_times(_j_times(v).T) @ v)


def gue_wigner(n: int, key: StreamKey) -> HermitianView:
    """Gaussian Wigner matrix with all entry variances 1/n.

    With this scaling the spectrum concentrates on [-2, 2] and
    E ||A||_op stays bounded in n.
    """
    g = ginibre_complex(n, key)
    return HermitianView((g + g.conj().T) / np.sqrt(2.0 * n))


def compress(a: HermitianView, u: UnitaryView, k: int) -> HermitianView:
    """Top-left k-by-k block of U A U*: the compression of A to a random
    k-dimensional coordinate subspace."""
    n = a.dim
    if u.dim != n:
        raise ContractError(f"dimension mismatch: A is {n}, U is {u.dim}")
    if not 1 <= k <= n:
        raise ContractError(f"k must be in 1..{n}, got {k}")
    m = (u.entries @ a.entries @ u.entries.conj().T)[:k, :k]
    # the view's tolerance scales with the block's own norm, which can sit far
    # below the roundoff of the n-by-n product (k = 1 and Re m near 0): project first
    return HermitianView((m + m.conj().T) / 2.0)


def randomized_sum(a: HermitianView, b: HermitianView, u: UnitaryView) -> HermitianView:
    """U A U* + B."""
    n = a.dim
    if b.dim != n or u.dim != n:
        raise ContractError(
            f"dimension mismatch: A is {n}, B is {b.dim}, U is {u.dim}"
        )
    m = u.entries @ a.entries @ u.entries.conj().T + b.entries
    # project first: where A and B cancel, the sum's norm sits far below its roundoff
    return HermitianView((m + m.conj().T) / 2.0)


ENSEMBLES = {
    EnsembleTag.ORTHOGONAL: Ensemble("circle", "haar_orthogonal", paired=True),
    EnsembleTag.SO: Ensemble("circle", "haar_so", paired=True),
    EnsembleTag.SO_MINUS: Ensemble("circle", "haar_so_minus", paired=True),
    EnsembleTag.UNITARY: Ensemble("circle", "haar_unitary"),
    EnsembleTag.SU: Ensemble("circle", "haar_su"),
    EnsembleTag.SYMPLECTIC: Ensemble("circle", "haar_symplectic", half_dimension=True,
                                     paired=True),
    EnsembleTag.COE: Ensemble("circle", "sample_coe"),
    EnsembleTag.CSE: Ensemble("circle", "sample_cse", half_dimension=True),
    EnsembleTag.GUE_WIGNER: Ensemble("line", "gue_wigner"),
    EnsembleTag.COMPRESSION: Ensemble("line", rate_slope_max=-0.25, kn_abscissa=True),
    EnsembleTag.RANDOMIZED_SUM: Ensemble("line"),
}


def sample_compression(n: int, k: int, key: StreamKey) -> HermitianView:
    """Random compression model: GUE Wigner A and independent Haar U."""
    a = gue_wigner(n, subkey(key, "gue"))
    u = haar_unitary(n, subkey(key, "haar"))
    return compress(a, u, k)


def randomized_sum_factors(n: int, key: StreamKey):
    """The independent GUE Wigner A and B and Haar U of one randomized sum."""
    a = gue_wigner(n, subkey(key, "a"))
    b = gue_wigner(n, subkey(key, "b"))
    u = haar_unitary(n, subkey(key, "u"))
    return a, b, u
