"""Seeded samplers for every random-matrix model in the toolkit.

Haar measure on the classical compact groups O(n), SO(n), SO-(n), U(n),
SU(n), Sp(n); the circular ensembles COE(n) and CSE(2n); Gaussian Wigner
(GUE-scaled) Hermitian matrices; random compressions; and randomized sums.

Every sampler is a pure function of its StreamKey: replaying a key
reproduces the matrix bit-for-bit.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericalFailureError
from .matlin import ComplexMatrix, HermitianView, UnitaryView, qr_positive, det_lu
from .rng import StreamKey, standard_complex_normal, subkey

DET_TOL = 1e-8


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


#: tags whose natural parameter is the half-dimension (ambient size 2n)
HALF_DIMENSION_TAGS = frozenset({EnsembleTag.SYMPLECTIC, EnsembleTag.CSE})

#: tags whose samples live on the unit circle
CIRCLE_TAGS = frozenset(
    {
        EnsembleTag.ORTHOGONAL,
        EnsembleTag.SO,
        EnsembleTag.SO_MINUS,
        EnsembleTag.UNITARY,
        EnsembleTag.SU,
        EnsembleTag.SYMPLECTIC,
        EnsembleTag.COE,
        EnsembleTag.CSE,
    }
)


def symplectic_form(half_n: int) -> np.ndarray:
    """The fixed 2n-by-2n block-diagonal skew form J with blocks [[0,-1],[1,0]]."""
    if half_n < 1:
        raise ContractError("half dimension must be at least 1")
    block = np.array([[0.0, -1.0], [1.0, 0.0]])
    return np.kron(np.eye(half_n), block)


def ginibre_complex(n: int, key: StreamKey) -> ComplexMatrix:
    """n-by-n matrix of i.i.d. complex standard normals."""
    if n < 1:
        raise ContractError("n must be at least 1")
    rng = key.generator()
    return ComplexMatrix(standard_complex_normal(rng, (n, n)))


def ginibre_real(n: int, key: StreamKey) -> ComplexMatrix:
    """n-by-n matrix of i.i.d. real standard normals."""
    if n < 1:
        raise ContractError("n must be at least 1")
    rng = key.generator()
    return ComplexMatrix(rng.standard_normal((n, n)).astype(np.complex128))


def haar_unitary(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed U(n): positive-diagonal QR of a complex Ginibre matrix."""
    q, _ = qr_positive(ginibre_complex(n, key))
    return q


def haar_orthogonal(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed O(n): positive-diagonal QR of a real Ginibre matrix."""
    q, _ = qr_positive(ginibre_real(n, key))
    return q


def _with_det_sign(u: UnitaryView, want_positive: bool) -> UnitaryView:
    """Flip the last column if det has the wrong sign.  Right translation by
    diag(1,...,1,-1) preserves Haar measure and swaps the two components."""
    det = det_lu(u.inner).real
    target = 1.0 if want_positive else -1.0
    if det * target < 0:
        m = u.entries.copy()
        m[:, -1] = -m[:, -1]
        u = UnitaryView(ComplexMatrix(m))
        det = det_lu(u.inner).real
    if abs(det - target) > DET_TOL:
        raise NumericalFailureError(f"determinant {det} not within {DET_TOL} of {target}")
    return u


def haar_so(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed SO(n)."""
    return _with_det_sign(haar_orthogonal(n, key), want_positive=True)


def haar_so_minus(n: int, key: StreamKey) -> UnitaryView:
    """Haar measure on the det = -1 coset of O(n)."""
    return _with_det_sign(haar_orthogonal(n, key), want_positive=False)


def haar_su(n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed SU(n): the last column of a Haar U(n) matrix is scaled
    by det(U)^{-1}.  The correction commutes with left SU(n)-translations, so
    the output law is left-invariant, hence Haar."""
    u = haar_unitary(n, key)
    det = det_lu(u.inner)
    m = u.entries.copy()
    m[:, -1] = m[:, -1] / det
    out = UnitaryView(ComplexMatrix(m))
    det_out = det_lu(out.inner)
    if abs(det_out - 1.0) > DET_TOL:
        raise NumericalFailureError(f"det of SU sample is {det_out}, not 1")
    return out


def haar_symplectic(half_n: int, key: StreamKey) -> UnitaryView:
    """Haar-distributed Sp(n) inside U(2n): quaternionic Ginibre followed by
    quaternionic Gram-Schmidt with positive (real) norm normalization.

    Quaternions are embedded as 2x2 complex blocks [[a, -conj(b)], [b, conj(a)]],
    aligned with the form J so that unitarity plus the quaternionic pairing
    column_{2k+1} = J conj(column_{2k}) is exactly U J U^T = J.
    """
    if half_n < 1:
        raise ContractError("half dimension must be at least 1")
    n = half_n
    rng = key.generator()
    a = standard_complex_normal(rng, (n, n))
    b = standard_complex_normal(rng, (n, n))
    g = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    g[0::2, 0::2] = a
    g[0::2, 1::2] = -b.conj()
    g[1::2, 0::2] = b
    g[1::2, 1::2] = a.conj()

    j = symplectic_form(n)
    q = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for k in range(n):
        v = g[:, 2 * k].copy()
        # two Gram-Schmidt passes for orthogonality at large n
        for _ in range(2):
            if k > 0:
                prev = q[:, : 2 * k]
                v -= prev @ (prev.conj().T @ v)
        nrm = np.linalg.norm(v)
        if nrm < 1e-150:
            raise DegenerateInputError("quaternionic Ginibre column degenerate")
        v /= nrm
        q[:, 2 * k] = v
        q[:, 2 * k + 1] = j @ v.conj()

    out = UnitaryView(ComplexMatrix(q))
    defect = np.linalg.norm(q @ j @ q.T - j)
    if defect > 1e-8 * np.sqrt(n):
        raise NumericalFailureError(f"symplectic identity violated by {defect:.3e}")
    return out


def sample_coe(n: int, key: StreamKey) -> UnitaryView:
    """COE(n): V^T V with V Haar on U(n).  Output is unitary and symmetric."""
    v = haar_unitary(n, key).entries
    return UnitaryView(ComplexMatrix(v.T @ v))


def sample_cse(half_n: int, key: StreamKey) -> UnitaryView:
    """CSE(2n): J V^T J^T V with V Haar on U(2n) and J the symplectic form."""
    if half_n < 1:
        raise ContractError("half dimension must be at least 1")
    v = haar_unitary(2 * half_n, key).entries
    j = symplectic_form(half_n)
    return UnitaryView(ComplexMatrix(j @ v.T @ j.T @ v))


def gue_wigner(n: int, key: StreamKey) -> HermitianView:
    """Gaussian Wigner matrix with all entry variances 1/n.

    With this scaling the spectrum concentrates on [-2, 2] and
    E ||A||_op stays bounded in n.
    """
    g = ginibre_complex(n, key).entries
    a = (g + g.conj().T) / np.sqrt(2.0 * n)
    return HermitianView(ComplexMatrix(a))


def compress(a: HermitianView, u: UnitaryView, k: int) -> HermitianView:
    """Top-left k-by-k block of U A U*: the compression of A to a random
    k-dimensional coordinate subspace."""
    n = a.dim
    if u.dim != n:
        raise ContractError(f"dimension mismatch: A is {n}, U is {u.dim}")
    if not 1 <= k <= n:
        raise ContractError(f"k must be in 1..{n}, got {k}")
    m = u.entries @ a.entries @ u.entries.conj().T
    block = m[:k, :k]
    block = (block + block.conj().T) / 2.0  # scrub roundoff asymmetry
    return HermitianView(ComplexMatrix(block))


def randomized_sum(a: HermitianView, b: HermitianView, u: UnitaryView) -> HermitianView:
    """U A U* + B."""
    n = a.dim
    if b.dim != n or u.dim != n:
        raise ContractError(
            f"dimension mismatch: A is {n}, B is {b.dim}, U is {u.dim}"
        )
    m = u.entries @ a.entries @ u.entries.conj().T + b.entries
    m = (m + m.conj().T) / 2.0
    return HermitianView(ComplexMatrix(m))


def sample_circle_ensemble(tag: EnsembleTag, n: int, key: StreamKey) -> UnitaryView:
    """Sample one unitary-type ensemble member of ambient dimension n.

    For SYMPLECTIC and CSE, n is the ambient (even) dimension.
    """
    tag = EnsembleTag(tag)
    if tag not in CIRCLE_TAGS:
        raise ContractError(f"{tag.value} is not a circle ensemble")
    if tag in HALF_DIMENSION_TAGS:
        if n % 2 != 0:
            raise ContractError(f"{tag.value} requires even ambient dimension, got {n}")
        half = n // 2
        if tag is EnsembleTag.SYMPLECTIC:
            return haar_symplectic(half, key)
        return sample_cse(half, key)
    sampler = {
        EnsembleTag.ORTHOGONAL: haar_orthogonal,
        EnsembleTag.SO: haar_so,
        EnsembleTag.SO_MINUS: haar_so_minus,
        EnsembleTag.UNITARY: haar_unitary,
        EnsembleTag.SU: haar_su,
        EnsembleTag.COE: sample_coe,
    }[tag]
    return sampler(n, key)


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


def sample_randomized_sum(n: int, key: StreamKey) -> HermitianView:
    """Randomized sum of two independent GUE Wigner matrices."""
    return randomized_sum(*randomized_sum_factors(n, key))
