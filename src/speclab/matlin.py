"""Dense linear algebra: norms, QR with positive diagonal, Hermitian and
unitary eigendecompositions, and Ritz inner bounds on a Hermitian spectrum.

The matrix views are immutable after construction and safe to share between
threads; their constructor checks make the Hermitian/unitary assumptions
explicit rather than trusted.  A view holds float64 entries for real input and
complex128 for complex input (``ComplexMatrix`` keeps its name: a real matrix
is a complex one too); the plain-matrix helpers take arrays.
Eigensolvers are LAPACK-backed (via numpy) and return the empirical spectral
measure types of ``measures``.

Unitary spectra never go through the general non-symmetric eigensolver.  A
phase-shifted Cayley transform H = i (I + zU)^{-1} (I - zU), z = e^{i alpha},
maps the unitary U to a Hermitian H with eigenvalues tan((theta + alpha)/2),
so one linear solve and one Hermitian eigenvalue solve give every
eigenangle theta.  The results are cross-checked: H must be Hermitian to
roundoff (which holds exactly when U is unitary) and the angle product must
reproduce det(U) computed by LU.

A unitary from O(n), SO(n), SO-(n) or Sp(n/2) has a spectrum closed under
theta -> -theta, with only the forced eigenvalues +1 and -1 unpaired, so
``eig_paired_angles`` skips the Cayley solve: the Hermitian part
(U + U*)/2 has eigenvalues cos(theta), each pair's twice, and one
Hermitian eigensolve (real symmetric for a real U) gives every angle.  It
certifies the pairing and falls back to the Cayley route when it cannot.

``hold_heap`` keeps the pages these matrices are built in from going back to
the OS between cells; it changes no number.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ContractError, DegenerateInputError, NumericalFailureError
from .measures import TWO_PI, EmpiricalMeasureCircle, EmpiricalMeasureLine, widest_gap_middle


class ComplexMatrix:
    """Dense n-by-n matrix, finite by construction: a read-only copy of the
    input, float64 if that is real (float, integer or bool) and complex128 if
    complex.  Real matrices are complex ones too, and perfbench traces this
    name.  ``HermitianView`` and ``UnitaryView`` run these checks on raw
    entries and then certify their property."""

    __slots__ = ("entries", "dim")

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.complex128 if np.iscomplexobj(entries) else np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ContractError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ContractError("matrix dimension must be at least 1")
        if not np.isfinite(arr).all():
            raise ContractError("matrix entries must be finite")
        arr.setflags(write=False)
        self.entries = arr
        self.dim = arr.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"

    def __reduce__(self):  # unpickling re-runs the checks of the view's own type
        return type(self), (self.entries,)


class HermitianView(ComplexMatrix):
    """A ComplexMatrix certified Hermitian: ||A - A*|| <= 1e-12 ||A|| in HS
    norm.  It holds the entries as given; eigvalsh reads one triangle, so
    the code that builds a matrix makes it exactly Hermitian."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        a = self.entries
        defect = np.linalg.norm(a - a.conj().T)
        scale = np.linalg.norm(a)
        if defect > 1e-12 * max(scale, 1e-300):
            raise ContractError(
                f"matrix is not Hermitian: ||A - A*|| = {defect:.3e} vs ||A|| = {scale:.3e}"
            )


class UnitaryView(ComplexMatrix):
    """A ComplexMatrix certified unitary: ||U U* - I|| <= 1e-10 sqrt(n)."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        u = self.entries
        n = self.dim
        defect = np.linalg.norm(u @ u.conj().T - np.eye(n))
        if defect > 1e-10 * np.sqrt(n):
            raise ContractError(
                f"matrix is not unitary: ||UU* - I|| = {defect:.3e} at n = {n}"
            )


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def eig_hermitian(a: HermitianView) -> EmpiricalMeasureLine:
    """Empirical spectral measure of a Hermitian matrix: its eigenvalues,
    with multiplicity, as ascending atoms."""
    try:
        return EmpiricalMeasureLine(np.linalg.eigvalsh(a.entries))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalFailureError(f"Hermitian eigensolver failed: {exc}") from exc


# Dimension of the Krylov space behind ``ritz_bounds``.  At six, the bounds
# sit at most 0.48 inside a GUE Wigner spectrum at n = 16 to 128, and the
# spectrum of U A U* + B stays at least 0.228 inside the bounds' sum in all
# 3,200 measured randomized-sum cells of four seeds (plan randomized_sum_rate).
RITZ_DIM = 6


def ritz_bounds(a: HermitianView) -> tuple[float, float]:
    """Inner bounds (theta_min, theta_max) on the spectrum of a Hermitian
    matrix: lambda_min(A) <= theta_min <= theta_max <= lambda_max(A), up to
    roundoff of order eps ||A||.

    They are the extreme Ritz values of A on the Krylov space
    {x, Ax, ..., A^(RITZ_DIM - 1) x} from the fixed start x = (1, ..., 1):
    for any Q with orthonormal columns, every eigenvalue of Q* A Q lies in
    [lambda_min, lambda_max] (Cauchy interlacing).  Householder QR keeps Q
    orthonormal also when the space has fewer dimensions than it has
    vectors, as for n < RITZ_DIM, c I or a diagonal A, and the powers are
    taken of A / ||A|| so that they cannot overflow.  No random numbers are
    drawn.  Costs about 2 RITZ_DIM matrix-vector products, a thin QR and a
    RITZ_DIM-square eigensolve, against an n-square eigensolve for the
    exact extremes.
    """
    h = a.entries
    scaled = h / (hs_norm(h) or 1.0)
    krylov = np.empty((a.dim, RITZ_DIM), dtype=h.dtype)
    krylov[:, 0] = 1.0
    for j in range(1, RITZ_DIM):
        krylov[:, j] = scaled @ krylov[:, j - 1]
    q = np.linalg.qr(krylov)[0]
    theta = np.linalg.eigvalsh(q.conj().T @ (h @ q))
    return float(theta[0]), float(theta[-1])


def qr_positive(g: np.ndarray) -> np.ndarray:
    """The Q of the QR factorization whose R has a real, strictly positive
    diagonal.

    This normalization makes the factorization unique and is what turns the
    Q of a Gaussian matrix into a Haar-distributed unitary (Mezzadri, Notices
    AMS 2007).  Only Q is returned, as a new array: R's phases are moved into
    Q's columns.  The sampler that returns it certifies it.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    if np.any(np.abs(d) < 1e-300):
        raise DegenerateInputError("input is numerically rank-deficient")
    return q * (d / np.abs(d))[np.newaxis, :]


def det_lu(a: np.ndarray) -> complex:
    """Determinant via LU with partial pivoting (independent of the QR path,
    so determinant checks are genuine cross-checks)."""
    return complex(np.linalg.det(a))


# Shifts alpha of the Cayley transform.  Its pole, the eigenvalue that
# maps to infinity, sits at angle pi - alpha; both poles stay well away from
# the angles 0, pi/2, pi and 3*pi/2 that SO(odd), SO^-, O(n) and structured
# test matrices carry exactly.  The second shift is used only when the first
# solve is singular or overflows.
CAYLEY_SHIFTS = (1.0, 2.5)
# A first-pass angle closer than POLE_GUARD / n to the pole triggers a second
# solve with the pole moved to the middle of the widest gap in the spectrum.
# With the nearest angle at c / n from the pole, the angle errors measured
# about 1e-14 / c for n from 64 to 256, so the guard keeps them near 2e-13;
# it fires on about 2% of Haar samples.
POLE_GUARD = 5e-2


def _cayley_angles(u: np.ndarray, alpha: float):
    """Eigenangles of u from the Cayley transform with shift alpha, and the
    relative Hermitian defect ||H - H*|| / max(||H||, ||I||) of the transform
    (the floor keeps it meaningful when the spectrum maps near 0).  Returns
    (None, inf) when the solve is singular or overflows."""
    n = u.shape[0]
    eye = np.eye(n)
    zu = np.exp(1j * alpha) * u
    try:
        x = np.linalg.solve(eye + zu, eye - zu)
    except np.linalg.LinAlgError:
        return None, np.inf
    if not np.all(np.isfinite(x)):
        return None, np.inf
    h = 1j * x
    skew = h - h.conj().T
    defect = np.linalg.norm(skew) / max(np.linalg.norm(h), np.sqrt(n))
    # eigvalsh reads one triangle only: hand it the Hermitian part
    lam = np.linalg.eigvalsh(h - skew / 2.0)
    return np.mod(2.0 * np.arctan(lam) - alpha, TWO_PI), defect


def eig_unitary_angles(u: UnitaryView) -> EmpiricalMeasureCircle:
    """Empirical spectral measure of a unitary matrix: its eigenangles
    theta_j, with e^{i theta_j} its spectrum, as ascending atoms.

    The angles come from the Hermitian Cayley transform
    H = i (I + zU)^{-1} (I - zU), z = e^{i alpha}, whose eigenvalues are
    lambda_j = tan((theta_j + alpha)/2), so theta_j = 2 arctan(lambda_j) - alpha
    (mod 2 pi).  The transform has a pole at theta = pi - alpha: if the first
    solve is singular the second fixed shift is used, and if a first-pass
    angle lies within POLE_GUARD / n of the pole the solve is repeated with
    the pole in the middle of the widest gap between the first-pass angles.

    Checks that H is Hermitian, ||H - H*|| <= 1e-9 sqrt(n) max(||H||, ||I||),
    which fails for non-unitary input, and that the angle product reproduces
    det(U).  Angles within 1e-12 of 2 pi fold to 0.
    """
    n = u.dim
    a = u.entries
    for alpha in CAYLEY_SHIFTS:
        angles, defect = _cayley_angles(a, alpha)
        if angles is not None:
            break
    else:
        raise NumericalFailureError("Cayley transform is singular at every fixed shift")
    to_pole = np.abs(np.mod(angles - (np.pi - alpha) + np.pi, TWO_PI) - np.pi)
    if np.min(to_pole) < POLE_GUARD / n:
        angles, defect = _cayley_angles(a, np.pi - widest_gap_middle(angles))
        if angles is None:
            raise NumericalFailureError("Cayley transform is singular after the pole shift")
    if not defect <= 1e-9 * np.sqrt(n):  # a NaN defect fails too
        raise NumericalFailureError(
            f"Cayley transform is not Hermitian: relative defect {defect:.3e}"
        )
    # roundoff can park an angle at (or just below) 2*pi
    angles = np.where(angles >= TWO_PI - 1e-12, 0.0, angles)
    prod = np.exp(1j * np.sum(angles))
    det = det_lu(a)
    if abs(prod - det) > 1e-8 * n:
        raise NumericalFailureError(
            f"angle product disagrees with det(U) by {abs(prod - det):.3e}"
        )
    return EmpiricalMeasureCircle(angles)


# Tolerance of the paired route's certificate: the forced eigenvalues lie
# within it of +1 and -1, each pair's mean cosine lies at least it inside
# [-1, 1] (an angle about 1.4e-5 from 0 or pi, closer than which arccos loses
# its accuracy), and each pair's two cosines agree to it times sin(theta), so
# the pair's two angles agree to about it.  Over the 42,000 paired draws of
# criteria 03, 05 and 12 the route fell back twice.
PAIRED_TOL = 1e-10


def eig_paired_angles(u: UnitaryView) -> EmpiricalMeasureCircle:
    """Empirical spectral measure of a unitary matrix whose spectrum is closed
    under conjugation, as in O(n), SO(n), SO-(n) and Sp(n/2): the same
    measure as ``eig_unitary_angles``, from one Hermitian eigensolve and no
    Cayley solve.

    The sign s = +-1 of det(U), from LU, fixes the forced eigenvalues: one -1
    when s = -1, and one +1 when n minus that count is odd.  The eigenvalues
    of (U + U*)/2, a real symmetric matrix when U is real, are the cosines of
    the angles: ascending, the forced ones are stripped from the ends, the
    rest pair up consecutively, and each pair with mean cosine c gives the
    angles arccos(c) and 2 pi - arccos(c).  Forced eigenvalues give exactly 0
    and pi.

    The caller vouches for the conjugation symmetry; the certificate below
    catches numerical trouble and a generic spectrum that lacks it, not every
    one.  When |det(U) - s| > 1e-8 n, a stripped cosine lies more than
    PAIRED_TOL from +-1, a pair's mean lies within PAIRED_TOL of +-1, or a
    pair's cosines differ by more than PAIRED_TOL sin(theta), the result is
    that of ``eig_unitary_angles``.
    """
    n = u.dim
    a = u.entries
    det = det_lu(a)
    s = 1.0 if det.real >= 0.0 else -1.0
    if abs(det - s) > 1e-8 * n:
        return eig_unitary_angles(u)
    lam = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    minus = 1 if s < 0.0 else 0
    plus = (n - minus) % 2
    ends = np.concatenate((lam[:minus] + 1.0, lam[n - plus:] - 1.0))
    lo, hi = lam[minus:n - plus:2], lam[minus + 1:n - plus:2]
    c = (lo + hi) / 2.0
    if (np.any(np.abs(ends) > PAIRED_TOL) or np.any(np.abs(c) > 1.0 - PAIRED_TOL)
            or np.any(hi - lo > PAIRED_TOL * np.sqrt(1.0 - c * c))):
        return eig_unitary_angles(u)
    theta = np.arccos(c)
    return EmpiricalMeasureCircle(
        np.concatenate((np.zeros(plus), np.full(minus, np.pi), theta, TWO_PI - theta)))


# glibc's mallopt parameters.  By default glibc serves a block of 128 KiB or
# more from its own mmap, raises that threshold to each such block freed, and
# trims the heap top once it holds twice the threshold free: after every cell
# the 256 KiB complex 128 x 128 temporaries go back to the OS, and the next
# cell faults them in again.  Setting either threshold turns the dynamic
# adjustment off, so both are set: a trim threshold alone leaves 256 KiB
# blocks on mmap.  32 MiB is the largest mmap threshold 64-bit glibc accepts.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 64 * 2**20


def hold_heap() -> bool:
    """Keep freed memory in this process's heap rather than return it to the
    OS, so each cell reuses the pages the cells before it faulted in.

    Sets glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB,
    and returns whether both calls took effect.  Anywhere but glibc it does
    nothing and returns False.  The CLI's entry point calls it, and the
    process pool runs it as each worker's initializer.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    if not (libc or "").startswith("glibc"):
        return False
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    done = [mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES),
            mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)]
    return done == [1, 1]
