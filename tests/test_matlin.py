import pickle

import numpy as np
import pytest

from speclab import matlin
from speclab.ensembles import (ENSEMBLES, EnsembleTag, haar_so, haar_so_minus, haar_unitary,
                               sample_cse)
from speclab.errors import ContractError, DegenerateInputError, NumericalFailureError
from speclab.matlin import (
    ComplexMatrix,
    HermitianView,
    UnitaryView,
    eig_hermitian,
    eig_paired_angles,
    eig_unitary_angles,
    qr_positive,
    ritz_bounds,
)
from speclab.rng import StreamKey
from speclab.transport import w1_circle_uniform

TWO_PI = 2 * np.pi


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianView((g + g.conj().T) / 2)


def random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return qr_positive(g)


def planted_unitary(rng, angles):
    v = random_unitary(rng, len(angles))
    return UnitaryView(v @ np.diag(np.exp(1j * np.asarray(angles))) @ v.conj().T)


def circular_gap(got, want):
    """Largest angle difference between two multisets on the circle, matched
    in sorted order after cutting the circle in the widest gap of `want`."""
    ring = np.sort(want)
    widths = np.diff(ring, append=ring[0] + TWO_PI)
    cut = ring[np.argmax(widths)] + np.max(widths) / 2
    return np.max(np.abs(np.sort(np.mod(got - cut, TWO_PI))
                         - np.sort(np.mod(want - cut, TWO_PI))))


def geodesic_to(angles, target):
    d = np.abs(np.mod(np.asarray(angles) - target, TWO_PI))
    return np.minimum(d, TWO_PI - d)


def cayley_shifts_used(monkeypatch):
    """Record the shift of every Cayley solve eig_unitary_angles makes."""
    shifts = []
    solve = matlin._cayley_angles

    def recording(a, alpha):
        shifts.append(alpha)
        return solve(a, alpha)

    monkeypatch.setattr(matlin, "_cayley_angles", recording)
    return shifts


class TestConstructors:
    def test_rejects_nonsquare(self):
        with pytest.raises(ContractError):
            ComplexMatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ContractError):
            ComplexMatrix([[np.nan, 0], [0, 1]])

    def test_hermitian_view_rejects_asymmetric(self):
        with pytest.raises(ContractError):
            HermitianView([[0, 1], [2, 0]])

    def test_hermitian_view_holds_its_entries_as_given(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 6).entries
        u = random_unitary(rng, 6)
        raw = u @ a @ u.conj().T  # Hermitian to roundoff only
        assert not np.array_equal(raw, raw.conj().T)
        held = HermitianView(raw).entries
        assert held.tobytes() == raw.tobytes()
        assert not held.flags.writeable

    @pytest.mark.parametrize("dtype,held", [(bool, np.float64), (np.int64, np.float64),
                                            (np.float32, np.float64), (np.float64, np.float64),
                                            (np.complex64, np.complex128),
                                            (np.complex128, np.complex128)])
    def test_real_input_stays_real(self, dtype, held):
        given = np.eye(3, dtype=dtype)
        m = ComplexMatrix(given)
        assert m.entries.dtype == held and np.array_equal(m.entries, given)
        assert m.entries is not given and not m.entries.flags.writeable
        assert given.flags.writeable  # the caller's array is copied, not frozen

    def test_nested_lists_take_their_number_class(self):
        assert ComplexMatrix([[1, 0], [0, 1]]).entries.dtype == np.float64
        assert ComplexMatrix([[1j, 0], [0, 1]]).entries.dtype == np.complex128

    def test_unitary_view_rejects_scaled_identity(self):
        with pytest.raises(ContractError):
            UnitaryView(2 * np.eye(3))


@pytest.mark.parametrize("cls", [ComplexMatrix, HermitianView, UnitaryView])
def test_matrix_unpickles_certified_and_read_only(cls):
    m = pickle.loads(pickle.dumps(cls(np.eye(2))))
    assert type(m) is cls
    assert np.array_equal(m.entries, np.eye(2)) and m.entries.dtype == np.float64
    assert not m.entries.flags.writeable
    # unpickling runs the constructor's checks again, so tampered entries are refused
    tampered = cls(np.eye(2))
    tampered.entries = np.array([[2.0, 1.0], [0.0, np.nan]])
    with pytest.raises(ContractError):
        pickle.loads(pickle.dumps(tampered))


class TestQrPositive:
    @staticmethod
    def r_factor(q, g):
        """R = Q* G, the factor qr_positive leaves implicit."""
        return q.conj().T @ g

    def test_identity(self):
        g = np.eye(3)
        q = qr_positive(g)
        assert np.allclose(q, np.eye(3))
        assert np.allclose(self.r_factor(q, g), np.eye(3))

    def test_negative_scalar_phase_goes_to_q(self):
        g = np.array([[-2.0]])
        q = qr_positive(g)
        assert q[0, 0] == pytest.approx(-1.0)
        assert self.r_factor(q, g)[0, 0] == pytest.approx(2.0)

    def test_reconstruction_and_positive_diagonal(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q = qr_positive(g)
        assert type(q) is np.ndarray
        UnitaryView(q)  # the certificate its sampler runs
        r = self.r_factor(q, g)
        assert np.linalg.norm(q @ r - g) <= 1e-12 * np.linalg.norm(g)
        d = np.diagonal(r)
        assert np.all(d.real > 0)
        assert np.allclose(d.imag, 0, atol=1e-14)
        assert np.allclose(np.tril(r, -1), 0, atol=1e-14)

    def test_rejects_rank_deficient(self):
        with pytest.raises(DegenerateInputError):
            qr_positive(np.zeros((2, 2)))


class TestEigHermitian:
    def test_diag_sorted(self):
        spec = eig_hermitian(HermitianView(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(spec.atoms, [1, 2, 3])

    def test_2x2_hand_solve(self):
        spec = eig_hermitian(HermitianView([[2, 1], [1, 2]]))
        assert np.allclose(spec.atoms, [1, 3], atol=1e-12)

    def test_trace_and_hs_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_hermitian(rng, 6)
            vals = eig_hermitian(a).atoms
            assert np.sum(vals) == pytest.approx(np.trace(a.entries).real, rel=1e-9)
            assert np.sum(vals**2) == pytest.approx(np.linalg.norm(a.entries) ** 2, rel=1e-9)


class TestRitzBounds:
    """Inner bounds lambda_min <= theta_min <= theta_max <= lambda_max, up to
    roundoff of order eps ||A||, with no RuntimeWarning anywhere (pytest
    turns warnings into errors)."""

    @staticmethod
    def assert_inside(a: HermitianView):
        lam = eig_hermitian(a).atoms
        lo, hi = ritz_bounds(a)
        tol = 1e-13 * max(abs(lam[0]), abs(lam[-1]))
        assert lam[0] - tol <= lo <= hi <= lam[-1] + tol

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 16, 64])
    def test_random_hermitian_stack(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            self.assert_inside(random_hermitian(rng, n))

    @pytest.mark.parametrize("entries", [
        [[-2.5]],
        [[0.0, 1.0], [1.0, 0.0]],
        np.zeros((7, 7)),
        -3.0 * np.eye(9),
        np.diag(np.arange(1.0, 13.0)),
        np.diag([0.0] * 11 + [5.0]),
        np.diag([-1e-300] + [0.0] * 10 + [1e-300]),
    ], ids=["n1", "n2", "zero", "cI", "diagonal", "rank_one", "tiny"])
    def test_small_and_rank_deficient(self, entries):
        self.assert_inside(HermitianView(entries))

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_exact_when_the_space_is_everything(self, n):
        # from n <= RITZ_DIM the Krylov space of a generic A is all of C^n
        a = random_hermitian(np.random.default_rng(100 + n), n)
        lam = eig_hermitian(a).atoms
        assert np.allclose(ritz_bounds(a), (lam[0], lam[-1]), rtol=0, atol=1e-12)

    def test_strictly_inside_on_a_larger_space(self):
        lo, hi = ritz_bounds(HermitianView(np.diag(np.arange(1.0, 9.0))))
        assert 1.0 < lo < 1.02 and 7.98 < hi < 8.0


class TestEigUnitaryAngles:
    def test_identity(self):
        # roundoff just below 2*pi folds to exactly 0
        for n in (1, 2, 4, 7, 64):
            assert np.all(eig_unitary_angles(UnitaryView(np.eye(n))).atoms == 0.0)

    def test_diag_i_minus_one(self):
        ang = eig_unitary_angles(UnitaryView(np.diag([1j, -1.0]))).atoms
        assert np.allclose(np.sort(ang), [np.pi / 2, np.pi], atol=1e-14)

    def test_conjugate_rotation_pair(self):
        ang = eig_unitary_angles(UnitaryView(np.diag([np.exp(0.3j), np.exp(-0.3j)]))).atoms
        assert np.allclose(np.sort(ang), [0.3, TWO_PI - 0.3], atol=1e-12)

    def test_recovers_planted_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            target = np.sort(rng.uniform(0, TWO_PI, n))
            v = random_unitary(rng, n)
            u = UnitaryView(v @ np.diag(np.exp(1j * target)) @ v.conj().T)
            got = eig_unitary_angles(u).atoms
            # compare as multisets on the circle
            diff = np.abs(np.sort(got) - target)
            diff = np.minimum(diff, TWO_PI - diff)
            assert np.max(diff) < 1e-8


class TestCayleyEdgeCases:
    FIRST_POLE = np.pi - matlin.CAYLEY_SHIFTS[0]

    def test_eigenvalue_exactly_at_first_pole_diagonal(self, monkeypatch):
        shifts = cayley_shifts_used(monkeypatch)
        target = np.array([self.FIRST_POLE, 0.4, 3.0, 5.0])
        got = eig_unitary_angles(UnitaryView(np.diag(np.exp(1j * target)))).atoms
        assert circular_gap(got, target) < 1e-12
        assert shifts[0] == matlin.CAYLEY_SHIFTS[0]

    @pytest.mark.parametrize("failure", ["singular", "overflow"])
    def test_failed_first_solve_uses_second_shift(self, monkeypatch, failure):
        solve = np.linalg.solve
        calls = []

        def failing_once(a, b):
            calls.append(1)
            if len(calls) > 1:
                return solve(a, b)
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.inf)

        monkeypatch.setattr(np.linalg, "solve", failing_once)
        shifts = cayley_shifts_used(monkeypatch)
        target = np.array([0.4, 1.0, 3.0, 5.0])
        got = eig_unitary_angles(planted_unitary(np.random.default_rng(20), target)).atoms
        assert circular_gap(got, target) < 1e-12
        assert shifts == list(matlin.CAYLEY_SHIFTS)

    def test_eigenvalue_exactly_at_first_pole_dense(self, monkeypatch):
        shifts = cayley_shifts_used(monkeypatch)
        rng = np.random.default_rng(21)
        target = np.concatenate([[self.FIRST_POLE], rng.uniform(0, TWO_PI, 15)])
        got = eig_unitary_angles(planted_unitary(rng, target)).atoms
        assert circular_gap(got, target) < 1e-12
        # the first pass saw an angle on the pole and moved it
        assert len(shifts) == 2
        assert shifts[1] not in matlin.CAYLEY_SHIFTS

    def test_near_pole_reshift_keeps_accuracy(self, monkeypatch):
        shifts = cayley_shifts_used(monkeypatch)
        rng = np.random.default_rng(22)
        n = 64
        target = np.concatenate([[self.FIRST_POLE + 1e-4 / n], rng.uniform(0, TWO_PI, n - 1)])
        got = eig_unitary_angles(planted_unitary(rng, target)).atoms
        assert len(shifts) == 2
        assert circular_gap(got, target) < 1e-12

    def test_quarter_turns_exact(self):
        target = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2] * 3)
        ang = eig_unitary_angles(UnitaryView(np.diag(np.exp(1j * target)))).atoms
        assert circular_gap(ang, target) < 1e-14

    def test_so_odd_fixed_one(self):
        for r in range(20):
            n = 2 * (r % 4) + 3
            ang = eig_unitary_angles(haar_so(n, StreamKey(31, "so", n, r))).atoms
            assert np.min(geodesic_to(ang, 0.0)) < 1e-12
            assert circular_gap(ang, np.mod(-ang, TWO_PI)) < 1e-12

    def test_so_minus_fixed_eigenvalues(self):
        for r in range(20):
            n = r % 7 + 2
            ang = eig_unitary_angles(haar_so_minus(n, StreamKey(32, "so_minus", n, r))).atoms
            assert np.min(geodesic_to(ang, np.pi)) < 1e-12
            if n % 2 == 0:
                assert np.min(geodesic_to(ang, 0.0)) < 1e-12
            assert circular_gap(ang, np.mod(-ang, TWO_PI)) < 1e-12

    def test_cse_kramers_doublets(self):
        for r in range(20):
            ang = eig_unitary_angles(sample_cse(16, StreamKey(33, "cse", 16, r))).atoms
            cut = ang[np.argmax(np.diff(ang, append=ang[0] + TWO_PI))]
            pairs = np.sort(np.mod(ang - cut - 1e-3, TWO_PI)).reshape(-1, 2)
            assert np.max(pairs[:, 1] - pairs[:, 0]) < 1e-12

    def test_matches_general_eigensolver_at_n256(self):
        for r in range(3):
            u = haar_unitary(256, StreamKey(34, "unitary", 256, r))
            want = np.mod(np.angle(np.linalg.eigvals(u.entries)), TWO_PI)
            assert circular_gap(eig_unitary_angles(u).atoms, want) < 1e-12

    def test_non_unitary_input_rejected(self):
        for bad in (2 * np.eye(3), [[1.0, 1.0], [0.0, 1.0]], np.diag([1.0, 1j * 1.001])):
            with pytest.raises(ContractError):
                eig_unitary_angles(UnitaryView(bad))
            # a view that skipped its own check still fails in the eigensolver
            forged = object.__new__(UnitaryView)
            forged.entries = ComplexMatrix(bad).entries
            forged.dim = forged.entries.shape[0]
            with pytest.raises((NumericalFailureError, ContractError)):
                eig_unitary_angles(forged)


def fallbacks_taken(monkeypatch):
    """Record each Cayley fallback eig_paired_angles makes."""
    taken = []
    cayley = matlin.eig_unitary_angles

    def recording(u):
        taken.append(u.dim)
        return cayley(u)

    monkeypatch.setattr(matlin, "eig_unitary_angles", recording)
    return taken


def real_rotation(rng, angles, fixed=()):
    """V diag(R(angle)..., fixed...) V^T for a random real orthogonal V, with R
    the 2x2 rotation by each angle and each fixed eigenvalue +1 or -1; with
    no rng, V = I, and each rotation's two cosines in (U + U*)/2 are equal."""
    blocks = [np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in angles]
    n = 2 * len(angles) + len(fixed)
    d = np.zeros((n, n))
    for j, b in enumerate(blocks):
        d[2 * j:2 * j + 2, 2 * j:2 * j + 2] = b
    for j, f in enumerate(fixed):
        d[2 * len(angles) + j, 2 * len(angles) + j] = f
    if rng is None:
        return UnitaryView(d)
    v = qr_positive(rng.normal(size=(n, n)))
    return UnitaryView(v @ d @ v.T)


PAIRED_TAGS = [t for t, row in ENSEMBLES.items() if row.paired]

# Inputs the paired route must not certify: (their angles, a builder from an
# rng and those angles).  Between them they trip each check: the determinant,
# a stripped end, the guard near +-1 (alone in the plain rotations, whose
# pairs tie exactly) and a pair's spread.
CRAFTED = {
    "so3-by-1e-9": ([0.0, 1e-9, -1e-9],
                    lambda rng, _: real_rotation(rng, [1e-9], fixed=[1.0])),
    "so3-by-1e-9-plain": ([0.0, 1e-9, -1e-9],
                          lambda rng, _: real_rotation(None, [1e-9], fixed=[1.0])),
    "o4-pair-near-pi": ([np.pi - 1e-9, np.pi + 1e-9, 1.0, -1.0],
                        lambda rng, _: real_rotation(rng, [np.pi - 1e-9, 1.0])),
    "o4-pair-near-pi-plain": ([np.pi - 1e-9, np.pi + 1e-9, 1.0, -1.0],
                              lambda rng, _: real_rotation(None, [np.pi - 1e-9, 1.0])),
    "not-conjugation-closed": ([0.4, 1.0, 3.0, 5.0], planted_unitary),
    "det-one-not-closed-odd": ([0.5, 1.0, -1.5], planted_unitary),
    "det-one-not-closed-even": ([0.5, 1.0, 2.0, -3.5], planted_unitary),
}


class TestEigPairedAngles:
    @pytest.mark.parametrize("tag,n", [(t, n) for t in PAIRED_TAGS
                                       for n in (1, 2, 3, 4, 5, 7, 8, 64, 128)
                                       if n % 2 == 0 or not ENSEMBLES[t].half_dimension],
                             ids=lambda v: getattr(v, "value", v))
    def test_matches_cayley_on_the_same_draws(self, monkeypatch, tag, n):
        taken = fallbacks_taken(monkeypatch)
        row = ENSEMBLES[tag]
        for r in range(16):
            draw = row.sample(n, StreamKey(41, tag.value, n, r))
            got, want = eig_paired_angles(draw), eig_unitary_angles(draw)
            assert circular_gap(got.atoms, want.atoms) <= 1e-10
            assert abs(w1_circle_uniform(got) - w1_circle_uniform(want)) <= 1e-12
        assert taken == []  # every Haar draw here is certified without Cayley

    @pytest.mark.parametrize("tag,n,want", [(EnsembleTag.SO, 1, [0.0]),
                                            (EnsembleTag.SO_MINUS, 1, [np.pi]),
                                            (EnsembleTag.SO_MINUS, 2, [0.0, np.pi])],
                             ids=["so1", "so_minus1", "so_minus2"])
    def test_forced_eigenvalues_are_exact(self, tag, n, want):
        for r in range(8):
            got = ENSEMBLES[tag].spectrum(n, StreamKey(42, tag.value, n, r)).atoms
            assert got.tolist() == want

    @pytest.mark.parametrize("case", sorted(CRAFTED))
    def test_uncertified_input_falls_back_to_cayley(self, monkeypatch, case):
        target, build = CRAFTED[case]
        u = build(np.random.default_rng(43), target)
        taken = fallbacks_taken(monkeypatch)
        got = eig_paired_angles(u).atoms
        assert circular_gap(got, eig_unitary_angles(u).atoms) <= 1e-12
        assert circular_gap(got, np.mod(target, TWO_PI)) <= 1e-12
        assert taken == [u.dim]

    @pytest.mark.parametrize("tag", PAIRED_TAGS, ids=lambda t: t.value)
    def test_real_groups_solve_in_real_arithmetic(self, monkeypatch, tag):
        dtypes = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a):
            dtypes.append(a.dtype)
            return eigvalsh(a)

        monkeypatch.setattr(matlin.np.linalg, "eigvalsh", recording)
        eig_paired_angles(ENSEMBLES[tag].sample(8, StreamKey(44, tag.value, 8, 0)))
        assert dtypes == [np.complex128 if tag is EnsembleTag.SYMPLECTIC else np.float64]

    @pytest.mark.parametrize("tag", [t for t in PAIRED_TAGS if t is not EnsembleTag.SYMPLECTIC],
                             ids=lambda t: t.value)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
    def test_complex_copy_of_a_real_draw_gives_its_angles(self, tag, n):
        # a complex128 view of a real draw, with zero imaginary parts, gives
        # the float64 view's angles on both routes
        for r in range(4):
            real = ENSEMBLES[tag].sample(n, StreamKey(45, tag.value, n, r))
            widened = UnitaryView(real.entries.astype(np.complex128))
            assert widened.entries.dtype == np.complex128
            for eig in (eig_paired_angles, eig_unitary_angles):
                assert circular_gap(eig(widened).atoms, eig(real).atoms) <= 1e-12

    def test_non_unitary_input_rejected(self):
        # a view that skipped its own check falls back to Cayley, which refuses it
        for bad in (2 * np.eye(3), [[1.0, 1.0], [0.0, 1.0]], np.diag([1.0, 1j * 1.001])):
            forged = object.__new__(UnitaryView)
            forged.entries = ComplexMatrix(bad).entries
            forged.dim = forged.entries.shape[0]
            with pytest.raises((NumericalFailureError, ContractError)):
                eig_paired_angles(forged)


def unrecognized(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: None, lambda name: "musl 1.2",
                                     unrecognized])
def test_hold_heap_does_nothing_off_glibc(monkeypatch, confstr):
    # a C library that is not glibc, or none that names itself, gets no mallopt call
    monkeypatch.setattr(matlin.os, "confstr", confstr)
    monkeypatch.setattr(matlin, "M_MMAP_THRESHOLD", None)  # a call would raise
    assert matlin.hold_heap() is False
