import pickle

import numpy as np
import pytest

from speclab import matlin
from speclab.ensembles import haar_so, haar_so_minus, haar_unitary, sample_cse
from speclab.errors import ContractError, DegenerateInputError, NumericalFailureError
from speclab.matlin import (
    ComplexMatrix,
    HermitianView,
    UnitaryView,
    eig_hermitian,
    eig_unitary_angles,
    hs_norm,
    qr_positive,
)
from speclab.rng import StreamKey

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

    def test_unitary_view_rejects_scaled_identity(self):
        with pytest.raises(ContractError):
            UnitaryView(2 * np.eye(3))


@pytest.mark.parametrize("cls", [ComplexMatrix, HermitianView, UnitaryView])
def test_matrix_unpickles_certified_and_read_only(cls):
    m = pickle.loads(pickle.dumps(cls(np.eye(2))))
    assert type(m) is cls
    assert np.array_equal(m.entries, np.eye(2))
    assert not m.entries.flags.writeable
    # unpickling runs the constructor's checks again, so tampered entries are refused
    tampered = cls(np.eye(2))
    tampered.entries = np.array([[2.0, 1.0], [0.0, np.nan]])
    with pytest.raises(ContractError):
        pickle.loads(pickle.dumps(tampered))


class TestHsNorm:
    def test_identity(self):
        assert hs_norm(np.eye(3)) == pytest.approx(np.sqrt(3), abs=1e-14)

    def test_zero(self):
        assert hs_norm(np.zeros((2, 2))) == 0.0

    def test_two_unit_entries(self):
        assert hs_norm(np.array([[0, 1], [1, 0]])) == pytest.approx(np.sqrt(2), abs=1e-14)


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
        assert hs_norm(q @ r - g) <= 1e-12 * hs_norm(g)
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
            assert np.sum(vals**2) == pytest.approx(hs_norm(a.entries) ** 2, rel=1e-9)


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
            ang = eig_unitary_angles(sample_cse(8, StreamKey(33, "cse", 16, r))).atoms
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


def unrecognized(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [lambda name: None, lambda name: "musl 1.2",
                                     unrecognized])
def test_hold_heap_does_nothing_off_glibc(monkeypatch, confstr):
    # a C library that is not glibc, or none that names itself, gets no mallopt call
    monkeypatch.setattr(matlin.os, "confstr", confstr)
    monkeypatch.setattr(matlin, "M_MMAP_THRESHOLD", None)  # a call would raise
    assert matlin.hold_heap() is False
