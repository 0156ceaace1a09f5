import pickle

import numpy as np
import pytest

from speclab.ensembles import gue_wigner, haar_unitary
from speclab.errors import ContractError
from speclab.matlin import eig_hermitian, eig_unitary_angles, hermitian, unitary
from speclab.measures import (
    EmpiricalMeasureCircle,
    EmpiricalMeasureLine,
    PiecewiseLinearTestFunction,
    SemicircleReference,
    UniformCircleReference,
    pool,
    linear_statistic,
)
from speclab.rng import StreamKey
from speclab.transport import w1_circle_pair, w1_circle_uniform, wp_line

TWO_PI = 2 * np.pi


def geodesic_to_zero(lipschitz=1.0):
    """f(theta) = geodesic distance to angle 0, a 1-Lipschitz hat function."""
    knots = np.array([0.0, np.pi])
    values = np.array([0.0, np.pi * lipschitz])
    return PiecewiseLinearTestFunction("circle", knots, values, lipschitz)


def random_circle_function(rng, n_knots=6, lipschitz=1.0):
    knots = np.sort(rng.uniform(0, TWO_PI, n_knots))
    knots[0] = 0.0
    values = np.zeros(n_knots)
    for i in range(1, n_knots):
        gap = knots[i] - knots[i - 1]
        values[i] = values[i - 1] + rng.uniform(-lipschitz, lipschitz) * gap
    # close the loop within the Lipschitz budget: pull values towards zero mean slope
    wrap_gap = TWO_PI - knots[-1]
    if abs(values[-1]) > lipschitz * wrap_gap:
        values *= lipschitz * wrap_gap / abs(values[-1])
    return PiecewiseLinearTestFunction("circle", knots, values, lipschitz)


class TestEsd:
    def test_identity_all_zero_angles(self):
        m = eig_unitary_angles(unitary(np.eye(4)))
        assert np.allclose(m.atoms, 0.0)
        assert len(m) == 4

    def test_diag_pm_one(self):
        m = eig_unitary_angles(unitary(np.diag([1.0, -1.0])))
        assert np.allclose(np.sort(m.atoms), [0.0, np.pi])

    def test_line_diag(self):
        m = eig_hermitian(hermitian(np.diag([3.0, 1.0])))
        assert np.allclose(m.atoms, [1.0, 3.0])

    def test_similarity_invariance(self):
        a = gue_wigner(8, StreamKey(5, "esd_sim", 8, 0))
        u = haar_unitary(8, StreamKey(5, "esd_sim_u", 8, 0))
        conj = hermitian(u.entries @ a.entries @ u.entries.conj().T)
        assert np.allclose(eig_hermitian(a).atoms, eig_hermitian(conj).atoms, atol=1e-8)

    def test_gue_atom_range(self):
        # semicircle support [-2, 2] plus edge fluctuation, at the frozen seed
        m = eig_hermitian(gue_wigner(512, StreamKey(20260826, "gue_range", 512, 0)))
        assert m.atoms[0] >= -2.5 and m.atoms[-1] <= 2.5


def test_line_measure_unpickles_read_only():
    # line spectra come back from worker processes by pickle
    m = pickle.loads(pickle.dumps(EmpiricalMeasureLine([2.0, -1.0])))
    assert m.atoms.tolist() == [-1.0, 2.0]
    assert not m.atoms.flags.writeable


class TestPool:
    def test_single_sample_identity(self):
        m = EmpiricalMeasureCircle([0.1, 0.2])
        p = pool([m])
        assert np.array_equal(p.atoms, m.atoms)

    def test_two_singletons(self):
        p = pool([EmpiricalMeasureCircle([0.0]), EmpiricalMeasureCircle([np.pi])])
        assert np.allclose(p.atoms, [0.0, np.pi])
        assert len(p) == 2

    def test_mixed_domains_rejected(self):
        with pytest.raises(ContractError):
            pool([EmpiricalMeasureCircle([0.0]), EmpiricalMeasureLine([0.0])])

    def test_pooled_unitary_angles_near_uniform(self):
        from scipy import stats

        samples = []
        for r in range(1000):
            u = haar_unitary(8, StreamKey(20260826, "pool_unif", 8, r))
            samples.append(eig_unitary_angles(u))
        pooled = pool(samples)
        ks = stats.kstest(pooled.atoms / TWO_PI, "uniform").statistic
        assert ks <= 0.02


class TestTestFunctionStatistic:
    def test_zero_function(self):
        f = PiecewiseLinearTestFunction("circle", [0.0, np.pi], [0.0, 0.0], 1.0)
        m = EmpiricalMeasureCircle([1.0, 2.0])
        assert linear_statistic(f, m, UniformCircleReference()) == pytest.approx(0.0)

    def test_same_measure_gives_zero(self):
        f = geodesic_to_zero()
        m = EmpiricalMeasureCircle([1.0, 2.0, 4.0])
        assert linear_statistic(f, m, m) == pytest.approx(0.0, abs=1e-14)

    def test_delta_at_zero_vs_uniform(self):
        # integral of the geodesic hat against nu is pi/2
        f = geodesic_to_zero()
        m = EmpiricalMeasureCircle([0.0])
        x = linear_statistic(f, m, UniformCircleReference())
        assert x == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_domain_mismatch(self):
        f = geodesic_to_zero()
        with pytest.raises(ContractError):
            linear_statistic(f, EmpiricalMeasureLine([0.0]), SemicircleReference())

    def test_semicircle_first_absolute_moment(self):
        # integral of |x| against the semicircle is 8 / (3 pi)
        f = PiecewiseLinearTestFunction("line", [-3.0, 0.0, 3.0], [3.0, 0.0, 3.0], 1.0)
        m = EmpiricalMeasureLine([0.0])
        x = linear_statistic(f, m, SemicircleReference())
        assert x == pytest.approx(-8 / (3 * np.pi), abs=1e-9)

    def test_dual_bound_against_d1(self):
        # |X_f| <= L * d1(m, ref) for every L-Lipschitz test function
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            m1 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            m2 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            lip = float(rng.uniform(0.5, 2.0))
            f = random_circle_function(rng, lipschitz=lip)
            xf = linear_statistic(f, m1, m2)
            d1 = w1_circle_pair(m1, m2).value
            assert abs(xf) <= lip * d1 + 1e-10

    def test_rotation_equivariance_of_distance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            atoms = rng.uniform(0, TWO_PI, n)
            phi = float(rng.uniform(0, TWO_PI))
            d0 = w1_circle_uniform(EmpiricalMeasureCircle(atoms)).value
            d1 = w1_circle_uniform(EmpiricalMeasureCircle(np.mod(atoms + phi, TWO_PI))).value
            assert d0 == pytest.approx(d1, abs=1e-10)


class TestPiecewiseLinearValidation:
    def test_slope_exceeding_lipschitz_rejected(self):
        with pytest.raises(ContractError):
            PiecewiseLinearTestFunction("line", [0.0, 1.0], [0.0, 2.0], 1.0)

    def test_nonzero_anchor_rejected(self):
        with pytest.raises(ContractError):
            PiecewiseLinearTestFunction("line", [-1.0, 1.0], [1.0, 1.0], 1.0)

    def test_circle_wrap_slope_checked(self):
        # final knot must come back to the first within the Lipschitz budget
        with pytest.raises(ContractError):
            PiecewiseLinearTestFunction(
                "circle", [0.0, TWO_PI - 0.01], [0.0, 5.0], 1.0
            )
