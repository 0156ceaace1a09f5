import pickle

import numpy as np
import pytest

from speclab.ensembles import gue_wigner, haar_unitary
from speclab.errors import ContractError
from speclab.matlin import HermitianView, UnitaryView, eig_hermitian, eig_unitary_angles
from speclab.measures import (
    EmpiricalMeasureCircle,
    EmpiricalMeasureLine,
    pool,
)
from speclab.rng import StreamKey
from speclab.transport import w1_circle_uniform

TWO_PI = 2 * np.pi


class TestEsd:
    def test_identity_all_zero_angles(self):
        m = eig_unitary_angles(UnitaryView(np.eye(4)))
        assert np.allclose(m.atoms, 0.0)
        assert len(m) == 4

    def test_diag_pm_one(self):
        m = eig_unitary_angles(UnitaryView(np.diag([1.0, -1.0])))
        assert np.allclose(np.sort(m.atoms), [0.0, np.pi])

    def test_line_diag(self):
        m = eig_hermitian(HermitianView(np.diag([3.0, 1.0])))
        assert np.allclose(m.atoms, [1.0, 3.0])

    def test_similarity_invariance(self):
        a = gue_wigner(8, StreamKey(5, "esd_sim", 8, 0))
        u = haar_unitary(8, StreamKey(5, "esd_sim_u", 8, 0))
        conj = HermitianView(u.entries @ a.entries @ u.entries.conj().T)
        assert np.allclose(eig_hermitian(a).atoms, eig_hermitian(conj).atoms, atol=1e-8)

    def test_gue_atom_range(self):
        # semicircle support [-2, 2] plus edge fluctuation, at the frozen seed
        m = eig_hermitian(gue_wigner(512, StreamKey(20260826, "gue_range", 512, 0)))
        assert m.atoms[0] >= -2.5 and m.atoms[-1] <= 2.5


@pytest.mark.parametrize("cls", [EmpiricalMeasureLine, EmpiricalMeasureCircle])
def test_measure_unpickles_read_only(cls):
    # line spectra come back from worker processes by pickle
    m = pickle.loads(pickle.dumps(cls([2.0, 1.0])))
    assert type(m) is cls
    assert m.atoms.tolist() == [1.0, 2.0]
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


def test_rotation_equivariance_of_distance():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        atoms = rng.uniform(0, TWO_PI, n)
        phi = float(rng.uniform(0, TWO_PI))
        d0 = w1_circle_uniform(EmpiricalMeasureCircle(atoms))
        d1 = w1_circle_uniform(EmpiricalMeasureCircle(np.mod(atoms + phi, TWO_PI)))
        assert d0 == pytest.approx(d1, abs=1e-10)
