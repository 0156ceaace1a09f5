import pickle

import numpy as np
import pytest

from speclab.ensembles import gue_wigner, haar_unitary
from speclab.errors import ContractError
from speclab.matlin import HermitianView, UnitaryView, eig_hermitian, eig_unitary_angles
from speclab.measures import (
    EmpiricalMeasureCircle,
    EmpiricalMeasureLine,
    widest_gap_middle,
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


@pytest.mark.parametrize("cls,noun", [(EmpiricalMeasureLine, "values"),
                                       (EmpiricalMeasureCircle, "angles")])
@pytest.mark.parametrize("atoms,message", [
    ([], "need a nonempty 1-D array of {}"),
    (0.5, "need a nonempty 1-D array of {}"),
    ([[0.0]], "need a nonempty 1-D array of {}"),
    ([np.nan], "{} must be finite"),
    ([np.inf], "{} must be finite"),
])
def test_measure_refusals(cls, noun, atoms, message):
    with pytest.raises(ContractError) as exc:
        cls(atoms)
    assert str(exc.value) == message.format(noun)


@pytest.mark.parametrize("atoms", [[-1e-300], [TWO_PI]])
def test_only_the_circle_refuses_atoms_outside_0_2pi(atoms):
    with pytest.raises(ContractError) as exc:
        EmpiricalMeasureCircle(atoms)
    assert str(exc.value) == "angles must lie in [0, 2*pi)"
    assert EmpiricalMeasureLine(atoms).atoms.tolist() == atoms


@pytest.mark.parametrize("cls", [EmpiricalMeasureLine, EmpiricalMeasureCircle])
def test_measure_unpickles_read_only(cls):
    # line spectra come back from worker processes by pickle
    m = pickle.loads(pickle.dumps(cls([2.0, 1.0])))
    assert type(m) is cls
    assert m.atoms.tolist() == [1.0, 2.0]
    assert not m.atoms.flags.writeable


class TestPool:
    def test_pooled_unitary_angles_near_uniform(self):
        from scipy import stats

        samples = []
        for r in range(1000):
            u = haar_unitary(8, StreamKey(20260826, "pool_unif", 8, r))
            samples.append(eig_unitary_angles(u))
        pooled = np.concatenate([m.atoms for m in samples])
        ks = stats.kstest(pooled / TWO_PI, "uniform").statistic
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


class TestWidestGapMiddle:
    @pytest.mark.parametrize("angles,middle", [
        ([4.0, 0.5, 1.0], 2.5),                 # an inner gap, from unsorted angles
        ([3.0, 4.0, 5.0], 4.0 + np.pi),         # the gap through 0: past 2*pi
        ([1.0], 1.0 + np.pi),                   # one angle: its antipode
    ])
    def test_known_gaps(self, angles, middle):
        assert widest_gap_middle(np.array(angles)) == pytest.approx(middle, abs=1e-15)

    def test_farthest_from_every_angle(self):
        # the middle of the widest gap is half that gap from its nearest angle
        rng = np.random.default_rng(29)
        for _ in range(200):
            angles = rng.uniform(0, TWO_PI, int(rng.integers(1, 12)))
            ring = np.sort(angles)
            widest = np.max(np.diff(ring, append=ring[0] + TWO_PI))
            gaps = np.abs(np.mod(angles - widest_gap_middle(angles) + np.pi, TWO_PI) - np.pi)
            assert np.min(gaps) == pytest.approx(widest / 2.0, abs=1e-12)
