import json
import os

import numpy as np
import pytest

from speclab import ensembles
from speclab.ensembles import (
    DET_TOL,
    ENSEMBLES,
    EnsembleTag,
    compress,
    ginibre_complex,
    ginibre_real,
    gue_wigner,
    haar_orthogonal,
    haar_so,
    haar_so_minus,
    haar_su,
    haar_symplectic,
    haar_unitary,
    randomized_sum,
    randomized_sum_factors,
    sample_coe,
    sample_cse,
)
from speclab.errors import ContractError
from speclab.matlin import (
    HermitianView,
    UnitaryView,
    det_lu,
    eig_hermitian,
    eig_paired_angles,
    eig_unitary_angles,
    qr_positive,
)
from speclab.measures import EmpiricalMeasureCircle
from speclab.rng import StreamKey, standard_complex_normal
from speclab.transport import w1_circle_uniform

TWO_PI = 2 * np.pi
SEED = 1234
CIRCLE_TAGS = sorted((t for t, row in ENSEMBLES.items() if row.domain == "circle"),
                     key=lambda t: t.value)


def key(ens, n, r=0, seed=SEED):
    return StreamKey(seed, ens, n, r)


def symplectic_form(half_n):
    """The dense 2n-by-2n skew form J, blocks [[0,-1],[1,0]] on the diagonal;
    built apart from the sampler's strided ``_j_times`` so the checks on it
    stay independent."""
    return np.kron(np.eye(half_n), np.array([[0.0, -1.0], [1.0, 0.0]]))


def op_norm(a):
    """Operator norm max |lambda| of a Hermitian matrix, from its ascending spectrum."""
    vals = eig_hermitian(a).atoms
    return max(abs(vals[0]), abs(vals[-1]))


class TestGinibre:
    def test_determinism(self):
        k = key("ginibre", 16)
        assert np.array_equal(ginibre_complex(16, k), ginibre_complex(16, k))

    def test_unit_variance_entries(self):
        # pooled mean of |entry|^2 is within a CLT band around 1
        pooled = np.concatenate([
            np.abs(ginibre_complex(64, key("ginibre_var", 64, r)).ravel()) ** 2
            for r in range(3)
        ])[:10000]
        assert 0.97 <= np.mean(pooled) <= 1.03

    def test_distinct_replicates_differ_everywhere(self):
        g0 = ginibre_complex(8, key("ginibre", 8, 0))
        g1 = ginibre_complex(8, key("ginibre", 8, 1))
        assert np.all(g0 != g1)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (8, 8), (5, 7), (128, 128), (17,)])
    def test_complex_normal_is_bitwise_the_old_expression(self, shape):
        for r in range(4):
            k = key("ginibre_bits", 8, r)
            rng = k.generator()
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            expected = (re + 1j * im) / np.sqrt(2.0)
            got = standard_complex_normal(k.generator(), shape)
            assert got.dtype == np.complex128 and got.shape == expected.shape
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestHaarUnitary:
    def test_n1_on_circle(self):
        u = haar_unitary(1, key("unitary", 1))
        assert abs(abs(u.entries[0, 0]) - 1) < 1e-14

    def test_mean_trace_near_zero(self):
        # E tr U^k = 0 on U(n) for 1 <= k < n
        traces1, traces2 = [], []
        for r in range(2000):
            u = haar_unitary(8, key("unitary_mom", 8, r))
            ang = eig_unitary_angles(u).atoms
            traces1.append(np.sum(np.exp(1j * ang)) / 8)
            traces2.append(np.sum(np.exp(2j * ang)))
        for traces in (np.array(traces1), np.array(traces2)):
            se = np.sqrt((traces.real.var() + traces.imag.var()) / traces.size)
            assert abs(traces.mean()) <= 4 * se


class TestRealGroups:
    def test_so_determinant(self):
        for r in range(20):
            u = haar_so(5, key("so", 5, r))
            assert abs(det_lu(u.entries).real - 1) <= 1e-8

    def test_so_minus_n1_is_minus_one(self):
        u = haar_so_minus(1, key("so_minus", 1))
        assert u.entries[0, 0] == pytest.approx(-1.0)

    def test_so3_fixes_an_axis(self):
        for r in range(20):
            ang = eig_unitary_angles(haar_so(3, key("so3", 3, r))).atoms
            nearest = min(ang.min(), TWO_PI - ang.max())
            assert nearest < 1e-8

    def test_ginibre_real_is_the_float64_draw(self):
        for n in (1, 3, 8):
            k = key("ginibre_real", n)
            g = ginibre_real(n, k)
            assert g.dtype == np.float64 and g.shape == (n, n)
            assert np.array_equal(g, k.generator().standard_normal((n, n)))

    @pytest.mark.parametrize("sampler", [haar_orthogonal, haar_so, haar_so_minus],
                             ids=["orthogonal", "so", "so_minus"])
    def test_factors_in_real_arithmetic(self, monkeypatch, sampler):
        dtypes = []

        def recording(g):
            dtypes.append(g.dtype)
            return qr_positive(g)

        monkeypatch.setattr(ensembles, "qr_positive", recording)
        u = sampler(8, key("real_dtype", 8))
        assert dtypes == [np.float64] and u.entries.dtype == np.float64

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64])
    @pytest.mark.parametrize("sampler, target", [(haar_orthogonal, None), (haar_so, 1.0),
                                                 (haar_so_minus, -1.0)],
                             ids=["orthogonal", "so", "so_minus"])
    def test_matches_the_complex_route(self, sampler, target, n):
        # the oracle is the route before the real QR: the same draw, cast to
        # complex128, factored, and given the same determinant sign
        for r in range(4):
            k = key(sampler.__name__, n, r)
            q = qr_positive(k.generator().standard_normal((n, n)).astype(np.complex128))
            if target is not None and det_lu(q).real * target < 0:
                q[:, -1] = -q[:, -1]
            expected = UnitaryView(q)
            got = sampler(n, k)
            assert np.max(np.abs(got.entries - expected.entries)) <= 1e-13
            det = det_lu(got.entries)
            want = target if target is not None else np.sign(det_lu(q).real)
            assert abs(det - want) <= DET_TOL
            ang = eig_unitary_angles(got).atoms
            diff = np.abs(ang - eig_unitary_angles(expected).atoms)
            assert np.max(np.minimum(diff, TWO_PI - diff)) <= 1e-12
            # det = 1 at odd n forces the eigenvalue 1, det = -1 forces -1 at odd n
            if n % 2 and target is not None:
                forced = 0.0 if target > 0 else np.pi
                dist = np.abs(ang - forced)
                assert np.min(np.minimum(dist, TWO_PI - dist)) <= 1e-8


class TestHaarSu:
    def test_det_is_one(self):
        for r in range(20):
            u = haar_su(6, key("su", 6, r))
            assert abs(det_lu(u.entries) - 1) <= 1e-8

    def test_su1_is_trivial(self):
        u = haar_su(1, key("su", 1))
        assert u.entries[0, 0] == pytest.approx(1.0)


class TestSymplectic:
    def test_preserves_form(self):
        for n, r in [(1, 0), (2, 0), (4, 0), (8, 1), (32, 0)]:
            u = haar_symplectic(2 * n, key("symplectic", 2 * n, r))
            j = symplectic_form(n)
            assert np.linalg.norm(u.entries @ j @ u.entries.T - j) <= 1e-8 * np.sqrt(n)

    def test_angles_closed_under_reflection(self):
        for r in range(10):
            ang = eig_unitary_angles(haar_symplectic(8, key("symplectic", 8, r))).atoms
            reflected = np.sort(np.mod(TWO_PI - ang, TWO_PI))
            diff = np.abs(np.sort(ang) - reflected)
            diff = np.minimum(diff, TWO_PI - diff)
            assert np.max(diff) < 1e-8

    def test_sp1_pair(self):
        ang = eig_unitary_angles(haar_symplectic(2, key("symplectic", 2, 3))).atoms
        assert ang[0] + ang[1] == pytest.approx(TWO_PI, abs=1e-10)

    @pytest.mark.parametrize("half_n", [1, 2, 3, 4, 8, 32, 64])
    def test_matches_quaternionic_gram_schmidt(self, half_n):
        for r in range(4):
            k = key("symplectic", 2 * half_n, r)
            expected = gram_schmidt_symplectic(half_n, k)
            assert np.max(np.abs(haar_symplectic(2 * half_n, k).entries - expected)) <= 1e-13

    def test_pooled_benchmark_pin(self):
        # perfbench's pooled_distance workload samples these 64 Sp(32)
        # spectra through the CLI, by the row's own route, and pins their
        # pooled distance to the uniform law at 1e-12 in perfbench/reference.json
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        row = ENSEMBLES[EnsembleTag.SYMPLECTIC]
        atoms = np.concatenate([
            row.spectrum(64, StreamKey(reference["seed"], "symplectic", 64, r)).atoms
            for r in range(64)
        ])
        d = w1_circle_uniform(EmpiricalMeasureCircle(atoms))
        assert abs(d - reference["pooled_distance"]["uniform-circle"]) <= 1e-12


REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference.json")


def gram_schmidt_symplectic(half_n, k):
    """The quaternionic Gram-Schmidt sampler that the shared QR replaced,
    kept as its oracle: same stream, same embedding, two orthogonalization
    passes per column, and the paired column J conj(v)."""
    n = half_n
    rng = k.generator()
    a = standard_complex_normal(rng, (n, n))
    b = standard_complex_normal(rng, (n, n))
    g = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    g[0::2, 0::2] = a
    g[0::2, 1::2] = -b.conj()
    g[1::2, 0::2] = b
    g[1::2, 1::2] = a.conj()
    j = symplectic_form(n)
    q = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for col in range(n):
        v = g[:, 2 * col].copy()
        for _ in range(2):
            if col > 0:
                prev = q[:, : 2 * col]
                v -= prev @ (prev.conj().T @ v)
        v /= np.linalg.norm(v)
        q[:, 2 * col] = v
        q[:, 2 * col + 1] = j @ v.conj()
    return q


class TestCircularEnsembles:
    def test_coe_symmetric(self):
        for r in range(20):
            m = sample_coe(9, key("coe", 9, r)).entries
            assert np.linalg.norm(m - m.T) <= 1e-10 * 3

    def test_cse_kramers_doublets(self):
        for r in range(10):
            ang = np.sort(eig_unitary_angles(sample_cse(8, key("cse", 8, r))).atoms)
            pairs = ang.reshape(-1, 2)
            assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-6

    def test_coe_pooled_angles_uniform(self):
        from scipy import stats

        pooled = []
        for r in range(500):
            u = sample_coe(16, key("coe_unif", 16, r))
            pooled.append(eig_unitary_angles(u).atoms)
        pooled = np.concatenate(pooled) / TWO_PI
        ks = stats.kstest(pooled, "uniform").statistic
        assert ks <= 0.02


class TestGueWigner:
    def test_exactly_hermitian(self):
        a = gue_wigner(10, key("gue", 10)).entries
        assert np.array_equal(a, a.conj().T)

    def test_second_moment_normalization(self):
        # E (1/n) sum lambda_i^2 = 1 under the 1/n entry-variance scaling
        vals = []
        for r in range(200):
            a = gue_wigner(64, key("gue_m2", 64, r))
            vals.append(np.mean(eig_hermitian(a).atoms ** 2))
        assert abs(np.mean(vals) - 1.0) < 0.05

    def test_operator_norm_bounded(self):
        norms = [op_norm(gue_wigner(256, key("gue_op", 256, r))) for r in range(100)]
        assert np.mean(norms) <= 2.2

    def test_op_norm_std_shrinks_with_n(self):
        # subgaussian concentration predicts std ~ 1/n: factor >= 1.5 per 4x in n
        stds = []
        for n in (32, 128):
            norms = [op_norm(gue_wigner(n, key("gue_conc", n, r))) for r in range(200)]
            stds.append(np.std(norms))
        assert stds[0] / stds[1] >= 1.5


class TestCompress:
    def test_full_compression_is_similarity(self):
        rng_key = key("compress", 6)
        a = gue_wigner(6, rng_key)
        u = haar_unitary(6, key("compress_u", 6))
        m = compress(a, u, 6)
        assert np.allclose(eig_hermitian(m).atoms, eig_hermitian(a).atoms, atol=1e-8)

    def test_identity_compresses_to_identity(self):
        a = HermitianView(np.eye(5))
        u = haar_unitary(5, key("compress_id", 5))
        m = compress(a, u, 3)
        assert np.allclose(m.entries, np.eye(3), atol=1e-12)

    def test_interlacing_range(self):
        for r in range(50):
            a = gue_wigner(8, key("compress_rng", 8, r))
            u = haar_unitary(8, key("compress_rng_u", 8, r))
            vals_a = eig_hermitian(a).atoms
            k = 1 + r % 8
            vals_m = eig_hermitian(compress(a, u, k)).atoms
            assert vals_m[0] >= vals_a[0] - 1e-10
            assert vals_m[-1] <= vals_a[-1] + 1e-10

    def test_dimension_mismatch(self):
        a = gue_wigner(4, key("mismatch", 4))
        u = haar_unitary(5, key("mismatch_u", 5))
        with pytest.raises(ContractError):
            compress(a, u, 2)

    def test_block_below_the_product_roundoff_is_accepted(self):
        # U's first row v has v* A v = 0, so the 1x1 block is pure roundoff
        # of the 2x2 product, with an imaginary part of its own size
        a = HermitianView([[0.5, 0.3 + 0.7j], [0.3 - 0.7j, -0.9]])
        t, z = 1.0298238080910447, np.exp(0.5j)
        u = UnitaryView([[np.cos(t), np.sin(t) * z], [-np.sin(t) * np.conj(z), np.cos(t)]])
        raw = (u.entries @ a.entries @ u.entries.conj().T)[0, 0]
        assert abs(raw.imag) > 1e-12 * abs(raw)  # the raw block is no Hermitian view
        assert compress(a, u, 1).entries.tobytes() == np.array([[raw.real]], dtype=complex).tobytes()


class TestRandomizedSum:
    def test_zero_a_gives_b(self):
        b = gue_wigner(5, key("rs_b", 5))
        u = haar_unitary(5, key("rs_u", 5))
        m = randomized_sum(HermitianView(np.zeros((5, 5))), b, u)
        assert np.allclose(m.entries, b.entries)

    def test_cancelling_sum_is_accepted(self):
        # B cancels U A U*'s real part: the 1x1 sum is the product's roundoff
        a = HermitianView([[0.3]])
        u = UnitaryView([[np.exp(0.5j)]])
        raw = (u.entries @ a.entries @ u.entries.conj().T)[0, 0]
        assert raw.imag != 0.0  # the raw sum would be no Hermitian view
        m = randomized_sum(a, HermitianView([[-raw.real]]), u)
        assert m.entries.tobytes() == np.zeros((1, 1), dtype=complex).tobytes()

    def test_identity_u_gives_plain_sum(self):
        a = gue_wigner(5, key("rs_a", 5))
        b = gue_wigner(5, key("rs_b2", 5))
        m = randomized_sum(a, b, UnitaryView(np.eye(5)))
        assert np.allclose(m.entries, a.entries + b.entries)

    def test_weyl_containment(self):
        for r in range(50):
            a = gue_wigner(8, key("rs_w_a", 8, r))
            b = gue_wigner(8, key("rs_w_b", 8, r))
            u = haar_unitary(8, key("rs_w_u", 8, r))
            ea = eig_hermitian(a).atoms
            eb = eig_hermitian(b).atoms
            em = eig_hermitian(randomized_sum(a, b, u)).atoms
            eps = 1e-8 * (op_norm(a) + op_norm(b))
            assert em[0] >= ea[0] + eb[0] - eps
            assert em[-1] <= ea[-1] + eb[-1] + eps

    @pytest.mark.parametrize("scale,accept", [(np.sqrt(2.0), True), (1.0, False)],
                             ids=["sqrt2-gue", "gue-control"])
    def test_is_gue_in_law(self, scale, accept):
        # U A U* is again a GUE independent of U and B, so U A U* + B is a GUE
        # of entry variance 2/n: sqrt(2) times gue_wigner's spectra in law
        n, reps = 16, 200
        sums = np.concatenate([eig_hermitian(randomized_sum(*randomized_sum_factors(
            n, key("rs_law", n, r)))).atoms for r in range(reps)])
        gue = np.concatenate([scale * eig_hermitian(gue_wigner(n, key("rs_law_gue", n, r))).atoms
                              for r in range(reps)])
        from scipy import stats

        # two-sample KS at level 0.01, asymptotic critical value for equal sizes
        d = stats.ks_2samp(sums, gue, method="asymp").statistic
        assert bool(d <= np.sqrt(-np.log(0.005) / 2) * np.sqrt(2 / sums.size)) is accept


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_builders_make_their_matrices_exactly_hermitian(n):
    # HermitianView holds what it is given and eigvalsh reads one triangle,
    # so each builder owns the exactness of its matrix
    a, b, u = randomized_sum_factors(n, key("exact_h", n))
    views = [a, randomized_sum(a, b, u)]
    views += [compress(a, u, k) for k in sorted({1, (n + 1) // 2, n})]
    for v in views:
        assert np.array_equal(v.entries, v.entries.conj().T)


class TestGroupMembership:
    @pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
    def test_unitarity_all_tags(self, n):
        for tag in CIRCLE_TAGS:
            amb = n + 1 if (tag in {EnsembleTag.SYMPLECTIC, EnsembleTag.CSE} and n % 2) else n
            for r in range(5):
                u = ENSEMBLES[tag].sample(amb, key(f"member_{tag.value}", amb, r))
                defect = np.linalg.norm(u.entries @ u.entries.conj().T - np.eye(amb))
                assert defect <= 1e-10 * np.sqrt(amb)

    @pytest.mark.parametrize("tag", CIRCLE_TAGS, ids=lambda t: t.value)
    def test_one_certificate_per_draw(self, monkeypatch, tag):
        # the sampler certifies the matrix it returns, and nothing before it;
        # eight replicates reach both branches of the SO and SO- sign flip
        calls = []
        init = UnitaryView.__init__

        def counting(self, entries):
            calls.append(1)
            init(self, entries)

        monkeypatch.setattr(UnitaryView, "__init__", counting)
        per_draw = []
        for r in range(8):
            calls.clear()
            ENSEMBLES[tag].sample(6, key(f"certify_{tag.value}", 6, r))
            per_draw.append(len(calls))
        assert per_draw == [1] * 8

    def test_haar_invariance_smoke(self):
        # angles of W U (fixed W) are distributed like angles of U
        from scipy import stats

        w = haar_unitary(8, key("invariance_w", 8)).entries
        plain, shifted = [], []
        for r in range(300):
            u = haar_unitary(8, key("invariance", 8, r))
            plain.append(eig_unitary_angles(u).atoms)
            shifted.append(eig_unitary_angles(UnitaryView(w @ u.entries)).atoms)
        ks = stats.ks_2samp(np.concatenate(plain), np.concatenate(shifted)).pvalue
        assert ks > 0.01


class TestEnsembleTable:
    def test_one_row_per_tag_in_tag_order(self):
        # the sample --ensemble choices follow the table's order
        assert list(ENSEMBLES) == list(EnsembleTag)

    @pytest.mark.parametrize("tag,n,message", [
        ("symplectic", 5, "symplectic requires even ambient dimension, got 5"),
        ("cse", 7, "cse requires even ambient dimension, got 7"),
        ("compression", 4, "this ensemble has no single-matrix sampler"),
    ])
    def test_circle_sampler_refuses(self, tag, n, message):
        with pytest.raises(ContractError, match=message):
            ENSEMBLES[EnsembleTag(tag)].sample(n, key(tag, n))

    @pytest.mark.parametrize("sampler", [haar_symplectic, sample_cse],
                             ids=lambda f: f.__name__)
    def test_quaternionic_sampler_refuses_dimension_zero(self, sampler):
        # a StreamKey cannot carry n = 0, so only a direct call can ask for it
        with pytest.raises(ContractError, match="requires ambient dimension at least 2, got 0"):
            sampler(0, key("zero", 2))

    @pytest.mark.parametrize("tag", [t for t, row in ENSEMBLES.items() if row.sampler],
                             ids=lambda t: t.value)
    def test_row_draws_at_the_ambient_dimension(self, tag):
        # the oracle: the sampler function called directly, at the same n
        sampler = {
            EnsembleTag.ORTHOGONAL: haar_orthogonal,
            EnsembleTag.SO: haar_so,
            EnsembleTag.SO_MINUS: haar_so_minus,
            EnsembleTag.UNITARY: haar_unitary,
            EnsembleTag.SU: haar_su,
            EnsembleTag.SYMPLECTIC: haar_symplectic,
            EnsembleTag.COE: sample_coe,
            EnsembleTag.CSE: sample_cse,
            EnsembleTag.GUE_WIGNER: gue_wigner,
        }[tag]
        row, n = ENSEMBLES[tag], 6
        k = key(f"row_{tag.value}", n, 2)
        draw = row.sample(n, k)
        assert draw.entries.shape == (n, n)
        assert np.array_equal(draw.entries, sampler(n, k).entries)
        assert np.array_equal(row.spectrum(n, k).atoms, row.eig(draw).atoms)

    def test_each_row_names_its_eigensolver(self):
        # the conjugation-symmetric groups take the paired route, other circle rows Cayley
        paired = {EnsembleTag.ORTHOGONAL, EnsembleTag.SO, EnsembleTag.SO_MINUS,
                  EnsembleTag.SYMPLECTIC}
        for tag, row in ENSEMBLES.items():
            assert row.paired == (tag in paired)
            want = (eig_hermitian if row.domain == "line"
                    else eig_paired_angles if tag in paired else eig_unitary_angles)
            assert row.eig is want


class TestDeterminismAcrossSamplers:
    @pytest.mark.parametrize("tag", CIRCLE_TAGS)
    def test_replay(self, tag):
        n = 8
        k = key(tag.value, n, 3)
        u1 = ENSEMBLES[tag].sample(n, k)
        u2 = ENSEMBLES[tag].sample(n, k)
        assert np.array_equal(u1.entries, u2.entries)
