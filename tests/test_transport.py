import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab.ensembles import gue_wigner
from speclab.errors import ContractError, SizeGuardError
from speclab.matlin import eig_hermitian, hs_norm
from speclab.measures import EmpiricalMeasureCircle, EmpiricalMeasureLine
from speclab.rng import StreamKey
from speclab import transport
from speclab.transport import (
    Algorithm,
    GroundMetric,
    assignment_oracle,
    chordal_distance,
    geodesic_distance,
    semicircle_cdf,
    w1_circle_pair,
    w1_circle_uniform,
    w1_line_vs_cdf,
    wp_line,
)

TWO_PI = 2 * np.pi


class TestWpLine:
    def test_identical_measures(self):
        m = EmpiricalMeasureLine([0.0, 1.0, 2.5])
        assert wp_line(m, m, 1.0).value == 0.0

    def test_singletons(self):
        d = wp_line(EmpiricalMeasureLine([0.0]), EmpiricalMeasureLine([3.0]), 1.0)
        assert d.value == pytest.approx(3.0)
        assert d.algorithm is Algorithm.SORTED_PAIRING

    def test_monotone_coupling_beats_swap(self):
        # both pairings enumerated by hand: monotone gives (1 + 2) / 2
        d = wp_line(EmpiricalMeasureLine([0.0, 1.0]), EmpiricalMeasureLine([1.0, 3.0]), 1.0)
        assert d.value == pytest.approx(1.5)

    def test_unequal_counts_rejected(self):
        with pytest.raises(ContractError):
            wp_line(EmpiricalMeasureLine([0.0]), EmpiricalMeasureLine([0.0, 1.0]), 1.0)

    @given(
        xs=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        ys=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        p=st.floats(1.0, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, xs, ys, p):
        n = min(len(xs), len(ys))
        m1 = EmpiricalMeasureLine(xs[:n])
        m2 = EmpiricalMeasureLine(ys[:n])
        fast = wp_line(m1, m2, p).value
        exact = assignment_oracle(m1, m2, GroundMetric.LINE_EUCLIDEAN, p).value
        assert fast == pytest.approx(exact, abs=1e-9)

    @given(
        xs=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        ys=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_p(self, xs, ys):
        n = min(len(xs), len(ys))
        m1 = EmpiricalMeasureLine(xs[:n])
        m2 = EmpiricalMeasureLine(ys[:n])
        assert wp_line(m1, m2, 1.0).value <= wp_line(m1, m2, 2.0).value + 1e-12


class TestCircleUniform:
    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_roots_of_unity(self, n):
        roots = EmpiricalMeasureCircle(TWO_PI * np.arange(n) / n)
        assert w1_circle_uniform(roots).value == pytest.approx(np.pi / (2 * n), abs=1e-12)

    def test_single_atom_anywhere(self):
        for theta in (0.0, 1.0, np.pi, 5.5):
            m = EmpiricalMeasureCircle([theta])
            assert w1_circle_uniform(m).value == pytest.approx(np.pi / 2, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        atoms = rng.uniform(0, TWO_PI, 7)
        base = w1_circle_uniform(EmpiricalMeasureCircle(atoms)).value
        for phi in rng.uniform(0, TWO_PI, 10):
            rotated = EmpiricalMeasureCircle(np.mod(atoms + phi, TWO_PI))
            assert w1_circle_uniform(rotated).value == pytest.approx(base, abs=1e-12)

    def test_chordal_sandwich_metadata(self):
        m = EmpiricalMeasureCircle([0.3, 2.0])
        res = w1_circle_uniform(m)
        assert res.extras["chordal_lower"] == pytest.approx(2 / np.pi * res.value)
        assert res.extras["chordal_upper"] == pytest.approx(res.value)

    def test_discretized_uniform_oracle(self):
        # roots of unity against a fine uniform proxy must approach pi/(2n)
        n = 4
        roots = EmpiricalMeasureCircle(TWO_PI * np.arange(n) / n)
        proxy = EmpiricalMeasureCircle(TWO_PI * (np.arange(1000) + 0.5) / 1000)
        approx = w1_circle_pair(roots, proxy).value
        assert approx == pytest.approx(np.pi / (2 * n), abs=2e-3)


def quadratic_value_median(los, his, masses):
    """Reference median of a mixture of uniforms: the cumulative mass at every
    breakpoint from a dense (breakpoints x segments) matrix, O(N^2) memory."""
    total = float(np.sum(masses))
    half = total / 2.0
    eps = 1e-12 * max(total, 1.0)

    pts = np.unique(np.concatenate([los, his]))
    widths = his - los
    flat = widths <= 0.0
    safe_w = np.where(flat, 1.0, widths)
    frac = np.clip((pts[:, None] - los[None, :]) / safe_w[None, :], 0.0, 1.0)
    frac = np.where(flat[None, :], (pts[:, None] >= los[None, :]).astype(float), frac)
    vals = frac @ masses
    jumps = (flat[None, :] & (pts[:, None] == los[None, :])) @ masses

    # as in the sweep: a cumulative mass within eps below half reaches it
    i = int(np.searchsorted(vals, half - eps))
    if i == 0:
        return float(pts[0])
    if i >= pts.size:
        return float(pts[-1])
    if vals[i] > half + eps:
        below = vals[i] - jumps[i]  # mass strictly below pts[i]
        if below <= half + eps:
            return float(pts[i])
        a, b = pts[i - 1], pts[i]
        fa = vals[i - 1]
        return float(a + (half - fa) / (below - fa) * (b - a))
    j = i
    while j + 1 < pts.size and vals[j + 1] <= half + eps:
        j += 1
    return float((pts[i] + pts[j]) / 2.0)


class TestCircleUniformSweep:
    """The O(N log N) breakpoint sweep against the quadratic reference."""

    @given(
        n=st.integers(1, 2000),
        kind=st.sampled_from(["uniform", "tied", "zero", "roots"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2000, kind="uniform", seed=0)
    @example(n=2000, kind="tied", seed=1)
    @example(n=2000, kind="roots", seed=0)
    @settings(max_examples=150, deadline=None)
    def test_matches_quadratic_median(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            atoms = rng.uniform(0, TWO_PI, n)
        elif kind == "tied":
            atoms = np.mod(np.round(rng.uniform(0, TWO_PI, n), 1), TWO_PI)
        elif kind == "zero":
            atoms = np.zeros(n)
        else:
            atoms = TWO_PI * np.arange(n) / n
        m = EmpiricalMeasureCircle(atoms)
        lengths, g_left, g_right = transport._circle_cdf_segments(m.atoms)
        fast_c = transport._value_median(g_right, g_left, lengths)
        slow_c = quadratic_value_median(g_right, g_left, lengths)
        assert fast_c == pytest.approx(slow_c, abs=1e-12)
        fast = w1_circle_uniform(m).value
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_value_median", quadratic_value_median)
            slow = w1_circle_uniform(m).value
        assert fast == pytest.approx(slow, abs=1e-12)

    @given(
        los=st.lists(st.floats(-5, 5).map(lambda x: round(x, 1)), min_size=1, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_mixtures_with_point_masses(self, los, data):
        k = len(los)
        widths = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5]),
                                    min_size=k, max_size=k))
        masses = data.draw(st.lists(st.floats(0.01, 10.0), min_size=k, max_size=k))
        lo, w, ms = np.array(los), np.array(widths), np.array(masses)
        fast = transport._value_median(lo, lo + w, ms)
        slow = quadratic_value_median(lo, lo + w, ms)
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_half_level_reached_below_by_rounding(self):
        # the sweep's cumulative mass at 0.1 rounds to just under half; the
        # median set is the flat stretch [0.1, 1.0], resolved to its midpoint
        lo = np.array([0.0, 1.0])
        his, ms = lo + 0.1, np.array([1.9, 1.9])
        assert transport._value_median(lo, his, ms) == pytest.approx(0.55, abs=1e-12)
        assert quadratic_value_median(lo, his, ms) == pytest.approx(0.55, abs=1e-12)

    def test_oracle_half_level_reached_below_by_rounding(self):
        # the oracle's matrix product lands one ulp under half at 2.5, the
        # end of the flat median stretch [1.5, 2.5]; the median is 2.0
        lo = np.array([-3.6, -4.3, 4.5, 3.5, 2.5, 1.5])
        his = lo + np.array([2.5, 0.5, 0.5, 0.1, 0.1, 0.0])
        ms = np.array([10.0, 1.0, 0.1, 10.0, 1.0, 0.1])
        assert transport._value_median(lo, his, ms) == pytest.approx(2.0, abs=1e-12)
        assert quadratic_value_median(lo, his, ms) == pytest.approx(2.0, abs=1e-12)

    def test_median_inside_a_point_mass(self):
        # unit masses at 0, 1 and 2: the cdf jumps from 1/3 to 2/3 at 1, so
        # the median is 1 (cost 2), not a point interpolated across the jump
        pts, ms = np.array([0.0, 1.0, 2.0]), np.ones(3)
        assert transport._value_median(pts, pts, ms) == 1.0
        assert quadratic_value_median(pts, pts, ms) == 1.0

    def test_hundred_thousand_atoms(self):
        n = 100_000
        atoms = TWO_PI * (np.arange(n) + 0.5) / n
        # equally spaced atoms, offset by half a spacing: W1 = pi / (2n)
        assert w1_circle_uniform(EmpiricalMeasureCircle(atoms)).value == pytest.approx(
            np.pi / (2 * n), abs=1e-12
        )
        rng = np.random.default_rng(9)
        value = w1_circle_uniform(EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))).value
        assert 0.0 < value < 0.05


class TestCirclePair:
    def test_identical(self):
        m = EmpiricalMeasureCircle([0.5, 4.0])
        assert w1_circle_pair(m, m).value == 0.0

    def test_antipodal_singletons(self):
        d = w1_circle_pair(EmpiricalMeasureCircle([0.0]), EmpiricalMeasureCircle([np.pi]))
        assert d.value == pytest.approx(np.pi, abs=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m1 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            m2 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            fast = w1_circle_pair(m1, m2).value
            exact = assignment_oracle(m1, m2, GroundMetric.CIRCLE_GEODESIC, 1.0).value
            assert fast == pytest.approx(exact, abs=1e-9)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            ms = [EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n)) for _ in range(3)]
            dab = w1_circle_pair(ms[0], ms[1]).value
            dba = w1_circle_pair(ms[1], ms[0]).value
            dbc = w1_circle_pair(ms[1], ms[2]).value
            dac = w1_circle_pair(ms[0], ms[2]).value
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dac <= dab + dbc + 1e-9

    def test_line_metric_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            ms = [EmpiricalMeasureLine(rng.normal(size=n)) for _ in range(3)]
            dab = wp_line(ms[0], ms[1], 1.0).value
            dba = wp_line(ms[1], ms[0], 1.0).value
            dbc = wp_line(ms[1], ms[2], 1.0).value
            dac = wp_line(ms[0], ms[2], 1.0).value
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dac <= dab + dbc + 1e-9


class TestHoffmanWielandtChain:
    def test_chain_on_random_hermitian_pairs(self):
        rng = np.random.default_rng(6)
        for t in range(1000):
            n = int(rng.integers(2, 17))
            a = gue_wigner(n, StreamKey(77, "hw_a", n, t))
            b = gue_wigner(n, StreamKey(77, "hw_b", n, t))
            ma = eig_hermitian(a)
            mb = eig_hermitian(b)
            d1 = wp_line(ma, mb, 1.0).value
            d2 = wp_line(ma, mb, 2.0).value
            bound = hs_norm(a.entries - b.entries) / np.sqrt(n)
            assert d1 <= d2 + 1e-10
            assert d2 <= bound + 1e-10


class TestAssignmentOracle:
    def test_self_distance_zero(self):
        m = EmpiricalMeasureCircle([0.1, 1.0, 2.0])
        assert assignment_oracle(m, m, GroundMetric.CIRCLE_GEODESIC, 1.0).value == 0.0

    def test_size_guard(self):
        m = EmpiricalMeasureLine(np.arange(13.0))
        with pytest.raises(SizeGuardError):
            assignment_oracle(m, m, GroundMetric.LINE_EUCLIDEAN, 1.0)

    def test_chordal_geodesic_sandwich(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m1 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            m2 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            chord = assignment_oracle(m1, m2, GroundMetric.CIRCLE_CHORDAL, 1.0).value
            geo = assignment_oracle(m1, m2, GroundMetric.CIRCLE_GEODESIC, 1.0).value
            assert chord <= geo + 1e-12
            assert geo <= np.pi / 2 * chord + 1e-12

    def test_pointwise_metric_sandwich(self):
        thetas = np.linspace(0, TWO_PI, 50, endpoint=False)
        geo = geodesic_distance(thetas[:, None], thetas[None, :])
        chord = chordal_distance(thetas[:, None], thetas[None, :])
        assert np.all(chord <= geo + 1e-12)
        assert np.all(2 / np.pi * geo <= chord + 1e-12)


class TestLineVsCdf:
    def test_quantile_midpoints_shrink(self):
        from scipy.optimize import brentq

        def quantiles(n):
            qs = (np.arange(n) + 0.5) / n
            return [brentq(lambda x, q=q: semicircle_cdf(x) - q, -2, 2) for q in qs]

        vals = []
        for n in (10, 100):
            m = EmpiricalMeasureLine(quantiles(n))
            vals.append(w1_line_vs_cdf(m, semicircle_cdf, support=(-2, 2)).value)
        assert vals[1] < vals[0]

    def test_delta_at_zero_vs_semicircle(self):
        m = EmpiricalMeasureLine([0.0])
        d = w1_line_vs_cdf(m, semicircle_cdf, support=(-2, 2))
        assert d.value == pytest.approx(8 / (3 * np.pi), abs=1e-8)

    def test_sign_flip_invariance(self):
        a = 0.7
        d1 = w1_line_vs_cdf(EmpiricalMeasureLine([-a, a]), semicircle_cdf, support=(-2, 2))
        d2 = w1_line_vs_cdf(EmpiricalMeasureLine([a, -a]), semicircle_cdf, support=(-2, 2))
        assert d1.value == pytest.approx(d2.value, abs=1e-12)

    def test_pooled_gue_pin(self):
        # perfbench's pooled_distance workload samples these 32 GUE(64)
        # spectra through the CLI and pins their pooled distance to the
        # semicircle at 1e-12 in perfbench/reference.json; a CDF or
        # quadrature edit that moves the pin fails here first
        atoms = np.concatenate([
            eig_hermitian(gue_wigner(64, StreamKey(20260826, "gue_wigner", 64, r))).atoms
            for r in range(32)
        ])
        d = w1_line_vs_cdf(EmpiricalMeasureLine(atoms), semicircle_cdf, support=(-2, 2))
        assert abs(d.value - 0.005361721964526397) <= 1e-12


def numpy_semicircle_cdf(x):
    """The array formula semicircle_cdf replaced, kept as its oracle."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, -2.0, 2.0)
    out = 0.5 + xc * np.sqrt(4.0 - xc**2) / (4.0 * np.pi) + np.arcsin(xc / 2.0) / np.pi
    return np.where(x <= -2.0, 0.0, np.where(x >= 2.0, 1.0, out))


class TestSemicircleCdf:
    def test_matches_numpy_formula(self):
        inside = [np.nextafter(-2.0, 0.0), np.nextafter(2.0, 0.0), -2.0 + 1e-12, 2.0 - 1e-12]
        grid = np.concatenate([np.linspace(-2.2, 2.2, 20001),
                               [-5.0, -2.0, -0.0, 0.0, 2.0, 5.0], inside])
        got = [semicircle_cdf(float(x)) for x in grid]
        assert all(type(v) is float for v in got)
        assert np.max(np.abs(np.array(got) - numpy_semicircle_cdf(grid))) <= 1e-15

    def test_symmetry_point(self):
        assert semicircle_cdf(0.0) == pytest.approx(0.5)

    def test_edges(self):
        assert semicircle_cdf(2.0) == 1.0
        assert semicircle_cdf(-2.0) == 0.0
        assert semicircle_cdf(5.0) == 1.0

    def test_closed_form_at_one(self):
        expected = 0.5 + np.sqrt(3) / (4 * np.pi) + 1 / 6
        assert semicircle_cdf(1.0) == pytest.approx(expected, abs=1e-14)

    def test_matches_density_quadrature(self):
        from scipy import integrate

        for x in (-1.5, -0.3, 0.8, 1.9):
            num, _ = integrate.quad(
                lambda t: np.sqrt(4 - t**2) / TWO_PI, -2.0, x, epsabs=1e-12
            )
            assert semicircle_cdf(x) == pytest.approx(num, abs=1e-10)
