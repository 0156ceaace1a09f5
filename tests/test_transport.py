import inspect
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab.ensembles import ENSEMBLES, EnsembleTag, gue_wigner
from speclab.errors import ContractError, SizeGuardError
from speclab.matlin import eig_hermitian, hs_norm
from speclab.measures import EmpiricalMeasureCircle, EmpiricalMeasureLine
from speclab.rng import StreamKey
from speclab.transport import (
    assignment_oracle,
    chordal_distance,
    geodesic_distance,
    line_distance,
    semicircle_cdf,
    w1_circle_pair,
    w1_circle_uniform,
    w1_line_vs_cdf,
    wp_line,
)

TWO_PI = 2 * np.pi
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REFERENCE = os.path.join(os.path.dirname(SRC), "perfbench", "reference.json")
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


class TestWpLine:
    def test_identical_measures(self):
        m = EmpiricalMeasureLine([0.0, 1.0, 2.5])
        assert wp_line(m, m, 1.0) == 0.0

    def test_singletons(self):
        d = wp_line(EmpiricalMeasureLine([0.0]), EmpiricalMeasureLine([3.0]), 1.0)
        assert d == pytest.approx(3.0)

    def test_monotone_coupling_beats_swap(self):
        # both pairings enumerated by hand: monotone gives (1 + 2) / 2
        d = wp_line(EmpiricalMeasureLine([0.0, 1.0]), EmpiricalMeasureLine([1.0, 3.0]), 1.0)
        assert d == pytest.approx(1.5)

    def test_unequal_counts_rejected(self):
        with pytest.raises(ContractError):
            wp_line(EmpiricalMeasureLine([0.0]), EmpiricalMeasureLine([0.0, 1.0]), 1.0)

    @pytest.mark.parametrize("xs, ys, p", [([1e308], [-1e308], 1.0),
                                           ([1e200, 2e200], [-1e200, 0.0], 2.0)],
                             ids=["difference", "power"])
    def test_overflow_refused(self, xs, ys, p):
        with pytest.raises(ContractError, match="overflows float64"):
            wp_line(EmpiricalMeasureLine(xs), EmpiricalMeasureLine(ys), p)

    def test_finite_results_keep_their_bits(self):
        rng = np.random.default_rng(5)
        for scale in (1e-150, 1.0, 1e150):
            for p in (1.0, 1.5, 2.0):
                x, y = scale * rng.normal(size=17), scale * rng.normal(size=17)
                m1, m2 = EmpiricalMeasureLine(x), EmpiricalMeasureLine(y)
                expected = float(np.mean(np.abs(m1.atoms - m2.atoms) ** p) ** (1.0 / p))
                assert wp_line(m1, m2, p) == expected

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
        fast = wp_line(m1, m2, p)
        exact = assignment_oracle(m1, m2, line_distance, p)
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
        assert wp_line(m1, m2, 1.0) <= wp_line(m1, m2, 2.0) + 1e-12


class TestCircleUniform:
    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_roots_of_unity(self, n):
        roots = EmpiricalMeasureCircle(TWO_PI * np.arange(n) / n)
        assert w1_circle_uniform(roots) == pytest.approx(np.pi / (2 * n), abs=1e-12)

    def test_single_atom_anywhere(self):
        for theta in (0.0, 1.0, np.pi, 5.5):
            m = EmpiricalMeasureCircle([theta])
            assert w1_circle_uniform(m) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(1)
        atoms = rng.uniform(0, TWO_PI, 7)
        base = w1_circle_uniform(EmpiricalMeasureCircle(atoms))
        for phi in rng.uniform(0, TWO_PI, 10):
            rotated = EmpiricalMeasureCircle(np.mod(atoms + phi, TWO_PI))
            assert w1_circle_uniform(rotated) == pytest.approx(base, abs=1e-12)

    def test_discretized_uniform_oracle(self):
        # roots of unity against a fine uniform proxy must approach pi/(2n)
        n = 4
        roots = EmpiricalMeasureCircle(TWO_PI * np.arange(n) / n)
        proxy = EmpiricalMeasureCircle(TWO_PI * (np.arange(1000) + 0.5) / 1000)
        approx = w1_circle_pair(roots, proxy)
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

    # the matrix product rounds, so a cumulative mass within eps below half reaches it
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


def cdf_w1_circle_uniform(atoms):
    """W1 to the uniform circle law in its CDF form, kept as the oracle of
    the quantile form: min over c of the integral of |G(t) - c|, where
    G(t) = F(t) - t/(2*pi) falls at slope -1/(2*pi) between atoms, so the
    optimal c is a median of G's values weighted by arc length."""
    n = atoms.size
    lefts = np.concatenate([[0.0], atoms])
    rights = np.concatenate([atoms, [TWO_PI]])
    levels = np.arange(n + 1) / n
    keep = rights > lefts
    lefts, rights, levels = lefts[keep], rights[keep], levels[keep]
    # on each segment G is uniform on [his, los] with mass its length
    los, his = levels - rights / TWO_PI, levels - lefts / TWO_PI
    c = quadratic_value_median(los, his, rights - lefts)

    def h(x):
        return x * np.abs(x) / 2.0

    # |dG/dt| = 1/(2*pi), so dt = 2*pi dv on each segment
    return float(np.sum(TWO_PI * (h(his - c) - h(los - c))))


class TestCircleUniformSweep:
    """The quantile form, whose median is one sorted sweep over the interval
    ends, against the CDF form with the quadratic median."""

    @given(
        n=st.integers(1, 2000),
        kind=st.sampled_from(["uniform", "tied", "zero", "roots"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2000, kind="uniform", seed=0)
    @example(n=2000, kind="tied", seed=1)
    @example(n=2000, kind="roots", seed=0)
    @example(n=295, kind="zero", seed=0)
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
        assert w1_circle_uniform(m) == pytest.approx(cdf_w1_circle_uniform(m.atoms), abs=1e-12)

    @pytest.mark.parametrize("n", [8, 128])
    def test_circle_rate_pins(self, n):
        # perfbench's circle_rate workload pins every d1 of plans/unitary_rate.json
        # at 1e-12 in perfbench/reference.json; these cells rebuild the first five
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
        pinned = {(pn, r): v for pn, r, v in reference["circle_rate"]}
        row = ENSEMBLES[EnsembleTag.UNITARY]
        for r in range(5):
            spectrum = row.spectrum(n, StreamKey(reference["seed"], "unitary", n, r))
            assert abs(w1_circle_uniform(spectrum) - pinned[(n, r)]) <= 1e-12

    def test_hundred_thousand_atoms(self):
        n = 100_000
        atoms = TWO_PI * (np.arange(n) + 0.5) / n
        # equally spaced atoms, offset by half a spacing: W1 = pi / (2n)
        assert w1_circle_uniform(EmpiricalMeasureCircle(atoms)) == pytest.approx(
            np.pi / (2 * n), abs=1e-12
        )
        rng = np.random.default_rng(9)
        value = w1_circle_uniform(EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n)))
        assert 0.0 < value < 0.05


class TestCirclePair:
    def test_identical(self):
        m = EmpiricalMeasureCircle([0.5, 4.0])
        assert w1_circle_pair(m, m) == 0.0

    def test_half_length_reached_exactly_at_a_step(self):
        # F1 - F2 is 1/2 on [0, pi/2) and [pi, 3pi/2), 0 elsewhere: the cumulative
        # length reaches half exactly between the two values, and every c in
        # [0, 1/2] is a median
        m1 = EmpiricalMeasureCircle([0.0, np.pi])
        m2 = EmpiricalMeasureCircle([np.pi / 2, 3 * np.pi / 2])
        d = w1_circle_pair(m1, m2)
        assert d == pytest.approx(np.pi / 2, abs=1e-12)
        assert d == pytest.approx(assignment_oracle(m1, m2, geodesic_distance, 1.0), abs=1e-12)

    def test_antipodal_singletons(self):
        d = w1_circle_pair(EmpiricalMeasureCircle([0.0]), EmpiricalMeasureCircle([np.pi]))
        assert d == pytest.approx(np.pi, abs=1e-12)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m1 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            m2 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            fast = w1_circle_pair(m1, m2)
            exact = assignment_oracle(m1, m2, geodesic_distance, 1.0)
            assert fast == pytest.approx(exact, abs=1e-9)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            ms = [EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n)) for _ in range(3)]
            dab = w1_circle_pair(ms[0], ms[1])
            dba = w1_circle_pair(ms[1], ms[0])
            dbc = w1_circle_pair(ms[1], ms[2])
            dac = w1_circle_pair(ms[0], ms[2])
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dac <= dab + dbc + 1e-9

    def test_line_metric_axioms(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            ms = [EmpiricalMeasureLine(rng.normal(size=n)) for _ in range(3)]
            dab = wp_line(ms[0], ms[1], 1.0)
            dba = wp_line(ms[1], ms[0], 1.0)
            dbc = wp_line(ms[1], ms[2], 1.0)
            dac = wp_line(ms[0], ms[2], 1.0)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dac <= dab + dbc + 1e-9


ANGLES = st.floats(0.0, TWO_PI, exclude_max=True)
REALS = st.floats(-50, 50)


class TestFloatRoutes:
    @given(
        n=st.integers(1, 12),
        data=st.data(),
        p=st.floats(1.0, 2.0),
        ground=st.sampled_from([line_distance, geodesic_distance, chordal_distance]),
    )
    @settings(max_examples=100, deadline=None)
    def test_finite_non_negative_float(self, n, data, p, ground):
        # every route sums non-negative terms; a negative or non-float
        # distance would reach records.csv and the distance JSON as is
        def measures(kind, elements):
            return [kind(data.draw(st.lists(elements, min_size=n, max_size=n)))
                    for _ in range(2)]

        c1, c2 = measures(EmpiricalMeasureCircle, ANGLES)
        l1, l2 = measures(EmpiricalMeasureLine, REALS)
        o1, o2 = (l1, l2) if ground is line_distance else (c1, c2)
        values = [
            wp_line(l1, l2, p),
            w1_circle_uniform(c1),
            w1_circle_pair(c1, c2),
            w1_line_vs_cdf(l1, semicircle_cdf, support=(-2, 2)),
            assignment_oracle(o1, o2, ground, p),
        ]
        for value in values:
            assert type(value) is float
            assert np.isfinite(value) and value >= 0.0


class TestHoffmanWielandtChain:
    def test_chain_on_random_hermitian_pairs(self):
        rng = np.random.default_rng(6)
        for t in range(1000):
            n = int(rng.integers(2, 17))
            a = gue_wigner(n, StreamKey(77, "hw_a", n, t))
            b = gue_wigner(n, StreamKey(77, "hw_b", n, t))
            ma = eig_hermitian(a)
            mb = eig_hermitian(b)
            d1 = wp_line(ma, mb, 1.0)
            d2 = wp_line(ma, mb, 2.0)
            bound = hs_norm(a.entries - b.entries) / np.sqrt(n)
            assert d1 <= d2 + 1e-10
            assert d2 <= bound + 1e-10


class TestAssignmentOracle:
    def test_self_distance_zero(self):
        m = EmpiricalMeasureCircle([0.1, 1.0, 2.0])
        assert assignment_oracle(m, m, geodesic_distance, 1.0) == 0.0

    def test_size_guard(self):
        m = EmpiricalMeasureLine(np.arange(13.0))
        with pytest.raises(SizeGuardError):
            assignment_oracle(m, m, line_distance, 1.0)

    def test_chordal_geodesic_sandwich(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m1 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            m2 = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
            chord = assignment_oracle(m1, m2, chordal_distance, 1.0)
            geo = assignment_oracle(m1, m2, geodesic_distance, 1.0)
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
            vals.append(w1_line_vs_cdf(m, semicircle_cdf, support=(-2, 2)))
        assert vals[1] < vals[0]

    def test_delta_at_zero_vs_semicircle(self):
        m = EmpiricalMeasureLine([0.0])
        d = w1_line_vs_cdf(m, semicircle_cdf, support=(-2, 2))
        assert d == pytest.approx(8 / (3 * np.pi), abs=1e-8)

    def test_sign_flip_invariance(self):
        a = 0.7
        d1 = w1_line_vs_cdf(EmpiricalMeasureLine([-a, a]), semicircle_cdf, support=(-2, 2))
        d2 = w1_line_vs_cdf(EmpiricalMeasureLine([a, -a]), semicircle_cdf, support=(-2, 2))
        assert d1 == pytest.approx(d2, abs=1e-12)

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
        assert abs(d - 0.005361721964526397) <= 1e-12

    @pytest.mark.parametrize("support", [(-np.inf, 2.0), (-2.0, np.inf), (-np.inf, np.inf),
                                         (2.0, -2.0), (1.0, 1.0), (np.nan, 2.0)])
    def test_support_must_be_a_finite_interval(self, support):
        # an infinite end would need QUADPACK's qagie, which this route never loads
        with pytest.raises(ContractError):
            w1_line_vs_cdf(EmpiricalMeasureLine([0.0]), semicircle_cdf, support)

    @given(
        atoms=st.lists(st.one_of(st.floats(-3.0, 3.0),
                                 st.sampled_from([-2.5, -2.0, -0.5, 0.0, 1.0, 2.0, 2.5])),
                       min_size=1, max_size=40),
        support=st.sampled_from([(-2, 2), (-2.0, 2.0), (-3.0, 2.5)]),
    )
    @example(atoms=[0.0], support=(-2, 2))
    @example(atoms=[1.0, 1.0, 1.0], support=(-2, 2))
    @example(atoms=[-2.5, 2.5, 2.5], support=(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_quad(self, atoms, support):
        m = EmpiricalMeasureLine(atoms)
        assert w1_line_vs_cdf(m, semicircle_cdf, support) == \
            quad_w1_line_vs_cdf(m, semicircle_cdf, support)

    def test_bit_identical_when_scipy_integrate_is_imported_after(self):
        # pytest imports scipy.integrate before the first distance (scipy.stats
        # pulls it in); a fresh interpreter that computes a distance first must
        # still get quad's floats, and quad itself must still work afterwards
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from speclab.measures import EmpiricalMeasureLine
            from speclab.transport import semicircle_cdf, w1_line_vs_cdf
            atoms = np.random.default_rng(5).normal(0.0, 1.2, 300)
            atoms[:20] = atoms[20:40]  # ties
            m = EmpiricalMeasureLine(atoms)
            first = w1_line_vs_cdf(m, semicircle_cdf, (-2, 2))
            assert "scipy.integrate" not in sys.modules
            from scipy import integrate
        """) + textwrap.dedent(inspect.getsource(quad_w1_line_vs_cdf)) + textwrap.dedent("""
            reference = quad_w1_line_vs_cdf(m, semicircle_cdf, (-2, 2))
            again = w1_line_vs_cdf(m, semicircle_cdf, (-2, 2))
            print(repr(first), repr(reference), repr(again))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=120, env=SUBPROCESS_ENV)
        assert proc.returncode == 0, proc.stderr
        first, reference, again = proc.stdout.split()
        assert first == reference == again

    def test_quadpack_failure_warns(self):
        # sin(1/x) oscillates without end near 0: qagse spends its 200
        # subintervals and returns ier = 1, and quad warns with the same float
        def wild(x):
            return 0.5 + 0.5 * math.sin(1.0 / x) if x else 0.5

        m = EmpiricalMeasureLine([0.5])
        with pytest.warns(UserWarning, match="ier = 1"):
            value = w1_line_vs_cdf(m, wild, (-1.0, 1.0))
        with pytest.warns(UserWarning):
            assert value == quad_w1_line_vs_cdf(m, wild, (-1.0, 1.0))


def quad_w1_line_vs_cdf(m, ref_cdf, support):
    """w1_line_vs_cdf written on scipy.integrate.quad, kept as its
    bit-identity oracle."""
    from scipy import integrate

    atoms = m.atoms
    n = atoms.size
    lo, hi = support
    lo = min(lo, atoms[0])
    hi = max(hi, atoms[-1])
    total = 0.0
    if lo < atoms[0]:
        total += integrate.quad(ref_cdf, lo, atoms[0], limit=200, epsabs=1e-10)[0]
    for k in range(1, n):
        a, b = atoms[k - 1], atoms[k]
        if b > a:
            level = k / n
            total += integrate.quad(lambda x: abs(level - ref_cdf(x)), a, b,
                                    limit=200, epsabs=1e-10)[0]
    if hi > atoms[-1]:
        total += integrate.quad(lambda x: abs(1.0 - ref_cdf(x)), atoms[-1], hi,
                                limit=200, epsabs=1e-10)[0]
    return float(total)


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
