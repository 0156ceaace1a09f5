import json
import os
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import experiments
from speclab.ensembles import ENSEMBLES, EnsembleTag, randomized_sum, randomized_sum_factors
from speclab.errors import ContractError
from speclab.experiments import (
    ExperimentPlan,
    _d1_to_pooled,
    fit_loglog,
    run_rate_experiment,
    wilson_interval,
)
from speclab.matlin import HermitianView, UnitaryView, _weyl_violation, eig_hermitian, hold_heap
from speclab.measures import EmpiricalMeasureLine
from speclab.rng import StreamKey
from speclab.transport import wp_line

SEED = 1234
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPlan:
    def test_k_rule_half(self):
        plan = ExperimentPlan(EnsembleTag.COMPRESSION, (8, 9), 4, SEED, k_rule="half")
        assert plan.k_of(8) == 4
        assert plan.k_of(9) == 5

    def test_k_rule_fixed(self):
        plan = ExperimentPlan(EnsembleTag.COMPRESSION, (8,), 4, SEED, k_rule="fixed:3")
        assert plan.k_of(8) == 3

    def test_invalid_k_rule(self):
        with pytest.raises(ContractError, match="^/k_rule:"):
            ExperimentPlan(EnsembleTag.COMPRESSION, (8,), 4, SEED, k_rule="thirds")

    def test_null_k_rule_defaults_to_half(self):
        plan = ExperimentPlan(EnsembleTag.COMPRESSION, (8,), 4, SEED)
        assert plan.k_of(8) == 4

    def test_empty_grid_rejected(self):
        with pytest.raises(ContractError, match="^/n_grid:"):
            ExperimentPlan(EnsembleTag.UNITARY, (), 4, SEED)

    @pytest.mark.parametrize("k_max", [8, 9])
    def test_moment_order_must_stay_below_smallest_n(self, k_max):
        with pytest.raises(ContractError, match="^/moments_kmax:"):
            ExperimentPlan(EnsembleTag.UNITARY, (8, 16), 4, SEED, moments_kmax=k_max)

    def test_moments_rejected_for_line_ensembles(self):
        with pytest.raises(ContractError, match="^/moments_kmax: .*circle ensembles"):
            ExperimentPlan(EnsembleTag.GUE_WIGNER, (8, 16), 4, SEED, moments_kmax=2)

    def test_moment_order_below_smallest_n_accepted(self):
        plan = ExperimentPlan(EnsembleTag.UNITARY, (8, 16), 4, SEED, moments_kmax=7)
        assert plan.moments_kmax == 7

    @pytest.mark.parametrize("overrides,message", [
        ({"n_grid": (4.7, 8.2, 16)}, "/n_grid: expected an integer, got 4.7"),
        ({"replicates": "3"}, '/replicates: expected an integer, got "3"'),
        ({"t_grid": (float("nan"),)}, "/t_grid: expected a finite number, got NaN"),
        ({"n_grid": (8, 4)}, "/n_grid: must be nonempty and strictly ascending"),
        ({"n_grid": (0, 4)}, "/n_grid: dimensions must be positive"),
        ({"replicates": 1}, "/replicates: need at least 2, got 1"),
        ({"seed": True}, "/seed: expected an integer, got true"),
    ])
    def test_library_refuses_what_the_cli_refuses(self, overrides, message):
        # the CLI builds every plan through this constructor, so both refuse alike
        fields = {"ensemble": "unitary", "n_grid": (4, 8), "replicates": 3, "seed": SEED}
        with pytest.raises(ContractError, match="^" + re.escape(message)):
            ExperimentPlan(**(fields | overrides))

    def test_readme_and_shipped_plans_match_the_schema(self):
        # read-only: the worked example in the README and the plans the repo ships
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        block = re.search(r"Plan schema.*?```json\n(.*?)```", readme, re.S)
        ExperimentPlan.from_json(json.loads(block.group(1)))
        for path in ("plans/unitary_rate.json", "perfbench/plans/randomized_sum_rate.json"):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                raw = json.load(fh)
            assert json.loads(json.dumps(asdict(ExperimentPlan.from_json(raw)))) == raw


class TestFitLoglog:
    def test_pure_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_loglog(list(zip(xs, xs**2)))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        fit = fit_loglog([(1.0, 5.0), (2.0, 5.0), (4.0, 5.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(5.0), abs=1e-12)

    def test_noisy_rate(self):
        rng = np.random.default_rng(0)
        xs = np.array([8.0, 16, 32, 64, 128, 256])
        ys = 3.0 * xs ** (-2 / 3) * np.exp(rng.normal(0, 0.02, xs.size))
        fit = fit_loglog(list(zip(xs, ys)))
        assert -0.75 < fit.slope < -0.59

    def test_too_few_points(self):
        with pytest.raises(ContractError):
            fit_loglog([(1.0, 1.0), (2.0, 0.5)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ContractError):
            fit_loglog([(1.0, 1.0), (2.0, 0.0), (4.0, 1.0)])

    def test_identical_x_rejected(self):
        with pytest.raises(ContractError, match="distinct"):
            fit_loglog([(7.3, 1.0), (7.3, 2.0), (7.3, 3.0)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300)),
                    min_size=3, max_size=12))
    def test_matches_scipy_linregress_exactly(self, points):
        from scipy import stats

        lx = np.log([x for x, _ in points])
        ly = np.log([y for _, y in points])
        if lx.min() == lx.max():
            with pytest.raises(ContractError):
                fit_loglog(points)
            return
        ref = stats.linregress(lx, ly)
        fit = fit_loglog(points)
        got = (fit.slope, fit.intercept, fit.slope_stderr, fit.r_squared)
        want = (ref.slope, ref.intercept, ref.stderr, ref.rvalue**2)
        # exact equality; NaN (all y equal) must come out as NaN in both
        assert all(g == w or (np.isnan(g) and np.isnan(w)) for g, w in zip(got, want))
        assert fit.n_used == len(points)


class TestWilson:
    def test_half(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert high - low < 0.25

    def test_zero_successes(self):
        low, high = wilson_interval(0, 100)
        assert low <= 1e-12
        assert high < 0.05

    def test_all_successes(self):
        low, high = wilson_interval(100, 100)
        assert high == pytest.approx(1.0)
        assert low > 0.95


class TestRateExperiment:
    def test_reproducible_and_worker_independent(self):
        plan = ExperimentPlan(EnsembleTag.UNITARY, (4, 8, 16), 10, SEED)
        r1 = run_rate_experiment(plan, workers=1)
        r2 = run_rate_experiment(plan, workers=3)
        assert [rec.value for rec in r1.records] == [rec.value for rec in r2.records]
        assert r1.fit.slope == r2.fit.slope

    @pytest.mark.parametrize("ensemble", ["randomized_sum", "compression", "gue_wigner"])
    def test_line_models_worker_independent(self, ensemble):
        plan = ExperimentPlan(EnsembleTag(ensemble), (4, 6, 8), 5, SEED)
        r1 = run_rate_experiment(plan, workers=1)
        r3 = run_rate_experiment(plan, workers=3)
        assert r1.records == r3.records
        assert r1.summaries == r3.summaries

    @pytest.mark.parametrize("cpus,pool_sizes", [(3, [3]), (1, []), (None, [])])
    def test_worker_count_is_bounded_by_the_cpus(self, monkeypatch, cpus, pool_sizes):
        # the pool starts every worker up front, so --workers 100000 must not
        # reach it; a recording executor maps serially, so nothing is started.
        # The bound is the affinity set, not the machine's 64 CPUs; cpus=None
        # is a platform with no affinity call whose cpu_count() is None
        sizes = []

        class SerialExecutor:
            def __init__(self, max_workers, initializer=None):
                assert initializer is hold_heap
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        plan = ExperimentPlan(EnsembleTag.UNITARY, (4, 8), 3, SEED)
        serial = run_rate_experiment(plan, workers=1)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialExecutor)
        if cpus is None:
            monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(experiments.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
            monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        assert run_rate_experiment(plan, workers=100_000).records == serial.records
        assert sizes == pool_sizes

    def test_moments_ride_along_with_d1(self):
        plan = ExperimentPlan(EnsembleTag.SO, (6, 8), 30, SEED, moments_kmax=4)
        res = run_rate_experiment(plan, workers=2)
        assert list(res.moments) == list(run_rate_experiment(plan).moments)
        bare = run_rate_experiment(ExperimentPlan(EnsembleTag.SO, (6, 8), 30, SEED))
        assert res.records == bare.records
        assert bare.moments == ()

    def test_short_grid_skips_fit(self):
        plan = ExperimentPlan(EnsembleTag.UNITARY, (4, 8), 5, SEED)
        res = run_rate_experiment(plan)
        assert res.fit is None
        assert any("fewer than 3" in w for w in res.warnings)

    def test_record_layout(self):
        plan = ExperimentPlan(EnsembleTag.SU, (4,), 6, SEED)
        res = run_rate_experiment(plan)
        assert len(res.records) == 6
        assert {rec.statistic for rec in res.records} == {"d1"}
        assert [rec.replicate for rec in res.records] == list(range(6))
        assert all(rec.value > 0 for rec in res.records)

    def test_line_model_split_sample_is_disjoint(self):
        # measured replicates start at m, so none of the pool keys reappear
        plan = ExperimentPlan(EnsembleTag.RANDOMIZED_SUM, (8,), 5, SEED)
        res = run_rate_experiment(plan)
        d1_reps = [rec.replicate for rec in res.records if rec.statistic == "d1"]
        assert d1_reps == list(range(5, 10))

    def test_randomized_sum_reports_weyl(self):
        plan = ExperimentPlan(EnsembleTag.RANDOMIZED_SUM, (8,), 4, SEED)
        res = run_rate_experiment(plan)
        weyl = [rec for rec in res.records if rec.statistic == "weyl_violation"]
        assert len(weyl) == 4
        assert all(rec.value == 0.0 for rec in weyl)

    def test_randomized_sum_d1_is_the_sampled_sums(self):
        # a measured cell draws A, B and U once for both d1 and the Weyl
        # check; its d1 must be that of the standalone sampler's spectrum
        tag, n, m = EnsembleTag.RANDOMIZED_SUM, 8, 3
        res = run_rate_experiment(ExperimentPlan(tag, (n,), m, SEED))
        spectra = [eig_hermitian(randomized_sum(*randomized_sum_factors(
            n, StreamKey(SEED, tag.value, n, r)))) for r in range(2 * m)]
        pooled = EmpiricalMeasureLine(np.concatenate([s.atoms for s in spectra[:m]]))
        d1 = [rec.value for rec in res.records if rec.statistic == "d1"]
        assert d1 == [_d1_to_pooled(s, pooled) for s in spectra[m:]]

    def test_weyl_verdicts_match_the_exact_check(self):
        # the recorded verdict is the one the exact spectra of A and B give
        tag = EnsembleTag.RANDOMIZED_SUM
        for seed in (SEED, 4242, 20260826):
            res = run_rate_experiment(ExperimentPlan(tag, (8, 16), 30, seed))
            for rec in res.records:
                if rec.statistic != "weyl_violation":
                    continue
                a, b, u = randomized_sum_factors(rec.n, StreamKey(seed, tag.value, rec.n,
                                                                  rec.replicate))
                ea, eb = eig_hermitian(a).atoms, eig_hermitian(b).atoms
                em = eig_hermitian(randomized_sum(a, b, u)).atoms
                slack = 1e-8 * (max(abs(ea[0]), abs(ea[-1])) + max(abs(eb[0]), abs(eb[-1])))
                assert rec.value == float(_weyl_violation(ea, eb, em, slack))

    def test_line_rate_pins(self):
        # perfbench's line_rate workload pins every d1 of this plan's n = 16..128
        # at 1e-12 in perfbench/reference.json; n = 16 and 32 rebuild 400 of them
        with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)
        pinned = {(n, r): v for n, r, v in reference["line_rate"]}
        plan = ExperimentPlan(EnsembleTag.RANDOMIZED_SUM, (16, 32), 200, reference["seed"])
        records = run_rate_experiment(plan).records
        d1 = [(rec.n, rec.replicate, rec.value) for rec in records if rec.statistic == "d1"]
        assert len(d1) == 400
        assert all(abs(v - pinned[(n, r)]) <= 1e-12 for n, r, v in d1)
        assert all(rec.value == 0.0 for rec in records if rec.statistic == "weyl_violation")

    def test_compression_abscissa_is_kn(self):
        plan = ExperimentPlan(
            EnsembleTag.COMPRESSION, (8, 16, 32), 5, SEED, k_rule="half"
        )
        res = run_rate_experiment(plan)
        assert [s.x for s in res.summaries] == [32.0, 128.0, 512.0]

    def test_means_decrease_with_n(self):
        plan = ExperimentPlan(EnsembleTag.UNITARY, (4, 16, 64), 20, SEED)
        res = run_rate_experiment(plan)
        means = [s.mean for s in res.summaries]
        assert means[0] > means[1] > means[2]


# The d1 records, in record order, of every row that perfbench's pins do not
# reach: a plan at SEED on n_grid (3, 8), or (4, 8) for the half-dimension rows,
# with 3 replicates and k = n/2 for compressions.  A refactor that moves one of
# them by more than perfbench's tolerance, 1e-12, fails here.
ROW_D1 = {
    EnsembleTag.ORTHOGONAL: (1.5170870134766223, 0.5849642220258616, 0.5311733290563933,
                             0.251155196606712, 0.27618540672401637, 0.36526505702100903),
    EnsembleTag.SO: (0.5253135123873045, 0.5395850327066153, 0.6832755583037533,
                     0.3164009311545861, 0.30154911997247474, 0.2181698243891361),
    EnsembleTag.SO_MINUS: (0.6695503701948259, 0.5471822298621892, 0.5505128371607066,
                           0.23047381990724788, 0.29647231136283403, 0.4188493866113012),
    EnsembleTag.SU: (0.553565931434204, 0.7948934193621535, 0.5625027738348374,
                     0.23675615470983666, 0.26490375057656557, 0.26182438585884865),
    EnsembleTag.SYMPLECTIC: (0.6228734043750108, 0.6227436947670273, 0.602832312001919,
                             0.2012874654164507, 0.26699213228719704, 0.3117067958252015),
    EnsembleTag.COE: (0.6225546679411987, 0.6677752005615211, 0.6993563868449603,
                      0.34307009770108116, 0.3065180706518032, 0.2678542386039965),
    EnsembleTag.CSE: (0.8919856652303223, 0.8441696999503456, 0.8130139622199679,
                      0.4553478450022037, 0.4322977056311047, 0.45192080743727375),
    EnsembleTag.GUE_WIGNER: (0.44257284572566696, 0.3792501205303505, 0.6050254524880319,
                             0.20078552394848495, 0.14415922047367224, 0.21596636197600272),
    EnsembleTag.COMPRESSION: (0.47145124959804313, 0.979945352954177, 0.3551099253030563,
                              0.2940313030231109, 0.25684608142971527, 0.25362672045461704),
}


@pytest.mark.parametrize("tag", list(ROW_D1), ids=lambda t: t.value)
def test_row_d1_pins(tag):
    row = ENSEMBLES[tag]
    plan = ExperimentPlan(tag, (4, 8) if row.half_dimension else (3, 8), 3, SEED,
                          k_rule="half" if row.kn_abscissa else None)
    d1 = [rec.value for rec in run_rate_experiment(plan).records if rec.statistic == "d1"]
    assert len(d1) == len(ROW_D1[tag])
    assert np.max(np.abs(np.subtract(d1, ROW_D1[tag]))) <= 1e-12


class TestConcentration:
    def test_tails_and_fit(self):
        plan = ExperimentPlan(EnsembleTag.UNITARY, (8, 16, 32), 40, SEED,
                              t_grid=(0.0, 10.0))
        res = run_rate_experiment(plan, workers=2)
        by_key = {(t.n, t.t): t for t in res.tails}
        for n in (8, 16, 32):
            # t = 0 captures everything at or above the mean, huge t nothing
            assert 0.2 <= by_key[(n, 0.0)].p_hat <= 0.8
            assert by_key[(n, 10.0)].p_hat == 0.0
            assert by_key[(n, 0.0)].wilson_low <= by_key[(n, 0.0)].p_hat
        assert res.std_fit is not None
        assert res.std_fit.slope < -0.5

    def test_std_decreases(self):
        # the per-n stds a concentration summary reports are the rate run's
        plan = ExperimentPlan(EnsembleTag.UNITARY, (8, 64), 40, SEED, t_grid=(0.0,))
        stds = {s.n: s.std for s in run_rate_experiment(plan).summaries}
        assert stds[64] < stds[8]


class TestMoments:
    def test_su_low_moments_zero(self):
        plan = ExperimentPlan(EnsembleTag.SU, (6,), 2000, SEED)
        ests = run_rate_experiment(replace(plan, moments_kmax=3)).moments
        assert all(e.zero_consistent for e in ests)
        assert [e.k for e in ests] == [1, 2, 3]

    def test_so_alternates(self):
        plan = ExperimentPlan(EnsembleTag.SO, (8,), 2000, SEED)
        ests = run_rate_experiment(replace(plan, moments_kmax=4)).moments
        assert ests[0].zero_consistent and ests[2].zero_consistent
        assert ests[1].bounded_consistent and ests[3].bounded_consistent
        assert abs(ests[1].mean_re - 1.0) < 0.2

    @pytest.mark.parametrize("tag,n", [(t.value, 8) for t, row in ENSEMBLES.items()
                                        if row.domain == "circle"]
                             + [(t, 9) for t in ("orthogonal", "so", "so_minus")])
    def test_trace_means_are_exact(self, tag, n):
        # E tr U^k for k < n (Diaconis and Shahshahani 1994): 0 for U, SU, COE
        # and CSE; 1 at even k and 0 at odd k for O, SO and SO-; -1 at even k
        # and 0 at odd k for Sp.  A miswired sampler misses these by far more
        # than the 4 stderr allowed (U(8) read as SO(8): about 17 stderr).
        even = {"orthogonal": 1.0, "so": 1.0, "so_minus": 1.0, "symplectic": -1.0}
        ests = run_rate_experiment(ExperimentPlan(tag, (n,), 600, SEED, moments_kmax=n - 1)).moments
        assert [e.k for e in ests] == list(range(1, n))
        for e in ests:
            exact = even.get(tag, 0.0) if e.k % 2 == 0 else 0.0
            assert abs(complex(e.mean_re, e.mean_im) - exact) <= 4 * e.stderr, e

    def test_k_must_stay_below_n(self):
        plan = ExperimentPlan(EnsembleTag.UNITARY, (4,), 10, SEED)
        with pytest.raises(ContractError):
            run_rate_experiment(replace(plan, moments_kmax=4))


class TestWeylCell:
    """A measured randomized-sum cell records weyl_violation 1.0 when the sum
    escapes the Weyl interval, and 0.0 when it touches the interval's end,
    which the Ritz inner bounds cannot certify."""

    plan = ExperimentPlan(EnsembleTag.RANDOMIZED_SUM, (8,), 2, SEED)

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.dim)
            return eig_hermitian(a)

        monkeypatch.setattr(experiments, "eig_hermitian", counted)
        return calls

    def test_certified_cell_runs_one_eigensolve(self, solves):
        assert experiments._cell((self.plan, 8, 2))["weyl_violation"] == 0.0
        assert solves == [8]

    def test_escaping_spectrum_is_recorded(self, monkeypatch, solves):
        def shifted(a, b, u):
            return HermitianView(randomized_sum(a, b, u).entries + 100.0 * np.eye(a.dim))

        monkeypatch.setattr(experiments, "randomized_sum", shifted)
        assert experiments._cell((self.plan, 8, 2))["weyl_violation"] == 1.0
        assert solves == [8, 8, 8]

    def test_touching_spectrum_passes_through_the_exact_check(self, monkeypatch, solves):
        # U = I and diagonal A = B: the sum's largest eigenvalue is
        # max(A) + max(B) exactly, above the Ritz bounds' sum
        d = HermitianView(np.diag(np.arange(1.0, 9.0)))
        monkeypatch.setattr(experiments, "randomized_sum_factors",
                            lambda n, key: (d, d, UnitaryView(np.eye(8))))
        cell = experiments._cell((self.plan, 8, 2))
        assert cell["spectrum"].atoms[-1] == 16.0
        assert cell["weyl_violation"] == 0.0
        assert solves == [8, 8, 8]


def d1_by_repetition(sample, pooled):
    """The pooled d1 as first written, kept as the oracle of _d1_to_pooled:
    repeat each sample atom m times and take the sorted-coupling W1."""
    m = len(pooled) // len(sample)
    return wp_line(EmpiricalMeasureLine(np.repeat(sample.atoms, m)), pooled, 1.0)


class TestD1ToPooled:
    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 64), m=st.integers(1, 50), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_repeated_atoms_route(self, k, m, ties, seed):
        # small integers tie within and across the two measures; the normals
        # take both signs
        rng = np.random.default_rng(seed)
        draw = ((lambda size: rng.integers(-3, 4, size).astype(float)) if ties
                else (lambda size: 100.0 * rng.standard_normal(size)))
        sample, pooled = EmpiricalMeasureLine(draw(k)), EmpiricalMeasureLine(draw(k * m))
        assert _d1_to_pooled(sample, pooled) == d1_by_repetition(sample, pooled)

    @pytest.mark.parametrize("size", [7, 2])
    def test_pool_not_a_multiple_is_refused(self, size):
        sample = EmpiricalMeasureLine([0.0, 1.0, 2.0])
        pooled = EmpiricalMeasureLine(np.arange(size, dtype=float))
        with pytest.raises(ContractError, match="multiple"):
            _d1_to_pooled(sample, pooled)
