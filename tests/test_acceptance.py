"""End-to-end acceptance suite.

Every criterion runs at the frozen seed 20260826 and prints a single
PASS/FAIL line (visible with ``pytest -s`` or on failure).  Tolerances
marked "frozen" were calibrated once against the fixed-seed baseline run
and are pinned here; do not loosen them to make a failing run green.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from speclab.cli import main as cli_main
from speclab.ensembles import ENSEMBLES, EnsembleTag, gue_wigner
from speclab.experiments import (
    ExperimentPlan,
    run_rate_experiment,
)
from speclab.matlin import eig_hermitian, eig_unitary_angles
from speclab.measures import EmpiricalMeasureCircle, EmpiricalMeasureLine
from speclab.rng import StreamKey
from speclab.transport import (
    assignment_oracle,
    geodesic_distance,
    line_distance,
    semicircle_cdf,
    w1_circle_pair,
    w1_circle_uniform,
    w1_line_vs_cdf,
    wp_line,
)

SEED = 20260826
TWO_PI = 2 * np.pi

# frozen: baseline max/min ratio of n^(2/3) * mean d1 was 1.994 across all
# seven circle ensembles; 2.2 leaves headroom without admitting a flat curve
RATE_RATIO_MAX = 2.2


def report(num: int, name: str, ok: bool):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {name} failed"


def test_criterion_01_transport_exactness():
    ok = True
    for n in range(1, 65):
        roots = EmpiricalMeasureCircle(TWO_PI * np.arange(n) / n)
        ok &= abs(w1_circle_uniform(roots) - np.pi / (2 * n)) <= 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = EmpiricalMeasureLine(rng.normal(size=n))
        b = EmpiricalMeasureLine(rng.normal(size=n))
        exact = assignment_oracle(a, b, line_distance, 1.0)
        ok &= abs(wp_line(a, b, 1.0) - exact) <= 1e-9
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
        b = EmpiricalMeasureCircle(rng.uniform(0, TWO_PI, n))
        exact = assignment_oracle(a, b, geodesic_distance, 1.0)
        ok &= abs(w1_circle_pair(a, b) - exact) <= 1e-9
    report(1, "transport exactness", ok)


def test_criterion_02_lipschitz_suite():
    # 1,000 instances at n <= 16, each inequality checked up to a slack of 1e-8
    code = cli_main(["verify", "--suite", "lipschitz", "--trials", "1000", "--seed", str(SEED)])
    report(2, "lipschitz suite", code == 0)


def test_criterion_03_moment_identities():
    ok = True
    for tag, n, kmax, expect in [
        ("su", 6, 5, "zero"),
        ("unitary", 8, 5, "zero"),
        ("so", 8, 6, "alternating"),
        ("so_minus", 8, 6, "alternating"),
        ("symplectic", 8, 6, "alternating"),
    ]:
        plan = ExperimentPlan(EnsembleTag(tag), (n,), 10000, SEED)
        ests = run_rate_experiment(replace(plan, moments_kmax=kmax)).moments
        if expect == "zero":
            ok &= all(e.zero_consistent for e in ests)
        else:
            # odd moments vanish, even moments stay bounded by 1 + noise
            ok &= all(e.zero_consistent for e in ests if e.k % 2 == 1)
            ok &= all(e.bounded_consistent for e in ests)
    report(3, "moment identities", ok)


def test_criterion_04_mean_measure_uniform():
    ok = True
    for tag in (EnsembleTag.UNITARY, EnsembleTag.COE):
        pooled = np.concatenate([
            eig_unitary_angles(
                ENSEMBLES[tag].sample(8, StreamKey(SEED, f"{tag.value}_pool", 8, r))
            ).atoms
            for r in range(1000)
        ])
        ks = stats.kstest(pooled / TWO_PI, "uniform").statistic
        ok &= ks <= 0.02
    report(4, "mean measure uniformity", ok)


def test_criterion_05_group_rate():
    ok = True
    tags = [EnsembleTag.UNITARY, EnsembleTag.SU, EnsembleTag.SO,
            EnsembleTag.SO_MINUS, EnsembleTag.ORTHOGONAL,
            EnsembleTag.SYMPLECTIC, EnsembleTag.COE]
    for tag in tags:
        plan = ExperimentPlan(tag, (8, 16, 32, 64, 128), 200, SEED)
        res = run_rate_experiment(plan)
        scaled = [s.x ** (2 / 3) * s.mean for s in res.summaries]
        ok &= res.fit.slope <= -0.6
        ok &= max(scaled) / min(scaled) <= RATE_RATIO_MAX
    report(5, "group mean-distance rate", ok)


def test_criterion_06_concentration_scaling():
    plan = ExperimentPlan(EnsembleTag.UNITARY, (16, 32, 64, 128, 256), 500,
                          SEED, t_grid=(0.0,))
    conc = run_rate_experiment(plan)
    report(6, "concentration std scaling", conc.std_fit.slope <= -0.8)


def test_criterion_07_coupling_identdist():
    # U(n) and SU(n) give identically distributed d1: a two-sample KS test at
    # level 0.01 accepts U(16) against SU(16) and rejects U(16) against U(32)
    reps = 1000
    critical = np.sqrt(-np.log(0.005) / 2) * np.sqrt(2 / reps)

    def d1(tag, n):
        plan = ExperimentPlan(tag, (n,), reps, SEED)
        return [rec.value for rec in run_rate_experiment(plan).records]

    unitary = d1(EnsembleTag.UNITARY, 16)
    matched = stats.ks_2samp(unitary, d1(EnsembleTag.SU, 16), method="asymp").statistic
    control = stats.ks_2samp(unitary, d1(EnsembleTag.UNITARY, 32), method="asymp").statistic
    report(7, "coupling identical distribution", matched <= critical < control)


def test_criterion_08_compression_rate():
    plan = ExperimentPlan(EnsembleTag.COMPRESSION, (16, 32, 64, 128), 200,
                          SEED, k_rule="half")
    res = run_rate_experiment(plan)
    xs = [s.x for s in res.summaries]
    report(8, "compression rate vs kn",
           res.fit.slope <= -0.25 and xs == [128.0, 512.0, 2048.0, 8192.0])


def test_criterion_09_randomized_sum_rate():
    plan = ExperimentPlan(EnsembleTag.RANDOMIZED_SUM, (16, 32, 64, 128), 200, SEED)
    res = run_rate_experiment(plan)
    violations = sum(1 for r in res.records
                     if r.statistic == "weyl_violation" and r.value > 0)
    weyl_count = sum(1 for r in res.records if r.statistic == "weyl_violation")
    report(9, "randomized-sum rate and Weyl containment",
           res.fit.slope <= -0.6 and violations == 0 and weyl_count == 4 * 200)


def test_criterion_10_determinism(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "ensemble": "unitary", "n_grid": [4, 8, 16], "replicates": 10,
        "seed": SEED, "k_rule": None, "t_grid": None, "moments_kmax": None,
    }))
    blobs = []
    for workers in ("1", "4"):
        outdir = tmp_path / f"w{workers}"
        code = cli_main(["experiment", "--plan", str(plan_path),
                         "--out", str(outdir), "--workers", workers])
        assert code == 0
        blobs.append((outdir / "records.csv").read_bytes())
    check = cli_main(["manifest-check", str(tmp_path / "w1")])
    capsys.readouterr()
    report(10, "byte-identical determinism", blobs[0] == blobs[1] and check == 0)


def test_criterion_11_semicircle_regression():
    def mean_w1(n, reps=20):
        vals = []
        for r in range(reps):
            m = eig_hermitian(gue_wigner(n, StreamKey(SEED, "gue_semi", n, r)))
            vals.append(w1_line_vs_cdf(m, semicircle_cdf, support=(-2, 2)))
        return float(np.mean(vals))

    report(11, "semicircle convergence regression", mean_w1(256) < mean_w1(64))


# P[u <= s] for u = |pi - gap| between the two angles of a two-angle spectrum:
# by Weyl's integration formula u has density proportional to cos^beta(u/2) on [0, pi]
TWO_POINT_CDF = {
    0: lambda s: s / np.pi,
    1: lambda s: np.sin(s / 2),
    2: lambda s: (s + np.sin(s)) / np.pi,
    4: lambda s: (3 * s + 4 * np.sin(s) + np.sin(2 * s) / 2) / (3 * np.pi),
}


def test_criterion_12_exact_two_point_laws():
    # frozen: the rows, their ambient n and beta, the 2,000 draws and every bound
    reps = 2000

    def spectra(tag, n):
        row = ENSEMBLES[EnsembleTag(tag)]
        return np.array([row.spectrum(n, StreamKey(SEED, f"exact_law/{tag}", n, r)).atoms
                         for r in range(reps)])

    def gap_and_d1(angles):
        # CSE's angles come in Kramers doublets: atoms 0 and 2 are the two distinct ones
        pair = angles[:, [0, 2]] if angles.shape[1] == 4 else angles
        u = np.abs(np.pi - (pair[:, 1] - pair[:, 0]))
        d1 = np.array([w1_circle_uniform(EmpiricalMeasureCircle(a)) for a in angles])
        return u, d1

    ok = True
    for tag, n, beta in [("unitary", 2, 2), ("su", 2, 2), ("symplectic", 2, 2),
                         ("coe", 2, 1), ("cse", 4, 4), ("so", 2, 0)]:
        angles = spectra(tag, n)
        u, d1 = gap_and_d1(angles)
        ok &= np.max(np.abs(d1 - (np.pi / 4 + u ** 2 / (4 * np.pi)))) <= 1e-12
        ok &= stats.kstest(u, TWO_POINT_CDF[beta]).pvalue >= 0.01
        ok &= all(stats.kstest(u, cdf).pvalue <= 1e-6
                  for other, cdf in TWO_POINT_CDF.items() if other != beta)
        if tag == "cse":
            ok &= np.max(np.abs(angles[:, [1, 3]] - angles[:, [0, 2]])) <= 1e-9

    _, d1 = gap_and_d1(spectra("so_minus", 2))
    ok &= np.max(np.abs(d1 - np.pi / 4)) <= 1e-12

    # O(2) is half SO-(2), whose d1 is pi/4 exactly, and half SO(2)
    u, d1 = gap_and_d1(spectra("orthogonal", 2))
    coset = np.abs(d1 - np.pi / 4) <= 1e-12
    ok &= stats.binomtest(int(coset.sum()), reps, 0.5).pvalue >= 0.01
    ok &= stats.kstest(u[~coset], TWO_POINT_CDF[0]).pvalue >= 0.01
    report(12, "exact two-point laws", ok)
