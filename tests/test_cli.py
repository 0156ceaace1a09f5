import ast
import csv
import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import cli, ensembles, experiments, matlin
from speclab.cli import main
from speclab.ensembles import ENSEMBLES, EnsembleTag
from speclab.errors import NumericalFailureError
from speclab.experiments import ExperimentPlan, run_rate_experiment
from speclab.measures import EmpiricalMeasureCircle
from speclab.transport import w1_circle_uniform

TWO_PI = 2 * np.pi


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_roots_csv(path, n):
    angles = TWO_PI * np.arange(n) / n
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate," + ",".join(f"angle_{i}" for i in range(n)) + "\n")
        fh.write("0," + ",".join(f"{a:.17g}" for a in angles) + "\n")


class TestSample:
    def test_deterministic_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(capsys, "sample", "--ensemble", "unitary",
                                 "--n", "5", "--count", "3", "--seed", "42",
                                 "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["ensemble"] == "unitary"
        assert manifest["record_count"] == 3

    def test_half_dimension_ensembles_double(self, tmp_path, capsys):
        out = tmp_path / "cse.csv"
        code, _, _ = run_cli(capsys, "sample", "--ensemble", "cse", "--n", "3",
                             "--seed", "1", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["replicate"] + [f"angle_{i}" for i in range(6)]

    def test_gue_uses_eigenvalue_columns(self, tmp_path, capsys):
        out = tmp_path / "gue.csv"
        code, _, _ = run_cli(capsys, "sample", "--ensemble", "gue_wigner",
                             "--n", "4", "--seed", "1", "--out", str(out))
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[1] == "eigenvalue_0"

    def test_invalid_ensemble_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--ensemble", "nonsense", "--n", "4",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        # stands in for --n 1000000; a real request that large could succeed
        # under overcommit and then fill the machine's memory
        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        # the table finds its sampler by name at call time, so this patch reaches it
        monkeypatch.setattr(ensembles, "haar_unitary", too_large)
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(capsys, "sample", "--ensemble", "unitary",
                                    "--n", "4", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n", "--count"])
    def test_nonpositive_size_exits_2(self, tmp_path, capsys, flag):
        argv = {"--n": "4", "--count": "2"}
        argv[flag] = "0"
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sample", "--ensemble", "unitary",
                               "--n", argv["--n"], "--count", argv["--count"],
                               "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err
        assert not out.exists()


class TestDistance:
    def test_roots_vs_uniform(self, tmp_path, capsys):
        path = tmp_path / "roots.csv"
        write_roots_csv(path, 8)
        code, out, _ = run_cli(capsys, "distance", "--input", str(path),
                               "--reference", "uniform-circle")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(np.pi / 16, abs=1e-12)
        assert payload["metric"] == "circle_geodesic"

    def test_delta_vs_semicircle(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("replicate,eigenvalue_0\n0,0.0\n")
        code, out, _ = run_cli(capsys, "distance", "--input", str(path),
                               "--reference", "semicircle")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(8 / (3 * np.pi), abs=1e-8)

    def test_subnormal_gap_vs_semicircle_prints_no_warning(self, tmp_path):
        # qagse stops with ier = 3 on a segment of subnormal width; that segment
        # adds nothing measurable, so it takes the midpoint rule and no warning
        path = tmp_path / "subnormal.csv"
        write_line_csv(path, [0.0] * 6 + [2.8005435758968716e-307])
        proc = subprocess.run([sys.executable, "-c", LAUNCH, "distance", "--input", str(path),
                               "--reference", "semicircle"],
                              env=launch_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "warning:" not in proc.stderr
        assert json.loads(proc.stdout)["value"] == pytest.approx(0.8488263631501238, abs=1e-12)

    def test_pair_of_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_roots_csv(a, 4)
        write_roots_csv(b, 4)
        code, out, _ = run_cli(capsys, "distance", "--input", str(a),
                               "--reference", str(b))
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_malformed_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("replicate,angle_0\n0,notanumber\n")
        code, _, err = run_cli(capsys, "distance", "--input", str(bad),
                               "--reference", "uniform-circle")
        assert code == 1
        assert "bad.csv:2" in err

    def test_domain_mismatch_exits_1(self, tmp_path, capsys):
        path = tmp_path / "roots.csv"
        write_roots_csv(path, 4)
        code, _, err = run_cli(capsys, "distance", "--input", str(path),
                               "--reference", "semicircle")
        assert code == 1
        assert err


def write_line_csv(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate," + ",".join(f"eigenvalue_{i}" for i in range(len(values))) + "\n")
        fh.write("0," + ",".join(f"{v:.17g}" for v in values) + "\n")


def write_angle_csv(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate," + ",".join(f"angle_{i}" for i in range(len(values))) + "\n")
        fh.write("0," + ",".join(f"{v:.17g}" for v in values) + "\n")


CIRCLE = {"metric": "circle_geodesic", "algorithm": "circle_cdf", "p": 1.0}
LINE = {"metric": "line_euclidean"}


class TestDistanceGolden:
    """The full JSON line of each route, pinned at the values the command
    printed when transport routines still returned result objects.  The
    uniform-circle value moved one ulp when that route took its quantile
    form."""

    @pytest.mark.parametrize("reference,flags,expected", [
        ("uniform-circle", [], dict(CIRCLE, value=0.5276841812550044,
                                    chordal_lower=0.33593418335253444,
                                    chordal_upper=0.5276841812550044)),
        ("semicircle", [], dict(LINE, algorithm="cdf_integral", p=1.0,
                                value=0.30775158092639027)),
        ("circle-pair", [], dict(CIRCLE, value=0.7, chordal_lower=0.44563384065730693,
                                 chordal_upper=0.7)),
        ("line-pair", ["--p", "1"], dict(LINE, algorithm="sorted_pairing", p=1.0,
                                         value=0.4375)),
        ("line-pair", ["--p", "1.5"], dict(LINE, algorithm="sorted_pairing", p=1.5,
                                           value=0.4612582270977338)),
    ], ids=["uniform-circle", "semicircle", "circle-pair", "line-pair-p1", "line-pair-p1.5"])
    def test_route(self, tmp_path, capsys, reference, flags, expected):
        write_angle_csv(tmp_path / "ca.csv", [0.3, 2.0, 4.5, 5.9])
        write_angle_csv(tmp_path / "cb.csv", [1.0, 1.5, 3.0, 6.0])
        write_line_csv(tmp_path / "la.csv", [-1.5, -0.25, 0.5, 1.75])
        write_line_csv(tmp_path / "lb.csv", [-1.0, 0.0, 0.75, 2.5])
        inputs = {"uniform-circle": ("ca.csv", reference), "semicircle": ("la.csv", reference),
                  "circle-pair": ("ca.csv", str(tmp_path / "cb.csv")),
                  "line-pair": ("la.csv", str(tmp_path / "lb.csv"))}
        source, ref = inputs[reference]
        code, out, err = run_cli(capsys, "distance", "--input", str(tmp_path / source),
                                 "--reference", ref, *flags)
        assert (code, err) == (0, "")
        assert json.loads(out) == expected


class TestDistanceFlags:
    @pytest.mark.parametrize("domain,reference,flags", [
        ("circle", "uniform-circle", ["--p", "2"]),
        ("line", "semicircle", ["--p", "2"]),
        ("circle", "pair", ["--p", "2"]),
    ])
    def test_ignored_flag_exits_2(self, tmp_path, capsys, domain, reference, flags):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            if domain == "circle":
                write_roots_csv(path, 4)
            else:
                write_line_csv(path, [-1.0, 0.5, 2.0])
        ref = str(b) if reference == "pair" else reference
        code, out, err = run_cli(capsys, "distance", "--input", str(a),
                                 "--reference", ref, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert flags[0] in err and "Traceback" not in err

    def test_defaults_and_honored_flags_still_run(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_line_csv(a, [0.0, 1.0])
        write_line_csv(b, [1.0, 2.0])
        code, out, _ = run_cli(capsys, "distance", "--input", str(a), "--reference", str(b),
                               "--p", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0)
        assert json.loads(out)["p"] == 2.0
        code, out, _ = run_cli(capsys, "distance", "--input", str(a), "--reference", "semicircle")
        assert code == 0

    @pytest.mark.parametrize("value", ["3", "0.5", "nan", "inf"])
    @pytest.mark.parametrize("missing_input", [False, True])
    def test_p_out_of_range_exits_2_before_reading(self, tmp_path, capsys, value,
                                                   missing_input):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_line_csv(b, [0.0, 1.0])
        if not missing_input:
            write_line_csv(a, [0.5, 1.5])
        code, out, err = run_cli(capsys, "distance", "--input", str(a),
                                 "--reference", str(b), "--p", value)
        assert (code, out) == (2, "")
        assert err.startswith("error: --p must lie in [1, 2]") and len(err.splitlines()) == 1


class TestDistanceDivisibleCounts:
    @pytest.mark.parametrize("p, expected", [("1", 0.75), ("2", 0.8660254037844386)])
    def test_pooled_reference_with_twice_the_atoms(self, tmp_path, capsys, p, expected):
        # each atom of a meets one replicate of b: 0.5 meets {0, 1}, 1.5 meets {2, 3}
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_line_csv(a, [0.5, 1.5])
        b.write_text("replicate,eigenvalue_0,eigenvalue_1\n0,0,1\n1,2,3\n")
        code, out, err = run_cli(capsys, "distance", "--input", str(a),
                                 "--reference", str(b), "--p", p)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == expected

    def test_counts_that_do_not_divide_exit_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_line_csv(a, [0.5, 1.5])
        write_line_csv(b, [0.0, 1.0, 2.0])
        code, out, err = run_cli(capsys, "distance", "--input", str(a), "--reference", str(b))
        assert (code, out) == (1, "")
        assert err == "error: atom counts 2 and 3: neither is a multiple of the other\n"


class TestDistanceOverflow:
    @pytest.mark.parametrize("xs, ys, flags", [([1e308], [-1e308], [])], ids=["difference"])
    def test_overflowing_pair_exits_1(self, tmp_path, capsys, xs, ys, flags):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_line_csv(a, xs)
        write_line_csv(b, ys)
        code, out, err = run_cli(capsys, "distance", "--input", str(a),
                                 "--reference", str(b), *flags)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_overflowing_power_prints_its_value(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_line_csv(a, [1e200, 2e200])
        write_line_csv(b, [-1e200, 0.0])
        code, out, err = run_cli(capsys, "distance", "--input", str(a),
                                 "--reference", str(b), "--p", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == 2e200

    def test_warning_prints_as_one_line(self, tmp_path):
        # a subprocess: in-process, this suite's filterwarnings = error raises the warning
        path = tmp_path / "wide.csv"
        path.write_text("replicate,eigenvalue_0\n0,1e308\n1,-1e308\n")
        proc = subprocess.run([sys.executable, "-c", LAUNCH, "distance", "--input", str(path),
                               "--reference", "semicircle"],
                              env=launch_env(), capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            "warning: QUADPACK qagse stopped with ier = 2 on [-1e+308, 1e+308]; "
            "the integral may miss its tolerance",
            "error: reference CDF is not integrable against the measure",
        ]


def write_plan(path, **overrides):
    plan = {
        "ensemble": "unitary",
        "n_grid": [4, 8, 16],
        "replicates": 8,
        "seed": 7,
        "k_rule": None,
        "t_grid": None,
        "moments_kmax": None,
    }
    plan.update(overrides)
    path.write_text(json.dumps(plan))
    return path


class TestExperiment:
    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        blobs = []
        for workers in ("1", "3"):
            outdir = tmp_path / f"w{workers}"
            code, _, _ = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(outdir), "--workers", workers)
            assert code == 0
            blobs.append((outdir / "records.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_cell_names_its_key(self, tmp_path, capsys, monkeypatch, workers):
        # pool workers are forked after the patch, so it reaches them too
        draw = ensembles.haar_unitary

        def singular_at_8_2(n, key):
            if (key.n, key.replicate) == (8, 2):
                raise NumericalFailureError("Cayley transform is singular at every fixed shift")
            return draw(n, key)

        monkeypatch.setattr(ensembles, "haar_unitary", singular_at_8_2)
        plan = write_plan(tmp_path / "plan.json")
        message = "unitary n=8 replicate=2: Cayley transform is singular at every fixed shift"
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(tmp_path / "run"), "--workers", str(workers))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        with pytest.raises(NumericalFailureError) as exc:
            run_rate_experiment(cli.load_plan(str(plan)), workers=workers)
        assert str(exc.value) == message

    @pytest.mark.skipif(experiments.usable_cpus() < 2
                        or multiprocessing.get_start_method() != "fork",
                        reason="needs 2 usable CPUs and forked workers, which inherit the patch")
    @pytest.mark.parametrize("failure,message", [
        ("dies", "a worker process ended abruptly (killed, or out of memory)"),
        ("raises", "unitary n=8 replicate=3: Cayley transform is singular at every fixed shift"),
    ], ids=["dies", "raises"])
    def test_failed_worker_ends_in_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                  failure, message):
        plan, outdir = write_plan(tmp_path / "plan.json"), tmp_path / "run"
        argv = ["experiment", "--plan", str(plan), "--out", str(outdir), "--workers", "2"]
        assert run_cli(capsys, *argv)[0] == 0  # an earlier run's manifest to remove
        draw = ensembles.haar_unitary

        def fail_at_8_3(n, key):
            if (key.n, key.replicate) == (8, 3):
                if failure == "dies":
                    os._exit(3)
                raise NumericalFailureError("Cayley transform is singular at every fixed shift")
            return draw(n, key)

        monkeypatch.setattr(ensembles, "haar_unitary", fail_at_8_3)
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
        assert not (outdir / "manifest.json").exists()
        assert multiprocessing.active_children() == []

    def test_manifest_check_roundtrip(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        assert run_cli(capsys, "experiment", "--plan", str(plan),
                       "--out", str(outdir))[0] == 0
        assert run_cli(capsys, "manifest-check", str(outdir))[0] == 0
        # tamper with one byte and the check must fail
        records = outdir / "records.csv"
        records.write_bytes(records.read_bytes().replace(b"0", b"1", 1))
        code, _, err = run_cli(capsys, "manifest-check", str(outdir))
        assert code == 1
        assert "mismatch" in err.lower() or "mismatch" in err

    def test_manifest_check_covers_summary(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        assert run_cli(capsys, "experiment", "--plan", str(plan),
                       "--out", str(outdir))[0] == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["summary_sha256"]) == 64
        summary = outdir / "summary.json"
        summary.write_text(summary.read_text().replace("7", "8", 1))
        code, out, err = run_cli(capsys, "manifest-check", str(outdir))
        assert code == 1
        assert "summary.json" in err and "OK" not in out

    @pytest.mark.parametrize("overrides,threshold", [
        ({"ensemble": "compression"}, "-0.25"),
        ({"ensemble": "unitary"}, "-0.6"),
        # slope -0.4707: PASS against -0.25, FAIL against -0.6
        ({"ensemble": "compression", "n_grid": [8, 16, 32], "replicates": 30, "seed": 3,
          "k_rule": "half"}, "-0.25"),
    ], ids=["compression--0.25", "unitary--0.6", "compression-half--0.25"])
    def test_verdict_uses_the_ensemble_threshold(self, tmp_path, capsys, overrides, threshold):
        plan = write_plan(tmp_path / "plan.json", **overrides)
        outdir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))
        assert code == 0
        rate = json.loads((outdir / "summary.json").read_text())["rate"]
        verdict = "PASS" if rate["fit"]["slope"] <= float(threshold) else "FAIL"
        assert out.splitlines()[-1].endswith(f"[{verdict} slope <= {threshold}]")
        # summary.json states the same verdict, under a key naming the same threshold
        assert [k for k in rate if k.startswith("slope_flag")] == [f"slope_flag_leq_{threshold}"]
        assert rate[f"slope_flag_leq_{threshold}"] is (verdict == "PASS")

    @pytest.mark.parametrize("t_grid", [None, [0.0, 0.05]])
    def test_moments_reuse_the_rate_samples(self, tmp_path, capsys, monkeypatch, t_grid):
        # one draw per (n, replicate) cell serves d1, the tails and the moments
        calls = []
        sample = ensembles.haar_unitary

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(ensembles, "haar_unitary", counted)
        plan = write_plan(tmp_path / "plan.json", n_grid=[4, 6, 8], replicates=5,
                          moments_kmax=3, t_grid=t_grid)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(outdir), "--workers", "1")
        assert code == 0, err
        assert len(calls) == 3 * 5
        monkeypatch.undo()
        moments = json.loads((outdir / "summary.json").read_text())["moments"]
        expected = run_rate_experiment(
            ExperimentPlan(EnsembleTag.UNITARY, (4, 6, 8), 5, 7, moments_kmax=3)).moments
        assert moments == [vars(e) for e in expected]

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        # flag > plan file; the environment sets no seed
        plan = write_plan(tmp_path / "plan.json", seed=7)
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(tmp_path / "p"))
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(tmp_path / "f"),
                "--seed", "99")
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(tmp_path / "s"),
                "--seed", "7")
        monkeypatch.setenv("SPECLAB_SEED", "99")
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(tmp_path / "e"))
        plan_bytes = (tmp_path / "p" / "records.csv").read_bytes()
        assert (tmp_path / "f" / "records.csv").read_bytes() != plan_bytes
        assert (tmp_path / "s" / "records.csv").read_bytes() == plan_bytes
        assert (tmp_path / "e" / "records.csv").read_bytes() == plan_bytes

    def test_invalid_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps({"ensemble": "unitary"}))
        code, _, err = run_cli(capsys, "experiment", "--plan", str(bad),
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert err

    @pytest.mark.parametrize("key,value", [
        ("replicates", "ten"), ("replicates", float("inf")), ("n_grid", [4, "eight"]),
        ("seed", "x"), ("ensemble", "nonsense"), ("t_grid", 0.5), ("moments_kmax", "two"),
        # NaN and infinities are not JSON, and a boolean is not a deviation
        ("t_grid", [float("nan"), True]), ("t_grid", [float("inf")]),
        ("t_grid", [float("-inf")]), ("t_grid", [0.01, True]), ("t_grid", ["nan"]),
        ("k_rule", float("nan")), ("seed", float("-inf")), ("moments_kmax", float("nan")),
        # a number written as a JSON string is not a number, and a rule is a string
        ("n_grid", ["4", "8", "16"]), ("replicates", "8"), ("seed", "7"), ("t_grid", ["0.05"]),
        ("k_rule", 3), ("k_rule", True), ("k_rule", ["half"]),
        ("moments_kmax", -1), ("moments_kmax", 0), ("t_grid", [10**400]),
    ])
    def test_plan_error_names_its_key(self, tmp_path, capsys, key, value):
        plan = write_plan(tmp_path / "plan.json", **{key: value})
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith(f"error: invalid plan: /{key}:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("key,value", [
        ("n_grid", [True, 4.5, 8.9]), ("n_grid", [4, 8.5, 16]), ("replicates", 2.7),
        ("replicates", True), ("seed", 1.9), ("seed", False), ("moments_kmax", 1.5),
    ])
    def test_truncated_plan_number_exits_2(self, tmp_path, capsys, key, value):
        plan = write_plan(tmp_path / "plan.json", **{key: value})
        outdir = tmp_path / "out"
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(outdir))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: invalid plan: /{key}: expected an integer, got ")
        assert len(err.splitlines()) == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("ensemble,k_max,message", [
        ("unitary", 4, "moments_kmax=4"), ("gue_wigner", 2, "circle ensembles"),
    ])
    def test_bad_moments_plan_exits_2_before_sampling(self, tmp_path, capsys,
                                                      ensemble, k_max, message):
        plan = write_plan(tmp_path / "plan.json", ensemble=ensemble, n_grid=[4, 6, 8],
                          moments_kmax=k_max)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(outdir))
        assert code == 2
        assert message in err
        assert not outdir.exists()

    @pytest.mark.parametrize("overrides,message", [
        ({"ensemble": "symplectic", "n_grid": [4, 6, 7]}, "/n_grid: symplectic requires even"),
        ({"ensemble": "cse", "n_grid": [4, 6, 7]}, "/n_grid: cse requires even"),
        ({"ensemble": "compression", "n_grid": [8, 12, 16], "k_rule": "fixed:12"},
         "/k_rule: k must be in 1..8"),
        ({"ensemble": "compression", "k_rule": "fixed:0"}, "/k_rule: k must be in 1..4"),
        ({"ensemble": "compression", "k_rule": "fixed:\u00b2"}, "/k_rule: unknown rule"),
        ({"ensemble": "unitary", "k_rule": "fixed:3"},
         "/k_rule: applies to compression plans only"),
        # numpy refuses an array this large before allocating it, with a traceback
        ({"ensemble": "unitary", "n_grid": [3037000500]}, "/n_grid: dimensions must be at most"),
        ({"ensemble": "compression", "n_grid": [3037000500]},
         "/n_grid: dimensions must be at most"),
    ])
    def test_plan_the_sampler_rejects_exits_2_before_sampling(self, tmp_path, capsys,
                                                              overrides, message):
        plan = write_plan(tmp_path / "plan.json", **overrides)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(outdir))
        assert code == 2
        assert err.startswith(f"error: invalid plan: {message}")
        assert not outdir.exists()

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        # stands in for a plan whose n_grid is too large for memory
        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(ensembles, "haar_unitary", too_large)
        plan = write_plan(tmp_path / "plan.json")
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(tmp_path / "run"))
        assert (code, out) == (1, "")
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"

    def test_failed_rerun_leaves_no_manifest_to_vouch_for_old_files(self, tmp_path, capsys,
                                                                    monkeypatch):
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        assert run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))[0] == 0
        assert run_cli(capsys, "manifest-check", str(outdir))[0] == 0

        def too_large(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(ensembles, "haar_unitary", too_large)
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir),
                               "--seed", "5")
        assert code == 1 and err.startswith("error: out of memory")
        code, out, err = run_cli(capsys, "manifest-check", str(outdir))
        assert (code, out) == (1, "") and err.startswith("error:")
        assert sorted(os.listdir(outdir)) == ["records.csv", "summary.json"]

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_failed_write_leaves_no_partial_or_temporary_file(self, tmp_path, capsys,
                                                              monkeypatch, failing):
        # os.replace fails on the failing-th output: records.csv, summary.json, manifest.json
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        assert run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))[0] == 0
        before = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        moves = []
        real_replace = os.replace

        def replace(src, dst):
            moves.append(dst)
            if len(moves) == failing:
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir),
                                 "--seed", "5")
        monkeypatch.undo()
        assert (code, out) == (1, "") and err.startswith("error: cannot write")
        names = sorted(os.listdir(outdir))
        assert "manifest.json" not in names and not any(n.endswith(".tmp") for n in names)
        moved = {os.path.basename(m) for m in moves[:failing - 1]}
        for name in set(names) - moved:  # a file not moved keeps the old run's bytes
            assert (outdir / name).read_bytes() == before[name]
        assert run_cli(capsys, "manifest-check", str(outdir))[0] == 1

    def test_uncreatable_output_directory_exits_1(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(tmp_path / "file" / "run"))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot create") and len(err.splitlines()) == 1

    def test_unwritable_output_file_exits_1(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        (outdir / "records.csv").mkdir(parents=True)
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(outdir))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1

    def test_moments_plan_writes_summary(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json", n_grid=[4, 6, 8], moments_kmax=2)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(outdir))
        assert code == 0, err
        moments = json.loads((outdir / "summary.json").read_text())["moments"]
        assert [(m["n"], m["k"]) for m in moments] == [(4, 1), (4, 2), (6, 1), (6, 2),
                                                      (8, 1), (8, 2)]
        assert all(isinstance(m["zero_consistent"], bool) for m in moments)
        assert run_cli(capsys, "manifest-check", str(outdir))[0] == 0

    def test_zero_std_leaves_std_fit_null(self, tmp_path, capsys):
        # every d1 at n = 1 is pi/2, and at n = 2 the two replicates tie
        plan = write_plan(tmp_path / "plan.json", ensemble="orthogonal", n_grid=[1, 2, 4],
                          replicates=2, seed=0, t_grid=[0.0])
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(outdir))
        assert code == 0, err
        concentration = json.loads((outdir / "summary.json").read_text())["concentration"]
        assert [s["std"] == 0 for s in concentration["std_by_n"]] == [True, True, False]
        assert concentration["std_fit"] is None
        assert len(concentration["tails"]) == 3
        assert run_cli(capsys, "manifest-check", str(outdir))[0] == 0

    def test_summary_written(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["rate"]["fit"]["slope"] < 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["records_sha256"]) == 64


class TestOneDrawPath:
    @pytest.mark.parametrize("ensemble,sample_n,grid_n", [
        ("unitary", 8, 8), ("so", 5, 5), ("symplectic", 4, 8), ("cse", 3, 6),
    ])
    def test_sample_row_is_the_experiment_cell(self, tmp_path, capsys, ensemble,
                                               sample_n, grid_n):
        # row r of a sample and cell (n, r) of an experiment with the same seed
        # and ambient n are one draw, so the sampled angles give the cell's d1
        out = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, "sample", "--ensemble", ensemble, "--n", str(sample_n),
                               "--count", "3", "--seed", "11", "--out", str(out))
        assert code == 0, err
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        plan = write_plan(tmp_path / "plan.json", ensemble=ensemble, n_grid=[grid_n],
                          replicates=3, seed=11)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))
        assert code == 0, err
        with open(outdir / "records.csv", newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
        assert [(int(r["n"]), int(r["replicate"])) for r in records] == [(grid_n, r)
                                                                      for r in range(3)]
        for row, record in zip(rows, records):
            angles = np.array([float(v) for v in row[1:]])
            assert angles.size == grid_n
            d1 = w1_circle_uniform(EmpiricalMeasureCircle(angles))
            assert d1 == float(record["value"])


FIT_KEYS = ["intercept", "n_used", "r_squared", "slope", "slope_stderr"]


class TestSummaryOracle:
    """summary.json's layout, and its numbers recomputed from the same run's
    records.csv with the library's own formulas."""

    @staticmethod
    def d1_by_n(outdir):
        with open(outdir / "records.csv", newline="", encoding="utf-8") as fh:
            rows = [row for row in csv.DictReader(fh) if row["statistic"] == "d1"]
        by_n = {}
        for row in rows:
            by_n.setdefault(int(row["n"]), []).append(float(row["value"]))
        return {n: np.array(values) for n, values in by_n.items()}

    def run(self, tmp_path, capsys, overrides):
        plan = write_plan(tmp_path / "plan.json", **overrides)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))
        assert code == 0, err
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["plan"] == json.loads(plan.read_text())
        return summary, self.d1_by_n(outdir)

    def test_su_tails_and_moments(self, tmp_path, capsys):
        summary, d1 = self.run(tmp_path, capsys, {
            "ensemble": "su", "n_grid": [6, 8, 10], "replicates": 20,
            "t_grid": [0.0, 0.02, 10.0], "moments_kmax": 3})
        assert list(summary) == ["concentration", "moments", "plan"]
        conc = summary["concentration"]
        assert list(conc) == ["std_by_n", "std_fit", "tails"]
        assert [list(s) for s in conc["std_by_n"]] == [["n", "std"]] * 3
        assert conc["std_by_n"] == [{"n": n, "std": float(np.std(d1[n], ddof=1))}
                                    for n in (6, 8, 10)]
        assert list(conc["std_fit"]) == FIT_KEYS
        assert conc["std_fit"] == asdict(experiments.fit_loglog(
            [(n, np.std(d1[n], ddof=1)) for n in (6, 8, 10)]))
        assert [(t["n"], t["t"]) for t in conc["tails"]] == [
            (n, t) for n in (6, 8, 10) for t in (0.0, 0.02, 10.0)]
        for tail in conc["tails"]:
            assert list(tail) == ["n", "p_hat", "replicates", "t", "wilson_high", "wilson_low"]
            values = d1[tail["n"]]
            hits = int(np.sum(values >= np.mean(values) + tail["t"]))
            low, high = experiments.wilson_interval(hits, values.size)
            assert (tail["p_hat"], tail["replicates"]) == (hits / values.size, values.size)
            assert (tail["wilson_low"], tail["wilson_high"]) == (low, high)
        assert [(m["n"], m["k"]) for m in summary["moments"]] == [
            (n, k) for n in (6, 8, 10) for k in (1, 2, 3)]
        for moment in summary["moments"]:
            assert list(moment) == ["bounded_consistent", "ensemble", "k", "mean_im",
                                    "mean_re", "n", "stderr", "zero_consistent"]

    @pytest.mark.parametrize("overrides,x,fitted", [
        ({"ensemble": "compression", "n_grid": [8, 16, 32], "replicates": 30, "seed": 3,
          "k_rule": "half"}, [32.0, 128.0, 512.0], True),
        ({"n_grid": [4, 8], "replicates": 5}, [4.0, 8.0], False),
    ], ids=["compression", "two-point-grid"])
    def test_rate(self, tmp_path, capsys, overrides, x, fitted):
        summary, d1 = self.run(tmp_path, capsys, overrides)
        threshold = ENSEMBLES[EnsembleTag(summary["plan"]["ensemble"])].rate_slope_max
        flag = f"slope_flag_leq_{threshold}"
        assert list(summary) == ["plan", "rate"]
        rate = summary["rate"]
        assert list(rate) == ["fit", "per_n", flag, "warnings"]
        means = []
        for row, xn in zip(rate["per_n"], x, strict=True):
            assert list(row) == ["ci95", "mean_d1", "n", "std_d1", "x"]
            values = d1[row["n"]]
            mean, std = float(np.mean(values)), float(np.std(values, ddof=1))
            half = 1.959963984540054 * std / np.sqrt(values.size)
            assert row == {"ci95": [mean - half, mean + half], "mean_d1": mean,
                           "n": row["n"], "std_d1": std, "x": xn}
            means.append((xn, mean))
        if fitted:
            fit = experiments.fit_loglog(means)
            assert rate["fit"] == asdict(fit) and list(rate["fit"]) == FIT_KEYS
            assert rate[flag] is (fit.slope <= threshold)
            assert rate["warnings"] == []
        else:
            assert rate["fit"] is None and rate[flag] is False
            assert rate["warnings"] == ["fewer than 3 grid points: rate fit omitted"]


def refuse_to_sample(n, key):
    raise NumericalFailureError("determinant not within tolerance")


def shift_one_angle(measure):
    """The measure with its smallest angle moved up by 1e-6."""
    atoms = measure.atoms.copy()
    atoms[0] += 1e-6
    return EmpiricalMeasureCircle(atoms)


class TestVerify:
    def test_transport_oracle_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "transport-oracle",
                               "--trials", "50", "--seed", "3")
        assert code == 0
        assert "OK" in out

    def test_lipschitz_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lipschitz",
                               "--trials", "50", "--seed", "3")
        assert code == 0
        assert "OK" in out

    def test_group_membership_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "group-membership",
                               "--trials", "20", "--seed", "3")
        assert code == 0

    @pytest.mark.parametrize("suite", ["lipschitz", "transport-oracle", "group-membership",
                                       "all"])
    def test_negative_seed_runs(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1",
                                 "--trials", "20")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == (3 if suite == "all" else 1)
        assert all(line.endswith(": OK") for line in lines)

    @pytest.mark.parametrize("name,fake,violations", [
        ("haar_so", refuse_to_sample, 20),  # a sampler whose certificate fails
        ("sample_coe", ensembles.haar_unitary, 20),  # unitary but not symmetric
        ("sample_cse", ensembles.haar_unitary, 20),  # unitary but not self-dual
        # a Q off the group by 0.1%: each of the eight circle rows must refuse it
        ("qr_positive", lambda g: 1.001 * matlin.qr_positive(g), 160),
        # a paired route off the Cayley route: each draw of the four paired rows counts
        ("eig_paired_angles", lambda u: shift_one_angle(matlin.eig_paired_angles(u)), 80),
    ], ids=["so-certificate-fails", "coe-not-symmetric", "cse-not-self-dual",
            "every-row-certifies-its-q", "paired-route-shifts-an-angle"])
    def test_group_membership_suite_counts_failures(self, capsys, monkeypatch, name, fake,
                                                    violations):
        # the samplers look these names up at call time, so the patch reaches them
        monkeypatch.setattr(ensembles, name, fake)
        code, out, _ = run_cli(capsys, "verify", "--suite", "group-membership",
                               "--trials", "20", "--seed", "3")
        assert (code, out) == (1, f"group-membership: {violations} violations\n")


    def test_failing_transport_oracle_prints_only_its_count(self, capsys, monkeypatch):
        exact = cli.w1_circle_pair
        monkeypatch.setattr(cli, "w1_circle_pair", lambda m1, m2: exact(m1, m2) + 1.0)
        code, out, err = run_cli(capsys, "verify", "--suite", "transport-oracle",
                                 "--trials", "20", "--seed", "3")
        # each trial checks two circle pairs: one of equal counts, one of any counts
        assert (code, out, err) == (1, "transport-oracle: 40 violations\n", "")

    def test_failing_line_coupling_counts_both_line_pairs(self, capsys, monkeypatch):
        exact = cli.wp_line
        monkeypatch.setattr(cli, "wp_line", lambda m1, m2, p: exact(m1, m2, p) + 1.0)
        code, out, err = run_cli(capsys, "verify", "--suite", "transport-oracle",
                                 "--trials", "20", "--seed", "3")
        assert (code, out, err) == (1, "transport-oracle: 40 violations\n", "")

    @pytest.mark.parametrize("name,fake", [("haar_so", refuse_to_sample),
                                           ("sample_coe", ensembles.haar_unitary),
                                           ("sample_cse", ensembles.haar_unitary)],
                             ids=["so-certificate-fails", "coe-not-symmetric",
                                  "cse-not-self-dual"])
    def test_failing_group_membership_prints_only_its_count(self, capsys, monkeypatch,
                                                            name, fake):
        monkeypatch.setattr(ensembles, name, fake)
        code, out, err = run_cli(capsys, "verify", "--suite", "group-membership",
                                 "--trials", "20", "--seed", "3")
        assert (code, out, err) == (1, "group-membership: 20 violations\n", "")

    def test_failing_lipschitz_reports_each_inequality_on_stderr(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "wp_line", lambda a, b, p: 1e9)
        code, out, err = run_cli(capsys, "verify", "--suite", "lipschitz",
                                 "--trials", "20", "--seed", "3")
        assert (code, out) == (1, "lipschitz: 20 violations\n")
        assert err == ("lipschitz: LipschitzReport(trials=20, hw_violations=20, "
                       "conjugation_violations=0, compression_violations=0, "
                       "weyl_violations=0)\n")


def cli_nodes_outside_main() -> list:
    """Every AST node of cli.py that lies outside the body of ``main``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "speclab", "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "main"
              for node in ast.walk(top)}
    return [node for node in ast.walk(tree) if id(node) not in inside]


def test_only_main_prints_error_lines_or_exits_2():
    nodes = cli_nodes_outside_main()
    # an f-string's literal parts are Constants too; only its head can start the line
    tails = {id(part) for node in nodes if isinstance(node, ast.JoinedStr)
             for part in node.values[1:]}
    error_lines = [node.lineno for node in nodes
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value.startswith("error:") and id(node) not in tails]
    exit_2 = [node.lineno for node in nodes if isinstance(node, ast.Name)
              and node.id == "EXIT_USAGE" and isinstance(node.ctx, ast.Load)]
    assert (error_lines, exit_2) == ([], [])


def test_console_script_is_main():
    # the speclab command an install makes calls what [project.scripts] names
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "pyproject.toml")
    with open(path, encoding="utf-8") as fh:
        entry = re.search(r'^\[project\.scripts\]\nspeclab = "([\w.]+):(\w+)"$', fh.read(),
                          re.MULTILINE)
    module, name = entry.groups()
    assert getattr(importlib.import_module(module), name) is cli.main


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("flag", ["--trials", "--workers"])
def test_count_flag_below_one_exits_2_before_any_work(tmp_path, capsys, monkeypatch, flag, value):
    def forbidden(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", forbidden)
    outdir = tmp_path / "run"
    argv = {"--trials": ["verify", "--suite", "all"],
            "--workers": ["experiment", "--plan", str(write_plan(tmp_path / "plan.json")),
                          "--out", str(outdir)]}[flag]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be at least 1, got {value}\n"
    assert not outdir.exists()


# Plans for the no-traceback property: a small well-formed plan of any kind
# (n <= 8, replicates <= 3), with at most one field replaced by a malformed
# value.  No junk string holds a digit, so none converts to a large size.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2.0, 3.0),
                 st.text(alphabet="ax-. ", max_size=3), st.lists(st.none(), max_size=1))
FIELDS = {
    "ensemble": st.sampled_from([t.value for t in EnsembleTag]),
    "n_grid": st.sets(st.integers(1, 8), min_size=1, max_size=3).map(sorted),
    "replicates": st.integers(2, 3),
    "seed": st.integers(-5, 5),
    "k_rule": st.one_of(st.sampled_from(["half", "fixed:x", "fixed:\u00b2"]),
                        st.integers(0, 9).map("fixed:{}".format)),
    "t_grid": st.lists(st.floats(-1.0, 1.0), max_size=3),
    "moments_kmax": st.integers(-1, 3),
}


@st.composite
def plans(draw):
    plan = {name: draw(field) for name, field in FIELDS.items()
            if name in ("ensemble", "n_grid", "replicates", "seed") or draw(st.booleans())}
    broken = draw(st.sampled_from([None, "extra"] + list(FIELDS)))
    if broken is not None:
        plan[broken] = draw(JUNK)
    return plan


def exit_code(argv) -> int:
    """main's return value, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return 2


class TestNoTraceback:
    """Any small input ends in exit 0, 1 or 2; no other exception escapes."""

    @given(plan=plans(), workers=st.sampled_from(["-1", "0", "1", "x"]),
           seed=st.sampled_from([None, "3", "-2", "abc"]), bad_out=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_experiment(self, plan, workers, seed, bad_out):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "plan.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
            out = os.path.join(tmp, "plan.json" if bad_out else "", "run")
            argv = ["experiment", "--plan", path, "--out", out, "--workers", workers]
            assert exit_code(argv + ([] if seed is None else ["--seed", seed])) in (0, 1, 2)

    @given(ensembles=st.lists(st.sampled_from([t.value for t in EnsembleTag] + ["x"]),
                              min_size=2, max_size=2),
           n=st.integers(-1, 6), count=st.integers(-1, 3),
           reference=st.sampled_from(["uniform-circle", "semicircle", "pair", "missing"]),
           p=st.sampled_from(["1", "1.5", "0.5", "nan", "x"]))
    @settings(max_examples=40, deadline=None)
    def test_sample_then_distance(self, ensembles, n, count, reference, p):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f"{i}.csv") for i in range(2)]
            for ensemble, path in zip(ensembles, paths):
                argv = ["sample", "--ensemble", ensemble, "--n", str(n),
                        "--count", str(count), "--out", path]
                assert exit_code(argv) in (0, 1, 2)
            ref = {"pair": paths[1], "missing": os.path.join(tmp, "none.csv")}.get(
                reference, reference)
            argv = ["distance", "--input", paths[0], "--reference", ref, "--p", p]
            assert exit_code(argv) in (0, 1, 2)

    @pytest.mark.parametrize("ensemble,n", [
        ("unitary", "3037000500"), ("orthogonal", "3037000500"), ("cse", "2000000000"),
        ("gue_wigner", "100000000000000000000"),
    ])
    def test_huge_sample_dimension_exits_2(self, tmp_path, capsys, ensemble, n):
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(capsys, "sample", "--ensemble", ensemble, "--n", n,
                                    "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: --n {n} gives ambient dimension ")
        assert len(err.splitlines()) == 1
        assert os.listdir(tmp_path) == []

    def test_unwritable_sample_manifest(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.manifest.json").mkdir()
        code, stdout, err = run_cli(capsys, "sample", "--ensemble", "unitary", "--n", "4",
                                    "--count", "2", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
        assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))

    def test_failed_resample_leaves_no_stale_manifest(self, tmp_path, capsys, monkeypatch):
        # the new CSV moves into place, then the sidecar's move fails
        out = tmp_path / "x.csv"
        argv = ["sample", "--ensemble", "unitary", "--n", "4", "--count", "2", "--out", str(out)]
        assert run_cli(capsys, *argv, "--seed", "1")[0] == 0
        moves = []
        real_replace = os.replace

        def replace(src, dst):
            moves.append(dst)
            if len(moves) == 2:
                raise OSError(28, "No space left on device")
            real_replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace)
        code, stdout, err = run_cli(capsys, *argv, "--seed", "2")
        monkeypatch.undo()
        assert (code, stdout) == (1, "")
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1
        assert sorted(os.listdir(tmp_path)) == ["x.csv"]

    @pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"not json", b"[1, 2]", b"\n",
                                         b"replicate\n0\n",
                                         pytest.param(b"[1" + b"0" * 5000 + b"]",
                                                      id="integer-of-5001-digits"),
                                         pytest.param(b"[" * 100000 + b"]" * 100000,
                                                      id="json-nested-100000-deep"),
                                         pytest.param(b"replicate,angle_0\n0," + b"0" * 200000
                                                      + b".5\n", id="csv-field-over-limit")])
    def test_file_not_utf8_or_not_the_expected_format(self, tmp_path, capsys, payload):
        for name in ("input", "manifest.json"):
            (tmp_path / name).write_bytes(payload)
        for name in ("records.csv", "summary.json"):
            (tmp_path / name).write_bytes(b"")
        path = str(tmp_path / "input")
        for argv, expected in (
            (["experiment", "--plan", path, "--out", str(tmp_path / "out")], 2),
            (["distance", "--input", path, "--reference", "semicircle"], 1),
            (["manifest-check", str(tmp_path)], 1),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (expected, ""), argv
            assert err.startswith("error:") and len(err.splitlines()) == 1, argv


IMPORT_GUARD = textwrap.dedent("""
    import hashlib, json, os, sys
    import speclab.cli as cli

    EXPERIMENT_STACK = ("speclab.experiments", "concurrent.futures.process",
                        "multiprocessing")

    def modules():
        return {
            "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
            "experiment_stack": sorted(m for m in EXPERIMENT_STACK if m in sys.modules),
            "numpy_random": "numpy.random" in sys.modules,
            "importlib_metadata": "importlib.metadata" in sys.modules,
        }

    out = sys.argv[1]
    loaded = {"import": modules()}
    assert cli.main(["sample", "--ensemble", "symplectic", "--n", "2", "--count", "3",
                     "--out", os.path.join(out, "s.csv")]) == 0
    loaded["sample"] = modules()
    assert cli.main(["distance", "--input", os.path.join(out, "s.csv"),
                     "--reference", "uniform-circle"]) == 0
    loaded["distance"] = modules()
    run = os.path.join(out, "by-hand")
    os.mkdir(run)
    manifest = {}
    for name, field in (("records.csv", "records_sha256"), ("summary.json", "summary_sha256")):
        with open(os.path.join(run, name), "wb") as fh:
            fh.write(name.encode())
        manifest[field] = hashlib.sha256(name.encode()).hexdigest()
    with open(os.path.join(run, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    assert cli.main(["manifest-check", run]) == 0
    loaded["manifest-check"] = modules()
    with open(os.path.join(out, "plan.json"), "w") as fh:
        json.dump({"ensemble": "unitary", "n_grid": [2, 3, 4], "replicates": 2,
                   "seed": 1}, fh)
    records = []
    for workers in ("1", "2"):
        run = os.path.join(out, "w" + workers)
        assert cli.main(["experiment", "--plan", os.path.join(out, "plan.json"),
                         "--out", run, "--workers", workers]) == 0
        assert cli.main(["manifest-check", run]) == 0
        with open(os.path.join(run, "records.csv"), "rb") as fh:
            records.append(fh.read())
    assert records[0] == records[1]
    loaded["experiment"] = modules()
    # last: sys.modules only grows, and this is the one command that loads scipy
    assert cli.main(["sample", "--ensemble", "gue_wigner", "--n", "8", "--count", "2",
                     "--out", os.path.join(out, "g.csv")]) == 0
    assert cli.main(["distance", "--input", os.path.join(out, "g.csv"),
                     "--reference", "semicircle"]) == 0
    loaded["distance-semicircle"] = modules()
    print(json.dumps(loaded))
""")


@pytest.fixture(scope="module")
def modules_loaded_by_command(tmp_path_factory):
    """The watched modules in sys.modules after each command of one fresh
    interpreter: import, sample, distance, manifest-check, experiment, then
    distance --reference semicircle."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GUARD,
                           str(tmp_path_factory.mktemp("guard"))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_commands_load_no_scipy(modules_loaded_by_command):
    # scipy costs about a second to import; commands that never reach
    # quadrature, the assignment oracle or the KS test must not pay for it.
    # Nor may they read installed package metadata, which imports the email
    # package and costs peak memory.
    loaded = dict(modules_loaded_by_command)
    loaded.pop("distance-semicircle")
    assert {command: (m["scipy"], m["importlib_metadata"]) for command, m in loaded.items()} == {
        command: ([], False)
        for command in ("import", "sample", "distance", "manifest-check", "experiment")}


def test_semicircle_distance_loads_only_the_quadpack_extension(modules_loaded_by_command):
    # scipy.integrate's __init__ imports scipy.optimize, scipy.special and the
    # ODE solvers, about 0.6 s; quadrature needs only the compiled QUADPACK,
    # which registers itself under its dotted name
    loaded = modules_loaded_by_command["distance-semicircle"]["scipy"]
    heavy = [m for m in loaded
             if m.split(".")[:2] in (["scipy", "integrate"], ["scipy", "optimize"],
                                     ["scipy", "special"])]
    assert heavy == ["scipy.integrate._quadpack"]


def test_one_shot_commands_load_no_experiment_stack(modules_loaded_by_command):
    # sample, distance and manifest-check run no plan: they must not pay for
    # importing experiments and the process pool behind it
    stack = {command: loaded["experiment_stack"] for command, loaded
             in modules_loaded_by_command.items()}
    assert "speclab.experiments" in stack.pop("experiment")
    stack.pop("distance-semicircle")  # runs after experiment
    assert stack == {"import": [], "sample": [], "distance": [], "manifest-check": []}


def test_import_loads_no_numpy_random(modules_loaded_by_command):
    # distance and manifest-check draw nothing: the generator classes are
    # imported by the first StreamKey.generator call, which sample makes
    loaded = {command: loaded["numpy_random"] for command, loaded
              in modules_loaded_by_command.items()}
    assert loaded["import"] is False
    assert loaded["sample"] is True


# ---------------------------------------------------------------------------
# the held heap: fewer page faults, the same bytes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ONE_THREAD = {name: "1" for name in cli.THREAD_VARS}
# the CLI as its console script starts it; with no arguments it stops after the import
LAUNCH = textwrap.dedent("""
    import sys
    import speclab.cli
    if sys.argv[1:]:
        sys.exit(speclab.cli.main(sys.argv[1:]))
""")
# the same plan through the library alone, which never calls hold_heap
LIBRARY_RUN = textwrap.dedent("""
    import sys
    from speclab.cli import load_plan, records_to_csv
    from speclab.experiments import run_rate_experiment
    rate = run_rate_experiment(load_plan(sys.argv[1]))
    sys.stdout.buffer.write(records_to_csv(rate.records).encode("utf-8"))
""")


def launch_env() -> dict:
    return dict(os.environ, **ONE_THREAD, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.parametrize("ensemble", ["randomized_sum", "unitary"])
def test_held_heap_changes_no_byte(tmp_path, ensemble):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"ensemble": ensemble, "n_grid": [128], "replicates": 10,
                                "seed": 3}))
    library = subprocess.run([sys.executable, "-c", LIBRARY_RUN, str(plan)], env=launch_env(),
                             capture_output=True, timeout=300)
    assert library.returncode == 0, library.stderr
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        proc = subprocess.run([sys.executable, "-c", LAUNCH, "experiment", "--plan", str(plan),
                               "--out", str(out), "--workers", workers],
                              env=launch_env(), capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (out / "records.csv").read_bytes() == library.stdout
        environment = json.loads((out / "manifest.json").read_text())["environment"]
        assert environment["heap_held"] is glibc()


def minor_faults(*argv) -> int:
    """Minor page faults of one CLI launch, its pool workers included."""
    proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv], env=launch_env(),
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    return usage.ru_minflt


@pytest.mark.skipif(not (glibc() and hasattr(os, "wait4")),
                    reason="the heap is held on glibc only")
def test_cells_reuse_the_pages_of_the_cells_before(tmp_path):
    # 20 randomized-sum cells at n = 128 faulted in 22,430 pages beyond the
    # import (4.4 MB a cell) while glibc trimmed the heap after each, and
    # 1,560 with the heap held
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"ensemble": "randomized_sum", "n_grid": [128],
                                "replicates": 10, "seed": 3}))
    imported = minor_faults()
    ran = minor_faults("experiment", "--plan", str(plan), "--out", str(tmp_path / "run"))
    assert ran - imported < 6_000
