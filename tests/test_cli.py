import json
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import experiments
from speclab.cli import main
from speclab.ensembles import EnsembleTag
from speclab.experiments import ExperimentPlan, run_moment_experiment

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


class TestDistanceFlags:
    @pytest.mark.parametrize("domain,reference,flags", [
        ("circle", "uniform-circle", ["--p", "2"]),
        ("line", "semicircle", ["--p", "2"]),
        ("circle", "pair", ["--p", "2"]),
        ("circle", "uniform-circle", ["--metric", "euclidean"]),
        ("circle", "pair", ["--metric", "euclidean"]),
        ("line", "pair", ["--metric", "chordal"]),
        ("line", "semicircle", ["--metric", "chordal"]),
        ("circle", "uniform-circle", ["--metric", "chordal"]),
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
        # geodesic is the default metric and reads as euclidean on the line
        code, out, _ = run_cli(capsys, "distance", "--input", str(a), "--reference", str(b),
                               "--metric", "geodesic", "--p", "2")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.0)
        assert json.loads(out)["p"] == 2.0
        code, out, _ = run_cli(capsys, "distance", "--input", str(a), "--reference", "semicircle",
                               "--metric", "euclidean")
        assert code == 0


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

    @pytest.mark.parametrize("ensemble,threshold", [("compression", "-0.25"), ("unitary", "-0.6")])
    def test_verdict_uses_the_ensemble_threshold(self, tmp_path, capsys, ensemble, threshold):
        plan = write_plan(tmp_path / "plan.json", ensemble=ensemble, k_rule=None)
        outdir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))
        assert code == 0
        slope = json.loads((outdir / "summary.json").read_text())["rate"]["fit"]["slope"]
        verdict = "PASS" if slope <= float(threshold) else "FAIL"
        assert out.splitlines()[-1].endswith(f"[{verdict} slope <= {threshold}]")

    @pytest.mark.parametrize("t_grid", [None, [0.0, 0.05]])
    def test_moments_reuse_the_rate_samples(self, tmp_path, capsys, monkeypatch, t_grid):
        # one draw per (n, replicate) cell serves d1, the tails and the moments
        calls = []
        sample = experiments.sample_circle_ensemble

        def counted(*args):
            calls.append(args)
            return sample(*args)

        monkeypatch.setattr(experiments, "sample_circle_ensemble", counted)
        plan = write_plan(tmp_path / "plan.json", n_grid=[4, 6, 8], replicates=5,
                          moments_kmax=3, t_grid=t_grid)
        outdir = tmp_path / "run"
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(outdir), "--workers", "1")
        assert code == 0, err
        assert len(calls) == 3 * 5
        monkeypatch.undo()
        moments = json.loads((outdir / "summary.json").read_text())["moments"]
        expected = run_moment_experiment(ExperimentPlan(EnsembleTag.UNITARY, (4, 6, 8), 5, 7), 3)
        assert moments == [vars(e) for e in expected]

    def test_seed_precedence(self, tmp_path, capsys, monkeypatch):
        plan = write_plan(tmp_path / "plan.json", seed=7)
        out_plan = tmp_path / "p"
        out_env = tmp_path / "e"
        out_flag = tmp_path / "f"
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(out_plan))
        monkeypatch.setenv("SPECLAB_SEED", "99")
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(out_env))
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(out_flag),
                "--seed", "7")
        monkeypatch.delenv("SPECLAB_SEED")
        plan_bytes = (out_plan / "records.csv").read_bytes()
        assert (out_env / "records.csv").read_bytes() != plan_bytes
        assert (out_flag / "records.csv").read_bytes() == plan_bytes

    def test_invalid_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps({"ensemble": "unitary"}))
        code, _, err = run_cli(capsys, "experiment", "--plan", str(bad),
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert err

    def test_non_integer_seed_variable_exits_2(self, tmp_path, capsys, monkeypatch):
        plan = write_plan(tmp_path / "plan.json")
        monkeypatch.setenv("SPECLAB_SEED", "abc")
        code, out, err = run_cli(capsys, "experiment", "--plan", str(plan),
                                 "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "SPECLAB_SEED" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("replicates", "ten"), ("replicates", float("inf")), ("n_grid", [4, "eight"]),
        ("seed", "x"), ("ensemble", "nonsense"), ("t_grid", 0.5), ("moments_kmax", "two"),
    ])
    def test_plan_error_names_its_key(self, tmp_path, capsys, key, value):
        plan = write_plan(tmp_path / "plan.json", **{key: value})
        code, _, err = run_cli(capsys, "experiment", "--plan", str(plan),
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith(f"error: invalid plan: /{key}:")

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

    def test_summary_written(self, tmp_path, capsys):
        plan = write_plan(tmp_path / "plan.json")
        outdir = tmp_path / "run"
        run_cli(capsys, "experiment", "--plan", str(plan), "--out", str(outdir))
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["rate"]["fit"]["slope"] < 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert len(manifest["records_sha256"]) == 64


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
           metric=st.sampled_from(["geodesic", "chordal", "euclidean", "taxicab"]),
           p=st.sampled_from(["1", "1.5", "0.5", "nan", "x"]))
    @settings(max_examples=40, deadline=None)
    def test_sample_then_distance(self, ensembles, n, count, reference, metric, p):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, f"{i}.csv") for i in range(2)]
            for ensemble, path in zip(ensembles, paths):
                argv = ["sample", "--ensemble", ensemble, "--n", str(n),
                        "--count", str(count), "--out", path]
                assert exit_code(argv) in (0, 1, 2)
            ref = {"pair": paths[1], "missing": os.path.join(tmp, "none.csv")}.get(
                reference, reference)
            argv = ["distance", "--input", paths[0], "--reference", ref,
                    "--metric", metric, "--p", p]
            assert exit_code(argv) in (0, 1, 2)

    @pytest.mark.parametrize("payload", [b"\xff\xfe{}", b"not json", b"[1, 2]", b"\n",
                                         b"replicate\n0\n"])
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


SCIPY_GUARD = textwrap.dedent("""
    import json, os, sys
    import speclab.cli as cli

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    out = sys.argv[1]
    loaded = {"import": scipy_modules()}
    assert cli.main(["sample", "--ensemble", "unitary", "--n", "4", "--count", "3",
                     "--out", os.path.join(out, "u.csv")]) == 0
    loaded["sample"] = scipy_modules()
    assert cli.main(["distance", "--input", os.path.join(out, "u.csv"),
                     "--reference", "uniform-circle"]) == 0
    loaded["distance"] = scipy_modules()
    with open(os.path.join(out, "plan.json"), "w") as fh:
        json.dump({"ensemble": "unitary", "n_grid": [2, 3, 4], "replicates": 2,
                   "seed": 1}, fh)
    assert cli.main(["experiment", "--plan", os.path.join(out, "plan.json"),
                     "--out", os.path.join(out, "run")]) == 0
    loaded["experiment"] = scipy_modules()
    print(json.dumps(loaded))
""")


def test_cli_commands_load_no_scipy(tmp_path):
    # scipy costs about a second to import; commands that never reach
    # quadrature, the assignment oracle or the KS test must not pay for it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {"import": [], "sample": [], "distance": [], "experiment": []}
