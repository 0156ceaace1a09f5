import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from speclab.cli import main

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
