"""Command-line surface: sampling spectra, computing distances, running
experiment plans, and verifying property suites.

Exit codes: 0 success/verified, 1 runtime or data error, 2 usage or schema
error.  The environment variable SPECLAB_SEED overrides a plan's seed;
explicit --seed flags override both.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ensembles import CIRCLE_TAGS, HALF_DIMENSION_TAGS, EnsembleTag, sample_circle_ensemble, gue_wigner
from .errors import SpeclabError, ContractError
from .experiments import (
    RATE_SLOPE_MAX,
    ExperimentPlan,
    concentration_tails,
    run_lipschitz_suite,
    run_rate_experiment,
)
from .matlin import eig_hermitian, eig_unitary_angles
from .measures import EmpiricalMeasureCircle, EmpiricalMeasureLine
from .rng import StreamKey
from .transport import (
    GroundMetric,
    assignment_oracle,
    semicircle_cdf,
    w1_circle_pair,
    w1_circle_uniform,
    w1_line_vs_cdf,
    wp_line,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

FLOAT_FMT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, obj) -> str:
    """Write obj as indented, key-sorted JSON; returns the file's sha256."""
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _ambient_dim(tag: EnsembleTag, n: int) -> int:
    """CLI-facing n is the half-dimension for Sp and CSE."""
    return 2 * n if tag in HALF_DIMENSION_TAGS else n


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    for flag, value in (("--n", args.n), ("--count", args.count)):
        if value < 1:
            print(f"error: {flag} must be at least 1, got {value}", file=sys.stderr)
            return EXIT_USAGE
    tag = EnsembleTag(args.ensemble)
    n = _ambient_dim(tag, args.n)
    started = _utcnow()
    rows = []
    for r in range(args.count):
        key = StreamKey(args.seed, tag.value, n, r)
        if tag in CIRCLE_TAGS:
            u = sample_circle_ensemble(tag, n, key)
            spec = eig_unitary_angles(u).atoms
            colname = "angle"
        elif tag is EnsembleTag.GUE_WIGNER:
            spec = eig_hermitian(gue_wigner(n, key)).atoms
            colname = "eigenvalue"
        else:
            print(f"error: ensemble {tag.value} has no direct sampling form; "
                  "use an experiment plan", file=sys.stderr)
            return EXIT_USAGE
        rows.append((r, spec))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate"] + [f"{colname}_{i}" for i in range(n)])
    for r, spec in rows:
        writer.writerow([r] + [_fmt(v) for v in spec])
    payload = buf.getvalue()
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    manifest = {
        "tool_version": __version__,
        "master_seed": args.seed,
        "ensemble": tag.value,
        "ambient_dim": n,
        "count": args.count,
        "domain": "circle" if tag in CIRCLE_TAGS else "line",
        "started_utc": started,
        "finished_utc": _utcnow(),
        "record_count": len(rows),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    _write_json(args.out + ".manifest.json", manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# distance


def _read_spectrum_csv(path: str):
    """Read a cmd_sample CSV back into a pooled array of atoms."""
    values = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < 2 or header[0] != "replicate":
                raise ContractError(f"{path}:1: expected a 'replicate,...' header")
            width = len(header) - 1
            domain = "circle" if header[1].startswith("angle") else "line"
            for lineno, row in enumerate(reader, start=2):
                if len(row) != width + 1:
                    raise ContractError(f"{path}:{lineno}: expected {width + 1} fields")
                try:
                    values.append([float(v) for v in row[1:]])
                except ValueError as exc:
                    raise ContractError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8 text: {exc}") from exc
    if not values:
        raise ContractError(f"{path}: no spectra found")
    return domain, np.concatenate(values)


def _ignored_distance_flag(args, domain: str) -> str | None:
    """The flag the requested distance would silently ignore, if any."""
    pair = args.reference not in ("uniform-circle", "semicircle")
    if args.metric == "chordal" and not (pair and domain == "circle"):
        return "--metric chordal needs a pair of angle spectra"
    if args.metric == "euclidean" and domain == "circle":
        return "--metric euclidean needs line spectra"
    if args.p != 1.0 and not (pair and (domain == "line" or args.metric == "chordal")):
        return "--p applies only to a pair of line spectra or to --metric chordal"
    return None


def cmd_distance(args) -> int:
    try:
        domain, atoms = _read_spectrum_csv(args.input)
        if (flag := _ignored_distance_flag(args, domain)) is not None:
            print(f"error: {flag}", file=sys.stderr)
            return EXIT_USAGE
        if args.reference == "uniform-circle":
            if domain != "circle":
                raise ContractError("uniform-circle reference needs angle spectra")
            result = w1_circle_uniform(EmpiricalMeasureCircle(atoms))
        elif args.reference == "semicircle":
            if domain != "line":
                raise ContractError("semicircle reference needs line spectra")
            result = w1_line_vs_cdf(EmpiricalMeasureLine(atoms), semicircle_cdf,
                                    support=(-2.0, 2.0))
        else:
            ref_domain, ref_atoms = _read_spectrum_csv(args.reference)
            if ref_domain != domain:
                raise ContractError("input and reference spectra live on different domains")
            if domain == "circle":
                m1 = EmpiricalMeasureCircle(atoms)
                m2 = EmpiricalMeasureCircle(ref_atoms)
                if args.metric == "chordal":
                    result = assignment_oracle(m1, m2, GroundMetric.CIRCLE_CHORDAL, args.p)
                else:
                    result = w1_circle_pair(m1, m2)
            else:
                result = wp_line(EmpiricalMeasureLine(atoms),
                                 EmpiricalMeasureLine(ref_atoms), args.p)
    except SpeclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    out = {
        "value": result.value,
        "p": result.p,
        "metric": result.metric.value,
        "algorithm": result.algorithm.value,
    }
    out.update(result.extras)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


PLAN_FIELDS = {"ensemble", "n_grid", "replicates", "seed", "k_rule", "t_grid", "moments_kmax"}


def _plan_value(name: str, convert, value):
    """``convert(value)``, with a failure reported against the plan key."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"/{name}: {exc}") from exc


def _integer(value) -> int:
    """``int(value)`` for a plan number; booleans and non-integral numbers
    are refused rather than truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def load_plan(path: str, seed_override: int | None = None) -> ExperimentPlan:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ContractError("/: plan must be a JSON object")
    for field in ("ensemble", "n_grid", "replicates", "seed"):
        if field not in raw:
            raise ContractError(f"/{field}: required field missing")
    unknown = set(raw) - PLAN_FIELDS
    if unknown:
        raise ContractError(f"/{sorted(unknown)[0]}: unknown field")
    if not isinstance(raw["n_grid"], list) or not raw["n_grid"]:
        raise ContractError("/n_grid: must be a nonempty array of integers")
    if seed_override is not None:
        seed = seed_override
    elif (env := os.environ.get("SPECLAB_SEED")) is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ContractError(f"SPECLAB_SEED must be an integer, got {env!r}") from None
    else:
        seed = _plan_value("seed", _integer, raw["seed"])

    def optional(name, convert):
        value = raw.get(name)
        return None if value is None else _plan_value(name, convert, value)

    return ExperimentPlan(
        ensemble=_plan_value("ensemble", EnsembleTag, raw["ensemble"]),
        n_grid=_plan_value("n_grid", lambda grid: tuple(_integer(n) for n in grid),
                           raw["n_grid"]),
        replicates=_plan_value("replicates", _integer, raw["replicates"]),
        master_seed=seed,
        k_rule=optional("k_rule", str),
        t_grid=optional("t_grid", lambda ts: tuple(float(t) for t in ts) or None),
        moments_kmax=optional("moments_kmax", _integer),
    )


def canonical_plan_dict(plan: ExperimentPlan) -> dict:
    return {
        "ensemble": plan.ensemble.value,
        "n_grid": list(plan.n_grid),
        "replicates": plan.replicates,
        "seed": plan.master_seed,
        "k_rule": plan.k_rule,
        "t_grid": list(plan.t_grid) if plan.t_grid else None,
        "moments_kmax": plan.moments_kmax,
    }


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ensemble", "n", "replicate", "statistic", "value", "master_seed"])
    ordered = sorted(records, key=lambda r: (r.n, r.replicate, r.statistic))
    for rec in ordered:
        writer.writerow([rec.ensemble, rec.n, rec.replicate, rec.statistic,
                         _fmt(rec.value), rec.key.master_seed])
    return buf.getvalue()


def _fit_dict(fit):
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "slope_stderr": fit.slope_stderr,
        "r_squared": fit.r_squared,
        "n_used": fit.n_used,
    }


def cmd_experiment(args) -> int:
    try:
        plan = load_plan(args.plan, seed_override=args.seed)
    except (ContractError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: invalid plan: {exc}", file=sys.stderr)
        return EXIT_USAGE

    started = _utcnow()
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    summary: dict = {"plan": canonical_plan_dict(plan)}
    rate = run_rate_experiment(plan, workers=args.workers)
    if plan.t_grid:
        conc = concentration_tails(rate, plan.t_grid)
        summary["concentration"] = {
            "std_by_n": [{"n": n, "std": s} for n, s in conc.std_by_n],
            "std_fit": _fit_dict(conc.std_fit),
            "tails": [
                {"n": t.n, "t": t.t, "p_hat": t.p_hat, "replicates": t.replicates,
                 "wilson_low": t.wilson_low, "wilson_high": t.wilson_high}
                for t in conc.tails
            ],
        }
    else:
        summary["rate"] = {
            "per_n": [
                {"n": s.n, "x": s.x, "mean_d1": s.mean, "std_d1": s.std,
                 "ci95": [s.ci95_low, s.ci95_high]}
                for s in rate.summaries
            ],
            "fit": _fit_dict(rate.fit),
            "slope_flag_leq_-0.6": bool(rate.fit and rate.fit.slope <= -0.6),
            "warnings": list(rate.warnings),
        }
    if plan.moments_kmax:
        summary["moments"] = [
            {"ensemble": e.ensemble, "n": e.n, "k": e.k, "mean_re": e.mean_re,
             "mean_im": e.mean_im, "stderr": e.stderr,
             "zero_consistent": e.zero_consistent,
             "bounded_consistent": e.bounded_consistent}
            for e in rate.moments
        ]

    csv_payload = records_to_csv(rate.records)
    try:
        with open(os.path.join(args.out, "records.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(csv_payload)
        summary_sha256 = _write_json(os.path.join(args.out, "summary.json"), summary)
        manifest = {
            "tool_version": __version__,
            "master_seed": plan.master_seed,
            "plan": canonical_plan_dict(plan),
            "started_utc": started,
            "finished_utc": _utcnow(),
            "record_count": len(rate.records),
            "records_sha256": hashlib.sha256(csv_payload.encode("utf-8")).hexdigest(),
            "summary_sha256": summary_sha256,
        }
        _write_json(os.path.join(args.out, "manifest.json"), manifest)
    except OSError as exc:
        print(f"error: cannot write to {args.out}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"ensemble={plan.ensemble.value} records={len(rate.records)}")
    if not plan.t_grid and rate.fit is not None:
        fit, threshold = rate.fit, RATE_SLOPE_MAX[plan.ensemble]
        verdict = "PASS" if fit.slope <= threshold else "FAIL"
        print(f"rate fit: slope={fit.slope:.4f} stderr={fit.slope_stderr:.4f} "
              f"r2={fit.r_squared:.4f} [{verdict} slope <= {threshold}]")
    return EXIT_OK


def cmd_manifest_check(args) -> int:
    path = os.path.join(args.dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not isinstance(manifest, dict):
            raise ContractError("manifest must be a JSON object")
        for name, field in (("records.csv", "records_sha256"),
                            ("summary.json", "summary_sha256")):
            if _sha256_file(os.path.join(args.dir, name)) != manifest.get(field):
                print(f"manifest check FAILED: {name} hash mismatch", file=sys.stderr)
                return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ContractError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("manifest check OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_transport_oracle(trials: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        a1 = rng.uniform(0, 2 * np.pi, n)
        a2 = rng.uniform(0, 2 * np.pi, n)
        m1, m2 = EmpiricalMeasureCircle(a1), EmpiricalMeasureCircle(a2)
        v_cdf = w1_circle_pair(m1, m2).value
        v_orc = assignment_oracle(m1, m2, GroundMetric.CIRCLE_GEODESIC, 1.0).value
        if abs(v_cdf - v_orc) > 1e-9:
            bad += 1
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        l1, l2 = EmpiricalMeasureLine(x1), EmpiricalMeasureLine(x2)
        p = float(rng.uniform(1.0, 2.0))
        w_srt = wp_line(l1, l2, p).value
        w_orc = assignment_oracle(l1, l2, GroundMetric.LINE_EUCLIDEAN, p).value
        if abs(w_srt - w_orc) > 1e-9:
            bad += 1
    return bad


def _verify_group_membership(trials: int, seed: int) -> int:
    from .matlin import hs_norm, det_lu
    from .ensembles import symplectic_form

    bad = 0
    dims = [2, 3, 8, 17, 64]
    per_dim = max(1, trials // len(dims))
    for n in dims:
        for r in range(per_dim):
            for tag in (EnsembleTag.UNITARY, EnsembleTag.SU, EnsembleTag.SO,
                        EnsembleTag.SO_MINUS, EnsembleTag.ORTHOGONAL,
                        EnsembleTag.COE, EnsembleTag.SYMPLECTIC, EnsembleTag.CSE):
                amb = n + 1 if (tag in HALF_DIMENSION_TAGS and n % 2) else n
                key = StreamKey(seed, f"verify/{tag.value}", amb, r)
                try:
                    u = sample_circle_ensemble(tag, amb, key)
                except SpeclabError:
                    bad += 1
                    continue
                m = u.entries
                if hs_norm(m @ m.conj().T - np.eye(amb)) > 1e-10 * np.sqrt(amb):
                    bad += 1
                if tag is EnsembleTag.SU and abs(det_lu(u.inner) - 1) > 1e-8:
                    bad += 1
                if tag is EnsembleTag.SO and abs(det_lu(u.inner) - 1) > 1e-8:
                    bad += 1
                if tag is EnsembleTag.SO_MINUS and abs(det_lu(u.inner) + 1) > 1e-8:
                    bad += 1
                if tag is EnsembleTag.COE and hs_norm(m - m.T) > 1e-10 * np.sqrt(amb):
                    bad += 1
                if tag is EnsembleTag.SYMPLECTIC:
                    j = symplectic_form(amb // 2)
                    if hs_norm(m @ j @ m.T - j) > 1e-8 * np.sqrt(amb // 2):
                        bad += 1
    return bad


def cmd_verify(args) -> int:
    total = 0
    suites = [args.suite] if args.suite != "all" else [
        "lipschitz", "transport-oracle", "group-membership",
    ]
    for suite in suites:
        if suite == "lipschitz":
            report = run_lipschitz_suite(args.trials, 16, args.seed)
            bad = report.total
            if bad:
                print(f"lipschitz: {report}", file=sys.stderr)
        elif suite == "transport-oracle":
            bad = _verify_transport_oracle(args.trials, args.seed)
            if bad:
                print(f"transport-oracle: {bad} mismatches", file=sys.stderr)
        elif suite == "group-membership":
            bad = _verify_group_membership(args.trials, args.seed)
            if bad:
                print(f"group-membership: {bad} failures", file=sys.stderr)
        else:  # unreachable behind argparse choices
            return EXIT_USAGE
        print(f"{suite}: {'OK' if bad == 0 else f'{bad} violations'}")
        total += bad
    return EXIT_OK if total == 0 else EXIT_RUNTIME


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Random-matrix spectral measure laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample spectra from an ensemble to CSV")
    p.add_argument("--ensemble", required=True,
                   choices=[t.value for t in EnsembleTag
                            if t not in (EnsembleTag.COMPRESSION, EnsembleTag.RANDOMIZED_SUM)])
    p.add_argument("--n", type=int, required=True,
                   help="dimension (half-dimension for symplectic and cse)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("distance", help="Wasserstein distance between spectra")
    p.add_argument("--input", required=True, help="spectrum CSV")
    p.add_argument("--reference", required=True,
                   help="'uniform-circle', 'semicircle', or a second spectrum CSV")
    p.add_argument("--metric", choices=["geodesic", "chordal", "euclidean"],
                   default="geodesic")
    p.add_argument("--p", type=float, default=1.0)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("experiment", help="run an experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=None,
                   help="override the plan seed (precedence: flag > SPECLAB_SEED > plan)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("manifest-check",
                       help="verify records.csv and summary.json against their manifest")
    p.add_argument("dir")
    p.set_defaults(func=cmd_manifest_check)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", required=True,
                   choices=["lipschitz", "transport-oracle", "group-membership", "all"])
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpeclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
