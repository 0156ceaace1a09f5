"""Command-line surface: sampling spectra, computing distances, running
experiment plans, and verifying property suites.

Exit codes: 0 success/verified, 1 runtime or data error, 2 usage or schema
error.  Commands refuse by raising: ``main`` alone prints the one
``error: <message>`` line, and exits 2 for a ``UsageError`` and 1 for any
other ``SpeclabError`` or a ``MemoryError``.  The environment variable
SPECLAB_SEED overrides a plan's seed; explicit --seed flags override both.

``experiments``, and with it the process pool, is imported only inside the
commands that run plans or property suites (``experiment`` and ``verify``),
so ``sample``, ``distance`` and ``manifest-check`` do not pay for it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import sys
import warnings
from dataclasses import asdict
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .ensembles import ENSEMBLES, MAX_DIMENSION, EnsembleTag
from .errors import SpeclabError, ContractError
from .matlin import hold_heap, hs_norm
from .measures import EmpiricalMeasureCircle, EmpiricalMeasureLine
from .rng import StreamKey
from .transport import (
    assignment_oracle,
    geodesic_distance,
    line_distance,
    semicircle_cdf,
    w1_circle_pair,
    w1_circle_uniform,
    w1_line_vs_cdf,
    wp_line,
)

if TYPE_CHECKING:
    from .experiments import ExperimentPlan

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

FLOAT_FMT = "%.17g"


class UsageError(SpeclabError):
    """A refusal of the command line or the plan it names: exit 2."""


# the BLAS and OpenMP thread counts a run inherits; manifest.json records those set
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


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


def _write_whole(path: str, payload: str) -> None:
    """Write payload to a temporary file beside path and move it into place,
    so that path holds either its old contents or all of payload."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _write_json(path: str, obj) -> str:
    """Write obj as indented, key-sorted JSON; returns the file's sha256."""
    payload = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _write_whole(path, payload)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    tag = EnsembleTag(args.ensemble)
    row = ENSEMBLES[tag]  # argparse choices leave only rows with a sampler
    n = 2 * args.n if row.half_dimension else args.n  # ambient dimension
    if n > MAX_DIMENSION:
        raise UsageError(f"--n {args.n} gives ambient dimension {n}, above the largest "
                         f"supported, {MAX_DIMENSION}")
    colname = "angle" if row.domain == "circle" else "eigenvalue"
    started = _utcnow()
    spectra = [row.spectrum(n, StreamKey(args.seed, tag.value, n, r)).atoms
               for r in range(args.count)]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate"] + [f"{colname}_{i}" for i in range(n)])
    for r, spec in enumerate(spectra):
        writer.writerow([r] + [_fmt(v) for v in spec])
    payload = buf.getvalue()
    manifest = {
        "tool_version": __version__,
        "master_seed": args.seed,
        "ensemble": tag.value,
        "ambient_dim": n,
        "count": args.count,
        "domain": row.domain,
        "started_utc": started,
        "finished_utc": _utcnow(),
        "record_count": len(spectra),
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    sidecar = args.out + ".manifest.json"
    try:
        # an earlier sample's sidecar would vouch for this CSV if a write below fails
        with contextlib.suppress(FileNotFoundError):
            os.remove(sidecar)
        _write_whole(args.out, payload)
        _write_json(sidecar, manifest)
    except OSError as exc:
        raise ContractError(f"cannot write {args.out}: {exc}") from exc
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
    except csv.Error as exc:  # a field over csv.field_size_limit(), a stray NUL
        raise ContractError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: not UTF-8 text: {exc}") from exc
    if not values:
        raise ContractError(f"{path}: no spectra found")
    return domain, np.concatenate(values)


def cmd_distance(args) -> int:
    domain, atoms = _read_spectrum_csv(args.input)
    pair = args.reference not in ("uniform-circle", "semicircle")
    if args.p != 1.0 and not (pair and domain == "line"):
        raise UsageError("--p applies only to a pair of line spectra")
    if args.reference == "uniform-circle":
        if domain != "circle":
            raise ContractError("uniform-circle reference needs angle spectra")
        value = w1_circle_uniform(EmpiricalMeasureCircle(atoms))
    elif args.reference == "semicircle":
        if domain != "line":
            raise ContractError("semicircle reference needs line spectra")
        value = w1_line_vs_cdf(EmpiricalMeasureLine(atoms), semicircle_cdf,
                               support=(-2.0, 2.0))
    else:
        ref_domain, ref_atoms = _read_spectrum_csv(args.reference)
        if ref_domain != domain:
            raise ContractError("input and reference spectra live on different domains")
        if domain == "circle":
            value = w1_circle_pair(EmpiricalMeasureCircle(atoms),
                                   EmpiricalMeasureCircle(ref_atoms))
        else:
            value = wp_line(EmpiricalMeasureLine(atoms),
                            EmpiricalMeasureLine(ref_atoms), args.p)
    if domain == "circle":
        # (2/pi) geo <= chord <= geo pointwise, so the geodesic W1 brackets the chordal one
        out = {"metric": "circle_geodesic", "algorithm": "circle_cdf",
               "chordal_lower": 2.0 / np.pi * value, "chordal_upper": value}
    else:
        out = {"metric": "line_euclidean",
               "algorithm": "sorted_pairing" if pair else "cdf_integral"}
    out.update(value=value, p=args.p)
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment


def load_plan(path: str, seed_override: int | None = None) -> ExperimentPlan:
    """The plan in a JSON plan file, its seed taken from ``seed_override``,
    else SPECLAB_SEED, else the file."""
    from .experiments import ExperimentPlan

    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    seed = seed_override
    if seed is None and (env := os.environ.get("SPECLAB_SEED")) is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ContractError(f"SPECLAB_SEED must be an integer, got {env!r}") from None
    return ExperimentPlan.from_json(raw, seed=seed)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ensemble", "n", "replicate", "statistic", "value", "master_seed"])
    ordered = sorted(records, key=lambda r: (r.n, r.replicate, r.statistic))
    for rec in ordered:
        writer.writerow([rec.ensemble, rec.n, rec.replicate, rec.statistic,
                         _fmt(rec.value), rec.seed])
    return buf.getvalue()


def _environment(heap_held: bool) -> dict:
    """The manifest's record of what ran a plan: the Python and numpy
    versions, the thread variables set, the usable CPUs and whether the heap
    is held.  A plan never imports scipy, so it has no version here."""
    from .experiments import usable_cpus

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
        "nproc": usable_cpus(),
        "heap_held": heap_held,
    }


def cmd_experiment(args) -> int:
    from .experiments import run_rate_experiment

    try:
        plan = load_plan(args.plan, seed_override=args.seed)
    # ValueError: not UTF-8, not JSON, or an integer longer than Python converts;
    # RecursionError: arrays or objects nested deeper than json.load descends
    except (ContractError, OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"invalid plan: {exc}") from exc

    started = _utcnow()
    manifest_path = os.path.join(args.out, "manifest.json")
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ContractError(f"cannot create {args.out}: {exc}") from exc
    # an earlier run's manifest would vouch for its files after this run fails
    try:
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest_path)
    except OSError as exc:
        raise ContractError(f"cannot write to {args.out}: {exc}") from exc
    rate = run_rate_experiment(plan, workers=args.workers)

    csv_payload = records_to_csv(rate.records)
    try:
        _write_whole(os.path.join(args.out, "records.csv"), csv_payload)
        summary_sha256 = _write_json(os.path.join(args.out, "summary.json"), rate.summary())
        manifest = {
            "tool_version": __version__,
            "master_seed": plan.seed,
            "plan": asdict(plan),
            "started_utc": started,
            "finished_utc": _utcnow(),
            "record_count": len(rate.records),
            "records_sha256": hashlib.sha256(csv_payload.encode("utf-8")).hexdigest(),
            "summary_sha256": summary_sha256,
            "environment": _environment(args.heap_held),
        }
        _write_json(manifest_path, manifest)
    except OSError as exc:
        raise ContractError(f"cannot write to {args.out}: {exc}") from exc

    print(f"ensemble={plan.ensemble.value} records={len(rate.records)}")
    if not plan.t_grid and rate.fit is not None:
        fit, threshold = rate.fit, ENSEMBLES[plan.ensemble].rate_slope_max
        verdict = "PASS" if rate.passed else "FAIL"
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
        raise ContractError(str(exc)) from exc
    except (ContractError, ValueError, RecursionError) as exc:  # as for a plan file
        raise ContractError(f"{path}: {exc}") from exc
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
        v_cdf = w1_circle_pair(m1, m2)
        v_orc = assignment_oracle(m1, m2, geodesic_distance, 1.0)
        if abs(v_cdf - v_orc) > 1e-9:
            bad += 1
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        l1, l2 = EmpiricalMeasureLine(x1), EmpiricalMeasureLine(x2)
        p = float(rng.uniform(1.0, 2.0))
        w_srt = wp_line(l1, l2, p)
        w_orc = assignment_oracle(l1, l2, line_distance, p)
        if abs(w_srt - w_orc) > 1e-9:
            bad += 1
    return bad


def _verify_group_membership(trials: int, seed: int) -> int:
    """Draw from every circle row and count the draws its sampler refuses:
    each certifies its group (unitarity in ``UnitaryView``, the determinant
    for SU, SO and SO-, U J U^T = J for Sp).  COE symmetry, which no sampler
    certifies, is checked here."""
    bad = 0
    dims = [2, 3, 8, 17, 64]
    per_dim = max(1, trials // len(dims))
    for n in dims:
        for r in range(per_dim):
            for tag, row in ENSEMBLES.items():
                if row.domain != "circle":
                    continue
                amb = n + 1 if (row.half_dimension and n % 2) else n
                key = StreamKey(seed, f"verify/{tag.value}", amb, r)
                try:
                    m = row.sample(amb, key).entries
                except SpeclabError:
                    bad += 1
                    continue
                if tag is EnsembleTag.COE and hs_norm(m - m.T) > 1e-10 * np.sqrt(amb):
                    bad += 1
    return bad


def _verify_lipschitz(trials: int, seed: int) -> int:
    """The Lipschitz suite's violations; any are reported per inequality on stderr."""
    from .experiments import run_lipschitz_suite

    report = run_lipschitz_suite(trials, 16, seed)
    if report.total:
        print(f"lipschitz: {report}", file=sys.stderr)
    return report.total


# each suite maps (trials, seed) to its count of violations
SUITES = {
    "lipschitz": _verify_lipschitz,
    "transport-oracle": _verify_transport_oracle,
    "group-membership": _verify_group_membership,
}


def cmd_verify(args) -> int:
    # the suites seed numpy's default_rng, which refuses a negative seed
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    total = 0
    for suite in SUITES if args.suite == "all" else [args.suite]:
        bad = SUITES[suite](args.trials, args.seed)
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
                   choices=[t.value for t, row in ENSEMBLES.items() if row.sampler])
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
                   choices=[*SUITES, "all"])
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning as one ``warning: <message>`` line, with no source line."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command: the one place that prints ``error:`` and picks exit 1 or 2."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # restores warnings.showwarning on the way out
        warnings.showwarning = _show_warning
        try:
            for flag in ("n", "count", "workers", "trials"):  # the flags that count something
                if (value := getattr(args, flag, 1)) < 1:
                    raise UsageError(f"--{flag} must be at least 1, got {value}")
            # keep the pages each cell's matrices fault in for the next cell; pool
            # workers hold their own heaps through the pool's initializer
            args.heap_held = hold_heap()
            return args.func(args)
        except SpeclabError as exc:
            message = str(exc)
            code = EXIT_USAGE if isinstance(exc, UsageError) else EXIT_RUNTIME
        except MemoryError as exc:
            message, code = "out of memory" + (f": {exc}" if str(exc) else ""), EXIT_RUNTIME
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
