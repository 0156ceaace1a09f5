"""Command-line surface: sampling spectra, computing distances, running
experiment plans, and verifying property suites.

Exit codes: 0 success/verified, 1 runtime or data error, 2 usage or schema
error.  Commands refuse by raising: ``main`` alone prints the one
``error: <message>`` line, and exits 2 for a ``UsageError`` and 1 for any
other ``SpeclabError`` or a ``MemoryError``.

The three property suites of ``verify`` live here, each a function of
(trials, seed) that returns its count of violations.  Only ``experiment``
imports ``experiments``, and with it the process pool, so the other commands
do not pay for it.
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
from .ensembles import (ENSEMBLES, MAX_DIMENSION, EnsembleTag, _j_times, haar_unitary,
                        randomized_sum, randomized_sum_factors)
from .errors import SpeclabError, ContractError
from .matlin import _weyl_violation, eig_hermitian, eig_unitary_angles, hold_heap
from .measures import TWO_PI, EmpiricalMeasureCircle, EmpiricalMeasureLine, widest_gap_middle
from .rng import StreamKey, subkey
from .transport import (
    ORACLE_MAX_ATOMS,
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
        writer.writerow([r] + [FLOAT_FMT % v for v in spec])
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
    if not 1.0 <= args.p <= 2.0:
        raise UsageError(f"--p must lie in [1, 2], got {args.p!r}")
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
    else the file."""
    from .experiments import ExperimentPlan

    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return ExperimentPlan.from_json(raw, seed=seed_override)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["ensemble", "n", "replicate", "statistic", "value", "master_seed"])
    ordered = sorted(records, key=lambda r: (r.n, r.replicate, r.statistic))
    for rec in ordered:
        writer.writerow([rec.ensemble, rec.n, rec.replicate, rec.statistic,
                         FLOAT_FMT % rec.value, rec.seed])
    return buf.getvalue()


def _environment(heap_held: bool) -> dict:
    """The manifest's record of what ran a plan: the Python and numpy
    versions, numpy's BLAS library, the thread variables set, the usable CPUs
    and whether the heap is held.  A plan never imports scipy, so it has no
    version here."""
    from .experiments import usable_cpus

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.26: show_config takes no mode
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
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


def _repeated(m, count: int):
    """The same measure on count atoms: each atom of m repeated count/len(m) times."""
    return type(m)(np.repeat(m.atoms, count // len(m)))


def _verify_transport_oracle(trials: int, seed: int) -> int:
    """Each trial checks four pairs against the assignment oracle: a circle
    and a line pair of equal counts, then, on atoms repeated to a common
    count of at most ORACLE_MAX_ATOMS, a circle pair of any counts and a
    line pair whose counts divide one another."""
    rng = StreamKey(seed, "verify/transport-oracle", ORACLE_MAX_ATOMS).generator()
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(1, 9))
        size = int(rng.integers(1, ORACLE_MAX_ATOMS + 1))
        k1, k2 = rng.choice([k for k in range(1, size + 1) if size % k == 0], 2)
        c1, c2, c3, c4 = (EmpiricalMeasureCircle(rng.uniform(0, 2 * np.pi, k))
                          for k in (n, n, k1, k2))
        l1, l2, l3, l4 = (EmpiricalMeasureLine(rng.normal(size=k)) for k in (n, n, k1, size))
        p, q = rng.uniform(1.0, 2.0, 2)
        pairs = [
            (w1_circle_pair(c1, c2), assignment_oracle(c1, c2, geodesic_distance, 1.0)),
            (wp_line(l1, l2, p), assignment_oracle(l1, l2, line_distance, p)),
            (w1_circle_pair(c3, c4), assignment_oracle(_repeated(c3, size), _repeated(c4, size),
                                                       geodesic_distance, 1.0)),
            (wp_line(l4, l3, q), assignment_oracle(l4, _repeated(l3, size), line_distance, q)),
        ]
        bad += sum(abs(fast - exact) > 1e-9 for fast, exact in pairs)
    return bad


def _angle_gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest difference between two angle multisets of one size, matched in
    sorted order around the circle from the middle of want's widest gap."""
    cut = widest_gap_middle(want)
    return float(np.max(np.abs(np.sort(np.mod(got - cut, TWO_PI))
                               - np.sort(np.mod(want - cut, TWO_PI)))))


def _verify_group_membership(trials: int, seed: int) -> int:
    """Draw from every circle row and count the draws its sampler refuses:
    each certifies its group (unitarity in ``UnitaryView``, the determinant
    for SU, SO and SO-, U J U^T = J for Sp).  COE symmetry and CSE
    self-duality, J M^T J^T = M, which no sampler certifies, are checked here,
    and so is each paired row's spectrum: its angles must lie within 1e-10 of
    the Cayley route's on the same draw."""
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
                    draw = row.sample(amb, key)
                    off = row.paired and _angle_gap(row.eig(draw).atoms,
                                                    eig_unitary_angles(draw).atoms) > 1e-10
                except SpeclabError:
                    bad += 1
                    continue
                bad += int(off)
                m = draw.entries
                if tag in (EnsembleTag.COE, EnsembleTag.CSE):  # M = M^T, M = J M^T J^T
                    dual = m.T if tag is EnsembleTag.COE else _j_times(_j_times(m).T)
                    bad += int(np.linalg.norm(dual - m) > 1e-10 * np.sqrt(amb))
    return bad


def _verify_lipschitz(trials: int, seed: int) -> int:
    """Check four theorems on random instances at n <= 16, each up to a slack
    of 1e-8: the spectral-measure bound d2(mu_A, mu_B) <= n^{-1/2} ||A - B||,
    the conjugation bound ||U A U* - V A V*|| <= delta(A) ||U - V||, with
    delta(A) the spectral diameter, the same bound on a k x k compression,
    and Weyl containment for U A U* + B.  Any violation is an implementation
    bug; when there are any, stderr gets the count of each inequality."""
    slack = 1e-8
    sizes = StreamKey(seed, "lipschitz_suite/sizes", 16).generator()
    hw = conj = comp = weyl = 0
    for t in range(trials):
        n = int(sizes.integers(2, 17))
        key = StreamKey(seed, "lipschitz_suite", n, t)
        a, b, u = randomized_sum_factors(n, key)
        v = haar_unitary(n, subkey(key, "v"))

        ma, mb = eig_hermitian(a), eig_hermitian(b)
        ea, eb = ma.atoms, mb.atoms
        hw += wp_line(ma, mb, 2.0) > np.linalg.norm(a.entries - b.entries) / np.sqrt(n) + slack

        bound = (ea[-1] - ea[0]) * np.linalg.norm(u.entries - v.entries) + slack
        uau = u.entries @ a.entries @ u.entries.conj().T
        vav = v.entries @ a.entries @ v.entries.conj().T
        conj += np.linalg.norm(uau - vav) > bound
        k = int(sizes.integers(1, n + 1))
        comp += np.linalg.norm(uau[:k, :k] - vav[:k, :k]) > bound

        weyl += _weyl_violation(ea, eb, eig_hermitian(randomized_sum(a, b, u)).atoms, slack)
    total = int(hw + conj + comp + weyl)
    if total:
        print(f"lipschitz: hw={hw} conjugation={conj} compression={comp} weyl={weyl}",
              file=sys.stderr)
    return total


# each suite maps (trials, seed) to its count of violations
SUITES = {
    "lipschitz": _verify_lipschitz,
    "transport-oracle": _verify_transport_oracle,
    "group-membership": _verify_group_membership,
}


def cmd_verify(args) -> int:
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
                   help="override the plan seed")
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
