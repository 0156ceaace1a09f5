"""The benchmark's workloads: the speclab commands each one runs, one after
another, and the checks on what those commands wrote.

Every workload is a closed loop with one client.  The benchmark seed goes to
the CLI as ``--seed``; at the plan's own seed (``DEFAULT_SEED``) the outputs
are also compared with values pinned in ``reference.json``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 20260826
ABS_TOL = 1e-12  # pinned-value tolerance; BLAS threading alone moves d1 by 2.5e-16
SLOPE_MAX = -0.6

RECORDS_HEADER = ["ensemble", "n", "replicate", "statistic", "value", "master_seed"]


@dataclass(frozen=True)
class Step:
    argv: tuple[str, ...]
    role: str  # "work" counts toward wall_s, cpu_s and peak_rss_mb; "check" does not


@dataclass
class Outcome:
    """What one iteration produced: work items for throughput, the number
    of d1 results, and failed checks keyed by the step that wrote the output."""

    items: int = 0
    d1: int = 0
    problems: dict[int, list[str]] = field(default_factory=dict)

    def fail(self, step: int, message: str) -> None:
        self.problems.setdefault(step, []).append(message)


@dataclass(frozen=True)
class Workload:
    """A workload; why it exists is recorded in BENCHMARK.json and README.md."""

    name: str
    item: str  # what one unit of throughput is
    steps: Callable[[int, Path], list[Step]]
    values: Callable[[Path, list[str]], object]  # outputs compared with reference.json
    check: Callable[[int, Path, list[str]], Outcome]
    workers: int = 1
    serial: str | None = None  # workload giving the serial cell time for pool overhead


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= ABS_TOL


# ---------------------------------------------------------------------------
# rate experiments


def _read_records(run_dir: Path) -> list[list[str]]:
    with open(run_dir / "records.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _d1_values(out: Path, stdouts: list[str]) -> list[list]:
    rows = _read_records(out / "run")[1:]
    return [[int(r[1]), int(r[2]), float(r[4])] for r in rows if r[3] == "d1"]


def _rate_workload(name: str, item: str, plan: str, workers: int,
                   per_n: dict[str, int], grid: tuple[int, ...], reference: str,
                   serial: str | None = None) -> Workload:
    total = len(grid) * sum(per_n.values())

    def steps(seed: int, out: Path) -> list[Step]:
        run = str(out / "run")
        return [
            Step(("experiment", "--plan", plan, "--out", run,
                  "--workers", str(workers), "--seed", str(seed)), "work"),
            Step(("manifest-check", run), "check"),
        ]

    def check(seed: int, out: Path, stdouts: list[str]) -> Outcome:
        result = Outcome()
        try:
            rows = _read_records(out / "run")
            if not rows or rows[0] != RECORDS_HEADER:
                raise ValueError("records.csv header is wrong")
            records = [(int(n), int(r), stat, float(v), int(s)) for _, n, r, stat, v, s in rows[1:]]
            with open(out / "run" / "summary.json", encoding="utf-8") as fh:
                slope = json.load(fh)["rate"]["fit"]["slope"]
        except (OSError, KeyError, TypeError, ValueError) as exc:
            result.fail(0, f"unreadable outputs: {exc!r}")
            return result
        counts: dict[tuple[int, str], int] = {}
        for n, r, stat, value, record_seed in records:
            counts[(n, stat)] = counts.get((n, stat), 0) + 1
            if record_seed != seed:
                result.fail(0, f"record carries seed {record_seed}, not {seed}")
            if stat == "d1" and not (math.isfinite(value) and value > 0):
                result.fail(0, f"d1 at n={n} replicate={r} is {value}")
            if stat == "weyl_violation" and value != 0:
                result.fail(0, f"Weyl containment violated at n={n} replicate={r}")
        expected = {(n, stat): c for n in grid for stat, c in per_n.items()}
        if counts != expected:
            result.fail(0, f"record counts {sorted(counts.items())} != {sorted(expected.items())}")
        if not slope <= SLOPE_MAX:
            result.fail(0, f"rate slope {slope} is above {SLOPE_MAX}")
        if f"records={total}" not in stdouts[0]:
            result.fail(0, f"experiment did not report records={total}")
        if "manifest check OK" not in stdouts[1]:
            result.fail(1, "manifest-check did not report OK")
        if seed == DEFAULT_SEED:
            pinned = {(n, r): v for n, r, v in load_reference()[reference]}
            got = {(n, r): v for n, r, v in _d1_values(out, stdouts)}
            if got.keys() != pinned.keys():
                result.fail(0, "d1 records do not match the pinned (n, replicate) set")
            bad = [k for k in got.keys() & pinned.keys() if not _close(got[k], pinned[k])]
            if bad:
                result.fail(0, f"{len(bad)} d1 values differ from reference by more than {ABS_TOL}")
        result.items = len(records)
        result.d1 = sum(c for (_, stat), c in counts.items() if stat == "d1")
        return result

    return Workload(name, item, steps, _d1_values, check, workers, serial)


# ---------------------------------------------------------------------------
# pooled distances


POOLED_SAMPLES = (  # (file stem, ensemble, --n, --count, ambient dim, reference law)
    ("symplectic", "symplectic", 32, 64, 64, "uniform-circle"),
    ("gue", "gue_wigner", 64, 32, 64, "semicircle"),
)


def _pooled_steps(seed: int, out: Path) -> list[Step]:
    samples = [Step(("sample", "--ensemble", ens, "--n", str(n), "--count", str(count),
                     "--seed", str(seed), "--out", str(out / f"{stem}.csv")), "work")
               for stem, ens, n, count, _, _ in POOLED_SAMPLES]
    distances = [Step(("distance", "--input", str(out / f"{stem}.csv"),
                       "--reference", ref), "work")
                 for stem, _, _, _, _, ref in POOLED_SAMPLES]
    return samples + distances


def _distance_values(out: Path, stdouts: list[str]) -> dict[str, float]:
    first = len(POOLED_SAMPLES)
    return {ref: float(json.loads(stdouts[first + i].strip().splitlines()[-1])["value"])
            for i, (_, _, _, _, _, ref) in enumerate(POOLED_SAMPLES)}


def _pooled_check(seed: int, out: Path, stdouts: list[str]) -> Outcome:
    result = Outcome()
    for i, (stem, _, _, count, dim, _) in enumerate(POOLED_SAMPLES):
        path = out / f"{stem}.csv"
        try:
            payload = path.read_bytes()
            with open(f"{path}.manifest.json", encoding="utf-8") as fh:
                manifest = json.load(fh)
            rows = list(csv.reader(payload.decode("utf-8").splitlines()))
            atoms = [float(v) for row in rows[1:] for v in row[1:]]
        except (OSError, ValueError) as exc:
            result.fail(i, f"unreadable sample output: {exc!r}")
            continue
        if len(rows) != count + 1 or any(len(row) != dim + 1 for row in rows):
            result.fail(i, f"{stem}.csv is not {count} rows of {dim} values")
        if not all(math.isfinite(a) for a in atoms):
            result.fail(i, f"{stem}.csv holds a non-finite value")
        if manifest.get("record_count") != count:
            result.fail(i, f"manifest record_count {manifest.get('record_count')} != {count}")
        if manifest.get("sha256") != hashlib.sha256(payload).hexdigest():
            result.fail(i, f"{stem}.csv does not match its manifest sha256")
        result.items += len(atoms)
    first = len(POOLED_SAMPLES)
    try:
        values = _distance_values(out, stdouts)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        result.fail(first, f"unreadable distance output: {exc!r}")
        return result
    pinned = load_reference()["pooled_distance"] if seed == DEFAULT_SEED else None
    for i, (ref, value) in enumerate(values.items()):
        if not (math.isfinite(value) and value > 0):
            result.fail(first + i, f"distance to {ref} is {value}")
        if pinned is not None and not _close(value, pinned[ref]):
            result.fail(first + i, f"distance to {ref} {value!r} != pinned {pinned[ref]!r}")
    result.d1 = len(values)
    return result


# ---------------------------------------------------------------------------


CIRCLE_GRID = (8, 16, 32, 64, 128)
LINE_GRID = (16, 32, 64, 128)
UNITARY_PLAN = "plans/unitary_rate.json"
LINE_PLAN = "perfbench/plans/randomized_sum_rate.json"

WORKLOADS = {w.name: w for w in (
    _rate_workload("circle_rate", "d1 records", UNITARY_PLAN, 1, {"d1": 200}, CIRCLE_GRID,
                   "circle_rate"),
    _rate_workload("circle_rate_w2", "d1 records", UNITARY_PLAN, 2, {"d1": 200}, CIRCLE_GRID,
                   "circle_rate", serial="circle_rate"),
    _rate_workload("line_rate", "records", LINE_PLAN, 1, {"d1": 200, "weyl_violation": 200},
                   LINE_GRID, "line_rate"),
    Workload("pooled_distance", "transported atoms", _pooled_steps, _distance_values,
             _pooled_check),
)}
