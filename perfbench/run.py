"""speclab benchmark: drives the ``speclab`` CLI as a user does and measures it
from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is started from ``src`` with
BLAS and OpenMP limited to one thread.  ``--trace 0`` repeats the workload
until ``--seconds`` are used and reports the end-to-end metrics, with times
scaled by the run's calibration launches to a reference host speed.  ``--trace 1``
runs it twice traced (the second time with tracemalloc around transport
calls), between two untraced runs, and reports the per-layer metrics.  Either
way the last line of standard output is one JSON object; a fuller record,
with run metadata, goes to ``.perfbench_runs/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
from workloads import DEFAULT_SEED, WORKLOADS, Outcome, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
REQUIRED = ("src/speclab/cli.py", "plans/unitary_rate.json")

THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
SETUP_PROBES = 1  # import-only launches per timed run, on top of every CLI launch
IMPORT_PROBES = 3  # -X importtime launches per traced run
LAUNCH_TIMEOUT_S = 150
MB = 2**20

# The calibration launch: fixed work that shares no code with speclab, in the
# same mix as a speclab command (interpreter start, numpy and scipy imports,
# LAPACK, Python bytecode, memory).  The shared host's speed drifts by up to
# 1.8x over minutes, and every workload and the calibration drift together;
# a timed run scales its times by CALIBRATION_REF_S / (median calibration time
# of the run).  One calibration launch alone varies by 10-20%, so a timed run
# makes one after every program launch and more in the time its last
# iteration leaves unused.
CALIBRATION = """
import numpy as np, scipy.linalg
a = np.random.default_rng(0).standard_normal((96, 192)).view(complex)
for _ in range(10):
    scipy.linalg.eigvals(a)
x = 0
for i in range(400_000):
    x += i * i % 7
np.ones(2**24).sum()
"""
CALIBRATION_REF_S = 0.85  # the calibration's wall time on the reference host

META_SCRIPT = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


@dataclass
class Launch:
    """One program start and what it cost, with rusage from ``wait4``, which
    covers the process and every child it waited for."""

    argv: tuple
    role: str  # "work", "check" or "setup"
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    stdout: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Iteration:
    launches: list[Launch]
    outcome: Outcome
    spans: list[Path]

    def work(self) -> list[Launch]:
        return [x for x in self.launches if x.role == "work"]

    @property
    def wall_s(self) -> float:
        return sum(x.wall_s for x in self.work())

    @property
    def cpu_s(self) -> float:
        return sum(x.cpu_s for x in self.work())

    @property
    def rss_mb(self) -> float:
        return max(x.rss_mb for x in self.work())


class Runner:
    """Starts speclab processes from the checkout, one at a time."""

    def __init__(self, work_dir: Path, calibrating: bool):
        self.work_dir = work_dir
        self.calibrating = calibrating
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work_dir),
                        **THREAD_VARS)
        self.env.pop("SPECLAB_SEED", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.launches = 0
        self.calibrations: list[float] = []

    def run(self, cmd: list[str], stdout, stderr) -> tuple[int, float, object]:
        """Start ``cmd``, wait for it, and return (exit code, wall s, rusage)."""
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr,
                                start_new_session=True)
        timer = threading.Timer(LAUNCH_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, time.monotonic() - start, usage

    def launch(self, argv: tuple, role: str, mode: str = "off", run_id: str = "-",
               spans: Path | None = None) -> Launch:
        self.launches += 1
        base = self.work_dir / f"launch{self.launches}"
        stamp = Path(f"{base}.stamp")
        cmd = [sys.executable, str(HERE / "launch.py"), str(stamp), mode,
               str(spans or "-"), run_id, *argv]
        with open(f"{base}.out", "w+b") as out, open(f"{base}.err", "w+b") as err:
            start = time.monotonic()
            code, wall, usage = self.run(cmd, out, err)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        launch = Launch(argv, role, code, wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss * 1024 / MB, None, stdout)
        if code != 0:
            launch.problems.append(f"exit code {code}: {stderr.strip()[-500:]}")
        if "Traceback (most recent call last)" in stderr:
            launch.problems.append(f"traceback: {stderr.strip()[-500:]}")
        try:
            ready, module = stamp.read_text(encoding="utf-8").split("\n")[:2]
            launch.setup_s = float(ready) - start
            if not Path(module).resolve().is_relative_to(ROOT / "src"):
                launch.problems.append(f"speclab imported from {module}, not from src")
        except (OSError, ValueError):
            launch.problems.append("speclab.cli never became ready")
        if self.calibrating:
            self.calibrate()
        return launch

    def iteration(self, workload: Workload, seed: int, tag: str, mode: str = "off") -> Iteration:
        out = self.work_dir / tag
        out.mkdir()
        launches, spans = [], []
        for i, step in enumerate(workload.steps(seed, out)):
            span_file = out / f"spans{i}.json" if mode != "off" else None
            launches.append(self.launch(step.argv, step.role, mode, f"{workload.name}/{tag}",
                                        span_file))
            if span_file is not None and span_file.exists():
                spans.append(span_file)
        outcome = workload.check(seed, out, [x.stdout for x in launches])
        for step, problems in outcome.problems.items():
            launches[step].problems.extend(problems)
        return Iteration(launches, outcome, spans)

    def calibrate(self) -> None:
        """Run the calibration launch and keep its wall time."""
        code, wall, _ = self.run([sys.executable, "-c", CALIBRATION], subprocess.DEVNULL,
                                 subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"the calibration launch exited with code {code}")
        self.calibrations.append(wall)

    def import_times(self) -> tuple[float, float]:
        path = self.work_dir / "importtime.err"
        with open(path, "w+b") as err:
            code, _, _ = self.run([sys.executable, "-X", "importtime", "-c", "import speclab.cli"],
                                  subprocess.DEVNULL, err)
            err.seek(0)
            text = err.read().decode("utf-8", "replace")
        if code != 0:
            raise RuntimeError(f"importing speclab.cli failed: {text[-500:]}")
        return layers.import_times(text)


def timed_run(runner: Runner, workload: Workload, seed: int, seconds: int):
    """Repeat the workload while another iteration fits in ``seconds``, then
    spend what is left of them on calibration launches.

    Returns, per end-to-end metric, (reported value, sample count, raw median):
    the reported times are medians scaled to the reference host speed."""
    run_start = time.monotonic()
    runner.calibrate()
    runner.calibrate()
    probes = [runner.launch((), "setup") for _ in range(SETUP_PROBES)]
    iterations: list[Iteration] = []
    start = time.monotonic()
    while True:
        iterations.append(runner.iteration(workload, seed, f"it{len(iterations)}"))
        elapsed = time.monotonic() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            break
    while time.monotonic() - run_start + statistics.median(runner.calibrations) <= seconds:
        runner.calibrate()
    scale = CALIBRATION_REF_S / statistics.median(runner.calibrations)
    setups = [x.setup_s for it in iterations for x in it.launches if x.setup_s is not None]
    setups += [x.setup_s for x in probes if x.setup_s is not None]
    samples = {
        "wall_s": ([it.wall_s for it in iterations], scale),
        "throughput": ([it.outcome.items / it.wall_s for it in iterations], 1 / scale),
        "cpu_s": ([it.cpu_s for it in iterations], scale),
        "peak_rss_mb": ([it.rss_mb for it in iterations], 1.0),
        "setup_s": (setups, scale),
    }
    measured = {k: (statistics.median(v) * factor, len(v), statistics.median(v))
                for k, (v, factor) in samples.items()}
    launches = probes + [x for it in iterations for x in it.launches]
    return measured, launches


def traced_run(runner: Runner, workload: Workload, seed: int):
    """Import breakdown, then two traced iterations (the second with
    tracemalloc) between two untraced ones, and for a pooled workload a
    traced serial one.  The untraced pair brackets the traced runs so that a
    steady drift in machine speed cancels from the overhead ratio."""
    imports = [runner.import_times() for _ in range(IMPORT_PROBES)]
    before = runner.iteration(workload, seed, "untraced_before")
    traced = runner.iteration(workload, seed, "traced", mode="time")
    alloc = runner.iteration(workload, seed, "traced_alloc", mode="alloc")
    after = runner.iteration(workload, seed, "untraced_after")
    serial = traced
    if workload.serial:
        serial = runner.iteration(WORKLOADS[workload.serial], seed, "traced_serial", mode="time")
    iterations = [before, traced, alloc, after] + ([serial] if serial is not traced else [])

    metrics = layers.per_layer(layers.span_totals(traced.spans), traced.outcome.d1)
    recount = layers.per_layer(layers.span_totals(alloc.spans), alloc.outcome.d1)
    for name in layers.EXACT_COUNTS:
        if metrics[name] != recount[name]:
            alloc.launches[0].problems.append(
                f"{name} is {metrics[name]} in one traced run and {recount[name]} in the other")
    serial_pool = layers.per_layer(layers.span_totals(serial.spans), serial.outcome.d1)
    metrics["transport.peak_alloc_mb"] = layers.span_totals(alloc.spans).peak_bytes / MB
    metrics["experiments.pool_overhead_s"] = (
        metrics["experiments.pool_wall_s"]
        - serial_pool["experiments.pool_wall_s"] / workload.workers)
    metrics["cli.import_s"] = statistics.median(cli for cli, _ in imports)
    metrics["cli.import_scipy_stats_s"] = statistics.median(stats for _, stats in imports)
    untraced_wall = statistics.median([before.wall_s, after.wall_s])
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced_wall - 1.0
    return {k: (v, 1, v) for k, v in metrics.items()}, [x for it in iterations for x in it.launches]


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _loadavg() -> list[str] | None:
    try:
        return Path("/proc/loadavg").read_text(encoding="ascii").split()[:3]
    except OSError:
        return None


def _metadata(runner: Runner) -> dict:
    out = subprocess.run([sys.executable, "-c", META_SCRIPT], cwd=ROOT, env=runner.env,
                         capture_output=True, text=True, timeout=60)
    meta = json.loads(out.stdout) if out.returncode == 0 else {"error": out.stderr[-500:]}
    meta.update(threads=THREAD_VARS, nproc=len(os.sched_getaffinity(0)),
                cpu_count=os.cpu_count(), git_commit=_git_commit())
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a speclab source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work_dir = RUNS / f"{label}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    loadavg_start = _loadavg()
    try:
        build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/speclab"],
                               cwd=ROOT, capture_output=True, text=True)
        if build.returncode != 0:
            print(f"error: compiling src/speclab failed: {build.stdout}{build.stderr}",
                  file=sys.stderr)
            return 2
        runner = Runner(work_dir, calibrating=not args.trace)
        meta = _metadata(runner)
        if args.trace:
            measured, launches = traced_run(runner, workload, args.seed)
        else:
            measured, launches = timed_run(runner, workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    meta["loadavg"] = {"start": loadavg_start, "end": _loadavg()}

    failed = sum(1 for x in launches if x.problems)
    attempted = len(launches)
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]} for m in wanted}

    why = {w["name"]: w["why"] for w in declared["workloads"]}
    print(f"workload {workload.name} ({why[workload.name]})")
    print(f"seed {args.seed}, trace {args.trace}, throughput unit: {workload.item}/s")
    for m in wanted:
        value, samples, raw = measured[m["name"]]
        unscaled = "" if raw == value else f"unscaled {raw:<10.6g} "
        print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<6} {unscaled}samples {samples}")
    print(f"  {'fail_ratio':<30} {failed / attempted:>14.6g} {'ratio':<6} "
          f"{failed} of {attempted} launches")
    if runner.calibrations:
        print(f"  {'calibration_s':<30} {statistics.median(runner.calibrations):>14.6g} {'s':<6} "
              f"reference {CALIBRATION_REF_S:<9g} samples {len(runner.calibrations)}")
    for x in launches:
        for problem in x.problems:
            print(f"FAILED {' '.join(x.argv) or '(import)'}: {problem}")

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: dict(zip(("value", "samples", "unscaled"), measured[m["name"]]),
                                      unit=m["unit"]) for m in wanted},
              "calibrations_s": runner.calibrations,
              "launches": [{"argv": x.argv, "role": x.role, "code": x.code, "wall_s": x.wall_s,
                            "cpu_s": x.cpu_s, "rss_mb": x.rss_mb, "setup_s": x.setup_s,
                            "problems": x.problems} for x in launches]}
    (RUNS / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
