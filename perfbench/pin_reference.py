"""Regenerate reference.json: the outputs of each workload at DEFAULT_SEED.

    python3 perfbench/pin_reference.py

Run it only on a commit whose outputs are known good; the benchmark fails
any run at DEFAULT_SEED whose outputs stray more than ABS_TOL from these.
"""

import json
import os
import shutil

import run
from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS

PINNED = ("circle_rate", "line_rate", "pooled_distance")


def main() -> int:
    work_dir = run.RUNS / f"pin-{os.getpid()}"
    work_dir.mkdir(parents=True)
    runner = run.Runner(work_dir)
    reference = {"seed": DEFAULT_SEED}
    try:
        for name in PINNED:
            workload = WORKLOADS[name]
            out = work_dir / name
            out.mkdir()
            stdouts = []
            for step in workload.steps(DEFAULT_SEED, out):
                launch = runner.launch(step.argv, step.role)
                if launch.problems:
                    raise SystemExit(f"{name}: {launch.problems}")
                stdouts.append(launch.stdout)
            reference[name] = workload.values(out, stdouts)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE.write_text(_format(reference), encoding="utf-8")
    return 0


def _format(reference: dict) -> str:
    """One JSON value per line, so a re-pin shows as a readable diff."""
    def value(v):
        if isinstance(v, list):
            return "[\n" + ",\n".join(json.dumps(item) for item in v) + "\n]"
        return json.dumps(v)
    return "{\n" + ",\n".join(f"{json.dumps(k)}: {value(v)}" for k, v in reference.items()) + "\n}\n"


if __name__ == "__main__":
    raise SystemExit(main())
