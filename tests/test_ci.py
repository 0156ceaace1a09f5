"""The Tier-1 workflow installs the package's ``test`` extra alone, runs the
installed ``speclab verify``, ``experiment`` and ``manifest-check`` and then
ROADMAP.md's Tier-1 command, with every thread variable the CLI records at
one, on the Python floor pyproject.toml declares and on 3.11, under a job
timeout."""

import os
import re

import pytest

from speclab import cli

yaml = pytest.importorskip("yaml")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(*path):
    with open(os.path.join(ROOT, *path), encoding="utf-8") as fh:
        return fh.read()


def test_tier1_workflow_runs_the_roadmap_command():
    job = yaml.safe_load(read(".github", "workflows", "tier1.yml"))["jobs"]["tier1"]
    floor = re.search(r'requires-python = ">=(\d+\.\d+)"', read("pyproject.toml")).group(1)
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", read("ROADMAP.md")).group(1)
    assert job["strategy"]["matrix"]["python-version"] == [floor, "3.11"]
    assert job["env"] == {name: "1" for name in cli.THREAD_VARS}
    # the suite forks pool workers: a stuck one must not hold the runner for hours
    assert 0 < job["timeout-minutes"] <= 30
    runs = [step.get("run") for step in job["steps"]]
    assert runs[-5:] == ['python -m pip install ".[test]"',
                         "speclab verify --suite all --trials 50",
                         "speclab experiment --plan plans/unitary_rate.json --out run --workers 2",
                         "speclab manifest-check run", command]


def test_the_test_extra_brings_this_module_its_yaml():
    # the workflow installs only ".[test]", so that extra must carry pyyaml
    extra = re.search(r"^test = \[([^\]]*)\]", read("pyproject.toml"), re.M).group(1)
    assert '"pyyaml"' in extra.split(", ")
