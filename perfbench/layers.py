"""Per-layer metrics from the span files of one traced iteration, and the
import-time breakdown from ``python -X importtime``.

A span's self time is its duration minus the durations of its child spans.
A layer's self time is the sum of its spans' self times.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# Counts that two traced runs of one workload must reproduce exactly.
EXACT_COUNTS = ("rng.generators", "ensembles.draws", "matlin.eig_solves", "transport.calls",
                "transport.atoms", "experiments.pool_tasks", "experiments.pool_executors")

CHECKS = ("matlin.ComplexMatrix.__init__", "matlin.UnitaryView.__init__",
          "matlin.HermitianView.__init__", "matlin.det_lu")
REDUCE = ("experiments._summarize", "experiments.fit_loglog", "experiments.wilson_interval")
IO = ("cli.records_to_csv", "cli._read_spectrum_csv", "cli._write_json", "cli._sha256_file")


@dataclass
class SpanTotals:
    calls: Counter = field(default_factory=Counter)  # by function name
    total_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    layer_calls: Counter = field(default_factory=Counter)
    layer_self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    draws: list = field(default_factory=list)  # stream key of each Ginibre-type draw
    tasks: int = 0
    atoms: int = 0
    io_bytes: int = 0
    peak_bytes: int = 0


def span_totals(paths) -> SpanTotals:
    totals = SpanTotals()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        child_ns = [0] * len(spans)
        for parent, _, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (_, name_id, start, end, info) in enumerate(spans):
            name, layer = names[name_id]
            totals.calls[name] += 1
            totals.total_s[name] += (end - start) / 1e9
            own = (end - start - child_ns[i]) / 1e9
            totals.self_s[name] += own
            totals.layer_calls[layer] += 1
            totals.layer_self_s[layer] += own
            if info:
                if "draw" in info:
                    totals.draws.append(tuple(info["draw"]))
                totals.tasks += info.get("tasks", 0)
                totals.atoms += info.get("atoms", 0)
                totals.io_bytes += info.get("bytes", 0)
                totals.peak_bytes = max(totals.peak_bytes, info.get("peak_bytes", 0))
    return totals


def per_layer(t: SpanTotals, d1: int) -> dict[str, float]:
    """Metrics one traced iteration gives; zero where a layer did not run in
    the traced process."""
    solves = t.calls["matlin.eig_unitary_angles"] + t.calls["matlin.eig_hermitian"]
    draws = len(t.draws)
    transport_s = t.layer_self_s["transport"]
    return {
        "rng.generators": t.calls["rng.StreamKey.generator"],
        "rng.generator_s": t.total_s["rng.StreamKey.generator"],
        "ensembles.self_s": t.layer_self_s["ensembles"],
        "ensembles.symplectic_s": t.self_s["ensembles.haar_symplectic"],
        "ensembles.draws": draws,
        "ensembles.useful_ratio": len(set(t.draws)) / draws if draws else 0.0,
        "matlin.qr_s": t.self_s["matlin.qr_positive"],
        "matlin.eig_unitary_s": t.self_s["matlin.eig_unitary_angles"],
        "matlin.eig_hermitian_s": t.self_s["matlin.eig_hermitian"],
        "matlin.eig_solves": solves,
        "matlin.solves_per_d1": solves / d1 if d1 else 0.0,
        "matlin.check_s": sum(t.total_s[n] for n in CHECKS),
        "measures.self_s": t.layer_self_s["measures"],
        "transport.self_s": transport_s,
        "transport.calls": t.layer_calls["transport"],
        "transport.atoms": t.atoms,
        "transport.ns_per_atom": transport_s * 1e9 / t.atoms if t.atoms else 0.0,
        "experiments.reduce_s": sum(t.total_s[n] for n in REDUCE),
        "experiments.pool_wall_s": t.total_s["experiments._parallel_map"],
        "experiments.pool_tasks": t.tasks,
        "experiments.pool_executors": t.calls["experiments.ProcessPoolExecutor"],
        "cli.io_s": sum(t.total_s[n] for n in IO),
        "cli.io_bytes": t.io_bytes,
    }


# "import time: self [us] | cumulative | imported package", nesting shown
# by two more spaces per level; children are printed before their parent.
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)$", re.MULTILINE)


def import_times(stderr: str) -> tuple[float, float]:
    """(``import speclab.cli``, the part of it under scipy.stats) in seconds.

    scipy loads ``scipy.stats`` lazily through ``importlib``, which
    ``-X importtime`` does not print, so the scipy.stats share is the union
    of the printed ``scipy.stats.*`` subtrees.
    """
    cli_us = None
    stack: list[tuple[int, int]] = []  # (depth, scipy.stats microseconds in that subtree)
    for match in _IMPORT_LINE.finditer(stderr):
        cumulative, depth, name = int(match[1]), (len(match[2]) - 1) // 2, match[3]
        inner = 0
        while stack and stack[-1][0] > depth:
            inner += stack.pop()[1]
        in_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        stack.append((depth, cumulative if in_stats else inner))
        if name == "speclab.cli":
            cli_us = cumulative
    if cli_us is None:
        raise ValueError("no speclab.cli entry in the -X importtime output")
    return cli_us / 1e6, sum(us for _, us in stack) / 1e6
