"""Every span name the benchmark's per-layer metrics read is one its tracer
records, so renaming a traced function cannot quietly zero a metric.

The tracer rebinds functions across the speclab modules it patches, so it is
installed in a subprocess; this test only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import inspect, json, re, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers, tracer

recorder = tracer.install(alloc=False)
import speclab.ensembles
from speclab.rng import StreamKey
for tag in ("symplectic", "unitary"):
    speclab.ensembles.ENSEMBLES[speclab.ensembles.EnsembleTag(tag)].sample(4, StreamKey(1, tag, 4))
source = inspect.getsource(layers.per_layer)
read = {
    "layers.CHECKS": list(layers.CHECKS),
    "layers.REDUCE": list(layers.REDUCE),
    "layers.IO": list(layers.IO),
    "tracer.ATTRS": list(tracer.ATTRS),
    "tracer.PRIVATE": [f"{m}.{f}" for m, fs in tracer.PRIVATE.items() for f in fs],
    "tracer.METHODS": [f"{m}.{c}.{f}" for m, ms in tracer.METHODS.items() for c, f in ms],
    "per_layer": re.findall(r'\bt\.(?:calls|total_s|self_s)\["([^"]+)"\]', source),
}
print(json.dumps({
    "names": [name for name, _ in recorder.names],
    "layers": [layer for _, layer in recorder.names],
    "read": read,
    "layers_read": re.findall(r'\bt\.layer_(?:calls|self_s)\["([^"]+)"\]', source),
    "spans": sorted({recorder.names[span[1]][0] for span in recorder.spans}),
}))
"""


def test_every_name_the_metrics_read_is_traced():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"),
         os.path.join(ROOT, "src")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(proc.stdout)
    names, read = set(out["names"]), out["read"]
    assert read["per_layer"], "no span name found in per_layer's source"
    missing = {source: sorted(set(wanted) - names)
               for source, wanted in read.items() if set(wanted) - names}
    assert not missing, f"names read but never traced: {missing}"
    assert out["layers_read"]
    assert set(out["layers_read"]) <= set(out["layers"])
    # samplers reached through the ensemble table are traced too, so their
    # draws count in ensembles.draws and Sp(n)'s time in ensembles.symplectic_s
    assert {"ensembles.haar_symplectic", "ensembles.haar_unitary",
            "ensembles.ginibre_complex"} <= set(out["spans"])
