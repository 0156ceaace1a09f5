"""Spans around speclab's public functions, recorded inside one CLI process.

``install`` replaces every public function of the traced modules, plus the
private helpers the per-layer metrics name, with a wrapper that records one
span per call: parent span, name, start and end (``perf_counter_ns``) and a
few counters.  A function is replaced in every speclab namespace that binds
it, because ``from .matlin import eig_unitary_angles`` copies the binding into
``measures``, ``experiments`` and ``cli``; patching only the defining module
would miss most calls.  Spans stay in memory until ``Recorder.dump``.

The process is single-threaded while speclab code runs, so one stack gives
every span its parent.  Worker processes forked by ``--workers`` inherit the
wrappers, but their spans die with them: only the parent's spans are written.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

MODULES = ("rng", "ensembles", "matlin", "measures", "transport", "experiments", "cli")

# Layer of a function that is not its defining module's: the Gaussian draw
# helper is the sampler's work, and _d1_to_pooled is a transport routine.
LAYER_OVERRIDE = {
    "rng.standard_complex_normal": "ensembles",
    "experiments._d1_to_pooled": "transport",
}

PRIVATE = {
    "experiments": ("_d1_to_pooled", "_summarize", "_parallel_map"),
    "cli": ("_read_spectrum_csv", "_write_json", "_sha256_file"),
}

METHODS = {
    "rng": (("StreamKey", "generator"),),
    "matlin": (("ComplexMatrix", "__init__"), ("UnitaryView", "__init__"),
               ("HermitianView", "__init__")),
}


def _stream_key(key) -> list:
    return [key.master_seed, key.ensemble, key.n, key.replicate]


# Counters recorded per call, computed from (positional args, result).
ATTRS = {
    "ensembles.ginibre_complex": lambda a, r: {"draw": _stream_key(a[1])},
    "ensembles.ginibre_real": lambda a, r: {"draw": _stream_key(a[1])},
    "ensembles.haar_symplectic": lambda a, r: {"draw": _stream_key(a[1])},
    "experiments._parallel_map": lambda a, r: {"tasks": len(a[1])},
    "cli.records_to_csv": lambda a, r: {"bytes": len(r.encode("utf-8"))},
    "cli._read_spectrum_csv": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "cli._write_json": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "cli._sha256_file": lambda a, r: {"bytes": os.path.getsize(a[0])},
}


def _atoms(args) -> int:
    """Atoms handed to a transport routine: measures and raw atom arrays."""
    total = 0
    for arg in args:
        atoms = getattr(arg, "atoms", arg)
        if hasattr(atoms, "ndim") and atoms.ndim == 1:
            total += atoms.size
    return total


class Recorder:
    """In-memory span list for one process; ``alloc`` adds tracemalloc
    around each outermost transport call."""

    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.names: list[tuple[str, str]] = []
        self.spans: list[list] = []  # [parent, name id, start ns, end ns, counters]
        self.stack: list[int] = []
        self.transport_depth = 0

    def wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append((name, layer))
        attrs = ATTRS.get(name)
        is_transport = layer == "transport"
        clock = time.perf_counter_ns
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            span = [stack[-1] if stack else -1, name_id, 0, 0, None]
            stack.append(len(rec.spans))
            rec.spans.append(span)
            outer = is_transport and rec.transport_depth == 0
            if is_transport:
                rec.transport_depth += 1
            if outer and rec.alloc:
                tracemalloc.start()
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if is_transport:
                    rec.transport_depth -= 1
                peak = None
                if outer and rec.alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            info = attrs(args, result) if attrs else None
            if outer:
                info = dict(info or {}, atoms=_atoms(args))
                if peak is not None:
                    info["peak_bytes"] = peak
            span[4] = info
            return result

        return traced

    def dump(self, path: str, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "pid": os.getpid(), "names": self.names,
                       "spans": self.spans}, fh, separators=(",", ":"))


def _rebind(original, replacement) -> None:
    """Point every speclab namespace that binds ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname != "speclab" and not modname.startswith("speclab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(alloc: bool) -> Recorder:
    """Wrap the traced functions of the already-imported speclab modules."""
    rec = Recorder(alloc)
    modules = {m: importlib.import_module(f"speclab.{m}") for m in MODULES}
    for short, module in modules.items():
        names = [n for n, obj in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == module.__name__]
        for attr in names + list(PRIVATE.get(short, ())):
            fn = getattr(module, attr)
            name = f"{short}.{attr}"
            _rebind(fn, rec.wrap(fn, name, LAYER_OVERRIDE.get(name, short)))
        for cls_name, method in METHODS.get(short, ()):
            cls = getattr(module, cls_name)
            name = f"{short}.{cls_name}.{method}"
            setattr(cls, method, rec.wrap(getattr(cls, method), name, short))

    class CountedExecutor(ProcessPoolExecutor):
        """Counts executor constructions inside ``experiments``."""

    CountedExecutor.__init__ = rec.wrap(ProcessPoolExecutor.__init__,
                                        "experiments.ProcessPoolExecutor", "experiments")
    modules["experiments"].ProcessPoolExecutor = CountedExecutor
    return rec
