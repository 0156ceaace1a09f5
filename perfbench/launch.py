"""Start the speclab CLI the way its console script does, noting when it is ready.

    python3 perfbench/launch.py STAMP MODE SPANS RUN_ID [speclab arguments...]

Once ``speclab.cli`` is imported, the launcher writes ``time.monotonic()`` and
the imported module's path to STAMP; the benchmark subtracts its own clock
reading from just before the launch to get set-up time.  MODE is ``off``
for a plain run, ``time`` to record spans, or ``alloc`` to record spans with
tracemalloc around transport calls.  Spans go to SPANS, tagged RUN_ID.
Without speclab arguments the launcher stops after the import.
"""

import sys
import time


def main() -> int:
    stamp, mode, spans_path, run_id, *argv = sys.argv[1:]
    import speclab.cli

    ready = time.monotonic()
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(f"{ready!r}\n{speclab.cli.__file__}\n")
    if not argv:
        return 0
    if mode == "off":
        return speclab.cli.main(argv)

    import tracer

    recorder = tracer.install(alloc=mode == "alloc")
    try:
        return speclab.cli.main(argv)
    finally:
        recorder.dump(spans_path, run_id)


if __name__ == "__main__":
    sys.exit(main())
