"""Run a sequence of askgraph CLI commands in this fresh process.

Usage: child.py SPEC_JSON, where SPEC_JSON is
``{"commands": [[arg, ...], ...], "spans": PATH or null}``. With a spans
path, every public askgraph function is traced and the spans are written
there after the commands finish. The last line of standard output is
``{"codes": [...], "elapsed_s": ..., "maxrss_kb": ..., "floor_kb": ...}``:
the exit code of each command run (the sequence stops at the first non-zero
one), the wall time of the commands, this process's lifetime peak RSS, and
its peak RSS after the imports but before the first command (the interpreter
plus numpy and scipy, which every run pays whatever its data).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(spec_json: str) -> int:
    spec = json.loads(spec_json)
    from askgraph import cli

    tracer = None
    if spec.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    floor_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    codes = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        codes.append(cli.main(argv))
        if codes[-1]:
            break
    elapsed = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(spec["spans"])
    print(json.dumps(
        {"codes": codes, "elapsed_s": elapsed, "maxrss_kb": maxrss_kb, "floor_kb": floor_kb}
    ))
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
