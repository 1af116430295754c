"""Run ``python -m repro serve`` with spans installed (the traced run).

Usage: ``python3 perfbench/traced_serve.py ROOT SPANS_OUT serve [ARGS...]``.
The server is the program's own CLI entry point; this wrapper only patches
the span recorder in first and, once the server has drained and returned,
writes the spans and their summary before exiting with the server's code.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root, spans_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    from spans import SpanRecorder, summarize

    recorder = SpanRecorder()
    recorder.install()
    from repro.__main__ import main as cli

    started = time.perf_counter()
    code = cli(sys.argv[3:])
    wall = time.perf_counter() - started
    by_name, layers = summarize(recorder.spans, wall, pooled=False)
    recorder.write(spans_path)
    with open(spans_path + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump({"by_name": by_name, "layers": layers, "wall_s": wall}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
