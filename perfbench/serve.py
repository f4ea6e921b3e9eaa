"""Launch the ``repro-vliw`` CLI (the ``serve`` daemon) for the benchmark.

::

    python3 perfbench/serve.py --out stats.json [--trace spans.json] \\
        -- --cache-dir DIR serve --port 0

runs ``repro.cli.main`` with the arguments after ``--``, unchanged, so
the daemon keeps its shipped defaults.  With ``--trace`` the layer
wrappers of :mod:`tracer` are installed first, so the traced run sees
the same spans inside the daemon as in a sweep.  After the daemon has
drained and stopped (SIGTERM), the process writes its peak RSS to
``--out`` and, when traced, its spans to the ``--trace`` file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None, metavar="SPANS_JSON")
    args = ap.parse_args(argv[:split])

    from repro import cli
    from sweep import peak_rss_mb

    recorder = None
    if args.trace:
        import tracer
        recorder = tracer.Recorder()
        tracer.install(recorder)
    status = cli.main(argv[split + 1:])
    if recorder is not None:
        recorder.dump(args.trace)
    with open(args.out, "w") as fh:
        json.dump({"peak_rss_mb": peak_rss_mb(), "status": status}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
