"""``python -m repro serve`` with spans around the serving layers.

Wraps artifact load, index build and ``QueryService.handle`` in this
process, then calls the same entry point the CLI uses.  The server stops
on SIGTERM (its own graceful drain); the spans are written once, after
the entry point returns.

    python -m perfbench.serve_launcher --spans out.npz -- --seed 7 --days 8 --port 0
"""

from __future__ import annotations

import argparse

from perfbench.layers import install_serving
from perfbench.spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True, help="write spans to this .npz")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    tracer = Tracer()
    install_serving(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.restore()
        tracer.save(args.spans)


if __name__ == "__main__":
    raise SystemExit(main())
