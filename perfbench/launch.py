"""Run ``python -m repro`` with span recording installed (traced runs only).

Usage::

    python3 perfbench/launch.py SPANS.json <repro arguments...>

Installs the wrappers of :mod:`spans`, then calls ``repro.cli.main`` with
the remaining arguments inside one ``(root)`` container span, and writes
the spans to ``SPANS.json`` when ``main`` returns (a server returns after
SIGINT).  The exit code is ``main``'s.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    out, args = argv[0], list(argv[1:])
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import spans

    spans.install()
    from repro.cli import main as repro_main

    root = spans.TRACER.open("(root)")
    try:
        code = repro_main(args)
    finally:
        spans.TRACER.close(root)
        spans.TRACER.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
