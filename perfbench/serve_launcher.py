"""Run ``repro serve`` with the layer hooks installed (traced runs only).

Usage: ``python perfbench/serve_launcher.py SPANS.json serve [serve flags...]``

Wraps the public functions listed in :data:`ncbench.layers.HOOKS`, then
hands the remaining arguments to ``repro.cli.main``. When the server
shuts down (SIGTERM drains it), the recorded spans are written to
``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ncbench.common import require_program  # noqa: E402
from ncbench.layers import SpanLog  # noqa: E402


def main() -> int:
    spans_path = Path(sys.argv[1])
    require_program()
    import repro.cli

    log = SpanLog()
    log.install()
    log.mark("imported")
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        log.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
