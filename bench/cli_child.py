"""Run one ``cliquewidth`` command with the benchmark's tracer installed.

Usage: python bench/cli_child.py TOTALS.json COMMAND [ARGS...]

Behaves like the console script (same stdout, stderr and exit code) and
writes the per-layer totals of the run to TOTALS.json.
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from cliquewidth import cli  # noqa: E402


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        return cli.main(argv)
    finally:
        t.uninstall()
        Path(totals_path).write_text(json.dumps({"totals": t.totals(), "absent": t.absent}))


if __name__ == "__main__":
    sys.exit(main())
