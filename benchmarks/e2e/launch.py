"""Start an ``m2hew`` command with the benchmark's tracer installed.

    python3 benchmarks/e2e/launch.py SPANS_FILE ROLE -- <m2hew arguments>

Used for the server and the queue workers of a traced run: the tracer
patches the program's layer boundaries in this process, then the
ordinary ``m2hew`` entry point runs. When the command exits, including
through SIGINT, the spans are written to SPANS_FILE under ROLE.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tracer import Tracer, install_program_tracing  # noqa: E402


def main(argv: list) -> int:
    spans, role, separator, *command = argv
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    install_program_tracing(tracer)
    from repro.cli import main as m2hew

    try:
        return m2hew(command)
    except KeyboardInterrupt:
        return 0
    finally:
        tracer.dump(Path(spans), role)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
