"""Run ``repro serve ...`` as deployed, with optional outside tracing.

Usage::

    python perfbench/server_main.py --src SRC [--spans FILE] -- serve CORPUS.npz ...

Everything after ``--`` goes to the program's own command line.  With
``--spans``, the layer wrappers of :mod:`spans` are installed before the
service starts (so warm-up and kernel autotuning are recorded), each
SIGUSR1 toggles them off/on (acknowledged by rewriting ``FILE.ack``
with the toggle count), and the spans are written to ``FILE`` when the
service has drained after SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("program", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    program = args.program[1:] if args.program[:1] == ["--"] else args.program
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.cli import main as cli_main

    if args.spans is None:
        return cli_main(program)

    from spans import Recorder, install

    recorder = Recorder()
    state = {"undo": install(recorder, service=True), "toggles": 0}
    ack = Path(args.spans + ".ack")

    def toggle(signum, frame) -> None:
        if state["undo"] is None:
            state["undo"] = install(recorder, service=True)
        else:
            state["undo"]()
            state["undo"] = None
        state["toggles"] += 1
        ack.write_text(str(state["toggles"]))

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return cli_main(program)
    finally:
        Path(args.spans).write_text(
            json.dumps([span.to_dict() for span in recorder.spans])
        )


if __name__ == "__main__":
    sys.exit(main())
