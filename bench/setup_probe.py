"""Set-up probe: import the sepgame CLI, parse the given input files, exit.

    python bench/setup_probe.py FILE...

Files ending in .uni, .csl and .proof are parsed as a universe, a program and
a proof.  Nothing is checked, enumerated or solved, so the process's wall
time is the set-up a CLI invocation pays before its real work.
"""

from __future__ import annotations

import sys
from pathlib import Path

import sepgame.cli  # noqa: F401  importing the CLI is part of the set-up measured
from sepgame import syntax

PARSERS = {".uni": syntax.parse_universe, ".csl": syntax.parse_program,
           ".proof": syntax.parse_proof}


def main(paths) -> int:
    for path in paths:
        PARSERS[Path(path).suffix](Path(path).read_text(encoding="utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
