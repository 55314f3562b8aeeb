"""Fingerprint the artifacts of a fixed list of seeded sagrs commands.

Usage, from the root of a checkout:

    python3 scripts/artifact_digest.py [OUTPUT]

Each command runs in-process through ``sagrs.cli.cli_main``, with the
checkout's ``src/`` first on the import path, writing into a temporary
directory. For every ``runs.csv``, ``cycles.csv``, ``summary.json`` and
``metadata.json`` written, one ``sha256  path`` line goes to standard output,
or to OUTPUT when given. Diff the lines of two checkouts to check that a
change keeps the output bytes. Stops with a nonzero status if a command
does not exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ARTIFACTS = ("runs.csv", "cycles.csv", "summary.json", "metadata.json")
OBJECTIVES = ("bohachevsky", "ackley", "schwefel")
SYSTEMS = ("sagrs-lsm", "sagrs-rbf", "ga", "random-lsm", "random-rbf")

# (output directory, cli arguments)
COMMANDS = (
    *((f"compare-{obj}-c10", ["compare", "--objective", obj, "--seed", "11", "--reps", "2",
                              "--cycles", "10", "--jobs", "2"]) for obj in OBJECTIVES),
    *((f"run-{system}", ["run", "--objective", "ackley", "--system", system, "--rate", "1", "4",
                         "--suggestions", "4", "--cycles", "20", "--reps", "2", "--seed", "3"])
      for system in SYSTEMS),
    *((sweep, [sweep, "--objective", "bohachevsky", "--reps", "1", "--seed", "5", "--jobs", "2"])
      for sweep in ("sweep-rates", "sweep-suggestions", "sweep-cycles")),
    *((f"compare-{obj}", ["compare", "--objective", obj, "--reps", "2", "--seed", "11", "--jobs", "2"])
      for obj in OBJECTIVES),
    ("run-window", ["run", "--objective", "bohachevsky", "--system", "sagrs-rbf", "--window", "40",
                    "--suggestions", "8", "--cycles", "40", "--reps", "2", "--seed", "13"]),
)


def digest_lines(cli_main, root: Path) -> list[str]:
    lines = []
    for name, argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main([*argv, "--out", str(root / name)])
        if code != 0:
            sys.exit(f"artifact_digest: {' '.join(argv)} exited {code}")
        for artifact in ARTIFACTS:
            data = (root / name / artifact).read_bytes()
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}/{artifact}")
    return lines


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", nargs="?", type=Path, help="file for the lines (default: standard output)")
    output = parser.parse_args(argv).output
    sys.path.insert(0, str(SRC))
    from sagrs.cli import cli_main

    with tempfile.TemporaryDirectory(prefix="sagrs-digest-") as tmp:
        text = "\n".join(digest_lines(cli_main, Path(tmp))) + "\n"
    if output is not None:
        output.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main(sys.argv[1:])
