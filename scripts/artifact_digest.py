"""Fingerprint the artifacts of a fixed list of seeded sagrs commands.

Usage, from the root of a checkout:

    python3 scripts/artifact_digest.py [OUTPUT]
    python3 scripts/artifact_digest.py --check scripts/artifact_digest.sha256

Each command runs in-process through ``sagrs.cli.cli_main``, with the
checkout's ``src/`` first on the import path, writing into a temporary
directory. For every ``runs.csv``, ``cycles.csv``, ``summary.json`` and
``metadata.json`` written, one ``sha256  path`` line goes to standard output,
or to OUTPUT when given. Diff the lines of two checkouts to check that a
change keeps the output bytes. Stops with a nonzero status if a command
does not exit 0.

``--check FILE`` compares the lines with a reference file instead, such as
the committed ``scripts/artifact_digest.sha256``, and exits 1 listing every
line that differs. The reference was written with one OpenBLAS thread
(``OPENBLAS_NUM_THREADS=1``), which ``metadata.json`` records. CI runs the
commands without ``--check``, and each of them must exit 0. It runs them
five times, and every run's lines must match the first's:
- twice with one thread, so a rerun keeps the bytes;
- once with the variable unset, because every batch pins one thread itself;
- once each under ``OPENBLAS_CORETYPE=Haswell`` and ``=Prescott``, which
  pick other OpenBLAS kernels for that process. The surrogate fits' bits
  differ between kernels, and the artifacts must not.
The check itself is not part of CI: the reference holds the bytes of one
build of numpy, scipy and their OpenBLAS, on one CPU, and a different
version, CPU vendor or architecture was never compared with it.
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
sys.path.insert(0, str(SRC))

from sagrs.cli import cli_main  # noqa: E402
from sagrs.harness import SYSTEMS  # noqa: E402

ARTIFACTS = ("runs.csv", "cycles.csv", "summary.json", "metadata.json")
OBJECTIVES = ("bohachevsky", "ackley", "schwefel")

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


def digest_lines(root: Path) -> list[str]:
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


def differing_lines(lines: list[str], reference: list[str]) -> list[str]:
    """Reference lines not produced, marked "- ", then produced lines not in the reference, marked "+ "."""
    return ([f"- {line}" for line in reference if line not in lines]
            + [f"+ {line}" for line in lines if line not in reference])


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group()
    target.add_argument("output", nargs="?", type=Path, help="file for the lines (default: standard output)")
    target.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with the lines in FILE; exit 1 if any differ")
    args = parser.parse_args(argv)
    reference = args.check.read_text().splitlines() if args.check is not None else None
    with tempfile.TemporaryDirectory(prefix="sagrs-digest-") as tmp:
        lines = digest_lines(Path(tmp))
    if reference is not None:
        diff = differing_lines(lines, reference)
        for line in diff:
            print(line)
        print(f"artifact_digest: {len(diff)} differing lines against {args.check}", file=sys.stderr)
        return 1 if diff else 0
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
