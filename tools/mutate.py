"""Apply one named mutant of src/ to a temporary copy and run pytest on it.

    python tools/mutate.py
    python tools/mutate.py validate-var-penultimate tests/test_cli.py -k validate

The mutants are the records of tools/mutants.json: a name, a file, an old
text that must occur exactly once in it, the new text, and what the change
breaks.  The copy holds the working tree's src/, tests/ and pyproject.toml;
pytest runs there on the given selection, or on all of tests/ (about two
minutes on two cores).  The mutant is KILLED when pytest reports a failing
test and SURVIVED when every selected test passes.  Exit status: 0 killed,
1 survived, 2 when the mutant or pytest could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def _count(root: Path, mutant: dict) -> int:
    """How often the mutant's old text occurs in its file under root."""
    return (root / mutant["file"]).read_text().count(mutant["old"])


def _run(mutant: dict, selection: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / mutant["file"]
        path.write_text(path.read_text().replace(mutant["old"], mutant["new"]))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *selection]
        return subprocess.run(cmd, cwd=copy, env=env).returncode


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("name", nargs="?", help="the mutant to run (none: list the mutants)")
    p.add_argument("selection", nargs=argparse.REMAINDER, help="pytest arguments (default: tests)")
    args = p.parse_args(argv)
    mutants = {m["name"]: m for m in json.loads(MUTANTS.read_text())}
    if args.name is None:
        for m in mutants.values():
            state = "applies" if _count(ROOT, m) == 1 else "STALE"
            print(f"{m['name']:30s} {state:8s} {m['file']}: {m['breaks']}")
        return 0
    mutant = mutants.get(args.name)
    if mutant is None or _count(ROOT, mutant) != 1:
        print(f"{args.name}: unknown, or its old text does not occur exactly once", file=sys.stderr)
        return 2
    status = _run(mutant, args.selection or ["tests"])
    verdict = {0: "SURVIVED", 1: "KILLED"}.get(status, f"NOT RUN (pytest exit {status})")
    print(f"{args.name}: {verdict}")
    return {0: 1, 1: 0}.get(status, 2)


if __name__ == "__main__":
    sys.exit(main())
