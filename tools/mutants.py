"""Run the tier-1 tests against each listed mutant of the source.

    python3 tools/mutants.py

tools/mutants.json lists the mutants. Each gives a file (relative to the
repository root), a fragment that occurs in that file exactly once, the
fragment's replacement and a one-line reason. The tool copies the tree to a
temporary directory and checks that the copy passes tier-1 as it is. It then
applies each mutant alone and runs tier-1 with -x: a mutant is killed when a
test fails. It prints one line per mutant, naming the test that killed it,
and exits 1 if a mutant survives, if a fragment does not occur exactly once
(a refactor must update the list, not drop a mutant silently), or if the
unmutated copy fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_suffix(".json")
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".perfbench-work", ".benchmarks", "*.egg-info")


def _tier1(tree: Path) -> tuple[int, str]:
    """pytest's exit code for tier-1 with -x in tree (0 passed, 1 a test
    failed) and the id of the first failing test, or ''."""
    # Each run starts without the examples an earlier mutant's failures saved.
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, failed[0] if failed else ""


def main() -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        code, failed = _tier1(tree)
        if code != 0:
            print(f"the unmutated tree fails tier-1 (pytest exit {code}) {failed}")
            return 1
        for n, mutant in enumerate(mutants, start=1):
            path = tree / mutant["file"]
            original = path.read_text(encoding="utf-8")
            count = original.count(mutant["find"])
            failed = ""
            if count != 1:
                result = f"fragment occurs {count} times"
            else:
                path.write_text(original.replace(mutant["find"], mutant["replace"]),
                                encoding="utf-8")
                code, failed = _tier1(tree)
                path.write_text(original, encoding="utf-8")
                result = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            ok &= result == "killed"
            print(f"{n:2d} {result:9s} {mutant['file']}: {mutant['why']}", flush=True)
            if failed:
                print(f"   by {failed}", flush=True)
    print(f"{'all' if ok else 'NOT all'} {len(mutants)} mutants killed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
