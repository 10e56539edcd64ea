"""Run the committed mutation checks: every mutant must fail its named tests.

    python3 tools/mutate.py

tools/mutants.json lists the mutants.  Each names a file under src/, its
exact old text, the replacement, and the pytest node ids that must fail
with it.  The script copies src/, tests/ and pyproject.toml to a temporary
directory, applies one mutant at a time there and runs each of its tests
on its own.  A mutant marked "survives" is a no-op that checks the runner
itself: its tests must pass.  The exit status is 1 when a mutant survives,
a no-op is caught, a test cannot run (a bad node id, say), or an old text
does not occur exactly once; it is 0 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.json"


def run_test(tree: Path, test_id: str) -> int:
    """pytest's exit status for one node id in tree: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "addopts=",
           test_id]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=600).returncode


def check(tree: Path, mutant: dict) -> str | None:
    """None when the mutant behaves as listed, else what went wrong."""
    path = tree / mutant["file"]
    text = path.read_text()
    if text.count(mutant["old"]) != 1:
        return f"old text occurs {text.count(mutant['old'])} times in {mutant['file']}"
    want = 0 if mutant.get("survives") else 1
    path.write_text(text.replace(mutant["old"], mutant["new"]))
    try:
        status = {test_id: run_test(tree, test_id) for test_id in mutant["tests"]}
    finally:
        path.write_text(text)
    broken = [t for t, code in status.items() if code not in (0, 1)]
    if broken:
        return f"could not run {broken}"
    wrong = [t for t, code in status.items() if code != want]
    if wrong:
        return f"{'caught' if want == 0 else 'survived'} {wrong}"
    return None


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy(ROOT / "pyproject.toml", tree)
        for mutant in json.loads(MUTANTS.read_text())["mutants"]:
            problem = check(tree, mutant)
            expected = "survived, as a no-op must" if mutant.get("survives") else "caught"
            print(f"{mutant['name']}: {problem or expected}", flush=True)
            failures += problem is not None
    print(f"{failures} mutant(s) not as listed" if failures else "every mutant as listed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
