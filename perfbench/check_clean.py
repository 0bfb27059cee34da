"""The benchmark's own test: a run leaves the repository as it found it.

Usage, from the repository root of a git checkout::

    python3 perfbench/check_clean.py [WORKLOAD ...]

For each workload (default: all) it runs one short benchmark invocation and
asserts that ``git status --porcelain`` is unchanged and the run reported
correct outputs.  It then copies only ``BENCHMARK.json`` and ``perfbench/``
into a scratch directory and asserts that the benchmark refuses to run
there: non-zero exit and no result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain", "--untracked-files=all"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout


def check_run_is_clean(workload: str) -> None:
    before = git_status()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0 and result["correct"], (workload, done.stderr[-2000:])
    after = git_status()
    assert after == before, f"{workload} changed the repository:\n{before}\n---\n{after}"


def check_refuses_without_program() -> None:
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / ".work"))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", ".cache", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "suite_cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "the benchmark ran without a program"
        assert not done.stdout.strip(), f"printed a result: {done.stdout!r}"
    finally:
        shutil.rmtree(bare)


def main() -> int:
    workloads = sys.argv[1:] or ["suite_cold", "ga_search", "serve_mixed"]
    for workload in workloads:
        check_run_is_clean(workload)
        print(f"ok: {workload} left git status unchanged")
    check_refuses_without_program()
    print("ok: refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
