"""Rerun the test suites under other OpenBLAS kernels and one BLAS thread.

Tier-1 (``tests``) and the benchmark's smoke tests (``perfbench/tests``) run
in child processes, one after another: first with the inherited environment
(the default run), then once per variant in :data:`VARIANTS`. A variant's
variables are set on its own children only. For each variant the script
prints its failing test ids next to the default run's, marking the ones the
default run does not fail, each above the first line of its failure message,
and it exits 1 when any variant fails a test the default run passes (or its
suite cannot run). The children run pytest at ``-vv``: below that, pytest
trims a summary line to the terminal's width and drops the message of a
long test id.

    python tools/kernel_check.py

To check a subset, edit :data:`VARIANTS`. It is not part of tier-1: a full
check runs both suites five times.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Variant name -> environment variables its children get on top of the inherited ones.
VARIANTS = {
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "SkylakeX": {"OPENBLAS_CORETYPE": "SkylakeX"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "threads=1": {"OPENBLAS_NUM_THREADS": "1"},
}

#: The suites, as pytest arguments relative to the repository root.
SUITES = {"tier-1": ["tests"], "perfbench": ["perfbench/tests"]}

#: A short-summary line: the test id, then `` - `` and the message when there is one.
_SUMMARY = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - (.*))?$")


def run_suites(extra_env: dict[str, str]) -> tuple[dict[str, str], list[str], float]:
    """Run every suite once; return the failing ids, each mapped to the
    first line of its message, the suites that could not run (a crash or a
    collection failure with no test id), and the wall time."""
    env = os.environ | extra_env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    failed, broken, start = {}, [], time.perf_counter()
    for suite, args in SUITES.items():
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-vv", "-rfE", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", *args],
            cwd=ROOT, env=env, capture_output=True, text=True)
        matches = filter(None, map(_SUMMARY.match, proc.stdout.splitlines()))
        ids = {m.group(1): m.group(2) or "" for m in matches}
        failed |= ids
        if proc.returncode not in (0, 1) or (proc.returncode == 1 and not ids):
            broken.append(f"{suite} (exit {proc.returncode})")
    return failed, broken, time.perf_counter() - start


def _print_failure(line: str, message: str) -> None:
    print(f"    {line}")
    if message:
        print(f"        {message[:200]}{'...' if len(message) > 200 else ''}")


def main() -> int:
    default, broken, wall = run_suites({})
    print(f"default: {len(default)} failing ({wall:.0f} s)")
    for test_id, message in default.items():
        _print_failure(test_id, message)
    for name in broken:
        print(f"    could not run: {name}")
    clean = not broken
    for variant, env in VARIANTS.items():
        failed, broken, wall = run_suites(env)
        setting = " ".join(f"{k}={v}" for k, v in env.items())
        print(f"{variant} ({setting}): {len(failed)} failing ({wall:.0f} s)")
        for test_id in sorted(set(failed) | set(default)):
            if test_id in failed:
                mark = "both" if test_id in default else "new"
            else:
                mark = "default only"
            _print_failure(f"[{mark}] {test_id}", failed.get(test_id, default.get(test_id)))
        for name in broken:
            print(f"    could not run: {name}")
        clean = clean and not broken and set(failed) <= set(default)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
