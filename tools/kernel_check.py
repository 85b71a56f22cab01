"""Rerun the test suites under other OpenBLAS kernels and one BLAS thread.

Tier-1 (``tests``) and the benchmark's smoke tests (``perfbench/tests``) run
in child processes, one after another: first with the inherited environment
(the default run), then once per variant in :data:`VARIANTS`. A variant's
variables are set on its own children only. For each variant the script
prints its failing test ids next to the default run's, marking the ones the
default run does not fail, and it exits 1 when any variant fails a test the
default run passes (or its suite cannot run).

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
_SUMMARY = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")


def run_suites(extra_env: dict[str, str]) -> tuple[list[str], list[str], float]:
    """Run every suite once; return the failing ids, the suites that could
    not run (a crash or a collection failure with no test id), and the wall time."""
    env = os.environ | extra_env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    failed, broken, start = [], [], time.perf_counter()
    for suite, args in SUITES.items():
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", *args],
            cwd=ROOT, env=env, capture_output=True, text=True)
        ids = [m.group(1) for m in map(_SUMMARY.match, proc.stdout.splitlines()) if m]
        failed += ids
        if proc.returncode not in (0, 1) or (proc.returncode == 1 and not ids):
            broken.append(f"{suite} (exit {proc.returncode})")
    return failed, broken, time.perf_counter() - start


def main() -> int:
    default, broken, wall = run_suites({})
    print(f"default: {len(default)} failing ({wall:.0f} s)")
    for test_id in default:
        print(f"    {test_id}")
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
            print(f"    [{mark}] {test_id}")
        for name in broken:
            print(f"    could not run: {name}")
        clean = clean and not broken and set(failed) <= set(default)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
