"""Self-test of the benchmark at a tiny input size (about four minutes).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload's untraced run emits exactly the ``end_to_end`` metrics
  of ``BENCHMARK.json`` with their units, and a traced run exactly the
  ``per_layer`` ones;
* a planted wrong street and a planted truncated response body are each
  counted as a failed operation (``correct`` false), not as a slow one,
  by the check meant to catch it;
* without the program's sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "2", "--certificates", "1500"]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    """Run the benchmark; its exit code, parsed last line (if JSON) and stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stdout
    except json.JSONDecodeError:
        return proc.returncode, None, proc.stdout


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def expect_metrics(result: dict, declared: list[dict], label: str, failures: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{label}: every declared metric, with its unit", failures)
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly correct/attempted/failed/metrics", failures)


def main() -> int:
    failures: list[str] = []
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        code, result, __ = bench("--workload", name, "--seed", "3", "--trace", "0", *TINY)
        check(code == 0 and result is not None, f"{name}: untraced run exits 0", failures)
        if result:
            expect_metrics(result, SPEC["end_to_end"], name, failures)
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 1,
                  f"{name}: clean run is correct with no failed operation", failures)
        code, result, __ = bench("--workload", name, "--seed", "3", "--trace", "1", *TINY)
        check(code == 0 and result is not None, f"{name}: traced run exits 0", failures)
        if result:
            expect_metrics(result, SPEC["per_layer"], f"{name} traced", failures)

    for fault, verdict in (("street", "pipeline outputs"), ("body", "bodies hash to ETag")):
        code, result, out = bench("--workload", names[-1], "--seed", "3", "--trace", "0",
                                  "--corrupt", fault, *TINY)
        check(code == 0 and result is not None and not result["correct"]
              and result["failed"] >= 1 and f"check {verdict}: FAILED" in out,
              f"planted wrong {fault} counts as a failed operation ({verdict})", failures)

    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result, __ = bench("--workload", names[0], "--seed", "3", "--trace", "0",
                                 *TINY, cwd=bare)
        check(code != 0 and result is None,
              "without the sources: non-zero exit, no result", failures)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
