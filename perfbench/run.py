"""INDICE benchmark: cold 25k pipeline to served dashboards, then open-loop load.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dirty-read --seed 1 --seconds 25 --trace 0

Each run starts a fresh ``child.py`` process (stage cache off, so the
street map's ``GazetteerIndex`` memo starts empty) that generates the
workload's collection, runs the pipeline once cold up to the pre-rendered
artifact store, and then serves it.  This process is the load generator:
one open-loop step of ``40 * seconds`` requests at the reference rate of
40 req/s (on ``clean-reload`` with publish segments among them: new
analysis versions published under load), then a closed-loop burst that
measures the sustained rate.  ``--trace 1`` instead runs the pipeline
once untraced and once traced, serves the reference-rate step traced,
and prints the per-layer table.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import loadgen
import report

ROOT = Path(__file__).resolve().parent.parent
#: Reference rate of the serving phase, req/s.
REFERENCE_RATE = 40.0
#: Requests in the closed-loop burst that measures ``serve_max_rps``.
BURST_REQUESTS = 500
#: Every child must finish within this many seconds.
CHILD_TIMEOUT_S = 170.0
#: Set-ups timed before each cold run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Versions ``clean-reload`` publishes during its reference-rate step.
PUBLISHES = 4
#: Seconds of traffic after each publish that are charged to it (its
#: segment); the render stall a publish causes drains well within it.
SEGMENT_S = 4.5
#: Each publish lands midway between two due times, so it precedes the
#: same request (and route) in every run.
PUBLISH_OFFSET_S = 0.5 / REFERENCE_RATE


@dataclass(frozen=True)
class Workload:
    """One input and traffic shape; see ``BASELINE.md`` for why each exists."""

    certificates: int
    dirty: bool
    jobs: int
    #: Publish new analysis versions during the reference-rate step.
    reloads: bool
    #: Cold pipeline runs per benchmark run; the last one is served.
    pipeline_runs: int = 1


WORKLOADS = {
    # cleaning, matching, the geocoder fallback and the pool do most of
    # their work here; the served store is read-only after set-up
    "dirty-read": Workload(25_000, dirty=True, jobs=2, reloads=False),
    # every address is an exact hit, serial: analytics and rendering
    # dominate; serving publishes new analysis versions under load, and
    # p99 is the median over the publishes of each one's render stall
    "clean-reload": Workload(8_000, dirty=False, jobs=1, reloads=True, pipeline_runs=3),
}


class Child:
    """A running ``child.py``: JSON lines out, commands in."""

    def __init__(self, workdir: Path, spec: dict):
        spec_path = workdir / f"spec-{spec['run_id']}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), str(spec_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=env,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def read(self) -> dict:
        """The child's next JSON line."""
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited early with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        """Close stdin, read the final result, reap the process."""
        self.proc.stdin.close()
        lines = self.proc.stdout.read().strip().splitlines()
        code = self.proc.wait()
        self._watchdog.cancel()
        if code != 0 or not lines:
            raise RuntimeError(f"child failed with code {code}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._watchdog.cancel()


def wait_healthy(port: int) -> None:
    """GET ``/healthz`` until it answers 200."""
    deadline = time.perf_counter() + 30
    while True:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            body = response.read()
            conn.close()
            if response.status == 200 and json.loads(body)["status"] == "ok":
                return
        except OSError:
            if time.perf_counter() > deadline:
                raise
        time.sleep(0.05)


def warm_etags(port: int) -> tuple[dict[str, str], list[str]]:
    """Fetch every route once (untimed): the ETags and any wrong body."""
    etags, samples = {}, []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=loadgen.TIMEOUT_S)
    try:
        for path in loadgen.ROUTES:
            conn.request("GET", path, headers={"Accept-Encoding": "gzip"})
            response = conn.getresponse()
            body = response.read()
            etags[path] = response.getheader("ETag", "")
            samples.append((etags[path], body))
    finally:
        conn.close()
    return etags, loadgen.verify_bodies(samples)


def spec_for(workload: Workload, args, run_id: str, workdir: Path, **extra) -> dict:
    spec = {
        "run_id": run_id,
        "certificates": workload.certificates,
        "dirty": workload.dirty,
        "jobs": workload.jobs,
        "seed": args.seed,
        "setup_reps": SETUP_REPS,
        "reloads": workload.reloads,
        "serve": True,
        "trace": False,
        "spill_dir": str(workdir),
        "corrupt": None,
    }
    spec.update(extra)
    return spec


@dataclass(frozen=True)
class Schedule:
    """The requests of the reference-rate step: steady ones and publish segments."""

    n: int
    #: Indices of the requests no publish is charged to.
    steady: np.ndarray
    #: One run of requests per publish, the publish landing just after
    #: the first of them is due.
    segments: tuple[slice, ...]


def schedule(n_ref: int, publishes: int) -> Schedule:
    """*n_ref* steady requests with *publishes* segments spread among them.

    The steady requests come in ``publishes + 1`` equal chunks with one
    segment of ``SEGMENT_S`` between each two, so the publishes, and the
    host's speed while they render, are sampled across the whole step.
    """
    per = int(SEGMENT_S * REFERENCE_RATE)
    edges = np.linspace(0, n_ref, publishes + 2).astype(int)
    steady, segments, at = [], [], 0
    for k in range(publishes + 1):
        size = int(edges[k + 1] - edges[k])
        steady.append(np.arange(at, at + size))
        at += size
        if k < publishes:
            segments.append(slice(at, at + per))
            at += per
    return Schedule(at, np.concatenate(steady), tuple(segments))


def serve_phase(child: Child, workload: Workload, args, burst: bool) -> dict:
    """Drive the reference-rate step (and the burst) against a ready child."""
    port = child.read()["port"]
    wait_healthy(port)
    healthz_s = time.perf_counter() - child.started
    etags, wrong = warm_etags(port)
    n_ref = max(int(round(REFERENCE_RATE * args.seconds)), 1)
    plan = schedule(n_ref, PUBLISHES if workload.reloads else 0)
    t0 = time.perf_counter() + 0.25
    if plan.segments:
        child.send("publish " + " ".join(
            repr(t0 + seg.start / REFERENCE_RATE + PUBLISH_OFFSET_S) for seg in plan.segments
        ))
    steps = {"ref": loadgen.run_step(port, loadgen.make_plan(args.seed, plan.n),
                                     REFERENCE_RATE, etags, t0=t0)}
    if plan.segments:
        # the burst measures the settled server, not a render stall
        child.send("settle")
        child.read()
    if burst:
        burst_plan = loadgen.make_plan(args.seed * 1000 + 1, min(BURST_REQUESTS, n_ref))
        steps["burst"] = loadgen.run_step(port, burst_plan, None, etags)
    child.send("stop")
    for step in steps.values():
        wrong += loadgen.verify_bodies(step.samples)
    return {"healthz_s": healthz_s, "steps": steps, "wrong_bodies": wrong,
            "steady": plan.steady,
            "segment_p99_ms": [steps["ref"].percentile_ms(99, seg) for seg in plan.segments]}


@functools.cache
def source_digest() -> str:
    """SHA-256 over the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_check(key: str, result: dict) -> list[str]:
    """The same sources, workload, size and seed must give the same outputs.

    Outputs are recorded per source digest, so a run only ever compares
    with earlier runs of the same code in this checkout.
    """
    key = f"{source_digest()}/{key}"
    state = ROOT / ".perfbench-state" / "digests.json"
    state.parent.mkdir(exist_ok=True)
    known = json.loads(state.read_text()) if state.exists() else {}
    mine = {"analysis_version": result["analysis_version"], "digests": result["digests"]}
    if key not in known:
        known[key] = mine
        state.write_text(json.dumps(known, indent=1, sort_keys=True))
        return []
    if known[key] != mine:
        return [f"outputs differ from an earlier run of {key} in this checkout"]
    return []


def pipeline_checks(key: str, result: dict) -> list[str]:
    """Every failed output check of one pipeline run."""
    failures = result["failures"] + repeat_check(key, result)
    if result["rows_broken"]:
        failures.append(
            f"{key}: {result['rows_broken']} rows already at their true street "
            "were cleaned to another street"
        )
    return failures


def untraced_run(name: str, workload: Workload, args, workdir: Path) -> dict:
    # extra cold runs on collections from derived seeds, each in its own
    # process, so the reported medians average data and host noise
    runs = []
    for j in range(1, workload.pipeline_runs):
        seed = args.seed * 100 + j
        extra = Child(workdir, spec_for(workload, args, f"cold{j}", workdir, seed=seed,
                                        serve=False, corrupt=args.corrupt))
        try:
            runs.append((seed, extra.finish()))
        finally:
            extra.kill()
    child = Child(workdir, spec_for(workload, args, "run", workdir, corrupt=args.corrupt))
    try:
        served = serve_phase(child, workload, args, burst=True)
        result = child.finish()
    finally:
        child.kill()
    runs.append((args.seed, result))
    checks = [pipeline_checks(f"{name}/{workload.certificates}/{seed}", r) for seed, r in runs]
    pipeline_failures = [f for c in checks for f in c]
    steps = served["steps"]
    ref = steps["ref"]
    failed_requests = [f for step in steps.values() for f in step.failures]
    failed = sum(1 for c in checks if c) + len(failed_requests) + len(served["wrong_bodies"])
    attempted = len(runs) + sum(step.attempted for step in steps.values())

    def median_of(key: str) -> float:
        return statistics.median(r[key] for __, r in runs)

    metrics = {
        "setup_s": (statistics.median(x for __, r in runs for x in r["setup_s"]), "s"),
        "pipeline_s": (median_of("pipeline_s"), "s"),
        "peak_rss_mb": (median_of("peak_rss_mb"), "MB"),
        "street_accuracy": (median_of("street_accuracy"), "ratio"),
        "serve_p50_ms": (ref.percentile_ms(50, served["steady"]), "ms"),
        "serve_p99_ms": (statistics.median(served["segment_p99_ms"]) if workload.reloads
                         else ref.percentile_ms(99, served["steady"]), "ms"),
        "serve_max_rps": (steps["burst"].throughput(), "1/s"),
    }
    report.print_run(name, runs, served, metrics, pipeline_failures,
                     failed_requests, attempted, failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(name: str, workload: Workload, args, workdir: Path) -> dict:
    base = Child(workdir, spec_for(workload, args, "untraced", workdir,
                                   serve=False))
    try:
        untraced = base.finish()
    finally:
        base.kill()
    child = Child(workdir, spec_for(workload, args, "traced", workdir, trace=True))
    try:
        served = serve_phase(child, workload, args, burst=False)
        traced = child.finish()
    finally:
        child.kill()
    key = f"{name}/{workload.certificates}/{args.seed}"
    failures = pipeline_checks(key, untraced) + pipeline_checks(key, traced)
    steps = served["steps"].values()
    failed = (1 if failures else 0) + sum(len(step.failures) for step in steps) + len(
        served["wrong_bodies"]
    )
    attempted = 2 + sum(step.attempted for step in steps)
    layer_metrics = report.layer_metrics(traced, untraced, served)
    report.print_layers(name, args.seed, traced, untraced, served, failures)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="seconds of steady traffic at the reference rate (40 req/s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test knobs: smaller inputs, planted faults
    parser.add_argument("--certificates", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", choices=("street", "body"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no INDICE sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"sources sha256 {source_digest()}")
    workload = WORKLOADS[args.workload]
    if args.certificates:
        workload = replace(workload, certificates=args.certificates)
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args.workload, workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
