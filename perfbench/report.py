"""Turn a run's results and spans into printed tables and metric values."""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from loadgen import P99_LIMIT_MS

__all__ = ["layer_metrics", "layer_table", "print_layers", "print_run"]

#: Span fields, as ``tracing.Tracer`` records them.
ID, NAME, START, END, PARENT, TAG, ROWS, RSS, PID = range(9)


def _p(values, q: float) -> float:
    return float(np.percentile(values, q, method="higher")) if len(values) else 0.0


def print_run(name, runs, served, metrics, pipeline_failures,
              failed_requests, attempted, failed) -> None:
    """The human-readable report of an untraced run; the last run is served."""
    seed, result = runs[-1]
    print(f"workload {name}  seed {seed}  rows in {result['n_rows_in']}")
    for run_seed, r in runs:
        print(f"  cold run seed {run_seed}: pipeline {r['pipeline_s']:.3f} s, peak RSS "
              f"{r['peak_rss_mb']:.1f} MB (largest pool worker {r['worker_rss_mb']:.1f} MB), "
              f"street accuracy {r['street_accuracy']:.4f}, set-up samples "
              f"{', '.join(f'{x:.3f}' for x in r['setup_s'])} s"
              + ("" if r["rss_reset"] else "; VmHWM reset refused, peak includes set-up"))
    print(f"  served analysis_version {result['analysis_version']}")
    for path, digest in sorted(result["digests"].items()):
        print(f"  sha256 {digest}  {path}")
    print(f"  server answered /healthz {served['healthz_s']:.2f} s after spawn")
    for label, step in served["steps"].items():
        requests = served["steady"] if label == "ref" else slice(None)
        p99 = step.percentile_ms(99, requests)
        shape = (f"burst, closed loop ({step.throughput():.1f} req/s)" if step.rate is None
                 else f"open loop at {step.rate:.0f} req/s")
        print(f"  {shape}: {step.attempted}/{step.planned} sent; "
              f"{'steady requests: ' if served['segment_p99_ms'] and label == 'ref' else ''}"
              f"p50 {step.percentile_ms(50, requests):.2f} ms, p99 {p99:.2f} ms, "
              f"late p99 {_p(step.late_ms(requests), 99):.2f} ms; backlog max "
              f"{step.backlog_max} end {step.backlog_end}, {len(step.failures)} failed"
              f" -> {'within' if p99 <= P99_LIMIT_MS else 'over'} the p99 limit")
    print(f"  reloads published: {result.get('reloads', 0)}; renders after set-up: "
          f"{result.get('renders', 0)}")
    if served["segment_p99_ms"]:
        print("  p99 of each publish's segment: "
              + ", ".join(f"{x:.1f}" for x in served["segment_p99_ms"]) + " ms; publishes "
              f"late by at most {max(result['publish_late_ms']):.2f} ms")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:>14.4f} {unit}")
    verdicts = {
        "pipeline outputs": not pipeline_failures,
        "responses 200/304 with ETag": not failed_requests,
        "bodies hash to ETag": not served["wrong_bodies"],
    }
    for check, ok in verdicts.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    for message in pipeline_failures + failed_requests[:5] + served["wrong_bodies"][:5]:
        print(f"    {message}")
    print(f"  operations attempted {attempted}, failed {failed}")


def _self_times(spans) -> dict[int, float]:
    """Span id -> duration minus its same-process children's durations."""
    child_time: dict[int, float] = defaultdict(float)
    pid_of = {s[ID]: s[PID] for s in spans}
    for s in spans:
        if s[PARENT] is not None and pid_of.get(s[PARENT]) == s[PID]:
            child_time[s[PARENT]] += s[END] - s[START]
    return {s[ID]: (s[END] - s[START]) - child_time[s[ID]] for s in spans}


def layer_table(traced: dict) -> tuple[list[dict], float]:
    """Per-layer rows over the traced pipeline window, and the unaccounted s.

    Spans recorded inside pool workers are their own rows, marked
    ``workers``: they run beside the parent's ``perf.map_table`` span, so
    their busy time is not a share of the wall time.
    """
    spans = [tuple(s) for s in traced["spans"]]
    main_pid = min(s[PID] for s in spans if s[NAME] == "stage.preprocess")
    lo = traced["pipeline_start"]
    hi = lo + traced["pipeline_s"]
    selfs = _self_times(spans)
    rows: dict[str, dict] = {}
    accounted = 0.0
    for s in spans:
        in_window = s[START] >= lo and s[END] <= hi + 1e-6
        if s[PID] == main_pid and not in_window:
            continue
        key = s[NAME] if s[PID] == main_pid else f"{s[NAME]} [workers]"
        row = rows.setdefault(key, {"layer": key, "calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "rows": 0, "rss_mb": 0.0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += selfs[s[ID]]
        row["rows"] += s[ROWS] or 0
        if s[RSS] is not None:
            row["rss_mb"] = max(row["rss_mb"], s[RSS])
        if s[PID] == main_pid:
            accounted += selfs[s[ID]]
    for row in rows.values():
        row["rows_per_s"] = row["rows"] / row["total_s"] if row["rows"] and row["total_s"] else 0.0
        row["share"] = row["self_s"] / traced["pipeline_s"] if "[workers]" not in row["layer"] else None
    ordered = sorted(rows.values(), key=lambda r: -r["self_s"])
    return ordered, traced["pipeline_s"] - accounted


def _serving_spans(traced: dict, name: str) -> list[tuple]:
    start = traced.get("serve_start", float("inf"))
    return [tuple(s) for s in traced["spans"] if s[NAME] == name and s[START] >= start]


def _request_split(traced: dict, served: dict) -> dict[str, np.ndarray]:
    """Per steady request of the reference-rate step: client, respond, write, socket (ms).

    A traced run serves that one step, so its request ids are unique.
    """
    respond = {s[TAG]: (s[END] - s[START]) * 1000 for s in _serving_spans(traced, "serving.respond")}
    write: dict[str, float] = defaultdict(float)
    for s in _serving_spans(traced, "serve.write"):
        write[s[TAG]] += (s[END] - s[START]) * 1000
    ref = served["steps"]["ref"]
    client, r_ms, w_ms, sock = [], [], [], []
    steady = served["steady"]
    for i in steady[ref.done[steady] > 0]:
        key = str(int(i))
        if key not in respond:
            continue
        total = (ref.done[i] - ref.sent[i]) * 1000
        client.append(total)
        r_ms.append(respond[key])
        w_ms.append(write.get(key, 0.0))
        sock.append(total - respond[key] - write.get(key, 0.0))
    return {k: np.asarray(v) for k, v in
            (("client", client), ("respond", r_ms), ("write", w_ms), ("socket", sock))}


def layer_metrics(traced: dict, untraced: dict, served: dict) -> dict[str, tuple[float, str]]:
    """The ``per_layer`` metrics of BENCHMARK.json from one traced run."""
    table, unaccounted = layer_table(traced)
    by = {row["layer"]: row for row in table}

    def total(*names) -> float:
        return sum(by[n]["total_s"] for n in names if n in by)

    def calls(*names) -> int:
        return sum(by[n]["calls"] for n in names if n in by)

    counters = traced["counters"]
    match = ("text.best_match", "text.best_match [workers]")
    geocode = ("preprocessing.geocode", "preprocessing.geocode [workers]")
    clean_rows = by.get("preprocessing.clean", {}).get("rows", 0)
    clean_s = total("preprocessing.clean")
    useful = counters.get("text.useful_matches", 0)
    split = _request_split(traced, served)
    renders = _serving_spans(traced, "serving.render")
    ref = served["steps"]["ref"]
    generate = [s[END] - s[START] for s in map(tuple, traced["spans"])
                if s[NAME] == "dataset.generate"]
    stats = traced.get("server_stats", {})
    return {
        "dataset.generate_s": (statistics.median(generate), "s"),
        "preprocessing.quality_s": (total("preprocessing.quality"), "s"),
        "preprocessing.clean_s": (clean_s, "s"),
        "preprocessing.clean_rows_per_s": (clean_rows / clean_s if clean_s else 0.0, "1/s"),
        "text.best_match_calls": (calls(*match), "count"),
        "text.best_match_s": (total(*match), "s"),
        "text.dp_calls": (counters.get("text.dp_calls", 0), "count"),
        "text.dp_per_match": (counters.get("text.dp_calls", 0) / useful if useful else 0.0,
                              "count"),
        "preprocessing.geocode_calls": (calls(*geocode), "count"),
        "preprocessing.geocode_s": (total(*geocode), "s"),
        "preprocessing.geocode_failed": (
            counters.get("preprocessing.geocode_failed", 0)
            + counters.get("preprocessing.geocode.raised", 0), "count"),
        "perf.map_table_calls": (calls("perf.map_table"), "count"),
        "perf.map_table_s": (total("perf.map_table"), "s"),
        "perf.encode_s": (counters.get("perf.encode_s", 0.0), "s"),
        "perf.fallbacks": (counters.get("perf.fallbacks", 0), "count"),
        "preprocessing.outliers_s": (total("preprocessing.outliers"), "s"),
        "preprocessing.kdistance_s": (total("preprocessing.kdistance"), "s"),
        "preprocessing.dbscan_s": (total("preprocessing.dbscan"), "s"),
        "query.select_s": (total("query.select"), "s"),
        "analytics.correlation_s": (total("analytics.correlation"), "s"),
        "analytics.kmeans_s": (total("analytics.kmeans"), "s"),
        "analytics.kmeans_fits": (counters.get("analytics.kmeans_fits", 0), "count"),
        "analytics.discretize_s": (total("analytics.discretize"), "s"),
        "analytics.rules_s": (total("analytics.rules"), "s"),
        "dashboard.build_s": (total("dashboard.build"), "s"),
        "dashboard.html_s": (total("dashboard.html"), "s"),
        "dashboard.html_bytes": (traced["html_bytes"], "bytes"),
        "serving.render_s": (sum(s[END] - s[START] for s in renders), "s"),
        "serving.renders": (traced.get("renders", 0), "count"),
        "serving.respond_us_p50": (_p(split["respond"], 50) * 1000, "us"),
        "serving.respond_us_p99": (_p(split["respond"], 99) * 1000, "us"),
        "serve.write_ms_p99": (_p(split["write"], 99), "ms"),
        "serve.socket_ms_p99": (_p(split["socket"], 99), "ms"),
        "serving.not_modified": (stats.get("not_modified", 0), "count"),
        "serving.shed": (stats.get("shed", 0), "count"),
        "client.late_ms_p99": (_p(ref.late_ms(served["steady"]), 99), "ms"),
        "client.backlog_max": (ref.backlog_max, "count"),
        "rss.highwater_mb": (max((r["rss_mb"] for r in table), default=0.0), "MB"),
        "trace.pipeline_s": (traced["pipeline_s"], "s"),
        "trace.overhead_s": (traced["pipeline_s"] - untraced["pipeline_s"], "s"),
        "trace.unaccounted_s": (unaccounted, "s"),
    }


def print_layers(name, seed, traced, untraced, served, failures) -> None:
    """The per-layer table of a traced run, with the request-path split."""
    table, unaccounted = layer_table(traced)
    wall = traced["pipeline_s"]
    print(f"workload {name}  seed {seed}  traced pipeline {wall:.3f} s, "
          f"untraced {untraced['pipeline_s']:.3f} s, tracing overhead "
          f"{wall - untraced['pipeline_s']:+.3f} s; worker span files merged: "
          f"{traced['workers_merged']}")
    print(f"  {'layer':<34} {'calls':>7} {'self s':>8} {'total s':>8} "
          f"{'rows/s':>10} {'share':>6} {'RSS MB':>7}")
    for row in table:
        share = f"{row['share'] * 100:5.1f}%" if row["share"] is not None else "  n/a "
        rss = f"{row['rss_mb']:7.1f}" if row["rss_mb"] else "      -"
        print(f"  {row['layer']:<34} {row['calls']:>7} {row['self_s']:>8.3f} "
              f"{row['total_s']:>8.3f} {row['rows_per_s']:>10.0f} {share} {rss}")
    print(f"  {'(unaccounted)':<34} {'':>7} {unaccounted:>8.3f} {'':>8} {'':>10} "
          f"{unaccounted / wall * 100:5.1f}%")
    split = _request_split(traced, served)
    if len(split["client"]):
        print("  request path at the reference rate (ms): "
              + ", ".join(f"{k} p50 {_p(v, 50):.3f} p99 {_p(v, 99):.3f}"
                          for k, v in split.items()))
    print(f"  renders after set-up: {traced.get('renders', 0)} "
          f"({sum(s[END] - s[START] for s in _serving_spans(traced, 'serving.render')):.3f} s)")
    for message in failures:
        print(f"  check FAILED: {message}")
