"""One fresh INDICE process: a cold pipeline run, then its dashboard server.

Started by ``run.py`` as ``python3 perfbench/child.py <spec.json>`` with
``src`` on ``PYTHONPATH`` and the stage cache off, so every timed run
starts with an empty street-map ``GazetteerIndex`` memo and no pool.

1. **Set-up** generates the collection (plus the CLI's default noise when
   dirty) ``setup_reps`` times; the last one is the input.
2. **Pipeline** (timed cold, once): ``preprocess`` -> ``select_case_study``
   -> ``analyze`` -> the artifact store pre-rendered, i.e. the three
   stakeholders' navigable dashboards, the index, the report and the
   GeoJSON layer as the bytes users receive.  Outputs are checked.
3. **Serve** (when asked): the same process serves that store with the
   pooled ``ArtifactServer`` on an ephemeral port, prints ``{"port": N}``
   and obeys one stdin command per line: ``publish T1 T2 ...`` publishes
   a new analysis version at each of those ``time.perf_counter`` instants
   (the system-wide monotonic clock, which the load generator shares)
   through ``ArtifactServer.reload(build_store(...))``, alternating the
   second version and the first; ``settle`` waits for the last publish,
   pre-renders the current store and prints ``{"settled": ...}``;
   ``stop`` ends serving.

The last stdout line is one JSON object with the results (and, when
traced, the spans recorded by ``layers.py``).
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import layers
from loadgen import SAMPLE_EVERY
from tracing import Tracer, reset_rss_highwater, rss_highwater_mb

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
)
from repro.serving import ArtifactServer, build_store

#: Handler threads of the server, the ``repro serve`` default.
WORKERS = 8


def make_collection(n: int, seed: int, dirty: bool):
    """What ``repro generate`` writes; ``dirty`` False is ``--clean``."""
    collection = generate_epc_collection(SyntheticConfig(n_certificates=n, seed=seed))
    if dirty:
        collection.table = apply_noise(collection, NoiseConfig(seed=seed + 1)).table
    return collection


def street_checks(engine: Indice, corrupt: bool = False) -> tuple[float, int]:
    """Street accuracy over the city's rows, and rows a clean input lost.

    Accuracy is the share of the city's rows whose cleaned street is the
    street the generator planted.  A row whose raw address already *was*
    its planted street must keep it: each such row cleaned to another
    street is a wrong output, not a slow one.  *corrupt* plants one such
    wrong street, for the self-test.
    """
    collection = engine.collection
    report = engine._require_preprocessed().cleaning_report
    city_rows = np.flatnonzero(collection.table["city"] == engine.config.city)
    raw = collection.table["address"][city_rows]
    cleaned = np.array(report.table["address"], dtype=object)
    records = collection.street_map.records
    if corrupt:
        k = int(np.flatnonzero(raw == cleaned)[0])
        cleaned[k] = next(r.street for r in records if r.street != cleaned[k])
    hits = broken = 0
    for k, g in enumerate(collection.gazetteer_index[city_rows]):
        truth = records[g].street if g >= 0 else None
        if cleaned[k] == truth:
            hits += 1
        elif raw[k] == truth:
            broken += 1
    return hits / len(city_rows), broken


def run_pipeline(engine: Indice):
    """The timed cold run; returns ``(seconds, store)``."""
    start = time.perf_counter()
    engine.preprocess()
    selection = engine.select_case_study()
    engine.analyze(selection)
    store = build_store(engine)
    store.prerender()
    return time.perf_counter() - start, store


def check_outputs(engine: Indice, store) -> list[str]:
    """Row conservation and content addressing; one message per failure."""
    outcome = engine._require_preprocessed()
    failures = []
    if outcome.n_rows_in != engine.collection.table.n_rows:
        failures.append("preprocess did not see every input row")
    if outcome.n_rows_out + outcome.n_outlier_rows != outcome.n_rows_in or (
        outcome.table.n_rows != outcome.n_rows_out
    ):
        failures.append("rows not conserved: in != kept + filtered")
    for path in store.paths():
        artifact = store.get(path)
        if f'"{hashlib.sha256(artifact.body).hexdigest()}"' != artifact.etag:
            failures.append(f"{path}: body does not hash to its ETag")
    return failures


def truncate_one_body(server: ArtifactServer) -> None:
    """Self-test fault: one full dashboard response loses its tail.

    It is the first one the load generator samples for hashing (request
    id a multiple of ``SAMPLE_EVERY``) inside a timed step, so only the
    sampled body check can catch it: the server sends the truncated body
    with a matching ``Content-Length``.
    """
    respond = server.respond
    done = threading.Event()

    def truncating(method, raw_path, headers=None):
        response = respond(method, raw_path, headers)
        request_id = {k.lower(): v for k, v in (headers or {}).items()}.get(
            "x-bench-request-id"
        )
        if (response.status == 200 and raw_path.startswith("/dashboard/")
                and request_id is not None and int(request_id) % SAMPLE_EVERY == 0
                and not done.is_set()):
            done.set()
            return replace(response, body=response.body[: len(response.body) // 2])
        return response

    server.respond = truncating


class _Publisher(threading.Thread):
    """Publishes the prepared versions at fixed instants, alternately.

    Every store is built before the first instant, so a publish is only
    the swap: each published store starts cold and its routes render on
    the first requests that ask for them.
    """

    def __init__(self, server: ArtifactServer, engines: list[Indice], at: list[float]):
        super().__init__(name="bench-publisher", daemon=True)
        self.server = server
        self.at = at
        self.stores = [build_store(engines[(k + 1) % len(engines)]) for k in range(len(at))]
        self.late_ms: list[float] = []

    def run(self) -> None:
        for when, store in zip(self.at, self.stores):
            time.sleep(max(when - time.perf_counter(), 0.0))
            self.server.reload(store)
            self.late_ms.append((time.perf_counter() - when) * 1000.0)


def serve(engine: Indice, store, spec: dict, tracer: Tracer | None, out: dict) -> None:
    """Serve *store* until ``stop`` arrives on stdin."""
    engines = [engine]
    if spec["reloads"]:
        # the second version: a collection from a second seed, analyzed
        # before any load starts
        other = Indice(
            make_collection(spec["certificates"], spec["seed"] + 1000, spec["dirty"]),
            IndiceConfig(n_jobs=spec["jobs"], stage_cache=False),
        )
        other.preprocess()
        other.analyze()
        engines.append(other)
    server = ArtifactServer(store)
    if tracer is not None:
        layers.instrument_serving(tracer, server)
    if spec["corrupt"] == "body":
        truncate_one_body(server)
    publisher = None
    renders_at_start = store.total_renders
    with server.serving(workers=WORKERS) as (httpd, __):
        out["serve_start"] = time.perf_counter()
        print(json.dumps({"port": httpd.server_address[1]}), flush=True)
        for line in sys.stdin:
            command, *args = line.split() or [""]
            if command == "publish" and publisher is None:
                publisher = _Publisher(server, engines, [float(a) for a in args])
                publisher.start()
            elif command == "settle":
                if publisher is not None:
                    publisher.join()
                server.store.prerender()
                print(json.dumps({"settled": server.store.version}), flush=True)
            elif command == "stop":
                break
        if publisher is not None:
            publisher.join()
    published = publisher.stores if publisher is not None else []
    out["reloads"] = len(published)
    out["publish_late_ms"] = publisher.late_ms if publisher is not None else []
    out["server_stats"] = dict(server.stats)
    # renders after set-up: every published store starts cold
    out["renders"] = store.total_renders - renders_at_start + sum(
        s.total_renders for s in published
    )


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["run_id"], spill_dir=Path(spec["spill_dir"]))
        layers.instrument_pipeline(tracer)
    out: dict = {"setup_s": []}
    collection = None
    for __ in range(spec["setup_reps"]):
        token = tracer.begin() if tracer is not None else None
        start = time.perf_counter()
        collection = make_collection(spec["certificates"], spec["seed"], spec["dirty"])
        out["setup_s"].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(token, "dataset.generate", rows=spec["certificates"])
    engine = Indice(collection, IndiceConfig(n_jobs=spec["jobs"], stage_cache=False))
    out["rss_reset"] = reset_rss_highwater()
    out["pipeline_start"] = time.perf_counter()
    out["pipeline_s"], store = run_pipeline(engine)
    out["peak_rss_mb"] = rss_highwater_mb()
    # ru_maxrss of the largest waited-for child: the biggest pool worker
    out["worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    out["street_accuracy"], out["rows_broken"] = street_checks(
        engine, corrupt=spec["corrupt"] == "street"
    )
    out["failures"] = check_outputs(engine, store)
    out["analysis_version"] = engine.analysis_version()
    out["digests"] = {path: store.get(path).etag.strip('"') for path in store.paths()}
    out["n_rows_in"] = engine._require_preprocessed().n_rows_in
    out["html_bytes"] = sum(
        len(store.get(path).body) for path in store.paths() if path.startswith("/dashboard/")
    )
    if spec["serve"]:
        serve(engine, store, spec, tracer, out)
    if tracer is not None:
        out["workers_merged"] = tracer.read_workers()
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
