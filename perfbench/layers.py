"""Which public INDICE calls are timed as which layer.

Each layer is a module of ``src/repro``; a span is recorded around every
call ``repro.core.engine`` (or the serving tier) makes into it.  Names
the engine imported with ``from ... import`` are replaced in the engine's
namespace, methods on their class.  Pool workers are forked after these
replacements, so the matcher and geocoder spans of ``perf.map_table``
chunks are recorded inside the workers.
"""

from __future__ import annotations

import importlib
import threading

from tracing import Tracer

from repro.core import engine as engine_module
from repro.core.engine import Indice
from repro.dashboard.dashboard import NavigableDashboard
from repro.analytics.rules import RuleMiner
from repro.perf.parallel import ParallelMap
from repro.preprocessing.address_cleaner import AddressCleaner
from repro.preprocessing.geocoder import GeocodeStatus, SimulatedGeocoder
from repro.serving import server as server_module
from repro.serving import store as store_module
from repro.text import levenshtein
from repro.text.levenshtein import GazetteerIndex

__all__ = ["instrument_pipeline", "instrument_serving"]

# ``repro.analytics`` re-exports the function ``kmeans`` under the module's name
kmeans_module = importlib.import_module("repro.analytics.kmeans")

#: (owner, attribute, layer) of every engine-namespace function timed.
_ENGINE_CALLS = (
    ("assess_quality", "preprocessing.quality"),
    ("detect_outliers", "preprocessing.outliers"),
    ("estimate_dbscan_params", "preprocessing.kdistance"),
    ("dbscan", "preprocessing.dbscan"),
    ("correlation_matrix", "analytics.correlation"),
    ("kmeans_auto", "analytics.kmeans"),
    ("discretize_table", "analytics.discretize"),
)

#: The store's render thunks: one ``serving.render`` span per render.
_RENDERERS = ("render_index", "render_report", "render_dashboard",
              "render_points_geojson")


def _rows_of_table(_self, table, *_args, **_kwargs) -> int:
    return table.n_rows


def _rows_of_first(data, *_args, **_kwargs) -> int:
    """Rows of a function's first argument: a table, matrix or column."""
    return data.n_rows if hasattr(data, "n_rows") else len(data)


def instrument_pipeline(tracer: Tracer) -> None:
    """Wrap every pipeline layer the engine calls."""
    tracer.wrap(Indice, "preprocess", "stage.preprocess")
    tracer.wrap(Indice, "analyze", "stage.analyze")
    tracer.wrap(Indice, "select_case_study", "query.select")
    for attr, layer in _ENGINE_CALLS:
        tracer.wrap(engine_module, attr, layer, rows=_rows_of_first)
    tracer.wrap(AddressCleaner, "clean_table", "preprocessing.clean",
                rows=_rows_of_table)

    def after_match(result, _args, _kwargs):
        if result is not None:
            tracer.count("text.useful_matches")

    tracer.wrap(GazetteerIndex, "best_match", "text.best_match",
                after=after_match, rss=False)

    dp = levenshtein.similarity_at_least

    def counted_dp(a, b, phi):
        tracer.count("text.dp_calls")
        return dp(a, b, phi)

    levenshtein.similarity_at_least = counted_dp

    def after_geocode(response, _args, _kwargs):
        if response.status is not GeocodeStatus.OK:
            tracer.count("preprocessing.geocode_failed")

    tracer.wrap(SimulatedGeocoder, "geocode", "preprocessing.geocode",
                after=after_geocode, rss=False)

    map_table = ParallelMap.map_table

    def timed_map_table(self, chunk_func, table, *args, **kwargs):
        encode, fallbacks = self.encode_seconds, self.fallbacks
        try:
            return map_table(self, chunk_func, table, *args, **kwargs)
        finally:
            tracer.count("perf.encode_s", self.encode_seconds - encode)
            tracer.count("perf.fallbacks", self.fallbacks - fallbacks)

    ParallelMap.map_table = timed_map_table
    tracer.wrap(ParallelMap, "map_table", "perf.map_table",
                rows=lambda _self, _func, table, *a, **k: table.n_rows)

    fit = kmeans_module.kmeans

    def counted_fit(*args, **kwargs):
        tracer.count("analytics.kmeans_fits")
        return fit(*args, **kwargs)

    kmeans_module.kmeans = counted_fit
    tracer.wrap(RuleMiner, "mine", "analytics.rules", rows=_rows_of_table)
    tracer.wrap(Indice, "build_dashboard", "dashboard.build")

    tracer.wrap(NavigableDashboard, "to_html", "dashboard.html")
    for name in _RENDERERS:
        tracer.wrap(store_module, name, "serving.render")
    tracer.wrap(store_module.Artifact, "build", "serving.artifact")


def instrument_serving(tracer: Tracer, server) -> None:
    """Time ``ArtifactServer.respond`` and ``write_payload`` per request.

    The client's ``X-Bench-Request-Id`` header tags both spans, so the
    server side joins the client's timing of the same request.
    """
    current = threading.local()
    respond = server.respond

    def traced_respond(method, raw_path, headers=None):
        request_id = None
        for key, value in (headers or {}).items():
            if key.lower() == "x-bench-request-id":
                request_id = value
        current.request_id = request_id
        token = tracer.begin()
        try:
            response = respond(method, raw_path, headers)
        finally:
            tracer.end(token, "serving.respond", tag=request_id, rss=False)
        return response

    server.respond = traced_respond
    write = server_module.write_payload

    def traced_write(stream, payload):
        token = tracer.begin()
        try:
            return write(stream, payload)
        finally:
            tracer.end(token, "serve.write",
                       tag=getattr(current, "request_id", None), rss=False)

    server_module.write_payload = traced_write
