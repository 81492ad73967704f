"""Open-loop HTTP load generator: two threads, two keep-alive connections.

Request *i* of a step is due at ``t0 + i / rate`` whatever happened to the
requests before it (an open loop: independent users do not wait for each
other).  Each of the two sender threads owns one keep-alive connection.
When a request falls due it goes to the connection that went idle last
(a LIFO pool, as HTTP client pools reuse connections); when both are
busy it waits for one.  Latency is measured from the due time, so a
stall is charged to every request queued behind it; how late the
generator itself ran is reported beside it.  A step with no rate is a
closed-loop burst: each request goes out as soon as a connection is
idle, which measures the rate the two connections sustain.

Every request carries ``X-Bench-Request-Id`` so the server's spans can be
joined to the client's timings.  A failed request (a status other than
200/304, a 503 shed, a timeout, a short or unreadable body) counts as
missing every latency limit.  The bodies of the requests whose id is a
multiple of :data:`SAMPLE_EVERY` are kept and hashed against their
``ETag`` after the timed window, so hashing never loads the generator.
"""

from __future__ import annotations

import gc
import gzip
import hashlib
import http.client
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ROUTES", "SAMPLE_EVERY", "Plan", "StepResult", "make_plan", "run_step",
           "verify_bodies"]

#: The six routes of the serving surface.
ROUTES = (
    "/",
    "/dashboard/citizen",
    "/dashboard/public_administration",
    "/dashboard/energy_scientist",
    "/report",
    "/geojson/points",
)

#: Latency limit on a step's p99.
P99_LIMIT_MS = 100.0
#: Per-request socket timeout; a request slower than this fails.
TIMEOUT_S = 10.0
#: Sender threads, each with one keep-alive connection.
CONNECTIONS = 2
#: Every request whose id is a multiple of this has its body hashed.
SAMPLE_EVERY = 16


@dataclass(frozen=True)
class Plan:
    """The seeded request sequence of one step: route and conditional flag."""

    routes: tuple[int, ...]
    conditional: tuple[bool, ...]


def make_plan(seed: int, n: int) -> Plan:
    """*n* requests cycling through :data:`ROUTES`, half of them conditional.

    The routes come in a fixed cycle, so a version published at a fixed
    time empties the store just before the same route in every run and
    the cold renders are asked for in the same order; the seed chooses
    which requests are conditional.
    """
    rng = np.random.default_rng(seed)
    routes = np.arange(n) % len(ROUTES)
    conditional = rng.permutation(np.arange(n) % 2 == 0)
    return Plan(tuple(int(r) for r in routes), tuple(bool(c) for c in conditional))


@dataclass
class StepResult:
    """Client-side record of one step."""

    rate: float | None
    planned: int
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    failures: list[str] = field(default_factory=list)
    #: ``(etag, gzipped body)`` of the sampled 200 responses.
    samples: list[tuple[str, bytes]] = field(default_factory=list)
    backlog_max: int = 0
    backlog_end: int = 0

    @property
    def attempted(self) -> int:
        return int(np.count_nonzero(self.sent > 0))

    def late_ms(self, requests: slice | np.ndarray = slice(None)) -> np.ndarray:
        """How late each sent request of *requests* left the generator, in ms."""
        sent, due = self.sent[requests], self.due[requests]
        return (sent[sent > 0] - due[sent > 0]) * 1000.0

    def percentile_ms(self, q: float, requests: slice | np.ndarray = slice(None)) -> float:
        """Latency percentile of *requests* (all by default), from due time.

        A failed request counts as the timeout.
        """
        done, due = self.done[requests], self.due[requests]
        lat = (done[done > 0] - due[done > 0]) * 1000.0
        missing = len(done) - len(lat)
        if missing:
            lat = np.concatenate([lat, np.full(missing, TIMEOUT_S * 1000.0)])
        return float(np.percentile(lat, q, method="higher"))

    def throughput(self) -> float:
        """Completed requests per second, first send to last answer."""
        ok = self.done > 0
        span = self.done[ok].max() - self.sent[self.sent > 0].min()
        return float(np.count_nonzero(ok) / span)


class _Sender(threading.Thread):
    """One keep-alive connection, sending the requests its pool hands it."""

    def __init__(self, step: "_Step", port: int):
        super().__init__(name="bench-sender", daemon=True)
        self.step = step
        self.port = port
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        try:
            while (i := self.step.take(self)) is not None:
                conn = self.step.send(conn, i, self.port)
        except Exception as exc:  # surfaced by run_step
            self.error = exc
        finally:
            conn.close()


class _Step:
    """One step: the schedule, the LIFO pool of idle senders, the results.

    Only the sender on top of the idle stack (the one that went idle last)
    may take the next request, and only once it is due; so at low rates
    one connection carries most requests, as with a LIFO client pool.
    """

    def __init__(self, plan: Plan, rate: float | None, etags: dict[str, str]):
        n = len(plan.routes)
        self.plan = plan
        self.rate = rate
        self.etags = etags
        self.cond = threading.Condition()
        self.idle: list[_Sender] = []
        self.next = 0
        self.t0 = 0.0
        self.result = StepResult(rate, n, np.zeros(n), np.zeros(n), np.zeros(n))

    def take(self, sender: _Sender) -> int | None:
        """Park *sender* as idle until it may take a due request."""
        res = self.result
        with self.cond:
            self.idle.append(sender)
            self.cond.notify_all()
            while self.next < res.planned:
                if self.idle[-1] is sender:
                    now = time.perf_counter()
                    due = now if self.rate is None else self.t0 + self.next / self.rate
                    if due <= now:
                        break
                    self.cond.wait(due - now)
                else:
                    self.cond.wait()
            else:
                self.idle.remove(sender)
                self.cond.notify_all()
                return None
            i = self.next
            self.next += 1
            self.idle.pop()
            self.cond.notify_all()
            res.due[i] = due
            if self.rate is not None:
                due_count = min(int((now - self.t0) * self.rate) + 1, res.planned)
                res.backlog_max = max(res.backlog_max, due_count - i - 1)
            return i

    def _fail(self, i: int, reason: str) -> None:
        with self.cond:
            self.result.failures.append(f"request {i}: {reason}")

    def send(self, conn: http.client.HTTPConnection, i: int, port: int):
        """Send request *i* on *conn*; returns the connection to keep using."""
        res = self.result
        path = ROUTES[self.plan.routes[i]]
        headers = {"Accept-Encoding": "gzip", "X-Bench-Request-Id": str(i)}
        etag = self.etags.get(path)
        if self.plan.conditional[i] and etag:
            headers["If-None-Match"] = etag
        res.sent[i] = time.perf_counter()
        try:
            conn.request("GET", path, headers=headers)
            response = conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
        res.done[i] = time.perf_counter()
        if response.status not in (200, 304):
            self._fail(i, f"status {response.status}")
            return conn
        new_etag = response.getheader("ETag")
        if response.status == 304:
            if new_etag != etag:
                self._fail(i, "304 for a validator the server did not send")
            return conn
        length = response.getheader("Content-Length")
        if new_etag is None or length is None or int(length) != len(body):
            self._fail(i, "200 without ETag or with a short body")
            return conn
        self.etags[path] = new_etag
        if i % SAMPLE_EVERY == 0:
            gzipped = response.getheader("Content-Encoding") == "gzip"
            res.samples.append(
                (new_etag, body if gzipped else gzip.compress(body, mtime=0))
            )
        return conn


def run_step(port: int, plan: Plan, rate: float | None, etags: dict[str, str],
             t0: float | None = None) -> StepResult:
    """Drive one step of ``len(plan.routes)`` requests at *rate* req/s.

    ``rate=None`` runs the step closed-loop: each request goes out as soon
    as a connection is idle.  *etags* is the client's validator cache,
    shared across steps.  The first request is due at the
    ``time.perf_counter`` instant *t0*, by default 50 ms from now.
    """
    step = _Step(plan, rate, etags)
    senders = [_Sender(step, port) for __ in range(CONNECTIONS)]
    expected = len(plan.routes) / rate if rate else 0.0
    # the generator's own collector pauses are not the server's latency
    gc.collect()
    gc.disable()
    try:
        step.t0 = time.perf_counter() + 0.05 if t0 is None else t0
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join(timeout=expected + 4 * TIMEOUT_S + 60)
            if sender.is_alive():
                raise RuntimeError("load generator thread did not finish")
            if sender.error is not None:
                raise sender.error
    finally:
        gc.enable()
    res = step.result
    if rate is not None:
        # requests still unsent when the last one fell due
        last_due = step.t0 + (res.planned - 1) / rate
        res.backlog_end = int(np.count_nonzero(res.sent > last_due))
    return res


def verify_bodies(samples: list[tuple[str, bytes]]) -> list[str]:
    """Check each sampled gzipped body hashes to its ETag; the failures."""
    failures = []
    checked: set[tuple[str, int]] = set()
    for etag, gzipped in samples:
        key = (etag, hash(gzipped))
        if key in checked:
            continue
        checked.add(key)
        try:
            body = gzip.decompress(gzipped)
        except (OSError, EOFError) as exc:
            failures.append(f"body for {etag} does not decompress: {exc}")
            continue
        digest = f'"{hashlib.sha256(body).hexdigest()}"'
        if digest != etag:
            failures.append(f"body hashes to {digest}, ETag says {etag}")
    return failures
