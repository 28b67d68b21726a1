"""An inference backend with simulated service latency, owned by the benchmark.

It answers exactly as ``MockBackend`` does, after sleeping a fixed delay per
request plus a delay per prompt token. It records every call's latency,
the highest number of requests in flight at once, and the wall time during
which at least one request was in flight. The pipeline bounds the
in-flight count by ``jobs``, so the load is a closed loop of ``jobs`` callers.
"""

from __future__ import annotations

import threading
import time

from celerlog.llm import BackendResponse, MockBackend, PromptEnvelope


class LatencyBackend(MockBackend):
    def __init__(self, request_s: float, token_s: float) -> None:
        self.request_s = request_s
        self.token_s = token_s
        # With no delay this is MockBackend, which the pipeline treats as
        # CPU-bound; any delay makes the backend wait like a remote service.
        self.io_bound = request_s > 0 or token_s > 0
        self.latencies: list[float] = []
        self.inflight_max = 0
        #: Seconds with at least one delayed request in flight: time the run
        #: spent waiting on the simulated service rather than computing.
        self.wait_s = 0.0
        self._inflight = 0
        self._wait_began = 0.0
        self._lock = threading.Lock()

    def infer(self, envelope: PromptEnvelope) -> BackendResponse:
        started = time.perf_counter()
        with self._lock:
            if self._inflight == 0:
                self._wait_began = started
            self._inflight += 1
            self.inflight_max = max(self.inflight_max, self._inflight)
        try:
            response = super().infer(envelope)
            delay = self.request_s + self.token_s * response.prompt_tokens
            if delay > 0:
                time.sleep(max(0.0, delay - (time.perf_counter() - started)))
            return response
        finally:
            finished = time.perf_counter()
            with self._lock:
                self._inflight -= 1
                self.latencies.append(finished - started)
                if self._inflight == 0 and self.io_bound:
                    self.wait_s += finished - self._wait_began
