"""The traced run: ``pipeline.run`` recomposed from its public layer calls.

The calls follow ``pipeline.run`` at ``jobs=1``: ingest, mask every record,
group and bucket, merge each bucket, process the sparse groups inline, extract
dense templates, finalize, assemble rows and write. A span surrounds each
layer call. Per-record and per-group calls (``mask_message``,
``extract_template``, ``finalize``) get one span around their loop, since a
span per call would cost as much as the call. Spans stay in memory until the
run ends; counts are taken after the timed run so they cost it nothing.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from celerlog import llm, pipeline, statistical
from celerlog.masking import mask_message
from celerlog.model import SOURCE_ROLLBACK, CostLedger, RouterConfig
from celerlog.routing import (
    RoutingStats,
    bucket_by_length,
    group_by_skeleton,
    merge_bucket,
)


class Tracer:
    """Collects spans (name, start, end, parent index) for one run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._stack.pop()

    def to_records(self) -> list[dict]:
        return [
            {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "run_id": self.run_id}
            for name, start, end, parent in self.spans
        ]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), nanos in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + nanos / 1e9
        return totals

    def durations(self, name: str) -> list[float]:
        return [(end - start) / 1e9 for span_name, start, end, _ in self.spans if span_name == name]


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] * 1000 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def traced_run(input_path: Path, out_dir: Path, backend, run_id: str) -> dict:
    """Run the recomposed pipeline under spans; return spans and layer metrics."""
    config = RouterConfig(jobs=1)
    config.validate()
    tracer = Tracer(run_id)
    span = tracer.span
    started_at = time.perf_counter()

    with span("run"):
        with span("pipeline.ingest"):
            records, ingest_stats = pipeline.ingest(input_path)
        ledger = CostLedger()

        with span("masking"):
            skeletons = [mask_message(record.content)[0] for record in records]

        with span("routing.group"):
            groups = group_by_skeleton(records, skeletons)
        with span("routing.group"):
            buckets = bucket_by_length(groups)

        dense: list = []
        sparse: list = []
        merge_states: list[list] = []
        for bucket in buckets:
            states: list = []
            with span("routing.merge"):
                bucket_dense, bucket_sparse = merge_bucket(bucket, config, trace=states)
            dense.extend(bucket_dense)
            sparse.extend(bucket_sparse)
            merge_states.append(states)

        routing_stats = RoutingStats(
            skeleton_groups=len(groups),
            buckets=len(buckets),
            dense_groups=len(dense),
            sparse_groups=len(sparse),
            dense_records=sum(len(group.record_ids()) for group in dense),
            sparse_records=sum(len(item.group.record_ids) for item in sparse),
        )
        ledger.add_routing_counts(routing_stats.dense_records, routing_stats.sparse_records)

        sparse_results = {}
        if sparse:
            with span("llm"):
                sparse_results = llm.process_sparse(sparse, backend, config, ledger)

        by_content = {}
        with span("statistical.extract"):
            for group in dense:
                by_content.update(statistical.extract_template(group))
        statistical_messages = len(by_content)
        by_content.update(sparse_results)

        with span("statistical.finalize"):
            final = {
                content: statistical.finalize(result, tuple(content.split()))
                for content, result in by_content.items()
            }

        with span("pipeline.rows"):
            rows = [
                pipeline.ParsedRecord(
                    line_id=record.line_id, content=record.content, result=final[record.content]
                )
                for record in records
            ]
            catalog = Counter(row.result.template for row in rows)

        with span("pipeline.write"):
            pipeline.write_output(
                rows, catalog, ledger, out_dir, config=config, routing=routing_stats,
                ingest_stats=ingest_stats, started_at=started_at,
            )

    self_times = tracer.self_times()
    total_s = tracer.durations("run")[0]
    tokens: list[str] = []
    for record in records:
        tokens.extend(record.content.split())
    pairs_scored = sum(len(state.similarities) for states in merge_states for state in states)
    joined = sum(len(group.member_groups) - 1 for group in dense if group.anchor_key is not None)
    latencies = backend.latencies
    layer = {
        "pipeline.ingest.s": self_times["pipeline.ingest"],
        "pipeline.ingest.records": len(records),
        "pipeline.write.s": self_times["pipeline.write"],
        "pipeline.write.bytes": sum(
            (out_dir / name).stat().st_size
            for name in ("structured.csv", "templates.csv", "run.json")
        ),
        "masking.s": self_times["masking"],
        "masking.tokens": len(tokens),
        "masking.distinct_tokens": len(set(tokens)),
        "masking.skeletons": len(set(skeletons)),
        "routing.group.s": self_times["routing.group"],
        "routing.groups": len(groups),
        "routing.buckets": len(buckets),
        "routing.max_bucket_groups": max(len(bucket.groups) for bucket in buckets),
        "routing.merge.s": self_times["routing.merge"],
        "routing.merge.pairs_scored": pairs_scored,
        "routing.merge.anchor_rounds": sum(len(states) for states in merge_states),
        "routing.merge.max_bucket_s": max(tracer.durations("routing.merge")),
        "routing.merge.join_frac": joined / pairs_scored if pairs_scored else 0.0,
        "routing.bypassed_buckets": sum(1 for states in merge_states if not states),
        "routing.dense_groups": len(dense),
        "routing.sparse_groups": len(sparse),
        "statistical.extract.s": self_times["statistical.extract"],
        "statistical.groups": len(dense),
        "statistical.messages": statistical_messages,
        "statistical.finalize.s": self_times["statistical.finalize"],
        "statistical.finalize.rewritten": sum(
            1 for content, result in by_content.items()
            if final[content].template != result.template
        ),
        "llm.s": self_times.get("llm", 0.0),
        "llm.busy_s": sum(latencies),
        "llm.requests": ledger.llm_invocations,
        "llm.tokens": ledger.tokens_consumed,
        "llm.latency_p50_ms": _percentile_ms(latencies, 50),
        "llm.latency_p99_ms": _percentile_ms(latencies, 99),
        "llm.inflight_max": backend.inflight_max,
        "llm.retries": len(latencies) - len(sparse_results),
        "llm.rollback_frac": (
            sum(1 for result in sparse_results.values() if result.source == SOURCE_ROLLBACK)
            / len(sparse_results) if sparse_results else 0.0
        ),
    }
    return {
        "total_s": total_s,
        "self_times": self_times,
        "layer": layer,
        "spans": tracer.to_records(),
    }
