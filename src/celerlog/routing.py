"""Dynamic routing: skeleton grouping, length bucketing and anchor merging.

Each bucket is an independent work unit. Inside a bucket the largest group
(by distinct messages) anchors a merge round: candidates join the anchor when
their position-aware Jaccard similarity clears a dynamically chosen threshold
and their verb set covers the anchor's. Groups left over once the anchor
budget is spent become sparse groups.

``route()`` is the one routing path, for library callers and ``pipeline.run``
alike. It takes optional precomputed skeletons and an optional bucket mapper,
which ``pipeline.run`` fills from its masking and merging process pools on
large inputs. Either way it aggregates in bucket-length order and builds the
``RoutingStats``, and a failing bucket fails the run with its length named.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Sequence

from .masking import extract_verbs, mask_message
from .model import (
    DenseGroup,
    InternalInvariantError,
    LogBucket,
    LogRecord,
    RouterConfig,
    SkeletonGroup,
    SparseGroup,
)


@dataclass(slots=True)
class MergeState:
    """Bookkeeping for one anchor round, kept for tracing and tests."""

    anchor_key: str
    similarities: dict[str, float]
    tau: float
    k_limit: int
    dense_emitted: int


@dataclass(frozen=True, slots=True)
class RoutingStats:
    skeleton_groups: int
    buckets: int
    dense_groups: int
    sparse_groups: int
    dense_records: int
    sparse_records: int

    def to_dict(self) -> dict:
        return {
            "skeleton_groups": self.skeleton_groups,
            "buckets": self.buckets,
            "dense_groups": self.dense_groups,
            "sparse_groups": self.sparse_groups,
            "dense_records": self.dense_records,
            "sparse_records": self.sparse_records,
        }


def group_by_skeleton(
    records: Sequence[LogRecord],
    skeletons: Sequence[str] | None = None,
) -> list[SkeletonGroup]:
    """Group records by masked skeleton; one group per distinct skeleton.

    Precomputed skeletons (aligned with records) may be passed in so callers
    can mask in parallel; otherwise masking happens here.
    """
    members: dict[str, set[str]] = {}
    record_ids: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        key = skeletons[index] if skeletons is not None else mask_message(record.content)[0]
        if key in members:
            members[key].add(record.content)
            record_ids[key].append(record.line_id)
        else:
            members[key] = {record.content}
            record_ids[key] = [record.line_id]
    return [
        SkeletonGroup(
            key=key,
            key_tokens=tuple(key.split()),
            members=frozenset(members[key]),
            record_ids=tuple(sorted(record_ids[key])),
        )
        for key in sorted(members)
    ]


def bucket_by_length(groups: Iterable[SkeletonGroup]) -> list[LogBucket]:
    """Partition skeleton groups into buckets keyed by key token count."""
    by_length: dict[int, list[SkeletonGroup]] = {}
    for group in groups:
        by_length.setdefault(len(group.key_tokens), []).append(group)
    return [
        LogBucket(length=length, groups=tuple(sorted(by_length[length], key=lambda g: g.key)))
        for length in sorted(by_length)
    ]


def pos_jaccard(a: Sequence[str], b: Sequence[str]) -> float:
    """Jaccard similarity over (position, token) pairs of two equal-length keys.

    With ``m`` matching positions out of ``L`` this equals ``m / (2L - m)``,
    so tokens appearing at different indices never count as shared.
    """
    if len(a) != len(b):
        raise InternalInvariantError(
            f"position-aware Jaccard needs equal lengths, got {len(a)} and {len(b)}"
        )
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / (2 * len(a) - matches)


def singleton_ratio(similarities: Sequence[float], tau: float) -> float:
    """Fraction of candidate scores that fall below the threshold."""
    if not similarities:
        return 0.0
    return sum(1 for score in similarities if score < tau) / len(similarities)


def select_threshold(similarities: Sequence[float], config: RouterConfig) -> float:
    """Pick the merge threshold from the singleton ratio curve.

    Sweep tau upward over the grid; at the first grid point where the ratio
    reaches the quantile limit, back off one step (clamped to the lower
    bound). If the limit is never reached the sweep's upper bound wins.
    """
    steps = int(math.floor((config.tau_max - config.tau_min) / config.tau_step + 1e-9))
    for i in range(steps + 1):
        tau = round(config.tau_min + i * config.tau_step, 12)
        if singleton_ratio(similarities, tau) >= config.p_quantile:
            return max(round(tau - config.tau_step, 12), config.tau_min)
    return config.tau_max


def merge_bucket(
    bucket: LogBucket,
    config: RouterConfig,
    trace: list[MergeState] | None = None,
) -> tuple[list[DenseGroup], list[SparseGroup]]:
    """Run anchor-based merging over one bucket.

    Short buckets and near-empty buckets bypass merging entirely: every
    skeleton group goes straight to the statistical side as its own dense
    group. Otherwise anchors are drawn in decreasing distinct-message order
    (ties broken by key) until the bucket empties or the anchor budget
    ``K = floor(alpha * |bucket|)`` is spent; whatever remains is sparse.
    An anchor that merges nothing is still emitted as a dense group.
    """
    if bucket.length <= config.bypass_length or len(bucket.groups) <= config.bypass_group_count:
        return [DenseGroup(member_groups=(group,)) for group in bucket.groups], []

    remaining = sorted(bucket.groups, key=lambda g: (-g.unique_count, g.key))
    k_limit = max(1, int(config.alpha * len(remaining) + 1e-9))
    verb_cache: dict[str, set[str]] = {}

    def verbs_of(group: SkeletonGroup) -> set[str]:
        if group.key not in verb_cache:
            verb_cache[group.key] = extract_verbs(group.key)
        return verb_cache[group.key]

    dense: list[DenseGroup] = []
    while remaining and len(dense) < k_limit:
        anchor = remaining[0]
        candidates = remaining[1:]
        similarities = {
            candidate.key: pos_jaccard(anchor.key_tokens, candidate.key_tokens)
            for candidate in candidates
        }
        tau = select_threshold(list(similarities.values()), config) if candidates else config.tau_max
        anchor_verbs = verbs_of(anchor)
        matched = [anchor]
        for candidate in candidates:
            if similarities[candidate.key] >= tau and anchor_verbs <= verbs_of(candidate):
                matched.append(candidate)
        dense.append(DenseGroup(member_groups=tuple(matched), anchor_key=anchor.key))
        if trace is not None:
            trace.append(
                MergeState(
                    anchor_key=anchor.key,
                    similarities=similarities,
                    tau=tau,
                    k_limit=k_limit,
                    dense_emitted=len(dense),
                )
            )
        matched_keys = {group.key for group in matched}
        remaining = [group for group in remaining if group.key not in matched_keys]

    sparse = [SparseGroup(group=group) for group in remaining]
    return dense, sparse


BucketOutcome = tuple[list[DenseGroup], list[SparseGroup]]
BucketMapper = Callable[
    [Sequence[LogBucket], Callable[[LogBucket], BucketOutcome]], list[BucketOutcome]
]


def _merge_naming_bucket(bucket: LogBucket, config: RouterConfig) -> BucketOutcome:
    """Merge one bucket; a failure fails the run with the bucket named."""
    try:
        return merge_bucket(bucket, config)
    except Exception as exc:
        raise InternalInvariantError(
            f"routing failed in bucket of length {bucket.length}: {exc}"
        ) from exc


def route(
    records: Sequence[LogRecord],
    config: RouterConfig | None = None,
    skeletons: Sequence[str] | None = None,
    bucket_mapper: BucketMapper | None = None,
) -> tuple[list[DenseGroup], list[SparseGroup], RoutingStats]:
    """Partition records into dense and sparse groups.

    ``skeletons``, when given, are the masked keys aligned with ``records``.
    ``bucket_mapper(buckets, work)`` must return ``work(bucket)`` for every
    bucket, in order; results are aggregated in bucket-length order, so the
    output is identical no matter how the mapper schedules the work.
    """
    if config is None:
        config = RouterConfig()
    groups = group_by_skeleton(records, skeletons)
    buckets = bucket_by_length(groups)

    # A partial over the module-level function stays picklable, so mappers
    # backed by process pools can ship it to workers.
    work = partial(_merge_naming_bucket, config=config)
    if bucket_mapper is None:
        outcomes = [work(bucket) for bucket in buckets]
    else:
        outcomes = bucket_mapper(buckets, work)

    dense: list[DenseGroup] = []
    sparse: list[SparseGroup] = []
    for bucket_dense, bucket_sparse in outcomes:
        dense.extend(bucket_dense)
        sparse.extend(bucket_sparse)

    dense_records = sum(len(group.record_ids()) for group in dense)
    sparse_records = sum(len(item.group.record_ids) for item in sparse)
    stats = RoutingStats(
        skeleton_groups=len(groups),
        buckets=len(buckets),
        dense_groups=len(dense),
        sparse_groups=len(sparse),
        dense_records=dense_records,
        sparse_records=sparse_records,
    )
    return dense, sparse, stats
