"""Dynamic routing: skeleton grouping, length bucketing and anchor merging.

Each bucket is an independent work unit. Inside a bucket the largest group
(by distinct messages) anchors a merge round: candidates join the anchor when
their position-aware Jaccard similarity clears a threshold chosen per round
from the fixed ``TAU_GRID`` and their verb set covers the anchor's. Groups
left over once the anchor budget is spent become sparse groups, and buckets
of short keys or few groups skip merging (``BYPASS_LENGTH``,
``BYPASS_GROUP_COUNT``). Each bucket is indexed once by (position, token),
so an anchor round reads the anchor's posting lists instead of comparing the
anchor with every candidate (the token-position idea of Drain's fixed-depth
tree).

``route()`` is the one routing path, for library callers and ``pipeline.run``
alike. It takes ``(line_id, content)`` pairs and optional precomputed
skeletons, which ``pipeline.run`` passes as a stream from ``masking.skeletons``
or as the list its forked masking processes made, merges the buckets in length
order and builds the ``RoutingStats``; a failing bucket fails the run with its
length named.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from . import masking
from .masking import extract_verbs
from .model import (
    DenseGroup,
    InternalInvariantError,
    LogBucket,
    RouterConfig,
    SkeletonGroup,
    SparseGroup,
)


#: The grid the merge threshold is swept over: 0.50 to 0.95 in steps of 0.01.
TAU_GRID = tuple(round(0.5 + i * 0.01, 12) for i in range(46))

#: A bucket whose keys have at most this many tokens skips merging.
BYPASS_LENGTH = 3

#: A bucket holding at most this many skeleton groups skips merging.
BYPASS_GROUP_COUNT = 2


class MergeState(NamedTuple):
    """Bookkeeping for one anchor round, kept for tracing and tests."""

    anchor_key: str
    similarities: dict[str, float]
    tau: float
    k_limit: int


class RoutingStats(NamedTuple):
    skeleton_groups: int
    buckets: int
    dense_groups: int
    sparse_groups: int
    dense_records: int
    sparse_records: int

    def to_dict(self) -> dict:
        return self._asdict()


def group_by_skeleton(
    records: Iterable[tuple[int, str]],
    skeletons: Iterable[str] | None = None,
) -> list[SkeletonGroup]:
    """Group ``(line_id, content)`` records (``LogRecord``s, or an
    ``enumerate`` of contents) by masked skeleton, one group per distinct
    skeleton, through one dict from each skeleton to its contents and line ids.

    Precomputed skeletons, one per record (another count raises ValueError),
    may be passed in so callers can mask in parallel; otherwise masking
    happens here (``masking.skeletons``), which reads the records a second
    time, so records that are not a sequence are first read into a list.
    """
    if skeletons is None:
        if not isinstance(records, Sequence):
            records = list(records)
        skeletons = masking.skeletons(content for _, content in records)
    by_key: dict[str, tuple[set[str], list[int]]] = {}
    for key, (line_id, content) in zip(skeletons, records, strict=True):
        found = by_key.get(key)
        if found is None:
            by_key[key] = ({content}, [line_id])
        else:
            found[0].add(content)
            found[1].append(line_id)
    # Pop each key's set and list as its group is built, so each is freed
    # once copied rather than when the last group is done.
    groups = []
    for key in sorted(by_key):
        members, ids = by_key.pop(key)
        ids.sort()
        groups.append(
            SkeletonGroup(
                key=key,
                key_tokens=tuple(key.split()),
                members=frozenset(members),
                record_ids=tuple(ids),
            )
        )
    return groups


def bucket_by_length(groups: Iterable[SkeletonGroup]) -> list[LogBucket]:
    """Partition skeleton groups into buckets keyed by key token count."""
    by_length: dict[int, list[SkeletonGroup]] = {}
    for group in groups:
        by_length.setdefault(len(group.key_tokens), []).append(group)
    return [
        LogBucket(length=length, groups=tuple(sorted(by_length[length], key=lambda g: g.key)))
        for length in sorted(by_length)
    ]


def select_threshold(ordered: Sequence[float], zeros: int, config: RouterConfig) -> float:
    """Pick the merge threshold from the singleton ratio curve of the ascending
    scores ``ordered`` plus ``zeros`` more scores of 0, counted rather than listed.

    The singleton ratio at ``tau`` is the fraction of candidate scores below
    it. Sweep tau upward over ``TAU_GRID`` (0.50 to 0.95, step 0.01); at the
    first grid point where the ratio reaches ``config.p_quantile``, back off
    to the grid point before it (0.50 stays 0.50). If the limit is never
    reached the sweep ends at 0.95. Each grid point counts the scores below
    it by bisection.
    """
    total = len(ordered) + zeros
    previous = TAU_GRID[0]
    for tau in TAU_GRID:
        if total and (bisect_left(ordered, tau) + zeros) / total >= config.p_quantile:
            return previous
        previous = tau
    return TAU_GRID[-1]


def merge_bucket(
    bucket: LogBucket,
    config: RouterConfig,
    trace: list[MergeState] | None = None,
) -> tuple[list[DenseGroup], list[SparseGroup]]:
    """Run anchor-based merging over one bucket.

    A bucket whose keys have at most ``BYPASS_LENGTH`` tokens, or which holds
    at most ``BYPASS_GROUP_COUNT`` groups, bypasses merging entirely: every
    skeleton group goes straight to the statistical side as its own dense
    group. Otherwise anchors are drawn in decreasing distinct-message order
    (ties broken by key) until the bucket empties or the anchor budget
    ``K = floor(alpha * |bucket|)`` is spent; whatever remains is sparse.
    An anchor that merges nothing is still emitted as a dense group.

    A candidate's score is the position-aware Jaccard similarity of the two
    keys: with ``m`` of the ``L`` positions holding the same token it is
    ``m / (2L - m)``. The bucket is indexed once by (position, token), so
    each anchor round counts ``m`` for every candidate from the anchor's
    ``L`` posting lists instead of comparing the anchor with each candidate;
    a candidate sharing no position scores 0. Verb sets are read only in a
    round with hits.
    """
    if bucket.length <= BYPASS_LENGTH or len(bucket.groups) <= BYPASS_GROUP_COUNT:
        return [DenseGroup(member_groups=(group,)) for group in bucket.groups], []

    ordered = sorted(bucket.groups, key=lambda g: (-g.unique_count, g.key))
    k_limit = max(1, int(config.alpha * len(ordered) + 1e-9))
    postings: dict[tuple[int, str], list[int]] = {}
    for index, group in enumerate(ordered):
        for slot in enumerate(group.key_tokens):
            postings.setdefault(slot, []).append(index)
    double_length = 2 * bucket.length
    # Indices into ``ordered`` of the groups not merged yet; the next anchor
    # is always the lowest of them.
    alive = set(range(len(ordered)))
    anchor = 0
    dense: list[DenseGroup] = []
    while alive and len(dense) < k_limit:
        while anchor not in alive:
            anchor += 1
        alive.remove(anchor)
        matches = Counter(
            chain.from_iterable(postings[slot] for slot in enumerate(ordered[anchor].key_tokens))
        )
        scores = {index: m / (double_length - m) for index, m in matches.items() if index in alive}
        # Candidates missing from ``scores`` score 0, below every grid point.
        tau = select_threshold(sorted(scores.values()), len(alive) - len(scores), config)
        matched = [anchor]
        hits = sorted(i for i, s in scores.items() if s >= tau)
        # Verb sets decide only between an anchor and its hits.
        if hits:
            anchor_verbs = extract_verbs(ordered[anchor].key)
            matched += [i for i in hits if anchor_verbs <= extract_verbs(ordered[i].key)]
        dense.append(
            DenseGroup(
                member_groups=tuple(ordered[index] for index in matched),
                anchor_key=ordered[anchor].key,
            )
        )
        if trace is not None:
            trace.append(
                MergeState(
                    anchor_key=ordered[anchor].key,
                    similarities={
                        ordered[index].key: scores.get(index, 0.0) for index in sorted(alive)
                    },
                    tau=tau,
                    k_limit=k_limit,
                )
            )
        alive.difference_update(matched)

    sparse = [SparseGroup(group=ordered[index]) for index in sorted(alive)]
    return dense, sparse


def route(
    records: Iterable[tuple[int, str]],
    config: RouterConfig | None = None,
    skeletons: Iterable[str] | None = None,
) -> tuple[list[DenseGroup], list[SparseGroup], RoutingStats]:
    """Partition ``(line_id, content)`` records into dense and sparse groups.

    ``skeletons``, when given, are the masked keys aligned with ``records``;
    without them ``records`` that are not a sequence are read into a list
    first (``group_by_skeleton``).
    Buckets merge in length order, and a failing bucket fails the run with
    its length named.
    """
    if config is None:
        config = RouterConfig()
    groups = group_by_skeleton(records, skeletons)
    buckets = bucket_by_length(groups)

    dense: list[DenseGroup] = []
    sparse: list[SparseGroup] = []
    for bucket in buckets:
        try:
            bucket_dense, bucket_sparse = merge_bucket(bucket, config)
        except Exception as exc:
            raise InternalInvariantError(
                f"routing failed in bucket of length {bucket.length}: {exc}"
            ) from exc
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
