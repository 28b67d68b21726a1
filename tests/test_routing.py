import random
import tracemalloc

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from celerlog import routing
from celerlog.masking import mask_message
from celerlog.model import (
    InternalInvariantError,
    LogBucket,
    LogRecord,
    RouterConfig,
    SkeletonGroup,
)
from celerlog.routing import (
    bucket_by_length,
    group_by_skeleton,
    merge_bucket,
    route,
    select_threshold,
)
from corpus import fig4_lines, fig5_lines, make_template_corpus
from oracles import naive_merge_bucket, naive_select_threshold, pos_jaccard, singleton_ratio


def records_of(lines):
    return [LogRecord(i, line) for i, line in enumerate(lines)]


def make_group(key, members, record_ids):
    return SkeletonGroup(
        key=key,
        key_tokens=tuple(key.split()),
        members=frozenset(members),
        record_ids=tuple(record_ids),
    )


class TestGroupBySkeleton:
    def test_groups_masked_variants_together(self):
        groups = group_by_skeleton(records_of(["a 1 b", "a 2 b"]))
        assert len(groups) == 1
        assert groups[0].key == "a <NUM> b"
        assert groups[0].unique_count == 2

    def test_singleton(self):
        groups = group_by_skeleton(records_of(["hello world"]))
        assert len(groups) == 1
        assert groups[0].unique_count == 1

    def test_identical_contents_dedupe_members_not_ids(self):
        groups = group_by_skeleton(records_of(["same line", "same line"]))
        assert len(groups) == 1
        assert groups[0].unique_count == 1
        assert groups[0].record_ids == (0, 1)

    def test_members_reproduce_key(self):
        groups = group_by_skeleton(records_of(fig4_lines() + fig5_lines()))
        for group in groups:
            for member in group.members:
                assert mask_message(member)[0] == group.key

    @pytest.mark.parametrize("extra", [-1, 1], ids=["fewer", "more"])
    def test_skeletons_unaligned_with_records_raise(self, extra):
        records = records_of(["a 1 b", "a 2 b"])
        with pytest.raises(ValueError):
            group_by_skeleton(records, ["a <NUM> b"] * (len(records) + extra))

    def test_peak_stays_near_what_the_groups_keep(self):
        # Shaped like the benchmark's dense-40k corpus at a quarter of its
        # size. Holding every group's member set and id list while copying
        # them peaked at 1.7 times what the groups keep; freeing each as its
        # group is built, at 1.02.
        lines, _ = make_template_corpus(
            n_lines=10_000, n_templates=50, n_oneoffs=50, seed=1, oneoff_lengths=(4, 54)
        )
        records = records_of(lines)
        skeletons = [mask_message(line)[0] for line in lines]
        tracemalloc.start()
        try:
            groups = group_by_skeleton(records, skeletons)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(group.record_ids) for group in groups) == len(lines)
        assert peak < 1.25 * kept


class TestBucketByLength:
    def test_two_lengths(self):
        groups = [
            make_group("a b c d", ["a b c d"], [0]),
            make_group("e f g h", ["e f g h"], [1]),
            make_group("a b c d e f g", ["a b c d e f g"], [2]),
        ]
        buckets = bucket_by_length(groups)
        assert [(b.length, len(b.groups)) for b in buckets] == [(4, 2), (7, 1)]

    def test_empty(self):
        assert bucket_by_length([]) == []

    def test_three_groups_one_bucket(self):
        groups = group_by_skeleton(records_of(fig4_lines()))
        buckets = bucket_by_length(groups)
        assert [(b.length, len(b.groups)) for b in buckets] == [(4, 3)]


class TestPosJaccard:
    def test_identical(self):
        key = ("a", "b", "c", "d")
        assert pos_jaccard(key, key) == 1.0

    def test_three_of_four_positions(self):
        a = ("Failed", "password", "for", "<CL>")
        b = ("Failed", "password", "for", "<NUM>")
        assert pos_jaccard(a, b) == 0.6

    def test_disjoint(self):
        assert pos_jaccard(("a", "b", "c", "d"), ("e", "f", "g", "h")) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(InternalInvariantError):
            pos_jaccard(("a",), ("a", "b"))

    def test_position_matters(self):
        assert pos_jaccard(("a", "b"), ("b", "a")) == 0.0


class TestSingletonRatio:
    def test_half(self):
        assert singleton_ratio([0.6, 0.0], 0.60) == 0.5

    def test_all(self):
        assert singleton_ratio([0.6, 0.0], 0.61) == 1.0

    def test_zero_threshold(self):
        assert singleton_ratio([0.2, 0.9, 0.5], 0.0) == 0.0

    def test_empty_is_zero(self):
        assert singleton_ratio([], 0.7) == 0.0

    def test_nondecreasing_in_tau(self):
        rng = random.Random(3)
        scores = [rng.random() for _ in range(40)]
        ratios = [singleton_ratio(scores, round(0.01 * i, 2)) for i in range(101)]
        assert ratios == sorted(ratios)


class TestSelectThreshold:
    def test_reverts_to_preceding_grid_point(self):
        assert select_threshold([0.6], 1, RouterConfig()) == 0.60

    def test_never_reaching_limit_returns_tau_max(self):
        assert select_threshold([1.0, 1.0, 1.0], 0, RouterConfig()) == 0.95

    def test_clamps_to_tau_min(self):
        assert select_threshold([0.3, 0.4], 0, RouterConfig()) == 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.sampled_from([m / (2 * 6 - m) for m in range(7)]),
                st.sampled_from([round(0.01 * i, 12) for i in range(101)]),
            ),
            max_size=40,
        ),
        st.builds(RouterConfig, p_quantile=st.sampled_from([0.05, 0.5, 0.8, 0.95, 1.0])),
    )
    def test_matches_linear_sweep(self, similarities, config):
        # merge_bucket passes the non-zero scores sorted and counts the zeros.
        ordered = sorted(score for score in similarities if score)
        zeros = len(similarities) - len(ordered)
        assert select_threshold(ordered, zeros, config) == naive_select_threshold(
            similarities, config
        )


class TestMergeBucket:
    def test_worked_example(self):
        groups = group_by_skeleton(records_of(fig4_lines()))
        bucket = bucket_by_length(groups)[0]
        trace = []
        dense, sparse = merge_bucket(bucket, RouterConfig(), trace=trace)
        assert len(dense) == 1 and len(sparse) == 1
        assert {g.key for g in dense[0].member_groups} == {
            "Failed password for <CL>",
            "Failed password for <NUM>",
        }
        assert dense[0].anchor_key == "Failed password for <CL>"
        assert sparse[0].group.key == "session opened remotely today"
        assert trace[0].tau == 0.60
        assert trace[0].similarities == {
            "Failed password for <NUM>": 0.6,
            "session opened remotely today": 0.0,
        }

    def test_single_group_bucket_bypasses(self):
        groups = group_by_skeleton(records_of(["alpha beta gamma delta epsilon"]))
        bucket = bucket_by_length(groups)[0]
        dense, sparse = merge_bucket(bucket, RouterConfig())
        assert len(dense) == 1 and sparse == []
        assert dense[0].anchor_key is None

    def test_short_bucket_bypasses(self):
        lines = ["stop now please", "begin work now", "retry later maybe"]
        bucket = bucket_by_length(group_by_skeleton(records_of(lines)))[0]
        dense, sparse = merge_bucket(bucket, RouterConfig())
        assert len(dense) == 3 and sparse == []

    def test_anchor_budget_caps_dense_groups(self):
        groups = [
            make_group("aa bb cc dd", ["aa bb cc dd"], [0, 1]),
            make_group("ee ff gg hh", ["ee ff gg hh"], [2]),
            make_group("ii jj kk ll", ["ii jj kk ll"], [3]),
            make_group("mm nn oo pp", ["mm nn oo pp"], [4]),
        ]
        bucket = bucket_by_length(groups)[0]
        dense, sparse = merge_bucket(bucket, RouterConfig())
        assert len(dense) == 2
        assert len(sparse) == 2

    def test_verb_subset_blocks_merging(self):
        # Same shape at 3 of 4 positions, but the candidate lacks the anchor's verb.
        anchor = make_group("Started worker on <NUM>", ["Started worker on 1", "Started worker on 2"], [0, 1])
        candidate = make_group("Stopped worker on <NUM>", ["Stopped worker on 9"], [2])
        third = make_group("aa bb cc dd", ["aa bb cc dd"], [3])
        bucket = bucket_by_length([anchor, candidate, third])[0]
        dense, sparse = merge_bucket(bucket, RouterConfig())
        merged_keys = {g.key for g in dense[0].member_groups}
        assert merged_keys == {"Started worker on <NUM>"}

    def test_lone_anchor_still_emitted_dense(self):
        groups = [
            make_group("aa bb cc dd", ["aa bb cc dd"], [0, 1]),
            make_group("ee ff gg hh", ["ee ff gg hh"], [2]),
            make_group("ii jj kk ll", ["ii jj kk ll"], [3]),
        ]
        bucket = bucket_by_length(groups)[0]
        dense, sparse = merge_bucket(bucket, RouterConfig())
        assert len(dense) == 1
        assert len(dense[0].member_groups) == 1
        assert {s.group.key for s in sparse} == {"ee ff gg hh", "ii jj kk ll"}


    def test_dissimilar_bucket_reads_no_verbs(self, monkeypatch):
        # No group shares a position with another, so no round has a hit and
        # no verb set decides anything.
        calls = []
        monkeypatch.setattr(routing, "extract_verbs", lambda key: calls.append(key) or set())
        keys = ["aa bb cc dd", "ee ff gg hh", "ii jj kk ll", "mm nn oo pp", "qq rr ss tt"]
        groups = [make_group(key, [key], [index]) for index, key in enumerate(keys)]
        dense, sparse = merge_bucket(bucket_by_length(groups)[0], RouterConfig(alpha=1.0))
        assert len(dense) == len(keys) and sparse == []
        assert calls == []


class TestRoute:
    def test_empty_input(self):
        dense, sparse, stats = route([])
        assert dense == [] and sparse == []
        assert stats.dense_records == 0 and stats.sparse_records == 0

    def test_combined_worked_examples(self):
        records = records_of(fig4_lines() + fig5_lines())
        dense, sparse, stats = route(records)
        snapshot_groups = [
            g for g in dense if any("Snapshotting:" in m.key for m in g.member_groups)
        ]
        assert len(snapshot_groups) == 1
        assert sum(len(m.record_ids) for m in snapshot_groups[0].member_groups) == 5
        assert stats.dense_records + stats.sparse_records == len(records)

    def test_iterator_of_records_routes_as_a_list(self):
        # Masking reads the records once and grouping a second time, so an
        # iterator must not be shared between the two reads: past one masking
        # batch, records would take the skeletons of earlier ones.
        lines, _ = make_template_corpus(n_lines=2048, n_templates=20, n_oneoffs=100, seed=8)
        assert route(enumerate(lines)) == route(list(enumerate(lines)))

    def test_mostly_templated_corpus_routes_dense(self):
        lines, _ = make_template_corpus(n_lines=100, n_templates=1, n_oneoffs=1, seed=5)
        dense, sparse, stats = route(records_of(lines))
        assert stats.dense_records >= 99

    def test_partition_invariant(self):
        lines, _ = make_template_corpus(n_lines=400, n_templates=12, n_oneoffs=30, seed=11)
        records = records_of(lines)
        dense, sparse, stats = route(records)
        seen: list[int] = []
        for group in dense:
            seen.extend(group.record_ids())
        for item in sparse:
            seen.extend(item.group.record_ids)
        assert sorted(seen) == [r.line_id for r in records]

    def test_bucket_isolation(self):
        lines, _ = make_template_corpus(n_lines=300, n_templates=10, n_oneoffs=20, seed=2)
        dense, sparse, _ = route(records_of(lines))
        for group in dense:
            lengths = {len(m.key_tokens) for m in group.member_groups}
            assert len(lengths) == 1

    def test_anchor_dominance(self):
        lines, _ = make_template_corpus(n_lines=300, n_templates=8, n_oneoffs=40, seed=9)
        records = records_of(lines)
        counts = {g.key: g.unique_count for g in group_by_skeleton(records)}
        for bucket in bucket_by_length(group_by_skeleton(records)):
            trace = []
            merge_bucket(bucket, RouterConfig(), trace=trace)
            for state in trace:
                for key in state.similarities:
                    assert counts[state.anchor_key] >= counts[key]

    def test_verb_safety_for_every_merged_pair(self):
        from celerlog.masking import extract_verbs

        lines, _ = make_template_corpus(n_lines=600, n_templates=20, n_oneoffs=60, seed=31)
        lines += fig4_lines()
        dense, _, _ = route(records_of(lines))
        for group in dense:
            if group.anchor_key is None or len(group.member_groups) == 1:
                continue
            anchor_verbs = extract_verbs(group.anchor_key)
            for member in group.member_groups:
                assert anchor_verbs <= extract_verbs(member.key)

    def test_failure_names_bucket(self, monkeypatch):
        lines, _ = make_template_corpus(
            n_lines=2500, n_templates=10, n_oneoffs=2100, seed=5, oneoff_lengths=(5, 7)
        )

        def explode(bucket, config):
            raise ValueError("boom")

        monkeypatch.setattr(routing, "merge_bucket", explode)
        with pytest.raises(InternalInvariantError, match="bucket of length 4: boom"):
            route(records_of(lines))

    def test_deterministic(self):
        lines, _ = make_template_corpus(n_lines=500, n_templates=15, n_oneoffs=40, seed=4)
        records = records_of(lines)
        first = route(records)
        second = route(records)
        assert [
            [m.key for m in g.member_groups] for g in first[0]
        ] == [[m.key for m in g.member_groups] for g in second[0]]
        assert [s.group.key for s in first[1]] == [s.group.key for s in second[1]]


#: Tokens for generated keys: verbs that block merges ("started" against
#: "stopped"), mask tokens and plain words.
KEY_TOKENS = ["started", "stopped", "opened", "<NUM>", "<CL>", "worker", "to"]


@st.composite
def merge_cases(draw):
    """A bucket of distinct keys of one length, and a router configuration."""
    length = draw(st.integers(1, 6))
    # ``None`` stands for a token no other group has at that position.
    vocabulary = KEY_TOKENS[: draw(st.integers(1, len(KEY_TOKENS)))] + [None]
    keys = draw(
        st.lists(
            st.lists(st.sampled_from(vocabulary), min_size=length, max_size=length),
            max_size=24,
        )
    )
    groups = {}
    for index, tokens in enumerate(keys):
        key = " ".join(
            f"u{index}p{position}" if token is None else token
            for position, token in enumerate(tokens)
        )
        if key not in groups:
            members = [f"{key} #{j}" for j in range(draw(st.integers(1, 3)))]
            groups[key] = make_group(key, members, [index])
    bucket = LogBucket(length=length, groups=tuple(sorted(groups.values(), key=lambda g: g.key)))
    config = RouterConfig(
        alpha=draw(st.sampled_from([0.1, 0.25, 0.5, 1.0])),
        p_quantile=draw(st.sampled_from([0.05, 0.5, 0.95, 1.0])),
    )
    return bucket, config


def _merged(case):
    return naive_merge_bucket(*case)


def _has_unique_count_tie(case):
    _, _, states = _merged(case)
    counts = [group.unique_count for group in case[0].groups]
    return bool(states) and len(set(counts)) < len(counts)


def _has_verb_blocked_candidate(case):
    dense, _, states = _merged(case)
    for group, state in zip(dense, states):
        members = {member.key for member in group.member_groups}
        if any(score >= state.tau and key not in members for key, score in state.similarities.items()):
            return True
    return False


def _exhausts_anchor_budget(case):
    _, sparse, _ = _merged(case)
    return bool(sparse)


def _has_all_zero_round(case):
    _, _, states = _merged(case)
    return any(
        state.similarities and not any(state.similarities.values()) for state in states
    )


class TestMergeBucketAgainstOracle:
    @settings(max_examples=400, deadline=None)
    @given(merge_cases())
    def test_equals_naive_merge(self, case):
        bucket, config = case
        trace = []
        dense, sparse = merge_bucket(bucket, config, trace=trace)
        naive_dense, naive_sparse, naive_states = naive_merge_bucket(bucket, config)
        assert dense == naive_dense
        assert sparse == naive_sparse
        assert trace == naive_states
        assert [list(state.similarities.items()) for state in trace] == [
            list(state.similarities.items()) for state in naive_states
        ]
        assert merge_bucket(bucket, config) == (dense, sparse)

    @pytest.mark.parametrize(
        "feature",
        [
            _has_unique_count_tie,
            _has_verb_blocked_candidate,
            _exhausts_anchor_budget,
            _has_all_zero_round,
        ],
        ids=lambda feature: feature.__name__.lstrip("_"),
    )
    def test_generator_covers(self, feature):
        find(
            merge_cases(),
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )
