import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from celerlog.model import (
    PLACEHOLDER,
    SOURCE_LLM,
    SOURCE_ROLLBACK,
    SOURCE_STATISTICAL,
    DenseGroup,
    InternalInvariantError,
    LogRecord,
    TemplateResult,
)
from celerlog.routing import bucket_by_length, group_by_skeleton
from celerlog.statistical import (
    derive_parameters,
    extract_template,
    finalize,
    post_process,
)
from corpus import fig5_lines
from oracles import (
    MASK_TOKENS,
    brute_force_masked_positions,
    naive_extract_template,
    naive_post_process,
)


def dense_group_from(lines):
    records = [LogRecord(i, line) for i, line in enumerate(lines)]
    groups = group_by_skeleton(records)
    return DenseGroup(member_groups=tuple(groups))


def masked_positions_of(result: TemplateResult) -> set[int]:
    return {i for i, token in enumerate(result.template.split()) if token == PLACEHOLDER}


class TestExtractTemplate:
    def test_snapshot_group(self):
        group = dense_group_from(fig5_lines())
        results = extract_template(group)
        assert set(results) == set(fig5_lines())
        first = results["Snapshotting: 0x0 to /data/version-2/snapshot.0"]
        assert first.template == "Snapshotting: <*> to <*>"
        assert first.parameters == ("0x0", "/data/version-2/snapshot.0")
        assert first.source == SOURCE_STATISTICAL

    def test_no_variance_no_masks_is_identity(self):
        group = dense_group_from(["shutdown complete"])
        results = extract_template(group)
        assert results["shutdown complete"].template == "shutdown complete"
        assert results["shutdown complete"].parameters == ()

    def test_column_variance(self):
        group = dense_group_from(["a 1 b", "a 2 b"])
        results = extract_template(group)
        assert results["a 1 b"].template == "a <*> b"
        assert results["a 1 b"].parameters == ("1",)
        assert results["a 2 b"].parameters == ("2",)

    def test_mask_token_position_forced_even_without_variance(self):
        group = dense_group_from(["took 37 ms"])
        results = extract_template(group)
        assert results["took 37 ms"].template == "took <*> ms"

    def test_literal_placeholder_in_content_becomes_parameter(self):
        group = dense_group_from(["value <*> here"])
        result = extract_template(group)["value <*> here"]
        assert result.template == "value <*> here"
        assert result.parameters == ("<*>",)
        assert result.token_sequence() == ["value", "<*>", "here"]

    def test_stability_under_member_order(self):
        lines = ["x 1 y", "x 2 y", "x 3 y"]
        group_a = dense_group_from(lines)
        group_b = dense_group_from(list(reversed(lines)))
        assert extract_template(group_a) == extract_template(group_b)

    def test_constancy(self):
        lines = ["copy done fast", "copy done slow"]
        results = extract_template(dense_group_from(lines))
        template_tokens = results[lines[0]].template.split()
        assert template_tokens[0] == "copy" and template_tokens[1] == "done"

    def test_coverage_every_record(self):
        lines = fig5_lines() + fig5_lines()[:2]
        group = dense_group_from(lines)
        results = extract_template(group)
        for line in lines:
            assert line in results

    def test_mixed_token_lengths_raise(self):
        # route() never builds such a group: masking is token for token and a
        # bucket holds one key length.
        short, long = group_by_skeleton([LogRecord(0, "a b"), LogRecord(1, "a b c")])
        group = DenseGroup(member_groups=(short, long), anchor_key="a b")
        with pytest.raises(InternalInvariantError, match="'a b'"):
            extract_template(group)
        with pytest.raises(InternalInvariantError, match="'a b'"):
            naive_extract_template(group)


# Tokens for one position of a generated group: values whose key holds a
# designated token inside a longer token, literal designated tokens and
# placeholders in the raw text, maskable values and plain words.
GROUP_TOKENS = [
    "(123)", "(45)", "7,", "8,", "[0x1f]", "[0x2a]", "<*>", "x<*>", "<NUM>", "(<NUM>)",
    "42", "0x3f", "a/b", "k=1", "OK", "red", "blue", "Failed", "s",
]
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])


@st.composite
def dense_lines(draw):
    """Lines of one token length; each position draws from a small pool, so
    some positions stay constant and others vary."""
    length = draw(st.integers(1, 5))
    pools = [
        draw(st.lists(st.sampled_from(GROUP_TOKENS), min_size=1, max_size=3, unique=True))
        for _ in range(length)
    ]
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        line = draw(st.sampled_from(["", " ", "\t"]))
        for position, pool in enumerate(pools):
            if position:
                line += draw(SEPARATORS)
            line += draw(st.sampled_from(pool))
        lines.append(line + draw(st.sampled_from(["", " "])))
    return lines


def groups_under_test(lines):
    """The merged group of every skeleton in ``lines``, then each skeleton alone."""
    groups = group_by_skeleton([LogRecord(i, line) for i, line in enumerate(lines)])
    merged = DenseGroup(member_groups=tuple(groups), anchor_key=groups[0].key)
    return [merged] + [DenseGroup(member_groups=(group,)) for group in groups]


def _merged_keys_differ_at_a_constant_position(lines):
    keys = [group.key_tokens for group in groups_under_test(lines)[0].member_groups]
    return any(
        len(set(column)) > 1 and not set(column) & set(MASK_TOKENS) for column in zip(*keys)
    )


def _template_keeps(token):
    def feature(lines):
        merged = groups_under_test(lines)[0]
        return token in next(iter(naive_extract_template(merged).values())).template.split()

    return feature


def _contained_designated_token_varies(lines):
    columns = zip(*(line.split() for line in lines))
    return any({"(123)", "(45)"} <= set(column) for column in columns)


class TestExtractTemplateAgainstOracle:
    @settings(max_examples=1000, deadline=None)
    @given(dense_lines())
    def test_equals_naive_extract_template(self, lines):
        for group in groups_under_test(lines):
            assert extract_template(group) == naive_extract_template(group)

    @pytest.mark.parametrize(
        "feature",
        [
            _template_keeps("(123)"),
            _template_keeps("7,"),
            _template_keeps("[0x1f]"),
            _contained_designated_token_varies,
            lambda lines: any("<*>" in token for line in lines for token in line.split()),
            lambda lines: any("<NUM>" in token for line in lines for token in line.split()),
            _merged_keys_differ_at_a_constant_position,
            lambda lines: len(set(lines)) == 1,
            lambda lines: any("\t" in line for line in lines) and any("  " in line for line in lines),
        ],
        ids=["paren-number-kept", "number-comma-kept", "bracket-hex-kept",
             "paren-number-varies", "literal-placeholder", "literal-designated-token",
             "merged-keys-differ", "one-message", "tab-and-space-runs"],
    )
    def test_generator_covers(self, feature):
        find(
            dense_lines(),
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


#: Pieces of post-process tokens: placeholders, composite separators, digits,
#: designated tokens, brackets and lone ``<``, ``>`` and ``*``. A separator
#: also comes joined to a placeholder, so composites like ``<*>:<*>=<*>`` occur.
TEMPLATE_PIECES = [
    "<*>", ":<*>", "=<*>", "/<*>", ":", "=", "/", "7", "<NUM>", "(", "]", "<", ">", "*",
]


def post_process_templates():
    """Templates of 1-8 tokens, each ``<*>`` or a join of 1-4 pieces."""
    pieces = st.lists(st.sampled_from(TEMPLATE_PIECES), min_size=1, max_size=4).map("".join)
    token = st.one_of(st.just(PLACEHOLDER), pieces)
    return st.lists(token, min_size=1, max_size=8).map(" ".join)


def _composite_makes_run(template):
    """A composite such as ``<*>:<*>`` collapses to ``<*>`` next to a ``<*>``."""
    tokens = template.split()
    return any(
        token != PLACEHOLDER
        and PLACEHOLDER in token
        and naive_post_process(token) == PLACEHOLDER
        and PLACEHOLDER in tokens[max(index - 1, 0) : index] + tokens[index + 1 : index + 2]
        for index, token in enumerate(tokens)
    )


class TestPostProcess:
    def test_collapses_placeholder_composites(self):
        assert post_process("connect to <*>:<*>") == "connect to <*>"

    def test_identity(self):
        assert post_process("ok done") == "ok done"

    def test_masks_leftover_numbers(self):
        assert post_process("took 37 ms") == "took <*> ms"

    def test_collapses_placeholder_runs(self):
        assert post_process("a <*> <*> b") == "a <*> b"

    def test_masks_leftover_mixed_strings(self):
        assert post_process("read /var/log/app.log done") == "read <*> done"

    def test_composite_then_run_collapse(self):
        assert post_process("<*> <*>:<*> end") == "<*> end"

    @settings(max_examples=500, deadline=None)
    @given(post_process_templates())
    def test_matches_fixpoint_loop(self, template):
        assert post_process(template) == naive_post_process(template)

    def test_generator_covers_composite_making_a_run(self):
        find(
            post_process_templates(),
            _composite_makes_run,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


class TestFinalize:
    def test_rollback_exempt(self):
        result = TemplateResult("took 37 ms", (), SOURCE_ROLLBACK)
        assert finalize(result, ("took", "37", "ms")) is result

    def test_rederives_parameters_after_run_collapse(self):
        raw = TemplateResult("x <*> <*> y", ("1", "2"), SOURCE_STATISTICAL)
        final = finalize(raw, ("x", "1", "2", "y"))
        assert final.template == "x <*> y"
        assert final.parameters == ("1 2",)
        assert final.token_sequence() == ["x", "1", "2", "y"]

    def test_masks_residual_variables_and_realigns(self):
        raw = TemplateResult("sent 512 bytes to <*>", ("10.0.0.9",), SOURCE_LLM)
        final = finalize(raw, ("sent", "512", "bytes", "to", "10.0.0.9"))
        assert final.template == "sent <*> bytes to <*>"
        assert final.parameters == ("512", "10.0.0.9")

    def test_unchanged_template_keeps_parameters(self):
        raw = TemplateResult("plain words only", (), SOURCE_STATISTICAL)
        assert finalize(raw, ("plain", "words", "only")) is raw


class TestDeriveParameters:
    def test_multi_token_absorption(self):
        assert derive_parameters("a <*> d", ("a", "b", "c", "d")) == ("b c",)

    def test_no_placeholders(self):
        assert derive_parameters("a b", ("a", "b")) == ()

    def test_misaligned_returns_none(self):
        assert derive_parameters("a <*> z", ("a", "b", "c")) is None


ALPHABET = ["red", "blue", "lamp", "disk", "691", "0x3f", "a/b", "k=1", "OK"]


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_masked_positions_match_brute_force(self, seed):
        rng = random.Random(seed)
        length = rng.randint(1, 12)
        n_messages = rng.randint(1, 50)
        lines = list(
            {
                " ".join(rng.choice(ALPHABET) for _ in range(length))
                for _ in range(n_messages)
            }
        )
        group = dense_group_from(lines)
        results = extract_template(group)
        got = masked_positions_of(results[lines[0]])
        expected = brute_force_masked_positions(
            sorted(lines), [m.key_tokens for m in group.member_groups]
        )
        assert got == expected
