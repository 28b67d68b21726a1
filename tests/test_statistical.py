import random

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

from celerlog.model import (
    PLACEHOLDER,
    SOURCE_LLM,
    SOURCE_ROLLBACK,
    SOURCE_STATISTICAL,
    DenseGroup,
    InternalInvariantError,
    LogRecord,
    SkeletonGroup,
    TemplateResult,
)
from celerlog.routing import bucket_by_length, group_by_skeleton
from celerlog.llm import validate_and_mask
from celerlog.masking import mask_token
from celerlog.statistical import collapse, extract_template, finalize, read_columns
from corpus import fig5_lines
from oracles import (
    MASK_TOKENS,
    brute_force_masked_positions,
    expanded_positions,
    maskable_positions,
    naive_extract_template,
    naive_post_process,
    naive_validate_and_mask,
)


def dense_group_from(lines):
    records = [LogRecord(i, line) for i, line in enumerate(lines)]
    groups = group_by_skeleton(records)
    return DenseGroup(member_groups=tuple(groups))


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

    def test_parameters_keep_their_columns(self):
        # The run of positions 0-1 ends in "foo" in the first message only;
        # the constant "foo" after the run must not claim it.
        lines = ["1 foo foo 2", "1 bar foo 3", "5 baz foo 7"]
        results = extract_template(dense_group_from(lines))
        assert {results[line].template for line in lines} == {"<*> foo <*>"}
        assert {frozenset(expanded_positions(results[line])) for line in lines} == {
            frozenset({0, 1, 3})
        }
        assert results["1 foo foo 2"].parameters == ("1 foo", "2")
        assert results["1 bar foo 3"].parameters == ("1 bar", "3")

    def test_mixed_token_lengths_raise(self):
        # route() never builds such a group: masking is token for token and a
        # bucket holds one key length.
        short, long = group_by_skeleton([LogRecord(0, "a b"), LogRecord(1, "a b c")])
        group = DenseGroup(member_groups=(short, long), anchor_key="a b")
        with pytest.raises(InternalInvariantError, match="'a b'"):
            extract_template(group)
        with pytest.raises(InternalInvariantError, match="'a b'"):
            naive_extract_template(group)
        with pytest.raises(InternalInvariantError, match="'a b'"):
            read_columns(group)

    def test_raw_token_count_unlike_the_keys_raises(self):
        # A key of two tokens over a three-token message: read_columns reads
        # no message here, so the reader raises when it reads that one.
        member = SkeletonGroup("a b", ("a", "b"), frozenset({"a b", "a b c"}), (0, 1))
        group = DenseGroup(member_groups=(member,), anchor_key="a b")
        _, read, parameters = read_columns(group)
        assert read("a b") == TemplateResult("a b", (), SOURCE_STATISTICAL)
        with pytest.raises(InternalInvariantError, match="'a b'"):
            read("a b c")
        with pytest.raises(InternalInvariantError, match="'a b'"):
            parameters("a b c")
        with pytest.raises(InternalInvariantError, match="'a b'"):
            extract_template(group)

    def test_angle_key_column_over_a_message_of_another_length_raises(self):
        # A key token like (<NUM>) makes read_columns split the messages
        # itself, so it raises before returning any reader.
        member = SkeletonGroup(
            "open (<NUM>)", ("open", "(<NUM>)"), frozenset({"open (12)", "open (12) now"}), (0, 1)
        )
        group = DenseGroup(member_groups=(member,), anchor_key="open (<NUM>)")
        with pytest.raises(InternalInvariantError, match=r"'open \(<NUM>\)'"):
            read_columns(group)


class _Unsplittable(str):
    def split(self, *args):
        raise AssertionError(f"{str(self)!r} was split")


class TestReadColumns:
    def test_reads_no_message_without_a_key_token_holding_lt(self):
        group = dense_group_from(["copy 1 blocks done", "copy 2 blocks done"])
        member = group.member_groups[0]
        unsplittable = member._replace(members=frozenset(map(_Unsplittable, member.members)))
        template, _, _ = read_columns(DenseGroup(member_groups=(unsplittable,)))
        assert template == "copy <*> blocks done"

    def test_reads_every_message_for_a_key_token_holding_lt(self):
        group = dense_group_from(["took (12) ms", "took (12) ms"])
        member = group.member_groups[0]
        unsplittable = member._replace(members=frozenset(map(_Unsplittable, member.members)))
        with pytest.raises(AssertionError, match="was split"):
            read_columns(DenseGroup(member_groups=(unsplittable,)))


# Tokens for one position of a generated group: values whose key holds a
# designated token inside a longer token, literal designated tokens and
# placeholders in the raw text, maskable values and plain words.
GROUP_TOKENS = [
    "(123)", "(45)", "7,", "8,", "[0x1f]", "[0x2a]", "<*>", "x<*>", "<NUM>", "(<NUM>)",
    "42", "0x3f", "a/b", "k=1", "OK", "red", "blue", "Failed", "s",
]
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
#: The pool of a position that varies between two values whose key holds
#: the same designated token. Pools drawn from GROUP_TOKENS hold both in
#: about one position in a hundred, so a few of 2,000 examples vary them.
PAREN_NUMBERS = ["(123)", "(45)"]


@st.composite
def dense_lines(draw):
    """Lines of one token length; each position draws from a small pool, so
    some positions stay constant and others vary. About one position in ten
    takes the ``PAREN_NUMBERS`` pool."""
    length = draw(st.integers(1, 5))
    pools = [
        PAREN_NUMBERS
        if draw(st.integers(0, 9)) == 9
        else draw(st.lists(st.sampled_from(GROUP_TOKENS), min_size=1, max_size=3, unique=True))
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


def position_runs(positions):
    """The maximal runs of consecutive positions, as ``(start, end)`` spans."""
    spans = []
    for position in sorted(positions):
        if spans and spans[-1][1] == position:
            spans[-1] = (spans[-1][0], position + 1)
        else:
            spans.append((position, position + 1))
    return spans


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


def _naive_variable_flags(lines):
    """The merged group's naive template, and per position whether it is a
    parameter once leftovers are masked."""
    naive = naive_extract_template(groups_under_test(lines)[0])
    template = next(iter(naive.values())).template.split()
    variable = [token == PLACEHOLDER or mask_token(token) != token for token in template]
    return naive, template, variable


def _adjacent_variable_positions(lines):
    _, _, variable = _naive_variable_flags(lines)
    return any(a and b for a, b in zip(variable, variable[1:]))


def _parameter_widths(lines):
    """The token count of each parameter of the merged group's template."""
    _, _, variable = _naive_variable_flags(lines)
    widths = []
    for position, flag in enumerate(variable):
        if flag and position and variable[position - 1]:
            widths[-1] += 1
        elif flag:
            widths.append(1)
    return widths


def _parameter_equals_next_constant(lines):
    """Some message holds, at a parameter position, the constant that ends its run."""
    naive, template, variable = _naive_variable_flags(lines)
    for content in naive:
        tokens = content.split()
        for position, flag in enumerate(variable):
            if not flag:
                continue
            after = next((p for p in range(position, len(template)) if not variable[p]), None)
            if after is not None and tokens[position] == template[after]:
                return True
    return False


def _contained_designated_token_varies(lines):
    columns = zip(*(line.split() for line in lines))
    return any({"(123)", "(45)"} <= set(column) for column in columns)


class TestExtractTemplateAgainstOracle:
    @settings(max_examples=1000, deadline=None)
    @given(dense_lines())
    def test_equals_naive_extract_template(self, lines):
        # The naive template post-processed is what a run wrote before the
        # producers applied post-processing themselves.
        for group in groups_under_test(lines):
            results = extract_template(group)
            naive = naive_extract_template(group)
            assert results.keys() == naive.keys()
            naive_template = next(iter(naive.values())).template
            template = naive_post_process(naive_template)
            tokens = template.split()
            assert not any(a == b == PLACEHOLDER for a, b in zip(tokens, tokens[1:]))
            positions = {
                i for i, token in enumerate(naive_template.split()) if token == PLACEHOLDER
            } | maskable_positions(naive_template.split())
            for content, result in results.items():
                assert result.template == template
                assert result.source == SOURCE_STATISTICAL
                assert result.token_sequence() == content.split()
                assert expanded_positions(result) == positions

    @settings(max_examples=1000, deadline=None)
    @given(dense_lines())
    @example(["copy 1 3 blocks done", "copy 2 4 blocks done", "copy 1 3 blocks done"])
    @example(["took (<NUM>) ms", "took (<NUM>) ms"])
    @example(["took (12) ms", "took (<NUM>) ms"])
    @example(["all quiet here", "all quiet here"])
    def test_reader_equals_naive_record_by_record(self, lines):
        # Each record, repeats included, through its group's reader: the
        # naive template post-processed, and per run of parameter positions
        # the join of the record's tokens there.
        for group in groups_under_test(lines):
            template, read, read_parameters = read_columns(group)
            naive = naive_extract_template(group)
            naive_tokens = next(iter(naive.values())).template.split()
            assert template == naive_post_process(" ".join(naive_tokens))
            positions = {
                i for i, token in enumerate(naive_tokens) if token == PLACEHOLDER
            } | maskable_positions(naive_tokens)
            spans = position_runs(positions)
            members = set().union(*(member.members for member in group.member_groups))
            for line in lines:
                if line not in members:
                    continue
                tokens = line.split()
                parameters = tuple(" ".join(tokens[start:end]) for start, end in spans)
                assert read(line) == TemplateResult(template, parameters, SOURCE_STATISTICAL)
                assert read_parameters(line) == parameters

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
            _adjacent_variable_positions,
            _parameter_equals_next_constant,
            lambda lines: _parameter_widths(lines) == [],
            lambda lines: _parameter_widths(lines) == [1],
            lambda lines: len(_parameter_widths(lines)) > 1 and set(_parameter_widths(lines)) == {1},
        ],
        ids=["paren-number-kept", "number-comma-kept", "bracket-hex-kept",
             "paren-number-varies", "literal-placeholder", "literal-designated-token",
             "merged-keys-differ", "one-message", "tab-and-space-runs",
             "adjacent-variables", "parameter-equals-next-constant",
             "no-parameter", "one-parameter", "single-token-parameters"],
    )
    def test_generator_covers(self, feature):
        find(
            dense_lines(),
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


def llm_cases():
    """A message and a variable list as a backend could return it: tokens of
    the message, pieces of tokens, whitespace, empty and absent strings."""

    @st.composite
    def build(draw):
        tokens = draw(st.lists(st.sampled_from(GROUP_TOKENS), min_size=1, max_size=6))
        content = draw(st.sampled_from(["", " "]))
        for index, token in enumerate(tokens):
            content += (draw(SEPARATORS) if index else "") + token
        pieces = st.one_of(
            st.sampled_from(tokens),
            st.sampled_from(GROUP_TOKENS + ["", " ", "zzz"]),
            st.tuples(st.integers(0, len(content)), st.integers(0, len(content))).map(
                lambda bounds: content[bounds[0] : bounds[1]]
            ),
        )
        return content, draw(st.lists(pieces, max_size=4))

    return build()


def _llm_rolls_back(case):
    return naive_validate_and_mask(*case).source == SOURCE_ROLLBACK


def _llm_masks_a_leftover(case):
    naive = naive_validate_and_mask(*case)
    return naive.source != SOURCE_ROLLBACK and bool(maskable_positions(naive.template.split()))


def _llm_collapses_a_run(case):
    naive = naive_validate_and_mask(*case)
    return naive.source != SOURCE_ROLLBACK and "<*> <*>" in naive.template


class TestPostProcess:
    """Leftover masking and run collapse, which both producers apply themselves."""

    def test_identity(self):
        assert extract_template(dense_group_from(["ok done"]))["ok done"].template == "ok done"
        assert validate_and_mask("ok done", ["done"]).template == "ok <*>"

    def test_masks_leftover_numbers(self):
        # "(37)" masks to "(<NUM>)", which leaves the raw values to decide; a
        # constant column of them is still a number.
        results = extract_template(dense_group_from(["took (37) ms"]))
        assert results["took (37) ms"] == TemplateResult(
            "took <*> ms", ("(37)",), SOURCE_STATISTICAL
        )
        result = validate_and_mask("took 37 ms to reach gate", ["gate"])
        assert result.template == "took <*> ms to reach <*>"
        assert result.parameters == ("37", "gate")

    def test_collapses_placeholder_runs(self):
        results = extract_template(dense_group_from(["a 1 red b", "a 2 blue b"]))
        assert results["a 1 red b"].template == "a <*> b"
        assert results["a 2 blue b"].parameters == ("2 blue",)
        result = validate_and_mask("a gate 12 b", ["gate"])
        assert result.template == "a <*> b"
        assert result.parameters == ("gate 12",)

    def test_masks_leftover_mixed_strings(self):
        result = validate_and_mask("read /var/log/app.log done by gate", ["gate"])
        assert result.template == "read <*> done by <*>"
        assert result.parameters == ("/var/log/app.log", "gate")

    @settings(max_examples=1000, deadline=None)
    @given(llm_cases())
    def test_matches_fixpoint_loop(self, case):
        content, variables = case
        result = validate_and_mask(content, variables)
        naive = naive_validate_and_mask(content, variables)
        assert result.source == naive.source
        if naive.source == SOURCE_ROLLBACK:
            assert result == naive
            return
        assert result.template == naive_post_process(naive.template)
        assert result.token_sequence() == content.split()
        expected = expanded_positions(naive) | maskable_positions(content.split())
        assert expanded_positions(result) == expected

    @pytest.mark.parametrize(
        "feature",
        [_llm_rolls_back, _llm_masks_a_leftover, _llm_collapses_a_run],
        ids=["rollback", "leftover-masked", "run-collapsed"],
    )
    def test_llm_generator_covers(self, feature):
        find(
            llm_cases(),
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


class TestFinalize:
    def test_rollback_exempt(self):
        # A rollback reproduces the raw message, maskable tokens included.
        for variables in ([], ["zzz"], [" "]):
            result = validate_and_mask("took 37 ms", variables)
            assert result == TemplateResult("took 37 ms", (), SOURCE_ROLLBACK)
            assert finalize(result, ("took", "37", "ms")) is result

    def test_rederives_parameters_after_run_collapse(self):
        results = extract_template(dense_group_from(["x 1 2 y", "x 3 4 y"]))
        final = results["x 1 2 y"]
        assert final.template == "x <*> y"
        assert final.parameters == ("1 2",)
        assert final.token_sequence() == ["x", "1", "2", "y"]

    def test_masks_residual_variables_and_realigns(self):
        final = validate_and_mask("sent 512 bytes to 10.0.0.9", ["10.0.0.9"])
        assert final.template == "sent <*> bytes to <*>"
        assert final.parameters == ("512", "10.0.0.9")
        assert final.source == SOURCE_LLM

    def test_unchanged_template_keeps_parameters(self):
        raw = TemplateResult("plain words only", (), SOURCE_STATISTICAL)
        assert finalize(raw, ("plain", "words", "only")) is raw


class TestDeriveParameters:
    """``collapse``: a template and the token span of each parameter."""

    def test_multi_token_absorption(self):
        assert collapse(("a", "b", "c", "d"), [False, True, True, False]) == (
            "a <*> d",
            [(1, 3)],
        )
        assert validate_and_mask("a b c d", ["b c"]).parameters == ("b c",)

    def test_no_placeholders(self):
        assert collapse(("a", "b"), [False, False]) == ("a b", [])


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
        got = expanded_positions(results[lines[0]])
        expected = brute_force_masked_positions(
            sorted(lines), [m.key_tokens for m in group.member_groups]
        ) | maskable_positions(lines[0].split())
        assert got == expected
