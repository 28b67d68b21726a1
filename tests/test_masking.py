import importlib
import pkgutil
import re
import tracemalloc

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

import celerlog
from celerlog import masking
from celerlog.masking import (
    _PLAN_CACHE,
    _PLAN_CACHE_CHARS,
    _SHAPE_CACHE,
    _TOKEN_CACHE,
    _TOKEN_CACHE_SIZE,
    MASK_TOKEN_SET,
    EmptyMessageError,
    compile_header_pattern,
    default_mask_rules,
    default_verb_lexicon,
    extract_verbs,
    mask_message,
    mask_token,
    skeleton,
    skeletons,
    strip_header,
)
from celerlog.model import ConfigError, LogRecord, RouterConfig
from celerlog.routing import route
from corpus import make_template_corpus
from oracles import naive_mask_token


def examples(count):
    """At least ``count`` examples, more under a deeper Hypothesis profile."""
    return max(count, settings.default.max_examples)


ZK_HEADER = r"^\S+ \S+ - (?P<level>\w+)\s+\[[^\]]*\] - (?P<content>.*)$"


class TestStripHeader:
    def test_strips_configured_header(self):
        line = (
            "2025-08-16 10:33:14,520 - INFO  [main:QuorumPeer@738] - "
            "Reading configuration from: /etc/zoo.cfg"
        )
        pattern = compile_header_pattern(ZK_HEADER)
        assert strip_header(line, pattern) == "Reading configuration from: /etc/zoo.cfg"

    def test_non_matching_pattern_falls_through(self):
        pattern = compile_header_pattern(r"^\[(?P<content>never)\]$")
        assert strip_header("no-match line", pattern) == "no-match line"

    def test_malformed_pattern_is_config_error(self):
        with pytest.raises(ConfigError):
            compile_header_pattern(r"([unclosed")

    def test_missing_content_group_is_config_error(self):
        with pytest.raises(ConfigError):
            compile_header_pattern(r"^(?P<body>.*)$")


MASK_CASES = [
    ("123", "<NUM>"),
    ("0x0", "<NUM>"),
    ("0x100001546", "<NUM>"),
    ("-5", "<NUM>"),
    ("3.14", "<NUM>"),
    ("37,", "<NUM>,"),
    ("[2024]", "[<NUM>]"),
    ("/etc/zookeeper/conf/zoo.cfg", "<CL>"),
    ("/data/version-2/snapshot.0", "<CL>"),
    ("user=alice", "<CL>"),
    ("10.0.0.1:8080", "<CL>"),
    ("1.2.3", "<CL>"),
    ("version-2", "<CL>"),
    ("blk123abc", "<UCL>"),
    ("x86", "<UCL>"),
    ("OK", "<BL>"),
    ("FAIL", "<BL>"),
    ("ERROR", "<BL>"),
    ("r/", "<SL>"),
    ("(s)", "(<SL>)"),
    ("Snapshotting:", "Snapshotting:"),
    ("hello", "hello"),
    ("to", "to"),
    ("Failed", "Failed"),
    ("a", "a"),
    ("TOOLONGCAPS", "TOOLONGCAPS"),
    ("<NUM>", "<NUM>"),
    ("<*>", "<*>"),
    ("::", "::"),
    ("(error)", "(error)"),
]


class TestMaskToken:
    @pytest.mark.parametrize("token,expected", MASK_CASES)
    def test_rule_table(self, token, expected):
        assert mask_token(token) == expected

    def test_bare_single_letter_needs_adjacency(self):
        assert mask_token("s") == "s"
        assert mask_token("(s)") == "(<SL>)"
        assert mask_token("s:") == "<SL>:"


# Pieces that exercise the peeling and the guard: brackets on both sides,
# trailing punctuation, designated tokens embedded in longer tokens, lone
# letters, values for every rule, and alphabetic words in every case,
# non-ASCII ones included. The shape tables merge digits and letters, so the
# pieces also hold what they must keep apart: hex prefixes with and without
# hex digits after them, an x between digits, zeros, signs, hex and non-hex
# capitals, a lone x in both cases and a non-ASCII digit.
TOKEN_PIECES = st.sampled_from(
    ["(", "[", "<", ")", "]", ">", ",", ":", ";", ".", "!", "?", "<NUM>", "<*>", "<CL>",
     "<SL", "NUM>", "s", "Z", "OK", "ERROR", "/", "=", "-", "_", "\\", "0x1f", "42", "3.5",
     "blk9", "user", "path/to", "Failed", "RETRIES", "é", "ß", "ǅ", "0x", "0X", "0xg", "1x2",
     "00", "-7", "+", "AF", "G", "x", "X", "٣"]
)
mask_tokens_strategy = st.lists(TOKEN_PIECES, min_size=1, max_size=6).map("".join)


# Characters that the masking rules read alike, as this test sees them. In a
# token holding a hex prefix, NUM's hex branch also tells 0 from the other
# digits and a-f/A-F from the other letters. No class holds 0, x or X, so a
# swap never makes or breaks a hex prefix.
PLAIN_CLASSES = ("123456789", "abcdefghijklmnopqrstuvwyz", "ABCDEFGHIJKLMNOPQRSTUVWYZ")
HEX_CLASSES = ("123456789", "abcdef", "ghijklmnopqrstuvwyz", "ABCDEF", "GHIJKLMNOPQRSTUVWYZ")


def _same_class(char, token, rng):
    """A character of ``char``'s class in ``token``, drawn by ``rng``."""
    hex_prefixed = "0x" in token or "0X" in token
    if char == "0" and not hex_prefixed:
        return rng.choice(PLAIN_CLASSES[0])
    for chars in HEX_CLASSES if hex_prefixed else PLAIN_CLASSES:
        if char in chars:
            return rng.choice(chars)
    return char


def _is_lone_letter(token):
    return len(token.strip("([<)]>,:;.!?")) == 1 and token.strip("([<)]>,:;.!?").isalpha()


class TestMaskTokenAgainstOracle:
    @settings(max_examples=examples(2000), deadline=None)
    @given(mask_tokens_strategy)
    def test_equals_naive_mask_token(self, token):
        assert mask_token(token) == naive_mask_token(token)

    @settings(max_examples=examples(2000), deadline=None)
    @given(mask_tokens_strategy.filter(str.isascii), st.randoms(use_true_random=False))
    def test_warm_shape_entry_equals_naive_mask_token(self, token, rng):
        # A sibling of the same shape fills the shape entry, so the token is
        # masked from what the sibling left there and adds no entry.
        sibling = "".join(_same_class(char, token, rng) for char in token)
        _TOKEN_CACHE.clear()
        assert mask_token(sibling) == naive_mask_token(sibling)
        warm = len(_SHAPE_CACHE)
        assert mask_token(token) == naive_mask_token(token)
        assert len(_SHAPE_CACHE) == warm

    @pytest.mark.parametrize(
        "feature",
        [
            lambda token: token[0] in "([<" and token[-1] in ")]>" and len(token) > 2,
            lambda token: token[-1] in ",:;.!?" and len(token) > 1,
            lambda token: "<NUM>" in token and token != "<NUM>",
            lambda token: "<*>" in token and token != "<*>",
            lambda token: "<" in token and naive_mask_token(token) != token,
            lambda token: _is_lone_letter(token) and len(token) == 1,
            lambda token: _is_lone_letter(token) and len(token) > 1,
            lambda token: len(token) > 1 and token.isalpha() and token.islower(),
            lambda token: len(token) > 1 and token.isalpha() and token.isupper(),
            lambda token: len(token) > 1 and token.isalpha() and token.istitle(),
            lambda token: "é" in token and token.isalpha(),
            lambda token: "ß" in token and token.isalpha(),
            lambda token: "ǅ" in token and token.isalpha(),
            lambda token: re.fullmatch(r"0x[0-9A-Fa-f]+", token) is not None,
            lambda token: re.search(r"0[xX][0-9A-Fa-f]*[A-F]", token) is not None,
            lambda token: re.search(r"0[xX]([^0-9A-Fa-f]|$)", token) is not None,
            lambda token: re.fullmatch(r"[1-9][xX][0-9]+", token) is not None,
            lambda token: re.fullmatch(r"00[0-9]*", token) is not None,
            lambda token: re.fullmatch(r"[+-][0-9]+", token) is not None,
            lambda token: "G" in token and naive_mask_token(token) != token,
            lambda token: token in ("x", "X"),
            lambda token: token.strip("([<)]>,:;.!?") in ("x", "X") and len(token) > 1,
            lambda token: "٣" in token and naive_mask_token(token) == "<NUM>",
            lambda token: "٣" in token and naive_mask_token(token) == token,
        ],
        ids=["brackets", "trailing-punct", "embedded-num", "embedded-placeholder",
             "bracket-masked", "lone-letter", "lone-letter-adjacent", "lower-word",
             "upper-word", "title-word", "e-acute", "sharp-s", "titlecase-dz",
             "hex-number", "upper-hex-digit", "hex-prefix-alone", "x-between-digits",
             "leading-zeros", "signed-number", "non-hex-capital", "lone-x",
             "lone-x-adjacent", "arabic-indic-number", "arabic-indic-unmasked"],
    )
    def test_generator_covers(self, feature):
        find(
            mask_tokens_strategy,
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


def test_every_cache_is_bounded():
    maxsizes = {}
    for module_info in pkgutil.iter_modules(celerlog.__path__, "celerlog."):
        module = importlib.import_module(module_info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                maxsizes[f"{module_info.name}.{name}"] = value.cache_info().maxsize
    assert "celerlog.masking._lemmatize" in maxsizes
    assert {name: size for name, size in maxsizes.items() if size is None} == {}
    # mask_token's cache is a dict that empties itself when full.
    for number in range(2 * _TOKEN_CACHE_SIZE + 1):
        assert mask_message(f"tok{number} {number}")[0] == "<UCL> <NUM>"
        assert len(_TOKEN_CACHE) <= _TOKEN_CACHE_SIZE
    assert mask_token("x86") == "<UCL>"
    # So is the shape cache behind it: each token below has a shape of its
    # own, a run of capitals and digits spelling the number in binary.
    _SHAPE_CACHE.clear()
    for number in range(2 * _TOKEN_CACHE_SIZE + 1):
        token = f"({number:014b})".translate(str.maketrans("01", "A7"))
        assert mask_token(token) == naive_mask_token(token)
        assert len(_SHAPE_CACHE) <= _TOKEN_CACHE_SIZE
    # It emptied itself twice on the way, and masks alike afterwards.
    assert len(_SHAPE_CACHE) <= _TOKEN_CACHE_SIZE // 2
    _TOKEN_CACHE.clear()
    for token in ("0x1f", "0xg1", "1x2", "OK", "(s)", "A7A", "AAAAAAA7", "user=7"):
        assert mask_token(token) == naive_mask_token(token)
    # The plan cache in front of them too: each message below has a shape of
    # its own, and is masked a second time from the plan that leaves.
    _PLAN_CACHE.clear()
    for number in range(2 * _TOKEN_CACHE_SIZE + 1):
        message = f"job ({number:014b}) done".translate(str.maketrans("01", "A7"))
        for _ in range(3):
            assert skeleton(message) == naive_skeleton(message)
        assert has_plan(message)
        assert len(_PLAN_CACHE) <= _TOKEN_CACHE_SIZE
    assert len(_PLAN_CACHE) <= _TOKEN_CACHE_SIZE // 2
    for message in ("job (AAAAAAAAAAAAA7) done", "id 0x1f", "job 7 (s)"):
        assert skeleton(message) == naive_skeleton(message)


def test_plan_cache_is_bounded_by_characters():
    # Long lines of the costliest kind, single letters between single digits,
    # each of a shape of its own and masked twice, so that it leaves a plan:
    # twice the characters the plan cache holds, about 35 bytes of plan per
    # character if it kept them all.
    count = 2 * _PLAN_CACHE_CHARS // 10_000 + 1
    lines = []
    for number in range(count):
        tokens = ["a", "1"] * 2_500
        tokens[number] = "B"
        lines.append(" ".join(tokens))
    skeleton(lines[0])
    _PLAN_CACHE.clear()
    tracemalloc.start()
    try:
        for line in lines:
            skeleton(line)
            skeleton(line)
            assert _PLAN_CACHE.chars <= _PLAN_CACHE_CHARS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(_PLAN_CACHE) < count
    assert peak < 45 * _PLAN_CACHE_CHARS, f"masking long lines peaked at {peak / 1e6:.1f} MB"
    assert skeleton(lines[-1]) == naive_skeleton(lines[-1])


def test_regex_runs_once_per_token_shape(monkeypatch):
    lines, _ = make_template_corpus(
        n_lines=3000, n_templates=50, n_oneoffs=30, seed=3, oneoff_lengths=(4, 54)
    )
    # Shapes at least as fine as the masker's: 0, x and X keep their own
    # class, and a-f and A-F theirs. The corpus is ASCII.
    table = str.maketrans("0123456789" + "abcdefghijklmnopqrstuvwxyz" + "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
                          "0111111111" + "aaaaaagggggggggggggggggxgg" + "AAAAAAGGGGGGGGGGGGGGGGGXGG")
    tokens = {token for line in lines for token in line.split()}
    shapes = {token.translate(table) for token in tokens}
    classifier = masking._classifier()
    calls = []

    class CountingClassifier:
        def fullmatch(self, core):
            calls.append(core)
            return classifier.fullmatch(core)

    monkeypatch.setattr(masking, "_classifier", CountingClassifier)
    monkeypatch.setattr(masking, "_TOKEN_CACHE", masking._TokenCache())
    monkeypatch.setattr(masking, "_SHAPE_CACHE", {})
    _, _, stats = route([LogRecord(i, line) for i, line in enumerate(lines)], RouterConfig())
    assert stats.dense_records + stats.sparse_records == len(lines)
    assert 0 < len(calls) <= len(shapes)


def naive_skeleton(content):
    """The skeleton as masking each token alone gives it."""
    return " ".join(naive_mask_token(token) for token in content.split())


def takes_plan(content):
    """Whether ``skeleton`` keeps a plan for the content's shape: ASCII, no
    designated token, tokens separated by single spaces."""
    return (
        content.isascii()
        and not any(mask in content for mask in MASK_TOKEN_SET)
        and " ".join(content.split()) == content
    )


def has_plan(content):
    """Whether ``skeleton`` would mask the content from a plan in the cache."""
    return takes_plan(content) and bool(_PLAN_CACHE.get(masking._shape(content)))


def sibling(content, rng):
    """A message of the content's shape, drawn by ``rng``.

    Inside a hex run every digit after ``0x`` becomes any hex digit. Outside
    runs, ``0``, ``x``, ``X`` and every character that is not a letter or a
    digit stay; the other digits and letters move within ``HEX_CLASSES``,
    which keep case and whether a character is a hex digit, so the runs stay
    where they are.
    """
    parts = re.split(r"(0[xX][0-9A-Fa-f]+)", content)
    for index, part in enumerate(parts):
        if index % 2:
            parts[index] = part[:2] + "".join(
                rng.choice("0123456789abcdefABCDEF") for _ in part[2:]
            )
        else:
            parts[index] = "".join(
                next((rng.choice(chars) for chars in HEX_CLASSES if char in chars), char)
                for char in part
            )
    return "".join(parts)


# Pieces of whole messages: hex runs, bare hex prefixes, zeros, signs,
# brackets, trailing punctuation, percent signs, delimiters, designated
# tokens, and separators that are mostly one space. Other separators, and
# spaces at either end, send a message past the plan cache.
MESSAGE_PIECES = st.sampled_from(
    ["0x", "0X", "0x1f", "0XaB", "-0x7", "0", "00", "7", "a", "f", "g", "G", "F", "x", "X",
     "+", "-", "(", "[", "<", ")", "]", ">", ",", ":", ".", "!", "%", "%s", "/", "=", "_",
     "<NUM>", "<*>", " ", " ", " ", " ", " ", " ", "  ", "\t", "\x1f", "é", "٣", "\xa0"]
)
messages_strategy = st.lists(MESSAGE_PIECES, min_size=1, max_size=12).map("".join).filter(
    str.split
)


@st.composite
def message_lists(draw):
    """Messages in masking order, some of them siblings of earlier ones, so
    that later messages hit plans that earlier, different ones left."""
    contents = draw(st.lists(messages_strategy, min_size=1, max_size=8))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 4))):
        contents.append(sibling(rng.choice(contents), rng))
    return contents


message_lists_strategy = message_lists()


def reuses_plan(contents):
    """Whether a content is masked from the plan that earlier, different ones left."""
    _PLAN_CACHE.clear()
    for index, content in enumerate(contents):
        if has_plan(content) and content not in contents[:index]:
            return True
        skeleton(content)
    return False


def masks_like_naive_with_siblings(contents, rng):
    """Masks each content twice, which leaves its plan, then a sibling of its
    shape, which must be masked from that plan unless it holds a designated
    token: a sibling of ``<GGG>`` may be ``<NUM>``, which never takes a plan.
    Later contents may hit plans that earlier ones left."""
    _PLAN_CACHE.clear()
    for content in contents:
        for _ in range(2):
            assert skeleton(content) == naive_skeleton(content)
        assert has_plan(content) == takes_plan(content)
        similar = sibling(content, rng)
        if takes_plan(content):
            assert has_plan(similar) == takes_plan(similar)
        assert skeleton(similar) == naive_skeleton(similar)


class _ScriptedRandom:
    """Draws the given characters in turn, each from the choices offered."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def choice(self, chars):
        char = next(self.draws)
        assert char in chars
        return char


class TestSkeletonAgainstOracle:
    @settings(max_examples=examples(2000), deadline=None)
    @given(message_lists_strategy, st.randoms(use_true_random=False))
    def test_equals_naive_mask_per_token(self, contents, rng):
        masks_like_naive_with_siblings(contents, rng)

    def test_sibling_that_is_a_designated_token_takes_no_plan(self):
        # The example that once failed: the sibling of "<GGG>", which has a
        # plan, is drawn as "<NUM>", a designated token of the same shape.
        assert masking._shape("<NUM>") == masking._shape("<GGG>")
        masks_like_naive_with_siblings(
            ["<NUM>", "0x0x", "<GGG>"], _ScriptedRandom(["P", "Q", "R", "7", "N", "U", "M"])
        )
        assert has_plan("<GGG>") and not has_plan("<NUM>")

    @pytest.mark.parametrize(
        "first, second, shared",
        [
            ("id 0x1f to 0XaB", "id 0xc9 to 0X0e", True),
            ("bad 0xg", "bad 5xg", True),
            ("bad 0xg", "bad 0xa", False),
            ("+0x1f", "+0xab", True),
            ("+0x1f", "a0x1f", False),
            ("at 00x1f", "at 70xab", True),
            ("at 00x1f", "at 0x1f0", False),
            ("load 50% a1% (7%) %s", "load 75% b9% (3%) %d", True),
            ("(0x1f0x2),", "(0xabcx9),", True),
        ],
        ids=["hex-digits-swapped", "hex-prefix-alone", "hex-prefix-alone-vs-run",
             "signed-hex", "signed-hex-vs-letter", "double-zero-hex",
             "double-zero-hex-vs-run", "percent", "two-prefixes"],
    )
    def test_sibling_cases(self, first, second, shared):
        _PLAN_CACHE.clear()
        for _ in range(2):
            assert skeleton(first) == naive_skeleton(first)
        assert len(_PLAN_CACHE) == 1
        assert has_plan(first)
        assert has_plan(second) == shared
        assert skeleton(second) == naive_skeleton(second)

    @pytest.mark.parametrize(
        "content",
        ["job\t7 done", "job  7 done", " job 7 done", "job 7 done ", "job\x1f7 done",
         "job é 7", "job ٣ done", "job\xa07 done", "job <NUM> 7", "job <ABC> 7"],
        ids=["tab", "double-space", "leading-space", "trailing-space", "unit-separator",
             "e-acute", "arabic-indic-digit", "no-break-space", "designated-token",
             "bracketed-capitals"],
    )
    def test_fallback_cases(self, content):
        # These take the token path every time and leave no plan, except the
        # last, a sibling of the designated token that must not be reused for it.
        _PLAN_CACHE.clear()
        for _ in range(3):
            assert skeleton(content) == naive_skeleton(content)
        assert has_plan(content) == takes_plan(content)
        assert skeleton("job <NUM> 7") == naive_skeleton("job <NUM> 7")

    @pytest.mark.parametrize(
        "feature",
        [
            reuses_plan,
            lambda contents: any(re.search(r"0[xX][0-9A-Fa-f]", c) for c in contents),
            lambda contents: any(re.search(r"0[xX]([^0-9A-Fa-f]|$)", c) for c in contents),
            lambda contents: any(
                re.search(r"(^| )[+-]0[xX][0-9A-Fa-f]+( |$)", c) for c in contents
            ),
            lambda contents: any(re.search(r"[A-Za-z]0[xX][0-9A-Fa-f]", c) for c in contents),
            lambda contents: any(re.search(r"00[xX][0-9A-Fa-f]", c) for c in contents),
            lambda contents: any(
                "%" in t and naive_mask_token(t) != t for c in contents for t in c.split()
            ),
            lambda contents: any(
                "%" in t and naive_mask_token(t) == t for c in contents for t in c.split()
            ),
            lambda contents: any("<NUM>" in c and takes_plan(c.replace("<NUM>", "<ABC>"))
                                 for c in contents),
            lambda contents: any("\t" in c for c in contents),
            lambda contents: any("  " in c.strip() for c in contents),
            lambda contents: any(c[0] == " " for c in contents),
            lambda contents: any(c[-1] == " " for c in contents),
            lambda contents: any(not c.isascii() for c in contents),
        ],
        ids=["plan-reused", "hex-run", "hex-prefix-alone", "signed-hex", "hex-after-letter",
             "double-zero-hex", "percent-masked", "percent-kept", "designated-token",
             "tab", "double-space", "leading-space", "trailing-space", "non-ascii"],
    )
    def test_generator_covers(self, feature):
        find(
            message_lists_strategy,
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


# Contents for the batch masker: message pieces plus what may break a batch
# apart, a line break (a CSV field may hold one) and a lone surrogate, which
# must not fail the batch's encoding, with hex prefixes and runs at either
# edge, where they meet the line break that joins a batch.
BATCH_PIECES = st.one_of(MESSAGE_PIECES, st.sampled_from(["\n", "\ud800"]))
batch_messages_strategy = st.tuples(
    st.sampled_from(["", "0x", "0X", "0x1f"]),
    st.lists(BATCH_PIECES, min_size=1, max_size=10).map("".join),
    st.sampled_from(["", "0x", "0X", "0xA"]),
).map("".join).filter(str.split)


@st.composite
def batch_lists(draw):
    """Contents over several small batches, some of them siblings of earlier
    ones so that later batches hit the plans earlier ones left."""
    contents = draw(st.lists(batch_messages_strategy, min_size=1, max_size=14))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 8))):
        contents.insert(rng.randrange(len(contents) + 1), sibling(rng.choice(contents), rng))
    return contents


def _empty_caches():
    _PLAN_CACHE.clear()
    _SHAPE_CACHE.clear()
    _TOKEN_CACHE.clear()


class TestSkeletonsAgainstSkeleton:
    """``skeletons`` against ``skeleton`` per content, each from empty caches."""

    @settings(max_examples=examples(1000), deadline=None)
    @given(batch_lists())
    def test_equals_skeleton_per_content(self, contents):
        _empty_caches()
        expected = [skeleton(content) for content in contents]
        plans = {key: plan and plan[0] for key, plan in _PLAN_CACHE.items()}
        _empty_caches()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(masking, "_BATCH_SIZE", 4)
            assert list(skeletons(contents)) == expected
        assert {key: plan and plan[0] for key, plan in _PLAN_CACHE.items()} == plans
        assert expected == [naive_skeleton(content) for content in contents]

    @pytest.mark.parametrize(
        "feature",
        [
            lambda contents: len(contents) > 8,
            lambda contents: any("\n" in c for c in contents[:4]),
            lambda contents: any("\n" in c for c in contents[4:8])
            and not any("\n" in c for c in contents[:4]),
            lambda contents: any("\ud800" in c for c in contents),
            lambda contents: any(c.startswith(("0x", "0X")) for c in contents),
            lambda contents: any(c.endswith(("0x", "0X")) for c in contents),
            lambda contents: any(
                contents.index(c) != index and takes_plan(c) for index, c in enumerate(contents)
            ),
        ],
        ids=["three-batches", "first-batch-broken", "second-batch-broken", "lone-surrogate",
             "hex-at-start", "hex-prefix-at-end", "repeated-content"],
    )
    def test_generator_covers(self, feature):
        find(
            batch_lists(),
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )

    def test_streams_one_batch_at_a_time(self):
        # The first skeleton comes after one batch is taken, not the input.
        taken = []

        def contents():
            for index in range(3 * masking._BATCH_SIZE):
                taken.append(index)
                yield f"job {index} done"

        masked = skeletons(contents())
        assert next(masked) == "job <NUM> done"
        assert len(taken) == masking._BATCH_SIZE


class TestMaskMessage:
    def test_snapshot_line(self):
        skeleton, tokens = mask_message("Snapshotting: 0x0 to /data/version-2/snapshot.0")
        assert skeleton == "Snapshotting: <NUM> to <CL>"
        assert tokens == ("Snapshotting:", "<NUM>", "to", "<CL>")

    def test_constant_line_is_identity(self):
        assert mask_message("shutdown complete")[0] == "shutdown complete"

    def test_empty_message_raises(self):
        with pytest.raises(EmptyMessageError):
            mask_message("")
        with pytest.raises(EmptyMessageError):
            mask_message("   ")


class TestExtractVerbs:
    def test_failed_password(self):
        assert extract_verbs("Failed password for <CL>") == {"fail"}

    def test_mask_tokens_never_match(self):
        assert extract_verbs("<NUM> <CL>") == set()

    def test_reading_lemmatizes(self):
        assert extract_verbs("Reading configuration from: <CL>") == {"read"}


TOKEN_ALPHABET = "abcdefgXYZ0123456789/\\=:.-_()[]<>,;!?+"
tokens_strategy = st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=12)
contents_strategy = st.lists(tokens_strategy, min_size=1, max_size=10).map(" ".join).filter(
    lambda s: s.split()
)


class TestMaskingProperties:
    @settings(max_examples=examples(300), deadline=None)
    @given(contents_strategy)
    def test_idempotent(self, content):
        skeleton, _ = mask_message(content)
        assert mask_message(skeleton)[0] == skeleton

    @settings(max_examples=examples(300), deadline=None)
    @given(contents_strategy)
    def test_length_preserving(self, content):
        _, key_tokens = mask_message(content)
        assert len(key_tokens) == len(content.split())

    @settings(max_examples=examples(100), deadline=None)
    @given(contents_strategy)
    def test_deterministic(self, content):
        assert mask_message(content) == mask_message(content)


class TestFixtures:
    def test_default_rules_order(self):
        assert tuple(name for name, _ in default_mask_rules()) == (
            "NUM", "CL", "UCL", "BL", "SL",
        )

    def test_verb_lexicon_is_lowercase_lemmas(self):
        lexicon = default_verb_lexicon()
        assert "fail" in lexicon and "read" in lexicon
        assert all(word == word.lower() for word in lexicon)
