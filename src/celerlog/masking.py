"""Header stripping, token masking, skeleton construction and verb lookup.

Masking replaces five kinds of variable-shaped tokens with designated mask
tokens, one for one, so a skeleton always has exactly as many tokens as the
raw message. The five rules (NUM, CL, UCL, BL, SL) are fixed, so they are a
constant in code (``_MASK_RULES``, returned by ``default_mask_rules``).

Bounded caches sit in front of the rules at two levels, both keyed by
*shape*. The shape of an ASCII text, a token or a whole content, is its bytes
with each hex run ``0[xX][0-9A-Fa-f]+`` overwritten by as many ``0xFF``
bytes, then translated by ``_COARSE_SHAPE`` (digits to ``1``, letters other
than ``x``/``X`` to ``a`` or ``A``). Texts of one shape mask alike:

- Whitespace and the peeled brackets and punctuation keep their bytes, so
  two contents of one shape split into tokens at the same places, and two
  tokens of one shape peel the same prefixes and suffixes and have their
  cores at the same spans.
- A core that holds a hex run is NUM exactly when it is an optional sign
  followed by that single run. Otherwise it is CL if it holds a delimiter,
  and UCL if not, since the run supplies a letter (``x``) and a digit
  (``0``). None of this depends on which hex digits the run holds.
- A ``0x`` left outside a run has no hex digit after it, so NUM's hex branch
  cannot use it. Outside runs, no rule and no peeling tells apart the
  characters that the table maps to one byte. The guard for designated
  tokens is the one exception, so it comes before either cache: contents
  holding one take the token path, and tokens holding one stay as they are.

A content is first looked up in the plan cache. A plan is a ``%``-format
string holding the masked tokens (``%`` doubled) and an ``operator.itemgetter``
of the content slices between them, so a hit costs one shape, one lookup and
one format. A shape gets its plan the second time it is seen, so contents
whose shapes never come back build none. Plans are kept only for contents
whose tokens are separated by single spaces, with none at either end; every
other content, and every miss, takes the token path. ``skeletons`` masks a
sequence of contents in order and takes their shapes a batch at a time, from
one pass over the batch joined by ``\n``, so a hit's shape costs no call of
its own.

On the token path, masked tokens are cached by token. Behind that, an ASCII
token's classification is cached by its shape: the rule regex runs once per
shape, and the output is built from the token's own characters. Non-ASCII
tokens go to the regex directly.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator

from .model import PLACEHOLDER, CelerlogError, ConfigError

_OPEN_BRACKETS = "([<"
_CLOSE_BRACKETS = ")]>"
_TRAILING_PUNCT = ",:;.!?"
_PEELED_TRAILING = _CLOSE_BRACKETS + _TRAILING_PUNCT

# Masking rules as (name, pattern) pairs in firing order. Patterns are
# full-matched against a token core (surrounding brackets and trailing
# sentence punctuation peeled off first); at most one rule fires per token.
# SL additionally requires the core to be longer than a bare letter or to
# have had adjacent brackets/punctuation peeled, so isolated single letters
# stay untouched.
_MASK_RULES = (
    ("NUM", r"[+-]?(?:0[xX][0-9A-Fa-f]+|\d+\.?\d*|\.\d+)"),
    ("CL", r"(?=(?:[^A-Za-z0-9]*[A-Za-z0-9]){2})(?=.*[/\\=:.\-_]).+"),
    ("UCL", r"(?=.*[A-Za-z])(?=.*[0-9]).+"),
    ("BL", r"[A-Z]{2,5}"),
    ("SL", r"[/\\=:.\-_]*[A-Za-z][/\\=:.\-_]*"),
)

#: Designated tokens produced by the masking rules, in rule order.
MASK_TOKENS = tuple(f"<{name}>" for name, _ in _MASK_RULES)

#: The designated tokens and the final-template placeholder ``<*>``.
MASK_TOKEN_SET = frozenset(MASK_TOKENS) | {PLACEHOLDER}

#: Entries kept by the per-token caches. Most distinct tokens of a corpus are
#: values seen once, so an unbounded cache grows with the corpus; the words
#: that repeat stay hot well within this bound.
_TOKEN_CACHE_SIZE = 4096


class EmptyMessageError(CelerlogError):
    """Raised when a message has no tokens to mask."""


def _data_text(name: str) -> str:
    return resources.files("celerlog.data").joinpath(name).read_text(encoding="utf-8")


def default_mask_rules() -> tuple[tuple[str, str], ...]:
    """The five masking rules as (name, pattern) pairs, in firing order."""
    return _MASK_RULES


def compile_header_pattern(pattern: str) -> re.Pattern:
    """Compile a header pattern; it must carry a named ``content`` capture."""
    try:
        compiled = re.compile(pattern)
    except re.error as exc:
        raise ConfigError(f"invalid header pattern: {exc}") from exc
    if "content" not in compiled.groupindex:
        raise ConfigError("header pattern must define a named 'content' capture group")
    return compiled


def strip_header(raw_line: str, header_pattern: re.Pattern) -> str:
    """Return the message body of a raw line.

    When the pattern does not match, the whole line is the body; a nonempty
    line therefore never strips down to nothing by accident.
    """
    match = header_pattern.match(raw_line)
    if match is None or match.group("content") is None:
        return raw_line
    return match.group("content")


@lru_cache(maxsize=1)
def _classifier() -> re.Pattern:
    """The rules as one alternation with a named group per rule, in order.

    ``fullmatch`` tries the alternatives in order, so ``lastgroup`` names the
    first rule that full-matches the core, as trying the rules one by one
    would. Built on first use, so start-up does not pay for it.
    """
    return re.compile(
        "|".join(f"(?P<{name}>{pattern})" for name, pattern in _MASK_RULES)
    )


#: Byte table of the shapes (module docstring): digits to ``1``, letters other
#: than ``x``/``X`` to ``a``/``A``; every other byte stays.
_COARSE_SHAPE = bytes.maketrans(
    b"0123456789abcdefghijklmnopqrstuvwyzABCDEFGHIJKLMNOPQRSTUVWYZ",
    b"1111111111aaaaaaaaaaaaaaaaaaaaaaaaaAAAAAAAAAAAAAAAAAAAAAAAAA",
)


@lru_cache(maxsize=1)
def _hex_runs() -> re.Pattern:
    """NUM's hex branch over bytes, built on first use like ``_classifier``."""
    return re.compile(rb"0[xX][0-9A-Fa-f]+")


def _blank_run(match: re.Match) -> bytes:
    return b"\xff" * len(match[0])


def _shape(text: str) -> bytes:
    """The shape of an ASCII token or content (module docstring). Any text
    encodes, lone surrogates included, but only an ASCII one has a shape."""
    data = text.encode("utf-8", "surrogatepass")
    if b"0x" in data or b"0X" in data:
        data = _hex_runs().sub(_blank_run, data)
    return data.translate(_COARSE_SHAPE)


#: Token shape -> ``(start, end, designated token)`` of the masked core, or
#: None when the token stays as it is; emptied at ``_TOKEN_CACHE_SIZE`` entries.
_SHAPE_CACHE: dict[bytes, tuple[int, int, str] | None] = {}


def _classify(token: str) -> tuple[int, int, str] | None:
    """Where the token's core sits and which designated token replaces it."""
    # Peel leading brackets, then trailing brackets and sentence punctuation.
    core = token.lstrip(_OPEN_BRACKETS)
    start = len(token) - len(core)
    core = core.rstrip(_PEELED_TRAILING)
    if not core:
        return None
    match = _classifier().fullmatch(core)
    if match is None:
        return None
    name = match.lastgroup
    if name == "SL" and len(token) == 1:
        # A bare letter only masks when a delimiter sat right next to it.
        return None
    return start, start + len(core), f"<{name}>"


def _mask_uncached(token: str) -> str:
    # No rule masks a token of lowercase letters alone: NUM, CL and UCL need a
    # digit or a delimiter, BL capitals, and SL one letter beside a delimiter.
    if token.isalpha() and token.islower():
        return token
    # Every designated token holds "<"; the cheap test spares most tokens the
    # six substring scans.
    if "<" in token and any(mask in token for mask in MASK_TOKEN_SET):
        # Already carries a designated token; re-masking must be a no-op.
        return token
    if token.isascii():
        # Tokens of one shape classify alike, so the regex runs once per shape.
        # This is ``_shape`` inlined: a call per missed token made masking
        # 20,000 lines of 356,000 distinct tokens 0.65-0.68 s instead of 0.50 s.
        shape = token.encode()
        if "0x" in token or "0X" in token:
            shape = _hex_runs().sub(_blank_run, shape)
        shape = shape.translate(_COARSE_SHAPE)
        span = _SHAPE_CACHE.get(shape, False)
        if span is False:
            if len(_SHAPE_CACHE) >= _TOKEN_CACHE_SIZE:
                _SHAPE_CACHE.clear()
            span = _SHAPE_CACHE[shape] = _classify(token)
    else:
        # \d also matches non-ASCII digits, which no byte table can list.
        span = _classify(token)
    if span is None:
        return token
    start, end, mask = span
    if not start and end == len(token):
        # Most masked tokens are all core; their slices would be empty.
        return mask
    return f"{token[:start]}{mask}{token[end:]}"


class _TokenCache(dict):
    """Token -> masked token, emptied when it reaches ``_TOKEN_CACHE_SIZE`` entries.

    A hit is one dict lookup in C, with no Python frame; a miss masks the token
    through ``__missing__``.
    """

    def __missing__(self, token: str) -> str:
        if len(self) >= _TOKEN_CACHE_SIZE:
            self.clear()
        masked = self[token] = _mask_uncached(token)
        return masked


_TOKEN_CACHE = _TokenCache()


def mask_token(token: str) -> str:
    """Mask one whitespace-free token, preserving surrounding brackets and
    trailing sentence punctuation outside the replacement."""
    return _TOKEN_CACHE[token]


#: Characters of message shapes that the plan cache holds. A plan costs about
#: 35 bytes per character of its message in the worst case, single letters
#: between single digits ("a 1 a 1 ..."), so the cache holds at most about
#: 18 MB, or one plan of a longer message. The benchmark workloads' 872 to
#: 1,630 shapes, of lines up to 413 characters, come to 192,000-375,000
#: characters and 0.5-1.1 MB.
_PLAN_CACHE_CHARS = 1 << 19


class _PlanCache(dict):
    """Message shape -> plan ``(fmt, getter)``, where the skeleton of every
    message of that shape is ``fmt % getter(content)``, or None for a shape
    seen once.

    A shape enters through ``add``, as None, and its plan replaces the None.
    ``add`` first empties the cache when the shape would take it past
    ``_TOKEN_CACHE_SIZE`` entries or ``_PLAN_CACHE_CHARS`` characters.
    """

    chars = 0

    def add(self, key: bytes) -> None:
        if len(self) >= _TOKEN_CACHE_SIZE or self.chars + len(key) > _PLAN_CACHE_CHARS:
            self.clear()
        self[key] = None
        self.chars += len(key)

    def clear(self) -> None:
        super().clear()
        self.chars = 0


_PLAN_CACHE = _PlanCache()


def _plan(tokens: list[str], masked: list[str]) -> tuple[str, itemgetter]:
    """The plan of a message whose tokens are separated by single spaces.

    Each run of tokens that masking keeps becomes one slice of the content,
    and each masked token a literal of the format. A message with no kept
    token gets one empty slice, so every plan formats alike.
    """
    parts: list[str] = []
    slices: list[slice] = []
    start = kept = None
    position = 0
    for token, mask in zip(tokens, masked):
        end = position + len(token)
        if mask == token:
            if start is None:
                start = position
            kept = end
        else:
            if start is not None:
                parts.append("%s")
                slices.append(slice(start, kept))
                start = None
            parts.append(mask.replace("%", "%%"))
        position = end + 1
    if start is not None:
        parts.append("%s")
        slices.append(slice(start, kept))
    fmt = " ".join(parts)
    if not slices:
        fmt += "%s"
        slices.append(slice(0, 0))
    return fmt, itemgetter(*slices)


def _masked(content: str, key: bytes | None) -> str:
    """The skeleton of a message whose shape, if it is ASCII, is ``key``, or
    is taken here when ``key`` is None.

    Messages of one shape share a plan (module docstring). The first message
    of a shape leaves its key, and the second the plan, so a message whose
    shape never comes back builds no plan; these and the other messages are
    masked token for token. ``skeleton`` and ``skeletons`` both mask here.
    """
    plan = False
    if content.isascii() and not (
        "<" in content and any(mask in content for mask in MASK_TOKEN_SET)
    ):
        if key is None:
            key = _shape(content)
        plan = _PLAN_CACHE.get(key, False)
        if plan:
            fmt, getter = plan
            return fmt % getter(content)
    else:
        key = None
    tokens = content.split()
    if not tokens:
        raise EmptyMessageError("cannot mask an empty message")
    masked = list(map(_TOKEN_CACHE.__getitem__, tokens))
    if key is not None:
        if plan is False:
            _PLAN_CACHE.add(key)
        elif " ".join(tokens) == content:
            _PLAN_CACHE[key] = _plan(tokens, masked)
    return " ".join(masked)


def skeleton(content: str) -> str:
    """The masked skeleton of a message: its masked tokens joined by single spaces."""
    return _masked(content, None)


#: Contents that ``skeletons`` shapes in one pass.
_BATCH_SIZE = 1024


def skeletons(contents: Iterable[str]) -> Iterator[str]:
    """The skeleton of each content, in order, as ``skeleton`` gives it.

    The contents are taken ``_BATCH_SIZE`` at a time, and each batch is
    shaped as one text: its contents joined by ``\n``, encoded, hex-blanked
    and translated once, then split at ``\n``. A hex run holds no ``\n``, so
    each piece is that content's shape byte for byte. A batch whose split
    gives another count, because a content holds ``\n``, is masked content
    by content. The skeletons come batch by batch, so none of a long input
    is held at once.
    """
    contents = iter(contents)
    while batch := list(islice(contents, _BATCH_SIZE)):
        shapes = _shape("\n".join(batch)).split(b"\n")
        if len(shapes) == len(batch):
            yield from map(_masked, batch, shapes)
        else:
            yield from map(skeleton, batch)


def mask_message(content: str) -> tuple[str, tuple[str, ...]]:
    """Mask a message; returns (skeleton, skeleton tokens)."""
    key = skeleton(content)
    return key, tuple(key.split())


@lru_cache(maxsize=1)
def default_verb_lexicon() -> frozenset[str]:
    """The packaged newline-delimited list of lowercase verb lemmas (data/verbs.txt)."""
    text = _data_text("verbs.txt")
    return frozenset(word.strip() for word in text.splitlines() if word.strip())


def _lemma_candidates(word: str):
    yield word
    if word.endswith("ies") and len(word) > 4:
        yield word[:-3] + "y"
    if word.endswith("es") and len(word) > 3:
        yield word[:-2]
    if word.endswith("s") and len(word) > 3 and not word.endswith("ss"):
        yield word[:-1]
    if word.endswith("ing") and len(word) > 4:
        base = word[:-3]
        yield base
        yield base + "e"
        if len(base) > 2 and base[-1] == base[-2]:
            yield base[:-1]
    if word.endswith("ed") and len(word) > 3:
        yield word[:-1]
        base = word[:-2]
        yield base
        if len(base) > 2 and base[-1] == base[-2]:
            yield base[:-1]


@lru_cache(maxsize=_TOKEN_CACHE_SIZE)
def _lemmatize(word: str) -> str | None:
    lexicon = default_verb_lexicon()
    for candidate in _lemma_candidates(word):
        if candidate in lexicon:
            return candidate
    return None


def extract_verbs(key: str) -> set[str]:
    """Collect the lowercase verb lemmas present in a skeleton key.

    Mask tokens never match; every other token is lowercased, stripped of
    surrounding punctuation, and looked up through the suffix lemmatizer.
    """
    verbs: set[str] = set()
    for token in key.split():
        if token in MASK_TOKEN_SET:
            continue
        word = token.strip("()[]<>{}\"'`,.:;!?").lower()
        if not word or not word.isalpha():
            continue
        lemma = _lemmatize(word)
        if lemma is not None:
            verbs.add(lemma)
    return verbs
