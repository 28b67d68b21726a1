"""Header stripping, token masking, skeleton construction and verb lookup.

Masking replaces five kinds of variable-shaped tokens with designated mask
tokens, one for one, so a skeleton always has exactly as many tokens as the
raw message. The five rules (NUM, CL, UCL, BL, SL) are fixed, so they are a
constant in code (``_MASK_RULES``, returned by ``default_mask_rules``).

Two bounded caches sit in front of the rules. Masked tokens are cached by
token. Behind that, an ASCII token is classified by its *shape*, the token
with every character that no rule tells apart mapped to one byte (digits to
``1``, letters to ``a`` or ``A``, hex digits kept apart after ``0x``): the
rule regex runs once per shape, and the output is built from the token's own
characters. Non-ASCII tokens go to the regex directly.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

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


#: Byte tables that map an ASCII token to its shape: characters that neither
#: the peeling nor any rule tells apart map to one byte. The coarse table
#: sends digits to ``1`` and letters other than ``x``/``X`` to ``a``/``A``.
#: Only NUM's hex branch ``0[xX][0-9A-Fa-f]+`` reads ``0`` or the hex letters,
#: so a token holding ``0x`` or ``0X`` takes the fine table, which also keeps
#: ``0`` and sends ``a-f``/``A-F`` and the other letters to different bytes.
#: Fine shapes hold ``0`` and coarse ones never do, so the two never collide.
_COARSE_SHAPE = bytes.maketrans(
    b"0123456789abcdefghijklmnopqrstuvwyzABCDEFGHIJKLMNOPQRSTUVWYZ",
    b"1111111111aaaaaaaaaaaaaaaaaaaaaaaaaAAAAAAAAAAAAAAAAAAAAAAAAA",
)
_FINE_SHAPE = bytes.maketrans(
    b"123456789abcdefghijklmnopqrstuvwyzABCDEFGHIJKLMNOPQRSTUVWYZ",
    b"111111111aaaaaagggggggggggggggggggAAAAAAGGGGGGGGGGGGGGGGGGG",
)

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
        shape = token.encode().translate(
            _FINE_SHAPE if "0x" in token or "0X" in token else _COARSE_SHAPE
        )
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


def mask_message(content: str) -> tuple[str, tuple[str, ...]]:
    """Mask a message token for token; returns (skeleton, skeleton tokens)."""
    key_tokens = tuple(map(_TOKEN_CACHE.__getitem__, content.split()))
    if not key_tokens:
        raise EmptyMessageError("cannot mask an empty message")
    return " ".join(key_tokens), key_tokens


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
