"""Seeded corpus and ground-truth generator owned by the benchmark.

The shape follows the test suite's template corpus: templates of distinct
token lengths whose parameter slots always hold a maskable value of a kind
fixed per slot, plus one-off lines made of globally unique lowercase words.
With ``oneoff_variables`` off, the random draws happen in the same order as in
``tests/corpus.py``, so seed 17 with ``CorpusSpec(100_000, 50, 10_000,
(4, 12))`` yields the ROADMAP reference corpus. The copy lives here so that
editing a test can never move the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORDS = (
    "worker node client server request queue shard table index block region "
    "channel buffer packet session handler thread daemon socket broker lease "
    "quorum snapshot journal segment volume bucket record stream epoch token "
    "offset commit leader follower peer master replica cache entry batch page "
    "cursor monitor watcher router limiter parser mapper reducer merger probe"
).split()

FILLER = (
    "finished against within because toward without between under over after "
    "before during ready busy idle stale fresh valid local remote global slow "
    "fast warm cold early late spare prime inner outer upper lower"
).split()

PLACEHOLDER = "<*>"
_KINDS = ("int", "hex", "path", "pair", "ident")
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one workload's corpus; the seed comes from the command line."""

    n_lines: int
    n_templates: int
    n_oneoffs: int
    oneoff_lengths: tuple[int, int]
    #: Per one-off, how many tokens (drawn uniformly from this inclusive range)
    #: are numeric or path values instead of unique words.
    oneoff_variables: tuple[int, int] = (0, 0)


def _unique_word(counter: int) -> str:
    word = ""
    for _ in range(4):
        word = _LETTERS[counter % 26] + word
        counter //= 26
    return "q" + word


def _value(rng: random.Random, kind: str) -> str:
    if kind == "int":
        return str(rng.randrange(10**6))
    if kind == "hex":
        return f"0x{rng.randrange(16**8):x}"
    if kind == "path":
        return f"/srv/data/part{rng.randrange(10**5)}.log"
    if kind == "pair":
        return f"sid={rng.randrange(10**5)}"
    return f"blk{rng.randrange(10**5)}x{rng.randrange(100)}"


def generate(spec: CorpusSpec, seed: int) -> tuple[list[str], list[str]]:
    """Return (lines, truth) where truth[i] is the true template of lines[i].

    A true template replaces every parameter value with ``<*>``; a one-off
    without values is its own template.
    """
    if not 0 <= spec.n_oneoffs <= spec.n_lines:
        raise ValueError("n_oneoffs must lie between 0 and n_lines")
    rng = random.Random(seed)
    pool = WORDS + FILLER
    templates = []
    for index in range(spec.n_templates):
        length = 4 + index
        slots = sorted(rng.sample(range(1, length), k=min(3, max(1, length // 8))))
        kinds = [rng.choice(_KINDS) for _ in slots]
        constants = [rng.choice(pool) for _ in range(length)]
        templates.append((slots, kinds, constants))

    pairs: list[tuple[str, str]] = []
    for index in range(spec.n_lines - spec.n_oneoffs):
        slots, kinds, constants = templates[index % spec.n_templates]
        tokens = list(constants)
        true_tokens = list(constants)
        for slot, kind in zip(slots, kinds):
            tokens[slot] = _value(rng, kind)
            true_tokens[slot] = PLACEHOLDER
        pairs.append((" ".join(tokens), " ".join(true_tokens)))

    counter = 0
    low, high = spec.oneoff_variables
    for _ in range(spec.n_oneoffs):
        length = rng.randrange(*spec.oneoff_lengths)
        tokens = [_unique_word(counter + offset) for offset in range(length)]
        counter += length
        true_tokens = list(tokens)
        if high:
            count = rng.randint(low, high)
            for slot in rng.sample(range(length), k=count):
                tokens[slot] = _value(rng, rng.choice(("int", "path")))
                true_tokens[slot] = PLACEHOLDER
        pairs.append((" ".join(tokens), " ".join(true_tokens)))

    rng.shuffle(pairs)
    return [line for line, _ in pairs], [template for _, template in pairs]
