"""Synthetic corpus builders shared by the test suite.

Generated constants are lowercase alphabetic words so the masker never
touches them; parameter slots always emit maskable tokens of a kind fixed per
slot, so every line of one template masks to one skeleton.
"""

from __future__ import annotations

import itertools
import random

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


def fig5_lines() -> list[str]:
    return [
        "Snapshotting: 0x0 to /data/version-2/snapshot.0",
        "Snapshotting: 0x100001546 to /data/version-2/snapshot.100001546",
        "Snapshotting: 0x200001d42 to /data/version-2/snapshot.200001d42",
        "Snapshotting: 0x300002a10 to /data/version-2/snapshot.300002a10",
        "Snapshotting: 0x400003b77 to /data/version-2/snapshot.400003b77",
    ]


def fig4_lines() -> list[str]:
    """Three length-4 skeleton groups: anchor similarities 0.6 and 0.0."""
    return [
        "Failed password for user=alice",
        "Failed password for user=bob",
        "Failed password for user=carol",
        "Failed password for 4422",
        "Failed password for 5511",
        "session opened remotely today",
    ]


def _alpha_word(counter: int, prefix: str = "q") -> str:
    letters = "abcdefghijklmnopqrstuvwxyz"
    word = ""
    value = counter
    for _ in range(4):
        word = letters[value % 26] + word
        value //= 26
    return prefix + word


class _Template:
    def __init__(self, slots: list[int], kinds: list[str], constants: list[str]):
        self.length = len(constants)
        self.slots = slots
        self.kinds = kinds
        self.constants = constants

    @classmethod
    def draw(cls, rng: random.Random, length: int, pool: list[str]) -> "_Template":
        slots = sorted(rng.sample(range(1, length), k=min(3, max(1, length // 8))))
        kinds = [rng.choice(("int", "hex", "path", "pair", "ident")) for _ in slots]
        return cls(slots, kinds, [rng.choice(pool) for _ in range(length)])

    def twin(self, rng: random.Random, pool: list[str]) -> "_Template":
        """The same template with one constant word outside the slots replaced."""
        position = rng.choice([p for p in range(self.length) if p not in self.slots])
        constants = list(self.constants)
        constants[position] = rng.choice([word for word in pool if word != constants[position]])
        return _Template(self.slots, self.kinds, constants)

    def render(self, rng: random.Random, names: list[str]) -> str:
        tokens = list(self.constants)
        for slot, kind in zip(self.slots, self.kinds):
            if names and rng.random() < 0.3:
                value = rng.choice(names)
            elif kind == "int":
                value = str(rng.randrange(10**6))
            elif kind == "hex":
                value = f"0x{rng.randrange(16**8):x}"
            elif kind == "path":
                value = f"/srv/data/part{rng.randrange(10**5)}.log"
            elif kind == "pair":
                value = f"sid={rng.randrange(10**5)}"
            else:
                value = f"blk{rng.randrange(10**5)}x{rng.randrange(100)}"
            tokens[slot] = value
        return " ".join(tokens)


def make_template_corpus(
    n_lines: int,
    n_templates: int = 50,
    n_oneoffs: int = 100,
    seed: int = 7,
    oneoff_lengths: tuple[int, int] = (4, 21),
    *,
    shared_lengths: bool = False,
    name_pool: int = 0,
    siblings: bool = False,
) -> tuple[list[str], dict[str, str]]:
    """Build a corpus of parameter-varying template lines plus isolated lines.

    By default template token lengths are all distinct, so each template owns
    exactly one skeleton group in its bucket. One-off lines are made of globally unique
    words; concentrating their lengths (via ``oneoff_lengths``) piles
    mutually dissimilar skeleton groups into few buckets, which is what makes
    the merge phase work for a living. Returns (lines, content -> true
    template) where the true template masks each parameter slot with ``<*>``.

    Three options, all off by default, make routing decide between templates
    that masking cannot tell apart (as in real logs, Loghub-2.0):

    - ``shared_lengths``: template ``i`` has ``4 + i % 20`` tokens, so
      templates share length buckets.
    - ``name_pool``: with probability 0.3 a parameter slot holds a lowercase
      name, which masking leaves as it is, drawn from a pool of this many;
      its true template still has ``<*>`` there.
    - ``siblings``: every template gets a twin that differs in one constant
      word outside its slots and is a true template of its own.

    An option that is off draws nothing from the random stream, so with all
    three off a seed keeps its corpus (``tests/test_corpus.py`` pins two).
    """
    rng = random.Random(seed)
    pool = WORDS + FILLER
    templates = [
        _Template.draw(rng, 4 + (i % 20 if shared_lengths else i), pool)
        for i in range(n_templates)
    ]
    if siblings:
        templates += [template.twin(rng, pool) for template in templates]
    names = [_alpha_word(index, prefix="n") for index in range(name_pool)]

    truth: dict[str, str] = {}
    lines: list[str] = []
    body = n_lines - n_oneoffs
    for index in range(body):
        template = templates[index % len(templates)]
        line = template.render(rng, names)
        lines.append(line)
        tokens = line.split()
        for slot in template.slots:
            tokens[slot] = "<*>"
        truth[line] = " ".join(tokens)

    counter = 0
    for _ in range(n_oneoffs):
        length = rng.randrange(*oneoff_lengths)
        tokens = []
        for _ in range(length):
            tokens.append(_alpha_word(counter))
            counter += 1
        line = " ".join(tokens)
        lines.append(line)
        truth[line] = line
    rng.shuffle(lines)
    return lines, truth


def make_dissimilar_corpus(n_sparse: int) -> list[str]:
    """A single bucket of ``2 * n_sparse`` mutually dissimilar groups.

    With the default anchor budget of half the bucket, exactly ``n_sparse``
    groups come out dense (lone anchors) and ``n_sparse`` come out sparse.
    """
    assert n_sparse >= 2, "needs at least two sparse groups to dodge the bypass"
    words = ("".join(c) for c in itertools.product("abcdefghijklmnopqrstuvwxyz", repeat=3))
    lines = []
    for _ in range(2 * n_sparse):
        lines.append(" ".join(next(words) for _ in range(5)))
    return lines
