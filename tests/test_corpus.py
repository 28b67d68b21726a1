"""The suite's corpus generator: its options, and the corpora it already made."""

import hashlib
from collections import defaultdict

import pytest

from corpus import make_template_corpus


def _digest(corpus) -> str:
    return hashlib.sha256(repr(corpus).encode()).hexdigest()


@pytest.mark.parametrize(
    "args, kwargs, digest",
    [
        (
            (100_000, 50, 10_000),
            {"seed": 17, "oneoff_lengths": (4, 12)},
            "ec8f3a39113c7924cfbc8c9ddf15c3ba3f091412d2a61952d2281d86aaeada80",
        ),
        ((300, 10, 30), {"seed": 8}, "cac54abbb2b1e4e818174ebba8768cd2e98f22e97c9b36a8334b3b96394931e6"),
    ],
    ids=["reference-100k", "small"],
)
def test_options_off_keep_the_corpus(args, kwargs, digest):
    # Digests of (lines, truth) taken before the options existed.
    assert _digest(make_template_corpus(*args, **kwargs)) == digest


def _templates(truth):
    """The true templates of the template lines, one-offs left out."""
    return {template for line, template in truth.items() if line != template}


def test_shared_lengths():
    _, truth = make_template_corpus(2_000, 40, 0, seed=3, shared_lengths=True)
    by_length = defaultdict(set)
    for template in _templates(truth):
        by_length[len(template.split())].add(template)
    assert sorted(by_length) == list(range(4, 24))
    assert all(len(templates) == 2 for templates in by_length.values())


def test_name_pool():
    lines, truth = make_template_corpus(3_000, 20, 0, seed=4, name_pool=5)
    names, values = set(), 0
    for line in lines:
        for token, true in zip(line.split(), truth[line].split()):
            if true == "<*>":
                values += 1
                if token.isalpha():
                    names.add(token)
    assert len(names) == 5 and all(name.islower() for name in names)
    named = sum(token in names for line in lines for token in line.split())
    assert 0.25 < named / values < 0.35


def test_siblings():
    _, truth = make_template_corpus(2_000, 10, 0, seed=5, siblings=True)
    templates = _templates(truth)
    assert len(templates) == 20
    for template in templates:
        tokens = template.split()
        twins = [
            other
            for other in templates
            if len(other.split()) == len(tokens)
            and sum(a != b for a, b in zip(other.split(), tokens)) == 1
        ]
        assert len(twins) == 1
        differ = [(a, b) for a, b in zip(twins[0].split(), tokens) if a != b]
        assert "<*>" not in differ[0]
