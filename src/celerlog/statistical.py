"""Template extraction for dense groups by per-position value analysis."""

from __future__ import annotations

import logging
import re
from functools import lru_cache

from .masking import mask_token
from .model import (
    MASK_TOKENS,
    PLACEHOLDER,
    SOURCE_ROLLBACK,
    SOURCE_STATISTICAL,
    DenseGroup,
    TemplateResult,
)

logger = logging.getLogger(__name__)

_MASK_TOKEN_SET = frozenset(MASK_TOKENS)
_COMPOSITE = re.compile(r"<\*>[:=/]<\*>")

#: Entries kept by the per-template caches. Finalize visits a dense group's
#: messages one after another, so the group's template stays cached while in use.
_TEMPLATE_CACHE_SIZE = 4096


def extract_signatures(group: DenseGroup, contents: list[str]) -> list[tuple[int, str]]:
    """Column-scan a dense group into one (token length, template) per partition.

    ``contents`` is ``group.distinct_contents()``.

    A position becomes a parameter when the group's distinct messages carry
    more than one value there, or when any member key masked it: the router
    already judged those positions variable-shaped, so a lone value does not
    rescue them. Counting distinct messages rather than raw occurrences keeps
    a million repeats of one line from hiding real variance elsewhere.

    Messages are partitioned by raw token count defensively; masking is token
    for token, so more than one partition means something upstream broke.
    """
    partitions: dict[int, list[list[str]]] = {}
    for content in contents:
        tokens = content.split()
        partitions.setdefault(len(tokens), []).append(tokens)
    if len(partitions) > 1:
        logger.warning(
            "dense group with anchor %r spans %d raw token lengths; parsing each separately",
            group.anchor_key,
            len(partitions),
        )

    signatures: list[tuple[int, str]] = []
    for length, token_lists in sorted(partitions.items()):
        masked: set[int] = set()
        for member in group.member_groups:
            if len(member.key_tokens) != length:
                continue
            for position, key_token in enumerate(member.key_tokens):
                if key_token in _MASK_TOKEN_SET:
                    masked.add(position)
        for position in range(length):
            values = {tokens[position] for tokens in token_lists}
            if len(values) > 1:
                masked.add(position)
            elif PLACEHOLDER in next(iter(values)):
                # A literal "<*>" in the raw text must not survive as template text.
                masked.add(position)
        template = " ".join(
            PLACEHOLDER if position in masked else token_lists[0][position]
            for position in range(length)
        )
        signatures.append((length, template))
    return signatures


def materialize_templates(
    contents: list[str], signatures: list[tuple[int, str]]
) -> dict[str, TemplateResult]:
    """Attach per-message parameters to the group's partition templates."""
    by_length = dict(signatures)
    results: dict[str, TemplateResult] = {}
    positions_cache: dict[int, tuple[int, ...]] = {}
    for content in contents:
        tokens = content.split()
        template = by_length[len(tokens)]
        positions = positions_cache.get(len(tokens))
        if positions is None:
            positions = tuple(
                index for index, token in enumerate(template.split()) if token == PLACEHOLDER
            )
            positions_cache[len(tokens)] = positions
        results[content] = TemplateResult(
            template=template,
            parameters=tuple(tokens[index] for index in positions),
            source=SOURCE_STATISTICAL,
        )
    return results


def extract_template(group: DenseGroup) -> dict[str, TemplateResult]:
    """Derive one template per distinct message of a dense group."""
    contents = group.distinct_contents()
    return materialize_templates(contents, extract_signatures(group, contents))


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def post_process(template: str) -> str:
    """Refine a template: mask leftover variable-shaped tokens, collapse runs
    of placeholders, and collapse placeholder composites like ``<*>:<*>``."""
    tokens = []
    for token in template.split():
        if PLACEHOLDER not in token and mask_token(token) != token:
            tokens.append(PLACEHOLDER)
        else:
            tokens.append(token)

    while True:
        collapsed: list[str] = []
        for token in tokens:
            if token == PLACEHOLDER and collapsed and collapsed[-1] == PLACEHOLDER:
                continue
            collapsed.append(token)
        rewritten = [_collapse_composites(token) for token in collapsed]
        if rewritten == tokens:
            break
        tokens = rewritten
    return " ".join(tokens)


def _collapse_composites(token: str) -> str:
    while True:
        replaced = _COMPOSITE.sub(PLACEHOLDER, token)
        if replaced == token:
            return token
        token = replaced


def finalize(result: TemplateResult, tokens: tuple[str, ...]) -> TemplateResult:
    """Post-process a result and re-derive its parameters for the new shape.

    Rollback results are exempt: their whole point is to reproduce the raw
    message untouched.
    """
    if result.source == SOURCE_ROLLBACK:
        return result
    template = post_process(result.template)
    if template == result.template:
        return result
    parameters = derive_parameters(template, tokens)
    if parameters is None:
        logger.warning("could not realign parameters after post-processing %r", template)
        return result
    return TemplateResult(template=template, parameters=parameters, source=result.source)


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _alignment_pattern(template: str) -> re.Pattern:
    parts = [
        "(.+?)" if token == PLACEHOLDER else re.escape(token) for token in template.split()
    ]
    return re.compile(" ".join(parts))


def derive_parameters(template: str, tokens: tuple[str, ...]) -> tuple[str, ...] | None:
    """Extract the parameter strings a template's placeholders cover.

    Placeholders absorb one or more whole tokens; constants must match
    literally. Returns None when the template cannot align with the tokens.
    """
    match = _alignment_pattern(template).fullmatch(" ".join(tokens))
    if match is None:
        return None
    return match.groups()
