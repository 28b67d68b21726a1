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
    InternalInvariantError,
    TemplateResult,
)

logger = logging.getLogger(__name__)

_MASK_TOKEN_SET = frozenset(MASK_TOKENS)
_COMPOSITE = re.compile(r"<\*>[:=/]<\*>")

#: Entries kept by the per-template caches. Finalize visits a dense group's
#: messages one after another, so the group's template stays cached while in use.
_TEMPLATE_CACHE_SIZE = 4096


def extract_template(group: DenseGroup) -> dict[str, TemplateResult]:
    """Derive one template per distinct message of a dense group.

    A position becomes a parameter when the group's distinct messages carry
    more than one value there, or when any member key masked it: the router
    already judged those positions variable-shaped, so a lone value does not
    rescue them. Counting distinct messages rather than raw occurrences keeps
    a million repeats of one line from hiding real variance elsewhere. A
    literal ``<*>`` in the raw text always becomes a parameter.

    The member keys decide nearly every position without reading the
    messages, because ``mask_token`` returns a token unchanged unless its
    output holds a designated token:

    - a key token that is a designated token, holds ``<*>``, or differs
      between member keys marks a parameter;
    - a key token that only contains a designated token, such as ``(<NUM>)``,
      leaves the raw values to decide;
    - any other key token is the raw token of every message, so it is constant.

    Each distinct message is split once, to read its parameters. Masking is
    token for token and a bucket holds one key length, so every message of a
    group has the same token count; a group that breaks this raises
    ``InternalInvariantError``.
    """
    keys = [member.key_tokens for member in group.member_groups]
    first = keys[0]
    length = len(first)
    contents = group.distinct_contents()
    token_lists = [content.split() for content in contents]
    if any(len(key) != length for key in keys) or any(
        len(tokens) != length for tokens in token_lists
    ):
        raise InternalInvariantError(
            f"dense group with anchor {group.anchor_key!r} mixes raw token lengths"
        )

    template_tokens = list(first)
    positions: list[int] = []
    for position, token in enumerate(first):
        variable = (
            token in _MASK_TOKEN_SET
            or PLACEHOLDER in token
            or any(key[position] != token for key in keys)
        )
        if not variable:
            if "<" not in token:
                continue
            # A designated token inside a longer one, such as "(<NUM>)", or a
            # raw "<": the raw values decide, and a constant keeps its raw text.
            column = {tokens[position] for tokens in token_lists}
            if len(column) == 1:
                template_tokens[position] = column.pop()
                continue
        template_tokens[position] = PLACEHOLDER
        positions.append(position)
    template = " ".join(template_tokens)

    results: dict[str, TemplateResult] = {}
    for content, tokens in zip(contents, token_lists):
        results[content] = TemplateResult(
            template=template,
            parameters=tuple([tokens[position] for position in positions]),
            source=SOURCE_STATISTICAL,
        )
    return results


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def post_process(template: str) -> str:
    """Refine a template: mask leftover variable-shaped tokens, collapse runs
    of placeholders, and collapse placeholder composites like ``<*>:<*>``.

    Composites collapse first, since one can leave a new ``<*>`` next to
    another; collapsing a run never changes a token, so one pass suffices.
    """
    tokens: list[str] = []
    for token in template.split():
        if PLACEHOLDER not in token and mask_token(token) != token:
            token = PLACEHOLDER
        else:
            token = _collapse_composites(token)
        if token != PLACEHOLDER or not tokens or tokens[-1] != PLACEHOLDER:
            tokens.append(token)
    return " ".join(tokens)


def _collapse_composites(token: str) -> str:
    while True:
        replaced = _COMPOSITE.sub(PLACEHOLDER, token)
        if replaced == token:
            return token
        token = replaced


def _rewritten_template(result: TemplateResult) -> str | None:
    """The post-processed template when it differs from the result's, else None.

    Rollback results are exempt: their whole point is to reproduce the raw
    message untouched.
    """
    if result.source == SOURCE_ROLLBACK:
        return None
    template = post_process(result.template)
    return None if template == result.template else template


def finalize(result: TemplateResult, tokens: tuple[str, ...]) -> TemplateResult:
    """Post-process a result and re-derive its parameters for the new shape.

    A result whose realignment fails is kept as it was, with a warning.
    """
    template = _rewritten_template(result)
    if template is None:
        return result
    parameters = derive_parameters(template, tokens)
    if parameters is None:
        logger.warning("could not realign parameters after post-processing %r", template)
        return result
    return TemplateResult(template=template, parameters=parameters, source=result.source)


def finalize_all(by_content: dict[str, TemplateResult]) -> None:
    """Replace each message's result with ``finalize(result, tuple(content.split()))``.

    Whether post-processing rewrites a template is decided once per distinct
    template and source; only the messages whose template it rewrites are
    split and realigned, and every other result is already final. Values are
    replaced in place, which keeps the dict's size, so iterating stays valid.
    """
    rewrites: dict[tuple[str, str], bool] = {}
    for content, result in by_content.items():
        kind = (result.template, result.source)
        rewritten = rewrites.get(kind)
        if rewritten is None:
            rewritten = rewrites[kind] = _rewritten_template(result) is not None
        if rewritten:
            by_content[content] = finalize(result, tuple(content.split()))


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
