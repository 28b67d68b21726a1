"""Template extraction for dense groups by per-position value analysis.

Both producers of templates, ``extract_template`` here and
``llm.validate_and_mask``, mark which token positions of a message are
parameters and hand them to ``collapse``, so every template they return is
final: each run of adjacent parameter positions is one ``<*>``, and no token
that masking would change is left constant.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Sequence

from .masking import MASK_TOKEN_SET
from .model import (
    PLACEHOLDER,
    SOURCE_STATISTICAL,
    DenseGroup,
    InternalInvariantError,
    TemplateResult,
)


def collapse(
    tokens: Sequence[str], variable: Sequence[bool]
) -> tuple[str, list[tuple[int, int]]]:
    """Build a template from tokens and the positions flagged variable.

    Each run of adjacent variable positions becomes one ``<*>``; every other
    token is kept. Returns the template and, per ``<*>``, the token span
    ``(start, end)`` it covers: its parameter is ``" ".join(tokens[start:end])``.
    """
    template: list[str] = []
    spans: list[tuple[int, int]] = []
    for position, token in enumerate(tokens):
        if not variable[position]:
            template.append(token)
        elif spans and spans[-1][1] == position:
            spans[-1] = (spans[-1][0], position + 1)
        else:
            template.append(PLACEHOLDER)
            spans.append((position, position + 1))
    return " ".join(template), spans


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
    - any other key token that holds ``<``, such as ``(<NUM>)`` or a raw
      ``<``, is constant only where every message carries it unchanged, so a
      constant ``(12)`` column, which masks to ``(<NUM>)``, is a parameter;
    - any other key token is the raw token of every message, so it is constant.

    Adjacent parameter positions form one parameter (``collapse``). Each
    distinct message is split once, and its parameters are read by column:
    when every parameter covers one token, one ``operator.itemgetter`` call
    per message reads them all, and a multi-token parameter is the join of
    its span. Masking is token for token and a bucket holds one key length,
    so every message of a group has the same token count; a group that
    breaks this raises ``InternalInvariantError``. The returned dict is in
    no particular order.
    """
    keys = [member.key_tokens for member in group.member_groups]
    first = keys[0]
    length = len(first)
    contents = list(set().union(*[member.members for member in group.member_groups]))
    token_lists = [content.split() for content in contents]
    if any(len(key) != length for key in keys) or any(
        len(tokens) != length for tokens in token_lists
    ):
        raise InternalInvariantError(
            f"dense group with anchor {group.anchor_key!r} mixes raw token lengths"
        )

    variable = [
        token in MASK_TOKEN_SET
        or PLACEHOLDER in token
        or any(key[position] != token for key in keys)
        or ("<" in token and any(tokens[position] != token for tokens in token_lists))
        for position, token in enumerate(first)
    ]
    template, spans = collapse(first, variable)

    if any(end - start > 1 for start, end in spans):
        parameters = [
            tuple([" ".join(tokens[start:end]) for start, end in spans])
            for tokens in token_lists
        ]
    elif len(spans) > 1:
        parameters = map(itemgetter(*[start for start, _ in spans]), token_lists)
    elif spans:
        position = spans[0][0]
        parameters = [(tokens[position],) for tokens in token_lists]
    else:
        parameters = repeat(())
    return {
        content: TemplateResult(template, params, SOURCE_STATISTICAL)
        for content, params in zip(contents, parameters)
    }


def finalize(result: TemplateResult, tokens: tuple[str, ...]) -> TemplateResult:
    """Return ``result`` unchanged: both producers return final templates.

    ``perfbench/tracing.py`` calls it once per message.
    """
    return result
