"""Template extraction for dense groups by per-position value analysis.

Both producers of templates, ``read_columns`` here and
``llm.validate_and_mask``, mark which token positions of a message are
parameters and hand them to ``collapse``, so every template they return is
final: each run of adjacent parameter positions is one ``<*>``, and no token
that masking would change is left constant.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

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


def _mixed_lengths(anchor: str | None) -> InternalInvariantError:
    return InternalInvariantError(f"dense group with anchor {anchor!r} mixes raw token lengths")


def read_columns(group: DenseGroup) -> tuple[str, Callable, Callable]:
    """Derive a dense group's template, the reader of its messages' results,
    and the reader of their parameters alone, which the first calls.

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

    The messages are split here only for a key token of the second kind.
    Adjacent parameter positions form one parameter (``collapse``). The
    parameter reader takes one message of the group, splits it and reads its
    parameters by column: when every parameter covers one token, one
    ``operator.itemgetter`` call reads them all, and a multi-token parameter
    is the join of its span. Masking is token for token and a bucket holds
    one key length, so every message of a group has its keys' token count;
    a group that breaks this raises ``InternalInvariantError`` here or from
    the readers.
    """
    keys = [member.key_tokens for member in group.member_groups]
    first = keys[0]
    length = len(first)
    anchor = group.anchor_key
    if any(len(key) != length for key in keys):
        raise _mixed_lengths(anchor)

    token_lists: list[list[str]] | None = None
    variable: list[bool] = []
    for position, token in enumerate(first):
        if (
            token in MASK_TOKEN_SET
            or PLACEHOLDER in token
            or any(key[position] != token for key in keys)
        ):
            variable.append(True)
        elif "<" in token:
            if token_lists is None:
                token_lists = [
                    content.split() for member in group.member_groups for content in member.members
                ]
                if any(len(tokens) != length for tokens in token_lists):
                    raise _mixed_lengths(anchor)
            variable.append(any(tokens[position] != token for tokens in token_lists))
        else:
            variable.append(False)
    template, spans = collapse(first, variable)

    if any(end - start > 1 for start, end in spans):

        def columns(tokens: list[str]) -> tuple[str, ...]:
            return tuple([" ".join(tokens[start:end]) for start, end in spans])

    elif len(spans) > 1:
        columns = itemgetter(*[start for start, _ in spans])
    elif spans:
        column = spans[0][0]

        def columns(tokens: list[str]) -> tuple[str, ...]:
            return (tokens[column],)

    else:

        def columns(tokens: list[str]) -> tuple[str, ...]:
            return ()

    def parameters(content: str) -> tuple[str, ...]:
        tokens = content.split()
        if len(tokens) != length:
            raise _mixed_lengths(anchor)
        return columns(tokens)

    def read(content: str) -> TemplateResult:
        return TemplateResult(template, parameters(content), SOURCE_STATISTICAL)

    return template, read, parameters


def extract_template(group: DenseGroup) -> dict[str, TemplateResult]:
    """The result of each distinct message of a dense group (``read_columns``).

    The returned dict is in no particular order.
    """
    _, read, _ = read_columns(group)
    return {content: read(content) for member in group.member_groups for content in member.members}


def finalize(result: TemplateResult, tokens: tuple[str, ...]) -> TemplateResult:
    """Return ``result`` unchanged: both producers return final templates.

    ``perfbench/tracing.py`` calls it once per message.
    """
    return result
