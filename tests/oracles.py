"""Independent brute-force oracles the fast implementations are checked against.

Everything here favours obviousness over speed: pairwise scans, per-record
set rebuilds, no shared helpers with the package under test. The reference
merge borrows only the package's data types and its verb extractor, and the
reference post-process only its token masker.

``naive_extract_template`` and ``naive_validate_and_mask`` build the templates
that the producers built before post-processing was folded into them; a run
writes ``naive_post_process`` of those templates.

``naive_run`` chains the oracles into a whole run. Besides their borrowings
it takes only the package's ``ingest`` and, for the sparse groups, its
``process_sparse``.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter

from celerlog.llm import process_sparse
from celerlog.masking import extract_verbs, mask_token
from celerlog.model import (
    CostLedger,
    DenseGroup,
    InternalInvariantError,
    LogBucket,
    RouterConfig,
    SkeletonGroup,
    SparseGroup,
    TemplateResult,
)
from celerlog.pipeline import ParsedRecord, ingest
from celerlog.routing import MergeState

MASK_TOKENS = ("<NUM>", "<CL>", "<UCL>", "<BL>", "<SL>")


def brute_force_masked_positions(
    distinct_messages: list[str],
    key_token_lists: list[tuple[str, ...]],
) -> set[int]:
    """Parameter positions found by comparing every message pair column by column."""
    token_lists = [message.split() for message in distinct_messages]
    length = len(token_lists[0])
    masked: set[int] = set()
    for i in range(len(token_lists)):
        for j in range(i + 1, len(token_lists)):
            for position in range(length):
                if token_lists[i][position] != token_lists[j][position]:
                    masked.add(position)
    for key_tokens in key_token_lists:
        for position, token in enumerate(key_tokens):
            if token in MASK_TOKENS:
                masked.add(position)
    for tokens in token_lists:
        for position, token in enumerate(tokens):
            if "<*>" in token:
                masked.add(position)
    return masked


def naive_extract_template(group: DenseGroup) -> dict[str, TemplateResult]:
    """Column-scan template extraction over every distinct message's tokens.

    A position is a parameter when any member key holds a designated token
    there, when the messages carry more than one value there, or when the
    value holds a literal ``<*>``.
    """
    contents = sorted({content for member in group.member_groups for content in member.members})
    token_lists = [content.split() for content in contents]
    length = len(token_lists[0])
    if any(len(tokens) != length for tokens in token_lists):
        raise InternalInvariantError(
            f"dense group with anchor {group.anchor_key!r} mixes raw token lengths"
        )
    masked: set[int] = set()
    for member in group.member_groups:
        for position, key_token in enumerate(member.key_tokens):
            if key_token in MASK_TOKENS:
                masked.add(position)
    for position, column in enumerate(zip(*token_lists)):
        if "<*>" in column[0] or len(set(column)) > 1:
            masked.add(position)
    template = " ".join(
        "<*>" if position in masked else token_lists[0][position] for position in range(length)
    )
    positions = sorted(masked)
    return {
        content: TemplateResult(
            template=template,
            parameters=tuple(tokens[position] for position in positions),
            source="statistical",
        )
        for content, tokens in zip(contents, token_lists)
    }


def naive_validate_and_mask(content: str, variables) -> TemplateResult:
    """Mask every token that a listed variable found in the message touches.

    Longer variables claim their occurrences first, left to right without
    overlaps; each token touched, or holding ``<*>``, becomes its own
    ``<*>``. No variable found, or no such token, is a rollback to the raw
    message.
    """
    rollback = TemplateResult(template=content, parameters=(), source="rollback")
    survivors = [variable for variable in variables if variable and variable in content]
    if not survivors:
        return rollback
    covered = [False] * len(content)
    for variable in sorted(set(survivors), key=lambda v: (-len(v), survivors.index(v))):
        start = 0
        while True:
            position = content.find(variable, start)
            if position == -1:
                break
            end = position + len(variable)
            if any(covered[position:end]):
                start = position + 1
                continue
            covered[position:end] = [True] * (end - position)
            start = end
    template_tokens: list[str] = []
    parameters: list[str] = []
    for match in re.finditer(r"\S+", content):
        token = match.group(0)
        if any(covered[match.start() : match.end()]) or "<*>" in token:
            template_tokens.append("<*>")
            parameters.append(token)
        else:
            template_tokens.append(token)
    if not parameters:
        return rollback
    return TemplateResult(
        template=" ".join(template_tokens), parameters=tuple(parameters), source="llm"
    )


def expanded_positions(result: TemplateResult) -> set[int]:
    """The token positions a result's parameters cover, found by expanding
    each ``<*>`` of the template to its parameter's token count."""
    positions: set[int] = set()
    parameters = iter(result.parameters)
    index = 0
    for token in result.template.split():
        width = len(next(parameters).split()) if token == "<*>" else 1
        if token == "<*>":
            positions.update(range(index, index + width))
        index += width
    return positions


def maskable_positions(tokens) -> set[int]:
    """Positions of the tokens that ``mask_token`` changes."""
    return {position for position, token in enumerate(tokens) if mask_token(token) != token}


def naive_csv_line(fields) -> str:
    """The line a fresh ``csv.writer`` with its default ``lineterminator="\\r\\n"``
    writes for ``fields``, that terminator cut to ``\\n``. Python 3.10-3.12
    quote a field holding ``\\r`` only when the terminator holds one, so this
    is the line Python 3.13 writes, on every version."""
    buffer = io.StringIO(newline="")
    csv.writer(buffer).writerow(fields)
    return buffer.getvalue().removesuffix("\r\n") + "\n"


def naive_write_structured(rows) -> bytes:
    """structured.csv as bytes, one ``naive_csv_line`` per row."""
    lines = [naive_csv_line(["LineId", "Content", "EventTemplate", "Parameters"])]
    for row in rows:
        escaped = [
            parameter.replace("\\", "\\\\").replace("|", "\\|")
            for parameter in row.result.parameters
        ]
        lines.append(
            naive_csv_line([row.line_id, row.content, row.result.template, "|".join(escaped)])
        )
    return "".join(lines).encode("utf-8")


def naive_post_process(template: str) -> str:
    """Mask leftover variable-shaped tokens, then collapse composites such as
    ``<*>:<*>`` and runs of ``<*>`` alternately until neither changes.

    Only ``mask_token`` is borrowed from the package.
    """
    tokens = []
    for token in template.split():
        if "<*>" not in token and mask_token(token) != token:
            tokens.append("<*>")
        else:
            tokens.append(token)
    while True:
        collapsed: list[str] = []
        for token in tokens:
            if token == "<*>" and collapsed and collapsed[-1] == "<*>":
                continue
            collapsed.append(token)
        rewritten = []
        for token in collapsed:
            while True:
                replaced = re.sub(r"<\*>[:=/]<\*>", "<*>", token)
                if replaced == token:
                    break
                token = replaced
            rewritten.append(token)
        if rewritten == tokens:
            return " ".join(tokens)
        tokens = rewritten


def naive_normalize(template: str) -> str:
    # Tokens are separated by any run of whitespace: tabs and repeated
    # spaces in a ground-truth template compare as one space.
    tokens = template.split()
    kept: list[str] = []
    index = 0
    while index < len(tokens):
        kept.append(tokens[index])
        if tokens[index] == "<*>":
            while index + 1 < len(tokens) and tokens[index + 1] == "<*>":
                index += 1
        index += 1
    return " ".join(kept)


def naive_ga(pred: dict[int, str], gt: dict[int, str]) -> float:
    ids = sorted(pred)
    correct = 0
    for line_id in ids:
        pred_cluster = {other for other in ids if pred[other] == pred[line_id]}
        gt_cluster = {other for other in ids if gt[other] == gt[line_id]}
        if pred_cluster == gt_cluster:
            correct += 1
    return correct / len(ids)


def naive_pa(pred: dict[int, str], gt: dict[int, str]) -> float:
    ids = sorted(pred)
    correct = 0
    for line_id in ids:
        if naive_normalize(pred[line_id]) == naive_normalize(gt[line_id]):
            correct += 1
    return correct / len(ids)


def _naive_template_matches(pred: dict[int, str], gt: dict[int, str], with_text: bool) -> float:
    pred_templates = sorted(set(pred.values()))
    gt_templates = sorted(set(gt.values()))
    correct = 0
    for template in pred_templates:
        pred_cluster = {line_id for line_id in pred if pred[line_id] == template}
        for gt_template in gt_templates:
            gt_cluster = {line_id for line_id in gt if gt[line_id] == gt_template}
            if pred_cluster != gt_cluster:
                continue
            if with_text and naive_normalize(template) != naive_normalize(gt_template):
                continue
            correct += 1
            break
    precision = correct / len(pred_templates)
    recall = correct / len(gt_templates)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def naive_fga(pred: dict[int, str], gt: dict[int, str]) -> float:
    return _naive_template_matches(pred, gt, with_text=False)


def naive_fta(pred: dict[int, str], gt: dict[int, str]) -> float:
    return _naive_template_matches(pred, gt, with_text=True)


#: The five masking rules of the paper, written out apart from the package's
#: copy so that a change to either shows up in the differential test.
NAIVE_MASK_RULES = (
    ("NUM", re.compile(r"[+-]?(?:0[xX][0-9A-Fa-f]+|\d+\.?\d*|\.\d+)")),
    ("CL", re.compile(r"(?=(?:[^A-Za-z0-9]*[A-Za-z0-9]){2})(?=.*[/\\=:.\-_]).+")),
    ("UCL", re.compile(r"(?=.*[A-Za-z])(?=.*[0-9]).+")),
    ("BL", re.compile(r"[A-Z]{2,5}")),
    ("SL", re.compile(r"[/\\=:.\-_]*[A-Za-z][/\\=:.\-_]*")),
)


def naive_mask_token(token: str) -> str:
    """Mask one token by ``NAIVE_MASK_RULES``, peeling brackets one character at a time.

    The scan for designated tokens, the peeling and the first-match rule loop
    are written out here.
    """
    if any(mask in token for mask in MASK_TOKENS + ("<*>",)):
        return token
    start, end = 0, len(token)
    while start < end and token[start] in "([<":
        start += 1
    while end > start and token[end - 1] in ")]>,:;.!?":
        end -= 1
    prefix, core, suffix = token[:start], token[start:end], token[end:]
    if not core:
        return token
    for name, pattern in NAIVE_MASK_RULES:
        if pattern.fullmatch(core) is None:
            continue
        if name == "SL" and len(core) == 1 and not (prefix or suffix):
            continue
        return f"{prefix}<{name}>{suffix}"
    return token


def pos_jaccard(a, b) -> float:
    """Jaccard similarity over (position, token) pairs of two equal-length keys.

    With ``m`` matching positions out of ``L`` this equals ``m / (2L - m)``,
    so tokens appearing at different indices never count as shared.
    """
    if len(a) != len(b):
        raise InternalInvariantError(
            f"position-aware Jaccard needs equal lengths, got {len(a)} and {len(b)}"
        )
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / (2 * len(a) - matches)


def singleton_ratio(similarities: list[float], tau: float) -> float:
    """Fraction of candidate scores that fall below the threshold."""
    if not similarities:
        return 0.0
    return sum(1 for score in similarities if score < tau) / len(similarities)


def naive_select_threshold(similarities: list[float], config: RouterConfig) -> float:
    """The threshold sweep from 0.50 to 0.95 in steps of 0.01, recounting the
    singleton ratio at every grid point.

    The grid is written out here rather than read from ``routing``, so a
    changed routing constant fails the differential tests.
    """
    tau_min, tau_max, tau_step = 0.5, 0.95, 0.01
    steps = int(math.floor((tau_max - tau_min) / tau_step + 1e-9))
    for i in range(steps + 1):
        tau = round(tau_min + i * tau_step, 12)
        if singleton_ratio(similarities, tau) >= config.p_quantile:
            return max(round(tau - tau_step, 12), tau_min)
    return tau_max


def naive_merge_bucket(bucket: LogBucket, config: RouterConfig):
    """Anchor merging that scores every candidate against every anchor.

    Returns the dense groups, the sparse groups and one ``MergeState`` per
    anchor round, as ``routing.merge_bucket`` with a trace list does. A bucket
    of keys of at most 3 tokens, or of at most 2 groups, is not merged.
    """
    if bucket.length <= 3 or len(bucket.groups) <= 2:
        return [DenseGroup(member_groups=(group,)) for group in bucket.groups], [], []
    remaining = sorted(bucket.groups, key=lambda g: (-g.unique_count, g.key))
    k_limit = max(1, int(config.alpha * len(remaining) + 1e-9))
    dense = []
    states = []
    while remaining and len(dense) < k_limit:
        anchor = remaining[0]
        candidates = remaining[1:]
        similarities = {
            candidate.key: pos_jaccard(anchor.key_tokens, candidate.key_tokens)
            for candidate in candidates
        }
        if candidates:
            tau = naive_select_threshold(list(similarities.values()), config)
        else:
            tau = 0.95
        matched = [anchor]
        for candidate in candidates:
            if similarities[candidate.key] >= tau and extract_verbs(anchor.key) <= extract_verbs(
                candidate.key
            ):
                matched.append(candidate)
        dense.append(DenseGroup(member_groups=tuple(matched), anchor_key=anchor.key))
        states.append(MergeState(anchor.key, similarities, tau, k_limit))
        remaining = [group for group in remaining if group not in matched]
    return dense, [SparseGroup(group=group) for group in remaining], states


def naive_joined(content: str, template: str) -> TemplateResult:
    """A dense message's result from its ``naive_extract_template`` template,
    which holds one ``<*>`` per parameter position: a position is a parameter
    where the template holds ``<*>`` or a token that ``naive_mask_token``
    changes, and each run of adjacent parameter positions is one parameter,
    the message's tokens there joined by spaces."""
    template_tokens: list[str] = []
    parameters: list[str] = []
    previous = False
    for token, constant in zip(content.split(), template.split()):
        variable = constant == "<*>" or naive_mask_token(constant) != constant
        if variable and previous:
            parameters[-1] += " " + token
        elif variable:
            template_tokens.append("<*>")
            parameters.append(token)
        else:
            template_tokens.append(constant)
        previous = variable
    return TemplateResult(" ".join(template_tokens), tuple(parameters), "statistical")


def naive_run(path, config: RouterConfig, backend) -> tuple[bytes, Counter]:
    """structured.csv's bytes and the template catalog of a whole run: ``ingest``,
    the skeleton of ``naive_mask_token`` per token, grouping in a dict,
    ``naive_merge_bucket`` per length bucket, ``naive_joined`` of
    ``naive_extract_template`` per dense group, ``process_sparse`` for the
    sparse groups and ``naive_write_structured``."""
    records, _ = ingest(path)
    keys = {
        content: " ".join(naive_mask_token(token) for token in content.split())
        for content in {content for _, content in records}
    }
    groups: dict[str, tuple[set[str], list[int]]] = {}
    for line_id, content in records:
        members, line_ids = groups.setdefault(keys[content], (set(), []))
        members.add(content)
        line_ids.append(line_id)
    buckets: dict[int, list[SkeletonGroup]] = {}
    for key, (members, line_ids) in groups.items():
        tokens = tuple(key.split())
        group = SkeletonGroup(key, tokens, frozenset(members), tuple(line_ids))
        buckets.setdefault(len(tokens), []).append(group)
    results: dict[str, TemplateResult] = {}
    sparse: list[SparseGroup] = []
    for length, bucket in buckets.items():
        dense, leftover, _ = naive_merge_bucket(LogBucket(length, tuple(bucket)), config)
        sparse.extend(leftover)
        for group in dense:
            for content, result in naive_extract_template(group).items():
                results[content] = naive_joined(content, result.template)
    results.update(process_sparse(sparse, backend, config, CostLedger()))
    rows = [ParsedRecord(line_id, content, results[content]) for line_id, content in records]
    return naive_write_structured(rows), Counter(row.result.template for row in rows)
