"""Effectiveness metrics against ground truth, plus the report writer.

All four metrics treat a clustering as the partition of line ids induced by
template strings. Template text comparisons run on a normalized form where
runs of consecutive ``<*>`` tokens collapse to one, the prevailing convention
in this benchmark lineage.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import NamedTuple

from .model import PLACEHOLDER, ConfigError


class Metrics(NamedTuple):
    ga: float
    pa: float
    fga: float
    fta: float

    def to_dict(self) -> dict:
        return {"GA": self.ga, "PA": self.pa, "FGA": self.fga, "FTA": self.fta}


def normalize_template(template: str) -> str:
    """Collapse runs of placeholder tokens; whitespace becomes single spaces."""
    out: list[str] = []
    for token in template.split():
        if token == PLACEHOLDER and out and out[-1] == PLACEHOLDER:
            continue
        out.append(token)
    return " ".join(out)


def load_template_csv(path: str | Path) -> dict[int, str]:
    """Read a ``LineId``/``EventTemplate`` CSV into a line_id -> template mapping.

    A UTF-8 byte-order mark at the start of the file is dropped.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"file not found: {path}")
    mapping: dict[int, str] = {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or "LineId" not in reader.fieldnames:
                raise ConfigError(f"{path} has no LineId column")
            if "EventTemplate" not in reader.fieldnames:
                raise ConfigError(f"{path} has no EventTemplate column")
            for row in reader:
                # DictReader fills the cells a short row lacks with None.
                value, template = row["LineId"], row["EventTemplate"]
                if value is None or template is None:
                    raise ConfigError(
                        f"{path} line {reader.line_num} has no LineId or EventTemplate cell"
                    )
                try:
                    line_id = int(value)
                except ValueError:
                    raise ConfigError(
                        f"{path} line {reader.line_num} has a LineId that is not an "
                        f"integer: {value!r}"
                    ) from None
                if line_id in mapping:
                    raise ConfigError(f"{path} lists line id {line_id} more than once")
                mapping[line_id] = template
        except csv.Error as exc:
            # Raised, among others, for a field over csv.field_size_limit().
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    return mapping


def _check_universe(predictions: dict[int, str], ground_truth: dict[int, str]) -> None:
    if not predictions or not ground_truth:
        raise ConfigError("cannot evaluate an empty record set")
    if set(predictions) != set(ground_truth):
        missing = len(set(ground_truth) - set(predictions))
        surplus = len(set(predictions) - set(ground_truth))
        raise ConfigError(
            f"prediction and ground-truth line ids differ "
            f"({missing} missing, {surplus} surplus); structured.csv numbers "
            f"non-blank records from 0, so ground truth numbered by physical line "
            f"or from 1 will not line up"
        )


def _clusters(mapping: dict[int, str]) -> dict[str, frozenset[int]]:
    grouped: dict[str, set[int]] = {}
    for line_id, template in mapping.items():
        grouped.setdefault(template, set()).add(line_id)
    return {template: frozenset(ids) for template, ids in grouped.items()}


def grouping_accuracy(predictions: dict[int, str], ground_truth: dict[int, str]) -> float:
    """Fraction of records whose predicted cluster equals their true cluster."""
    _check_universe(predictions, ground_truth)
    gt_clusters = _clusters(ground_truth)
    gt_of_id = {line_id: gt_clusters[template] for line_id, template in ground_truth.items()}
    correct = 0
    for ids in _clusters(predictions).values():
        if ids == gt_of_id[next(iter(ids))]:
            correct += len(ids)
    return correct / len(predictions)


def parsing_accuracy(predictions: dict[int, str], ground_truth: dict[int, str]) -> float:
    """Fraction of records whose normalized template matches the truth."""
    _check_universe(predictions, ground_truth)
    correct = sum(
        1
        for line_id, template in predictions.items()
        if normalize_template(template) == normalize_template(ground_truth[line_id])
    )
    return correct / len(predictions)


def _template_f1(
    predictions: dict[int, str],
    ground_truth: dict[int, str],
    require_text: bool,
) -> float:
    _check_universe(predictions, ground_truth)
    gt_clusters = _clusters(ground_truth)
    gt_of_id = {line_id: gt_clusters[template] for line_id, template in ground_truth.items()}
    gt_template_of_id = ground_truth

    correct = 0
    pred_clusters = _clusters(predictions)
    for template, ids in pred_clusters.items():
        first = next(iter(ids))
        if ids != gt_of_id[first]:
            continue
        if require_text and normalize_template(template) != normalize_template(
            gt_template_of_id[first]
        ):
            continue
        correct += 1
    precision = correct / len(pred_clusters)
    recall = correct / len(gt_clusters)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def f1_grouping_accuracy(predictions: dict[int, str], ground_truth: dict[int, str]) -> float:
    """Template-level F1 of cluster correctness."""
    return _template_f1(predictions, ground_truth, require_text=False)


def f1_template_accuracy(predictions: dict[int, str], ground_truth: dict[int, str]) -> float:
    """Template-level F1 requiring both cluster and text to match."""
    return _template_f1(predictions, ground_truth, require_text=True)


def evaluate(predictions: dict[int, str], ground_truth: dict[int, str]) -> Metrics:
    return Metrics(
        ga=grouping_accuracy(predictions, ground_truth),
        pa=parsing_accuracy(predictions, ground_truth),
        fga=f1_grouping_accuracy(predictions, ground_truth),
        fta=f1_template_accuracy(predictions, ground_truth),
    )


def report(
    metrics: Metrics,
    out_path: str | Path,
    ledger: dict | None = None,
    routing: dict | None = None,
) -> dict:
    """Write the JSON report and print an aligned summary table."""
    payload = {"metrics": metrics.to_dict(), "ledger": ledger, "routing": routing}
    out_path = Path(out_path)
    try:
        if out_path.parent != Path(""):
            out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {out_path}: {exc}") from exc

    lines = [("metric", "value")]
    for name, value in metrics.to_dict().items():
        lines.append((name, f"{value:.4f}"))
    if ledger:
        for name in ("wall_time_seconds", "tokens_consumed", "llm_invocations"):
            if name in ledger:
                value = ledger[name]
                lines.append((name, f"{value:.3f}" if isinstance(value, float) else str(value)))
    width = max(len(name) for name, _ in lines)
    for name, value in lines:
        print(f"{name:<{width}}  {value}")
    return payload
