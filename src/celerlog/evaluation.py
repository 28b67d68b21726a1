"""Effectiveness metrics against ground truth, plus the report writer.

All four metrics treat a clustering as the partition of line ids induced by
template strings, and ``evaluate`` computes them together. Template text
comparisons run on a normalized form where runs of consecutive ``<*>`` tokens
collapse to one, the prevailing convention in this benchmark lineage.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
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

    A UTF-8 byte-order mark at the start of the file is dropped; a file that
    is not valid UTF-8 is a ``ConfigError``.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"file not found: {path}")
    mapping: dict[int, str] = {}
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or "LineId" not in header:
                raise ConfigError(f"{path} has no LineId column")
            if "EventTemplate" not in header:
                raise ConfigError(f"{path} has no EventTemplate column")
            # As in csv.DictReader, a repeated name means its last column; blank lines are skipped.
            columns = {name: index for index, name in enumerate(header)}
            id_column, template_column = columns["LineId"], columns["EventTemplate"]
            for row in reader:
                try:
                    value, template = row[id_column], row[template_column]
                except IndexError:
                    if not row:
                        continue
                    raise ConfigError(
                        f"{path} line {reader.line_num} has no LineId or EventTemplate cell"
                    ) from None
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
        except UnicodeDecodeError as exc:
            # Templates are compared as exact text, so no byte is replaced.
            raise ConfigError(f"{path} is not valid UTF-8: {exc}") from exc
    return mapping


def evaluate(predictions: dict[int, str], ground_truth: dict[int, str]) -> Metrics:
    """Score GA, PA, FGA and FTA in one pass over (predicted, true) template pairs.

    Records are counted per pair of templates, and each cluster's size is the
    sum of its pairs' counts. A predicted cluster equals a true cluster exactly
    when their pair holds all of both, that is when the pair's count equals
    both sizes; such a pair counts for GA and FGA, and for FTA when its
    normalized texts also match. PA counts the records of every pair whose
    normalized texts match.
    """
    if not predictions or not ground_truth:
        raise ConfigError("cannot evaluate an empty record set")
    if predictions.keys() != ground_truth.keys():
        missing = len(ground_truth.keys() - predictions.keys())
        surplus = len(predictions.keys() - ground_truth.keys())
        raise ConfigError(
            f"prediction and ground-truth line ids differ "
            f"({missing} missing, {surplus} surplus); structured.csv numbers "
            f"non-blank records from 0, so ground truth numbered by physical line "
            f"or from 1 will not line up"
        )
    pairs = Counter(zip(predictions.values(), map(ground_truth.__getitem__, predictions)))
    predicted_sizes: Counter[str] = Counter()
    true_sizes: Counter[str] = Counter()
    for (predicted, true), count in pairs.items():
        predicted_sizes[predicted] += count
        true_sizes[true] += count

    grouped = parsed = grouped_clusters = parsed_clusters = 0
    for (predicted, true), count in pairs.items():
        same_text = normalize_template(predicted) == normalize_template(true)
        if same_text:
            parsed += count
        if count == predicted_sizes[predicted] == true_sizes[true]:
            grouped += count
            grouped_clusters += 1
            parsed_clusters += same_text

    f1 = []
    for correct in (grouped_clusters, parsed_clusters):
        precision = correct / len(predicted_sizes)
        recall = correct / len(true_sizes)
        f1.append(0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall))
    return Metrics(
        ga=grouped / len(predictions), pa=parsed / len(predictions), fga=f1[0], fta=f1[1]
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
