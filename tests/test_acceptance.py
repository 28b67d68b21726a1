"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from celerlog import MockBackend, RouterConfig, llm, run
from celerlog.cli import main
from celerlog.evaluation import Metrics, evaluate
from celerlog.llm import PromptEnvelope, TransportError, process_sparse
from celerlog.model import (
    PLACEHOLDER,
    SOURCE_ROLLBACK,
    CostLedger,
    DenseGroup,
    LogRecord,
)
from celerlog.pipeline import _usable_cpus, unescape_parameters
from celerlog.routing import bucket_by_length, group_by_skeleton, merge_bucket, route
from celerlog.statistical import extract_template
from corpus import fig4_lines, fig5_lines, make_dissimilar_corpus, make_template_corpus
from oracles import (
    brute_force_masked_positions,
    expanded_positions,
    maskable_positions,
    naive_fga,
    naive_fta,
    naive_ga,
    naive_pa,
)

#: Output directories produced here; the round-trip criterion sweeps them all.
_PRODUCED_OUTPUTS: list[Path] = []


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.perf_counter() - started:.1f}s)")


def write_lines(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def records_of(lines):
    return [LogRecord(i, line) for i, line in enumerate(lines)]


def check_round_trip(out_dir: Path) -> int:
    """Every structured.csv row must rebuild its Content token sequence."""
    rows = 0
    with open(out_dir / "structured.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            rows += 1
            rebuilt: list[str] = []
            parameters = unescape_parameters(row["Parameters"])
            template_tokens = row["EventTemplate"].split()
            assert len(parameters) == template_tokens.count(PLACEHOLDER)
            values = iter(parameters)
            for token in template_tokens:
                if token == PLACEHOLDER:
                    rebuilt.extend(next(values).split())
                else:
                    rebuilt.append(token)
            assert rebuilt == row["Content"].split(), (
                f"row {row['LineId']} does not round-trip: {row['Content']!r}"
            )
    return rows


@pytest.fixture(scope="module")
def corpus_100k(tmp_path_factory):
    lines, _ = make_template_corpus(
        n_lines=100_000, n_templates=50, n_oneoffs=10_000, seed=17, oneoff_lengths=(4, 12)
    )
    path = tmp_path_factory.mktemp("acceptance-big") / "corpus.log"
    write_lines(path, lines)
    return path


def test_c01_anchor_merge_worked_example():
    with criterion(1, "anchor merge worked example is bit-exact"):
        groups = group_by_skeleton(records_of(fig4_lines()))
        buckets = bucket_by_length(groups)
        assert len(buckets) == 1 and buckets[0].length == 4 and len(buckets[0].groups) == 3
        trace = []
        dense, sparse = merge_bucket(buckets[0], RouterConfig(), trace=trace)
        assert trace[0].tau == 0.60
        assert sorted(trace[0].similarities.values()) == [0.0, 0.6]
        assert len(dense) == 1
        assert {g.key for g in dense[0].member_groups} == {
            "Failed password for <CL>",
            "Failed password for <NUM>",
        }
        assert [s.group.key for s in sparse] == ["session opened remotely today"]


def test_c02_column_scan_worked_example(tmp_path):
    with criterion(2, "column scan worked example is bit-exact"):
        path = write_lines(tmp_path / "snapshot.log", fig5_lines())
        out = tmp_path / "out"
        result = run(path, RouterConfig(jobs=1), MockBackend(), out_dir=out)
        _PRODUCED_OUTPUTS.append(out)
        assert dict(result.catalog) == {"Snapshotting: <*> to <*>": 5}
        expected_parameters = [
            ("0x0", "/data/version-2/snapshot.0"),
            ("0x100001546", "/data/version-2/snapshot.100001546"),
            ("0x200001d42", "/data/version-2/snapshot.200001d42"),
            ("0x300002a10", "/data/version-2/snapshot.300002a10"),
            ("0x400003b77", "/data/version-2/snapshot.400003b77"),
        ]
        for row, parameters in zip(result.rows, expected_parameters):
            assert row.result.template == "Snapshotting: <*> to <*>"
            assert row.result.parameters == parameters
        text = (out / "templates.csv").read_text(encoding="utf-8")
        assert "Snapshotting: <*> to <*>,5" in text


def test_c03_routing_ratio_on_synthetic_corpus():
    with criterion(3, "routing sends >= 95% of templated corpus dense"):
        started = time.perf_counter()
        lines, _ = make_template_corpus(n_lines=10_000, n_templates=50, n_oneoffs=100, seed=7)
        dense, sparse, stats = route(records_of(lines), RouterConfig())
        assert stats.dense_records + stats.sparse_records == 10_000
        assert stats.dense_records / 10_000 >= 0.95
        assert time.perf_counter() - started < 10


def test_c04_statistical_processor_matches_brute_force_oracle():
    with criterion(4, "column scan equals pairwise oracle on 1000 random groups"):
        started = time.perf_counter()
        alphabet = [
            "red", "blue", "lamp", "disk", "node", "691", "84", "0x3f",
            "a/b", "k=1", "OK", "blk7x", "warm",
        ]
        rng = random.Random(20250816)
        for _ in range(1000):
            length = rng.randint(1, 12)
            count = rng.randint(1, 50)
            lines = sorted(
                {" ".join(rng.choice(alphabet) for _ in range(length)) for _ in range(count)}
            )
            group = DenseGroup(member_groups=tuple(group_by_skeleton(records_of(lines))))
            results = extract_template(group)
            got = expanded_positions(results[lines[0]])
            expected = brute_force_masked_positions(
                lines, [m.key_tokens for m in group.member_groups]
            ) | maskable_positions(lines[0].split())
            assert got == expected, f"mismatch on {lines!r}"
        assert time.perf_counter() - started < 30


def test_c05_metrics_match_naive_evaluator():
    with criterion(5, "GA/PA/FGA/FTA equal the naive evaluator on 200 random pairs"):
        started = time.perf_counter()
        words = ["get", "put", "node", "disk", "open", "<*>"]
        rng = random.Random(424242)
        for _ in range(200):
            n_records = rng.randint(1, 200)

            def template():
                return " ".join(rng.choice(words) for _ in range(rng.randint(1, 7)))

            gt_pool = [template() for _ in range(rng.randint(1, 10))]
            gt = {i: rng.choice(gt_pool) for i in range(n_records)}
            pred_pool = gt_pool + [template() for _ in range(3)] + [
                t + " <*>" for t in gt_pool[:2]
            ]
            pred = {
                i: gt[i] if rng.random() < 0.6 else rng.choice(pred_pool)
                for i in range(n_records)
            }
            assert evaluate(pred, gt) == Metrics(
                naive_ga(pred, gt), naive_pa(pred, gt), naive_fga(pred, gt), naive_fta(pred, gt)
            )
        assert time.perf_counter() - started < 30


def test_c06_cost_accounting_is_exact_and_reproducible(tmp_path):
    with criterion(6, "S sparse groups cost exactly S invocations, reproducibly"):
        started = time.perf_counter()
        s = 6
        path = write_lines(tmp_path / "cost.log", make_dissimilar_corpus(s))
        observed = []
        for run_index, jobs in enumerate((1, 8, 1, 8)):
            out = tmp_path / f"out{run_index}"
            result = run(path, RouterConfig(jobs=jobs), MockBackend(), out_dir=out)
            _PRODUCED_OUTPUTS.append(out)
            ledger = result.ledger.to_dict()
            assert result.routing.sparse_groups == s
            assert ledger["llm_invocations"] == s
            observed.append((ledger["llm_invocations"], ledger["tokens_consumed"]))
        assert len(set(observed)) == 1, f"counters drifted across runs: {observed}"
        assert time.perf_counter() - started < 10


class _ProseHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.dumps(
            {
                "choices": [{"message": {"content": "I see no variables worth naming."}}],
                "usage": {"prompt_tokens": 9, "completion_tokens": 9},
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _TimeoutBackend:
    def infer(self, envelope: PromptEnvelope):
        raise TransportError("injected timeout")


class _HallucinatingBackend:
    def infer(self, envelope: PromptEnvelope):
        lines = [f"{i}:\tzzz-not-present" for i in range(1, len(envelope.messages) + 1)]
        text = "\n".join(lines)
        return type("R", (), {"text": text, "prompt_tokens": 7, "completion_tokens": 7})()


class _MalformedBackend:
    def infer(self, envelope: PromptEnvelope):
        return type(
            "R", (), {"text": "cannot comply with that", "prompt_tokens": 5, "completion_tokens": 5}
        )()


def test_c07_rollback_safety_under_faulty_backends(tmp_path, monkeypatch):
    monkeypatch.setattr(llm, "BACKOFF_SECONDS", 0.001)
    with criterion(7, "faulty backends degrade to raw-content rollbacks, exit 0"):
        started = time.perf_counter()
        lines = make_dissimilar_corpus(4)
        path = write_lines(tmp_path / "faulty.log", lines)

        for backend in (_TimeoutBackend(), _HallucinatingBackend(), _MalformedBackend()):
            groups = route(records_of(lines), RouterConfig())[1]
            assert groups, "corpus must produce sparse groups"
            results = process_sparse(groups, backend, RouterConfig(jobs=2), CostLedger())
            for item in groups:
                content = next(iter(item.group.members))
                assert results[content].template == content
                assert results[content].parameters == ()
                assert results[content].source == SOURCE_ROLLBACK

        server = HTTPServer(("127.0.0.1", 0), _ProseHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            out = tmp_path / "out"
            code = main(
                [
                    "parse", "--input", str(path), "--output", str(out),
                    "--backend", "http", "--model", "test",
                    "--endpoint", f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
                ]
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        _PRODUCED_OUTPUTS.append(out)
        with open(out / "structured.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        sparse_rows = [row for row in rows if row["Parameters"] == ""]
        assert len(sparse_rows) >= 4
        for row in sparse_rows:
            assert row["EventTemplate"] == row["Content"]
        assert time.perf_counter() - started < 10


def test_c08_parallel_runs_are_byte_identical_and_faster(corpus_100k, tmp_path):
    with criterion(8, "jobs=1 and jobs=8 agree byte for byte; parallel speedup on >=4 cores"):
        elapsed = {}
        for jobs in (1, 8):
            out = tmp_path / f"out-jobs{jobs}"
            started = time.perf_counter()
            code = main(
                [
                    "parse", "--input", str(corpus_100k), "--output", str(out),
                    "--jobs", str(jobs), "--backend", "mock",
                ]
            )
            elapsed[jobs] = time.perf_counter() - started
            assert code == 0
            _PRODUCED_OUTPUTS.append(out)
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "out-jobs1" / name).read_bytes() == (
                tmp_path / "out-jobs8" / name
            ).read_bytes(), f"{name} differs between jobs=1 and jobs=8"

        cores = _usable_cpus()
        # run() forks its children with os.fork itself, whatever the default
        # start method, wherever os.fork exists.
        fork = hasattr(os, "fork")
        ratio = elapsed[8] / elapsed[1]
        print(
            f"  jobs=1 {elapsed[1]:.2f}s, jobs=8 {elapsed[8]:.2f}s, "
            f"ratio {ratio:.2f} on {cores} usable CPUs"
        )
        if cores >= 4 and fork:
            assert ratio <= 0.75, f"jobs=8 must be at most 0.75x of jobs=1, got {ratio:.2f}"
        else:
            print(f"  timing clause needs >=4 usable CPUs with fork (have {cores}); not measured")


def test_c09_throughput_100k_lines_under_30s(corpus_100k, tmp_path):
    with criterion(9, "100k lines parse end to end in under 30s with the mock backend"):
        out = tmp_path / "out"
        started = time.perf_counter()
        code = main(
            ["parse", "--input", str(corpus_100k), "--output", str(out), "--backend", "mock"]
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        _PRODUCED_OUTPUTS.append(out)
        assert elapsed < 30, f"100k-line parse took {elapsed:.1f}s"
        with open(out / "run.json", encoding="utf-8") as handle:
            info = json.load(handle)
        assert info["ingest"]["record_count"] == 100_000


def test_c10_round_trip_on_every_produced_output():
    with criterion(10, "every structured.csv row rebuilds its content tokens"):
        assert _PRODUCED_OUTPUTS, "earlier criteria must have produced outputs"
        total = 0
        for out_dir in _PRODUCED_OUTPUTS:
            rows = check_round_trip(out_dir)
            with open(out_dir / "run.json", encoding="utf-8") as handle:
                info = json.load(handle)
            assert rows == info["ingest"]["record_count"]
            with open(out_dir / "templates.csv", newline="", encoding="utf-8") as handle:
                occurrences = sum(int(row["Occurrences"]) for row in csv.DictReader(handle))
            assert occurrences == rows
            total += rows
        print(f"  verified {total} rows across {len(_PRODUCED_OUTPUTS)} runs")
