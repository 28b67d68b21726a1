import csv
import gc
import io
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path

import pytest
from hypothesis import Phase, example, find, given, settings
from hypothesis import strategies as st

import celerlog
from celerlog import llm, pipeline, statistical
from celerlog.llm import BackendResponse, MockBackend
from celerlog.masking import mask_message
from celerlog.model import (
    SOURCE_LLM,
    SOURCE_ROLLBACK,
    SOURCE_STATISTICAL,
    ConfigError,
    CostLedger,
    DenseGroup,
    InternalInvariantError,
    LogRecord,
    RouterConfig,
    SkeletonGroup,
)
from celerlog.routing import RoutingStats, route
from celerlog.pipeline import (
    ParsedRecord,
    escape_parameters,
    ingest,
    run,
    unescape_parameters,
    write_output,
)
from celerlog.model import TemplateResult
from collections import Counter
from corpus import fig5_lines, make_template_corpus
from oracles import naive_write_structured


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def pool_from_2500(monkeypatch):
    """Lets run() take the masking pool for the 2,500-record test corpora,
    which lie below the measured threshold."""
    monkeypatch.setattr(pipeline, "_PARALLEL_THRESHOLD", 2500)


def stringio_csv_ingest(path):
    """CSV ingest as ``csv.reader`` over a StringIO of the decoded text reads it:
    (contents, blank rows, decode errors), or None when the reader refuses it."""
    data = path.read_bytes()
    text = data.decode("utf-8-sig", errors="replace")
    decode_errors = text.count("\ufffd") - data.count("\ufffd".encode())
    contents, blank = [], 0
    try:
        rows = csv.reader(io.StringIO(text))
        column = next(rows).index("Content")
        for row in rows:
            content = row[column] if column < len(row) else ""
            if content.strip():
                contents.append(content)
            else:
                blank += 1
    except csv.Error:
        return None
    return contents, blank, decode_errors


class TestIngest:
    def test_raw_lines(self, tmp_path):
        path = write_lines(tmp_path / "in.log", ["a b", "c d", "e f"])
        records, stats = ingest(path)
        assert [r.line_id for r in records] == [0, 1, 2]
        assert stats.record_count == 3 and stats.blank_lines == 0

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = write_lines(tmp_path / "in.log", ["a b", "", "  ", "c d"])
        records, stats = ingest(path)
        assert [r.content for r in records] == ["a b", "c d"]
        assert stats.blank_lines == 2

    def test_csv_content_column(self, tmp_path):
        path = tmp_path / "in.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["LineId", "Content"])
            for i in range(5):
                writer.writerow([i, f"event {i} done"])
        records, stats = ingest(path, input_format="csv")
        assert stats.record_count == 5
        assert records[3].content == "event 3 done"

    def test_csv_counts_one_blank_per_row(self, tmp_path):
        # A whitespace-only line and an empty line are one blank row each; the
        # empty lines inside a quoted field belong to that field's record.
        path = tmp_path / "in.csv"
        path.write_text(
            'LineId,Content\n0,event one\n   \n1,event two\n\n2,"event\n\nthree"\n',
            encoding="utf-8",
        )
        records, stats = ingest(path, input_format="csv")
        assert [r.content for r in records] == ["event one", "event two", "event\n\nthree"]
        assert stats.blank_lines == 2

    def test_csv_missing_content_column_fatal(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("LineId,Message\n1,hello\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            ingest(path, input_format="csv")

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ConfigError):
            ingest(tmp_path / "absent.log")

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # Only the mark that opens the file goes; one inside a line is content.
        path = tmp_path / "in.log"
        path.write_bytes(b"\xef\xbb\xbfalpha 1 ready\nalpha \xef\xbb\xbf2 ready\n")
        records, stats = ingest(path)
        assert [r.content for r in records] == ["alpha 1 ready", "alpha \ufeff2 ready"]
        assert stats.decode_errors == 0

    def test_invalid_bytes_replaced_and_counted(self, tmp_path):
        path = tmp_path / "in.log"
        path.write_bytes(b"ok line\nbad \xff\xfe line\n")
        records, stats = ingest(path)
        assert stats.record_count == 2
        assert stats.decode_errors == 2

    def test_replacement_character_in_file_is_not_a_decode_error(self, tmp_path):
        path = tmp_path / "in.log"
        path.write_bytes(b"valid \xef\xbf\xbd char\nbad \xff byte\n")
        records, stats = ingest(path)
        assert [r.content for r in records] == ["valid \ufffd char", "bad \ufffd byte"]
        assert stats.decode_errors == 1

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_one_record_per_newline_terminated_line(self, tmp_path, separator):
        path = tmp_path / "in.log"
        path.write_bytes(f"a b{separator}c d\r\nx y z\nlast line\n".encode("utf-8"))
        records, stats = ingest(path)
        assert [r.content for r in records] == [f"a b{separator}c d", "x y z", "last line"]
        assert stats.blank_lines == 0

    def test_header_pattern_applied_to_raw(self, tmp_path):
        path = write_lines(tmp_path / "in.log", ["INFO worker ready", "WARN worker busy"])
        records, _ = ingest(path, header_pattern=r"^\w+ (?P<content>.*)$")
        assert [r.content for r in records] == ["worker ready", "worker busy"]

    def test_raw_ingest_peak_stays_below_three_file_sizes(self, tmp_path):
        # About 200 bytes a line, as in the benchmark corpora. Holding the
        # bytes, the decoded text and the lines at once peaks at about 3.7
        # times the file size; releasing the bytes and the text, at about 2.3.
        lines = [
            f"worker {index} sent {index * 7} bytes to 10.0.{index % 256}.1 "
            + " ".join(["through the replica channel of shard queue"] * 4)
            for index in range(5000)
        ]
        path = write_lines(tmp_path / "in.log", lines)
        tracemalloc.start()
        try:
            records, _ = ingest(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(lines)
        assert peak < 3.0 * path.stat().st_size

    @pytest.mark.parametrize(
        "data",
        [
            b'LineId,Content\n0,"event\none"\n1,"two\r\nlines"\n2,"x\n\n"\n',
            b"LineId,Content\r\n0,event one\r\n1,event two\r\n",
            "LineId,Content\n0,a\u2028b\n1,\"x\u2028y\"\n2,c\u2029d\x85e\n".encode(),
            b"LineId,Content\n0,a\n\n   \n1,\n2\n3,\t\n",
            b"LineId,Content\n0,bad \xff byte\n1,ok \xef\xbf\xbd\n",
            b"LineId,Content\n0,no final newline",
            b"\xef\xbb\xbfLineId,Content\n0,marked\n",
            b"LineId,Content\r0,a\r1,b\r",
            b"LineId,Content\n0,a\rb\n",
            b"LineId,Content\n\n",
        ],
        ids=["quoted-line-breaks", "crlf", "line-separators", "blank-rows", "decode-errors",
             "no-final-newline", "byte-order-mark", "lone-cr-rows", "cr-in-field", "header-only"],
    )
    def test_csv_reads_as_a_stringio_of_the_text(self, tmp_path, data):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        expected = stringio_csv_ingest(path)
        if expected is None:
            with pytest.raises(ConfigError):
                ingest(path, input_format="csv")
            return
        records, stats = ingest(path, input_format="csv")
        assert ([r.content for r in records], stats.blank_lines, stats.decode_errors) == expected
        assert [r.line_id for r in records] == list(range(len(records)))

    def test_csv_ingest_peak_stays_below_three_file_sizes(self, tmp_path):
        # The lines of the raw test as a CSV. A StringIO of the text, kept
        # beside the text at 4 bytes a character, peaked at about 6.7 times
        # the file size; lines freed as the reader takes them, at about 2.3.
        path = tmp_path / "in.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["LineId", "Content"])
            for index in range(5000):
                writer.writerow([
                    index,
                    f"worker {index} sent {index * 7} bytes to 10.0.{index % 256}.1 "
                    + " ".join(["through the replica channel of shard queue"] * 4),
                ])
        tracemalloc.start()
        try:
            records, _ = ingest(path, input_format="csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 5000
        assert peak < 3.0 * path.stat().st_size


class TestRunMemory:
    def test_dense_run_peak_stays_below_four_file_sizes(self, tmp_path):
        # Shaped like the benchmark's dense-40k corpus at an eighth of its
        # size. Keeping a result per distinct message, a lookup dict and a
        # list of rows peaked at 4.8-5.2 times the file size on Python
        # 3.10-3.13; a reader per group and rows built while they are
        # written, at 3.1-3.4, most of it the records and routing.
        lines, _ = make_template_corpus(
            n_lines=5000, n_templates=50, n_oneoffs=25, seed=1, oneoff_lengths=(4, 54)
        )
        path = write_lines(tmp_path / "in.log", lines)
        tracemalloc.start()
        try:
            result = run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.rows) == len(lines)
        assert result.routing.sparse_records < len(lines) // 100
        assert peak < 4.0 * path.stat().st_size


def _fail_marked_record(release, content):
    """Fail the marker record at once; hold every other one until released."""
    if content == "marker record":
        raise ValueError("marked record failed")
    deadline = time.monotonic() + 3.0
    while not release.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return content


def _skeleton_collector_off(content):
    """``pipeline._skeleton``, for a worker that must mask with the collector off."""
    if gc.isenabled():
        raise RuntimeError("masking worker has the cyclic collector on")
    return mask_message(content)[0]


class _CountedContent(str):
    """A record content that counts, in the process that pickles it, each time
    it is pickled."""

    pickled: list[str] = []

    def __reduce_ex__(self, protocol):
        self.pickled.append(str(self))
        return str, (str(self),)


class TestPoolWorkers:
    @needs_fork
    @pytest.mark.parametrize(
        "count, jobs, cpus, fork, workers",
        [
            (pipeline._PARALLEL_THRESHOLD - 1, 8, {0, 1}, True, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0}, True, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0, 1}, False, 1),
            (pipeline._PARALLEL_THRESHOLD, 1, {0, 1}, True, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0, 1}, True, 2),
        ],
        ids=["below-threshold", "one-cpu", "no-fork", "one-job", "capped-at-cpus"],
    )
    def test_width(self, monkeypatch, count, jobs, cpus, fork, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        if not fork:
            monkeypatch.delattr(os, "fork")
        assert pipeline._pool_workers(count, jobs) == workers


class TestMaskOnPool:
    @needs_fork
    @pytest.mark.parametrize("count", [1, 7, 9, 2501])
    def test_skeletons_match_serial_masking(self, count):
        # Eight ranges, four per worker, divide none of these counts evenly.
        lines, _ = make_template_corpus(n_lines=2501, n_templates=15, n_oneoffs=50, seed=21)
        records = [LogRecord(index, line) for index, line in enumerate(lines[:count])]
        assert pipeline._mask_on_pool(records, 2) == [
            mask_message(record.content)[0] for record in records
        ]

    @needs_fork
    def test_repeated_skeletons_in_a_range_are_one_object(self):
        # 64 records of one skeleton in eight ranges: each range sends it once.
        records = [LogRecord(index, f"event {index} done") for index in range(64)]
        skeletons = pipeline._mask_on_pool(records, 2)
        assert skeletons == ["event <NUM> done"] * 64
        assert len({id(skeleton) for skeleton in skeletons}) <= 8

    @needs_fork
    def test_records_reach_workers_unpickled(self, monkeypatch):
        monkeypatch.setattr(_CountedContent, "pickled", [])
        records = [LogRecord(index, _CountedContent(f"event {index} done")) for index in range(64)]
        assert pipeline._mask_on_pool(records, 2) == ["event <NUM> done"] * 64
        assert _CountedContent.pickled == []

    @needs_fork
    def test_first_failure_raises_without_waiting(self, tmp_path, monkeypatch):
        # Every record but the marked one holds for up to 3 s, so waiting for
        # the submitted chunks would take several seconds.
        release = tmp_path / "release"
        monkeypatch.setattr(pipeline, "_skeleton", partial(_fail_marked_record, release))
        contents = ["marker record"] + [f"event {i} done" for i in range(63)]
        records = [LogRecord(index, content) for index, content in enumerate(contents)]
        started = time.monotonic()
        try:
            with pytest.raises(InternalInvariantError, match="masking worker failed: marked record"):
                pipeline._mask_on_pool(records, 2)
            assert time.monotonic() - started < 2.0
        finally:
            release.touch()


class _BrokenBackend:
    def infer(self, envelope):
        raise RuntimeError("backend bug")


class _NoVariablesBackend:
    """Names no variable in any message, so every sparse message rolls back."""

    def infer(self, envelope):
        text = "\n".join(f"{index}:" for index in range(1, len(envelope.messages) + 1))
        return BackendResponse(text=text, prompt_tokens=1, completion_tokens=1)


class _CollectorProbeBackend(MockBackend):
    """Waits, up to a few seconds in all, for the collector to come on."""

    def __init__(self):
        self.deadline = time.monotonic() + 5.0
        self.saw_collector = False

    def infer(self, envelope):
        while not gc.isenabled() and time.monotonic() < self.deadline:
            time.sleep(0.001)
        self.saw_collector = self.saw_collector or gc.isenabled()
        return super().infer(envelope)


class _SlowMockBackend(MockBackend):
    """Answers as the mock after 5 ms, so a request loop left unjoined is still running."""

    def infer(self, envelope):
        time.sleep(0.005)
        return super().infer(envelope)


class _CountingMockBackend(MockBackend):
    """Answers as the mock and records one entry per request."""

    def __init__(self):
        self.requests = []

    def infer(self, envelope):
        self.requests.append(envelope)
        return super().infer(envelope)


class TestRun:
    def test_snapshot_catalog(self, tmp_path):
        path = write_lines(tmp_path / "in.log", fig5_lines())
        result = run(path, RouterConfig(jobs=1), MockBackend())
        assert dict(result.catalog) == {"Snapshotting: <*> to <*>": 5}

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "in.log"
        path.write_text("", encoding="utf-8")
        result = run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out")
        assert list(result.rows) == [] and dict(result.catalog) == {}
        ledger = result.ledger.to_dict()
        assert ledger["tokens_consumed"] == 0 and ledger["llm_invocations"] == 0
        assert (tmp_path / "out" / "structured.csv").read_text() == (
            "LineId,Content,EventTemplate,Parameters\n"
        )

    def test_partition_counts(self, tmp_path):
        lines, _ = make_template_corpus(n_lines=300, n_templates=10, n_oneoffs=30, seed=8)
        path = write_lines(tmp_path / "in.log", lines)
        result = run(path, RouterConfig(jobs=1), MockBackend())
        ledger = result.ledger.to_dict()
        assert ledger["dense_record_count"] + ledger["sparse_record_count"] == len(lines)

    def test_round_trip_every_row(self, tmp_path):
        lines, _ = make_template_corpus(n_lines=400, n_templates=12, n_oneoffs=40, seed=13)
        path = write_lines(tmp_path / "in.log", lines)
        result = run(path, RouterConfig(jobs=1), MockBackend())
        for row in result.rows:
            assert row.result.token_sequence() == row.content.split()

    @pytest.mark.usefixtures("pool_from_2500")
    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out1")
        run(path, RouterConfig(jobs=2), MockBackend(), out_dir=tmp_path / "out2")
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (
                tmp_path / "out2" / name
            ).read_bytes()

    @pytest.mark.usefixtures("pool_from_2500")
    @needs_fork
    @pytest.mark.parametrize("cpus, pooled", [({0}, 0), ({0, 1}, 1)], ids=["one-cpu", "two-cpus"])
    def test_pool_only_with_more_than_one_usable_cpu(self, tmp_path, monkeypatch, cpus, pooled):
        # A process pinned to one CPU (taskset, a container's CPU set) gains
        # nothing from forking, whatever jobs asks for.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        assert len(lines) >= pipeline._PARALLEL_THRESHOLD
        path = write_lines(tmp_path / "in.log", lines)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        calls = []
        mask_on_pool = pipeline._mask_on_pool

        def recorded(*args):
            calls.append(args)
            return mask_on_pool(*args)

        monkeypatch.setattr(pipeline, "_mask_on_pool", recorded)
        run(path, RouterConfig(jobs=4), MockBackend())
        assert len(calls) == pooled

    @pytest.mark.usefixtures("pool_from_2500")
    @needs_fork
    @pytest.mark.skipif(pipeline._usable_cpus() < 2, reason="needs 2 usable CPUs to take the pool")
    def test_pool_workers_mask_with_collector_off(self, tmp_path, monkeypatch):
        # run() forks the pool with the collector off, and the workers inherit
        # that state even when the caller had it on.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        monkeypatch.setattr(pipeline, "_skeleton", _skeleton_collector_off)
        calls = []
        mask_on_pool = pipeline._mask_on_pool

        def recorded(*args):
            calls.append(args)
            return mask_on_pool(*args)

        monkeypatch.setattr(pipeline, "_mask_on_pool", recorded)
        collecting = gc.isenabled()
        gc.enable()
        try:
            run(path, RouterConfig(jobs=2), MockBackend())
        finally:
            if not collecting:
                gc.disable()
        assert len(calls) == 1

    @pytest.mark.usefixtures("pool_from_2500")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backend_error_fails_run_without_output(self, tmp_path, jobs):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        with pytest.raises(RuntimeError, match="backend bug"):
            run(path, RouterConfig(jobs=jobs), _BrokenBackend(), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("pool_from_2500")
    @pytest.mark.parametrize("jobs", [1, 3])
    @pytest.mark.parametrize("failure", [None, "backend", "dense"])
    def test_every_thread_run_starts_is_joined(self, tmp_path, monkeypatch, jobs, failure):
        # Threads that other tests left behind may end meanwhile, so the check
        # is that no thread alive after run() was missing before it.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        backend = _BrokenBackend() if failure == "backend" else _SlowMockBackend()
        if failure == "dense":

            def broken_read(group):
                raise InternalInvariantError("dense bug")

            monkeypatch.setattr(statistical, "read_columns", broken_read)
        before = set(threading.enumerate())
        if failure is None:
            run(path, RouterConfig(jobs=jobs), backend)
        else:
            with pytest.raises((RuntimeError, InternalInvariantError), match=f"{failure} bug"):
                run(path, RouterConfig(jobs=jobs), backend)
        assert [thread for thread in threading.enumerate() if thread not in before] == []

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_dense_failure_sends_no_request(self, tmp_path, monkeypatch, jobs):
        lines, _ = make_template_corpus(n_lines=400, n_templates=12, n_oneoffs=40, seed=13)
        path = write_lines(tmp_path / "in.log", lines)
        backend = _CountingMockBackend()
        run(path, RouterConfig(jobs=jobs), backend)
        assert backend.requests

        def broken_read(group):
            raise InternalInvariantError("dense bug")

        monkeypatch.setattr(statistical, "read_columns", broken_read)
        backend = _CountingMockBackend()
        with pytest.raises(InternalInvariantError, match="dense bug"):
            run(path, RouterConfig(jobs=jobs), backend)
        assert backend.requests == []

    def test_jobs_one_starts_no_thread(self, tmp_path, monkeypatch):
        lines, _ = make_template_corpus(n_lines=400, n_templates=12, n_oneoffs=40, seed=13)
        path = write_lines(tmp_path / "in.log", lines)
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        result = run(path, RouterConfig(jobs=1), MockBackend())
        assert result.ledger.to_dict()["llm_invocations"] > 0
        assert started == []

    @pytest.mark.usefixtures("pool_from_2500")
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    def test_run_restores_the_collector_setting(self, tmp_path, jobs, collecting):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        caller = gc.isenabled()
        try:
            (gc.enable if collecting else gc.disable)()
            run(path, RouterConfig(jobs=jobs), MockBackend())
            assert gc.isenabled() is collecting
            with pytest.raises(RuntimeError, match="backend bug"):
                run(path, RouterConfig(jobs=jobs), _BrokenBackend())
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if caller else gc.disable)()

    def test_collector_off_while_computing_on_while_waiting(self, tmp_path, monkeypatch):
        lines, _ = make_template_corpus(n_lines=400, n_templates=12, n_oneoffs=40, seed=13)
        path = write_lines(tmp_path / "in.log", lines)
        computing: dict[str, list[bool]] = {"extract": [], "write": []}
        read_columns, write_structured = statistical.read_columns, pipeline._write_structured

        def record_then(phase, function):
            def wrapped(*args):
                computing[phase].append(gc.isenabled())
                return function(*args)

            return wrapped

        monkeypatch.setattr(statistical, "read_columns", record_then("extract", read_columns))
        monkeypatch.setattr(
            pipeline, "_write_structured", record_then("write", write_structured)
        )
        waiting = _CollectorProbeBackend()
        caller = gc.isenabled()
        gc.enable()
        try:
            run(path, RouterConfig(jobs=1), waiting, out_dir=tmp_path / "out")
        finally:
            (gc.enable if caller else gc.disable)()
        assert computing["extract"] and not any(computing["extract"])
        assert computing["write"] == [False]
        assert waiting.saw_collector

    def test_run_leaves_start_method_unset(self, tmp_path):
        # A fresh interpreter, since anything earlier in this one may have
        # fixed the start method already.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        script = (
            "import multiprocessing, sys\n"
            "from celerlog import RouterConfig, pipeline, run\n"
            "pipeline._PARALLEL_THRESHOLD = 2500\n"
            "run(sys.argv[1], RouterConfig(jobs=2))\n"
            "print(multiprocessing.get_start_method(allow_none=True))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(celerlog.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert child.stdout.strip() == "None"

    def test_mock_run_never_imports_requests(self, tmp_path):
        # A fresh interpreter, since an earlier test may have imported them.
        # No thread pool, no logging and no scorer loads for a jobs=1 run
        # either.
        path = write_lines(tmp_path / "in.log", fig5_lines())
        script = (
            "import sys\n"
            "import celerlog\n"
            "modules = ('requests', 'dataclasses', 'multiprocessing', 'concurrent.futures',\n"
            "           'logging', 'celerlog.evaluation')\n"
            "print([name for name in modules if name in sys.modules])\n"
            "celerlog.run(sys.argv[1], celerlog.RouterConfig(jobs=1), celerlog.MockBackend())\n"
            "print([name for name in modules if name in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(celerlog.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert child.stdout.splitlines() == ["[]", "[]"]

    def test_scorer_resolves_on_first_use(self):
        from celerlog import Metrics, evaluate

        assert evaluate is celerlog.evaluation.evaluate
        assert Metrics is celerlog.evaluation.Metrics
        assert celerlog.__all__ == [
            "__version__", "CostLedger", "DenseGroup", "HttpBackend", "LogBucket",
            "LogRecord", "Metrics", "MockBackend", "RouterConfig", "RunResult",
            "SkeletonGroup", "SparseGroup", "TemplateResult", "evaluate", "route", "run",
        ]
        with pytest.raises(AttributeError, match="no_such_name"):
            celerlog.no_such_name

    @needs_fork
    @pytest.mark.skipif(pipeline._usable_cpus() < 2, reason="needs 2 usable CPUs to take the pool")
    def test_pool_run_imports_multiprocessing_itself(self, tmp_path):
        # A fresh interpreter that has never imported multiprocessing: the
        # jobs=2 run must import it, take the pool and write the jobs=1 bytes.
        # The pool forks a single-threaded parent: no thread has started yet,
        # and the jobs=1 run joined the ones it started.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=23)
        path = write_lines(tmp_path / "in.log", lines)
        script = (
            "import sys, threading\n"
            "from celerlog import RouterConfig, pipeline, run\n"
            "pipeline._PARALLEL_THRESHOLD = 2500\n"
            "pooled = []\n"
            "mask_on_pool = pipeline._mask_on_pool\n"
            "def recorded(*args):\n"
            "    pooled.append(threading.active_count())\n"
            "    return mask_on_pool(*args)\n"
            "pipeline._mask_on_pool = recorded\n"
            "run(sys.argv[1], RouterConfig(jobs=1), out_dir=sys.argv[2])\n"
            "print('multiprocessing' in sys.modules, pooled)\n"
            "run(sys.argv[1], RouterConfig(jobs=2), out_dir=sys.argv[3])\n"
            "print('multiprocessing' in sys.modules, pooled)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(celerlog.__file__).parents[1]))
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        child = subprocess.run(
            [sys.executable, "-c", script, str(path), str(serial), str(pooled)],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert child.stdout.splitlines() == ["False []", "True [1]"]
        for name in ("structured.csv", "templates.csv"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

    def test_wall_time_recorded(self, tmp_path):
        path = write_lines(tmp_path / "in.log", fig5_lines())
        result = run(path, RouterConfig(jobs=1), MockBackend())
        assert result.ledger.wall_time_seconds > 0

    def test_results_equal_finalize_of_every_message(self, tmp_path, monkeypatch):
        # Each "copy" and "worker" group has a length bucket of its own, so
        # it goes dense: read_columns already makes the adjacent "copy"
        # variables one. Two of the three one-offs go sparse and roll back,
        # since the backend names no variable. run() writes what the
        # producers return, and finalize returns every result as it is.
        lines = [f"copy {index} {index * 3} blocks done" for index in range(20)]
        lines += [f"worker {index} ready" for index in range(20)]
        lines += ["alpha beta gamma delta", "epsilon zeta eta theta", "iota kappa lambda mu"]
        path = write_lines(tmp_path / "in.log", lines)
        before: dict[str, TemplateResult] = {}
        real_read, real_sparse = statistical.read_columns, llm.process_sparse

        def read_columns(group):
            template, read = real_read(group)
            for member in group.member_groups:
                before.update((content, read(content)) for content in member.members)
            return template, read

        def process_sparse(*args):
            results = real_sparse(*args)
            before.update(results)
            return results

        monkeypatch.setattr(statistical, "read_columns", read_columns)
        monkeypatch.setattr(llm, "process_sparse", process_sparse)
        result = run(path, RouterConfig(jobs=1), _NoVariablesBackend())

        expected = {
            content: statistical.finalize(raw, tuple(content.split()))
            for content, raw in before.items()
        }
        assert {row.content: row.result for row in result.rows} == expected
        assert all(expected[content] is raw for content, raw in before.items())
        assert result.catalog == Counter(row.result.template for row in result.rows)
        assert [before[line].source for line in lines[-3:]].count(SOURCE_ROLLBACK) == 2
        assert before["worker 3 ready"].template == "worker <*> ready"
        assert before["copy 1 3 blocks done"] == TemplateResult(
            "copy <*> blocks done", ("1 3",), SOURCE_STATISTICAL
        )

    @pytest.mark.usefixtures("pool_from_2500")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_rows_from_extract_template(self, tmp_path, jobs):
        # The per-content view: one result per distinct message, looked up
        # for each record. Repeated lines make records share a message.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        lines += lines[:300]
        path = write_lines(tmp_path / "in.log", lines)
        config = RouterConfig(jobs=jobs)
        records, _ = ingest(path)
        dense, sparse, _ = route(records, config)
        by_content = llm.process_sparse(sparse, MockBackend(), config, CostLedger())
        for group in dense:
            by_content.update(statistical.extract_template(group))
        expected = [ParsedRecord(line_id, content, by_content[content]) for line_id, content in records]

        result = run(path, config, MockBackend())
        assert list(result.rows) == expected
        assert len(result.rows) == len(expected)
        assert result.rows[0] == expected[0] and result.rows[-1] == expected[-1]
        assert result.rows[10:20] == expected[10:20]
        assert result.catalog == Counter(row.result.template for row in expected)

    def test_group_unlike_its_keys_raises_when_rows_are_read(self, tmp_path, monkeypatch):
        # route() never builds this group: a key of two tokens over a message
        # of three. The reader raises on that message while run() writes.
        path = write_lines(tmp_path / "in.log", ["a b", "a b c"])
        member = SkeletonGroup("a b", ("a", "b"), frozenset({"a b", "a b c"}), (0, 1))
        routing = RoutingStats(1, 1, 1, 0, 2, 0)
        monkeypatch.setattr(
            pipeline, "route", lambda *args: ([DenseGroup(member_groups=(member,))], [], routing)
        )
        with pytest.raises(InternalInvariantError, match="mixes raw token lengths"):
            run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out")
        rows = run(path, RouterConfig(jobs=1), MockBackend()).rows
        with pytest.raises(InternalInvariantError, match="mixes raw token lengths"):
            list(rows)

    def test_parameters_keep_their_columns(self, tmp_path):
        # The three lines merge into one dense group whose first two
        # positions are one parameter; the constant "foo" after it must not
        # claim the "foo" inside the first line's parameter.
        path = write_lines(tmp_path / "in.log", ["1 foo foo 2", "1 bar foo 3", "5 baz foo 7"])
        rows = run(path, RouterConfig(jobs=1), MockBackend()).rows
        assert [row.result for row in rows] == [
            TemplateResult("<*> foo <*>", parameters, SOURCE_STATISTICAL)
            for parameters in [("1 foo", "2"), ("1 bar", "3"), ("5 baz", "7")]
        ]


# Every character csv.writer treats specially, edge spaces, the parameter
# escapes, and any other character a decoded input can hold.
_field_chars = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\0", " ", "|", "\\", "a", "<*>"]),
    st.characters(exclude_categories=("Cs",)),
)
_fields = st.lists(_field_chars, max_size=5).map("".join)


@st.composite
def structured_cases(draw):
    """A few distinct (content, template, parameters) and a row count up to three writes."""
    templates = draw(st.lists(_fields, min_size=1, max_size=3))
    messages = draw(
        st.lists(
            st.tuples(_fields, st.sampled_from(templates), st.lists(_fields, max_size=3)),
            min_size=1,
            max_size=6,
        )
    )
    return messages, draw(st.integers(0, 3 * pipeline._ROWS_PER_WRITE + 1))


def structured_rows(case):
    """The case's rows, cycling over its messages; built here to keep examples' reprs short."""
    messages, count = case
    rows = []
    for index in range(count):
        content, template, parameters = messages[index % len(messages)]
        rows.append(
            ParsedRecord(index, content, TemplateResult(template, tuple(parameters), SOURCE_LLM))
        )
    return rows


def _is_plain_row(row):
    fields = (row.content, row.result.template, escape_parameters(row.result.parameters))
    return not any(char in field for field in fields for char in ',"\r\n\0')


class TestWriteOutput:
    def _rows(self):
        return [
            ParsedRecord(0, "Snapshotting: 0x0 to /x.0",
                         TemplateResult("Snapshotting: <*> to <*>", ("0x0", "/x.0"), "statistical")),
        ]

    def test_templates_csv_line(self, tmp_path):
        path = write_lines(tmp_path / "in.log", fig5_lines())
        run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out")
        text = (tmp_path / "out" / "templates.csv").read_text()
        assert "Snapshotting: <*> to <*>,5" in text

    def test_empty_run_writes_headers(self, tmp_path):
        write_output([], Counter(), CostLedger(), tmp_path / "out")
        assert (tmp_path / "out" / "templates.csv").read_text() == "EventTemplate,Occurrences\n"

    def test_pipe_escaping(self, tmp_path):
        rows = [
            ParsedRecord(0, "a x|y b", TemplateResult("a <*> b", ("x|y",), "llm")),
        ]
        write_output(rows, Counter({"a <*> b": 1}), CostLedger(), tmp_path / "out")
        with open(tmp_path / "out" / "structured.csv", newline="") as handle:
            row = list(csv.DictReader(handle))[0]
        assert row["Parameters"] == "x\\|y"
        assert unescape_parameters(row["Parameters"]) == ["x|y"]

    def test_escape_round_trip(self):
        params = ["plain", "with|pipe", "with\\|both|", ""]
        packed = escape_parameters(params)
        assert unescape_parameters(packed)[:3] == params[:3]

    @given(
        st.lists(
            st.text(
                st.one_of(st.sampled_from("\\|"), st.characters()).filter(
                    lambda char: not char.isspace()
                ),
                min_size=1,
            )
        )
    )
    @example(["ends\\", "next"])
    @example(["\\|", "\\", "|\\\\"])
    def test_escape_round_trips_every_token_list(self, parameters):
        assert unescape_parameters(escape_parameters(parameters)) == parameters

    @settings(max_examples=200, deadline=None)
    @given(structured_cases())
    @example(([("a\rb", "a<*>", ["\rb"])], 1))
    @example(([(" x ", "", [])], 1))
    @example(([("a\0b", "a <*>", [])], 1))
    def test_structured_bytes_equal_csv_writer(self, case):
        rows = structured_rows(case)
        try:
            expected = naive_write_structured(rows)
        except csv.Error:
            # Python 3.10's csv.writer refuses NUL; the writer must refuse it too,
            # as a ConfigError the CLI reports.
            with pytest.raises(ConfigError), tempfile.TemporaryDirectory() as out:
                write_output(rows, Counter(), CostLedger(), out)
            return
        with tempfile.TemporaryDirectory() as out:
            write_output(rows, Counter(), CostLedger(), out)
            written = (Path(out) / "structured.csv").read_bytes()
        assert written == expected

    @pytest.mark.parametrize(
        "feature",
        [
            lambda rows: len(rows) > pipeline._ROWS_PER_WRITE and any(map(_is_plain_row, rows)),
            lambda rows: len(rows) > pipeline._ROWS_PER_WRITE
            and not all(map(_is_plain_row, rows)),
            lambda rows: any("\r" in row.content for row in rows),
        ],
        ids=["plain-rows", "quoted-rows", "carriage-return"],
    )
    def test_generator_covers(self, feature):
        find(
            structured_cases(),
            lambda case: feature(structured_rows(case)),
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )

    def test_row_refused_by_csv_writer_is_config_error(self, tmp_path, monkeypatch):
        def refuse(handle, rows):
            raise csv.Error("need to escape, but no escapechar set")

        monkeypatch.setattr(pipeline, "_write_structured", refuse)
        with pytest.raises(ConfigError, match="need to escape"):
            write_output([], Counter(), CostLedger(), tmp_path / "out")

    def test_unwritable_directory_fatal(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ConfigError):
            write_output([], Counter(), CostLedger(), blocker / "sub")
