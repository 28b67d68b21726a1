import csv
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, Phase, example, find, given, settings
from hypothesis import strategies as st

import celerlog
from celerlog import llm, pipeline, routing, statistical
from celerlog.llm import BackendResponse, MockBackend
from celerlog.masking import mask_message, skeleton
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
from oracles import naive_run, naive_write_structured


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def fork_from_2500(monkeypatch):
    """Lets run() fork for the 2,500-record test corpora, which lie below the
    measured threshold."""
    monkeypatch.setattr(pipeline, "_PARALLEL_THRESHOLD", 2500)


@pytest.fixture
def fork_log(monkeypatch):
    """Records each temporary file that pipeline opens and the exit status of
    each child that it reaps, in order."""
    log = SimpleNamespace(files=[], statuses=[])
    waitpid, temporary_file = os.waitpid, tempfile.TemporaryFile

    def recorded_waitpid(pid, options):
        reaped = waitpid(pid, options)
        log.statuses.append(reaped[1])
        return reaped

    def recorded_file(*args, **kwargs):
        log.files.append(temporary_file(*args, **kwargs))
        return log.files[-1]

    monkeypatch.setattr(os, "waitpid", recorded_waitpid)
    monkeypatch.setattr(tempfile, "TemporaryFile", recorded_file)
    return log


def assert_clean(log):
    """No child of this process is left, reaped or not, and every temporary
    file that pipeline opened is closed."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert all(file.closed for file in log.files)


def forks(jobs):
    """Whether run(jobs=jobs) forks for a corpus from the threshold on."""
    usable = pipeline._usable_cpus() > 1 and threading.active_count() == 1
    return jobs > 1 and hasattr(os, "fork") and usable


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
            b'Content\n"abc',
        ],
        ids=["quoted-line-breaks", "crlf", "line-separators", "blank-rows", "decode-errors",
             "no-final-newline", "byte-order-mark", "lone-cr-rows", "cr-in-field", "header-only",
             "open-quote-without-final-newline"],
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

    @pytest.mark.parametrize(
        "data",
        [
            b"a b\r\nc d\r\n",
            b"a b\nc d",
            b"a b\r\n\r\nc d\r",
            b"\n\n",
            b"",
        ],
        ids=["crlf-at-end", "bare-last-line", "bare-cr-last-line", "only-newlines", "empty"],
    )
    def test_raw_reads_as_a_stringio_of_the_text(self, tmp_path, data):
        # A StringIO that splits at "\n" only, each line's "\n" and then one
        # "\r" dropped.
        path = tmp_path / "in.log"
        path.write_bytes(data)
        lines = io.StringIO(data.decode(), newline="\n")
        contents = [line.removesuffix("\n").removesuffix("\r") for line in lines]
        records, stats = ingest(path)
        assert [r.content for r in records] == [c for c in contents if c.strip()]
        assert stats.blank_lines == sum(not c.strip() for c in contents)
        assert [r.line_id for r in records] == list(range(len(records)))

    def test_header_pattern_applied_to_csv_content(self, tmp_path):
        # The pattern strips each Content; a Content it does not match stays
        # whole, and one it strips to nothing is blank.
        path = tmp_path / "in.csv"
        path.write_text(
            'LineId,Content\n0,INFO worker ready\n1,"WARN worker\nbusy"\n2,plain\n3,"INFO "\n',
            encoding="utf-8",
        )
        records, stats = ingest(path, input_format="csv", header_pattern=r"^\w+ (?P<content>.*)$")
        assert [r.content for r in records] == ["worker ready", "WARN worker\nbusy", "plain"]
        assert stats.blank_lines == 1

    def test_unknown_format_fatal(self, tmp_path):
        path = write_lines(tmp_path / "in.log", ["a b"])
        with pytest.raises(ConfigError, match="unknown input format: 'xml'"):
            ingest(path, input_format="xml")

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


def _checked(check, function):
    """``function``, calling ``check`` on its argument first."""

    def checked(content):
        check(content)
        return function(content)

    return checked


def _check_masking(check, monkeypatch):
    """Makes masking call ``check(content)`` first at every jobs value:
    route() masks through its own name in process."""
    for module, name in ((pipeline, "skeleton"), (routing, "skeleton")):
        monkeypatch.setattr(module, name, _checked(check, skeleton))


def _check_reading(check, monkeypatch):
    """Makes both readers of every dense group call ``check(content)`` first:
    run() writes a row through one of them."""
    read_columns = statistical.read_columns

    def patched(group):
        template, read, parameters = read_columns(group)
        return template, _checked(check, read), _checked(check, parameters)

    monkeypatch.setattr(statistical, "read_columns", patched)


def _fails_in_children(parent):
    """A check that raises in every process but ``parent``."""

    def check(content):
        if os.getpid() != parent:
            raise RuntimeError("child failed")

    return check


def _note_collector(directory, content):
    """``pipeline.skeleton`` that leaves a file named for its process and the
    state of its cyclic collector."""
    (directory / f"{os.getpid()}-{gc.isenabled()}").touch()
    return skeleton(content)


class _CountedContent(str):
    """A record content that counts, in the process that pickles it, each time
    it is pickled."""

    pickled: list[str] = []

    def __reduce_ex__(self, protocol):
        self.pickled.append(str(self))
        return str, (str(self),)


class TestPoolWorkers:
    """How many processes work the records (``pipeline._fork_width``)."""

    @needs_fork
    @pytest.mark.parametrize(
        "count, jobs, cpus, fork, threads, workers",
        [
            (pipeline._PARALLEL_THRESHOLD - 1, 8, {0, 1}, True, 1, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0}, True, 1, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0, 1}, False, 1, 1),
            (pipeline._PARALLEL_THRESHOLD, 1, {0, 1}, True, 1, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0, 1}, True, 2, 1),
            (pipeline._PARALLEL_THRESHOLD, 8, {0, 1}, True, 1, 2),
        ],
        ids=["below-threshold", "one-cpu", "no-fork", "one-job", "two-threads", "capped-at-cpus"],
    )
    def test_width(self, monkeypatch, count, jobs, cpus, fork, threads, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(threading, "active_count", lambda: threads)
        if not fork:
            monkeypatch.delattr(os, "fork")
        assert pipeline._fork_width(count, jobs) == workers


class TestMaskOnPool:
    """Masking in forked children (``pipeline._mask_forked``)."""

    @needs_fork
    @pytest.mark.parametrize("count", [1, 7, 9, 2501])
    def test_skeletons_match_serial_masking(self, fork_log, count):
        # Two ranges divide neither odd count evenly; one record is one range.
        lines, _ = make_template_corpus(n_lines=2501, n_templates=15, n_oneoffs=50, seed=21)
        records = [LogRecord(index, line) for index, line in enumerate(lines[:count])]
        assert pipeline._mask_forked(records, 2) == [
            mask_message(record.content)[0] for record in records
        ]
        assert fork_log.statuses == ([] if count == 1 else [0])
        assert_clean(fork_log)

    @needs_fork
    def test_repeated_skeletons_in_a_range_are_one_object(self):
        # 64 records of one skeleton in two ranges: the parent keeps one object.
        records = [LogRecord(index, f"event {index} done") for index in range(64)]
        skeletons = pipeline._mask_forked(records, 2)
        assert skeletons == ["event <NUM> done"] * 64
        assert len({id(skeleton) for skeleton in skeletons}) == 1

    @needs_fork
    def test_records_reach_workers_unpickled(self, monkeypatch):
        monkeypatch.setattr(_CountedContent, "pickled", [])
        records = [LogRecord(index, _CountedContent(f"event {index} done")) for index in range(64)]
        assert pipeline._mask_forked(records, 2) == ["event <NUM> done"] * 64
        assert _CountedContent.pickled == []

    @needs_fork
    @pytest.mark.parametrize("failure", ["child", "fork", "file"])
    def test_failed_range_is_worked_in_the_parent(self, monkeypatch, fork_log, failure):
        # A child that fails, a fork or a temporary file refused: the parent
        # masks that range itself.
        lines, _ = make_template_corpus(n_lines=2501, n_templates=15, n_oneoffs=50, seed=21)
        records = [LogRecord(index, line) for index, line in enumerate(lines)]
        if failure == "child":
            check = _fails_in_children(os.getpid())
            monkeypatch.setattr(pipeline, "skeleton", _checked(check, skeleton))
        else:

            def refuse(*args, **kwargs):
                raise OSError("refused")

            target = {"fork": (os, "fork"), "file": (tempfile, "TemporaryFile")}[failure]
            monkeypatch.setattr(*target, refuse)
        assert pipeline._mask_forked(records, 2) == [
            mask_message(record.content)[0] for record in records
        ]
        assert len(fork_log.statuses) == (1 if failure == "child" else 0)
        assert all(fork_log.statuses)
        assert_clean(fork_log)


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


def fork_sized(lines):
    """The lines cycled to 2,500, from which ``fork_from_2500`` lets run() fork."""
    return [lines[index % len(lines)] for index in range(2500)]


#: Tokens and separators of the corpora run() is compared with ``naive_run``
#: on: values of every mask rule, designated tokens and placeholders in the
#: raw text, non-ASCII text, the characters structured.csv escapes or quotes,
#: and whitespace other than one space.
_ORACLE_TOKENS = [
    "0x1f", "0XAB", "-12", "+3.5", "42", "(45)", "<*>", "<NUM>", "<ABC>", "é", "٣",
    "a|b", "c\\d", '"q"', "x,y", "k=1", "blk_7", "ERROR", "open", "worker", "ready",
]
_ORACLE_SEPARATORS = [" ", " ", " ", "\t", "  ", "\x1f", "\xa0"]


@st.composite
def oracle_corpora(draw):
    """Distinct lines: up to three templates whose lines vary at some
    positions, and a few noise lines."""
    tokens = st.lists(st.sampled_from(_ORACLE_TOKENS), min_size=1, max_size=8)
    token_lists = draw(st.lists(tokens, max_size=4))
    for _ in range(draw(st.integers(0 if token_lists else 1, 3))):
        template = draw(tokens)
        slots = draw(st.sets(st.integers(0, len(template) - 1)))
        for _ in range(draw(st.integers(1, 6))):
            token_lists.append(
                [draw(st.sampled_from(_ORACLE_TOKENS)) if index in slots else token
                 for index, token in enumerate(template)]
            )
    lines = []
    for token_list in token_lists:
        line = token_list[0]
        for token in token_list[1:]:
            line += draw(st.sampled_from(_ORACLE_SEPARATORS)) + token
        lines.append(line)
    return lines


#: Five mutually dissimilar lines of one length bucket. Past the anchor budget
#: three go sparse: two the mock backend answers (a token with a digit) and
#: one it rolls back, holding between them ``,`` ``"`` ``|`` ``\`` and a
#: mid-line ``\r``, once as the only character of a field that needs quoting.
#: NUL is left out, since Python 3.10's csv.writer refuses it;
#: ``test_run_bytes_equal_csv_writer`` covers that in a dense row.
_QUOTED_SPARSE_LINES = [
    "alpha beta gamma delta epsilon",
    "open the file now 42",
    "pipe a|b joins c\\d more",
    'path x,y "left"\rright there',
    "sent q7 to\ra|7 peers",
]


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

    def test_ledger_is_the_one_in_run_json(self, tmp_path):
        # The wall clock stops once, before run.json is written; a run that
        # writes nothing stops it too.
        path = write_lines(tmp_path / "in.log", fig5_lines())
        result = run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out")
        info = json.loads((tmp_path / "out" / "run.json").read_text(encoding="utf-8"))
        assert result.ledger.to_dict() == info["ledger"]
        assert run(path, RouterConfig(jobs=1), MockBackend()).ledger.wall_time_seconds > 0

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

    @pytest.mark.usefixtures("fork_from_2500")
    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out1")
        run(path, RouterConfig(jobs=2), MockBackend(), out_dir=tmp_path / "out2")
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (
                tmp_path / "out2" / name
            ).read_bytes()

    @pytest.mark.usefixtures("fork_from_2500")
    @needs_fork
    @pytest.mark.parametrize("cpus, pooled", [({0}, 0), ({0, 1}, 1)], ids=["one-cpu", "two-cpus"])
    def test_pool_only_with_more_than_one_usable_cpu(self, tmp_path, monkeypatch, cpus, pooled):
        # A process pinned to one CPU (taskset, a container's CPU set) gains
        # nothing from forking, whatever jobs asks for. With no out_dir only
        # masking forks.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        assert len(lines) >= pipeline._PARALLEL_THRESHOLD
        path = write_lines(tmp_path / "in.log", lines)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        calls = []
        fork_ranges = pipeline._fork_ranges

        def recorded(*args):
            calls.append(args)
            return fork_ranges(*args)

        monkeypatch.setattr(pipeline, "_fork_ranges", recorded)
        run(path, RouterConfig(jobs=4), MockBackend())
        assert len(calls) == pooled

    @pytest.mark.usefixtures("fork_from_2500")
    @needs_fork
    @pytest.mark.skipif(pipeline._usable_cpus() < 2, reason="needs 2 usable CPUs to fork")
    def test_pool_workers_mask_with_collector_off(self, tmp_path, monkeypatch):
        # run() forks with the collector off, and the children inherit that
        # state even when the caller had it on.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        notes = tmp_path / "notes"
        notes.mkdir()
        monkeypatch.setattr(pipeline, "skeleton", partial(_note_collector, notes))
        collecting = gc.isenabled()
        gc.enable()
        try:
            run(path, RouterConfig(jobs=2), MockBackend())
        finally:
            if not collecting:
                gc.disable()
        noted = [name.split("-") for name in os.listdir(notes)]
        assert len(noted) == 2 and {state for _, state in noted} == {"False"}

    @pytest.mark.usefixtures("fork_from_2500")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_forked_run_leaves_no_child_and_no_open_file(self, tmp_path, fork_log, jobs):
        # Masking and writing each fork one child at jobs=2.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        run(path, RouterConfig(jobs=jobs), MockBackend(), out_dir=tmp_path / "out")
        assert fork_log.statuses == ([0, 0] if forks(jobs) else [])
        assert len(fork_log.files) == len(fork_log.statuses)
        assert_clean(fork_log)

    @pytest.mark.usefixtures("fork_from_2500")
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "phase, error",
        [
            ("mask", ValueError("marked record failed")),
            ("mask", KeyboardInterrupt("marked record failed")),
            ("write", ValueError("marked record failed")),
            ("write", KeyboardInterrupt("marked record failed")),
        ],
        ids=["mask-error", "mask-interrupt", "write-error", "write-interrupt"],
    )
    @pytest.mark.parametrize("where", ["parent", "child"])
    def test_failing_range_raises_the_serial_error(
        self, tmp_path, monkeypatch, fork_log, jobs, phase, error, where
    ):
        # The marker opens the parent's range or closes the child's. A child's
        # failed range is worked again in the parent, which raises the error
        # that jobs=1 raises; when the parent raises first, its child is
        # killed. Either way no child and no open file is left.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        marker = lines[0] if where == "parent" else lines[-1]
        assert lines.count(marker) == 1
        path = write_lines(tmp_path / "in.log", lines)

        def fail(content):
            if content == marker:
                raise error

        (_check_masking if phase == "mask" else _check_reading)(fail, monkeypatch)
        with pytest.raises(type(error), match="marked record failed"):
            run(path, RouterConfig(jobs=jobs), MockBackend(), out_dir=tmp_path / "out")
        if forks(jobs) and where == "child":
            # The mask child failed, or the mask child succeeded and the
            # write child failed.
            assert fork_log.statuses[-1] != 0
        assert_clean(fork_log)

    @pytest.mark.usefixtures("fork_from_2500")
    @needs_fork
    def test_failed_children_are_worked_in_the_parent(self, tmp_path, monkeypatch, fork_log):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out1")
        fail = _fails_in_children(os.getpid())
        _check_masking(fail, monkeypatch)
        _check_reading(fail, monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        run(path, RouterConfig(jobs=2), MockBackend(), out_dir=tmp_path / "out2")
        assert len(fork_log.statuses) == 2 and all(fork_log.statuses)
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
        assert_clean(fork_log)

    @pytest.mark.usefixtures("fork_from_2500")
    def test_live_thread_keeps_run_in_process(self, tmp_path, fork_log):
        # A child holds only the forking thread, so a library caller's live
        # thread keeps masking and writing in process, with the same bytes.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out1")
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait)
        helper.start()
        try:
            run(path, RouterConfig(jobs=2), MockBackend(), out_dir=tmp_path / "out2")
        finally:
            stop.set()
            helper.join()
        assert fork_log.files == [] and fork_log.statuses == []
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()

    @pytest.mark.usefixtures("fork_from_2500")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backend_error_fails_run_without_output(self, tmp_path, jobs):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        with pytest.raises(RuntimeError, match="backend bug"):
            run(path, RouterConfig(jobs=jobs), _BrokenBackend(), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("fork_from_2500")
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

    @pytest.mark.usefixtures("fork_from_2500")
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
    @pytest.mark.skipif(pipeline._usable_cpus() < 2, reason="needs 2 usable CPUs to fork")
    def test_forked_run_imports_no_process_pool(self, tmp_path):
        # A fresh interpreter, since an earlier test may have imported them:
        # the jobs=2 run forks for masking and for writing, each child exits
        # 0, it writes the jobs=1 bytes, and neither process pool module loads.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=23)
        path = write_lines(tmp_path / "in.log", lines)
        script = (
            "import os, sys\n"
            "from celerlog import RouterConfig, pipeline, run\n"
            "pipeline._PARALLEL_THRESHOLD = 2500\n"
            "statuses = []\n"
            "waitpid = os.waitpid\n"
            "def recorded(pid, options):\n"
            "    reaped = waitpid(pid, options)\n"
            "    statuses.append(reaped[1])\n"
            "    return reaped\n"
            "os.waitpid = recorded\n"
            "run(sys.argv[1], RouterConfig(jobs=1), out_dir=sys.argv[2])\n"
            "run(sys.argv[1], RouterConfig(jobs=2), out_dir=sys.argv[3])\n"
            "modules = ('multiprocessing', 'concurrent.futures')\n"
            "print(statuses, [name for name in modules if name in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(celerlog.__file__).parents[1]))
        serial, forked = tmp_path / "serial", tmp_path / "forked"
        child = subprocess.run(
            [sys.executable, "-c", script, str(path), str(serial), str(forked)],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert child.stdout.strip() == "[0, 0] []"
        for name in ("structured.csv", "templates.csv"):
            assert (serial / name).read_bytes() == (forked / name).read_bytes()

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
            template, read, parameters = real_read(group)
            for member in group.member_groups:
                before.update((content, read(content)) for content in member.members)
            return template, read, parameters

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

    @pytest.mark.usefixtures("fork_from_2500")
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

    def test_record_missing_from_routing_output_raises(self, tmp_path, monkeypatch):
        # route() places every record in one group; a record id dropped from
        # a dense member leaves its record without a reader, and run() names it.
        path = write_lines(tmp_path / "in.log", fig5_lines())
        dropped = []

        def route_dropping_one(*args):
            dense, sparse, stats = route(*args)
            member, *others = dense[0].member_groups
            dropped.append(member.record_ids[1])
            kept = member._replace(record_ids=member.record_ids[:1] + member.record_ids[2:])
            dense[0] = dense[0]._replace(member_groups=(kept, *others))
            return dense, sparse, stats

        monkeypatch.setattr(pipeline, "route", route_dropping_one)
        with pytest.raises(InternalInvariantError) as raised:
            run(path, RouterConfig(jobs=1), MockBackend())
        assert str(raised.value) == f"record {dropped[0]} missing from routing output"

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

    @pytest.mark.usefixtures("fork_from_2500")
    @settings(
        max_examples=settings.default.max_examples // 10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(oracle_corpora())
    @example(["took (12) ms", "took (12) ms", "copy 0x1f\tto  a|b", "copy 0XAB\xa0to x,y"])
    @example(["é ٣ <NUM>", "<*> <ABC> c\\d", "worker 42 ready", "worker -12 ready"])
    @example(_QUOTED_SPARSE_LINES)
    def test_run_equals_naive_run(self, lines):
        # The whole run against the chain of oracles, in process at jobs=1
        # and forked at jobs=2: a fault between layers, such as a reader given
        # to the wrong record, shows here. Like the writer's differential
        # test, this takes a tenth of the profile's examples.
        with tempfile.TemporaryDirectory() as directory:
            path = write_lines(Path(directory) / "in.log", fork_sized(lines))
            expected, catalog = naive_run(path, RouterConfig(jobs=1), MockBackend())
            for jobs in (1, 2):
                out = Path(directory) / f"out{jobs}"
                result = run(path, RouterConfig(jobs=jobs), MockBackend(), out_dir=out)
                assert (out / "structured.csv").read_bytes() == expected
                assert result.catalog == catalog

    def test_quoted_sparse_example_routes_sparse(self, tmp_path):
        # From a run the general formatter gets mostly sparse rows, so an
        # example of test_run_equals_naive_run must keep writing sparse rows,
        # answered and rolled back, that need quoting or escaping.
        path = write_lines(tmp_path / "in.log", fork_sized(_QUOTED_SPARSE_LINES))
        fields: dict[str, set[str]] = {}
        for row in run(path, RouterConfig(jobs=1), MockBackend()).rows:
            if row.result.source != SOURCE_STATISTICAL:
                fields.setdefault(row.result.source, set()).update(
                    (row.content, row.result.template, escape_parameters(row.result.parameters))
                )
        texts = {source: "".join(found) for source, found in fields.items()}
        assert texts.keys() == {SOURCE_LLM, SOURCE_ROLLBACK}
        assert all("\r" in text for text in texts.values())
        assert all(char in "".join(texts.values()) for char in ',"|\\')
        assert any(
            "\r" in field and pipeline._is_plain(field.replace("\r", ""))
            for found in fields.values()
            for field in found
        )


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


#: Parts of the dense corpora. Each value form masks to ``<CL>`` whatever its
#: digits, so the lines of one template share a skeleton; the constants, the
#: forms and the separators carry every character that structured.csv quotes
#: or escapes, and non-ASCII text.
_CONSTANTS = ["open", "closed", "say,", "a,b", '"q"', "naïve", "x|y"]
_VALUE_FORMS = ["k={}", "k={}|{}", 'k="{}"', "k={},{}", "k={}\\{}", "k=é{}", "k={}\0{}"]
_SEPARATORS = [" ", " ", " ", "  ", "\t", " \r "]


@st.composite
def dense_corpora(draw):
    """The distinct lines of up to three templates of distinct token counts:
    each length bucket holds one skeleton group, which routing makes dense."""
    lines = []
    for length in draw(st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)):
        parts = draw(
            st.lists(st.sampled_from(_CONSTANTS + _VALUE_FORMS), min_size=length, max_size=length)
        )
        for _ in range(draw(st.integers(1, 4))):
            line = ""
            for index, part in enumerate(parts):
                if index:
                    line += draw(st.sampled_from(_SEPARATORS))
                line += part.format(draw(st.integers(0, 999)), draw(st.integers(0, 999)))
            lines.append(line)
    return lines


def dense_rows(lines):
    """(content, template) of each line of ``lines`` that routing makes dense."""
    records = [LogRecord(index, line) for index, line in enumerate(lines)]
    dense, _, _ = route(records, RouterConfig())
    return [
        (content, statistical.read_columns(group)[0])
        for group in dense
        for member in group.member_groups
        for content in member.members
    ]


def _in_rows(feature):
    return lambda case: feature(structured_rows(case))


def _in_a_dense_row(feature):
    return lambda lines: any(feature(*row) for row in dense_rows(fork_sized(lines)))


#: What each ``dense-`` case of ``test_generator_covers`` finds in a dense
#: row's (content, template). A ``fast-row`` is formatted from its group's
#: columns, and every other dense row through ``csv.writer``'s rules.
_DENSE_FEATURES = {
    "comma": lambda content, template: "," in content,
    "quote": lambda content, template: '"' in content,
    "pipe": lambda content, template: "|" in content,
    "backslash": lambda content, template: "\\" in content,
    "carriage-return": lambda content, template: "\r" in content,
    "nul": lambda content, template: "\0" in content,
    "tab": lambda content, template: "\t" in content,
    "double-space": lambda content, template: "  " in content,
    "non-ascii": lambda content, template: not content.isascii(),
    "template-comma": lambda content, template: "," in template,
    "template-quote": lambda content, template: '"' in template,
    "fast-row": lambda content, template: not any(char in content for char in ',"\r\n\0|\\'),
}


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
        # The oracle writes Python 3.13's bytes on every version: "a\rb"
        # quoted, which 3.10-3.12 leave bare at lineterminator="\n".
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
        "cases, feature",
        [
            pytest.param(
                structured_cases(),
                _in_rows(lambda rows: len(rows) > pipeline._ROWS_PER_WRITE
                         and any(map(_is_plain_row, rows))),
                id="plain-rows",
            ),
            pytest.param(
                structured_cases(),
                _in_rows(lambda rows: len(rows) > pipeline._ROWS_PER_WRITE
                         and not all(map(_is_plain_row, rows))),
                id="quoted-rows",
            ),
            pytest.param(
                structured_cases(),
                _in_rows(lambda rows: any("\r" in row.content for row in rows)),
                id="carriage-return",
            ),
        ]
        + [
            pytest.param(dense_corpora(), _in_a_dense_row(feature), id=f"dense-{name}")
            for name, feature in _DENSE_FEATURES.items()
        ],
    )
    def test_generator_covers(self, cases, feature):
        find(
            cases,
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )

    @pytest.mark.usefixtures("fork_from_2500")
    @settings(
        max_examples=settings.default.max_examples // 10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(dense_corpora())
    @example(["k=1,2 say,\t\"q\"", "k=3|4  a,b \r x|y", "k=5\\6 naïve"])
    @example(["open k=1", "open k=2"])
    @example(["k=1\x002 open"])
    def test_run_bytes_equal_csv_writer(self, lines):
        # A run formats each dense row whose message needs no quoting or
        # escaping from its group's columns, not through csv.writer: its
        # bytes must still be the oracle's for its rows, in process at
        # jobs=1 and forked at jobs=2. A run costs tens of milliseconds, so
        # this test takes a tenth of the profile's examples: 10, or 2,000
        # under the deep profile.
        with tempfile.TemporaryDirectory() as directory:
            path = write_lines(Path(directory) / "in.log", fork_sized(lines))
            try:
                expected = naive_write_structured(
                    list(run(path, RouterConfig(jobs=1), MockBackend()).rows)
                )
            except csv.Error:
                # Python 3.10's csv.writer refuses NUL, and so must the run.
                expected = None
            for jobs in (1, 2):
                out = Path(directory) / f"out{jobs}"
                if expected is None:
                    with pytest.raises(ConfigError):
                        run(path, RouterConfig(jobs=jobs), MockBackend(), out_dir=out)
                else:
                    run(path, RouterConfig(jobs=jobs), MockBackend(), out_dir=out)
                    assert (out / "structured.csv").read_bytes() == expected

    def test_row_list_is_written_in_process(self, tmp_path, monkeypatch, fork_log):
        # Only a run's rows fork; a caller's list is written as it is.
        monkeypatch.setattr(pipeline, "_PARALLEL_THRESHOLD", 1)
        rows = self._rows() * 4
        write_output(rows, Counter(), CostLedger(), tmp_path / "out", config=RouterConfig(jobs=2))
        assert fork_log.files == []
        assert (tmp_path / "out" / "structured.csv").read_bytes() == naive_write_structured(rows)

    @pytest.mark.usefixtures("fork_from_2500")
    @needs_fork
    @pytest.mark.skipif(pipeline._usable_cpus() < 2, reason="needs 2 usable CPUs to fork")
    def test_run_rows_fork_by_the_config_given(self, tmp_path, fork_log):
        # The rows of a jobs=2 run fork as the config write_output is handed
        # allows, not as the run's own config did.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        result = run(path, RouterConfig(jobs=2), MockBackend(), out_dir=tmp_path / "run")
        assert fork_log.statuses == [0, 0]
        fork_log.statuses.clear()
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            config = RouterConfig(jobs=jobs)
            write_output(result.rows, result.catalog, CostLedger(), out, config=config)
            assert fork_log.statuses == [0] * (jobs - 1)
            assert (out / "structured.csv").read_bytes() == (
                tmp_path / "run" / "structured.csv"
            ).read_bytes()
        assert_clean(fork_log)

    def test_row_refused_by_csv_writer_is_config_error(self, tmp_path, monkeypatch):
        def refuse(handle, rows, jobs):
            raise csv.Error("need to escape, but no escapechar set")

        monkeypatch.setattr(pipeline, "_write_structured", refuse)
        with pytest.raises(ConfigError, match="need to escape"):
            write_output([], Counter(), CostLedger(), tmp_path / "out")

    def test_unwritable_directory_fatal(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ConfigError):
            write_output([], Counter(), CostLedger(), blocker / "sub")
