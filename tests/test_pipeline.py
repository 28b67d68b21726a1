import csv
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import celerlog
from celerlog import pipeline
from celerlog.llm import MockBackend
from celerlog.model import (
    ConfigError,
    CostLedger,
    InternalInvariantError,
    LogRecord,
    RouterConfig,
)
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


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


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

    def test_csv_missing_content_column_fatal(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("LineId,Message\n1,hello\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            ingest(path, input_format="csv")

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ConfigError):
            ingest(tmp_path / "absent.log")

    def test_invalid_bytes_replaced_and_counted(self, tmp_path):
        path = tmp_path / "in.log"
        path.write_bytes(b"ok line\nbad \xff\xfe line\n")
        records, stats = ingest(path)
        assert stats.record_count == 2
        assert stats.decode_errors == 2

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


def _fail_marked_chunk(release, contents):
    """Fail the chunk holding the marker at once; hold every other one until released."""
    if "marker record" in contents:
        raise ValueError("marked chunk failed")
    deadline = time.monotonic() + 3.0
    while not release.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return contents


class TestMaskOnPool:
    @pytest.mark.skipif(not pipeline._fork_ready(), reason="needs the fork start method")
    def test_first_failure_raises_without_waiting(self, tmp_path, monkeypatch):
        # Every chunk but the marked one holds for up to 3 s, so waiting for
        # the submitted chunks would take several seconds.
        release = tmp_path / "release"
        monkeypatch.setattr(pipeline, "_mask_chunk", partial(_fail_marked_chunk, release))
        contents = ["marker record"] + [f"event {i} done" for i in range(63)]
        records = [LogRecord.from_content(index, content) for index, content in enumerate(contents)]
        started = time.monotonic()
        try:
            with pytest.raises(InternalInvariantError, match="masking worker failed: marked chunk"):
                pipeline._mask_on_pool(records, 2)
            assert time.monotonic() - started < 2.0
        finally:
            release.touch()


class _BrokenBackend:
    def infer(self, envelope):
        raise RuntimeError("backend bug")


class TestRun:
    def test_snapshot_catalog(self, tmp_path):
        path = write_lines(tmp_path / "in.log", fig5_lines())
        result = run(path, RouterConfig(jobs=1), MockBackend())
        assert dict(result.catalog) == {"Snapshotting: <*> to <*>": 5}

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "in.log"
        path.write_text("", encoding="utf-8")
        result = run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out")
        assert result.rows == [] and dict(result.catalog) == {}
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

    def test_jobs_do_not_change_output_bytes(self, tmp_path):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        run(path, RouterConfig(jobs=1), MockBackend(), out_dir=tmp_path / "out1")
        run(path, RouterConfig(jobs=2), MockBackend(), out_dir=tmp_path / "out2")
        for name in ("structured.csv", "templates.csv"):
            assert (tmp_path / "out1" / name).read_bytes() == (
                tmp_path / "out2" / name
            ).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_backend_error_fails_run_without_output(self, tmp_path, jobs):
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        with pytest.raises(RuntimeError, match="backend bug"):
            run(path, RouterConfig(jobs=jobs), _BrokenBackend(), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_run_leaves_start_method_unset(self, tmp_path):
        # A fresh interpreter, since anything earlier in this one may have
        # fixed the start method already.
        lines, _ = make_template_corpus(n_lines=2500, n_templates=15, n_oneoffs=50, seed=21)
        path = write_lines(tmp_path / "in.log", lines)
        script = (
            "import multiprocessing, sys\n"
            "from celerlog import RouterConfig, run\n"
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
        # A fresh interpreter, since an earlier HTTP test may have imported it.
        path = write_lines(tmp_path / "in.log", fig5_lines())
        script = (
            "import sys\n"
            "import celerlog\n"
            "celerlog.run(sys.argv[1], backend=celerlog.MockBackend())\n"
            "print('requests' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(celerlog.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert child.stdout.strip() == "False"

    def test_wall_time_recorded(self, tmp_path):
        path = write_lines(tmp_path / "in.log", fig5_lines())
        result = run(path, RouterConfig(jobs=1), MockBackend())
        assert result.ledger.wall_time_seconds > 0


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

    def test_unwritable_directory_fatal(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(ConfigError):
            write_output([], Counter(), CostLedger(), blocker / "sub")
