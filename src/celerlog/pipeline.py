"""End-to-end orchestration: ingest, route, process, write outputs.

``run()`` takes the same path at every ``jobs`` value and routes through
``routing.route()``, the one routing path. It holds the input as a list of
contents, one string per record whose index is its line id, and builds no
record object per line (``ingest`` numbers them for library callers). Its
phases run in order on the calling thread: masking (``masking.skeletons``,
streamed into grouping) and grouping, then every dense group's template and
reader of its messages (``statistical.read_columns``), then
``llm.process_sparse`` for the sparse groups, so a dense-side error raises
before any LLM request is sent. Threads start only inside
``process_sparse``, none at ``jobs=1``, and all are joined before it returns
or raises. The rows are a lazy sequence (``_Rows``) in record order: each
row is built, its message split and its parameters read, only when it is
read, so no row outlives its write. Writing builds no row where a dense
group's message needs no quoting or escaping: its line is formatted from the
message, the group's template and its parameter reader (``_write_rows``).

When ``_fork_width`` allows, masking and formatting the rows of
structured.csv run in forked children over contiguous index ranges
(``_fork_ranges``). The children inherit the contents and the readers
unpickled and leave each range's result in an unlinked temporary file; the
parent works the first range, then takes the others in record order and
works the range of any child that failed itself. So the bytes, and any
error, are those of ``jobs=1``.

The cyclic garbage collector is off while ``run()`` computes, from ingest
through writing: those phases allocate millions of objects that hold no
cycles, and on dense-40k the collector took about a tenth of a run. When the
caller had it on, it comes back on only around ``process_sparse``, which
mostly waits and whose failed requests do leave cycles (111 objects each).
``run()`` restores the caller's setting however it exits. The children are
forked with it off, and inherit that state.
"""

from __future__ import annotations

import codecs
import csv
import gc
import json
import marshal
import os
import shutil
import tempfile
import threading
from collections import Counter
from contextlib import suppress
from pathlib import Path
from time import perf_counter
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from . import llm, statistical
from .masking import compile_header_pattern, skeletons, strip_header
from .model import (
    ConfigError, CostLedger, InternalInvariantError, LogRecord, RouterConfig, TemplateResult
)
from .routing import RoutingStats, route

#: Below this many records forking costs more than it saves. Fresh processes
#: timed ``run(jobs=2)`` forking against in process on 2 vCPUs, on corpora
#: ``CorpusSpec(n, 50, n // 200, (4, 54))`` (seed 1), 48-96 alternating pairs
#: a size in rounds that ran one pair at every size. Pairs that forking won,
#: and the median per pair of its time over the time in process:
#:
#:   n      4k    6k    8k    10k   12k   14k   16k   20k   25k   40k
#:   won    35%   52%   55%   71%   59%   82%   62%   67%   71%   67%
#:   ratio  1.05  0.99  0.97  0.90  0.95  0.93  0.93  0.93  0.90  0.92
#:
#: 10,000 is the smallest size from which forking won at least three pairs
#: in five at every size measured.
_PARALLEL_THRESHOLD = 10_000

#: structured.csv rows joined per write. A jobs=1 run over the benchmark's
#: sparse-llm corpus (seed 1) peaked at 25.3 MB of RSS (its own ``VmHWM``)
#: with 256 rows per write and at 29.9 MB with 4,096; dense-40k at 35.3 MB
#: and 39.4 MB.
_ROWS_PER_WRITE = 256


class IngestStats(NamedTuple):
    record_count: int
    blank_lines: int
    decode_errors: int

    def to_dict(self) -> dict:
        return self._asdict()


class ParsedRecord(NamedTuple):
    line_id: int
    content: str
    result: TemplateResult


class RunResult(NamedTuple):
    rows: Sequence[ParsedRecord]
    catalog: Counter
    ledger: CostLedger
    routing: RoutingStats
    ingest: IngestStats


def ingest(
    path: str | Path, input_format: str = "raw", header_pattern: str | None = None
) -> tuple[list[LogRecord], IngestStats]:
    """Read records from a raw log file or a structured CSV, numbered from 0
    in input order. The reading is ``_read_contents``'s, which ``run()`` calls
    itself, so that it holds one string per record and no record object."""
    contents, stats = _read_contents(path, input_format, header_pattern)
    return list(map(LogRecord, range(len(contents)), contents)), stats


def _read_contents(
    path: str | Path, input_format: str = "raw", header_pattern: str | None = None
) -> tuple[list[str], IngestStats]:
    """Read the record contents of a raw log file or a structured CSV, in
    order, so that a record's line id is its index.

    Raw input takes one record per ``\n``-terminated line (a trailing ``\r``
    dropped); CSV input reads the ``Content`` column. A header pattern strips
    each line or ``Content``. Other characters that ``str.splitlines`` treats
    as line breaks stay inside the record. Blank records are skipped and
    counted, and undecodable bytes are replaced and counted rather than
    fatal. A UTF-8 byte-order mark at the start of the file is dropped.

    The file is read one line at a time, and nothing of it is held but the
    contents. Byte 0x0A is never part of a multi-byte UTF-8 sequence, so each
    line decodes as it would in the whole file.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    if input_format not in ("raw", "csv"):
        raise ConfigError(f"unknown input format: {input_format!r}")
    compiled = compile_header_pattern(header_pattern) if header_pattern else None
    decode_errors = 0

    def decoded(file):
        # U+FFFD characters already in the file decode as themselves and are
        # not decode errors.
        nonlocal decode_errors
        for line in file:
            text = line.decode("utf-8", "replace")
            if "\ufffd" in text:
                decode_errors += text.count("\ufffd") - line.count("\ufffd".encode())
            yield text

    kept: list[str] = []
    blank = 0
    with path.open("rb") as file:
        if file.read(3) != codecs.BOM_UTF8:
            file.seek(0)
        lines = decoded(file)
        try:
            if input_format == "raw":
                contents = (line.removesuffix("\n").removesuffix("\r") for line in lines)
            else:
                # One blank per row: an empty line, or a row whose Content is
                # blank or missing. Line breaks inside a quoted field belong
                # to its row.
                reader = csv.reader(lines)
                header = next(reader, None)
                if header is None or "Content" not in header:
                    raise ConfigError(f"structured input {path} has no Content column")
                column = header.index("Content")
                contents = (row[column] if column < len(row) else "" for row in reader)
            for content in contents:
                if compiled is not None:
                    content = strip_header(content, compiled)
                # Same as ``not content.strip()``, without the copy.
                if not content or content.isspace():
                    blank += 1
                    continue
                kept.append(content)
        except csv.Error as exc:
            # Raised, among others, for a field over csv.field_size_limit().
            raise ConfigError(f"cannot read structured input {path}: {exc}") from exc

    stats = IngestStats(record_count=len(kept), blank_lines=blank, decode_errors=decode_errors)
    return kept, stats


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, which ``taskset`` and container CPU sets narrow, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_width(count: int, jobs: int) -> int:
    """How many processes work ``count`` records, 1 meaning in process:
    ``min(jobs, usable CPUs)`` from ``_PARALLEL_THRESHOLD`` records where
    ``os.fork`` exists, while the process has one thread. A child holds only
    the forking thread, so a lock another thread held would stay held in it.
    """
    if count >= _PARALLEL_THRESHOLD and hasattr(os, "fork") and threading.active_count() == 1:
        return min(jobs, _usable_cpus())
    return 1


def _fork_ranges(count: int, workers: int, save: Callable, take: Callable) -> None:
    """Work ``[0, count)`` in ``workers`` contiguous ranges, each but the first
    in a forked child, which calls ``save(start, stop, file)`` and exits.

    The parent then calls ``take(start, stop, file)`` per range in record
    order, with the child's file once reaped, or with None where it works the
    range itself: the first, and that of a child that failed or was never
    forked. If the parent raises, its children are killed.
    """
    step = max(1, -(-count // workers))
    bounds = [(start, min(start + step, count)) for start in range(0, max(count, 1), step)]
    children: list[tuple[int | None, BinaryIO | None]] = []
    try:
        for start, stop in bounds[1:]:
            pid = file = None
            with suppress(OSError):
                file = tempfile.TemporaryFile()
                pid = os.fork()
            if pid == 0:
                try:
                    save(start, stop, file)
                    file.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            children.append((pid, file))
        take(*bounds[0], None)
        for index, ((start, stop), (pid, file)) in enumerate(zip(bounds[1:], children)):
            done = pid is not None and os.waitpid(pid, 0)[1] == 0
            children[index] = (None, file)
            if done:
                file.seek(0)
            take(start, stop, file if done else None)
    finally:
        for pid, file in children:
            if pid is not None:
                from signal import SIGKILL
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
            if file is not None:
                file.close()


def _mask_forked(contents: Sequence[str], workers: int) -> list[str]:
    """The contents' skeletons in order, one object per distinct one: the
    parent deduplicates each range once as it takes it, and a child its own
    range first, so that marshal writes and loads each skeleton once."""
    seen: dict[str, str] = {}
    ordered: list[str] = []

    def mask(start, stop):
        return list(skeletons(contents[start:stop]))

    def save(start, stop, file):
        keys = mask(start, stop)
        marshal.dump(list(map(seen.setdefault, keys, keys)), file)

    def take(start, stop, file):
        keys = marshal.load(file) if file else mask(start, stop)
        ordered.extend(map(seen.setdefault, keys, keys))

    _fork_ranges(len(contents), workers, save, take)
    return ordered


class _Rows(Sequence[ParsedRecord]):
    """A run's rows in record order, each built when it is read.

    ``contents[i]`` is the content of record ``i``, and ``readers[i]``
    returns its result: a dense group's reader (``statistical.read_columns``),
    which splits the message and reads its parameters, or the lookup into the
    sparse results. So the rows cost memory only while they are written. ``forms`` maps the reader
    of every dense group to the text ``,template,`` and the group's
    parameter reader.
    """

    __slots__ = ("_contents", "_readers", "_forms")

    def __init__(self, contents: Sequence[str], readers: list, forms: dict):
        self._contents = contents
        self._readers = readers
        self._forms = forms

    def __len__(self) -> int:
        return len(self._contents)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        # A negative index counts from the end; the line id is the record's.
        line_id = range(len(self))[index]
        content = self._contents[line_id]
        return ParsedRecord(line_id, content, self._readers[line_id](content))

    def __iter__(self) -> Iterator[ParsedRecord]:
        for line_id, (content, read) in enumerate(zip(self._contents, self._readers)):
            yield ParsedRecord(line_id, content, read(content))

    def write_lines(self, write: Callable[[str], object], start: int, stop: int) -> None:
        """Pass ``write`` the structured.csv lines of rows ``start`` to ``stop``
        (``_write_rows``), built from the contents and readers themselves."""
        rows = zip(range(start, stop), self._contents[start:stop], self._readers[start:stop])
        _write_rows(write, rows, self._forms)


def run(
    input_path: str | Path,
    config: RouterConfig | None = None,
    backend: llm.InferenceBackend | None = None,
    input_format: str = "raw",
    header_pattern: str | None = None,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Parse a corpus end to end and optionally write the output files."""
    config = config or RouterConfig()
    config.validate()
    backend = backend or llm.MockBackend()
    started_at = perf_counter()

    # The cyclic collector stays off while computing (module docstring).
    collecting = gc.isenabled()
    gc.disable()
    try:
        contents, ingest_stats = _read_contents(input_path, input_format, header_pattern)
        ledger = CostLedger()
        workers = _fork_width(len(contents), config.jobs)
        # The skeletons go straight into route(), so they die when it returns
        # instead of living through extraction and writing; in process they
        # stream, one batch at a time.
        dense, sparse, routing_stats = route(
            enumerate(contents),
            config,
            _mask_forked(contents, workers) if workers > 1 else skeletons(contents),
        )
        ledger.add_routing_counts(routing_stats.dense_records, routing_stats.sparse_records)

        # A line id is the index of its content, and of its reader.
        readers: list = [None] * len(contents)
        forms: dict = {}
        catalog: Counter = Counter()
        for group in dense:
            template, read, parameters = statistical.read_columns(group)
            forms[read] = (f",{template},", parameters)
            for member in group.member_groups:
                for line_id in member.record_ids:
                    readers[line_id] = read
                catalog[template] += len(member.record_ids)
        # The sparse side mostly waits on the backend, so the collector comes
        # back on around it when the caller had it on.
        if collecting:
            gc.enable()
        try:
            sparse_results = llm.process_sparse(sparse, backend, config, ledger)
        finally:
            gc.disable()
        lookup = sparse_results.__getitem__
        for item in sparse:
            for line_id in item.group.record_ids:
                readers[line_id] = lookup
                catalog[lookup(contents[line_id]).template] += 1
        if None in readers:
            raise InternalInvariantError(
                f"record {readers.index(None)} missing from routing output"
            )
        rows = _Rows(contents, readers, forms)

        if out_dir is None:
            ledger.set_wall_time(perf_counter() - started_at)
        else:
            write_output(
                rows, catalog, ledger, out_dir, config=config, routing=routing_stats,
                ingest_stats=ingest_stats, started_at=started_at,
            )
        return RunResult(
            rows=rows, catalog=catalog, ledger=ledger, routing=routing_stats, ingest=ingest_stats
        )
    finally:
        if collecting:
            gc.enable()


def escape_parameters(parameters: Sequence[str]) -> str:
    """Join parameters with ``|``, escaping ``\\`` as ``\\\\`` and ``|`` as ``\\|``; a
    run's dense row whose message holds neither skips this (``_write_rows``)."""
    return "|".join(
        parameter.replace("\\", "\\\\").replace("|", "\\|") for parameter in parameters
    )


def unescape_parameters(text: str) -> list[str]:
    """Split ``escape_parameters`` output back into the parameters it joined."""
    if not text:
        return []
    parameters: list[str] = []
    current: list[str] = []
    chars = iter(text)
    for char in chars:
        if char == "|":
            parameters.append("".join(current))
            current = []
        elif char == "\\":
            current.append(next(chars, char))
        else:
            current.append(char)
    parameters.append("".join(current))
    return parameters


def _is_plain(field: str) -> bool:
    r"""True when the field holds none of ``,`` ``"`` ``\r`` ``\n`` ``\0``.

    The writers' ``csv.writer`` (``_Lines``) writes such a field as it is on
    every Python version. It quotes the first four, and on 3.10 refuses ``\0``.
    """
    # Five substring scans cost about a tenth of one character-class regex search.
    return not (
        "," in field or '"' in field or "\r" in field or "\n" in field or "\0" in field
    )


class _Lines(list):
    r"""A list that ``csv.writer(lines, lineterminator="\r\n")`` writes to, each
    line cut to end ``\n`` in its place among those appended directly. That
    terminator makes Python 3.10-3.12 quote ``\r`` too, as 3.13 does."""

    def write(self, line: str) -> None:
        self.append(line[:-2] + "\n")


def _write_rows(
    write: Callable[[str], object], rows: Iterable[tuple], forms: dict | None = None
) -> None:
    r"""Pass ``write`` the structured.csv lines of ``rows``, ``_ROWS_PER_WRITE``
    at a time, as ``_Lines``' ``csv.writer`` would write them: a caller's
    ``ParsedRecord``s, or with ``forms`` (``_Rows._forms``) a run's
    ``(line_id, content, read)``. A run's dense row, whose reader is in
    ``forms``, is formatted from one split when its content holds none of
    ``,"\r\n\0|\``: its group's template is made of the content's tokens and
    ``<*>``, and its parameters, tokens of the content, need no escaping.
    Every other row is formatted directly when its fields are all plain
    (``_is_plain``), else, its bytes or its error, by ``csv.writer``."""
    lines = _Lines()
    append, quoted = lines.append, csv.writer(lines, lineterminator="\r\n")
    for line_id, content, result in rows:
        if len(lines) >= _ROWS_PER_WRITE:
            write("".join(lines))
            lines.clear()
        if forms is not None:
            form = forms.get(result)
            if form and _is_plain(content) and "|" not in content and "\\" not in content:
                append(f"{line_id},{content}{form[0]}{'|'.join(form[1](content))}\n")
                continue
            result = result(content)
        template, values, _ = result
        parameters = escape_parameters(values)
        if _is_plain(template) and _is_plain(content) and _is_plain(parameters):
            append(f"{line_id},{content},{template},{parameters}\n")
        else:
            quoted.writerow([line_id, content, template, parameters])
    write("".join(lines))


def _write_structured(handle: TextIO, rows: Sequence[ParsedRecord], jobs: int) -> None:
    """Write structured.csv's header, then its rows: a run's (``_Rows``) in
    forked children where ``_fork_width`` allows at ``jobs``, whose encoded
    lines the parent appends to ``handle``'s bytes; any other rows in process."""
    handle.write("LineId,Content,EventTemplate,Parameters\n")
    if not isinstance(rows, _Rows):
        _write_rows(handle.write, rows)
        return

    def save(start, stop, file):
        rows.write_lines(lambda text: file.write(text.encode()), start, stop)

    def take(start, stop, file):
        if file is None:
            rows.write_lines(handle.write, start, stop)
        else:
            handle.flush()
            shutil.copyfileobj(file, handle.buffer)

    _fork_ranges(len(rows), _fork_width(len(rows), jobs), save, take)


def write_output(
    rows: Sequence[ParsedRecord],
    catalog: Counter,
    ledger: CostLedger,
    out_dir: str | Path,
    config: RouterConfig | None = None,
    routing: RoutingStats | None = None,
    ingest_stats: IngestStats | None = None,
    started_at: float | None = None,
) -> None:
    """Write structured.csv, templates.csv and run.json into out_dir.

    A run's rows fork as ``config.jobs`` allows, none without a config
    (``_write_structured``). The wall clock stops after the CSVs are on disk,
    so the figure recorded in run.json covers ingest, processing and the bulk
    of output writing. An unwritable directory, or a row ``csv.writer``
    (``_Lines``) refuses, raises ConfigError.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "structured.csv", "w", encoding="utf-8", newline="") as handle:
            _write_structured(handle, rows, config.jobs if config else 1)
        lines = _Lines()
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(["EventTemplate", "Occurrences"])
        writer.writerows(sorted(catalog.items(), key=lambda kv: (-kv[1], kv[0])))
        with open(out / "templates.csv", "w", encoding="utf-8", newline="") as handle:
            handle.write("".join(lines))
        if started_at is not None:
            ledger.set_wall_time(perf_counter() - started_at)
        report = {
            "ledger": ledger.to_dict(),
            "config": config.to_dict() if config else None,
            "routing": routing.to_dict() if routing else None,
            "ingest": ingest_stats.to_dict() if ingest_stats else None,
        }
        with open(out / "run.json", "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except (OSError, csv.Error) as exc:
        # csv.Error: Python 3.10's csv.writer refuses a field holding NUL.
        raise ConfigError(f"cannot write outputs to {out}: {exc}") from exc
