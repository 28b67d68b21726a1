"""End-to-end orchestration: ingest, route, process, write outputs.

``run()`` takes the same path at every ``jobs`` value. Routing goes through
``routing.route()``, the one routing path. When ``_pool_workers`` allows
more than one worker, the record contents are masked on a fork-context
process pool (``_mask_on_pool``), which inherits the records and sends back
each index range's skeletons, and the skeletons are passed to ``route()`` in
record order; otherwise ``route()`` masks them in process. The pool is taken
only from ``_PARALLEL_THRESHOLD`` records, the measured break-even of two
workers on 2 vCPUs (its comment holds the table): below it, forking and
importing the pool cost more than the second worker saves, so none of the
benchmark workloads takes it. ``multiprocessing`` and
``concurrent.futures`` load only on that pool path, in ``_mask_on_pool``.

The phases run in order on the calling thread: every dense group gets its
template and a reader of its messages (``statistical.read_columns``), then
``llm.process_sparse`` sends the sparse groups to the backend. Neither side
reads the other's results, so the order cannot change the output, and a
dense-side error raises before any LLM request is sent. Threads start only
inside ``process_sparse``, none at ``jobs=1``, and all are joined before it
returns or raises. The template catalog is counted per group. The rows are
a lazy sequence (``_Rows``) in record order: each row is built, its message
split and its parameters read, only when it is read, so no row outlives its
write and output bytes never depend on the worker count.

The cyclic garbage collector is off while ``run()`` computes, from ingest
through writing: those phases allocate millions of objects that hold no
cycles, and each collection traverses the live ones. On dense-40k the
collector took about a tenth of a run, in 340 collections. When the caller
had it on, it comes back on only around the ``process_sparse`` call, which
mostly waits and whose failed requests do leave cycles: with the collector
off, 50 refused ``HttpBackend`` requests to 127.0.0.1 left 5,550 objects of
cyclic garbage (111 each), while 200 answered ones left none. So a long HTTP
run still collects. ``run()`` restores the caller's setting however it
exits. The pool's workers are forked while it is off, and a forked process
inherits the collector state, so they mask with it off too.
"""

from __future__ import annotations

import csv
import gc
import json
import os
from collections import Counter
from itertools import chain, repeat
from operator import add
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

from . import llm, statistical
from .masking import compile_header_pattern, skeleton, strip_header
from .model import (
    ConfigError,
    CostLedger,
    InternalInvariantError,
    LogRecord,
    RouterConfig,
    TemplateResult,
)
from .routing import RoutingStats, route

#: Below this many records the masking pool costs more than it saves. It is
#: the break-even of the two-worker pool on 2 vCPUs: fresh processes timed
#: ``_mask_on_pool(records, 2)`` against masking the same records in process,
#: 6 alternating pairs per size and sweep, on corpora shaped like the
#: benchmark's dense-40k (``CorpusSpec(n, 50, n // 200, (4, 54))``, seed 1).
#: Pool wins per sweep, and the medians of all pairs in ms (pool / in
#: process):
#:
#:   n        20k   30k   40k   50k   60k     70k   80k   90k   100k
#:   wins     1,1,1 2,3,0 2,4,1 6,6,3 5,3,4,5 6,4,3 4,5,4 4,5,5 6,4,5
#:   pool     109   130   139   168   191     250   287   277   290
#:   process  99    109   132   168   198     249   281   288   335
#:
#: 50,000 is the smallest size at which the pool won at least five pairs in
#: six (15 of 18). Above it the pool wins most pairs, but its median gain is
#: small up to 100,000 records: masking by plan (``masking.skeleton``) left
#: little for a second worker to take over.
_PARALLEL_THRESHOLD = 50_000

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
    path: str | Path,
    input_format: str = "raw",
    header_pattern: str | None = None,
) -> tuple[list[LogRecord], IngestStats]:
    """Read records from a raw log file or a structured CSV.

    Raw input takes one record per ``\n``-terminated line (a trailing ``\r``
    dropped) after header stripping; CSV input reads the ``Content`` column.
    Other characters that ``str.splitlines`` treats as line breaks stay inside
    the record. Blank lines are skipped and counted, and undecodable bytes are
    replaced and counted rather than fatal. A UTF-8 byte-order mark at the
    start of the file is dropped.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"input file not found: {path}")
    compiled = compile_header_pattern(header_pattern) if header_pattern else None

    # Neither the bytes nor the decoded text outlives the step that needs it:
    # holding the bytes, the text and the lines together peaked at about 3.8
    # times the file size. U+FFFD characters already in the file decode as
    # themselves and are not decode errors.
    data = path.read_bytes()
    valid_replacements = data.count("\ufffd".encode())
    text = data.decode("utf-8-sig", errors="replace")
    del data
    decode_errors = text.count("\ufffd") - valid_replacements

    records: list[LogRecord] = []
    blank = 0
    if input_format == "raw":
        lines = text.split("\n")
        del text
        if lines[-1] == "":
            lines.pop()
        for line in lines:
            content = line.removesuffix("\r")
            if compiled is not None:
                content = strip_header(content, compiled)
            # Same as ``not content.strip()``, without the copy.
            if not content or content.isspace():
                blank += 1
                continue
            records.append(LogRecord(len(records), content))
    elif input_format == "csv":
        # One blank per row: an empty line, or a row whose Content is blank or
        # missing. Line breaks inside a quoted field belong to its row. The
        # reader gets the lines a StringIO of the text would yield, split at
        # "\n" only and each keeping it, without that StringIO's copy of the
        # text at 4 bytes a character. The lines are reversed behind a None
        # and popped as the reader takes them, so each is freed once read.
        lines = text.split("\n")
        del text
        last = lines.pop()
        lines.append(None)
        lines.reverse()
        taken = map(add, iter(lines.pop, None), repeat("\n"))
        reader = csv.reader(chain(taken, [last] if last else ()))
        try:
            header = next(reader, None)
            if header is None or "Content" not in header:
                raise ConfigError(f"structured input {path} has no Content column")
            column = header.index("Content")
            for row in reader:
                content = row[column] if column < len(row) else ""
                if not content or content.isspace():
                    blank += 1
                    continue
                records.append(LogRecord(len(records), content))
        except csv.Error as exc:
            # Raised, among others, for a field over csv.field_size_limit().
            raise ConfigError(f"cannot read structured input {path}: {exc}") from exc
    else:
        raise ConfigError(f"unknown input format: {input_format!r}")

    stats = IngestStats(record_count=len(records), blank_lines=blank, decode_errors=decode_errors)
    return records, stats


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one, which ``taskset`` and container CPU sets narrow, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_workers(count: int, jobs: int) -> int:
    """How many processes mask ``count`` records; 1 means in process.

    The pool is taken from ``_PARALLEL_THRESHOLD`` records where ``os.fork``
    exists, when ``jobs`` and the usable CPUs both exceed 1. It never has more
    workers than usable CPUs, which would only take turns.
    """
    if count >= _PARALLEL_THRESHOLD and hasattr(os, "fork"):
        return min(jobs, _usable_cpus())
    return 1


#: The per-record call of ``_mask_range``, a name of this module so that a
#: test can replace it.
_skeleton = skeleton


def _keep_records(records: Sequence[LogRecord]) -> None:
    """Pool initializer: the records a forked worker masks by index range."""
    global _worker_records
    _worker_records = records


def _mask_range(bounds: tuple[int, int]) -> list[str]:
    """The skeletons of the worker's records ``start:stop``, each distinct one
    a single object, so pickle sends it once and the parent shares it."""
    start, stop = bounds
    seen: dict[str, str] = {}
    skeletons = []
    for _, content in _worker_records[start:stop]:
        key = _skeleton(content)
        skeletons.append(seen.setdefault(key, key))
    return skeletons


def _mask_on_pool(records: Sequence[LogRecord], workers: int) -> list[str]:
    """Mask record contents on a fork-context pool of ``workers`` processes.

    ``workers`` comes from ``_pool_workers``. They are forked from ``run()``
    with the cyclic collector off, and inherit that state. The records reach
    them through the pool's initializer, which a forked worker inherits
    unpickled, so each call sends an index range, about four per worker, and
    returns that range's skeletons (``_mask_range``). ``Executor.map`` yields
    the ranges in record order, independent of completion order. The first
    failed range in record order raises at once, cancelling the ranges not
    yet started and without waiting for the running ones.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    count = len(records)
    step = max(1, -(-count // (workers * 4)))
    ranges = [(start, min(start + step, count)) for start in range(0, count, step)]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_keep_records,
        initargs=(records,),
    )
    try:
        # Every range is submitted here, so the OSError of a failed fork
        # passes through unwrapped.
        mapped = pool.map(_mask_range, ranges)
        skeletons: list[str] = []
        try:
            for part in mapped:
                skeletons.extend(part)
        except Exception as exc:
            raise InternalInvariantError(f"masking worker failed: {exc}") from exc
    except BaseException:
        # A context manager would wait here for every submitted range.
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown()
    return skeletons


class _Rows(Sequence[ParsedRecord]):
    """A run's rows in record order, each built when it is read.

    ``readers[i]`` returns the result of record ``i``'s content: a dense
    group's reader (``statistical.read_columns``), which splits the message
    and reads its parameters, or the lookup into the sparse results. So the
    rows cost memory only while they are written.
    """

    __slots__ = ("_records", "_readers")

    def __init__(
        self,
        records: Sequence[LogRecord],
        readers: Sequence[Callable[[str], TemplateResult]],
    ) -> None:
        self._records = records
        self._readers = readers

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        line_id, content = self._records[index]
        return ParsedRecord(line_id, content, self._readers[index](content))

    def __iter__(self) -> Iterator[ParsedRecord]:
        for (line_id, content), read in zip(self._records, self._readers):
            yield ParsedRecord(line_id, content, read(content))


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
        records, ingest_stats = ingest(input_path, input_format, header_pattern)
        ledger = CostLedger()
        workers = _pool_workers(len(records), config.jobs)
        # The skeletons go straight into route(), so they die when it returns
        # instead of living through extraction and writing.
        dense, sparse, routing_stats = route(
            records, config, _mask_on_pool(records, workers) if workers > 1 else None
        )
        ledger.add_routing_counts(routing_stats.dense_records, routing_stats.sparse_records)

        # ingest numbers the records from 0, so a line id indexes ``readers``.
        readers: list = [None] * len(records)
        catalog: Counter = Counter()
        for group in dense:
            template, read = statistical.read_columns(group)
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
                catalog[lookup(records[line_id].content).template] += 1
        if None in readers:
            raise InternalInvariantError(
                f"record {readers.index(None)} missing from routing output"
            )
        rows = _Rows(records, readers)

        if out_dir is not None:
            write_output(
                rows,
                catalog,
                ledger,
                out_dir,
                config=config,
                routing=routing_stats,
                ingest_stats=ingest_stats,
                started_at=started_at,
            )
        ledger.set_wall_time(perf_counter() - started_at)
        return RunResult(
            rows=rows, catalog=catalog, ledger=ledger, routing=routing_stats, ingest=ingest_stats
        )
    finally:
        if collecting:
            gc.enable()


def escape_parameters(parameters: Sequence[str]) -> str:
    """Join parameters with ``|``, escaping ``\\`` as ``\\\\`` and ``|`` as ``\\|``."""
    joined = "|".join(parameters)
    # Only the separators hold "|" when the count is one less than the
    # parameters; with no "\\" either there is nothing to escape.
    if "\\" not in joined and joined.count("|") < len(parameters):
        return joined
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

    ``csv.writer`` writes such a field as it is on every Python version. It
    quotes the first four, except ``\r`` before 3.13, and on 3.10 it refuses
    ``\0``.
    """
    # Five substring scans cost about a tenth of one character-class regex search.
    return not (
        "," in field or '"' in field or "\r" in field or "\n" in field or "\0" in field
    )


class _Lines(list):
    """A list that ``csv.writer`` can write to, so that its rows keep their place."""

    write = list.append


def _write_structured(handle: TextIO, rows: Sequence[ParsedRecord]) -> None:
    """Write the structured.csv bytes that ``csv.writer`` would write.

    A row whose fields are all plain (``_is_plain``) is formatted directly;
    every other row goes through ``csv.writer``, so its bytes, or its error,
    are ``csv.writer``'s on every Python version. Whether a template is plain
    is decided once per distinct template. Rows reach the file
    ``_ROWS_PER_WRITE`` at a time, so the buffer stays small however many rows
    there are.
    """
    lines = _Lines()
    quoted = csv.writer(lines, lineterminator="\n")
    quoted.writerow(["LineId", "Content", "EventTemplate", "Parameters"])
    plain_templates: dict[str, bool] = {}
    for line_id, content, (template, values, _) in rows:
        plain = plain_templates.get(template)
        if plain is None:
            plain = plain_templates[template] = _is_plain(template)
        parameters = escape_parameters(values)
        if plain and _is_plain(content) and _is_plain(parameters):
            lines.append(f"{line_id},{content},{template},{parameters}\n")
        else:
            quoted.writerow([line_id, content, template, parameters])
        if len(lines) >= _ROWS_PER_WRITE:
            handle.write("".join(lines))
            lines.clear()
    handle.write("".join(lines))


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

    The wall clock stops after the CSVs are on disk, so the figure recorded in
    run.json covers ingest, processing and the bulk of output writing. An
    unwritable directory, or a row ``csv.writer`` refuses, raises ConfigError.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "structured.csv", "w", encoding="utf-8", newline="") as handle:
            _write_structured(handle, rows)
        with open(out / "templates.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["EventTemplate", "Occurrences"])
            for template, count in sorted(catalog.items(), key=lambda kv: (-kv[1], kv[0])):
                writer.writerow([template, count])
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
