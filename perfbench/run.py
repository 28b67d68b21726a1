"""celerlog benchmark: generate a workload from a seed, parse it end to end, check it.

Usage, from the repository root::

    python3 perfbench/run.py --workload mixed-20k --seed 1 --seconds 35 --trace 0

The corpus and its true templates come from ``perfbench/corpus.py``. Every
timed repetition runs ``celerlog.run`` in a fresh child process, one child at
a time, so the program's caches start cold as they do for a command-line user.
A repetition is a ``jobs=1`` child and a ``jobs=nproc`` child with ``--trace 0``,
or a ``jobs=1`` child and a traced child with ``--trace 1``. Repetitions
continue while another one fits in ``--seconds``; at least one always runs.

Times are medians over the repetitions, rescaled to a reference machine speed
measured by ``perfbench/gauge.py`` during the same run: compute time is
multiplied by the gauge's speed, and the time during which a request to the
simulated LLM service was in flight is kept as measured. This keeps the drift
of a shared machine out of the figures; the summary lines also print the
times as measured.

Every output is checked: identical bytes across children, one row per input
line in order, template occurrences summing to the record count, and each
row's template and parameters rebuilding its content. Any failed check marks
its child as failed and makes the command exit with status 1. The last line
of standard output is one JSON object with the metrics named in
``BENCHMARK.json``: the end-to-end ones with ``--trace 0``, the per-layer ones
with ``--trace 1``. Temporary files live under ``.perfbench/`` in the root.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import CorpusSpec, generate
from gauge import SpeedGauge

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Simulated service time of the sparse-llm backend: per request, and per
#: prompt token. A one-message prompt of about 300 tokens takes about 5 ms.
LLM_REQUEST_S = 0.002
LLM_TOKEN_S = 0.00001

#: Workload name -> (corpus shape, backend delays per request and per token).
WORKLOADS = {
    # 3k one-offs packed into 4 length buckets of about 750 groups each make
    # anchor merging, quadratic in a bucket's size, dominate.
    "mixed-20k": (CorpusSpec(20_000, 50, 3_000, (4, 8)), 0.0, 0.0),
    # Few one-offs spread thin, about 4 per length bucket: merging costs next
    # to nothing, and the time goes to masking, column statistics, ingest and
    # writing.
    "dense-40k": (CorpusSpec(40_000, 50, 200, (4, 54)), 0.0, 0.0),
    # One-offs carrying values, spread over 60 buckets, answered by a backend
    # with service latency: the LLM path dominates.
    "sparse-llm": (CorpusSpec(12_000, 50, 1_000, (4, 64), (1, 2)), LLM_REQUEST_S, LLM_TOKEN_S),
}

#: Extra children that only import celerlog and load its fixtures, so that
#: set-up time is a median over several samples in every run.
SETUP_PROBES = 5

#: The whole command must end within this many seconds.
DEADLINE_S = 170.0

OUTPUT_FILES = ("structured.csv", "templates.csv")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Spawns children one at a time and collects their results."""

    def __init__(self, work: Path, corpus: Path, delays: tuple[float, float], started: float):
        self.work = work
        self.corpus = corpus
        self.delays = delays
        self.started = started
        self.count = 0
        self.setup_s: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0))
        self.gauge = SpeedGauge()

    def spawn(self, mode: str, jobs: int = 1, run_id: str = "") -> dict:
        """Run one child; return its result, or raise CheckFailed.

        A child with ``jobs=1`` is pinned to one CPU, taking turns, and the
        speed gauge runs on another one until the child exits.
        """
        self.count += 1
        out = self.work / f"out-{self.count}"
        spare = len(self.cpus) > 1 and jobs == 1
        cpus = [self.cpus[self.count % len(self.cpus)]] if spare else self.cpus
        request = {
            "mode": mode, "jobs": jobs, "corpus": str(self.corpus), "out": str(out),
            "request_s": self.delays[0], "token_s": self.delays[1], "cpus": cpus,
            "result": str(self.work / f"result-{self.count}.json"), "run_id": run_id,
        }
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        # A session of its own, so that the child's worker processes can be
        # killed with it.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            if spare:
                gauge_cpu = next(cpu for cpu in self.cpus if cpu != cpus[0])
                with self.gauge.alongside(gauge_cpu):
                    _, stderr = proc.communicate(timeout=max(timeout, 1.0))
            else:
                _, stderr = proc.communicate(timeout=max(timeout, 1.0))
                if len(self.cpus) == 1:
                    self.gauge.between()
        except BaseException as exc:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise CheckFailed(f"{mode} child timed out") from exc
            raise
        if proc.returncode != 0:
            raise CheckFailed(f"{mode} child exited {proc.returncode}: {stderr[-2000:]}")
        result = json.loads(Path(request["result"]).read_text(encoding="utf-8"))
        self.setup_s.append(result["ready"] - spawned)
        result["out"] = out
        return result


def output_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


def check_outputs(out: Path, lines: list[str], truth: list[str]) -> dict[str, float]:
    """Check one output directory against the corpus; return its accuracy."""
    from celerlog.evaluation import evaluate
    from celerlog.model import PLACEHOLDER, TemplateResult
    from celerlog.pipeline import unescape_parameters

    predictions: dict[int, str] = {}
    with open(out / "structured.csv", encoding="utf-8", newline="") as handle:
        for index, row in enumerate(csv.DictReader(handle)):
            if index >= len(lines) or int(row["LineId"]) != index or row["Content"] != lines[index]:
                raise CheckFailed(f"structured.csv row {index} does not match input line {index}")
            template = row["EventTemplate"]
            parameters = tuple(unescape_parameters(row["Parameters"]))
            if len(parameters) != template.split().count(PLACEHOLDER) or TemplateResult(
                template, parameters, ""
            ).token_sequence() != row["Content"].split():
                raise CheckFailed(f"structured.csv row {index} does not rebuild its content")
            predictions[index] = template
    if len(predictions) != len(lines):
        raise CheckFailed(f"structured.csv has {len(predictions)} rows for {len(lines)} lines")
    with open(out / "templates.csv", encoding="utf-8", newline="") as handle:
        occurrences = sum(int(row["Occurrences"]) for row in csv.DictReader(handle))
    if occurrences != len(lines):
        raise CheckFailed(f"templates.csv occurrences sum to {occurrences}, not {len(lines)}")
    metrics = evaluate(predictions, dict(enumerate(truth)))
    return {"ga": metrics.ga, "pa": metrics.pa, "fta": metrics.fta}


def measure(runner: Runner, modes: list[tuple[str, int]], seconds: float, run_id: str):
    """Run repetitions of ``modes`` while another fits; return (results, failures)."""
    results: list[tuple[str, int, dict]] = []
    failures: list[str] = []
    began = time.monotonic()
    while True:
        rep_began = time.monotonic()
        for mode, jobs in modes:
            try:
                results.append((mode, jobs, runner.spawn(mode, jobs, run_id)))
            except CheckFailed as exc:
                failures.append(str(exc))
        now = time.monotonic()
        if failures or now - began + (now - rep_began) > seconds:
            return results, failures


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "celerlog" / "__init__.py").is_file():
        print(f"error: no celerlog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wanted = declared_metrics(bool(args.trace))
    spec, request_s, token_s = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))

    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        lines, truth = generate(spec, args.seed)
        corpus = work / "corpus.log"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        runner = Runner(work, corpus, (request_s, token_s), started)
        run_id = f"{args.workload}/{args.seed}/{os.getpid()}"
        failures: list[str] = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                try:
                    runner.spawn("setup")
                except CheckFailed as exc:
                    failures.append(str(exc))
        modes = [("run", 1), ("trace", 1)] if args.trace else [("run", 1), ("run", nproc)]
        results, more = measure(runner, modes, args.seconds, run_id)
        failures.extend(more)

        # Every child's outputs must match the first child's byte for byte;
        # the first child's outputs are checked in full. The cost counters
        # must not depend on the worker count either.
        accuracy: dict[str, float] = {}
        reference = reference_error = None
        costs = None
        for mode, jobs, result in results:
            try:
                digest = output_digest(result["out"])
                if reference is None:
                    reference = digest
                    try:
                        accuracy = check_outputs(result["out"], lines, truth)
                    except CheckFailed as exc:
                        reference_error = str(exc)
                if digest != reference:
                    raise CheckFailed("outputs differ from the first child's")
                if reference_error:
                    raise CheckFailed(reference_error)
                if mode == "run":
                    if result["records"] != len(lines):
                        raise CheckFailed(f"run parsed {result['records']} of {len(lines)} records")
                    result["ledger"].pop("wall_time_seconds")
                    costs = costs or result["ledger"]
                    if result["ledger"] != costs:
                        raise CheckFailed(f"ledger {result['ledger']} differs from {costs}")
                    inflight = result["llm_inflight_max"]
                else:
                    inflight = result["layer"]["llm.inflight_max"]
                if inflight > jobs:
                    raise CheckFailed(f"{inflight} requests in flight with jobs={jobs}")
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"{mode} jobs={jobs}: {exc}")
            shutil.rmtree(result["out"], ignore_errors=True)

        attempted = runner.count
        if failures:
            for failure in failures:
                print(f"FAILED: {failure}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": len(failures), "metrics": {}}))
            return 1

        def median(mode: str, jobs: int, key) -> float:
            return statistics.median(key(r) for m, j, r in results if m == mode and j == jobs)

        # Compute time is rescaled to the reference machine; time spent
        # waiting on the simulated service does not depend on the machine.
        speed = runner.gauge.speed()

        def rescaled(r: dict) -> float:
            waited = min(r["wait_s"], r["parse_s"])
            return waited + (r["parse_s"] - waited) * speed

        parse_j1 = median("run", 1, lambda r: r["parse_s"])
        if args.trace:
            traced = [r for m, _, r in results if m == "trace"]
            values = {name: statistics.median(r["layer"][name] for r in traced)
                      for name in traced[0]["layer"]}
            total = statistics.median(r["total_s"] for r in traced)
            values["trace.overhead_frac"] = (total - parse_j1) / parse_j1
            trace_dir = ROOT / ".perfbench" / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"run_id": run_id, "spans": traced[0]["spans"],
                            "self_times": traced[0]["self_times"]}),
                encoding="utf-8",
            )
            samples = len(traced)
        else:
            values = {
                "setup_s": statistics.median(runner.setup_s) * speed,
                "parse_s_j1": median("run", 1, rescaled),
                "parse_s_jN": median("run", nproc, rescaled),
                "peak_rss_mb": median("run", 1, lambda r: r["peak_rss_mb"]),
                "llm_requests": costs["llm_invocations"],
                "llm_tokens": costs["tokens_consumed"],
                "sparse_frac": costs["sparse_record_count"] / len(lines),
                **accuracy,
            }
            samples = len(results) // 2
        if set(values) != set(wanted):
            raise SystemExit(f"metrics {sorted(set(values) ^ set(wanted))} disagree with BENCHMARK.json")
        print(f"# workload={args.workload} seed={args.seed} nproc={nproc} jN={nproc} "
              f"repetitions={samples} setup_samples={len(runner.setup_s)} "
              f"attempted={attempted} failed=0 failed_frac=0 speed={speed:.4f} "
              f"gauge_rounds={runner.gauge.rounds}")
        if not args.trace:
            print(f"# measured before rescaling: setup_s = {statistics.median(runner.setup_s):.6g} s, "
                  f"parse_s_j1 = {parse_j1:.6g} s, "
                  f"parse_s_jN = {median('run', nproc, lambda r: r['parse_s']):.6g} s")
        for name, unit in wanted.items():
            print(f"# {name} = {values[name]:.6g} {unit}")
        print(json.dumps({
            "correct": True, "attempted": attempted, "failed": 0,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
