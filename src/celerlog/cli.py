"""Command-line front end: the ``parse`` and ``eval`` subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__, pipeline
from .llm import HttpBackend, MockBackend
from .model import CelerlogError, RouterConfig

API_KEY_ENV = "CELERLOG_API_KEY"


def build_parser() -> argparse.ArgumentParser:
    defaults = RouterConfig()
    parser = argparse.ArgumentParser(
        prog="celerlog",
        description="Hybrid log template extraction: statistical parsing for "
        "dense groups, LLM inference for sparse ones.",
    )
    parser.add_argument("--version", action="version", version=f"celerlog {__version__}")
    subcommands = parser.add_subparsers(dest="command", metavar="{parse,eval}")

    parse_cmd = subcommands.add_parser("parse", help="parse a log file into templates")
    parse_cmd.add_argument("--input", required=True, help="input log file")
    parse_cmd.add_argument(
        "--format", choices=("raw", "csv"), default="raw",
        help="raw lines or a structured CSV with a Content column",
    )
    parse_cmd.add_argument(
        "--header-pattern", default=None,
        help="regex with a named 'content' group stripping the header of a line or CSV Content",
    )
    parse_cmd.add_argument("--output", required=True, help="directory for the output files")
    parse_cmd.add_argument("--alpha", type=float, default=defaults.alpha,
                           help="anchor budget as a fraction of bucket size")
    parse_cmd.add_argument("--p-quantile", type=float, default=defaults.p_quantile,
                           help="singleton-ratio limit for threshold selection")
    parse_cmd.add_argument("--jobs", type=int, default=defaults.jobs,
                           help="processes that mask and write structured.csv (at most the "
                           "usable CPUs), and in-flight LLM requests")
    parse_cmd.add_argument("--batch-size", type=int, default=defaults.llm_batch_size,
                           help="messages per LLM request")
    parse_cmd.add_argument("--backend", choices=("mock", "http"), default="mock",
                           help="inference backend for sparse groups")
    parse_cmd.add_argument("--endpoint", default=None,
                           help="chat-completions endpoint URL (http backend)")
    parse_cmd.add_argument("--model", default=None, help="model name (http backend)")

    eval_cmd = subcommands.add_parser("eval", help="score a parse against ground truth")
    eval_cmd.add_argument("--structured", required=True, help="structured.csv to score")
    eval_cmd.add_argument("--ground-truth", required=True,
                          help="CSV with LineId and EventTemplate columns")
    eval_cmd.add_argument("--report", required=True, help="where to write the JSON report")
    return parser


def _run_parse(args: argparse.Namespace) -> int:
    config = RouterConfig(
        alpha=args.alpha,
        p_quantile=args.p_quantile,
        jobs=args.jobs,
        llm_batch_size=args.batch_size,
    )
    if args.backend == "http":
        backend = HttpBackend(
            endpoint=args.endpoint or "",
            model=args.model or "",
            api_key=os.environ.get(API_KEY_ENV),
        )
    else:
        backend = MockBackend()
    result = pipeline.run(
        args.input,
        config=config,
        backend=backend,
        input_format=args.format,
        header_pattern=args.header_pattern,
        out_dir=args.output,
    )
    print(
        f"parsed {result.ingest.record_count} records into "
        f"{len(result.catalog)} templates "
        f"({result.routing.dense_records} dense, {result.routing.sparse_records} sparse) "
        f"in {result.ledger.wall_time_seconds:.2f}s"
    )
    return 0


def _run_eval(args: argparse.Namespace) -> int:
    from . import evaluation
    predictions = evaluation.load_template_csv(args.structured)
    ground_truth = evaluation.load_template_csv(args.ground_truth)
    metrics = evaluation.evaluate(predictions, ground_truth)

    # A run.json that is unreadable, or not an object, is left out of the
    # report, and so is a ledger or routing entry that is not an object.
    info = None
    try:
        info = json.loads((Path(args.structured).parent / "run.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        pass
    if not isinstance(info, dict):
        info = {}
    ledger, routing = info.get("ledger"), info.get("routing")
    evaluation.report(
        metrics,
        args.report,
        ledger=ledger if isinstance(ledger, dict) else None,
        routing=routing if isinstance(routing, dict) else None,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.command == "parse":
            return _run_parse(args)
        return _run_eval(args)
    except (CelerlogError, OSError) as exc:
        print(f"celerlog: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
