"""celerlog: fast hybrid log template extraction.

A dynamic router splits a corpus into dense groups (parameter-rich, parsed by
column statistics) and sparse groups (isolated one-offs, parsed by an LLM
backend with validation and rollback).
"""

__version__ = "0.1.0"

from .llm import HttpBackend, MockBackend
from .model import (
    CostLedger,
    DenseGroup,
    LogBucket,
    LogRecord,
    RouterConfig,
    SkeletonGroup,
    SparseGroup,
    TemplateResult,
)
from .pipeline import RunResult, run
from .routing import route

__all__ = [
    "__version__",
    "CostLedger",
    "DenseGroup",
    "HttpBackend",
    "LogBucket",
    "LogRecord",
    "Metrics",
    "MockBackend",
    "RouterConfig",
    "RunResult",
    "SkeletonGroup",
    "SparseGroup",
    "TemplateResult",
    "evaluate",
    "route",
    "run",
]


def __getattr__(name: str):
    if name in ("Metrics", "evaluate"):  # the scorer loads on first use; parsing never needs it
        from . import evaluation
        return getattr(evaluation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
