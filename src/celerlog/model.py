"""Shared domain types and run configuration.

The value types here, and those in ``pipeline``, ``routing``, ``llm``,
``masking`` and ``evaluation``, are ``typing.NamedTuple`` classes: immutable,
with no ``__dict__``, so assigning any attribute raises ``AttributeError``.
They are also tuples: an instance compares equal to the plain tuple of its
fields, iterates over its fields and has a ``len()``. Tuples keep both
building an instance and importing the package cheap (README "Performance
notes").
"""

from __future__ import annotations

import threading
from typing import NamedTuple

#: Placeholder written into final templates for every parameter position.
PLACEHOLDER = "<*>"

SOURCE_STATISTICAL = "statistical"
SOURCE_LLM = "llm"
SOURCE_ROLLBACK = "rollback"


class CelerlogError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CelerlogError):
    """Invalid configuration or unusable input; fatal at startup (exit code 2)."""


class InternalInvariantError(CelerlogError):
    """A should-never-happen condition; indicates a bug upstream of the caller."""


class LogRecord(NamedTuple):
    """One raw log message body with its input position."""

    line_id: int
    content: str


class SkeletonGroup(NamedTuple):
    """All records sharing one masked skeleton; the skeleton is the group key."""

    key: str
    key_tokens: tuple[str, ...]
    members: frozenset[str]
    record_ids: tuple[int, ...]

    @property
    def unique_count(self) -> int:
        return len(self.members)


class LogBucket(NamedTuple):
    """Skeleton groups whose keys share one token length; the unit of anchor merging."""

    length: int
    groups: tuple[SkeletonGroup, ...]


class DenseGroup(NamedTuple):
    """Skeleton groups merged together and bound for the statistical processor.

    anchor_key is None when the containing bucket was bypass-routed and no
    anchor round ever ran.
    """

    member_groups: tuple[SkeletonGroup, ...]
    anchor_key: str | None = None

    def record_ids(self) -> list[int]:
        ids: list[int] = []
        for group in self.member_groups:
            ids.extend(group.record_ids)
        return ids


class SparseGroup(NamedTuple):
    """A single unmerged skeleton group bound for the LLM processor."""

    group: SkeletonGroup


class RouterConfig(NamedTuple):
    """The anchor budget and quantile limit of routing, the worker count and
    the LLM batch size. The threshold grid and the bypass rule are constants
    of ``routing``."""

    alpha: float = 0.5
    p_quantile: float = 0.95
    jobs: int = 8
    llm_batch_size: int = 1

    def validate(self) -> None:
        # Each field takes the type of its default, and an int also where that
        # is a float, as in type hints; a bool is neither.
        for name, default in self._field_defaults.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, type(default))):
                raise ConfigError(f"{name} must be {type(default).__name__}, got {value!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.p_quantile <= 1.0:
            raise ConfigError(f"p-quantile must be in (0, 1], got {self.p_quantile}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.llm_batch_size < 1:
            raise ConfigError(f"batch-size must be >= 1, got {self.llm_batch_size}")

    def to_dict(self) -> dict:
        return self._asdict()


class TemplateResult(NamedTuple):
    """A final template with the parameters extracted from one message."""

    template: str
    parameters: tuple[str, ...]
    source: str

    def token_sequence(self) -> list[str]:
        """Substitute parameters back into the template, token by token.

        A parameter may span several whitespace-separated tokens (after
        placeholder runs were collapsed); each expands in place.
        """
        out: list[str] = []
        params = iter(self.parameters)
        for token in self.template.split():
            if token == PLACEHOLDER:
                out.extend(next(params).split())
            else:
                out.append(token)
        return out


class CostLedger:
    """Run-level cost counters; increments are safe from concurrent workers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.wall_time_seconds: float = 0.0
        self.tokens_consumed: int = 0
        self.llm_invocations: int = 0
        self.dense_record_count: int = 0
        self.sparse_record_count: int = 0

    def add_llm_usage(self, tokens: int) -> None:
        """Count one backend call that consumed ``tokens``."""
        with self._lock:
            self.tokens_consumed += tokens
            self.llm_invocations += 1

    def add_routing_counts(self, dense_records: int, sparse_records: int) -> None:
        with self._lock:
            self.dense_record_count += dense_records
            self.sparse_record_count += sparse_records

    def set_wall_time(self, seconds: float) -> None:
        with self._lock:
            self.wall_time_seconds = max(self.wall_time_seconds, seconds)

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "wall_time_seconds": self.wall_time_seconds,
                "tokens_consumed": self.tokens_consumed,
                "llm_invocations": self.llm_invocations,
                "dense_record_count": self.dense_record_count,
                "sparse_record_count": self.sparse_record_count,
            }
