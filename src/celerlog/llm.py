"""Sparse-group processing through a pluggable inference backend.

The model's job is deliberately narrow: list the exact variable substrings of
each message. Returned variables are checked against the original text before
anything is masked, and any response that cannot be validated degrades to a
rollback (the raw message becomes its own template) rather than an error.
A validated reply yields a final template: tokens the masking rules would
change become parameters too, and adjacent parameters are one.
"""

from __future__ import annotations

import re
import threading
import time
from functools import lru_cache
from typing import Mapping, NamedTuple, Protocol, Sequence

from .masking import _data_text, mask_token
from .model import (
    PLACEHOLDER,
    SOURCE_LLM,
    SOURCE_ROLLBACK,
    CelerlogError,
    ConfigError,
    CostLedger,
    RouterConfig,
    SparseGroup,
    TemplateResult,
)
from .statistical import collapse

#: Retries of a batch after a retryable transport failure, and the first
#: backoff wait in seconds, which doubles on each retry.
MAX_RETRIES = 3
BACKOFF_SECONDS = 0.5
#: The longest ``Retry-After`` a batch waits for; a server asking for more
#: (a spent daily quota, say) gets the batch rolled back at once.
MAX_RETRY_AFTER_SECONDS = 30.0

_RESPONSE_LINE = re.compile(r"^\s*(\d+)\s*:\s?(.*)$")


class FormatError(CelerlogError):
    """The backend's reply does not contain one variable list per message."""


class TransportError(CelerlogError):
    """The backend could not be reached or answered unusably.

    ``retryable`` is false when asking again cannot help, such as a rejected
    API key; the batch then rolls back after that one invocation.
    ``retry_after`` is the wait in seconds the server asked for, if any.
    """

    def __init__(
        self, message: str, retryable: bool = True, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class PromptEnvelope(NamedTuple):
    """One request: the numbered message payload and the messages it holds.

    ``render()`` is the whole prompt: the fixed framing of data/prompt.txt
    (task, constraints, examples), a blank line, then the payload. Only the
    payload varies between requests.
    """

    payload: str
    messages: tuple[str, ...]

    def render(self) -> str:
        return f"{load_prompt_parts()}\n\n{self.payload}"


class BackendResponse(NamedTuple):
    text: str
    prompt_tokens: int
    completion_tokens: int


class InferenceBackend(Protocol):
    def infer(self, envelope: PromptEnvelope) -> BackendResponse: ...


@lru_cache(maxsize=1)
def load_prompt_parts() -> str:
    """The fixed framing every prompt starts with (data/prompt.txt)."""
    return _data_text("prompt.txt")


def build_prompt(messages: Sequence[str]) -> PromptEnvelope:
    """Assemble the envelope for a batch of message contents."""
    if not messages:
        raise ValueError("build_prompt needs at least one message")
    lines = ["Input messages:"]
    lines.extend(f"{index}. {message}" for index, message in enumerate(messages, start=1))
    return PromptEnvelope(payload="\n".join(lines), messages=tuple(messages))


def parse_response(raw: str, messages: Sequence[str]) -> list[list[str]]:
    """Extract one variable list per message from a backend reply.

    Lines look like ``2:<TAB>var<TAB>var``; a bare ``2:`` means no variables.
    Missing, duplicated, surplus or unreadable indices fail the whole batch.
    """
    found: dict[int, list[str]] = {}
    for line in raw.splitlines():
        match = _RESPONSE_LINE.match(line)
        if match is None:
            continue
        try:
            index = int(match.group(1))
        except ValueError as exc:
            # More digits than int() converts (sys.get_int_max_str_digits).
            raise FormatError(f"message index of {len(match.group(1))} digits") from exc
        if index in found:
            raise FormatError(f"duplicate variable list for message {index}")
        variables = [piece.strip() for piece in match.group(2).split("\t")]
        found[index] = [variable for variable in variables if variable]
    expected = set(range(1, len(messages) + 1))
    if set(found) != expected:
        raise FormatError(
            f"expected variable lists for messages {sorted(expected)}, got {sorted(found)}"
        )
    return [found[index] for index in sorted(expected)]


def _rollback(content: str) -> TemplateResult:
    """The raw message as its own template."""
    return TemplateResult(template=content, parameters=(), source=SOURCE_ROLLBACK)


def validate_and_mask(content: str, variables: Sequence[str]) -> TemplateResult:
    """Mask validated variable substrings; fall back to the raw message.

    Variables not present verbatim in the message are dropped. Survivors are
    masked longest first, scanning left to right without overlaps, and the
    masking is then snapped outward to whole tokens. A rollback, where the
    original message is its own template, follows when no token is covered
    or holds ``<*>``. Otherwise a token is a parameter when it is covered,
    holds ``<*>``, or would be changed by ``mask_token``, such as a number
    the model did not list; adjacent parameter tokens form one parameter
    (``statistical.collapse``), so the template is final.
    """
    survivors = [variable for variable in variables if variable and variable in content]
    if not survivors:
        return _rollback(content)

    covered = bytearray(len(content))
    for variable in sorted(dict.fromkeys(survivors), key=len, reverse=True):
        start = 0
        while True:
            position = content.find(variable, start)
            if position == -1:
                break
            end = position + len(variable)
            if any(covered[position:end]):
                start = position + 1
                continue
            for i in range(position, end):
                covered[i] = 1
            start = end

    tokens: list[str] = []
    variable_flags: list[bool] = []
    for match in re.finditer(r"\S+", content):
        token = match.group(0)
        tokens.append(token)
        variable_flags.append(any(covered[match.start() : match.end()]) or PLACEHOLDER in token)
    if not any(variable_flags):
        return _rollback(content)
    template, spans = collapse(
        tokens,
        [flag or mask_token(token) != token for flag, token in zip(variable_flags, tokens)],
    )
    return TemplateResult(
        template=template,
        parameters=tuple([" ".join(tokens[start:end]) for start, end in spans]),
        source=SOURCE_LLM,
    )


class MockBackend:
    """Deterministic offline backend for tests, CI and dry runs.

    Every token containing a digit, plus every token the mask rules would
    classify, is reported as a variable. Token usage follows a fixed
    convention: rendered character count divided by four, on each side.
    """

    def infer(self, envelope: PromptEnvelope) -> BackendResponse:
        lines = []
        for index, message in enumerate(envelope.messages, start=1):
            variables: list[str] = []
            for token in message.split():
                if token in variables:
                    continue
                if any(ch.isdigit() for ch in token) or mask_token(token) != token:
                    variables.append(token)
            suffix = "\t" + "\t".join(variables) if variables else ""
            lines.append(f"{index}:{suffix}")
        text = "\n".join(lines)
        return BackendResponse(
            text=text,
            prompt_tokens=len(envelope.render()) // 4,
            completion_tokens=len(text) // 4,
        )


class HttpBackend:
    """Chat-completions-style HTTP backend; temperature pinned to 0."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        if not endpoint:
            raise ConfigError("http backend needs an endpoint URL")
        if not model:
            raise ConfigError("http backend needs a model name")
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def infer(self, envelope: PromptEnvelope) -> BackendResponse:
        # Imported here, so runs that never send HTTP skip the import's time
        # and memory (about 0.08 s and 7-12 MB of peak RSS in the benchmark).
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": self.model,
            "temperature": 0,
            "messages": [{"role": "user", "content": envelope.render()}],
        }
        try:
            response = requests.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"request to {self.endpoint} failed: {exc}") from exc
        status = response.status_code
        if status != 200:
            # A client error other than a timeout or rate limit repeats on retry.
            raise TransportError(
                f"backend returned HTTP {status}: {response.text[:200]}",
                retryable=not 400 <= status < 500 or status in (408, 429),
                retry_after=_retry_after(response.headers) if status in (429, 503) else None,
            )
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise TransportError(f"malformed completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise TransportError(f"completion content is {type(text).__name__}, not a string")
        usage = data.get("usage") or {}
        if not isinstance(usage, dict):
            raise TransportError(f"completion usage is {type(usage).__name__}, not an object")
        return BackendResponse(
            text=text,
            prompt_tokens=_token_count(usage, "prompt_tokens"),
            completion_tokens=_token_count(usage, "completion_tokens"),
        )


def _retry_after(headers: Mapping[str, str]) -> float | None:
    """The delta-seconds ``Retry-After`` value, or None; an HTTP date is ignored.

    ``float`` rather than ``int``: a digit string too long for ``int`` reads
    as infinity instead of raising.
    """
    value = headers.get("Retry-After", "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _token_count(usage: dict, name: str) -> int:
    """One count from a completion's usage; a null or missing count is 0."""
    count = usage.get(name)
    if count is None:
        return 0
    # bool is an int subclass, but true is no token count; a negative count
    # would lower the ledger.
    if type(count) is not int or count < 0:
        raise TransportError(f"usage {name} is not a non-negative integer: {count!r}")
    return count


def process_sparse(
    groups: Sequence[SparseGroup],
    backend: InferenceBackend,
    config: RouterConfig,
    ledger: CostLedger,
) -> dict[str, TemplateResult]:
    """Run every sparse group through the backend; returns content -> result.

    One representative per distinct content is queried (a sparse group
    normally holds exactly one). Requests go out in batches of the configured
    size with up to ``config.jobs`` in flight, fewer where a thread cannot be
    started. The mapping is the same at every ``jobs`` value; only its
    insertion order varies. A retryable transport failure is retried up to
    ``MAX_RETRIES`` times, after the wait the server asked for or else after
    ``BACKOFF_SECONDS``, doubled on each retry. A terminal transport failure,
    a requested wait above ``MAX_RETRY_AFTER_SECONDS``, exhausted retries and
    malformed replies all degrade to rollbacks, never to exceptions. Every
    attempt counts as an invocation. Any other exception the backend raises
    propagates once every loop has stopped, and no batch is sent after it; of
    several, the first raised is the one that propagates.
    """
    contents: list[str] = []
    for item in sorted(groups, key=lambda s: s.group.key):
        contents.extend(sorted(item.group.members))
    size = config.llm_batch_size
    batches = [contents[start : start + size] for start in range(0, len(contents), size)]

    def handle(batch: list[str]) -> dict[str, TemplateResult]:
        envelope = build_prompt(batch)
        for attempt in range(MAX_RETRIES + 1):
            try:
                response = backend.infer(envelope)
            except TransportError as exc:
                ledger.add_llm_usage(0)
                asked = exc.retry_after
                if (
                    not exc.retryable
                    or attempt == MAX_RETRIES
                    or (asked is not None and asked > MAX_RETRY_AFTER_SECONDS)
                ):
                    break
                time.sleep(BACKOFF_SECONDS * 2**attempt if asked is None else asked)
                continue
            ledger.add_llm_usage(response.prompt_tokens + response.completion_tokens)
            try:
                variable_lists = parse_response(response.text, batch)
            except FormatError:
                break
            return {
                content: validate_and_mask(content, variables)
                for content, variables in zip(batch, variable_lists)
            }
        return {content: _rollback(content) for content in batch}

    # A few loops drawing batches from one iterator cost less than a future
    # per batch (1,502 one-message batches, mock backend: 0.03-0.05 s against
    # 0.06-0.08 s with executor.map). The caller runs one loop itself, so
    # jobs=1 starts no thread. Once a batch has raised, no loop draws another.
    pending = iter(batches)
    results: dict[str, TemplateResult] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def work() -> None:
        try:
            while not errors:
                with lock:
                    batch = next(pending, None)
                if batch is None:
                    return
                outcome = handle(batch)
                with lock:
                    results.update(outcome)
        except BaseException as exc:
            errors.append(exc)

    threads: list[threading.Thread] = []
    try:
        for _ in range(min(config.jobs, len(batches)) - 1):
            thread = threading.Thread(target=work)
            try:
                thread.start()
            except RuntimeError:
                # Out of threads or processes: the loops already running, the
                # caller's included, send the remaining batches.
                break
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return results
