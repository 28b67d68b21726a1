import hashlib
import json
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from celerlog import llm
from celerlog.llm import (
    MAX_RETRY_AFTER_SECONDS,
    BackendResponse,
    FormatError,
    HttpBackend,
    MockBackend,
    PromptEnvelope,
    TransportError,
    build_prompt,
    load_prompt_parts,
    parse_response,
    process_sparse,
    validate_and_mask,
)
from celerlog.masking import mask_token
from celerlog.model import (
    PLACEHOLDER,
    SOURCE_LLM,
    SOURCE_ROLLBACK,
    ConfigError,
    CostLedger,
    RouterConfig,
    SkeletonGroup,
    SparseGroup,
)
from oracles import expanded_positions


def sparse_group(content: str, line_id: int = 0) -> SparseGroup:
    key, key_tokens = content, tuple(content.split())
    return SparseGroup(
        group=SkeletonGroup(
            key=key,
            key_tokens=key_tokens,
            members=frozenset({content}),
            record_ids=(line_id,),
        )
    )


class TestBuildPrompt:
    def test_payload_contains_message(self):
        envelope = build_prompt(["Reading configuration from: /etc/zoo.cfg"])
        assert "1. Reading configuration from: /etc/zoo.cfg" in envelope.payload

    def test_batch_enumeration(self):
        envelope = build_prompt(["one two", "three four", "five six"])
        for index in (1, 2, 3):
            assert f"\n{index}. " in "\n" + envelope.payload

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            build_prompt([])

    def test_fixed_parts_identical_across_requests(self):
        a = build_prompt(["alpha"])
        b = build_prompt(["omega omega omega"])
        assert a.payload != b.payload
        for envelope in (a, b):
            assert envelope.render() == load_prompt_parts() + "\n\n" + envelope.payload

    @pytest.mark.parametrize(
        "messages, digest",
        [
            (["took 37 ms"],
             "390cbf7757a5ade80309d228da39baeeb8188f696acd39472811022bff4b02fc"),
            (["took 37 ms", "user alice logged in from 10.0.0.1"],
             "8763c73421545bf98d116b9e9bcd42a2aeb08500dc2cca39b4b7a21cab185d5b"),
        ],
        ids=["one-message", "two-messages"],
    )
    def test_rendered_bytes_are_pinned(self, messages, digest):
        # The prompt's length sets the token count of every request, so any
        # drift in the framing or the payload layout must be deliberate.
        rendered = build_prompt(messages).render().encode("utf-8")
        assert hashlib.sha256(rendered).hexdigest() == digest


class TestParseResponse:
    def test_well_formed_single(self):
        assert parse_response("1:\tfoo\tbar", ["msg"]) == [["foo", "bar"]]

    def test_empty_list_line(self):
        assert parse_response("1:", ["msg"]) == [[]]

    def test_arity_mismatch(self):
        with pytest.raises(FormatError):
            parse_response("1:\ta\n2:\tb", ["m1", "m2", "m3"])

    def test_free_prose(self):
        with pytest.raises(FormatError):
            parse_response("I could not find any variables, sorry.", ["msg"])

    def test_duplicate_index(self):
        with pytest.raises(FormatError):
            parse_response("1:\ta\n1:\tb", ["msg"])

    def test_surplus_index(self):
        with pytest.raises(FormatError):
            parse_response("1:\ta\n2:\tb", ["msg"])

    def test_prose_around_valid_block_tolerated(self):
        raw = "Here are the variables:\n1:\t42\nHope that helps!"
        assert parse_response(raw, ["msg"]) == [["42"]]


class TestValidateAndMask:
    def test_masks_present_variable(self):
        result = validate_and_mask(
            "Reading configuration from: /etc/zoo.cfg", ["/etc/zoo.cfg"]
        )
        assert result.template == "Reading configuration from: <*>"
        assert result.parameters == ("/etc/zoo.cfg",)
        assert result.source == SOURCE_LLM

    def test_empty_list_rolls_back(self):
        result = validate_and_mask("server started", [])
        assert result.template == "server started"
        assert result.source == SOURCE_ROLLBACK

    def test_hallucinated_variable_dropped(self):
        result = validate_and_mask("a b c", ["zzz"])
        assert result.template == "a b c"
        assert result.source == SOURCE_ROLLBACK

    def test_partial_token_snaps_to_whole_token(self):
        result = validate_and_mask("connect 10.0.0.1:8080 now", ["10.0.0.1"])
        assert result.template == "connect <*> now"
        assert result.parameters == ("10.0.0.1:8080",)

    def test_multi_token_variable(self):
        result = validate_and_mask("user root logged in", ["root logged"])
        assert result.template == "user <*> in"
        assert result.parameters == ("root logged",)

    def test_longest_variable_masked_first(self):
        result = validate_and_mask("path /a/b and /a", ["/a", "/a/b"])
        assert result.template == "path <*> and <*>"

    def test_round_trip(self):
        content = "commit 4f2a to branch main"
        result = validate_and_mask(content, ["4f2a", "main"])
        assert result.token_sequence() == content.split()

    def test_masked_tokens_are_exactly_the_surviving_variables(self):
        import random

        rng = random.Random(8)
        # No pool word is a substring of another, so variable occurrences
        # always land on whole-token boundaries.
        words = ["load", "disk", "x9", "0x2f", "/tmp/a", "gate", "warm", "edge"]
        for _ in range(200):
            tokens = [rng.choice(words) for _ in range(rng.randint(1, 8))]
            content = " ".join(tokens)
            variables = [rng.choice(words) for _ in range(rng.randint(0, 3))]
            result = validate_and_mask(content, variables)
            if result.source == SOURCE_ROLLBACK:
                assert result.template == content
                continue
            # Tokens that masking changes are parameters too, and a run of
            # parameter tokens is one <*>.
            survivors = {v for v in variables if v in content}
            positions = expanded_positions(result)
            for position, token in enumerate(tokens):
                expected = token in survivors or mask_token(token) != token
                assert (position in positions) == expected
            assert result.token_sequence() == content.split()


class TestMockBackend:
    def test_digit_tokens_are_variables(self):
        backend = MockBackend()
        response = backend.infer(build_prompt(["took 37 ms"]))
        assert parse_response(response.text, ["took 37 ms"]) == [["37"]]

    def test_constant_message_has_no_variables(self):
        backend = MockBackend()
        response = backend.infer(build_prompt(["server started"]))
        assert parse_response(response.text, ["server started"]) == [[]]

    def test_mask_rule_tokens_are_variables(self):
        backend = MockBackend()
        response = backend.infer(build_prompt(["open /var/log/x.log"]))
        assert parse_response(response.text, ["open /var/log/x.log"]) == [["/var/log/x.log"]]

    def test_token_accounting_convention(self):
        backend = MockBackend()
        envelope = build_prompt(["took 37 ms"])
        response = backend.infer(envelope)
        assert response.prompt_tokens == len(envelope.render()) // 4
        assert response.completion_tokens == len(response.text) // 4


class FlakyBackend:
    """Fails with transport errors a fixed number of times, then succeeds."""

    def __init__(self, failures: int):
        self.failures = failures
        self.calls = 0
        self._inner = MockBackend()

    def infer(self, envelope: PromptEnvelope):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("injected timeout")
        return self._inner.infer(envelope)


class AlwaysTimeoutBackend:
    def __init__(self):
        self.calls = 0

    def infer(self, envelope: PromptEnvelope):
        self.calls += 1
        raise TransportError("injected timeout")


class InflightCountingBackend(MockBackend):
    """Answers as the mock after a delay, recording each batch and the most
    requests in flight at once; raises on the batch holding ``fail_on``."""

    def __init__(self, delay: float, fail_on: str | None = None):
        self.delay = delay
        self.fail_on = fail_on
        self.batches: list[tuple[str, ...]] = []
        self.inflight = 0
        self.inflight_max = 0
        self._lock = threading.Lock()

    def infer(self, envelope: PromptEnvelope):
        with self._lock:
            self.batches.append(envelope.messages)
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
        try:
            time.sleep(self.delay)
            if self.fail_on in envelope.messages:
                raise RuntimeError(f"backend bug on {self.fail_on}")
            return super().infer(envelope)
        finally:
            with self._lock:
                self.inflight -= 1


class TestProcessSparse:
    def test_no_groups_no_invocations(self):
        ledger = CostLedger()
        results = process_sparse([], MockBackend(), RouterConfig(jobs=1), ledger)
        assert results == {}
        assert ledger.llm_invocations == 0

    def test_one_invocation_per_group_at_batch_one(self):
        groups = [sparse_group(f"isolated event number{i} alpha", i) for i in range(10)]
        ledger = CostLedger()
        process_sparse(groups, MockBackend(), RouterConfig(jobs=1, llm_batch_size=1), ledger)
        assert ledger.llm_invocations == 10

    def test_batching_reduces_invocations(self):
        groups = [sparse_group(f"isolated event number{i} alpha", i) for i in range(10)]
        ledger = CostLedger()
        process_sparse(groups, MockBackend(), RouterConfig(jobs=1, llm_batch_size=3), ledger)
        assert ledger.llm_invocations == 4

    def test_timeouts_roll_back_and_complete(self, monkeypatch):
        monkeypatch.setattr(llm, "BACKOFF_SECONDS", 0.001)
        groups = [sparse_group(f"crash report {i}", i) for i in range(3)]
        backend = AlwaysTimeoutBackend()
        ledger = CostLedger()
        results = process_sparse(groups, backend, RouterConfig(jobs=2), ledger)
        for group in groups:
            content = next(iter(group.group.members))
            assert results[content].template == content
            assert results[content].source == SOURCE_ROLLBACK
        assert ledger.llm_invocations == 3 * (1 + 3)

    def test_retry_then_success(self, monkeypatch):
        monkeypatch.setattr(llm, "BACKOFF_SECONDS", 0.001)
        groups = [sparse_group("retry target 99", 0)]
        backend = FlakyBackend(failures=2)
        ledger = CostLedger()
        results = process_sparse(groups, backend, RouterConfig(jobs=1), ledger)
        assert results["retry target 99"].source == SOURCE_LLM
        assert ledger.llm_invocations == 3

    def test_deterministic_across_jobs(self):
        groups = [sparse_group(f"event kind{i} on host{i} now", i) for i in range(12)]
        outcomes = []
        for jobs in (1, 8):
            ledger = CostLedger()
            results = process_sparse(groups, MockBackend(), RouterConfig(jobs=jobs), ledger)
            outcomes.append((results, ledger.llm_invocations, ledger.tokens_consumed))
        assert outcomes[0] == outcomes[1]

    def test_workers_send_each_batch_once_within_jobs(self):
        groups = [sparse_group(f"event kind{i} on host{i} now", i) for i in range(20)]
        config = RouterConfig(jobs=3, llm_batch_size=2)
        backend = InflightCountingBackend(delay=0.02)
        ledger = CostLedger()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = process_sparse(groups, backend, config, ledger)
        finally:
            sys.setswitchinterval(interval)
        assert len(backend.batches) == 10
        assert 2 <= backend.inflight_max <= 3
        requested = Counter(message for batch in backend.batches for message in batch)
        assert requested == Counter(next(iter(g.group.members)) for g in groups)

        serial_ledger = CostLedger()
        serial = process_sparse(
            groups, MockBackend(), RouterConfig(jobs=1, llm_batch_size=2), serial_ledger
        )
        assert results == serial
        assert ledger.to_dict() == serial_ledger.to_dict()

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_caller_runs_one_loop_and_joins_the_others(self, jobs):
        class ThreadRecordingBackend(InflightCountingBackend):
            def infer(self, envelope):
                with self._lock:
                    callers.add(threading.get_ident())
                return super().infer(envelope)

        callers: set[int] = set()
        groups = [sparse_group(f"event kind{i} on host{i} now", i) for i in range(20)]
        before = set(threading.enumerate())
        process_sparse(
            groups, ThreadRecordingBackend(delay=0.02), RouterConfig(jobs=jobs, llm_batch_size=2),
            CostLedger(),
        )
        assert [thread for thread in threading.enumerate() if thread not in before] == []
        assert threading.get_ident() in callers and len(callers) <= jobs
        if jobs == 1:
            assert callers == {threading.get_ident()}

    def test_backend_error_in_one_batch_propagates(self):
        groups = [sparse_group(f"event kind{i} on host{i} now", i) for i in range(20)]
        backend = InflightCountingBackend(delay=0.001, fail_on="event kind13 on host13 now")
        with pytest.raises(RuntimeError, match="kind13"):
            process_sparse(groups, backend, RouterConfig(jobs=3, llm_batch_size=2), CostLedger())

    def test_no_batch_is_sent_after_one_raised(self):
        # The failing batch raises at once while the others take 50 ms, so
        # the failure comes before any worker could draw a second batch.
        class FailFastBackend(InflightCountingBackend):
            def infer(self, envelope):
                if self.fail_on in envelope.messages:
                    with self._lock:
                        self.batches.append(envelope.messages)
                    raise RuntimeError(f"backend bug on {self.fail_on}")
                return super().infer(envelope)

        groups = [sparse_group(f"event kind{i} on host{i} now", i) for i in range(20)]
        first = min(next(iter(g.group.members)) for g in groups)
        backend = FailFastBackend(delay=0.05, fail_on=first)
        with pytest.raises(RuntimeError, match="backend bug"):
            process_sparse(groups, backend, RouterConfig(jobs=3, llm_batch_size=2), CostLedger())
        assert any(first in batch for batch in backend.batches)
        assert len(backend.batches) <= 3

    def test_loops_that_cannot_start_leave_the_batches_to_the_others(self, monkeypatch):
        # The second start fails as it would at a thread or pid limit; the
        # caller's loop and the one started thread send every batch.
        groups = [sparse_group(f"event kind{i} on host{i} now", i) for i in range(20)]
        config = RouterConfig(jobs=4, llm_batch_size=1)
        serial_ledger = CostLedger()
        serial = process_sparse(groups, MockBackend(), config._replace(jobs=1), serial_ledger)
        start = threading.Thread.start
        starts = []

        def start_once(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        ledger = CostLedger()
        assert process_sparse(groups, MockBackend(), config, ledger) == serial
        assert len(starts) == 2
        assert ledger.llm_invocations == serial_ledger.llm_invocations == 20

    def test_index_too_long_for_int_rolls_back(self):
        class LongIndexBackend:
            def infer(self, envelope):
                return BackendResponse("9" * 5000 + ":\tx\n1:\t42", 3, 3)

        ledger = CostLedger()
        results = process_sparse(
            [sparse_group("took 42 ms", 0)], LongIndexBackend(), RouterConfig(jobs=1), ledger
        )
        assert results["took 42 ms"].source == SOURCE_ROLLBACK
        assert ledger.llm_invocations == 1


#: Tokens of the messages a hostile backend answers: values of every mask
#: rule, placeholders in the raw text, non-ASCII text, and characters that
#: ``str.splitlines`` breaks a reply line at.
_HOSTILE_TOKENS = [
    "0x1f", "-12", "+3.5", "42", "(45)", "<*>", "<NUM>", "a<*>b", "é", "٣", "k=1",
    "blk_7", "ERROR", "open", "worker", "a\x85b", "x\u2028y", "1:", "\t",
]


@st.composite
def _hostile_reply(draw, messages):
    """A reply to ``messages``: numbered lines with right, wrong, duplicated,
    zero and 30-digit indices, prose lines, and "\n" or "\r\n" line ends.
    A line's variables are substrings of a message or all of it, blanks,
    ``<NUM>``, ``<*>`` or other text."""
    count = len(messages)
    right = list(range(1, count + 1))
    indices = draw(st.one_of(
        st.just(right),
        st.permutations(right),
        st.lists(st.sampled_from([0, 1, 2, 3, count, count + 1, 10**29]), max_size=5),
    ))
    lines = []
    for index in indices:
        message = messages[(index - 1) % count]
        variable = st.one_of(
            st.tuples(st.integers(0, len(message)), st.integers(0, len(message))).map(
                lambda span: message[span[0]:span[1]]
            ),
            st.sampled_from([message, "", " ", "<NUM>", "<*>"]),
            st.text(max_size=4),
        )
        separator = draw(st.sampled_from([":", ": ", " : ", ":\t"]))
        lines.append(f"{index}{separator}" + "\t".join(draw(st.lists(variable, max_size=4))))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=12)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


class TestHostileBackend:
    @pytest.mark.parametrize("batch_size", [1, 3])
    @settings(max_examples=max(100, settings.default.max_examples // 10), deadline=None)
    @given(
        contents=st.lists(
            st.lists(st.sampled_from(_HOSTILE_TOKENS), min_size=1, max_size=6).map(" ".join),
            min_size=1, max_size=5, unique=True,
        ),
        data=st.data(),
    )
    def test_every_reply_rolls_back_or_yields_a_verified_template(
        self, batch_size, contents, data
    ):
        # The rollback contract: whatever a backend replies, each message
        # gets its own text as template, or a template that rebuilds its
        # tokens and whose constant tokens masking leaves alone. A run of
        # replies costs about 10 ms, so this test takes a tenth of the
        # profile's examples, at least 100: 2,000 under the deep profile.
        class HostileBackend:
            def infer(self, envelope):
                reply = data.draw(_hostile_reply(envelope.messages))
                return BackendResponse(reply, 1, 1)

        groups = [sparse_group(content, index) for index, content in enumerate(contents)]
        config = RouterConfig(jobs=1, llm_batch_size=batch_size)
        results = process_sparse(groups, HostileBackend(), config, CostLedger())
        assert set(results) == set(contents)
        for content, result in results.items():
            if result.source == SOURCE_ROLLBACK:
                assert result.template == content and result.parameters == ()
                continue
            assert result.source == SOURCE_LLM
            assert result.token_sequence() == content.split()
            constants = [token for token in result.template.split() if token != PLACEHOLDER]
            assert [mask_token(token) for token in constants] == constants


class _StubHandler(BaseHTTPRequestHandler):
    requests_seen: list = []
    reply: dict = {}
    status: int = 200
    #: (status, extra headers) answers sent before falling back to ``status``.
    script: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        payload = json.dumps(type(self).reply).encode()
        status, headers = type(self).script.pop(0) if type(self).script else (type(self).status, {})
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.requests_seen = []
    _StubHandler.status = 200
    _StubHandler.script = []
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_request_shape_and_auth(self, stub_server, monkeypatch):
        _StubHandler.reply = {
            "choices": [{"message": {"content": "1:\t42"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 3},
        }
        backend = HttpBackend(stub_server, model="test-model", api_key="sk-secret")
        response = backend.infer(build_prompt(["took 42 ms"]))
        assert response.text == "1:\t42"
        assert response.prompt_tokens == 11 and response.completion_tokens == 3
        seen = _StubHandler.requests_seen[0]
        assert seen["body"]["model"] == "test-model"
        assert seen["body"]["temperature"] == 0
        assert seen["auth"] == "Bearer sk-secret"
        assert "took 42 ms" in seen["body"]["messages"][0]["content"]

    def test_http_error_is_transport_error(self, stub_server):
        _StubHandler.status = 500
        _StubHandler.reply = {"error": "boom"}
        backend = HttpBackend(stub_server, model="m")
        with pytest.raises(TransportError):
            backend.infer(build_prompt(["x 1"]))

    @pytest.mark.parametrize(
        "status, retryable",
        [(400, False), (401, False), (404, False), (408, True), (429, True), (500, True), (503, True)],
    )
    def test_client_errors_are_terminal(self, stub_server, status, retryable):
        _StubHandler.status = status
        _StubHandler.reply = {"error": "no"}
        with pytest.raises(TransportError) as caught:
            HttpBackend(stub_server, model="m").infer(build_prompt(["x 1"]))
        assert caught.value.retryable is retryable

    def test_rejected_key_rolls_back_without_retry(self, stub_server, monkeypatch):
        monkeypatch.setattr(llm, "BACKOFF_SECONDS", 10)
        _StubHandler.status = 401
        _StubHandler.reply = {"error": "invalid api key"}
        ledger = CostLedger()
        started = time.monotonic()
        results = process_sparse(
            [sparse_group("weird isolated line", 0)], HttpBackend(stub_server, model="m"),
            RouterConfig(jobs=1), ledger,
        )
        assert time.monotonic() - started < 1.0
        assert results["weird isolated line"].source == SOURCE_ROLLBACK
        assert ledger.llm_invocations == 1

    @pytest.mark.parametrize(
        "status, header, expected",
        [(429, "7", 7), (503, " 0 ", 0), (429, "Wed, 21 Oct 2015 07:28:00 GMT", None),
         (429, "-1", None), (429, "1.5", None), (500, "7", None), (408, "7", None),
         (429, "9" * 5000, float("inf"))],
        ids=["429-seconds", "503-padded-zero", "429-http-date", "429-negative",
             "429-fraction", "500-ignored", "408-ignored", "429-too-long-for-int"],
    )
    def test_retry_after_on_rate_limit_and_unavailable(self, stub_server, status, header, expected):
        _StubHandler.script = [(status, {"Retry-After": header})]
        _StubHandler.reply = {"error": "slow down"}
        with pytest.raises(TransportError) as caught:
            HttpBackend(stub_server, model="m").infer(build_prompt(["x 1"]))
        assert caught.value.retry_after == expected

    def test_retry_after_replaces_backoff(self, stub_server, monkeypatch):
        monkeypatch.setattr(llm, "BACKOFF_SECONDS", 10)
        _StubHandler.script = [(429, {"Retry-After": "1"})]
        _StubHandler.reply = {
            "choices": [{"message": {"content": "1:\t42"}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 5},
        }
        ledger = CostLedger()
        started = time.monotonic()
        results = process_sparse(
            [sparse_group("took 42 ms", 0)], HttpBackend(stub_server, model="m"),
            RouterConfig(jobs=1), ledger,
        )
        assert 1.0 <= time.monotonic() - started < 5.0
        assert results["took 42 ms"].source == SOURCE_LLM
        assert ledger.llm_invocations == 2

    @pytest.mark.parametrize(
        "header", [str(int(MAX_RETRY_AFTER_SECONDS) + 1), "86400", "10000000000", "9" * 5000],
        ids=["just-above-limit", "one-day", "overflows-sleep", "too-long-for-int"],
    )
    def test_retry_after_above_limit_rolls_back_at_once(self, stub_server, monkeypatch, header):
        monkeypatch.setattr(llm, "BACKOFF_SECONDS", 10)
        _StubHandler.script = [(429, {"Retry-After": header})]
        _StubHandler.reply = {"error": "quota spent"}
        ledger = CostLedger()
        started = time.monotonic()
        results = process_sparse(
            [sparse_group("took 42 ms", 0)], HttpBackend(stub_server, model="m"),
            RouterConfig(jobs=1), ledger,
        )
        assert time.monotonic() - started < 1.0
        assert results["took 42 ms"].source == SOURCE_ROLLBACK
        assert ledger.llm_invocations == 1

    def test_unreachable_endpoint_is_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:1/nothing", model="m", timeout=0.2)
        with pytest.raises(TransportError):
            backend.infer(build_prompt(["x 1"]))

    def test_garbled_payload_is_transport_error(self, stub_server):
        _StubHandler.status = 200
        _StubHandler.reply = {"unexpected": True}
        backend = HttpBackend(stub_server, model="m")
        with pytest.raises(TransportError):
            backend.infer(build_prompt(["x 1"]))

    def test_prose_reply_rolls_back_through_process_sparse(self, stub_server):
        _StubHandler.status = 200
        _StubHandler.reply = {
            "choices": [{"message": {"content": "no structured output here"}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 5},
        }
        backend = HttpBackend(stub_server, model="m")
        ledger = CostLedger()
        results = process_sparse(
            [sparse_group("weird isolated line", 0)], backend,
            RouterConfig(jobs=1), ledger,
        )
        assert results["weird isolated line"].source == SOURCE_ROLLBACK
        assert ledger.llm_invocations == 1
        assert ledger.tokens_consumed == 10

    def test_missing_model_fatal(self):
        with pytest.raises(ConfigError, match="model name"):
            HttpBackend("http://127.0.0.1:1/v1/chat/completions", "")

    @pytest.mark.parametrize("usage", [[1, 2], "12", 7])
    def test_usage_not_an_object_is_transport_error(self, stub_server, usage):
        _StubHandler.reply = {"choices": [{"message": {"content": "1:\t42"}}], "usage": usage}
        with pytest.raises(TransportError, match="usage is"):
            HttpBackend(stub_server, model="m").infer(build_prompt(["took 42 ms"]))

    def test_null_token_counts_count_as_zero(self, stub_server):
        _StubHandler.reply = {
            "choices": [{"message": {"content": "1:\t42"}}],
            "usage": {"prompt_tokens": None},
        }
        response = HttpBackend(stub_server, model="m").infer(build_prompt(["took 42 ms"]))
        assert response.prompt_tokens == 0 and response.completion_tokens == 0

    @pytest.mark.parametrize("count", ["12", 1.5, True, [3], -1])
    def test_non_integer_token_count_is_transport_error(self, stub_server, count):
        _StubHandler.reply = {
            "choices": [{"message": {"content": "1:\t42"}}],
            "usage": {"prompt_tokens": 4, "completion_tokens": count},
        }
        with pytest.raises(TransportError):
            HttpBackend(stub_server, model="m").infer(build_prompt(["took 42 ms"]))

    def test_null_content_rolls_back_through_process_sparse(self, stub_server, monkeypatch):
        monkeypatch.setattr(llm, "MAX_RETRIES", 1)
        monkeypatch.setattr(llm, "BACKOFF_SECONDS", 0.0)
        _StubHandler.reply = {
            "choices": [{"message": {"content": None}}],
            "usage": {"prompt_tokens": 5, "completion_tokens": 5},
        }
        ledger = CostLedger()
        results = process_sparse(
            [sparse_group("weird isolated line", 0)], HttpBackend(stub_server, model="m"),
            RouterConfig(jobs=1), ledger,
        )
        assert results["weird isolated line"].source == SOURCE_ROLLBACK
        assert ledger.llm_invocations == 2
        assert ledger.tokens_consumed == 0
