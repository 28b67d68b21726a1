from collections import Counter

import pytest

from celerlog.evaluation import Metrics
from celerlog.llm import BackendResponse, PromptEnvelope
from celerlog.model import (
    ConfigError,
    CostLedger,
    DenseGroup,
    LogBucket,
    LogRecord,
    RouterConfig,
    SkeletonGroup,
    SparseGroup,
    TemplateResult,
)
from celerlog.pipeline import IngestStats, ParsedRecord, RunResult
from celerlog.routing import MergeState, RoutingStats

_GROUP = SkeletonGroup("a <NUM>", ("a", "<NUM>"), frozenset({"a 1"}), (0,))
_RESULT = TemplateResult("a <*>", ("1",), "statistical")
_ROUTING = RoutingStats(1, 1, 1, 0, 1, 0)
_INGEST = IngestStats(1, 0, 0)

VALUES = [
    LogRecord(0, "a 1"),
    _GROUP,
    LogBucket(2, (_GROUP,)),
    DenseGroup((_GROUP,), "a <NUM>"),
    SparseGroup(_GROUP),
    RouterConfig(),
    _RESULT,
    _INGEST,
    ParsedRecord(0, "a 1", _RESULT),
    RunResult([], Counter(), CostLedger(), _ROUTING, _INGEST),
    MergeState("a <NUM>", {}, 0.5, 1),
    _ROUTING,
    PromptEnvelope("payload", ("a 1",)),
    BackendResponse("1:\t1", 1, 1),
    Metrics(1.0, 1.0, 1.0, 1.0),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_types_refuse_attribute_assignment(value):
    field = next(iter(type(value).__annotations__))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_types_are_tuples_of_their_fields(value):
    assert value == tuple(getattr(value, name) for name in value._fields)
    assert len(value) == len(value._fields)


def test_router_config_to_dict_keys_and_values():
    assert RouterConfig().to_dict() == {
        "alpha": 0.5,
        "p_quantile": 0.95,
        "jobs": 8,
        "llm_batch_size": 1,
    }
    assert list(RouterConfig(jobs=1).to_dict().values()) == list(RouterConfig(jobs=1))


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"jobs": 1.5}, "jobs"),
        ({"jobs": True}, "jobs"),
        ({"llm_batch_size": 2.5}, "llm_batch_size"),
        ({"llm_batch_size": "4"}, "llm_batch_size"),
        ({"alpha": "0.5"}, "alpha"),
        ({"alpha": True}, "alpha"),
        ({"p_quantile": None}, "p_quantile"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.5}, "alpha"),
        ({"p_quantile": 0}, "p-quantile"),
        ({"jobs": 0}, "jobs"),
        ({"llm_batch_size": -1}, "batch-size"),
    ],
)
def test_router_config_validate_names_the_bad_field(fields, named):
    with pytest.raises(ConfigError, match=named):
        RouterConfig(**fields).validate()


def test_router_config_takes_ints_for_its_numbers():
    RouterConfig(alpha=1, p_quantile=1, jobs=1, llm_batch_size=1).validate()
