import json
import random
import re

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from celerlog.evaluation import Metrics, evaluate, load_template_csv, normalize_template, report
from celerlog.model import ConfigError
from oracles import naive_fga, naive_fta, naive_ga, naive_normalize, naive_pa


PERFECT = {0: "a <*>", 1: "a <*>", 2: "b c", 3: "b c"}


class TestGroupingAccuracy:
    def test_perfect(self):
        assert evaluate(PERFECT, dict(PERFECT)).ga == 1.0

    def test_merged_clusters_score_zero(self):
        pred = {0: "t", 1: "t", 2: "t", 3: "t"}
        assert evaluate(pred, PERFECT).ga == 0.0

    def test_split_cluster_scores_zero_for_its_records(self):
        pred = {0: "a <*>", 1: "a <*>", 2: "b c one", 3: "b c two"}
        assert evaluate(pred, PERFECT).ga == 0.5

    def test_universe_mismatch_fatal(self):
        with pytest.raises(ConfigError):
            evaluate({0: "x"}, {0: "x", 1: "y"})


class TestParsingAccuracy:
    def test_exact_match(self):
        assert evaluate(PERFECT, dict(PERFECT)).pa == 1.0

    def test_collapse_normalization(self):
        pred = {0: "a <*> <*> b"}
        gt = {0: "a <*> b"}
        assert evaluate(pred, gt).pa == 1.0

    def test_wrong_constant(self):
        pred = {0: "a x b"}
        gt = {0: "a <*> b"}
        assert evaluate(pred, gt).pa == 0.0


class TestTemplateF1:
    def test_perfect(self):
        metrics = evaluate(PERFECT, dict(PERFECT))
        assert metrics.fga == metrics.fta == 1.0

    def test_half_correct_grouping(self):
        pred = {0: "a <*>", 1: "a <*>", 2: "b c one", 3: "b c two"}
        # 1 of 3 predicted templates grouping-correct; 2 gt templates.
        p, r = 1 / 3, 1 / 2
        assert evaluate(pred, PERFECT).fga == pytest.approx(2 * p * r / (p + r))

    def test_text_must_match_for_fta(self):
        pred = {0: "a <*>", 1: "a <*>", 2: "b d", 3: "b d"}
        metrics = evaluate(pred, PERFECT)
        assert metrics.fga == 1.0
        assert metrics.fta == 0.5

    def test_nothing_correct(self):
        pred = {0: "x", 1: "y", 2: "z", 3: "w"}
        metrics = evaluate(pred, PERFECT)
        assert metrics.fga == metrics.fta == 0.0

    def test_fta_never_exceeds_fga(self):
        rng = random.Random(99)
        for _ in range(50):
            pred, gt = _random_pair(rng, 40)
            metrics = evaluate(pred, gt)
            assert metrics.fta <= metrics.fga + 1e-12


class TestNormalizeTemplate:
    def test_collapses_runs(self):
        assert normalize_template("a <*> <*> <*> b") == "a <*> b"

    def test_whitespace_squeezed(self):
        assert normalize_template("a   b") == "a b"

    def test_identity(self):
        assert normalize_template("plain text") == "plain text"


def _random_pair(rng: random.Random, n_records: int):
    words = ["get", "put", "node", "disk", "<*>"]

    def template():
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 6)))

    gt_pool = [template() for _ in range(rng.randint(1, 8))]
    gt = {i: rng.choice(gt_pool) for i in range(n_records)}
    pred_pool = gt_pool + [template() for _ in range(3)] + [t + " <*>" for t in gt_pool[:2]]
    pred = {
        i: gt[i] if rng.random() < 0.6 else rng.choice(pred_pool) for i in range(n_records)
    }
    return pred, gt


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_evaluator(self, seed):
        rng = random.Random(seed)
        pred, gt = _random_pair(rng, rng.randint(1, 60))
        assert evaluate(pred, gt) == Metrics(
            naive_ga(pred, gt), naive_pa(pred, gt), naive_fga(pred, gt), naive_fta(pred, gt)
        )

    def test_order_symmetry(self):
        rng = random.Random(5)
        pred, gt = _random_pair(rng, 50)
        shuffled = list(pred)
        rng.shuffle(shuffled)
        pred_shuffled = {i: pred[i] for i in shuffled}
        gt_shuffled = {i: gt[i] for i in shuffled}
        assert evaluate(pred, gt) == evaluate(pred_shuffled, gt_shuffled)


@st.composite
def _templates(draw):
    """Tokens joined by one or two spaces or a tab, at times padded with whitespace."""
    tokens = draw(st.lists(st.sampled_from(["get", "disk", "<*>"]), min_size=1, max_size=4))
    template = tokens[0]
    for token in tokens[1:]:
        template += draw(st.sampled_from([" ", "  ", "\t"])) + token
    padding = st.sampled_from(["", " ", "\t"])
    return draw(padding) + template + draw(padding)


TEMPLATES = _templates()


@st.composite
def template_pairs(draw):
    """Predictions and ground truth over the same line ids: each true template
    is renamed to one predicted template, so two true templates can merge, and
    any record can take another template instead, so a true cluster can split."""
    truths = draw(st.lists(TEMPLATES, min_size=1, max_size=4, unique=True))
    ground_truth = draw(st.lists(st.sampled_from(truths), min_size=1, max_size=12))
    renamed = {truth: draw(st.one_of(st.just(truth), TEMPLATES)) for truth in truths}
    predictions = [
        draw(st.one_of(st.just(renamed[truth]), TEMPLATES)) for truth in ground_truth
    ]
    return dict(enumerate(predictions)), dict(enumerate(ground_truth))


def _clusters_spanning_two(case, side):
    members: dict[str, set[str]] = {}
    for line_id, template in case[side].items():
        members.setdefault(template, set()).add(case[1 - side][line_id])
    return any(len(others) > 1 for others in members.values())


def _squeezed(template):
    return " ".join(template.split())


def _equal_after_collapse(case):
    pred, gt = case
    return any(
        _squeezed(pred[i]) != _squeezed(gt[i])
        and naive_normalize(pred[i]) == naive_normalize(gt[i])
        for i in pred
    )


def _equal_after_squeeze(case):
    pred, gt = case
    return any(pred[i] != gt[i] and _squeezed(pred[i]) == _squeezed(gt[i]) for i in pred)


class TestEvaluateAgainstOracle:
    @settings(max_examples=1000, deadline=None)
    @given(template_pairs())
    def test_equals_naive_metrics(self, case):
        pred, gt = case
        assert evaluate(pred, gt) == Metrics(
            naive_ga(pred, gt), naive_pa(pred, gt), naive_fga(pred, gt), naive_fta(pred, gt)
        )

    @pytest.mark.parametrize(
        "feature",
        [
            lambda case: _clusters_spanning_two(case, 0),
            lambda case: _clusters_spanning_two(case, 1),
            _equal_after_collapse,
            _equal_after_squeeze,
            lambda case: naive_fga(*case) > naive_fta(*case),
            lambda case: len(case[0]) == 1,
        ],
        ids=["merged-true-clusters", "split-true-cluster", "equal-after-collapse",
             "equal-after-squeeze", "grouped-with-wrong-text", "one-record"],
    )
    def test_generator_covers(self, feature):
        find(
            template_pairs(),
            feature,
            settings=settings(max_examples=2000, database=None, phases=[Phase.generate]),
        )


class TestReportAndIo:
    def test_report_file_and_table(self, tmp_path, capsys):
        metrics = Metrics(ga=1.0, pa=1.0, fga=1.0, fta=1.0)
        out = tmp_path / "report.json"
        report(metrics, out, ledger={"llm_invocations": 4, "tokens_consumed": 100})
        payload = json.loads(out.read_text())
        assert payload["metrics"] == {"GA": 1.0, "PA": 1.0, "FGA": 1.0, "FTA": 1.0}
        assert payload["ledger"]["llm_invocations"] == 4
        printed = capsys.readouterr().out
        assert "GA" in printed and "1.0000" in printed
        assert "llm_invocations" in printed

    def test_empty_eval_set_fatal(self):
        with pytest.raises(ConfigError):
            evaluate({}, {})

    def test_load_template_csv(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text('LineId,EventTemplate\n0,"a <*>"\n1,b\n', encoding="utf-8")
        assert load_template_csv(path) == {0: "a <*>", 1: "b"}

    def test_load_template_csv_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_bytes(b'\xef\xbb\xbfLineId,EventTemplate\n0,"a <*>"\n1,b\n')
        assert load_template_csv(path) == {0: "a <*>", 1: "b"}

    def test_not_utf8_fatal(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_bytes(b"LineId,EventTemplate\n0,caf\xe9 <*>\n")
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            load_template_csv(path)

    def test_duplicate_line_id_fatal(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("LineId,EventTemplate\n0,a\n0,b\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_template_csv(path)

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ConfigError, match="file not found"):
            load_template_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "header, missing", [("Id,EventTemplate", "LineId"), ("LineId,Template", "EventTemplate")]
    )
    def test_header_without_a_column_fatal(self, tmp_path, header, missing):
        path = tmp_path / "gt.csv"
        path.write_text(f"{header}\n0,a\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"has no {missing} column"):
            load_template_csv(path)

    def test_blank_row_skipped(self, tmp_path):
        path = tmp_path / "gt.csv"
        path.write_text("LineId,EventTemplate\n0,a\n\n1,b\n", encoding="utf-8")
        assert load_template_csv(path) == {0: "a", 1: "b"}

    def test_unwritable_report_fatal(self, tmp_path):
        # The report's directory would be a regular file.
        (tmp_path / "file").write_text("", encoding="utf-8")
        metrics = Metrics(ga=1.0, pa=1.0, fga=1.0, fta=1.0)
        with pytest.raises(ConfigError, match="cannot write report"):
            report(metrics, tmp_path / "file" / "report.json")
