import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import celerlog
from celerlog import __version__
from celerlog.cli import build_parser, main
from celerlog.model import RouterConfig
from corpus import fig5_lines, make_template_corpus

GOLDEN_HELP = Path(__file__).parent / "data" / "cli_help.txt"
README = Path(__file__).parents[1] / "README.md"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestParseCommand:
    def test_happy_path_writes_three_files(self, tmp_path):
        log = write_lines(tmp_path / "sample.log", fig5_lines())
        out = tmp_path / "out"
        code = main(["parse", "--input", str(log), "--output", str(out), "--backend", "mock"])
        assert code == 0
        for name in ("structured.csv", "templates.csv", "run.json"):
            assert (out / name).is_file()

    def test_invalid_alpha_exits_2(self, tmp_path, capsys):
        log = write_lines(tmp_path / "sample.log", ["a b"])
        code = main([
            "parse", "--input", str(log), "--output", str(tmp_path / "o"), "--alpha", "1.5",
        ])
        assert code == 2
        assert "alpha" in capsys.readouterr().err

    def test_output_does_not_depend_on_the_hash_seed(self, tmp_path):
        # Skeleton groups hold their messages in frozensets, whose order moves
        # with PYTHONHASHSEED; batches of 4 would carry that order into the
        # token counts of run.json. With two templates a length, some whole
        # templates go sparse, so sparse groups hold many messages.
        lines, _ = make_template_corpus(
            n_lines=800, n_templates=40, n_oneoffs=40, seed=13, shared_lengths=True
        )
        log = write_lines(tmp_path / "in.log", lines)
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"out-{seed}"
            env = dict(
                os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(celerlog.__file__).parents[1])
            )
            subprocess.run(
                [
                    sys.executable, "-m", "celerlog.cli", "parse", "--input", str(log),
                    "--output", str(out), "--batch-size", "4", "--backend", "mock",
                ],
                env=env, check=True, timeout=120,
            )
            ledger = json.loads((out / "run.json").read_text())["ledger"]
            del ledger["wall_time_seconds"]
            outputs.append(
                [(out / name).read_bytes() for name in ("structured.csv", "templates.csv")]
                + [ledger]
            )
        assert outputs[0] == outputs[1]

    def test_missing_input_exits_2(self, tmp_path):
        code = main([
            "parse", "--input", str(tmp_path / "nope.log"), "--output", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_unknown_flag_exits_2(self):
        assert main(["parse", "--frobnicate"]) == 2

    def test_removed_tau_step_flag_exits_2(self, tmp_path, capsys):
        log = write_lines(tmp_path / "sample.log", ["a b"])
        code = main([
            "parse", "--input", str(log), "--output", str(tmp_path / "o"), "--tau-step", "0.05",
        ])
        assert code == 2
        assert "--tau-step" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_no_subcommand_exits_2(self):
        assert main([]) == 2

    def test_csv_format(self, tmp_path):
        source = tmp_path / "in.csv"
        with open(source, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["LineId", "Content"])
            writer.writerow([1, "job 17 finished"])
        out = tmp_path / "out"
        code = main([
            "parse", "--input", str(source), "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        text = (out / "structured.csv").read_text()
        assert "job <*> finished" in text

    def test_csv_with_byte_order_mark(self, tmp_path):
        # The mark sits right before the first header, here "Content".
        source = tmp_path / "in.csv"
        source.write_bytes(b"\xef\xbb\xbfContent,LineId\njob 17 finished,1\n")
        out = tmp_path / "out"
        code = main([
            "parse", "--input", str(source), "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        assert "job <*> finished" in (out / "structured.csv").read_text(encoding="utf-8")

    def test_csv_field_over_the_field_limit_exits_2(self, tmp_path, capsys):
        source = tmp_path / "in.csv"
        with open(source, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["LineId", "Content"])
            writer.writerow([1, "x" * 200_000])
        limit = csv.field_size_limit()
        code = main([
            "parse", "--input", str(source), "--format", "csv", "--output", str(tmp_path / "o"),
        ])
        assert code == 2
        assert str(source) in capsys.readouterr().err
        assert csv.field_size_limit() == limit

    def test_http_backend_requires_endpoint(self, tmp_path, capsys):
        log = write_lines(tmp_path / "sample.log", ["a b"])
        code = main([
            "parse", "--input", str(log), "--output", str(tmp_path / "o"),
            "--backend", "http", "--model", "m",
        ])
        assert code == 2
        assert "endpoint" in capsys.readouterr().err

    def test_header_pattern_flag(self, tmp_path):
        log = write_lines(tmp_path / "x.log", ["INFO core: job 1 done", "INFO core: job 2 done"])
        out = tmp_path / "out"
        code = main([
            "parse", "--input", str(log), "--output", str(out),
            "--header-pattern", r"^\w+ core: (?P<content>.*)$",
        ])
        assert code == 0
        with open(out / "structured.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["Content"] == "job 1 done"


    def test_header_pattern_strips_csv_content(self, tmp_path):
        source = tmp_path / "in.csv"
        with open(source, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["LineId", "Content"])
            writer.writerow([1, "INFO core: job 1 done"])
            writer.writerow([2, "INFO core: job 2 done"])
        out = tmp_path / "out"
        code = main([
            "parse", "--input", str(source), "--format", "csv", "--output", str(out),
            "--header-pattern", r"^\w+ core: (?P<content>.*)$",
        ])
        assert code == 0
        with open(out / "structured.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["Content"] for row in rows] == ["job 1 done", "job 2 done"]
        assert {row["EventTemplate"] for row in rows} == {"job <*> done"}


class TestHttpCredential:
    def test_api_key_read_from_environment(self, tmp_path, monkeypatch):
        import json as jsonlib
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        seen = {}

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                seen["auth"] = self.headers.get("Authorization")
                payload = jsonlib.dumps(
                    {"choices": [{"message": {"content": "1:"}}],
                     "usage": {"prompt_tokens": 1, "completion_tokens": 1}}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        monkeypatch.setenv("CELERLOG_API_KEY", "sk-from-env")
        # Mutually dissimilar singleton lines force a sparse group.
        log = write_lines(tmp_path / "x.log", [
            "alpha beta gamma delta epsi",
            "fox gull hare ibex jay",
            "kite lark mole newt owl",
            "pika quail rook seal tern",
            "urial vole wren yak zebu",
            "ant bee cat dog emu",
        ])
        try:
            code = main([
                "parse", "--input", str(log), "--output", str(tmp_path / "o"),
                "--backend", "http", "--model", "m",
                "--endpoint", f"http://127.0.0.1:{server.server_port}/",
            ])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        assert seen["auth"] == "Bearer sk-from-env"


class TestSampleCorpus:
    def test_shipped_demo_parses_and_scores_perfectly(self, tmp_path):
        samples = Path(__file__).parent.parent / "samples"
        out = tmp_path / "out"
        assert main([
            "parse", "--input", str(samples / "auth_zookeeper.log"), "--output", str(out),
        ]) == 0
        report = tmp_path / "report.json"
        assert main([
            "eval", "--structured", str(out / "structured.csv"),
            "--ground-truth", str(samples / "auth_zookeeper_truth.csv"),
            "--report", str(report),
        ]) == 0
        metrics = json.loads(report.read_text())["metrics"]
        assert metrics == {"GA": 1.0, "PA": 1.0, "FGA": 1.0, "FTA": 1.0}


class TestEvalCommand:
    def test_perfect_toy_run(self, tmp_path, capsys):
        log = write_lines(tmp_path / "sample.log", fig5_lines())
        out = tmp_path / "out"
        assert main(["parse", "--input", str(log), "--output", str(out)]) == 0

        gt = tmp_path / "gt.csv"
        with open(gt, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["LineId", "EventTemplate"])
            for i in range(5):
                writer.writerow([i, "Snapshotting: <*> to <*>"])
        report_path = tmp_path / "report.json"
        code = main([
            "eval", "--structured", str(out / "structured.csv"),
            "--ground-truth", str(gt), "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["metrics"] == {"GA": 1.0, "PA": 1.0, "FGA": 1.0, "FTA": 1.0}
        # run.json sits next to structured.csv, so cost counters flow through.
        assert payload["ledger"]["llm_invocations"] == 0

    def test_structured_field_over_the_field_limit_exits_2(self, tmp_path, capsys):
        # parse writes a 200k-character line as one structured.csv field,
        # which csv.reader refuses to read back at its default field limit.
        log = write_lines(tmp_path / "long.log", ["x" * 200_000])
        out = tmp_path / "out"
        assert main(["parse", "--input", str(log), "--output", str(out)]) == 0
        capsys.readouterr()
        limit = csv.field_size_limit()
        code = main([
            "eval", "--structured", str(out / "structured.csv"),
            "--ground-truth", str(out / "structured.csv"), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert str(out / "structured.csv") in capsys.readouterr().err
        assert csv.field_size_limit() == limit

    def test_universe_mismatch_exits_2(self, tmp_path):
        structured = tmp_path / "structured.csv"
        structured.write_text("LineId,EventTemplate\n0,a\n", encoding="utf-8")
        gt = tmp_path / "gt.csv"
        gt.write_text("LineId,EventTemplate\n0,a\n1,b\n", encoding="utf-8")
        code = main([
            "eval", "--structured", str(structured),
            "--ground-truth", str(gt), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_ids_shifted_by_a_blank_line_explain_numbering(self, tmp_path, capsys):
        log = write_lines(tmp_path / "sample.log", ["Snapshotting: 0x0 to /a/b", "",
                                                   "Snapshotting: 0x1 to /a/c"])
        out = tmp_path / "out"
        assert main(["parse", "--input", str(log), "--output", str(out)]) == 0
        gt = tmp_path / "gt.csv"
        # Ground truth numbered by physical line: the second record is line 2.
        gt.write_text("LineId,EventTemplate\n0,Snapshotting: <*> to <*>\n"
                      "2,Snapshotting: <*> to <*>\n", encoding="utf-8")
        capsys.readouterr()
        code = main([
            "eval", "--structured", str(out / "structured.csv"),
            "--ground-truth", str(gt), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "numbers non-blank records from 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("header", "row", "named"),
        [
            ("LineId,EventTemplate", "abc,a", "'abc'"),
            ("EventTemplate,LineId", "a", "no LineId or EventTemplate cell"),
            ("LineId,EventTemplate", "1", "no LineId or EventTemplate cell"),
        ],
        ids=["line-id-not-integer", "no-line-id-cell", "no-template-cell"],
    )
    def test_malformed_ground_truth_row_exits_2(self, tmp_path, capsys, header, row, named):
        structured = tmp_path / "structured.csv"
        structured.write_text("LineId,EventTemplate\n0,a\n1,a\n", encoding="utf-8")
        gt = tmp_path / "gt.csv"
        first = "a,0" if header.startswith("EventTemplate") else "0,a"
        gt.write_text(f"{header}\n{first}\n{row}\n", encoding="utf-8")
        code = main([
            "eval", "--structured", str(structured),
            "--ground-truth", str(gt), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("celerlog: error: ")
        assert str(gt) in err and named in err


    @pytest.mark.parametrize(
        ("run_info", "ledger"),
        [
            ("[]", None),
            ('{"ledger": 5}', None),
            ('{"ledger": {"llm_invocations": 3}, "routing": 5}', {"llm_invocations": 3}),
            ('{"ledger": ', None),
        ],
        ids=["not-an-object", "ledger-not-an-object", "routing-not-an-object", "not-json"],
    )
    def test_run_json_of_the_wrong_shape_is_left_out(self, tmp_path, run_info, ledger):
        structured = tmp_path / "structured.csv"
        structured.write_text("LineId,EventTemplate\n0,a\n", encoding="utf-8")
        (tmp_path / "run.json").write_text(run_info, encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main([
            "eval", "--structured", str(structured),
            "--ground-truth", str(structured), "--report", str(report_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["ledger"] == ledger
        assert payload["routing"] is None

    @pytest.mark.parametrize("bad_file", ["structured", "ground-truth"])
    def test_csv_not_utf8_exits_2(self, tmp_path, capsys, bad_file):
        paths = {}
        for name in ("structured", "ground-truth"):
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("LineId,EventTemplate\n0,caf\u00e9 <*>\n", encoding="utf-8")
        paths[bad_file].write_bytes(b"LineId,EventTemplate\n0,caf\xe9 <*>\n")
        code = main([
            "eval", "--structured", str(paths["structured"]),
            "--ground-truth", str(paths["ground-truth"]), "--report", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("celerlog: error: ")
        assert str(paths[bad_file]) in err and "UTF-8" in err


class TestFlagSurface:
    def test_defaults_equal_router_config(self):
        parser = build_parser()
        args = parser.parse_args(["parse", "--input", "x", "--output", "y"])
        defaults = RouterConfig()
        assert args.alpha == defaults.alpha
        assert args.p_quantile == defaults.p_quantile
        assert args.jobs == defaults.jobs
        assert args.batch_size == defaults.llm_batch_size

    def test_readme_table_lists_every_parse_flag(self):
        readme = README.read_text(encoding="utf-8")
        table = readme[readme.index("`celerlog parse`\n"):].split("\n\n")[1]
        documented = re.findall(r"^\| `(--[a-z-]+)", table, flags=re.MULTILINE)
        parse_cmd = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices["parse"]
        defined = [
            option for action in parse_cmd._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"
        ]
        assert sorted(documented) == sorted(defined)

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_help_matches_golden(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        rendered = build_parser().format_help()
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN_HELP.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_HELP.write_text(rendered, encoding="utf-8")
        assert rendered == GOLDEN_HELP.read_text(encoding="utf-8")
