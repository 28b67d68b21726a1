"""One timed repetition in a fresh interpreter, so every cache starts cold.

Usage: ``python3 perfbench/child.py '<json request>'`` with ``src`` on
``PYTHONPATH``. The request names a mode (``setup``, ``run`` or ``trace``), the
corpus, the output directory, the jobs count, the CPUs to run on, the backend
delays and the file to write the result to. The result carries the monotonic
time at which ``celerlog`` was imported and its fixtures loaded, which the
parent subtracts from its own spawn time.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

os.sched_setaffinity(0, json.loads(sys.argv[1])["cpus"])

import celerlog  # noqa: E402
from celerlog.llm import load_prompt_parts  # noqa: E402
from celerlog.masking import default_mask_rules, default_verb_lexicon  # noqa: E402

default_mask_rules()
default_verb_lexicon()
load_prompt_parts()
READY = time.monotonic()

from backend import LatencyBackend  # noqa: E402
from tracing import traced_run  # noqa: E402


def main(request: dict) -> dict:
    result: dict = {"ready": READY}
    if request["mode"] == "setup":
        return result
    backend = LatencyBackend(request["request_s"], request["token_s"])
    out_dir = Path(request["out"])
    if request["mode"] == "trace":
        result.update(traced_run(Path(request["corpus"]), out_dir, backend, request["run_id"]))
        result["wait_s"] = backend.wait_s
        return result
    config = celerlog.RouterConfig(jobs=request["jobs"])
    started = time.perf_counter()
    run = celerlog.run(request["corpus"], config=config, backend=backend, out_dir=out_dir)
    result["parse_s"] = time.perf_counter() - started
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ledger"] = run.ledger.to_dict()
    result["records"] = len(run.rows)
    result["llm_inflight_max"] = backend.inflight_max
    result["wait_s"] = backend.wait_s
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    outcome = main(request)
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
