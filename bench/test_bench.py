"""Self-tests of the benchmark itself: ``python3 -m pytest -q bench``.

The fit tests run a shortened problem (two inner iterations per follower
solve), because they check the benchmark's bookkeeping, not the solver.
"""

import importlib
import json
import re
from pathlib import Path

import pytest

import run
import worker
from tracer import COUNT_SITES, PER_LAYER_UNITS, SPAN_SITES


def _shorten(config: Path, **values) -> Path:
    text = config.read_text(encoding="utf-8")
    for key, value in values.items():
        text, n = re.subn(rf"^{key}\s*=[^#\n]*", f"{key} = {value}", text,
                          flags=re.M)
        assert n == 1
    config.write_text(text, encoding="utf-8")
    return config


@pytest.fixture
def short_fit(tmp_path):
    config = run.write_config("fit_grid", 0, tmp_path / "out", tmp_path / "fit.cfg")
    return _shorten(config, max_inner=2)


def _original(consumer, name):
    return getattr(importlib.import_module(f"gradsteer.{consumer}"), name)


def test_traced_counts_repeat(short_fit):
    first = worker.run_command(str(short_fit), "fit", traced=True)["trace"]
    second = worker.run_command(str(short_fit), "fit", traced=True)["trace"]
    assert first["site_calls"] == second["site_calls"]
    assert first["counts"] == second["counts"]
    assert first["inner_iterations"] == second["inner_iterations"]
    assert [s[0] for s in first["spans"]] == [s[0] for s in second["spans"]]
    assert first["counts"]["grad_calls"] > 0
    assert not first["missing"]


def test_names_restored_and_untraced_fingerprint_unchanged(short_fit):
    sites = [(c, n) for c, n in SPAN_SITES] + [(c, n) for c, n, _ in COUNT_SITES]
    before = {site: _original(*site) for site in sites}
    out_dir = short_fit.parent / "out"

    traced = worker.run_command(str(short_fit), "fit", traced=True)
    traced_gate = run.gate_fit(traced["exit_code"], out_dir, short_fit)
    assert all(_original(*site) is before[site] for site in sites)

    plain = worker.run_command(str(short_fit), "fit", traced=False)
    plain_gate = run.gate_fit(plain["exit_code"], out_dir, short_fit)
    assert traced_gate["ok"] and plain_gate["ok"]
    assert run.drift(plain_gate["fingerprint"], traced_gate["fingerprint"]) == 0.0


def test_corrupted_gradcheck_counts_as_failed(tmp_path):
    from gradsteer import cli
    config = run.write_config("gradcheck", 3, tmp_path / "out", tmp_path / "gc.cfg")
    code = cli.run_gradcheck(config, corruption=1.0)
    assert code == cli.EXIT_GRADCHECK
    rep = {"exit_code": code, "wall_s": 1.0, "peak_rss_mb": 1.0,
           "gate": run.gate_gradcheck(code, tmp_path / "out")}
    summary = run.summarize({"workload": "gradcheck", "seed": 3, "trace": 0,
                             "setup": [0.1], "reps": [rep]})
    assert summary["failed"] == 1
    assert summary["end_to_end"]["fail_rate"] == 1.0
    line = json.loads(run.result_line(summary, trace=False))
    assert (line["attempted"], line["failed"]) == (1, 1)
    # the command reported its failure, so its outputs are still right
    assert line["correct"] is True

    # an exit code that contradicts the rows means wrong outputs
    assert not run.gate_gradcheck(cli.EXIT_OK, tmp_path / "out")["valid"]


def test_workload_config_changes_only_knobs(tmp_path):
    from gradsteer import cli
    for workload, (command, shipped) in run.WORKLOADS.items():
        written = run.write_config(workload, 7, tmp_path / "o", tmp_path / "w.cfg")
        new = cli._parse_pairs(written)
        old = cli._parse_pairs(run.ROOT / shipped)
        changed = {k for k in old if old[k][0] != new[k][0]}
        knob = "max_outer" if command == "fit" else "seed"
        assert set(new) == set(old)
        assert changed <= {"data", "out_dir", knob}
        assert cli.parse_config(written).data_path.is_file()


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.E2E_UNITS[k] for k in run.BOUNDED_E2E}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
