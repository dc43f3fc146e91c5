"""Tests of the benchmark itself: answer checking, cold starts, tracing.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_tpcalc()

from tpcalc import catalog, group_core, tp_engine  # noqa: E402
from tracer import Tracer, tracing  # noqa: E402
import workloads  # noqa: E402


def test_planted_wrong_expected_value_is_a_failed_item(tmp_path):
    expected = json.loads((worker.EXPECTED_DIR / "tp-large.json").read_text())
    expected["s5"]["tp"] = "1/2"
    planted = tmp_path / "tp-large.json"
    planted.write_text(json.dumps(expected))
    record = worker.run_once("tp-large", 0, tmp_path, trace=False, expected_path=planted)
    assert record["attempted"] == 3
    assert record["failed"] == 1
    assert record["failed"] / record["attempted"] > 0


def test_pair_oracle_score_counts_a_wrong_p_value_once():
    expected = json.loads((worker.EXPECTED_DIR / "pair-oracle.json").read_text())
    answers = {k: dict(v, disagree=0, errors=0) for k, v in expected.items()}
    assert workloads.pair_oracle_score(answers, expected) == (1560, 0)
    answers["s4"] = dict(answers["s4"], p_values=["1/3"] + answers["s4"]["p_values"][1:])
    assert workloads.pair_oracle_score(answers, expected) == (1560, 1)


def test_repetitions_start_cold_and_repeat_their_counts(tmp_path):
    """Two traced repetitions in one process: every table is rebuilt, so no
    memoised lattice or tp survives, and every count repeats exactly."""
    first = worker.run_once("tp-large", 1, tmp_path, trace=True)
    second = worker.run_once("tp-large", 1, tmp_path, trace=True)
    assert first["failed"] == second["failed"] == 0
    assert first["digest"] == second["digest"]
    for phase in ("setup", "run"):
        assert first["trace"][phase]["calls"] == second["trace"][phase]["calls"]
        assert first["trace"][phase]["fresh"] == second["trace"][phase]["fresh"]
    assert first["trace"]["run"]["calls"]["group_core.all_subgroups"] == 3
    assert first["trace"]["run"]["fresh"]["group_core.all_subgroups.fresh"] == 3


def test_relabel_keeps_identity_and_seed_zero():
    G = group_core.dihedral(5)
    assert (workloads.relabel(G, None).mul == G.mul).all()
    H = workloads.relabel(G, workloads._seeded(7))
    assert H is not G and H.order == G.order
    assert not (H.mul == G.mul).all()
    assert sorted(H.element_orders) == sorted(G.element_orders)


def _bindings() -> dict:
    """Every function binding the tracer may replace, by identity."""
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "tpcalc" or name.startswith("tpcalc."):
            for attr, value in vars(mod).items():
                if callable(value):
                    snapshot[(name, attr)] = value
    snapshot[("GroupTable", "__init__")] = group_core.GroupTable.__init__
    for check, run in catalog.CHECKS.items():
        snapshot[("CHECKS", check)] = run
    return snapshot


def test_calls_through_another_modules_binding_are_counted():
    before = _bindings()
    original = group_core.all_subgroups
    mul = group_core.dihedral(4).mul
    tracer = Tracer()
    with tracing(tracer):
        assert tp_engine.all_subgroups is not original
        G = group_core.GroupTable(mul)
        tp_engine.tp(G)
        tp_engine.tp(G)
    assert tracer.calls["group_core.GroupTable"] == 1
    assert tracer.calls["tp_engine.tp"] == 2
    assert tracer.fresh["tp_engine.tp.fresh_tables"] == 1
    # reached only through tp_engine's own `all_subgroups` name
    assert tracer.calls["group_core.all_subgroups"] == 1
    assert tracer.calls["group_core.closure_of"] > 0
    # self times partition the top-level spans
    top_level = tracer.incl_s["tp_engine.tp"] + tracer.incl_s["group_core.GroupTable"]
    assert sum(tracer.self_s.values()) == pytest.approx(top_level)
    assert _bindings() == before


def test_bindings_are_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing(Tracer()):
            raise RuntimeError("stop")
    assert _bindings() == before


def test_refuses_to_run_without_the_program(tmp_path):
    root = Path(__file__).resolve().parents[2]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tp-large",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
