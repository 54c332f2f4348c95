"""Tests of the benchmark itself: the span recorder, the correctness gate and
the contract of run.py.  Run with ``PYTHONPATH=src python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def fake_modules(monkeypatch):
    """``fakehome`` defines outer() -> inner(); ``fakealias`` re-exports outer."""
    home = types.ModuleType("fakehome")
    exec("def inner():\n    return 1\n\ndef outer():\n    return inner() + inner()\n",
         home.__dict__)
    alias = types.ModuleType("fakealias")
    alias.outer = home.outer
    monkeypatch.setitem(sys.modules, "fakehome", home)
    monkeypatch.setitem(sys.modules, "fakealias", alias)
    return home, alias


def test_spans_nest_and_originals_are_restored(fake_modules):
    home, alias = fake_modules
    outer, inner = home.outer, home.inner
    tracer = tracing.Tracer(
        registry={"fakehome": {"outer": "x.outer_s", "inner": "x.inner_s"}},
        lookup=("fakehome", "fakealias"), hooks={})
    with tracer:
        assert alias.outer is not outer and home.inner is not inner
        with tracer.root():
            assert alias.outer() == 2
    assert (home.outer, home.inner, alias.outer) == (outer, inner, outer)

    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("iteration", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    selfs = tracing.self_times(tracer.spans)
    assert set(selfs) == {tracing.ROOT_METRIC, "x.outer_s", "x.inner_s"}
    assert sum(selfs.values()) == pytest.approx(tracer.spans[0].duration, abs=1e-9)
    assert all(v >= 0 for v in selfs.values())


def test_missing_function_fails_loudly_and_patches_nothing(fake_modules):
    home, _ = fake_modules
    outer = home.outer
    tracer = tracing.Tracer(
        registry={"fakehome": {"outer": "x.outer_s", "gone": "x.gone_s"}},
        lookup=("fakehome", "fakealias"), hooks={})
    with pytest.raises(LookupError, match="fakehome.gone is gone"):
        tracer.install()
    assert home.outer is outer


@pytest.fixture(scope="module")
def program():
    return worker.load_program(HERE.parent)


class SmallChecks(workloads.Workload):
    """The oracle and explore parts of the workloads on two tiny instances."""

    def __init__(self, program, tmp):
        super().__init__(program, {}, tmp)
        seeds = workloads.make_inputs("certify", 7)["boundary_seeds"]
        explore = workloads.make_inputs("refute", 7)["explore"]
        self.parts = [workloads.OracleChecks(self, seeds, instances=((1, 1), (1, 2))),
                      workloads.ExploreChecks(self, explore)]

    def iteration(self, call) -> None:
        for part in self.parts:
            part.run(call)


@pytest.fixture
def small_oracles(program, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RANDOM_GRAPHS", 1)
    return SmallChecks(program, tmp_path)


def test_clean_iteration_passes_every_check(small_oracles):
    tally = worker.Tally()
    for _ in range(2):
        _, _, outputs = worker.run_iteration(small_oracles.iteration)
        tally.check(small_oracles, outputs)
    assert small_oracles.setup_errors == []
    assert tally.attempted == 2 * len(small_oracles.checks) and tally.failed == 0


def test_injected_wrong_verdicts_count_as_failed(small_oracles, program, monkeypatch):
    hx = program.hexcut
    real = hx.reduced_euler_from_fvector
    monkeypatch.setattr(hx, "reduced_euler_from_fvector", lambda fv: real(fv) + 1)

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(hx, "verify_k_cut_order", broken)
    tally = worker.Tally()
    _, _, outputs = worker.run_iteration(small_oracles.iteration)
    tally.check(small_oracles, outputs)
    explore_calls = [label for label in small_oracles.checks if label.startswith("explore:")]
    assert tally.failed == 2 + len(explore_calls)  # two instances give a wrong Euler
    assert 0 < tally.failed < tally.attempted
    assert any("reduced Euler" in e for e in tally.errors)
    assert any("raised RuntimeError" in e for e in tally.errors)


def test_output_that_changes_between_iterations_fails(small_oracles):
    tally = worker.Tally()
    _, _, outputs = worker.run_iteration(small_oracles.iteration)
    tally.check(small_oracles, outputs)
    label = next(lbl for lbl, _ in outputs if lbl.startswith("wedge:"))
    path = next(out.path for lbl, out in outputs if lbl == label)
    path.write_text(path.read_text().replace('"dimension"', '"dimension" '))
    tally.check(small_oracles, [(label, next(o for lbl, o in outputs if lbl == label))])
    assert tally.failed == 1 and "differs" in tally.errors[0]


def test_hexcut_spans_nest_through_cli_and_wedge(small_oracles, program):
    tracer = tracing.Tracer()
    cli_verify = program.cli.verify_shelling
    with tracer:
        def body(call):
            with tracer.root():
                small_oracles.iteration(call)
        worker.run_iteration(body)
    assert program.cli.verify_shelling is cli_verify
    assert program.hexcut.verify_shelling is cli_verify

    spans = tracer.spans
    chain = {(spans[s.parent].name if s.parent >= 0 else None, s.name) for s in spans}
    assert {("main", "wedge_check"), ("wedge_check", "verify_shelling"),
            ("verify_k_cut_order", "verify_shelling")} <= chain
    metrics = tracing.iteration_metrics(tracer)
    assert sum(v for k, v in metrics.items() if k.endswith("_s") and k in run.PER_LAYER
               and k != "shelling.verify_cpu_s") == pytest.approx(spans[0].duration)
    assert metrics["cli.bytes_out"] > 0


def test_brute_force_oracle_agrees_with_hexcut_on_a_failing_order(program):
    hx = program.hexcut
    cx = hx.enumerate_facets(hx.build_hex_graph(1, 3), 3)
    order = hx.shelling_order(cx, relocate_tail=False)
    assert hx.verify_shelling(order).counterexample == workloads.first_failure(order.facets)
    assert workloads.first_failure(hx.shelling_order(cx).facets) is None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == [HERE.name]


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "refute", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
