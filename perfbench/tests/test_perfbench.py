"""Tests of the benchmark itself: inputs, span arithmetic, metric names.

    python3 -m pytest perfbench/tests
"""
import json
import os
import re
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from mfeit.geometry import DomainConfig, build_star_shape  # noqa: E402
from workloads import WORKLOADS, Context, attempt  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]
    assert json.dumps(wl.inputs(7)) == json.dumps(wl.inputs(7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_admissible_inputs(name):
    wl = WORKLOADS[name]
    a, b = wl.inputs(7), wl.inputs(8)
    assert json.dumps(a) != json.dumps(b)
    domain = DomainConfig(b0=0.2, delta=0.1)
    for op in a + b:
        cos = op.get("cos", [op.get("radius")])
        build_star_shape(cos, [], domain)  # raises outside the class
        for _re_k, im_k in op.get("contrasts", []):
            assert abs(im_k) >= 0.4


def _traced_counts(wl, op, ctx):
    rec = spans.Recorder()
    with spans.instrument(rec, layers.targets(), ("mfeit",)):
        attempt(wl, op, ctx)
    exact = set(layers.exact_metrics())
    return {k: v for k, v in layers.layer_metrics(rec).items() if k in exact}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_layer_counts(name, tmp_path):
    # sweep-circle runs its worker pool with two threads here
    wl = WORKLOADS[name]
    ctx = Context(workdir=tmp_path, nproc=2)
    op = wl.inputs(3)[-1]
    first = _traced_counts(wl, op, ctx)
    assert first == _traced_counts(wl, op, ctx)
    assert first["linalg.factorizations"] > 0


def test_self_time_on_two_thread_tree():
    # parent P on thread 1; C1 on thread 1 and C2 on a pool thread overlap;
    # G is C2's child on the pool thread
    tree = [spans.Span(1, None, "P", 1, 0.0, 10.0),
            spans.Span(2, 1, "C1", 1, 1.0, 4.0),
            spans.Span(3, 1, "C2", 2, 2.0, 6.0),
            spans.Span(4, 3, "G", 2, 3.0, 5.0)]
    assert spans.self_times(tree) == {1: 5.0, 2: 3.0, 3: 2.0, 4: 2.0}
    agg = spans.aggregate(tree + [spans.Span(5, None, "G", 1, 20.0, 21.5)])
    assert agg["G"] == {"calls": 2, "self_s": 3.5}


def test_pool_tasks_nest_under_submitting_span():
    mod = types.ModuleType("fake_layer")

    def leaf():
        return threading.get_ident()

    def outer():
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(lambda _: mod.leaf(), range(4)))

    mod.leaf, mod.outer = leaf, outer
    sys.modules["fake_layer"] = mod
    try:
        rec = spans.Recorder()
        targets = [spans.Target("fake_layer", "leaf", "x.leaf"),
                   spans.Target("fake_layer", "outer", "x.outer")]
        with spans.instrument(rec, targets):
            mod.outer()
        assert mod.leaf is leaf and mod.outer is outer
    finally:
        del sys.modules["fake_layer"]
    (root,) = [s for s in rec.spans if s.name == "x.outer"]
    leaves = [s for s in rec.spans if s.name == "x.leaf"]
    assert len(leaves) == 4
    assert all(s.parent == root.id for s in leaves)
    assert all(s.thread != root.thread for s in leaves)


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == layers.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in list(e2e) + list(per_layer) + list(WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64


def test_thread_counts_refuse_more_than_nproc(monkeypatch):
    monkeypatch.setenv("MFEIT_THREADS", "3")
    with pytest.raises(run.Refused):
        run.thread_counts(2, 1)
    monkeypatch.setenv("MFEIT_THREADS", "two")
    with pytest.raises(run.Refused):
        run.thread_counts(2, 1)
    monkeypatch.setenv("MFEIT_THREADS", "2")
    assert run.thread_counts(2, 1)["sweep_threads"] == 2


def test_pass_count_depends_on_arguments_only():
    assert run.pass_count(25, 15.0) == 2
    assert run.pass_count(25, 3.0) == 8
    assert run.pass_count(1, 15.0) == 2


def test_op_times_take_each_ops_best_and_charge_failures():
    # op 3 fails in every pass and stops early
    a = run.Pass(False, 3.1, [1.0, 2.0, 0.1], [False, False, True])
    b = run.Pass(False, 3.5, [0.8, 2.5, 0.2], [False, False, True])
    run_s, op_p50 = run.op_times([a, b])
    assert op_p50 == pytest.approx(1.4)          # median of 0.8 and 2.0
    assert run_s == pytest.approx(0.8 + 2.0 + 1.4)
