"""Tests of the benchmark's call tracer.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracer import Tracer, install_efftree  # noqa: E402


class Boom(Exception):
    pass


def test_wrap_passes_return_value_through():
    tracer = Tracer()
    payload = object()
    traced = tracer.wrap("f", lambda x, *, y: (x, y, payload))
    assert traced(1, y=2) == (1, 2, payload)
    assert traced(3, y=4)[2] is payload
    assert tracer.calls["f"] == 2
    assert tracer.self_s["f"] >= 0.0


def test_wrap_reraises_the_same_exception():
    tracer = Tracer()
    err = Boom("original")
    seen = []

    def fails():
        raise err

    traced = tracer.wrap("f", fails, on_error=lambda tr, e: seen.append(e))
    with pytest.raises(Boom) as info:
        traced()
    assert info.value is err
    assert seen == [err]
    assert tracer.calls["f"] == 1
    assert tracer._open == []


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.05))

    def outer_body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", outer_body)()
    assert tracer.self_s["inner"] >= 0.05
    assert 0.01 <= tracer.self_s["outer"] < 0.05


def test_wrap_generator_yields_items_and_reraises():
    tracer = Tracer()

    def gen(n):
        yield from range(n)
        raise Boom("end")

    traced = tracer.wrap_generator("g", gen, on_item=lambda tr, x: x * 10)
    out = []
    with pytest.raises(Boom):
        for item in traced(3):
            out.append(item)
    assert out == [0, 10, 20]
    assert tracer.calls["g"] == 0 and tracer.self_s["g"] >= 0.0
    assert tracer._open == []


def _efftree_bindings():
    """Every binding the tracer may patch, by identity."""
    from efftree import data, estimators, tree

    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name == "efftree" or name.startswith("efftree.")}
    classes = {cls: dict(vars(cls)) for cls in (data.SubgroupMask, data.Dataset, tree.Tree)}
    return modules, classes, dict(estimators.ESTIMATE)


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_install_then_restore_leaves_originals():
    from efftree import cli, simulate  # noqa: F401 - load every module first

    modules, classes, estimate = _efftree_bindings()
    tracer = Tracer()
    patches = install_efftree(tracer)
    assert simulate.grow_max_tree is not modules["efftree.simulate"]["grow_max_tree"]
    patches.restore()
    after_modules, after_classes, after_estimate = _efftree_bindings()
    assert all(_same(modules[name], after_modules[name]) for name in modules)
    assert all(_same(classes[cls], after_classes[cls]) for cls in classes)
    assert _same(estimate, after_estimate)


def test_traced_replicate_counts_layers_and_restores():
    from efftree import simulate

    setting = simulate.SimSetting("heterogeneous", n=300, seed=5)
    config = simulate.make_config(setting, "dr")
    plain = simulate.run_replicate(setting, config, 0, 5)

    tracer = Tracer()
    patches = install_efftree(tracer)
    try:
        traced = simulate.run_replicate(setting, config, 0, 5)
    finally:
        patches.restore()
    assert traced.mse == plain.mse and traced.correct == plain.correct
    metrics = tracer.metrics()
    assert metrics["tree.grow_max_tree.calls"] == 1
    assert metrics["simulate.generate.calls"] == 2
    assert metrics["glm.fit_logistic.irls_iters"] >= metrics["glm.fit_logistic.calls"] > 0
    assert metrics["search.candidates"] > 0 and metrics["search.aggregate.calls"] > 0
    assert metrics["tree.max_nodes"] >= 1

    simulate.run_replicate(setting, config, 0, 5)
    assert tracer.metrics() == metrics


def test_install_skips_functions_that_no_longer_exist(monkeypatch):
    from efftree import search, tree

    monkeypatch.delattr(search, "node_tables")
    monkeypatch.delattr(tree.Tree, "prune_at")
    patches = install_efftree(Tracer())
    patches.restore()
    assert not hasattr(search, "node_tables")
