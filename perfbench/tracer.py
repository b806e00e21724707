"""Call tracing from outside the efftree package.

A `Tracer` keeps, per span name, the number of calls and the self time:
the wall time of the call minus the time spent in traced calls nested
inside it. It also keeps named counters. `install_efftree` patches traced
wrappers over efftree's public functions in every efftree module namespace
that holds them, and over a few methods, and returns the `Patches` that
undo it. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    """Per-span call counts and self times, plus named counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: dict[str, float] = {}
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time accumulated by each open span

    def _close(self, name: str, t0: float, call: bool = True) -> None:
        elapsed = perf_counter() - t0
        child = self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        if call:
            self.calls[name] += 1
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child

    def wrap(self, name, fn, on_result=None, on_error=None):
        """Traced version of `fn`: returns what `fn` returns and re-raises
        what it raises. `on_result(tracer, result)` and
        `on_error(tracer, err)` update counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self._close(name, t0)
                if on_error is not None:
                    on_error(self, err)
                raise
            self._close(name, t0)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_generator(self, name, fn, on_item=None):
        """Traced version of a generator function: the time spent producing
        each item counts as self time of `name` (no call is counted), and
        each item passes through `on_item(tracer, item)`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self._open.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    self._close(name, t0, call=False)
                    return
                except BaseException:
                    self._close(name, t0, call=False)
                    raise
                self._close(name, t0, call=False)
                yield item if on_item is None else on_item(self, item)

        return traced

    def metrics(self) -> dict[str, float]:
        """`<span>.calls`, `<span>.s` (self time) and every counter."""
        out: dict[str, float] = {}
        for name in sorted(set(self.calls) | set(self.self_s)):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.self_s.get(name, 0.0)
        out.update(self.counts)
        return out


class Patches:
    """Attribute and item replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set_attr(self, owner, attr: str, value) -> None:
        self._undo.append((setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value) -> None:
        self._undo.append((mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def replace_everywhere(self, modules, original, value) -> None:
        """Rebind every module-level name bound to `original`."""
        for module in modules:
            for attr, current in list(vars(module).items()):
                if current is original:
                    self.set_attr(module, attr, value)

    def restore(self) -> None:
        while self._undo:
            setter, *args = self._undo.pop()
            setter(*args)


def _count(counter: str, amount):
    def update(tracer: Tracer, result) -> None:
        tracer.counts[counter] += amount(result)
    return update


def _count_error(counter: str, error_type):
    def update(tracer: Tracer, err: BaseException) -> None:
        if isinstance(err, error_type):
            tracer.counts[counter] += 1
    return update


def _grown_tree(tracer: Tracer, tree) -> None:
    nodes = tree.nodes.values()
    tracer.counts["tree.max_nodes"] += len(tree.nodes)
    tracer.counts["search.scanned"] += sum(nd.n_candidates for nd in nodes)
    tracer.counts["search.admissible"] += sum(nd.n_admissible for nd in nodes)


def install_efftree(tracer: Tracer) -> Patches:
    """Wrap efftree's public functions; the caller restores the returned patches.

    A function or method that no longer exists is skipped, so its metrics
    read 0 instead of the traced run failing.
    """
    from efftree import cli, data, estimators, glm, prune, search, select, simulate, tree  # noqa: F401

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "efftree" or name.startswith("efftree.")]
    fit_failed = _count_error("glm.fit.failed", glm.FitError)
    functions = [
        ("data", "load_csv", "data.load_csv", _count("data.load_csv.rows", lambda d: d.n), None),
        ("glm", "build_design", "glm.build_design", None, None),
        ("glm", "build_design_difference", "glm.build_design_difference", None, None),
        ("glm", "fit_ols", "glm.fit_ols", None, fit_failed),
        ("glm", "fit_logistic", "glm.fit_logistic",
         _count("glm.fit_logistic.irls_iters", lambda f: f.iterations), fit_failed),
        ("glm", "predict_mean", "glm.predict_mean", None, None),
        ("estimators", "fit_nuisance", "estimators.fit_nuisance", None,
         _count_error("estimators.fit_nuisance.failed", glm.FitError)),
        ("estimators", "split_contrast", "estimators.split_contrast", None,
         _count_error("estimators.split_contrast.inadmissible",
                      estimators.InadmissibleSplitError)),
        ("search", "find_best_split", "search.find_best_split", None, None),
        ("search", "node_tables", "search.node_tables", None, None),
        ("search", "candidate_statistics", "search.candidate_statistics",
         _count("search.candidates", lambda r: len(r[0])), None),
        ("tree", "grow_max_tree", "tree.grow_max_tree", _grown_tree, None),
        ("prune", "weakest_link_sequence", "prune.weakest_link_sequence", None, None),
        ("select", "select_final", "select.select_final", None, None),
        ("select", "validation_statistics", "select.validation_statistics",
         _count("select.zeroed", lambda stats: sum(1 for v in stats.values() if v == 0.0)), None),
        ("select", "bootstrap_effects", "select.bootstrap_effects",
         _count("select.bootstrap.dropped", lambda ivs: ivs[0].n_dropped if ivs else 0), None),
        ("simulate", "generate", "simulate.generate", None, None),
        ("simulate", "run_replicate", "simulate.run_replicate", None, None),
        ("cli", "cmd_fit", "cli.fit", None, None),
        ("cli", "cmd_predict", "cli.predict", None, None),
        ("cli", "cmd_simulate", "cli.simulate", None, None),
    ]
    patches = Patches()
    for module_name, attr, span, on_result, on_error in functions:
        original = getattr(sys.modules[f"efftree.{module_name}"], attr, None)
        if original is not None:
            patches.replace_everywhere(modules, original,
                                       tracer.wrap(span, original, on_result, on_error))

    # One span for the three estimators, reached through ESTIMATE.
    for kind, original in list(getattr(estimators, "ESTIMATE", {}).items()):
        wrapped = tracer.wrap("estimators.estimate", original)
        patches.replace_everywhere(modules, original, wrapped)
        patches.set_item(estimators.ESTIMATE, kind, wrapped)

    # Candidate blocks: producing a block (argsort, level counts) and its
    # aggregate() calls are both block aggregation.
    def trace_block(tr: Tracer, block):
        block.aggregate = tr.wrap("search.aggregate", block.aggregate)
        return block

    blocks = getattr(search, "iter_candidate_blocks", None)
    if blocks is not None:
        patches.replace_everywhere(
            modules, blocks, tracer.wrap_generator("search.aggregate", blocks, trace_block))

    from_indices = data.SubgroupMask.__dict__.get("from_indices")
    if from_indices is not None:
        patches.set_attr(data.SubgroupMask, "from_indices",
                         classmethod(tracer.wrap("data.from_indices", from_indices.__func__)))
    for owner, attr, span in ((data.Dataset, "take", "data.take"),
                              (tree.Tree, "route", "tree.route"),
                              (tree.Tree, "prune_at", "prune.prune_at")):
        if attr in owner.__dict__:
            patches.set_attr(owner, attr, tracer.wrap(span, owner.__dict__[attr]))
    return patches
