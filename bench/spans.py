"""Traced runs: spans and counters recorded around calls into treebound.

Tracing wraps public functions at the module attributes where their callers
look them up (``treebound.verify.region_sums`` is what ``mc_tail`` calls),
so nothing under ``src/`` changes.  Every wrapped call adds one to its
name's call count and its duration to the name's busy time, per op and per
thread.  Entries of ``WRAPPED`` marked to record spans also record one per
call: name, start, end, parent span and thread.  Hot inner functions (the
optimizer's candidate evaluations, pair counts, tree label arithmetic) are
only counted, so that a traced pass stays within memory and close to the
untraced time.

A span started in a ``--workers`` pool thread with no open span of its own
takes the innermost open span of the main thread as its parent: the main
thread is then blocked inside the call that started the pool.

A wrapped name that a later commit no longer has is listed in
``Tracer.absent`` and its metrics read 0.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import threading
from time import perf_counter
from typing import Callable, Optional


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _node_reps(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "nodes")) * len(_arg(args, kwargs, 3, "replicates"))


def _hash_values(args, kwargs, result) -> int:
    return len(_arg(args, kwargs, 1, "reps")) * len(_arg(args, kwargs, 2, "js"))


def _map_nodes(args, kwargs, result) -> int:
    return len(result.entries)


# (module, attribute, name, records spans, computed work per call)
WRAPPED: tuple[tuple[str, str, str, bool, Optional[Callable]], ...] = (
    ("treebound.cli", "mc_tail", "verify.mc_tail", True, None),
    ("treebound.cli", "sample_field", "fields.sample_field", True, None),
    ("treebound.cli", "random_finite_space", "verify.random_finite_space", True, None),
    ("treebound.cli", "davydov_check", "verify.davydov_check", True, None),
    ("treebound.cli", "breadth_first_row_layout", "embed.layout", True, _map_nodes),
    ("treebound.cli", "packed_layout", "embed.layout", True, _map_nodes),
    ("treebound.cli", "distortion_constant", "embed.distortion_constant", True, None),
    ("treebound.cli", "refutation_witness", "embed.refutation_witness", True, None),
    ("treebound.cli", "count_pairs_closed", "paircount.count_pairs_closed", True, None),
    ("treebound.verify", "region_sums", "fields.region_sums", True, None),
    ("treebound.verify", "optimize_params", "bounds.optimize_params", True, None),
    ("treebound.verify", "bernstein_bound", "bounds.bernstein_bound", True, None),
    ("treebound.verify", "concentration_bound", "bounds.concentration_bound", True, None),
    ("treebound.verify", "binomial_upper_99", "verify.binomial_upper_99", True, None),
    ("treebound.verify", "exact_alpha", "verify.exact_alpha", True, None),
    ("treebound.fields", "field_values", "fields.field_values", True, _node_reps),
    ("treebound.fields", "region_nodes", "tree.region_nodes", True, None),
    ("treebound.fields", "_innovations", "fields.innovations", False, _hash_values),
    ("treebound.fields", "parent", "tree.label", False, None),
    ("treebound.fields", "children", "tree.label", False, None),
    # calls from inside bounds: the optimizer's candidates, the concentration bound's blocks
    ("treebound.bounds", "bernstein_bound", "bounds.bernstein_inner", False, None),
    ("treebound.bounds", "variance_proxy", "bounds.variance_proxy", False, None),
    ("treebound.bounds", "count_pairs_closed", "paircount.count_pairs_closed", False, None),
    ("treebound.embed", "tree_distance", "embed.tree_distance", False, None),
)


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    op: Optional[int]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class Tracer:
    """Records spans and per-name totals while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (name, op, thread) -> [calls, busy seconds, computed work]
        self.totals: dict[tuple, list] = {}
        self.absent: list[str] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name, spanned, work in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, spanned, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    # -- recording --------------------------------------------------------
    def _add(self, name, seconds, work) -> None:
        key = (name, self.op, threading.get_ident())
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals.setdefault(key, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += work

    def enter(self, name: str) -> tuple:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks.get(self._main) if thread != self._main else None
            parent = main_stack[-1] if main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return (span_id, name, parent, thread, perf_counter())

    def exit(self, token: tuple, spanned: bool = True, work: int = 0) -> None:
        end = perf_counter()
        span_id, name, parent, thread, start = token
        self._stacks[thread].remove(span_id)
        self._add(name, end - start, work)
        if spanned:
            self.spans.append(Span(span_id, name, start, end, parent, thread, self.op))

    def _wrap(self, fn, name, spanned, work):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                token = tracer.enter(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer.exit(token, spanned)
        elif spanned:
            def wrapper(*args, **kwargs):
                token = tracer.enter(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    done = work is not None and result is not None
                    tracer.exit(token, True, work(args, kwargs, result) if done else 0)
        else:
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add(name, perf_counter() - start,
                                work(args, kwargs, None) if work else 0)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading ----------------------------------------------------------
    def total(self, name: str, ops: Optional[set] = None) -> tuple[int, float, int]:
        calls, seconds, work = 0, 0.0, 0
        for (n, op, _), (c, s, w) in self.totals.items():
            if n == name and (ops is None or op in ops):
                calls, seconds, work = calls + c, seconds + s, work + w
        return calls, seconds, work

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the time their children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        total = 0.0
        for s in self.spans:
            if s.name != name:
                continue
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, []), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total += (s.end - s.start) - covered
        return total


LAYER_UNITS = {
    "tree.region_nodes_s": "s",
    "tree.region_nodes_calls": "count",
    "tree.label_calls": "count",
    "fields.region_sums_s": "s",
    "fields.field_values_calls": "count",
    "fields.field_values_s": "s",
    "fields.sample_field_s": "s",
    "fields.innovation_ns": "ns",
    "fields.node_reps": "count",
    "fields.hash_values": "count",
    "paircount.closed_calls": "count",
    "paircount.closed_s": "s",
    "bounds.optimize_s": "s",
    "bounds.bernstein_calls": "count",
    "bounds.variance_proxy_calls": "count",
    "bounds.useful_ratio": "ratio",
    "bounds.concentration_s": "s",
    "verify.mc_tail_self_s": "s",
    "verify.binomial_ci_s": "s",
    "verify.worker_speedup": "ratio",
    "verify.finite_space_us": "us",
    "verify.davydov_us": "us",
    "verify.exact_alpha_us.a8": "us",
    "verify.exact_alpha_us.a12": "us",
    "verify.spaces": "count",
    "embed.layout_s": "s",
    "embed.distortion_s": "s",
    "embed.refutation_s": "s",
    "embed.tree_distance_calls": "count",
    "embed.map_nodes": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def _mean_us(calls: int, seconds: float) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def layer_metrics(tracer: Tracer, ops) -> dict[str, float]:
    """The per-layer metrics one traced pass yields.

    ``cli.import_s``, ``fields.innovation_ns``, ``verify.worker_speedup``,
    ``cli.output_bytes`` and ``trace.overhead_s`` are measured outside the
    traced calls and filled in by the caller.
    """
    t = tracer.total
    optimize_calls = t("bounds.optimize_params")[0]
    candidates = t("bounds.bernstein_inner")[0]
    alpha_ops = {
        atoms: {i for i, op in enumerate(ops) if op.params.get("max_atoms") == atoms}
        for atoms in (8, 12)
    }
    return {
        "tree.region_nodes_s": t("tree.region_nodes")[1],
        "tree.region_nodes_calls": t("tree.region_nodes")[0],
        "tree.label_calls": t("tree.label")[0],
        "fields.region_sums_s": t("fields.region_sums")[1],
        "fields.field_values_calls": t("fields.field_values")[0],
        "fields.field_values_s": t("fields.field_values")[1],
        "fields.sample_field_s": t("fields.sample_field")[1],
        "fields.node_reps": t("fields.field_values")[2],
        "fields.hash_values": t("fields.innovations")[2],
        "paircount.closed_calls": t("paircount.count_pairs_closed")[0],
        "paircount.closed_s": t("paircount.count_pairs_closed")[1],
        "bounds.optimize_s": t("bounds.optimize_params")[1],
        "bounds.bernstein_calls": t("bounds.bernstein_bound")[0] + candidates,
        "bounds.variance_proxy_calls": t("bounds.variance_proxy")[0],
        "bounds.useful_ratio": optimize_calls / candidates if candidates else 0.0,
        "bounds.concentration_s": t("bounds.concentration_bound")[1],
        "verify.mc_tail_self_s": tracer.self_time("verify.mc_tail"),
        "verify.binomial_ci_s": t("verify.binomial_upper_99")[1],
        "verify.finite_space_us": _mean_us(*t("verify.random_finite_space")[:2]),
        "verify.davydov_us": _mean_us(*t("verify.davydov_check")[:2]),
        "verify.exact_alpha_us.a8": _mean_us(*t("verify.exact_alpha", alpha_ops[8])[:2]),
        "verify.exact_alpha_us.a12": _mean_us(*t("verify.exact_alpha", alpha_ops[12])[:2]),
        "verify.spaces": t("verify.random_finite_space")[0],
        "embed.layout_s": t("embed.layout")[1],
        "embed.distortion_s": t("embed.distortion_constant")[1],
        "embed.refutation_s": t("embed.refutation_witness")[1],
        "embed.tree_distance_calls": t("embed.tree_distance")[0],
        "embed.map_nodes": t("embed.layout")[2],
        "cli.self_s": tracer.self_time("cli.main"),
    }
