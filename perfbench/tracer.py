"""Spans around every public priorsid function, recorded from outside.

:class:`Tracer` wraps each function listed in a module's ``__all__`` and
rebinds the wrapper in every priorsid namespace that binds the original
(``build_fir_regression`` is bound in ``priorsid.cli``, ``priorsid.realize``,
``priorsid.estimate`` and ``priorsid``), so calls between modules become
child spans.  Spans stay in memory: name, start, end, parent, op id and,
where the benchmark counts them, bytes.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import functools
import importlib
import inspect
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("statespace", "discretize", "priors", "estimate", "realize", "fileio", "cli")


def _array_bytes(result) -> int:
    """Bytes held by the ndarray fields of a returned dataclass."""
    return sum(
        value.nbytes
        for value in (getattr(result, f.name) for f in dataclasses.fields(result))
        if isinstance(value, np.ndarray)
    )


def _path_bytes(args, kwargs) -> int:
    return os.path.getsize(kwargs.get("path", args[0] if args else None))


# Computed byte counters: span name pattern -> bytes(args, kwargs, result).
_BYTES = {
    "estimate.build_fir_regression": lambda a, k, r: _array_bytes(r),
    "priors.compile_priors": lambda a, k, r: _array_bytes(r),
    "fileio.load_dataset": lambda a, k, r: _path_bytes(a, k),
    "fileio.write_*": lambda a, k, r: _path_bytes(a, k),
}


class Tracer:
    """Installs span-recording wrappers while a traced op runs."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None
        wrappers = {}
        for mod in MODULES:
            module = importlib.import_module(f"priorsid.{mod}")
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{mod}.{name}", fn)
        namespaces = [importlib.import_module("priorsid")]
        namespaces += [importlib.import_module(f"priorsid.{mod}") for mod in MODULES]
        self._bindings = [
            (ns, attr, value, wrappers[id(value)])
            for ns in namespaces
            for attr, value in vars(ns).items()
            if id(value) in wrappers
        ]

    def _wrap(self, name: str, fn):
        counter = next((c for p, c in _BYTES.items() if fnmatch.fnmatchcase(name, p)), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name,
                "op": self._op,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span["bytes"] = counter(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Record spans of one op; the original functions are restored after."""
        self._op = op_id
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        try:
            yield
        finally:
            for ns, attr, original, _ in self._bindings:
                setattr(ns, attr, original)
            self._op = None


def per_op_totals(spans: list[dict]) -> dict[int, dict[str, dict[str, float]]]:
    """Per op and span name: summed self seconds, calls and bytes.

    A span's self time is its duration minus the durations of its children;
    the program is single-threaded, so children never overlap.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_s[span["parent"]] += span["end"] - span["start"]
    totals: dict[int, dict[str, dict[str, float]]] = {}
    for span, children in zip(spans, child_s):
        entry = totals.setdefault(span["op"], {}).setdefault(
            span["name"], {"self_s": 0.0, "calls": 0, "bytes": 0}
        )
        entry["self_s"] += span["end"] - span["start"] - children
        entry["calls"] += 1
        entry["bytes"] += span.get("bytes", 0)
    return totals


# Per-layer metrics: (name, unit, field, span name patterns).  A time metric
# is listed only where every workload's op calls into it, so no time reads a
# structural zero; functions some workloads never call are given as counts
# here and with their self time in the trace file.
LAYER_METRICS = (
    ("estimate.build_fir_regression.self_s", "s", "self_s", ("estimate.build_fir_regression",)),
    ("estimate.solve.self_s", "s", "self_s", ("estimate.ls_*", "estimate.default_weight")),
    ("priors.check_consistency.self_s", "s", "self_s", ("priors.check_consistency",)),
    ("priors.compile_priors.self_s", "s", "self_s", ("priors.compile_priors",)),
    ("statespace.self_s", "s", "self_s", ("statespace.*",)),
    ("fileio.self_s", "s", "self_s", ("fileio.*",)),
    ("cli.self_s", "s", "self_s", ("cli.*",)),
    ("estimate.build_fir_regression.calls", "count", "calls", ("estimate.build_fir_regression",)),
    ("estimate.regressor_bytes", "B", "bytes", ("estimate.build_fir_regression",)),
    ("estimate.ls_unconstrained.calls", "count", "calls", ("estimate.ls_unconstrained",)),
    ("estimate.ls_equality_exact.calls", "count", "calls", ("estimate.ls_equality_exact",)),
    ("estimate.ls_equality_weighted.calls", "count", "calls", ("estimate.ls_equality_weighted",)),
    ("estimate.default_weight.calls", "count", "calls", ("estimate.default_weight",)),
    ("priors.compile_priors.calls", "count", "calls", ("priors.compile_priors",)),
    ("priors.check_consistency.calls", "count", "calls", ("priors.check_consistency",)),
    ("priors.constraint_bytes", "B", "bytes", ("priors.compile_priors",)),
    ("statespace.simulate.calls", "count", "calls", ("statespace.simulate",)),
    ("statespace.markov_sequence.calls", "count", "calls", ("statespace.markov_sequence",)),
    ("discretize.prototype_statespace.calls", "count", "calls", ("discretize.prototype_statespace",)),
    ("realize.identify_pipeline.calls", "count", "calls", ("realize.identify_pipeline",)),
    ("realize.kung_realize.calls", "count", "calls", ("realize.kung_realize",)),
    ("realize.block_hankel.calls", "count", "calls", ("realize.block_hankel",)),
    ("fileio.load_dataset.calls", "count", "calls", ("fileio.load_dataset",)),
    ("fileio.load_dataset.bytes", "B", "bytes", ("fileio.load_dataset",)),
    ("fileio.write.calls", "count", "calls", ("fileio.write_*",)),
    ("fileio.write.bytes", "B", "bytes", ("fileio.write_*",)),
    ("cli.run_identify.calls", "count", "calls", ("cli.run_identify",)),
    ("cli.mc_compare.calls", "count", "calls", ("cli.mc_compare",)),
)


def layer_metrics(spans: list[dict], op_ids: list[int]) -> dict[str, tuple[float, str]]:
    """Median over the traced ops of each per-layer metric."""
    totals = per_op_totals(spans)
    metrics = {}
    for name, unit, field, patterns in LAYER_METRICS:
        per_op = [
            sum(
                entry[field]
                for span_name, entry in totals.get(op, {}).items()
                if any(fnmatch.fnmatchcase(span_name, p) for p in patterns)
            )
            for op in op_ids
        ]
        metrics[name] = (statistics.median(per_op), unit)
    return metrics
