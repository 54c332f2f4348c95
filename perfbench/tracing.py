"""Span recording around the public functions of hexcut, from outside.

A :class:`Tracer` replaces each registered function with a wrapper in every
module that binds it, so that a call made through any of those names (the
package namespace, ``hexcut.cli`` globals, or a function-local
``from .shelling import ...``) opens a span.  Spans nest through a stack and
are kept in memory; :meth:`Tracer.restore` puts every original back.

Each registered function belongs to one per-layer metric.  A layer's time is
the *self* time of its spans: span duration minus the time covered by its
child spans, so that every traced second is counted once and the layer times
of an iteration add up to its root span.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from math import comb
from pathlib import Path

ROOT_METRIC = "trace.unattributed_s"

# home module -> {public function: per-layer time metric}
REGISTRY = {
    "hexcut.hexgraph": {
        "build_hex_graph": "hexgraph.build_s",
        "validate_structure": "hexgraph.build_s",
    },
    "hexcut.cutcomplex": {
        "enumerate_facets": "cutcomplex.enumerate_s",
        "f_vector": "cutcomplex.fvector_s",
    },
    "hexcut.shelling": {
        "shelling_order": "shelling.order_s",
        "order_with_tail_reinserted": "shelling.order_s",
        "tail_facets": "shelling.order_s",
        "verify_shelling": "shelling.verify_s",
        "spanning_facets": "shelling.spanning_s",
        "non_spanning_pair_table": "shelling.spanning_s",
        "non_spanning_witnesses": "shelling.witness_s",
        "verify_tail_obstruction": "shelling.witness_s",
        "check_spanning_structure": "shelling.witness_s",
        "verify_k_cut_order": "shelling.explore_s",
    },
    "hexcut.homology": {
        "betti_numbers": "homology.betti_s",
        "betti_numbers_from_facets": "homology.betti_s",
        "wedge_check": "homology.wedge_s",
        "boundary_composition_is_zero": "homology.boundary_check_s",
        "reduced_euler_closed": "homology.euler_s",
        "reduced_euler_from_fvector": "homology.euler_s",
    },
    "hexcut.cli": {"main": "cli.self_s"},
}

# modules whose globals callers look names up in
LOOKUP_MODULES = (
    "hexcut",
    "hexcut.cli",
    "hexcut.shelling",
    "hexcut.homology",
    "hexcut.cutcomplex",
    "hexcut.hexgraph",
)

# functions whose peak traced allocation is measured in the memory pass
MEMORY_METRICS = {
    "verify_shelling": "shelling.verify_peak_mb",
    "spanning_facets": "shelling.spanning_peak_mb",
}

CPU_METRICS = {"verify_shelling": "shelling.verify_cpu_s"}


def _count_verify(counts, args, kwargs, result) -> None:
    order = args[0] if args else kwargs["order"]
    last = order.n_facets if result.ok else result.counterexample[1]
    counts["shelling.rows_verified"] += max(0, last - 1)
    counts["shelling.pairs_reported"] += result.pairs_checked


def _count_order(counts, args, kwargs, result) -> None:
    counts["shelling.orders_built"] += 1


def _count_enumerate(counts, args, kwargs, result) -> None:
    counts["cutcomplex.facets"] += result.n_facets
    counts["cutcomplex.subsets_tested"] += comb(result.n_vertices, result.k)


def _count_cli(counts, args, kwargs, result) -> None:
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        if out.is_file():
            counts["cli.bytes_out"] += out.stat().st_size


# counters taken from arguments and results, after the span has closed
HOOKS = {
    "verify_shelling": _count_verify,
    "shelling_order": _count_order,
    "order_with_tail_reinserted": _count_order,
    "enumerate_facets": _count_enumerate,
    "main": _count_cli,
}


@dataclass
class Span:
    name: str
    metric: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float = 0.0
    cpu: float = 0.0
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps registered functions; records spans, counters and, with
    ``memory``, the peak traced allocation inside the memory functions."""

    def __init__(self, registry=REGISTRY, lookup=LOOKUP_MODULES, hooks=HOOKS,
                 memory: bool = False):
        self.registry = registry
        self.lookup = lookup
        self.hooks = hooks
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[name] for name in self.lookup if name in sys.modules]
        try:
            for home, functions in self.registry.items():
                home_mod = sys.modules.get(home)
                if home_mod is None:
                    raise LookupError(f"module {home} is not imported")
                for name, metric in functions.items():
                    original = getattr(home_mod, name, None)
                    if not callable(original):
                        raise LookupError(
                            f"{home}.{name} is gone; update the registry in perfbench/tracing.py"
                        )
                    wrapper = self._wrap(original, name, metric)
                    for mod in modules:
                        if mod.__dict__.get(name) is original:
                            setattr(mod, name, wrapper)
                            self._patched.append((mod, name, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        vanished = []
        while self._patched:
            mod, name, original = self._patched.pop()
            if name not in mod.__dict__:
                vanished.append(f"{mod.__name__}.{name}")
            setattr(mod, name, original)
        if vanished:
            raise LookupError(f"vanished while traced: {', '.join(vanished)}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, metric: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, metric, parent, time.perf_counter())
        span.cpu = -time.process_time()
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.cpu += time.process_time()
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str = "iteration"):
        """The span that encloses one iteration."""
        span = self._open(name, ROOT_METRIC)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, metric: str):
        hook = self.hooks.get(name)
        memory_function = self.memory and name in MEMORY_METRICS

        def wrapper(*args, **kwargs):
            span = self._open(name, metric)
            # a memory function called inside another is part of the outer peak
            measure = memory_function and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if measure:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(span)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("reset inside an open span")
        self.spans = []
        self.counts = defaultdict(float)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-metric self time: each span's duration minus its children's."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    out: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        out[span.metric] += span.duration - child_time
    return dict(out)


def iteration_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer times and counters of the spans recorded since the last reset."""
    out = self_times(tracer.spans)
    for span in tracer.spans:
        metric = CPU_METRICS.get(span.name)
        if metric:
            out[metric] = out.get(metric, 0.0) + span.cpu
    out.update(tracer.counts)
    return out


def memory_peaks_mb(tracer: Tracer) -> dict[str, float]:
    """Largest traced peak per memory metric, in MB (2**20 bytes)."""
    out: dict[str, float] = {}
    for span in tracer.spans:
        metric = MEMORY_METRICS.get(span.name)
        if metric:
            out[metric] = max(out.get(metric, 0.0), span.peak_bytes / 2**20)
    return out


def spans_to_records(spans: list[Span], iteration: int) -> list[dict]:
    return [
        {
            "iteration": iteration,
            "index": i,
            "name": s.name,
            "metric": s.metric,
            "parent": s.parent,
            "start": s.start,
            "end": s.end,
            "cpu": s.cpu,
        }
        for i, s in enumerate(spans)
    ]
