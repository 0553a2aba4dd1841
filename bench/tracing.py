"""Span recorder for the traced benchmark run.

Wrappers are installed on module attributes, that is on the names through
which each caller (a spinent module or the benchmark itself) reaches a public
function, so nothing under src/ changes.  A span is recorded only while a
benchmark item is open, so the correctness checks, which run after each cycle,
leave no spans.  Spans stay in memory and are reduced to per-layer metrics
after the traced phase.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import spinent.cli as cli
import spinent.dicke as dicke
import spinent.io as io
import spinent.metrics as metrics
import spinent.oracle as oracle
import spinent.states as states

# Layers in the order they are reported; each owns the spans whose names
# start with "<layer>.".
LAYERS = ("states", "dicke", "frame", "metrics", "io", "oracle", "cli")

_TAIL = ("correlation_terms", "entanglement_parameter",
         "squeezing_parameters", "spectroscopic_parameters", "classify")
_FACTORIES = ("coherent_state", "custom_state", "dicke_state",
              "random_state", "twisted_state")

# Span record fields.
_NAME, _START, _END, _PARENT, _SIZE, _FAILED = range(6)


def _ladder_size(args) -> int:
    return args[0].n_atoms + 1


def _oracle_ops(args) -> int:
    n = args[0].n_atoms
    return n << n


def _dump_label(args) -> str:
    return "io.dump_state" if "coefficients" in args[0] else "io.dump_report"


class Tracer:
    """Records nested spans around wrapped module attributes."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, module, attr: str, name: str, size=None, label=None):
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return original(*args, **kwargs)
            span = [label(args) if label else name, 0.0, 0.0, stack[-1],
                    size(args) if size else 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = perf_counter()
            try:
                return original(*args, **kwargs)
            except BaseException:
                span[_FAILED] = True
                raise
            finally:
                span[_END] = perf_counter()
                stack.pop()

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        for module in (metrics, dicke):
            self.wrap(module, "collective_moments", "dicke.collective_moments",
                      size=_ladder_size)
        for module in (metrics, cli):
            self.wrap(module, "pairwise_correlators",
                      "dicke.pairwise_correlators")
        # The benchmark's own analyze-* calls construct through these two.
        self.wrap(dicke, "DickeState", "dicke.DickeState")
        self.wrap(states, "DickeState", "dicke.DickeState")
        for module in (metrics, oracle):
            self.wrap(module, "mean_spin", "frame.mean_spin")
            self.wrap(module, "build_frame", "frame.build_frame")
            for attr in _TAIL:
                self.wrap(module, attr, f"metrics.{attr}")
        self.wrap(metrics, "transverse_variances",
                  "metrics.transverse_variances")
        self.wrap(metrics, "analyze", "metrics.analyze")
        self.wrap(cli, "analyze", "metrics.analyze")
        for attr in _FACTORIES:
            self.wrap(cli, attr, f"states.{attr}")
        self.wrap(io, "custom_state", "states.custom_state")
        for attr in ("csv_row", "parse_state", "state_document",
                     "report_document"):
            self.wrap(cli, attr, f"io.{attr}")
        self.wrap(cli, "dump_document", "io.dump", label=_dump_label)
        self.wrap(cli, "dicke_to_full", "oracle.dicke_to_full")
        self.wrap(cli, "oracle_metrics", "oracle.oracle_metrics",
                  size=_oracle_ops)
        self.wrap(oracle, "single_atom_action", "oracle.single_atom_action")
        self.wrap(cli, "main", "cli.main")

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def root(self, fn):
        """Run one benchmark item as a root span."""
        span = ["bench.item", 0.0, 0.0, -1, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = perf_counter()
        try:
            return fn()
        finally:
            span[_END] = perf_counter()
            self._stack.pop()


class _Totals:
    __slots__ = ("calls", "time", "self_time", "size", "failures")

    def __init__(self):
        self.calls = 0
        self.time = self.self_time = 0.0
        self.size = 0
        self.failures = 0

    def mean(self, scale: float) -> float:
        return self.time / self.calls * scale if self.calls else 0.0


def reduce_spans(spans: list[list], items: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `items` traced benchmark items."""
    children = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            children[span[_PARENT]] += span[_END] - span[_START]
    by_name: dict[str, _Totals] = defaultdict(_Totals)
    layer_self: dict[str, float] = defaultdict(float)
    root_time = 0.0
    for index, span in enumerate(spans):
        duration = span[_END] - span[_START]
        own = duration - children[index]
        totals = by_name[span[_NAME]]
        totals.calls += 1
        totals.time += duration
        totals.self_time += own
        totals.size += span[_SIZE]
        totals.failures += span[_FAILED]
        layer_self[span[_NAME].split(".", 1)[0]] += own
        if span[_PARENT] < 0:
            root_time += duration

    def get(name: str) -> _Totals:
        return by_name.get(name, _Totals())

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    moments = get("dicke.collective_moments")
    analyze = get("metrics.analyze")
    build_frame = get("frame.build_frame")
    tail_time = sum(get(f"metrics.{attr}").time for attr in _TAIL)
    factories = [get(f"states.{attr}") for attr in _FACTORIES]
    factory_calls = sum(t.calls for t in factories)
    state_doc, report_doc = get("io.state_document"), get("io.report_document")
    oracle_metrics = get("oracle.oracle_metrics")
    main = get("cli.main")
    out = {
        "dicke.moments_us": moments.mean(1e6),
        "dicke.moments_ns_per_coeff": ratio(moments.time, moments.size, 1e9),
        "dicke.moments_calls_per_item": ratio(moments.calls, items),
        "dicke.ctor_us": get("dicke.DickeState").mean(1e6),
        "frame.us": ratio(get("frame.mean_spin").time + build_frame.time,
                          build_frame.calls, 1e6),
        "metrics.variances_us": get("metrics.transverse_variances").mean(1e6),
        "metrics.tail_us": ratio(tail_time,
                                 get("metrics.correlation_terms").calls, 1e6),
        "metrics.analyze_self_us": ratio(analyze.self_time, analyze.calls,
                                         1e6),
        "states.factory_us": ratio(sum(t.time for t in factories),
                                   factory_calls, 1e6),
        "states.calls": ratio(factory_calls, items),
        "states.failures": ratio(sum(t.failures for t in factories), items),
        "io.csv_row_us": get("io.csv_row").mean(1e6),
        "io.parse_state_us": get("io.parse_state").mean(1e6),
        "io.state_dump_us": ratio(
            state_doc.time + get("io.dump_state").time, state_doc.calls, 1e6),
        "io.report_dump_us": ratio(
            report_doc.time + get("io.dump_report").time, report_doc.calls,
            1e6),
        "oracle.expand_us": get("oracle.dicke_to_full").mean(1e6),
        "oracle.metrics_ms": oracle_metrics.mean(1e3),
        "oracle.ns_per_amplitude_op": ratio(oracle_metrics.time,
                                            oracle_metrics.size, 1e9),
        "oracle.action_calls_per_item": ratio(
            get("oracle.single_atom_action").calls, items),
        "cli.self_ms": ratio(main.self_time, main.calls, 1e3),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = ratio(layer_self[layer], root_time)
    return out
