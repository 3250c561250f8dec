"""Per-layer tracing of gradsteer, installed from outside the package.

Each traced function is replaced, in the namespace of the module that calls
it, by a wrapper that records a span: name, start, end and the span that was
open when it was called. A span is named after the module that defines the
function (``integrate.integrate_forward``), and that module is the layer its
self time is charged to. The gradient and Hessian-vector closures returned by
``gradient_function`` and ``hvp_function`` are counted but get no span: a fit
makes over a million gradient calls. Spans stay in memory until the run ends.
``Tracer.restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional

# (consumer module, name): calls made through that module's namespace get a
# span. The adjoint entries catch the sweeps of every caller, gradcheck's too.
SPAN_SITES = (
    ("cli", "main"),
    ("cli", "run_fit"),
    ("cli", "run_gradcheck"),
    ("cli", "parse_config"),
    ("cli", "ingest_csv"),
    ("cli", "solve_nested"),
    ("cli", "leader_forward"),
    ("cli", "gradient_check"),
    ("leader", "solve_follower"),
    ("leader", "leader_step"),
    ("leader", "leader_forward"),
    ("leader", "leader_backward"),
    ("leader", "leader_gradient_arrays"),
    ("leader", "leader_merit"),
    ("leader", "follower_cost"),
    ("leader", "update_control"),
    ("follower", "follower_forward"),
    ("follower", "follower_backward"),
    ("follower", "follower_cost"),
    ("follower", "follower_gradient_arrays"),
    ("follower", "update_control"),
    ("adjoint", "follower_forward"),
    ("adjoint", "follower_backward"),
    ("adjoint", "leader_forward"),
    ("adjoint", "leader_backward"),
    ("adjoint", "follower_cost"),
    ("adjoint", "leader_merit"),
    ("adjoint", "integrate_forward"),
    ("adjoint", "integrate_backward"),
)

# (consumer module, factory name, counter): every closure the factory returns
# counts its calls. hvp_function builds its gradient closure through
# models.gradient_function, so the gradient calls inside each HVP are counted.
COUNT_SITES = (
    ("models", "gradient_function", "grad_calls"),
    ("adjoint", "gradient_function", "grad_calls"),
    ("adjoint", "hvp_function", "hvp_calls"),
)

LAYERS = ("cli", "leader", "follower", "adjoint", "integrate")
SWEEP_SPANS = ("adjoint.follower_forward", "adjoint.follower_backward",
               "adjoint.leader_forward", "adjoint.leader_backward")
COST_SPANS = ("adjoint.follower_cost", "adjoint.leader_merit")


class Tracer:
    """Spans and counters of one traced run. Install, run, restore."""

    def __init__(self) -> None:
        self.spans: List[list] = []          # [name, start, end, parent index]
        self.site_calls: Counter = Counter()  # "<consumer>.<name>" -> calls
        self.counts: Dict[str, list] = {}     # counter -> [calls]
        self.inner_iterations: List[int] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for consumer, name in SPAN_SITES:
            self._patch(consumer, name, self._span_wrapper)
        for consumer, name, counter in COUNT_SITES:
            box = self.counts.setdefault(counter, [0])
            self._patch(consumer, name,
                        lambda site, fn, box=box: _counting_factory(fn, box))

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _patch(self, consumer: str, name: str, make_wrapper) -> None:
        module = importlib.import_module(f"gradsteer.{consumer}")
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{consumer}.{name}")
            return
        wrapper = make_wrapper(f"{consumer}.{name}", original)
        self._saved.append((module, name, original))
        setattr(module, name, wrapper)

    def _span_wrapper(self, site: str, fn):
        span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, calls = self.spans, self._stack, self.site_calls
        observe = self.inner_iterations if site == "leader.solve_follower" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[site] += 1
            record = [span_name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                # a stalled follower solve raises with its best iterate
                best = getattr(exc, "best", None)
                if observe is not None and best is not None:
                    observe.append(best.inner_iterations)
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe.append(out.inner_iterations)
            return out

        return traced

    # -- results ------------------------------------------------------------

    def count(self, counter: str) -> int:
        return self.counts.get(counter, [0])[0]

    def durations(self, span_name: str) -> List[float]:
        return [end - start for name, start, end, _ in self.spans
                if name == span_name]

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def to_record(self) -> dict:
        """Spans and counts as plain JSON data."""
        return {"spans": self.spans, "site_calls": dict(self.site_calls),
                "counts": {k: v[0] for k, v in self.counts.items()},
                "inner_iterations": self.inner_iterations,
                "missing": self.missing}

    @classmethod
    def from_record(cls, record: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = record["spans"]
        tracer.site_calls.update(record["site_calls"])
        tracer.counts = {k: [v] for k, v in record["counts"].items()}
        tracer.inner_iterations = record["inner_iterations"]
        tracer.missing = record["missing"]
        return tracer


def _counting_factory(factory, box):
    @functools.wraps(factory)
    def counted_factory(*args, **kwargs):
        fn = factory(*args, **kwargs)

        def counted(*a):
            box[0] += 1
            return fn(*a)

        return counted

    return counted_factory


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float, report: Optional[dict],
                  hit_cap: bool, import_s: float, output_bytes: int,
                  micro: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced run. `report` is the fit's report.json
    (None for gradcheck). A layer the workload never calls reads 0."""
    own = tracer.self_times()
    layer_self = {layer: 0.0 for layer in LAYERS}
    sweep_self = 0.0
    for (name, _, _, _), t in zip(tracer.spans, own):
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + t
        if name in SWEEP_SPANS:
            sweep_self += t

    fwd = tracer.durations("integrate.integrate_forward")
    bwd = tracer.durations("integrate.integrate_backward")
    costs = [d for name in COST_SPANS for d in tracer.durations(name)]
    solves = tracer.durations("follower.solve_follower")
    steps = tracer.durations("leader.leader_step")
    follower_trials = tracer.site_calls["follower.update_control"]
    leader_trials = tracer.site_calls["leader.update_control"]
    inner = sum(tracer.inner_iterations)

    history = report["history"] if report else []
    outer = report["outer_iterations"] if report else 0
    leader_accepted = sum(1 for h in history if h["gamma1_used"] > 0)

    run_fit = [(start, end) for name, start, end, _ in tracer.spans
               if name == "cli.run_fit"]
    nested_end = [end for name, _, end, _ in tracer.spans
                  if name == "leader.solve_nested"]
    output_s = (run_fit[0][1] - nested_end[0]) if run_fit and nested_end else 0.0

    n_spans = len(tracer.spans)
    n_counted = tracer.count("grad_calls") + tracer.count("hvp_calls")
    overhead_s = (n_counted * micro["count_wrapper_us"]
                  + n_spans * micro["span_wrapper_us"]) * 1e-6

    return {
        "models.grad_calls": tracer.count("grad_calls"),
        "models.hvp_calls": tracer.count("hvp_calls"),
        "models.grad_us": micro["grad_us"],
        "models.hvp_us": micro["hvp_us"],
        "integrate.forward_sweeps": len(fwd),
        "integrate.backward_sweeps": len(bwd),
        "integrate.forward_ms": _median(fwd, 1e3),
        "integrate.backward_ms": _median(bwd, 1e3),
        "integrate.forward_busy_s": sum(fwd),
        "integrate.backward_busy_s": sum(bwd),
        "integrate.micro_forward_ms": micro["forward_ms"],
        "integrate.micro_backward_ms": micro["backward_ms"],
        "integrate.self_s": layer_self["integrate"],
        "adjoint.sweep_self_s": sweep_self,
        "adjoint.cost_evals": len(costs),
        "adjoint.cost_busy_s": sum(costs),
        "adjoint.self_s": layer_self["adjoint"],
        "follower.solves": len(solves),
        "follower.inner_iters": inner,
        "follower.trials": follower_trials,
        "follower.accept_ratio": ((inner - len(solves)) / follower_trials
                                  if follower_trials else 0.0),
        "follower.first_solve_s": solves[0] if solves else 0.0,
        "follower.self_s": layer_self["follower"],
        "leader.outer_iters": outer,
        "leader.trials": leader_trials,
        "leader.accept_ratio": (leader_accepted / leader_trials
                                if leader_trials else 0.0),
        "leader.step_ms": _median(steps, 1e3),
        "leader.residual_final": history[-1]["leader_grad_norm"] if history else 0.0,
        "leader.hit_cap": int(hit_cap),
        "leader.self_s": layer_self["leader"],
        "cli.import_s": import_s,
        "cli.parse_s": sum(tracer.durations("cli.parse_config")),
        "cli.load_s": sum(tracer.durations("cli.ingest_csv")),
        "cli.output_s": output_s,
        "cli.output_bytes": output_bytes,
        "cli.self_s": layer_self["cli"],
        "bench.traced_wall_s": traced_wall_s,
        "bench.self_coverage": sum(own) / traced_wall_s,
        "bench.spans": n_spans,
        "trace_overhead": overhead_s / max(traced_wall_s - overhead_s, 1e-9),
    }


# name -> unit, in report order
PER_LAYER_UNITS = {
    "models.grad_calls": "count", "models.hvp_calls": "count",
    "models.grad_us": "us", "models.hvp_us": "us",
    "integrate.forward_sweeps": "count", "integrate.backward_sweeps": "count",
    "integrate.forward_ms": "ms", "integrate.backward_ms": "ms",
    "integrate.forward_busy_s": "s", "integrate.backward_busy_s": "s",
    "integrate.micro_forward_ms": "ms", "integrate.micro_backward_ms": "ms",
    "integrate.self_s": "s",
    "adjoint.sweep_self_s": "s", "adjoint.cost_evals": "count",
    "adjoint.cost_busy_s": "s", "adjoint.self_s": "s",
    "follower.solves": "count", "follower.inner_iters": "count",
    "follower.trials": "count", "follower.accept_ratio": "ratio",
    "follower.first_solve_s": "s", "follower.self_s": "s",
    "leader.outer_iters": "count", "leader.trials": "count",
    "leader.accept_ratio": "ratio", "leader.step_ms": "ms",
    "leader.residual_final": "1", "leader.hit_cap": "0/1",
    "leader.self_s": "s",
    "cli.import_s": "s", "cli.parse_s": "s", "cli.load_s": "s",
    "cli.output_s": "s", "cli.output_bytes": "bytes", "cli.self_s": "s",
    "bench.traced_wall_s": "s", "bench.self_coverage": "ratio",
    "bench.spans": "count", "trace_overhead": "ratio",
}
