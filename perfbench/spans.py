"""Span tracer that wraps tsclab's public functions from outside the package.

A traced run replaces selected module and class attributes with wrappers
that time each call.  Every span records its duration and the part of it
covered by wrapped calls it made (its children), so a layer's self time is
its span minus its children.  Spans are aggregated in memory per name and
summarised when the run ends.  Nothing in the package is edited: the
wrappers are removed again by :meth:`Tracer.uninstall`.

Several modules bind functions by name at import time (``from ..sim import
step``), so the same function is wrapped under every name its callers use;
wrapping ``tsclab.sim.step`` alone would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict


class TraceError(RuntimeError):
    """A wrap target is missing or a layer recorded no calls."""


def _count_arrivals(tracer, t0, t1, report):
    tracer.counters["sim.vehicles"] += sum(report.arrivals)


def _count_cycles(tracer, t0, t1, record):
    if record is not None:
        tracer.counters["metrics.cycles"] += 1


def _begin_update(tracer, t0, t1, result):
    tracer.pending_update = [t0, 0]


def _count_adam(tracer, t0, t1, result):
    # A PPO minibatch update is the surrogate plus the policy and value Adam
    # steps that follow it; an Adam step outside PPO is one update on its own.
    pending = tracer.pending_update
    if pending is None:
        tracer.counters["work.updates"] += 1
        return
    pending[1] += 1
    if pending[1] == 2:
        tracer.durations["ppo.update"].append(t1 - pending[0])
        tracer.counters["work.updates"] += 1
        tracer.pending_update = None


# (span name, "module" or "module:Class", attribute, hook run after the call)
TARGETS = (
    ("cli", "tsclab.harness.cli", "main", None),
    ("sim.step", "tsclab.sim", "step", _count_arrivals),
    ("sim.step", "tsclab.envs", "step", _count_arrivals),
    ("sim.step", "tsclab.harness.runner", "step", _count_arrivals),
    ("sim.step", "tsclab.agents.autoencoder", "step", _count_arrivals),
    ("sim.apply_action", "tsclab.sim", "apply_action", None),
    ("sim.apply_action", "tsclab.envs", "apply_action", None),
    ("sim.apply_action", "tsclab.harness.runner", "apply_action", None),
    ("sim.apply_action", "tsclab.agents.autoencoder", "apply_action", None),
    ("metrics.feed", "tsclab.harness.metrics:CycleTracker", "feed", _count_cycles),
    ("staterep.expanded", "tsclab.staterep", "expanded_state", None),
    ("staterep.expanded", "tsclab.agents.autoencoder", "expanded_state", None),
    ("staterep.kplanes", "tsclab.staterep:KPlanesObservation", "observe", None),
    ("envs.step", "tsclab.envs:SignalControlEnv", "step", None),
    ("neural.predict", "tsclab.neural:Mlp", "predict", None),
    ("neural.forward", "tsclab.neural:Mlp", "forward", None),
    ("neural.backward", "tsclab.neural:Mlp", "backward", None),
    ("neural.adam", "tsclab.neural:Adam", "step", _count_adam),
    ("neural.softmax_sample", "tsclab.neural", "softmax_sample", None),
    ("neural.softmax_sample", "tsclab.agents.ppo", "softmax_sample", None),
    ("ppo.surrogate", "tsclab.agents.ppo", "ppo_surrogate", _begin_update),
    ("ppo.train", "tsclab.harness.cli", "train_ppo", None),
    ("autoencoder.collect", "tsclab.harness.cli", "collect_state_buffer", None),
    ("autoencoder.fit", "tsclab.harness.cli", "train_autoencoder", None),
    ("autoencoder.mse", "tsclab.agents.autoencoder", "reconstruction_mse", None),
    ("baselines.webster_tick", "tsclab.baselines:DynamicWebsterController",
     "on_tick", None),
    ("baselines.webster_recompute", "tsclab.baselines", "webster_timings", None),
    ("runner.episode", "tsclab.harness.runner", "run_episode", None),
    ("runner.decide", "tsclab.harness.runner:PolicyController", "decide", None),
    ("bundle.save", "tsclab.agents.bundle:PolicyBundle", "save", None),
    ("bundle.load", "tsclab.agents.bundle:PolicyBundle", "load", None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name, None)
        if obj is None:
            raise TraceError(f"wrap target {owner} is missing")
    return obj


class Tracer:
    """Collects spans of one traced iteration; create one per iteration.

    ``outside_ns`` is the part of a wrapped call that no clock read inside
    the wrapper sees (the call into it and the return); it is charged to the
    parent as child time along with the measured part.  See :func:`calibrate`.
    """

    def __init__(self, outside_ns: int = 0) -> None:
        self.outside_ns = outside_ns
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.pending_update: list | None = None
        self._open: list[int] = []  # child time of each open span, innermost last
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, hook):
        durations = self.durations[name]
        self_ns = self.self_ns
        open_spans = self._open
        outside_ns = self.outside_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # The span is t0..t1.  The parent is charged enter..the last clock
            # read plus outside_ns, so the wrapper's own book-keeping and the
            # hook count as child time and stay out of the parent's self time.
            enter = clock()
            try:
                open_spans.append(0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    children = open_spans.pop()
                    durations.append(t1 - t0)
                    self_ns[name] += t1 - t0 - children
                if hook is not None:
                    hook(self, t0, t1, result)
                return result
            finally:
                if open_spans:
                    open_spans[-1] += clock() - enter + outside_ns

        return wrapper

    def install(self) -> None:
        """Wrap every target; raise :class:`TraceError` if one is missing."""
        try:
            for name, owner, attr, hook in TARGETS:
                obj = _resolve(owner)
                raw = vars(obj).get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
                if raw is None:
                    raise TraceError(f"wrap target {owner}.{attr} is missing")
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(name, raw.__func__, hook))
                else:
                    replacement = self._wrap(name, raw, hook)
                setattr(obj, attr, replacement)
                self._undo.append((obj, attr, raw))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, raw = self._undo.pop()
            setattr(obj, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _noop(i):
    return i


def calibrate(calls: int = 20000, repeats: int = 7) -> int:
    """Time a parent making ``calls`` calls of a wrapped no-op against the
    same loop unwrapped; the parent's extra self time per call is the part
    of a wrapped call the wrapper's clock reads miss.  Each side takes its
    fastest of ``repeats`` rounds, after one warm-up round."""
    clock = time.perf_counter_ns

    def loop(child):
        for i in range(calls):
            child(i)

    plain, wrapped = [], []
    for _ in range(repeats + 1):
        t0 = clock()
        loop(_noop)
        plain.append(clock() - t0)
        tracer = Tracer()
        tracer._wrap("parent", loop, None)(tracer._wrap("child", _noop, None))
        wrapped.append(tracer.self_ns["parent"])
    return max(0, round((min(wrapped[1:]) - min(plain[1:])) / calls))


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Per-layer figures from one or more traced iterations of one workload.

    Counts are per iteration (each traced iteration must repeat them
    exactly); per-call times pool every iteration's calls; self times are the
    median over iterations.
    """
    first = tracers[0]
    for other in tracers[1:]:
        if ({k: len(v) for k, v in other.durations.items()}
                != {k: len(v) for k, v in first.durations.items()}
                or other.counters != first.counters):
            raise TraceError("traced iterations recorded different call counts")
    out: dict[str, float] = {}
    names = {name for name, *_ in TARGETS} | {"ppo.update"}
    for name in sorted(names):
        pooled = [d for t in tracers for d in t.durations[name]]
        out[f"{name}.calls"] = len(first.durations[name])
        out[f"{name}.us_p50"] = statistics.median(pooled) / 1e3 if pooled else 0.0
        out[f"{name}.us_p90"] = (statistics.quantiles(pooled, n=10)[-1] / 1e3
                                 if len(first.durations[name]) >= 100 else 0.0)
        out[f"{name}.self_ms"] = statistics.median(t.self_ns[name] for t in tracers) / 1e6
    for key in ("sim.vehicles", "metrics.cycles", "work.updates"):
        out[key] = first.counters[key]
    step_ns = statistics.median(sum(t.durations["sim.step"]) for t in tracers)
    out["sim.step.ns_per_vehicle"] = (step_ns / out["sim.vehicles"]
                                      if out["sim.vehicles"] else 0.0)
    out["envs.ticks_per_decision"] = (out["sim.step.calls"] / out["envs.step.calls"]
                                      if out["envs.step.calls"] else 0.0)
    out["runner.episode.ms_p50"] = out["runner.episode.us_p50"] / 1e3
    for name in ("autoencoder.collect", "autoencoder.fit", "bundle.save"):
        out[f"{name}.ms"] = out[f"{name}.us_p50"] / 1e3  # one call per job
    return out
