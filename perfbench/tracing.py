"""Spans around the package's layers, recorded from outside the package.

`install(tracer)` replaces the public functions each layer calls with
timing wrappers and returns a function that puts the originals back. The
wrappers pass every argument and result through unchanged; the benchmark
checks that by comparing each traced op's output with the untraced one.

Layer boundaries (the module attribute that is wrapped, and the span):
- montecarlo.chunk_rng -> a proxy Generator; each draw is a `montecarlo.rng` span
- {montecarlo,verifier,bdg}.sample_values -> `montecarlo.sample_values`, each
  chunk's sampler call a `montecarlo.chunk` child (also on worker threads)
- {montecarlo,verifier,bdg}.estimate_from_values -> `montecarlo.reduce`
- the extremal sup-sampler factories, including the verifier's duplicates
  of them -> `extremal.sampler` around every call of the returned closure
- verifier.{exp_pair,discrete}_path_batch -> `extremal.path_batch`
- CompensatedBernoulliGenerator.path_batch -> `verifier.path_batch`
- verifier.stopping_indices -> `verifier.stopping`
- cli.check_inequality, verifier.check_pratelli, verifier.domination_audit
  -> `verifier.check`
- bdg._make_sampler tags each stepped sampler with its step count and pass
"""

from __future__ import annotations

import itertools
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from lenglart import bdg, cli, montecarlo, verifier


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    op: int | None
    extra: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Keeps spans in memory; `op` tags every span with the running op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs=None, parent=None, **extra):
        """Run fn(*args, **kwargs) inside a span; returns (result, span)."""
        stack = self._stack()
        sid = next(self._ids)
        span = Span(sid, parent if parent is not None else (stack[-1] if stack else None),
                    name, 0.0, 0.0, self.op, extra)
        stack.append(sid)
        span.t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {})), span
        finally:
            span.t1 = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None


class _TracedGenerator:
    """Stands in for the numpy Generator of one chunk; times every draw."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            return tracer.call("montecarlo.rng", attr, args, kwargs)[0]

        return draw


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def install(tracer: Tracer):
    """Wrap the layer boundaries listed in the module docstring; returns a
    function that restores the originals."""
    saved = []

    def patch(owner, attr, make):
        original = getattr(owner, attr)
        saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else original))
        setattr(owner, attr, make(original))

    def spanned(name, extra_of=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                out, span = tracer.call(name, fn, args, kwargs)
                if extra_of is not None:
                    span.extra.update(extra_of(out))
                return out

            return wrapper

        return make

    def traced_chunk_rng(fn):
        return lambda seed, j: _TracedGenerator(fn(seed, j), tracer)

    def traced_sample_values(fn):
        def wrapper(sampler, *args, **kwargs):
            tags = {k: getattr(sampler, k) for k in ("bdg_steps", "bdg_fine") if hasattr(sampler, k)}
            holder = {}

            def chunk(rng, m):
                return tracer.call("montecarlo.chunk", sampler, (rng, m),
                                   parent=holder["sid"], m=m)[0]

            def run():
                holder["sid"] = tracer.current()
                return fn(chunk, *args, **kwargs)

            faults, cpu = _minflt(), time.process_time()
            out, span = tracer.call("montecarlo.sample_values", run, (), **tags)
            arrays = out if isinstance(out, tuple) else (out,)
            span.extra.update(
                minflt=_minflt() - faults,
                cpu=time.process_time() - cpu,
                bytes=sum(a.nbytes for a in arrays),
            )
            return out

        return wrapper

    def traced_sampler_factory(fn):
        def factory(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return lambda rng, m: tracer.call("extremal.sampler", inner, (rng, m), m=m)[0]

        return factory

    def tagged_bdg_sampler(fn):
        def make_sampler(spec, step):
            inner = fn(spec, step)

            def sampler(rng, m):
                return inner(rng, m)

            sampler.bdg_steps = int(round(spec.T / step)) if spec.kind == bdg.BM_FIXED_TIME else 0
            sampler.bdg_fine = step != spec.step
            return sampler

        return make_sampler

    def cells(out):
        return {"cells": int(out[0].size)}

    patch(montecarlo, "chunk_rng", traced_chunk_rng)
    for module in (montecarlo, verifier, bdg):
        patch(module, "sample_values", traced_sample_values)
        patch(module, "estimate_from_values", spanned("montecarlo.reduce"))
    for name in ("sharpness_sup_sampler", "monotone_sup_sampler", "discrete_sup_sampler"):
        patch(montecarlo, name, traced_sampler_factory)
    for gen in (verifier.ExtremalGenerator, verifier.DiscreteExtremalGenerator):
        patch(gen, "sup_sampler", traced_sampler_factory)
    patch(verifier, "exp_pair_path_batch", spanned("extremal.path_batch", cells))
    patch(verifier, "discrete_path_batch", spanned("extremal.path_batch", cells))
    patch(verifier.CompensatedBernoulliGenerator, "path_batch",
          spanned("verifier.path_batch", cells))
    patch(verifier, "stopping_indices", spanned("verifier.stopping"))
    patch(cli, "check_inequality", spanned("verifier.check"))
    patch(verifier, "check_pratelli", spanned("verifier.check"))
    patch(verifier, "domination_audit", spanned("verifier.check"))
    patch(bdg, "_make_sampler", tagged_bdg_sampler)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- aggregation ------------------------------------------------------------------


def covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that the children cover."""
    total, end = 0.0, span.t0
    for c in sorted(children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def layer_metrics(spans: list[Span], op_spans: list[Span]) -> dict:
    """Per-layer (value, unit) pairs from the spans of one traced pass.
    Times and counts are per op; a layer the workload does not reach
    reads 0."""
    n_ops = max(1, len(op_spans))
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def rng_in(s):
        return sum(c.dur for c in children.get(s.sid, []) if c.name == "montecarlo.rng")

    def self_time(s):
        return s.dur - covered(s, children.get(s.sid, []))

    sampler_busy = sum(s.dur - rng_in(s) for s in named("extremal.sampler"))
    draws = sum(s.extra["m"] for s in named("extremal.sampler"))
    passes = named("montecarlo.sample_values")
    bdg_passes = [s for s in passes if "bdg_fine" in s.extra]
    bdg_chunk_s, path_steps, imbalance = 0.0, 0, []
    for s in bdg_passes:
        durs, paths = [], 0
        for c in children.get(s.sid, []):
            if c.name == "montecarlo.chunk":
                durs.append(c.dur)
                paths += c.extra["m"]
        bdg_chunk_s += sum(durs)
        path_steps += paths * s.extra["bdg_steps"]
        if len(durs) > 1:
            imbalance.append(max(durs) / (sum(durs) / len(durs)))
    wall = sum(s.dur for s in passes)
    leaf_cells = named("extremal.path_batch") + named("verifier.path_batch")

    def per_op(x):
        return x / n_ops

    return {
        "extremal.sampler_s": (per_op(sampler_busy), "s/op"),
        "extremal.sampler_ns_per_draw": (sampler_busy / draws * 1e9 if draws else 0.0, "ns"),
        "extremal.path_batch_s": (
            per_op(sum(s.dur - rng_in(s) for s in named("extremal.path_batch"))), "s/op"),
        "montecarlo.rng_s": (per_op(sum(s.dur for s in named("montecarlo.rng"))), "s/op"),
        "montecarlo.assembly_s": (per_op(sum(self_time(s) for s in passes)), "s/op"),
        "montecarlo.assembled_mb": (per_op(sum(s.extra["bytes"] for s in passes) / 1e6), "MB/op"),
        "montecarlo.minor_faults": (per_op(sum(s.extra["minflt"] for s in passes)), "count/op"),
        "montecarlo.reduce_s": (per_op(sum(s.dur for s in named("montecarlo.reduce"))), "s/op"),
        "montecarlo.chunks": (per_op(len(named("montecarlo.chunk"))), "count/op"),
        "montecarlo.cpu_per_wall": (sum(s.extra["cpu"] for s in passes) / wall if wall else 0.0, "x"),
        "verifier.check_self_s": (per_op(sum(self_time(s) for s in named("verifier.check"))), "s/op"),
        "verifier.stopping_s": (per_op(sum(s.dur for s in named("verifier.stopping"))), "s/op"),
        "verifier.path_cells": (per_op(sum(s.extra["cells"] for s in leaf_cells)), "count/op"),
        "bdg.coarse_s": (per_op(sum(s.dur for s in bdg_passes if not s.extra["bdg_fine"])), "s/op"),
        "bdg.fine_s": (per_op(sum(s.dur for s in bdg_passes if s.extra["bdg_fine"])), "s/op"),
        "bdg.ns_per_path_step": (
            bdg_chunk_s / path_steps * 1e9 if path_steps else 0.0, "ns"),
        "bdg.chunk_imbalance": (statistics.median(imbalance) if imbalance else 0.0, "x"),
        "cli.self_s": (per_op(sum(self_time(s) for s in op_spans)), "s/op"),
    }
