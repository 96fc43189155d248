"""Certifier benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload extremal-sharpness --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones (BENCHMARK.json `end_to_end`); with
`--trace 1` they are the per-layer ones, from a traced pass whose outputs
must match an untraced pass with the same seeds byte for byte.

Op times are divided by a fixed numpy reference kernel timed right before
and right after each op, because the host's speed drifts by tens of
percent over minutes while the guest sees no steal time. Set-up time is
not normalised: it is dominated by imports, which do not follow the kernel.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SPAWNS = 7  # timed, after one untimed warm spawn
SETUP_CODE = "import lenglart.cli as c; c.build_parser()"
TARGET_REL_HW = 0.01


class RefKernel:
    """A fixed package-independent numpy kernel: Philox draws, log/exp,
    concatenation and a mean over 2^17 doubles, run on as many threads as
    the workload's ops use, because a slow vCPU slows a two-thread op
    without slowing a one-thread kernel. It works in buffers allocated
    once, so that its time follows the host's compute speed and not the
    page-fault cost of whatever the previous op left in the heap."""

    PARTS, SIZE, REPEATS = 4, 1 << 15, 2

    def __init__(self, threads: int) -> None:
        self.buffers = [([np.empty(self.SIZE) for _ in range(self.PARTS)],
                         np.empty(self.PARTS * self.SIZE)) for _ in range(threads)]

    @staticmethod
    def _pass(parts, joined, times, i) -> None:
        t0 = time.perf_counter()
        rng = np.random.Generator(np.random.Philox(key=20210125))
        for buf in parts:
            rng.random(out=buf)
            np.log(buf, out=buf)
            np.exp(buf, out=buf)
        np.concatenate(parts, out=joined)
        float(joined.mean())
        times[i] = time.perf_counter() - t0

    def once(self) -> float:
        """Seconds of the slowest thread's pass, each timed inside its own
        thread, so that thread start-up latency is left out."""
        times = [0.0] * len(self.buffers)
        helpers = [threading.Thread(target=self._pass, args=(*b, times, i))
                   for i, b in enumerate(self.buffers) if i > 0]
        for h in helpers:
            h.start()
        self._pass(*self.buffers[0], times, 0)
        for h in helpers:
            h.join()
        return max(times)

    def __call__(self) -> float:
        """Seconds of the faster of two back-to-back passes, which drops a
        pass that an interrupt landed in."""
        return min(self.once() for _ in range(self.REPEATS))


def spawn_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser: the fixed cost every `lenglart` call pays."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


@dataclass
class Record:
    kind: workloads.OpKind
    seed: int
    outcome: workloads.Outcome | None  # None when the op raised
    seconds: float
    ref_before: float
    ref_after: float
    span: tracing.Span | None = None

    @property
    def norm(self) -> float:
        return self.seconds / (0.5 * (self.ref_before + self.ref_after))

    @property
    def ok(self) -> bool:
        return self.outcome is not None and self.kind.passed(self.outcome)

    @property
    def malformed(self) -> bool:
        """The op raised, or its output is not what `lenglart` promises: a
        verdict with exit code 0 or 1, or exit code 2 and an error. A FAIL
        verdict is well-formed; it counts against ok_share, because every
        checker has a false-alarm rate."""
        o = self.outcome
        if o is None:
            return True
        if o.rc == 2:
            return not o.error
        return o.rc not in (0, 1) or o.result is None or "pass" not in o.result


def run_pass(kinds, seeds, threads, tracer=None, spawn_after=(), setup_times=None):
    """Whole rounds in order; each op timed between two kernel timings."""
    ref_kernel = RefKernel(threads)
    records = []
    before = None
    for round_seeds in seeds:
        for kind, seed in zip(kinds, round_seeds):
            if before is None:
                before = ref_kernel()
            span = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outcome = kind.call(seed, threads)
                else:
                    tracer.op = len(records)
                    outcome, span = tracer.call("cli.op", kind.call, (seed, threads))
            except Exception:  # an op that raises is a failed op; keep measuring
                traceback.print_exc()
                outcome = None
            seconds = time.perf_counter() - t0
            after = ref_kernel()
            records.append(Record(kind, seed, outcome, seconds, before, after, span))
            before = after
            for _ in range(spawn_after.count(len(records) - 1)):
                setup_times.append(spawn_setup())
                before = None
    return records


def kind_geomean(records, value) -> float:
    """Median within each op kind, geometric mean across kinds, over the ok
    ops for which value(record) is not None. Every kind counts, so a gain
    on any one of them shows, and the result cannot fall into the gap
    between two kinds of different cost."""
    per_kind = {}
    for r in records:
        v = value(r) if r.ok else None
        if v is not None:
            per_kind.setdefault(r.kind.name, []).append(v)
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in per_kind.values()))


def width_cost(r: Record) -> float | None:
    """Normalised time to a 1 % relative half-width, projected by 1/N
    scaling from the op's first-order relative half-width of its ratio."""
    intervals = r.kind.intervals(r.outcome.result)
    if not intervals or any(v <= 0 for v, _ in intervals):
        return None
    rel_hw = sum(hw / v for v, hw in intervals)
    return r.norm * (rel_hw / TARGET_REL_HW) ** 2


def quantile(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def oracle_z(records) -> list[float]:
    """|estimate - exact| / half-width wherever the op has an oracle."""
    cache = {}
    zs = []
    for r in records:
        if r.outcome is None or r.outcome.result is None:
            continue
        for path, exact in r.kind.oracles:
            value, hw = workloads.dig(r.outcome.result, path)
            if hw > 0:
                key = (r.kind.name, path)
                if key not in cache:
                    cache[key] = exact()
                zs.append(abs(value - cache[key]) / hw)
    return zs


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def timed_run(workload, kinds, seeds):
    n_ops = len(seeds) * len(kinds)
    spawn_after = [min(n_ops - 1, (k + 1) * n_ops // SETUP_SPAWNS - 1) for k in range(SETUP_SPAWNS)]
    spawn_setup()  # warm: file cache and bytecode
    setup_times = []
    records = run_pass(kinds, seeds, workload.threads, spawn_after=spawn_after,
                       setup_times=setup_times)
    ok = [r for r in records if r.ok]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "op_time_ref": metric(kind_geomean(records, lambda r: r.norm), "x"),
        "width_cost_ref": metric(kind_geomean(records, width_cost), "x"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_share": metric(len(ok) / len(records), "share"),
    }
    print(f"setup_s spawns: {' '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"ref_kernel_s median {statistics.median(r.ref_before for r in records):.5f}")
    for kind in kinds:
        mine = [r for r in ok if r.kind is kind]
        if mine:
            print(f"kind {kind.name}: ok {len(mine)} op_time_ref "
                  f"{statistics.median(r.norm for r in mine):.2f} "
                  f"op_s {statistics.median(r.seconds for r in mine):.4f}")
    return records, metrics, True


def traced_run(workload, kinds, seeds, seed):
    plain = run_pass(kinds, seeds, workload.threads)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        traced = run_pass(kinds, seeds, workload.threads, tracer=tracer)
    finally:
        restore()
    other_threads = 1 if workload.threads > 1 else 2
    threaded = [k for k in kinds if k.threaded]
    probe = run_pass(threaded, [[s for k, s in zip(kinds, seeds[0]) if k.threaded]], other_threads)

    identical = True
    for a, b in zip(plain, traced):
        if a.outcome is None or b.outcome is None or a.outcome.stable_text() != b.outcome.stable_text():
            identical = False
            print(f"MISMATCH traced vs untraced: {a.kind.name} seed {a.seed}", file=sys.stderr)
    by_key = {(r.kind.name, r.seed): r for r in plain}
    for p in probe:
        a = by_key[(p.kind.name, p.seed)]
        if a.outcome is None or p.outcome is None or \
                a.outcome.thread_free_text() != p.outcome.thread_free_text():
            identical = False
            print(f"MISMATCH threads {workload.threads} vs {other_threads}: {p.kind.name} "
                  f"seed {p.seed}", file=sys.stderr)

    op_spans = [r.span for r in traced if r.span is not None]
    layers = tracing.layer_metrics(tracer.spans, op_spans)
    zs = oracle_z(traced)
    raw = [r.seconds for r in plain if r.ok]
    bias = [r.outcome.result["bias_relative_change"] for r in plain
            if r.ok and "bias_relative_change" in r.outcome.result]
    metrics = {name: metric(value, unit) for name, (value, unit) in layers.items()}
    metrics.update({
        "bdg.bias_rel": metric(max(bias, default=0.0), "share"),
        "oracles.z_max": metric(max(zs, default=0.0), "x"),
        "oracles.z_gt5_share": metric(sum(z > 5 for z in zs) / len(zs) if zs else 0.0, "share"),
        "cli.ops": metric(len(raw), "count"),
        "cli.op_s_p50": metric(statistics.median(raw), "s"),
        "cli.op_s_p90": metric(quantile(raw, 0.9), "s"),
        "cli.ref_kernel_s": metric(statistics.median(r.ref_before for r in plain), "s"),
        "bench.trace_overhead": metric(sum(r.norm for r in traced) / sum(r.norm for r in plain), "x"),
    })
    with open(OUT / f"spans-{workload.name}-{seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.sid, s.parent, s.name, s.t0, s.t1, s.op, s.extra]) + "\n")
    return plain + traced + probe, metrics, identical


def provenance() -> str:
    import scipy

    return (f"host: nproc={os.cpu_count()} machine={platform.machine()} "
            f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    kinds = workload.make_kinds(OUT)
    # a fixed number of whole rounds, so every kind keeps its weight
    rounds = max(2, round(args.seconds / workload.round_s))
    rng = random.Random(f"{workload.name}:{args.seed}")
    seeds = [[rng.randrange(1 << 31) for _ in kinds] for _ in range(rounds)]
    print(provenance())
    print(f"workload={workload.name} seed={args.seed} rounds={rounds} kinds={len(kinds)} "
          f"threads={workload.threads} trace={args.trace}")

    if args.trace:
        records, metrics, identical = traced_run(workload, kinds, seeds, args.seed)
    else:
        records, metrics, identical = timed_run(workload, kinds, seeds)
    malformed = [r for r in records if r.malformed]
    not_ok = {}
    for r in records:
        if not r.ok:
            detail = "raised" if r.outcome is None else f"rc={r.outcome.rc} {r.outcome.error[:120]}"
            not_ok.setdefault((r.kind.name, detail), []).append(r.seed)
    for (name, detail), op_seeds in not_ok.items():
        print(f"not ok x{len(op_seeds)}: {name}: {detail}")
    correct = identical and not malformed
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if not (SRC / "lenglart" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'lenglart'} not found; run from the root of a lenglart checkout")
    sys.path.insert(0, str(SRC))
    import lenglart

    if not Path(lenglart.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: lenglart imported from {lenglart.__file__}, not from {SRC}")
    import tracing
    import workloads

    sys.exit(main())
