"""Seeded, reproducible, heavy-tail-aware Monte Carlo estimation.

Sample streams are counter-based: the sample index range is cut into fixed
chunks and chunk j of a run with seed s draws from chunk_rng(s, j), that is
PCG64DXSM seeded with s and advanced by j * 2^64, so the result is
bit-identical no matter how many workers process the chunks. chunk_rng
builds every stream the package draws. Stream j of a seed is its own window
of 2^64 draws on that seed's cycle of 2^128, so the streams of one run are
disjoint by construction; distinct seeds start from distinct SeedSequence
states, so their streams are disjoint with high probability.

A stream index is domain * 2^60 + j, one domain per use: 0 for the Monte
Carlo chunks, 1 for the verifier's battery pilot (PILOT_STREAM), 2 for
dump-paths (DUMP_STREAM), and 4 for the BDG bias-check passes
(VALIDATION_STREAM); domain 3 is unused. No run reaches 2^60 chunks, so no
two uses of one seed share a stream.

Estimates are reduced chunk by chunk, in the worker that drew the chunk: the
plain mean keeps (count, mean, M2) per chunk and merges them in chunk order
(Chan, Golub & LeVeque 1979), and median of means keeps per-block partial
sums. No value array of the whole run is assembled. `estimate_from_values`
runs the same reduction over CHUNK-sized slices, so it gives bit for bit the
estimates that `estimate_pair` gives from the same draws. Against versions
that reduced the concatenated values, estimates agree to about 1e-15
relative, not bit for bit.

`estimate_passes` runs several passes on one seed, each pass drawing the
streams it would draw alone, with the chunks of all passes handed to one
pool of workers in the order the passes are given; `estimate_pair` is its
one-pass case. A long pass given first runs beside the short ones, as the
BDG validation runs beside the exact-law chunks (bdg.py). A pass may also
give its own piece length and first stream index: the BDG bias-check
passes draw piece j from chunk_rng(seed, VALIDATION_STREAM + j).

The extremal sup samplers return the x side's exact moment and weighted
compensator values: the closed-form plateau plus an importance-sampled
deficit, less a control variate in the uniform draw (see extremal.py).
The values lie within a few times the deficit's weight of each other, so
their variance is finite, and small, at every 0 < p < 1, and the plain mean
is the default estimator. Median of means runs only when a caller names it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .extremal import (
    ExtremalParams,
    discrete_sup_sampler,
    monotone_sup_sampler,
    sharpness_sup_sampler,
)

__all__ = [
    "CHUNK",
    "EstimatorMethod",
    "PLAIN",
    "median_of_means",
    "Estimate",
    "Verdict",
    "z_score",
    "RatioEstimate",
    "sample_values",
    "estimate_from_values",
    "estimate_pair",
    "estimate_passes",
    "ratio_from_estimates",
    "ratio_experiment",
    "monotone_ratio_experiment",
    "discrete_ratio_experiment",
]

CHUNK = 1 << 15

# version of the stream layout below, recorded in every CLI output
STREAM_LAYOUT = 2
# stream index = domain * DOMAIN_STRIDE + j (see the module docstring)
DOMAIN_STRIDE = 1 << 60
PILOT_STREAM = 1 * DOMAIN_STRIDE
DUMP_STREAM = 2 * DOMAIN_STRIDE
VALIDATION_STREAM = 4 * DOMAIN_STRIDE
# the streams of a seed are windows of this many draws
_STREAM_SPAN = 1 << 64

# stderr of the median of B approximately normal block means is
# sqrt(pi/2) * sd / sqrt(B)
_MEDIAN_INFLATION = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class EstimatorMethod:
    name: str  # "plain" or "median_of_means"
    blocks: int = 1

    def __post_init__(self) -> None:
        if self.name == "plain":
            if self.blocks != 1:
                raise ValueError("plain estimator takes no block structure")
        elif self.name == "median_of_means":
            if self.blocks < 3 or self.blocks % 2 == 0:
                raise ValueError("median of means needs an odd block count >= 3")
        else:
            raise ValueError(f"unknown estimator method {self.name!r}")

    def to_json(self) -> dict:
        return {"name": self.name, "blocks": self.blocks}


PLAIN = EstimatorMethod("plain")


def median_of_means(blocks: int = 31) -> EstimatorMethod:
    return EstimatorMethod("median_of_means", blocks)


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo value with uncertainty: stderr for the plain mean,
    a median-dispersion half-width for median of means."""

    value: float
    halfwidth: float
    n_samples: int
    method: EstimatorMethod

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if not math.isfinite(self.halfwidth) or self.halfwidth < 0:
            raise ValueError("halfwidth must be finite and non-negative")

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "halfwidth": self.halfwidth,
            "n": self.n_samples,
            "method": self.method.to_json(),
        }


@dataclass(frozen=True)
class Verdict:
    """Every Monte Carlo check's pass rule: margin, how far the estimates
    clear the inequality, may fall below 0 by at most k half-widths, scale."""

    margin: float
    scale: float
    k: float = 3.0

    @property
    def slack(self) -> float:
        return self.margin + self.k * self.scale

    @property
    def passed(self) -> bool:
        return self.slack >= 0


def z_score(est: Estimate, oracle: float) -> float | None:
    """(estimate - oracle) / half-width, or None for a zero half-width."""
    return (est.value - oracle) / est.halfwidth if est.halfwidth > 0 else None


@dataclass(frozen=True)
class RatioEstimate:
    numerator: Estimate
    denominator: Estimate
    ratio: float
    ci_low: float
    ci_high: float

    def __post_init__(self) -> None:
        if self.denominator.value <= 0:
            raise ValueError("degenerate denominator")
        if not (self.ci_low <= self.ratio <= self.ci_high):
            raise ValueError("ratio must lie inside its confidence interval")

    def to_json(self, seed: int | None = None) -> dict:
        return {
            "numerator": self.numerator.to_json(),
            "denominator": self.denominator.to_json(),
            "ratio": self.ratio,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            **({"seed": seed} if seed is not None else {}),
        }


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """Stream `index` of a seed: PCG64DXSM seeded with seed and advanced by
    index * 2^64, so that streams 0 <= index < 2^64 of one seed are disjoint
    windows of its cycle."""
    if not 0 <= index < _STREAM_SPAN:
        raise ValueError(f"stream index must lie in [0, 2^64), not {index!r}")
    return np.random.Generator(np.random.PCG64DXSM(seed).advance(index * _STREAM_SPAN))


def _map_chunks(passes, seed: int, threads: int = 1) -> list[list]:
    """Run work(rng, start, m) on every piece of the sample index range of
    each (work, n_samples) or (work, n_samples, piece, first_stream) pass.
    Piece j holds the m samples from index start = j * piece on and draws
    from chunk_rng(seed, first_stream + j); the default layout is piece =
    CHUNK and first_stream = 0, so piece j is chunk j. The pieces of all
    passes go to one pool of workers, in the order the passes are given,
    and come back as one list per pass in piece order, so they do not depend
    on the worker count."""
    if threads < 1:
        raise ValueError("threads must be positive")
    jobs, counts = [], []
    for work, n_samples, *layout in passes:
        piece, first_stream = layout or (CHUNK, 0)
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        starts = range(0, n_samples, piece)
        jobs += [(work, first_stream + j, start, min(piece, n_samples - start))
                 for j, start in enumerate(starts)]
        counts.append(len(starts))

    def run(job):
        work, stream, start, m = job
        return work(chunk_rng(seed, stream), start, m)

    if threads > 1:
        # imported here: concurrent.futures loads logging, which a one-thread
        # run does not need to pay for at start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = pool.map(run, jobs)
    else:
        results = map(run, jobs)
    return [list(itertools.islice(results, count)) for count in counts]


def sample_values(sampler, n_samples: int, seed: int, threads: int = 1):
    """Draw n_samples values (or tuples of parallel arrays) chunk by chunk,
    concatenated in chunk order."""
    (parts,) = _map_chunks([(lambda rng, start, m: sampler(rng, m), n_samples)], seed, threads)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    return np.concatenate(parts)


def check_budget(n: int, method: EstimatorMethod) -> None:
    if n < method.blocks:
        raise ValueError(f"{n} samples cannot fill {method.blocks} blocks")


def _reduce_chunk(values: np.ndarray, start: int, n: int, method: EstimatorMethod):
    """Partial statistics of the values at sample indices start, start+1, ...
    of a run of n samples: (count, mean, sum of squared deviations) for the
    plain mean, (first block index, block sums) for median of means. The
    plain mean forms the deviations in the array of the values."""
    values = np.asarray(values, dtype=float)
    if method.name == "plain":
        mean = values.mean()
        values -= mean
        values *= values
        return values.size, float(mean), float(values.sum())
    length = n // method.blocks
    # samples past the last whole block are not used
    stop = min(start + values.size, method.blocks * length)
    first = start // length
    if stop <= start:
        return first, values[:0]
    edges = np.arange(first * length, stop, length) - start
    edges[0] = 0  # block `first` may have begun in an earlier chunk
    return first, np.add.reduceat(values[: stop - start], edges)


def _merge_chunks(parts, n: int, method: EstimatorMethod) -> Estimate:
    """The estimate from the partial statistics of every chunk, merged in
    chunk order."""
    if method.name == "plain":
        count, mean, m2 = parts[0]
        for c, mu, q in parts[1:]:
            total = count + c
            delta = mu - mean
            mean += delta * (c / total)
            m2 += q + delta * delta * (count * c / total)
            count = total
        stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
        return Estimate(value=mean, halfwidth=stderr, n_samples=n, method=method)
    b = method.blocks
    sums = np.zeros(b)
    for first, block_sums in parts:
        sums[first : first + block_sums.size] += block_sums
    block_means = sums / (n // b)
    value = float(np.median(block_means))
    halfwidth = _MEDIAN_INFLATION * float(block_means.std(ddof=1)) / math.sqrt(b)
    return Estimate(value=value, halfwidth=halfwidth, n_samples=n, method=method)


def estimate_from_values(values: np.ndarray, method: EstimatorMethod) -> Estimate:
    """Estimate of the mean of given values, reduced over CHUNK-sized slices
    exactly as `estimate_pair` reduces the chunks it draws. The values are
    copied once, since the reduction writes into them."""
    values = np.array(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("empty sample set")
    check_budget(n, method)
    parts = [_reduce_chunk(values[s : s + CHUNK], s, n, method) for s in range(0, n, CHUNK)]
    return _merge_chunks(parts, n, method)


def estimate_passes(passes, method: EstimatorMethod, seed: int,
                    threads: int = 1) -> list[tuple[Estimate, ...]]:
    """`estimate_pair` of every (paired_sampler, n_samples) pass, all on one
    seed, with the pieces of every pass run on one pool of workers in the
    order the passes are given: a long pass given first overlaps the short
    ones. A pass (paired_sampler, n_samples, piece, first_stream) is drawn
    in pieces of that length from streams first_stream, first_stream + 1,
    ... (see `_map_chunks`). Each pass is reduced and merged in its own piece
    order, so a pass in the default layout gets exactly the estimates that
    `estimate_pair` alone would give it. A component may be a float, the
    exact mean of its column: it is reported with half-width 0, not
    reduced, and must be the same float in every chunk (else ValueError)."""
    for _, n_samples, *_layout in passes:
        check_budget(n_samples, method)

    def reducer(paired_sampler, n_samples):
        def work(rng, start, m):
            return [v if isinstance(v, float) else _reduce_chunk(v, start, n_samples, method)
                    for v in paired_sampler(rng, m)]

        return work

    def merge(column, n_samples):
        exact = column[0]
        if not isinstance(exact, float):
            return _merge_chunks(column, n_samples, method)
        if any(not isinstance(part, float) or part != exact for part in column):
            raise ValueError("a float component must be the same float in every chunk")
        return Estimate(value=float(exact), halfwidth=0.0, n_samples=n_samples, method=method)

    parts = _map_chunks([(reducer(sampler, n), n, *layout) for sampler, n, *layout in passes],
                        seed, threads)
    return [tuple(merge(column, n_samples) for column in zip(*chunks))
            for chunks, (_, n_samples, *_layout) in zip(parts, passes)]


def estimate_pair(paired_sampler, n_samples: int, method: EstimatorMethod,
                  seed: int, threads: int = 1) -> tuple[Estimate, ...]:
    """One estimate per component of a sampler that returns a tuple of
    parallel arrays (a numerator and a denominator, say), all from one stream
    of draws (common random numbers). Each chunk is reduced by the worker
    that drew it. The arrays a sampler returns belong to the reducer, which
    writes into them, so they must be distinct and writable. A float
    component is its column's exact mean (see `estimate_passes`)."""
    (estimates,) = estimate_passes([(paired_sampler, n_samples)], method, seed, threads)
    return estimates


def ratio_from_estimates(num: Estimate, den: Estimate) -> RatioEstimate:
    """Conservative interval-arithmetic CI for num/den."""
    if den.value <= 0:
        raise ValueError("degenerate denominator")
    ratio = num.value / den.value
    lo_den = den.value + den.halfwidth
    hi_den = max(den.value - den.halfwidth, 1e-300)
    ci_low = max(num.value - num.halfwidth, 0.0) / lo_den
    ci_high = (num.value + num.halfwidth) / hi_den
    return RatioEstimate(numerator=num, denominator=den, ratio=ratio,
                         ci_low=min(ci_low, ratio), ci_high=max(ci_high, ratio))


def ratio_experiment(params: ExtremalParams, n_samples: int = 10**6,
                     method: EstimatorMethod = PLAIN,
                     seed: int = 0, threads: int = 1) -> RatioEstimate:
    """Moment ratio of the full extremal pair (Brownian tail by exact law),
    targeting p^-p/(1-p) as n grows."""
    sampler = sharpness_sup_sampler(params)
    return ratio_from_estimates(*estimate_pair(sampler, n_samples, method, seed, threads))


def monotone_ratio_experiment(p: float, n: int, n_samples: int = 10**6,
                              method: EstimatorMethod = PLAIN,
                              seed: int = 0, threads: int = 1) -> RatioEstimate:
    """Moment ratio of the monotone pair (no tail), targeting p^-p."""
    sampler = monotone_sup_sampler(ExtremalParams(p=p, n=n))
    return ratio_from_estimates(*estimate_pair(sampler, n_samples, method, seed, threads))


def discrete_ratio_experiment(params: ExtremalParams, level_N: int,
                              n_samples: int = 10**6,
                              method: EstimatorMethod = PLAIN,
                              seed: int = 0,
                              threads: int = 1) -> RatioEstimate:
    """Moment ratio of the dyadic discretization; shares the draw layout of
    ratio_experiment so the discretization effect isolates cleanly."""
    sampler = discrete_sup_sampler(params, level_N)
    return ratio_from_estimates(*estimate_pair(sampler, n_samples, method, seed, threads))
