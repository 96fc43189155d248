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

`estimate_passes` and `estimate_pair` reduce by the plain mean, chunk by
chunk, in the worker that drew the chunk: a chunk of i.i.d. values keeps
(count, mean, M2), and the chunks merge in chunk order (Chan, Golub &
LeVeque 1979). No value array of the whole run is assembled.

Each chunk's stream is a ChunkStream, which offers stratified uniforms over
the whole column of a pass (ChunkStream.stratified, _fill_strata): its n
draws fall in n/R strata of width R/n, R independent uniforms in each, and
the chunk of m draws from entry start on holds the strata [start/R,
start/R + m/R), at entries i m/R + k, i < R: row i of the chunk is its
window of replicate i. Where R does not divide n, the column's last stratum
holds R + n % R entries, its last ones. A kernel says only whether its
values are a smooth or a step function of its one uniform, and the stream
picks R. One floor holds for both: a replicate needs at least two strata
(Owen, Monte Carlo theory, methods and examples, 2013), so a column shorter
than 2R draws i.i.d.: pairs from 4 draws on, replicates from 64. The two
extremal kernels take strata:
- the continuous extremal kernel at r = p, a smooth function, draws pairs,
  R = 2 (an odd n ends in one stratum of three). Its chunk reduces to
  (count, mean, variance of the mean), the variance from the squared
  differences within the pairs (_reduce_strata), and the chunks merge in
  chunk order with the weights m/n of their shares of the column;
- the discrete extremal kernel, a step function, draws R = REPLICATES = 32
  replicated Latin columns: replicate i is a one-per-stratum column of n/R
  values (McKay, Beckman & Conover, Technometrics 21, 1979). Its chunk
  reduces to each replicate's sum (_reduce_replicates), in which the last
  stratum's first R values count (R + n % R)/R, one to each replicate, and
  its other n % R none; the chunks' sums add up in chunk order to R
  replicate means, whose mean is the estimate and whose standard error,
  times the t_(R-1) quantile over 3, the half-width (Owen 2013).
Every other sampler draws i.i.d., and so does every sampler under
`sample_values`, which offers no strata. Both draw paths read a float
column, one a sampler gives as the same float in every chunk, as its exact
mean (_exact_mean).

`estimate_from_values` reduces a given column: by the plain mean over
CHUNK-sized slices, bit for bit what `estimate_pair` gives from the same
i.i.d. draws (about 1e-15 relative from versions that reduced the
concatenated values), or by median of means over the whole column.

`estimate_passes` runs several passes on one seed, each pass drawing the
streams it would draw alone, with the chunks of all passes handed to one
pool of workers in the order the passes are given; `estimate_pair` is its
one-pass case. A long pass given first runs beside the short ones, as the
BDG validation runs beside the exact-law chunks (bdg.py). A pass may also
give its own piece length and first stream index: the BDG bias-check
passes draw piece j from chunk_rng(seed, VALIDATION_STREAM + j).

The extremal sup samplers return the x side's exact moment and weighted
compensator values: the closed-form plateau plus an importance-sampled
deficit, less control variates in the uniform draw (see extremal.py).
The values lie within a few times the deficit's weight of each other, so
their variance is finite, and small, at every 0 < p < 1, and the plain mean
is the estimator of the CLI, the verifier and bdg. Median of means runs
only when an API caller names it: criteria 02, 03 and 07 pass it to the
*_ratio_experiment functions, which draw the pair i.i.d. by
`sample_values` and reduce its g column (a contiguous block of a stratified
chunk would cover a sub-range of its strata), and criterion 04 to
estimate_from_values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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

# version of the stream layout below, recorded in every CLI output; 6 since
# a column shorter than two strata of either kernel draws i.i.d.
STREAM_LAYOUT = 6
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
# the least relative half-width of a stratified column: the rounding of
# values near extremal._constants' top, which their sums cannot resolve
_ROUNDING = 2.0**-48
# the replicates of a step-function kernel's column (ChunkStream.stratified):
# over 4 columns at 64 to 2^18 draws, 1 000 seeds each, 32 put 41 runs beyond
# the t bound against 43 expected, 16 put 57 and 8 put 55
REPLICATES = 32
# the Phi(3) = 0.99865 quantile of Student's t with REPLICATES - 1 degrees of
# freedom (scipy.stats.t.ppf, which the tests compare): a replicated column's
# half-width is t/3 standard errors, so that 3 half-widths are the t bound at
# the normal 3 sigma level
_T_QUANTILE = 3.2609419188943876


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


@functools.cache
def _stratum_offsets() -> np.ndarray:
    """0, 1, ..., CHUNK/2 - 1: the strata of a chunk's rows, read-only, as
    every caller shares it."""
    offsets = np.arange(CHUNK // 2, dtype=float)
    offsets.flags.writeable = False
    return offsets


def _strata_window(start: int, m: int, n: int, rows: int) -> tuple[int, int]:
    """(h, t) for the m entries from start on of a column of n drawn rows to
    a stratum: h strata of rows values, and t entries of the column's last
    stratum, which holds rows + n % rows values, its last entries, where
    rows does not divide n (at rows = 2, an odd n's stratum of three). A
    last chunk of one entry thus holds the third value of a stratum of three
    whose other two end the chunk before it."""
    extra = n % rows
    t = min(m, max(0, start + m - (n - rows - extra))) if extra else 0
    return (m - t) // rows, t


def _fill_strata(rng: np.random.Generator, out: np.ndarray, start: int, n: int,
                 rows: int) -> float:
    """Fill out, the m entries from start on of a column of n, with
    stratified uniforms over the returned scale rows/n. The column's n/rows
    strata have width rows/n, and with (h, t) = _strata_window(start, m, n,
    rows) the chunk holds strata start/rows + k, k < h, at entries i h + k,
    i < rows, which hold start/rows + k + u with u uniform, for v in
    [(start + rows k)/n, (start + rows k + rows)/n): row i of the chunk is
    its window of replicate i, a one-per-stratum column, and at rows = 2 the
    two halves of each pair are contiguous. Where rows does not divide n,
    the column ends in one stratum of rows + e values, e = n % rows, whose
    t entries in the chunk come last and hold n // rows - 1 + (rows + e)/rows
    u (at rows = 2, the stratum of three, (n - 3)/2 + 1.5 u). The column
    must hold two strata or more (ChunkStream.stratified draws a shorter
    one i.i.d.), start must be a multiple of rows, and so must m unless
    the window ends the column. The m doubles are one rng.random fill. A
    sum start/rows + k + u rounds to the stratum's upper end for u within
    half an ulp of 1, so the last stratum's entries are held 2^-50
    (relative) below n/rows, where v times any c_u <= 1 stays below 1, as
    the i.i.d. v do."""
    m = out.size
    if n < 2 * rows:
        raise ValueError(f"a column of {n} draws holds fewer than two strata of {rows}")
    if start % rows or (m % rows and start + m < n):
        raise ValueError("a stratified window must start at an entry its rows divide (an even "
                         "entry for pairs), and only the column's last may hold a count they "
                         "do not divide")
    rng.random(out=out)
    h, t = _strata_window(start, m, n, rows)
    grid = out[: rows * h].reshape(rows, h)
    grid += _stratum_offsets()[:h] if h <= CHUNK // 2 else np.arange(h, dtype=float)
    if start:
        grid += start // rows
    top = n / rows * (1.0 - 2.0**-50)
    if t:
        last = out[rows * h :]
        last *= (rows + n % rows) / rows
        last += n // rows - 1
    else:  # the chunk's last stratum, the column's last in its last chunk
        last = out[h - 1 :: h]
    np.minimum(last, top, out=last)
    return rows / n


class ChunkStream:
    """The stream of one chunk of `estimate_passes`, the entries from start
    on of a column of n: every draw goes to the chunk's Generator, and a
    kernel may draw its uniforms stratified over the column through
    stratified(), which picks R rows to a stratum and applies the one
    floor: a column shorter than 2R draws i.i.d. rows records how the chunk
    was drawn, for its reduction."""

    def __init__(self, generator: np.random.Generator, start: int, n: int) -> None:
        self.generator = generator
        self.start = start
        self.n = n
        self.rows = None  # 2 or REPLICATES where the chunk was drawn stratified

    def __getattr__(self, name):
        # kept on the stream, so that a sampler drawing step by step (bdg's
        # bridge steps) forwards each name once per chunk
        value = getattr(self.generator, name)
        setattr(self, name, value)
        return value

    def stratified(self, out: np.ndarray, step: bool) -> float:
        """_fill_strata(out) over the chunk's window of the column at R rows:
        pairs, R = 2, for a kernel whose values are each a smooth function
        of one uniform, R = REPLICATES one-per-stratum replicates for a step
        function of it; i.i.d. uniforms, at scale 1, below the floor."""
        rows = REPLICATES if step else 2
        if self.n < 2 * rows:
            self.generator.random(out=out)
            return 1.0
        self.rows = rows
        return _fill_strata(self.generator, out, self.start, self.n, rows)


def _map_chunks(passes, seed: int, threads: int = 1) -> list[list]:
    """Run work(rng, m, start, n_samples) on every piece of the sample index
    range of each (work, n_samples) or (work, n_samples, piece,
    first_stream) pass. Piece j holds the m samples from index start =
    j * piece on and draws from chunk_rng(seed, first_stream + j); the
    default layout is piece = CHUNK and first_stream = 0, so piece j is
    chunk j. The pieces of all passes go to one pool of workers, in the
    order the passes are given, and come back as one list per pass in piece
    order, so they do not depend on the worker count."""
    if threads < 1:
        raise ValueError("threads must be positive")
    jobs, counts = [], []
    for work, n_samples, *layout in passes:
        piece, first_stream = layout or (CHUNK, 0)
        if n_samples < 1:
            raise ValueError("n_samples must be positive")
        starts = range(0, n_samples, piece)
        jobs += [(work, first_stream + j, min(piece, n_samples - start), start, n_samples)
                 for j, start in enumerate(starts)]
        counts.append(len(starts))

    def run(job):
        work, stream, m, start, n_samples = job
        return work(chunk_rng(seed, stream), m, start, n_samples)

    if threads > 1:
        # imported here: concurrent.futures loads logging, which a one-thread
        # run does not need to pay for at start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = pool.map(run, jobs)
    else:
        results = map(run, jobs)
    return [list(itertools.islice(results, count)) for count in counts]


def _exact_mean(column) -> float | None:
    """The one rule for a column's chunks on both draw paths: the float every
    chunk gave is its exact mean, a column of arrays (or of their partial
    statistics) gives None, and anything else raises ValueError."""
    floats = [part for part in column if isinstance(part, float)]
    if not floats:
        return None
    if len(floats) < len(column) or any(part != floats[0] for part in floats):
        raise ValueError("a float component must be the same float in every chunk")
    return float(floats[0])


def sample_values(sampler, n_samples: int, seed: int, threads: int = 1):
    """Draw n_samples values (or tuples of parallel arrays) chunk by chunk,
    concatenated in chunk order; a float column, the exact mean that
    `_exact_mean` reads, is returned as that float."""
    (parts,) = _map_chunks([(lambda rng, m, *window: sampler(rng, m), n_samples)], seed,
                           threads)
    paired = isinstance(parts[0], tuple)
    values = tuple(np.concatenate(column) if (exact := _exact_mean(column)) is None else exact
                   for column in (zip(*parts) if paired else [parts]))
    return values if paired else values[0]


class _Strata(NamedTuple):
    """A stratified chunk's partial statistics: its count, its mean and the
    estimated variance of that mean."""

    count: int
    mean: float
    variance: float


def _reduce_strata(values: np.ndarray, stream: ChunkStream) -> _Strata:
    """The partial statistics of a chunk drawn by _fill_strata over the
    stream's window, in whose array the squared differences are formed. A
    stratum holding k values of variance s^2 adds k s^2/m^2 to the variance
    of the chunk's mean, s^2 estimated with ddof 1: so a pair adds d^2/m^2
    for its difference d, and the stratum of three, whose t >= 2 values in
    the chunk have squared deviations M2, adds 3 M2/((t - 1) m^2), all of
    it in the chunk holding two or three of its values. Variance =
    (S + 1.5 M2)/m^2 for a chunk ending in all three, S/(4 H^2) for H = m/2
    pairs."""
    m = values.size
    mean = float(values.mean())
    h, t = _strata_window(stream.start, m, stream.n, 2)
    diff = values[:h]
    diff -= values[h : 2 * h]
    diff *= diff
    total = float(diff.sum())
    if t > 1:
        last = values[2 * h :]
        last -= last.mean()
        last *= last
        total += 3.0 / (t - 1) * float(last.sum())
    return _Strata(m, mean, total / (m * m))


class _Replicates(NamedTuple):
    """A replicated chunk's partial statistics: each replicate's weighted sum
    of the chunk's values."""

    sums: np.ndarray


def _reduce_replicates(values: np.ndarray, stream: ChunkStream) -> _Replicates:
    """The per-replicate sums of a chunk drawn by _fill_strata at REPLICATES
    rows over the stream's window: row i of its h strata is replicate i's.
    Each value is weighted by its stratum's width over the regular width
    R/n: 1 in a stratum of R values, and (R + e)/R in the column's last
    stratum of R + e values, e = n % R, whose first R values go one to each
    replicate and whose other e are unused."""
    rows, n, start = REPLICATES, stream.n, stream.start
    h, t = _strata_window(start, values.size, n, rows)
    sums = values[: rows * h].reshape(rows, h).sum(axis=1)
    if t:
        first = start + rows * h - (n - rows - n % rows)  # index in the last stratum
        used = values[rows * h : rows * h + max(0, min(t, rows - first))]
        sums[first : first + used.size] += (rows + n % rows) / rows * used
    return _Replicates(sums)


def _reduce_chunk(values: np.ndarray, stream: ChunkStream | None = None):
    """Partial statistics of one chunk's values: (count, mean, sum of
    squared deviations), or _reduce_strata's or _reduce_replicates' for a
    chunk whose stream drew it stratified. The deviations are formed in the
    array of the values."""
    values = np.asarray(values, dtype=float)
    rows = None if stream is None else stream.rows
    if rows == 2:
        return _reduce_strata(values, stream)
    if rows is not None:
        return _reduce_replicates(values, stream)
    mean = values.mean()
    values -= mean
    values *= values
    return values.size, float(mean), float(values.sum())


def _merge_chunks(parts, n: int) -> Estimate:
    """The plain-mean estimate from the partial statistics of every chunk,
    merged in chunk order. The stratified chunks of a column cover disjoint
    parts of its strata, so they merge as independent estimates with the
    weights w_j = m_j/n of their shares of the column: mean sum w_j mean_j,
    variance sum w_j^2 variance_j. The replicated chunks' sums add up to R
    replicate means, each (R/n) times its sum: the estimate is their mean,
    and its half-width t/3 times their standard error, t = _T_QUANTILE. A
    stratified or replicated half-width is at least 2^-48 of the mean, the
    rounding near extremal._constants' top, which no sum of the values
    resolves. An i.i.d. column of one value has no standard error and is
    refused: a half-width of 0 would leave a verdict on it no slack."""
    kinds = {type(part) for part in parts}
    if len(kinds) > 1:
        raise ValueError("a column mixes stratified, replicated and i.i.d. chunks")
    if _Replicates in kinds:
        sums = parts[0].sums.copy()
        for part in parts[1:]:
            sums += part.sums
        means = sums * (REPLICATES / n)
        value = float(means.mean())
        stderr = float(means.std(ddof=1)) / math.sqrt(REPLICATES)
        halfwidth = max(_T_QUANTILE / 3.0 * stderr, _ROUNDING * abs(value))
        return Estimate(value=value, halfwidth=halfwidth, n_samples=n, method=PLAIN)
    if _Strata in kinds:
        value = variance = 0.0
        for count, mu, var in parts:
            share = count / n
            value += share * mu
            variance += share * share * var
        halfwidth = max(math.sqrt(variance), _ROUNDING * abs(value))
        return Estimate(value=value, halfwidth=halfwidth, n_samples=n, method=PLAIN)
    if n < 2:
        raise ValueError("a drawn column of one i.i.d. value has no standard error; "
                         "draw at least 2 samples")
    count, mean, m2 = parts[0]
    for c, mu, q in parts[1:]:
        total = count + c
        delta = mu - mean
        mean += delta * (c / total)
        m2 += q + delta * delta * (count * c / total)
        count = total
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return Estimate(value=mean, halfwidth=stderr, n_samples=n, method=PLAIN)


def _refuse_short(n: int, method: EstimatorMethod) -> None:
    if n < method.blocks:
        raise ValueError(f"{n} samples cannot fill {method.blocks} blocks")


def estimate_from_values(values: np.ndarray, method: EstimatorMethod) -> Estimate:
    """Estimate of the mean of given i.i.d. values. The plain mean reduces
    CHUNK-sized slices exactly as `estimate_pair` reduces the i.i.d. chunks
    it draws: the same bits for those, not for a column drawn stratified.
    It writes into a copy of the values. Median of means takes the median
    of the means of method.blocks contiguous blocks of n // blocks values
    each; the values past the last whole block are not used."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("empty sample set")
    if method.name == "plain":
        values = values.copy()
        return _merge_chunks([_reduce_chunk(values[s : s + CHUNK]) for s in range(0, n, CHUNK)], n)
    _refuse_short(n, method)
    b = method.blocks
    block_means = values[: n - n % b].reshape(b, -1).mean(axis=1)
    value = float(np.median(block_means))
    halfwidth = _MEDIAN_INFLATION * float(block_means.std(ddof=1)) / math.sqrt(b)
    return Estimate(value=value, halfwidth=halfwidth, n_samples=n, method=method)


def estimate_passes(passes, seed: int, threads: int = 1) -> list[tuple[Estimate, ...]]:
    """`estimate_pair` of every (paired_sampler, n_samples) pass, all on one
    seed, with the pieces of every pass run on one pool of workers in the
    order the passes are given: a long pass given first overlaps the short
    ones. A pass (paired_sampler, n_samples, piece, first_stream) is drawn
    in pieces of that length from streams first_stream, first_stream + 1,
    ... (see `_map_chunks`). Each pass is reduced by the plain mean and
    merged in its own piece order, so a pass in the default layout gets
    exactly the estimates that `estimate_pair` alone would give it. A
    float component is the exact mean of its column (`_exact_mean`),
    reported with half-width 0, not reduced. Each chunk's sampler is
    offered strata over the whole column of the pass (ChunkStream): pairs
    where each of its values is a smooth function of one uniform,
    replicates where it is a step function of it, and i.i.d. draws on a
    column shorter than two strata; such a chunk's arrays reduce as
    stratified or replicated."""

    def reducer(paired_sampler):
        def work(rng, m, start, n):
            stream = ChunkStream(rng, start, n)
            values = paired_sampler(stream, m)
            return [v if isinstance(v, float) else _reduce_chunk(v, stream) for v in values]

        return work

    def merge(column, n_samples):
        exact = _exact_mean(column)
        if exact is None:
            return _merge_chunks(column, n_samples)
        return Estimate(value=exact, halfwidth=0.0, n_samples=n_samples, method=PLAIN)

    parts = _map_chunks([(reducer(sampler), n, *layout) for sampler, n, *layout in passes],
                        seed, threads)
    return [tuple(merge(column, n_samples) for column in zip(*chunks))
            for chunks, (_, n_samples, *_layout) in zip(parts, passes)]


def estimate_pair(paired_sampler, n_samples: int, seed: int,
                  threads: int = 1) -> tuple[Estimate, ...]:
    """One plain-mean estimate per component of a sampler that returns a
    tuple of parallel arrays (a numerator and a denominator, say), all from
    one stream of draws (common random numbers). Each chunk is reduced by
    the worker that drew it. The arrays a sampler returns belong to the
    reducer, which writes into them, so they must be distinct and writable.
    A float component is its column's exact mean (see `estimate_passes`)."""
    (estimates,) = estimate_passes([(paired_sampler, n_samples)], seed, threads)
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


def _sup_ratio(sampler, n_samples: int, method: EstimatorMethod, seed: int,
               threads: int) -> RatioEstimate:
    """The moment ratio of an extremal sup sampler, whose x side is its
    exact moment: by `estimate_pair`, or by median of means, which refuses
    a budget short of its blocks before any draw, then draws the pair by
    `sample_values`, reduces its whole g column and reports its x side,
    the float that `_exact_mean` reads, with half-width 0."""
    if method.name == "plain":
        return ratio_from_estimates(*estimate_pair(sampler, n_samples, seed, threads))
    _refuse_short(n_samples, method)
    x, g = sample_values(sampler, n_samples, seed, threads)
    num = Estimate(value=x, halfwidth=0.0, n_samples=n_samples, method=method)
    return ratio_from_estimates(num, estimate_from_values(g, method))


def ratio_experiment(params: ExtremalParams, n_samples: int = 10**6,
                     method: EstimatorMethod = PLAIN,
                     seed: int = 0, threads: int = 1) -> RatioEstimate:
    """Moment ratio of the full extremal pair (Brownian tail by exact law),
    targeting p^-p/(1-p) as n grows."""
    return _sup_ratio(sharpness_sup_sampler(params), n_samples, method, seed, threads)


def monotone_ratio_experiment(p: float, n: int, n_samples: int = 10**6,
                              method: EstimatorMethod = PLAIN,
                              seed: int = 0, threads: int = 1) -> RatioEstimate:
    """Moment ratio of the monotone pair (no tail), targeting p^-p."""
    sampler = monotone_sup_sampler(ExtremalParams(p=p, n=n))
    return _sup_ratio(sampler, n_samples, method, seed, threads)


def discrete_ratio_experiment(params: ExtremalParams, level_N: int,
                              n_samples: int = 10**6,
                              method: EstimatorMethod = PLAIN,
                              seed: int = 0,
                              threads: int = 1) -> RatioEstimate:
    """Moment ratio of the dyadic discretization; shares the draw layout of
    ratio_experiment so the discretization effect isolates cleanly."""
    return _sup_ratio(discrete_sup_sampler(params, level_N), n_samples, method, seed, threads)
