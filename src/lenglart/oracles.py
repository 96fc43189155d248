"""Closed-form constants, exact moments and quadrature oracles.

Everything Monte Carlo produces elsewhere in the package is tested against
the values computed here. The module is deliberately dependency-free inside
the package so that oracle and estimator can never share a code path. The
one shared piece is the law of sup_{t<=1}|B_t|, which `bdg.py` inverts to
draw exact samples; the stepped Brownian paths there check it independently.
Every integral is one fixed tanh-sinh rule in numpy, checked against the
same rule at twice the step; nothing here loads scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ConstantKind",
    "constant",
    "lambda_bound",
    "xtilde_sup_moment",
    "gtilde_sup_moment",
    "y_sup_moment",
    "full_extremal_sup_moment",
    "sup_abs_bm_law",
    "sup_abs_bm_moment",
    "IdentityReport",
    "check_moment_identities",
    "UniformLaw",
    "ExpLaw",
    "PointMassLaw",
    "TruncatedParetoLaw",
]


class ConstantKind(Enum):
    """Which domination constant to evaluate."""

    LENGLART = "lenglart"                    # p^-p / (1-p)
    MONOTONE = "monotone"                    # p^-p
    PRATELLI_POWER = "pratelli_power"        # (1-p)^-(1-p) p^-p
    LENGLART_ORIGINAL = "lenglart_original"  # (2-p) / (1-p)


def _check_p(p: float) -> None:
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0,1)")


def constant(kind: ConstantKind, p: float) -> float:
    """Exact closed-form domination constant."""
    _check_p(p)
    if kind is ConstantKind.LENGLART:
        return p ** (-p) / (1.0 - p)
    if kind is ConstantKind.MONOTONE:
        return p ** (-p)
    if kind is ConstantKind.PRATELLI_POWER:
        return (1.0 - p) ** (-(1.0 - p)) * p ** (-p)
    if kind is ConstantKind.LENGLART_ORIGINAL:
        return (2.0 - p) / (1.0 - p)
    raise ValueError(f"unknown constant kind {kind!r}")


def lambda_bound(p: float, lam: float) -> float:
    """The one-parameter bound lam^-p (lam + 1 - p); minimized at lam = p,
    where it equals p^-p."""
    _check_p(p)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return lam ** (-p) * (lam + 1.0 - p)


def xtilde_sup_moment(p: float, t: float) -> float:
    """E[(sup of the exponential jump process up to time t)^p] = t exactly:
    the integrand exp(x)^(p/p) * exp(-x) is identically 1 on [0, t]."""
    _check_p(p)
    if t < 0:
        raise ValueError("t must be non-negative")
    return float(t)


# Tanh-sinh rule on [0, 1] (Takahasi & Mori, 1974): step 1/64, nodes
# x_k = (1 + tanh((pi/2) sinh(k h))) / 2 for k = -203..203, which leave out
# less than 6e-17 of [0, 1] at each end. The set is symmetric, so 1 - x_k is
# the node x_{-k}, read from the mirrored array rather than computed by a
# subtraction.
_TS_STEP = 1.0 / 64.0
_TS_KH = _TS_STEP * np.arange(-203, 204)
_TS_EXP = np.exp(-np.pi * np.sinh(_TS_KH))
_TS_NODE = 1.0 / (1.0 + _TS_EXP)
_TS_LOG_NODE = -np.log1p(_TS_EXP)
_TS_MIRROR = _TS_NODE[::-1]
_TS_WEIGHT = _TS_STEP * np.pi * np.cosh(_TS_KH) * _TS_NODE * _TS_MIRROR


def _tanh_sinh(f, lo: float, hi: float) -> float:
    """int_lo^hi f(x) dx by the rule above, with f called once on the array
    of nodes. Every second node (step 1/32) must give the same sum to 1e-12
    relative; otherwise ArithmeticError."""
    terms = _TS_WEIGHT * f(lo + (hi - lo) * _TS_NODE)
    fine, coarse = float(terms.sum()), 2.0 * float(terms[1::2].sum())
    if abs(fine - coarse) > 1e-12 * abs(fine):
        raise ArithmeticError(f"tanh-sinh quadrature did not converge on [{lo!r}, {hi!r}]: "
                              f"{fine!r} at step 1/64, {coarse!r} at step 1/32")
    return (hi - lo) * fine


def gtilde_sup_moment(p: float, t: float) -> float:
    """p-th moment of the compensator supremum, exact to rounding.

    The moment is int_0^t p^p (1 - e^(-x/p))^p dx + p^p a^p with
    a = 1 - e^(-t/p): the integrand (p (e^(min(t,x)/p) - 1))^p e^-x with
    the x > t part in closed form. Substituting w = 1 - e^(-x/p) and
    splitting w^p = 1 - (1 - w^p) gives
    p^(p+1) (t/p - I) + p^p a^p with I = int_0^a (1 - w^p)/(1 - w) dw,
    whose integrand is bounded by 1. A fixed tanh-sinh rule evaluates I to
    a relative error of about 1e-16, with 1 - w = e^(-t/p) + a (1 - x_k)
    and 1 - w^p = -expm1(p log w) free of cancellation; against 40-digit
    mpmath values on a grid of p in [0.001, 0.999] and t in [1e-3, 1e7]
    (README, "Layout") it is within 9.6e-16 relative, and 2.8e-16 from
    p = 0.01 up. No term can overflow, whatever t/p.
    """
    _check_p(p)
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return 0.0
    a = -math.expm1(-t / p)
    f = -np.expm1(p * (math.log(a) + _TS_LOG_NODE)) / (math.exp(-t / p) + a * _TS_MIRROR)
    integral = a * float(np.dot(_TS_WEIGHT, f))
    value = p ** (p + 1.0) * (t / p - integral) + p**p * a**p
    bound = p**p * (t + 1.0)
    assert value <= bound * (1.0 + 1e-12), (value, bound)
    return value


def y_sup_moment(p: float, x: float) -> float:
    """E[Y_x^p] = x^p / (1-p) for the stopped-Brownian supremum started at x."""
    _check_p(p)
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 0.0
    return x**p / (1.0 - p)


def full_extremal_sup_moment(p: float, n: int) -> float:
    """E[(sup of the Brownian-tail-modified extremal process)^p] = n / (1-p)."""
    _check_p(p)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n / (1.0 - p)


# ---------------------------------------------------------------------------
# Law of S = sup_{t<=1} |B_t| for a standard Brownian motion B (Borodin &
# Salminen, Handbook of Brownian Motion -- Facts and Formulae). Two series
# give P[S < x]; each converges fast on one side of x = 1 only:
#   theta series,      x < 1:  (4/pi) sum_k (-1)^k/(2k+1) exp(-(2k+1)^2 pi^2 / (8x^2))
#   reflection series, x >= 1: 1 - 4 sum_k (-1)^k Phibar((2k+1) x)
# Both are alternating with terms of decreasing size, so the truncation
# error is below the first term left out. Terms are added until that term is
# below _SERIES_RTOL times the leading one: over the whole argument array for
# the theta series, element by element for the reflection series, whose
# Phibar terms cost more than the theta series' exponentials.
# ---------------------------------------------------------------------------

_SERIES_RTOL = 1e-16
_SQRT_HALF = math.sqrt(0.5)


def _series_terms(c: float) -> int:
    """Number of terms k = 0..K-1 of a series whose k-th term relative to
    the leading one is at most (2k+1) exp(-((2k+1)^2 - 1) c). This bounds
    both the value and the derivative terms of the theta series (with
    c = pi^2/(8x^2)) and of the reflection series (with c = x^2/2; for its
    Phibar terms, by the Mills-ratio bounds, once x >= 0.36)."""
    k = 1
    while (2 * k + 1) * math.exp(-((2 * k + 1) ** 2 - 1) * c) >= _SERIES_RTOL:
        k += 1
    return k


def _theta_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P[S < x], density) at x > 0 by the theta series."""
    c = np.pi**2 / (8.0 * x * x)
    cdf = np.zeros_like(x)
    pdf = np.zeros_like(x)
    for k in range(_series_terms(float(c.min()))):
        j = 2 * k + 1
        e = np.exp(-(j * j) * c)
        if k % 2:
            e = -e
        cdf += e / j
        pdf += j * e
    return (4.0 / np.pi) * cdf, (np.pi / x**3) * pdf


def _normal_sf(x: np.ndarray) -> np.ndarray:
    """Phibar(x) = erfc(x / sqrt(2)) / 2 element by element, with the
    argument formed as x * sqrt(1/2), as Cephes' `ndtr` forms it. Outside
    the tests the law is evaluated only at the quadrature nodes and while
    `bdg` builds its quantile table, so a loop over `math.erfc` costs a few
    milliseconds per process, where importing scipy.special cost 0.3 s."""
    return 0.5 * np.array([math.erfc(v) for v in (x * _SQRT_HALF).tolist()])


def _reflection_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P[S >= x], density) at x > 0 by the reflection series. Term k is
    evaluated only at the elements where the bound of `_series_terms` keeps
    it: x^2 < 2 log((2k+1)/rtol) / ((2k+1)^2 - 1), a cut that falls with k
    (about 3.08, 1.79 and 1.27 for k = 1, 2, 3)."""
    sf = _normal_sf(x)
    pdf = np.exp(-0.5 * x * x)
    for k in itertools.count(1):
        j = 2 * k + 1
        idx = np.flatnonzero(x * x < 2.0 * math.log(j / _SERIES_RTOL) / (j * j - 1))
        if not idx.size:
            break
        xs = j * x.take(idx)
        tail = _normal_sf(xs)
        dens = j * np.exp(-0.5 * xs * xs)
        if k % 2:
            tail, dens = -tail, -dens
        np.add.at(sf, idx, tail)
        np.add.at(pdf, idx, dens)
    return 4.0 * sf, (4.0 / math.sqrt(2.0 * math.pi)) * pdf


def sup_abs_bm_law(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P[S < x], P[S >= x], density) of S = sup_{t<=1}|B_t| at x, each
    from the series on the side of x = 1 where it converges fast, so the
    CDF is accurate in relative terms near 0 and the survival in the tail."""
    x = np.asarray(x, dtype=float)
    cdf = np.zeros_like(x)
    sf = np.ones_like(x)
    pdf = np.zeros_like(x)
    # flat integer indices: take/put cost a tenth of boolean-mask indexing.
    # The callers are the quadrature nodes and bdg's quantile-table build
    low = np.flatnonzero((x > 0.0) & (x < 1.0))
    high = np.flatnonzero(x >= 1.0)
    if low.size:
        c, d = _theta_series(x.take(low))
        cdf.put(low, c)
        sf.put(low, 1.0 - c)
        pdf.put(low, d)
    if high.size:
        s, d = _reflection_series(x.take(high))
        cdf.put(high, 1.0 - s)
        sf.put(high, s)
        pdf.put(high, d)
    return cdf, sf, pdf


def sup_abs_bm_moment(q: float, T: float = 1.0) -> float:
    """E[(sup_{t<=T}|B_t|)^q] = T^(q/2) int_0^inf q x^(q-1) P[S_1 > x] dx
    for 0 < q <= 4, by quadrature.

    On [0, 1) the survival is written 1 - F, so the x^(q-1) singularity
    integrates to 1 in closed form; what is left, q x^(q-1) F(x), is below
    1e-23 for x < 0.15, and q x^(q-1) P[S_1 > x] is below 1e-28 past x = 12.
    `_tanh_sinh` integrates the head against F on [0.15, 1] and the tail
    against P[S_1 >= x] on [1, 12], each with one vectorised evaluation of
    the law, and raises ArithmeticError if its check fails.
    """
    if not (0.0 < q <= 4.0):
        raise ValueError("q must lie in (0,4]")
    if T <= 0:
        raise ValueError("horizon must be positive")

    head = _tanh_sinh(lambda x: q * x ** (q - 1.0) * sup_abs_bm_law(x)[0], 0.15, 1.0)
    tail = _tanh_sinh(lambda x: q * x ** (q - 1.0) * sup_abs_bm_law(x)[1], 1.0, 12.0)
    return float(T ** (q / 2.0) * (1.0 - head + tail))


# ---------------------------------------------------------------------------
# Moment identities for positive random variables:
#   E[Z^p] = int_0^inf P[Z >= u^(1/p)] du
#   E[Z^p] = p(1-p) int_0^inf E[Z ^ u] u^(p-2) du
# verified against a direct evaluation. Both are integrated over v = u^p,
# the second as (1-p) int E[Z ^ u] / u dv, whose integrand is at most 1.
# ---------------------------------------------------------------------------


class _Law:
    """A positive random variable with exact CDF and truncated mean."""

    name = "law"

    def sf(self, z: float) -> float:  # P[Z >= z] (laws here are continuous or handled ad hoc)
        raise NotImplementedError

    def truncated_mean(self, u: float) -> float:  # E[Z ^ u]
        raise NotImplementedError

    def p_moment_direct(self, p: float) -> float:
        raise NotImplementedError

    def edges(self) -> tuple[float, ...]:
        """Increasing points at which the survival function or the truncated
        mean jumps or has a kink; the identity quadratures are split there.
        The last one bounds the support (tail beyond is < 1e-14). The exp
        law splits at 1 too: at small p its integrands change only within
        about p of v = u^p = 1, where the end nodes of the pieces [0, 1] and
        [1, 60^p] fall; one piece [0, 60^p] fails the check at p = 1e-6."""
        raise NotImplementedError


class UniformLaw(_Law):
    name = "uniform"

    def sf(self, z):
        return 1.0 - min(max(z, 0.0), 1.0)

    def truncated_mean(self, u):
        if u <= 0:
            return 0.0
        if u >= 1:
            return 0.5
        return u - u * u / 2.0

    def p_moment_direct(self, p):
        # int_0^1 z^p dz
        return 1.0 / (1.0 + p)

    def edges(self):
        return (1.0,)


class ExpLaw(_Law):
    name = "exp"

    def sf(self, z):
        return math.exp(-max(z, 0.0))

    def truncated_mean(self, u):
        return -math.expm1(-max(u, 0.0))

    def p_moment_direct(self, p):
        return math.gamma(1.0 + p)

    def edges(self):
        return (1.0, 60.0)


class PointMassLaw(_Law):
    name = "point"

    def __init__(self, c: float):
        if not 0.0 <= c < math.inf:
            raise ValueError("point mass must be finite and non-negative")
        self.c = c

    def sf(self, z):
        return 1.0 if z <= self.c else 0.0

    def truncated_mean(self, u):
        return min(self.c, max(u, 0.0))

    def p_moment_direct(self, p):
        return self.c**p

    def edges(self):
        return (self.c,)


class TruncatedParetoLaw(_Law):
    """Pareto with scale 1, index alpha > 1, hard-truncated at ``cap``."""

    name = "pareto"

    def __init__(self, alpha: float = 2.0, cap: float = 1e6):
        if alpha <= 1:
            raise ValueError("tail index must exceed 1 for a finite mean")
        if cap <= 1:
            raise ValueError("cap must exceed the scale 1")
        self.alpha = alpha
        self.cap = cap

    def sf(self, z):
        if z <= 1.0:
            return 1.0
        if z >= self.cap:
            return 0.0
        return z ** (-self.alpha)

    def truncated_mean(self, u):
        a = self.alpha
        u = min(max(u, 0.0), self.cap)
        if u <= 1.0:
            return u
        # E[Z ^ u] = 1 + int_1^u z^-a dz
        return 1.0 + (1.0 - u ** (1.0 - a)) / (a - 1.0)

    def p_moment_direct(self, p):
        a = self.alpha
        # density a z^-(a+1) on [1, cap), atom cap^-a at cap
        tail = self.cap ** (p - a)
        return a / (a - p) * (1.0 - tail) + tail

    def edges(self):
        return (1.0, self.cap)


@dataclass(frozen=True)
class IdentityReport:
    law: str
    p: float
    direct: float
    via_tail_integral: float
    via_truncated_mean: float

    @property
    def max_discrepancy(self) -> float:
        vals = (self.direct, self.via_tail_integral, self.via_truncated_mean)
        return max(vals) - min(vals)

    def to_json(self) -> dict:
        return {
            "law": self.law,
            "p": self.p,
            "direct": self.direct,
            "via_tail_integral": self.via_tail_integral,
            "via_truncated_mean": self.via_truncated_mean,
            "max_discrepancy": self.max_discrepancy,
        }


def check_moment_identities(rv: _Law, p: float) -> IdentityReport:
    """Evaluate E[Z^p] three ways and report the spread."""
    _check_p(p)
    direct = rv.p_moment_direct(p)
    edges = rv.edges()

    def integral(g) -> float:
        # sum over the pieces of int g(u) dv with v = u^p; on a piece that
        # starts above 0 over s = log v, where dv = e^s ds and u = e^(s/p)
        at = np.vectorize(g, otypes=[float])

        return sum(_tanh_sinh(lambda v: at(v ** (1.0 / p)), 0.0, hi**p) if lo == 0.0 else
                   _tanh_sinh(lambda s: np.exp(s) * at(np.exp(s / p)),
                              p * math.log(lo), p * math.log(hi))
                   for lo, hi in zip((0.0, *edges), edges))

    via_tail = integral(rv.sf)
    # E[Z ^ u] / u tends to 1 as u -> 0, where u = v^(1/p) may underflow
    within = integral(lambda u: rv.truncated_mean(u) / u if u > 0.0 else 1.0)
    # beyond the support E[Z ^ u] = E[Z], which integrates in closed form
    top = edges[-1]
    mean = rv.truncated_mean(top)
    beyond = p * (mean / top) * top**p if mean > 0 else 0.0
    via_tm = (1.0 - p) * within + beyond

    return IdentityReport(
        law=rv.name,
        p=p,
        direct=float(direct),
        via_tail_integral=float(via_tail),
        via_truncated_mean=float(via_tm),
    )


def moment_identity_law(name: str, point_value: float = 1.0) -> _Law:
    """Named law factory for the CLI."""
    if name == "uniform":
        return UniformLaw()
    if name == "exp":
        return ExpLaw()
    if name == "point":
        return PointMassLaw(point_value)
    if name == "pareto":
        return TruncatedParetoLaw()
    raise ValueError(f"unknown law {name!r}; expected uniform, exp, point or pareto")
