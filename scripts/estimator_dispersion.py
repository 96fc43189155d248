#!/usr/bin/env python3
"""Compare plain-mean and median-of-means dispersion on the heavy-tailed
supremum statistic across independent replicates.

The statistic (sup X)^p of the extremal family has tail index 1/p, so its
variance is infinite for p >= 1/sqrt(2) and barely finite below; the plain
mean stays unbiased but disperses wildly, while the median of means trades
a small bias for stability. The package's samplers return this moment in
closed form, n/(1-p), with no dispersion at all, so this script draws the
unweighted statistic exp(Z) U^-p 1{Z <= n}, Z ~ Exp(1), itself.
"""

import argparse

import numpy as np

from lenglart.montecarlo import (
    PLAIN,
    chunk_rng,
    estimate_from_values,
    median_of_means,
)
from lenglart.oracles import full_extremal_sup_moment


def plain_sup_x_pow_p(p: float, n: int):
    """Sampler (rng, m) -> (sup X)^p of the full extremal family with Z
    drawn from its own law, unweighted."""

    def sampler(rng: np.random.Generator, m: int) -> np.ndarray:
        z = -np.log(rng.random(m))
        u = rng.random(m)
        return np.where(z <= n, np.exp(z) * u ** (-p), 0.0)

    return sampler


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--replicates", type=int, default=50)
    ap.add_argument("--samples", type=int, default=50_000)
    ap.add_argument("--blocks", type=int, default=31)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sampler = plain_sup_x_pow_p(args.p, args.n)
    truth = full_extremal_sup_moment(args.p, args.n)
    plain_vals, mom_vals = [], []
    for rep in range(args.replicates):
        x_p = sampler(chunk_rng(args.seed + rep, 0), args.samples)
        plain_vals.append(estimate_from_values(x_p, PLAIN).value)
        mom_vals.append(
            estimate_from_values(x_p, median_of_means(args.blocks)).value
        )

    print(f"target E[(sup X)^p] = {truth:.4f} "
          f"(p={args.p}, n={args.n}, {args.replicates} replicates "
          f"of {args.samples} samples)")
    for name, vals in (("plain mean", plain_vals), ("median of means", mom_vals)):
        arr = np.asarray(vals)
        print(f"{name:>16}: mean {arr.mean():8.4f}  sd {arr.std():8.4f}  "
              f"min {arr.min():8.4f}  max {arr.max():8.4f}")


if __name__ == "__main__":
    main()
