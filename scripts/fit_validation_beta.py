#!/usr/bin/env python3
"""Fit the coefficient table of the fixed-time BDG validation's controls,
and print the controlled value's worst relative sd at each step count.

Each stepped path of `lenglart.bdg`'s validation returns

    plain - beta1(q) C1 - beta2(q) C2,

with plain = (max(M, L)^q + max(Mr, Lr)^q) / 2 and the two controls of
exact mean 0, C1 = (M^q + L^q + Mr^q + Lr^q) / 2 - 2 E and C2 = |B_T|^q - E
(`bdg._value_and_controls`). For each q in 0, 0.05, ..., 2 this script
fits beta as the coefficients of least variance, the regression of plain on
(C1, C2), over paths of 50 steps drawn from the streams chunk_rng(seed, j),
and prints the rows as `bdg._CV_BETA` holds them. Every value is a power q
of a path's extrema, so at q -> 0 the coefficients tend to those of the
logarithms; the row at q = 0 is fitted at q = 1e-4.

It then draws fresh paths, from the streams of seed + 1, at each step count
of --steps, and reads the value at q = 0.01, 0.03, ..., 1.99 through the
printed table, linear between its rows as the validation reads it. Per step
count it prints the largest sd / mean and its q: the figure that
`bdg._CV_RELATIVE_SD` bounds.

    PYTHONPATH=src python scripts/fit_validation_beta.py
"""

import argparse
import math

import numpy as np

from lenglart import bdg
from lenglart.montecarlo import CHUNK, chunk_rng

FIT_STEPS = 50
ROWS = 41
ROW_STEP = 0.05
Q_AT_ZERO = 1e-4


def path_chunks(n_paths: int, n_steps: int, seed: int):
    """`bdg._stepped_extrema` of n_paths paths over [0, 1], in chunks of at
    most CHUNK paths, chunk j from chunk_rng(seed, j)."""
    h = 1.0 / n_steps
    for j, start in enumerate(range(0, n_paths, CHUNK)):
        m = min(CHUNK, n_paths - start)
        yield bdg._stepped_extrema(chunk_rng(seed, j), m, n_steps, h, math.sqrt(h))


def fit_table(n_paths: int, seed: int) -> list[tuple[float, float, float]]:
    qs = [ROW_STEP * i for i in range(ROWS)]
    # per q: the count, the sums of (plain, C1, C2) and of their products
    sums = np.zeros((ROWS, 3))
    products = np.zeros((ROWS, 3, 3))
    for extrema in path_chunks(n_paths, FIT_STEPS, seed):
        for i, q in enumerate(qs):
            q_fit = q or Q_AT_ZERO
            columns = np.array(
                bdg._value_and_controls(extrema, q_fit, bdg._sup_moment(q_fit, 1.0)))
            sums[i] += columns.sum(axis=1)
            products[i] += columns @ columns.T
    table = []
    for q, s, p in zip(qs, sums, products):
        cov = (p - np.outer(s, s) / n_paths) / (n_paths - 1)
        beta1, beta2 = np.linalg.solve(cov[1:, 1:], cov[1:, 0])
        table.append((round(q, 2), round(float(beta1), 3), round(float(beta2), 3)))
    return table


def worst_relative_sd(table, n_paths: int, n_steps: int, seed: int) -> tuple[float, float]:
    qs = 0.01 + 0.02 * np.arange(100)
    # linear between rows, as bdg._control_coefficients reads _CV_BETA
    rows, beta1s, beta2s = zip(*table)
    betas = list(zip(np.interp(qs, rows, beta1s), np.interp(qs, rows, beta2s)))
    sums = np.zeros((qs.size, 2))
    for extrema in path_chunks(n_paths, n_steps, seed):
        for i, (q, (beta1, beta2)) in enumerate(zip(qs, betas)):
            plain, c1, c2 = bdg._value_and_controls(extrema, q, bdg._sup_moment(q, 1.0))
            value = plain - beta1 * c1 - beta2 * c2
            sums[i] += value.sum(), value @ value
    mean = sums[:, 0] / n_paths
    sd = np.sqrt((sums[:, 1] - n_paths * mean**2) / (n_paths - 1))
    worst = int(np.argmax(sd / mean))
    return float(sd[worst] / mean[worst]), float(qs[worst])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--paths", type=int, default=10**6, help="paths of the fit")
    ap.add_argument("--check-paths", type=int, default=10**6,
                    help="paths per step count of the sd check")
    ap.add_argument("--steps", type=int, nargs="+", default=[1, 2, 3, 5, 20, 50])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    table = fit_table(args.paths, args.seed)
    print(f"# (q, beta1, beta2), fitted on {args.paths} paths of {FIT_STEPS} steps, "
          f"seed {args.seed}")
    print("_CV_BETA = (")
    for q, beta1, beta2 in table:
        print(f"    ({q:.2f}, {beta1:.3f}, {beta2:.3f}),")
    print(")")

    print(f"\n{'steps':>5} {'worst sd/mean':>13} {'at q':>5}")
    for n_steps in args.steps:
        sd, q = worst_relative_sd(table, args.check_paths, n_steps, args.seed + 1)
        print(f"{n_steps:>5} {sd:>13.4f} {q:>5.2f}")


if __name__ == "__main__":
    main()
