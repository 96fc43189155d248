#!/usr/bin/env python3
"""Sweep the extremal moment ratios over horizons and exponents.

Prints, for each (p, n), the continuous and monotone ratios next to their
limiting constants p^-p/(1-p) and p^-p and the finite-n lower bound
constant * n/(n+1).
"""

import argparse

from lenglart.extremal import ExtremalParams
from lenglart.montecarlo import monotone_ratio_experiment, ratio_experiment
from lenglart.oracles import ConstantKind, constant


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    ap.add_argument("--n", type=int, nargs="+", default=[1, 2, 5, 10, 20, 40])
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = f"{'p':>5} {'n':>4} {'full ratio':>11} {'c_p':>8} {'lower':>8} " \
             f"{'mono ratio':>11} {'p^-p':>8}"
    print(header)
    print("-" * len(header))
    for p in args.p:
        c_full = constant(ConstantKind.LENGLART, p)
        c_mono = constant(ConstantKind.MONOTONE, p)
        for n in args.n:
            full = ratio_experiment(ExtremalParams(p=p, n=n), args.samples,
                                    seed=args.seed)
            mono = monotone_ratio_experiment(p, n, args.samples, seed=args.seed)
            lower = c_full * n / (n + 1)
            print(f"{p:>5.2f} {n:>4d} {full.ratio:>11.4f} {c_full:>8.4f} "
                  f"{lower:>8.4f} {mono.ratio:>11.4f} {c_mono:>8.4f}")


if __name__ == "__main__":
    main()
