#!/usr/bin/env python3
"""Desk-scale comparison of classification heads on hierarchy-aligned data.

Trains metric-guided prototypes against the unregularized and baseline
heads on synthetic Gaussian blobs whose means follow a 3-level binary
taxonomy, then prints median test error rate (ER), average cost (AC) and
scale-free prototype distortion (SFD) over the requested seeds, scored as
`protometric train` scores its test split (`pm.evaluate_checkpoint`).

    python3 scripts/run_synthetic_benchmark.py --seeds 5 --epochs 100
"""

import argparse
import time

import numpy as np

import protometric as pm

TAXONOMY = ("A\troot\nB\troot\nA1\tA\nA2\tA\nB1\tB\nB2\tB\n"
            "a1x\tA1\na1y\tA1\na2x\tA2\na2y\tA2\n"
            "b1x\tB1\nb1y\tB1\nb2x\tB2\nb2y\tB2\n")

ARMS = [
    # name, head, lambda, regularizer
    ("guided-disto", "prototypes", 1.0, "disto"),
    ("guided-rank", "prototypes", 1.0, "rank"),
    ("fixed-scale", "prototypes", 1.0, "disto-fixed-scale"),
    ("free-proto", "prototypes", 0.0, "none"),
    ("cross-entropy", "cross-entropy", 0.0, "none"),
    ("soft-labels", "soft-labels", 0.0, "none"),
]


def run_arm(tax, metric, head, lam, regularizer, seed, args):
    rng = np.random.default_rng(seed)
    dataset = pm.gen_hierarchical_gaussians(
        tax, per_class=args.per_class, dims=args.dims,
        root_spread=args.root_spread, decay=args.decay, noise=args.noise,
        rng=rng)
    train_set, test_set = pm.split(dataset, 0.25, rng)
    config = pm.TrainConfig(lam=lam, regularizer=regularizer, head=head,
                            m=args.m, architecture="mlp", hidden=(32, 32),
                            epochs=args.epochs, batch_size=64)
    result = pm.train(train_set, tax, metric, config, rng)

    ckpt = pm.Checkpoint(model=result.model, prototypes=result.prototypes,
                         distance=config.distance, taxonomy=tax, head=result.head)
    return pm.evaluate_checkpoint(ckpt, test_set, "max-prob").to_dict()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=100)
    parser.add_argument("--per-class", type=int, default=200)
    parser.add_argument("--dims", type=int, default=16)
    parser.add_argument("--m", type=int, default=16)
    parser.add_argument("--root-spread", type=float, default=3.0)
    parser.add_argument("--decay", type=float, default=0.8)
    parser.add_argument("--noise", type=float, default=1.0)
    args = parser.parse_args()

    tax = pm.parse_taxonomy(TAXONOMY)
    metric = pm.cost_matrix(tax)
    costs = sorted({float(v) for v in metric.costs.ravel()} - {0.0})
    print(f"{len(tax.leaf_ids)} leaf classes, costs in {costs}, "
          f"{args.seeds} seeds, {args.epochs} epochs\n")
    print(f"{'arm':14s} {'ER':>7s} {'AC':>7s} {'SFD':>7s}")
    for name, head, lam, regularizer in ARMS:
        t0 = time.perf_counter()
        runs = [run_arm(tax, metric, head, lam, regularizer, seed, args)
                for seed in range(args.seeds)]
        agg = pm.aggregate_reports(runs, "median")
        er, ac, sfd = (agg[key] for key in ("er", "ac", "scale_free_distortion"))
        print(f"{name:14s} {er:7.3f} {ac:7.3f} {sfd:7.3f}"
              f"   ({time.perf_counter() - t0:.0f}s)")


if __name__ == "__main__":
    main()
