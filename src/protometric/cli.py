"""Command-line interface: cost matrices, prototype embedding, training,
evaluation, batch inference, and synthetic data generation.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage/validation failure.
Heavy imports happen inside the command handlers so that --threads can pin
the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import argparse
import itertools
import os
import pathlib
import sys
import warnings
from dataclasses import dataclass, replace

from .formats import (DISTANCE_KINDS, HEADS, REGULARIZERS, SCHEMES, DistanceSpec, OptimizerSpec,
                      Record, TrainConfig, csv_text, json_text, parse_json, read_text,
                      write_text)

OUTPUT_ROOT_ENV = "PROTOMETRIC_OUTPUT_ROOT"
AGGREGATES = ("median", "mean")


@dataclass(frozen=True)
class RunConfig(Record):
    """Resolved configuration of a training run (JSON on disk)."""

    taxonomy_path: str
    dataset_path: str
    train: TrainConfig = TrainConfig()
    output_dir: str = ""
    scheme: str = "max-prob"
    aggregate: str = "median"
    seeds: tuple[int, ...] = (0,)
    test_fraction: float = 0.25
    label_column: str = "label"
    taxonomy_format: str = "edge-list"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{self.scheme}'")
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"unknown aggregation '{self.aggregate}'")
        if not self.seeds:
            raise ValueError("seed list must not be empty")
        if not 0 < self.test_fraction < 1:
            raise ValueError("test_fraction must lie strictly between 0 and 1, "
                             f"got {self.test_fraction}")
        object.__setattr__(self, "seeds", _check_seeds("seeds", self.seeds))


def _check_seed(name: str, seed: int) -> None:
    """A random seed is a non-negative integer; `name` is its flag or key."""
    if seed < 0:
        raise ValueError(f"{name}: seed {seed} must be >= 0")


def _check_seeds(name: str, seeds) -> tuple[int, ...]:
    """A seed list holds distinct random seeds; `name` is its flag or key."""
    seeds = tuple(int(s) for s in seeds)
    for i, seed in enumerate(seeds):
        _check_seed(name, seed)
        if seed in seeds[:i]:
            raise ValueError(f"{name}: seed {seed} is repeated")
    return seeds


def _echo(args, *drop, **extra) -> dict:
    """A command's config echo: its arguments less the output path and
    `drop`, updated by `extra`."""
    skip = {"threads", "command", "func", "out", *drop}
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **extra}


def _prototypes_csv(pi, tax) -> str:
    return csv_text(["class_name", "node_id", *(f"x{j}" for j in range(pi.dim))],
                    ([tax.nodes[node_id].name, node_id, *row]
                     for node_id, row in zip(pi.class_map, pi.coords.tolist())))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_cost(args) -> int:
    from .taxonomy import cost_matrix, metric_to_csv, parse_taxonomy

    tax = parse_taxonomy(read_text(args.taxonomy), args.format)
    metric = cost_matrix(tax, "all-nodes" if args.nodes == "all" else "leaves-only")
    write_text(args.out, metric_to_csv(metric))
    print(f"wrote {metric.size}x{metric.size} cost matrix to {args.out}")
    return 0


def cmd_embed(args) -> int:
    import numpy as np

    from .distortion import PrototypeSet, distortion_report, fit_prototypes
    from .optim import TrainingDivergedError
    from .taxonomy import cost_matrix, parse_taxonomy

    for flag, value in (("--steps", args.steps), ("--dim", args.dim),
                        ("--triplets", args.triplets)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    _check_seed("--seed", args.seed)
    OptimizerSpec(lr=args.lr)  # rejects a --lr that is not positive and finite
    tax = parse_taxonomy(read_text(args.taxonomy), args.format)
    metric = cost_matrix(tax, "all-nodes" if args.nodes == "all" else "leaves-only")
    node_ids = (tuple(range(tax.n_nodes)) if args.nodes == "all"
                else tax.leaf_ids)
    spec = DistanceSpec(kind=args.distance, delta=args.delta)
    rng = np.random.default_rng(args.seed)
    coords = rng.standard_normal((metric.size, args.dim))
    try:
        coords = fit_prototypes(metric, spec, args.regularizer, rng, coords, args.steps,
                                args.lr, args.triplets)
    except TrainingDivergedError as exc:
        raise TrainingDivergedError(f"{exc} (--lr {args.lr})") from None
    pi = PrototypeSet(coords, node_ids)
    report = distortion_report(pi, metric, spec)
    out = args.out
    write_text(os.path.join(out, "prototypes.csv"), _prototypes_csv(pi, tax))
    write_text(os.path.join(out, "distortion.json"), json_text(report.to_dict()))
    write_text(os.path.join(out, "embed_config.json"),
               json_text(_echo(args, "delta", distance=spec.to_dict())))
    print(f"scale-free distortion {report.scale_free_distortion:.3e} "
          f"-> {out}")
    return 0


def _load_run_config(args) -> RunConfig:
    cfg = RunConfig.from_dict(parse_json(read_text(args.config)))

    def given(**flags):
        return {name: value for name, value in flags.items() if value is not None}

    train = replace(cfg.train, **given(lam=args.lam, epochs=args.epochs, head=args.head,
                                       regularizer=args.regularizer))
    cfg = replace(cfg, train=train, **given(scheme=args.scheme, aggregate=args.aggregate))
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            raise ValueError(f"--seeds: {args.seeds!r} is not a comma-separated "
                             "list of integers") from None
        cfg = replace(cfg, seeds=_check_seeds("--seeds", seeds))
    out = args.output_dir or cfg.output_dir
    if not out:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        out = os.path.join(root, os.path.splitext(os.path.basename(args.config))[0])
    return replace(cfg, output_dir=out)


def cmd_train(args) -> int:
    import numpy as np

    from .data import load_csv, split
    from .evaluation import aggregate_reports, evaluate_checkpoint
    from .model import Checkpoint, save_checkpoint, train
    from .taxonomy import cost_matrix, parse_taxonomy

    cfg = _load_run_config(args)
    tax = parse_taxonomy(read_text(cfg.taxonomy_path), cfg.taxonomy_format)
    metric = cost_matrix(tax, "leaves-only")
    dataset = load_csv(pathlib.Path(cfg.dataset_path), cfg.label_column, tax)
    out = cfg.output_dir

    per_seed = []
    for seed in cfg.seeds:
        rng = np.random.default_rng(seed)
        train_set, test_set = split(dataset, cfg.test_fraction, rng)
        result = train(train_set, tax, metric, cfg.train, rng)
        if not per_seed:  # `train` has checked its inputs: the run directory may start
            write_text(os.path.join(out, "config.json"), json_text(cfg.to_dict()))

        tag = f"seed{seed}"
        ckpt = Checkpoint(model=result.model, prototypes=result.prototypes,
                          distance=cfg.train.distance, taxonomy=tax, head=result.head)
        save_checkpoint(os.path.join(out, f"checkpoint_{tag}.json"), ckpt)
        write_text(os.path.join(out, f"history_{tag}.csv"), result.history.to_csv())
        write_text(os.path.join(out, f"prototypes_{tag}.csv"),
                   _prototypes_csv(result.prototypes, tax))

        report = evaluate_checkpoint(ckpt, test_set, cfg.scheme)
        write_text(os.path.join(out, f"eval_{tag}.json"), json_text(report.to_dict()))
        write_text(os.path.join(out, f"confusion_{tag}.csv"), report.confusion_to_csv())
        per_seed.append(report.to_dict())

    agg = aggregate_reports(per_seed, cfg.aggregate)
    write_text(os.path.join(out, "aggregate_eval.json"),
               json_text({"aggregate": cfg.aggregate, "seeds": list(cfg.seeds),
                          "metrics": agg, "per_seed": per_seed}))
    print(f"trained {len(cfg.seeds)} seed(s) -> {out}")
    return 0


def cmd_eval(args) -> int:
    from .data import load_csv
    from .evaluation import evaluate_checkpoint
    from .model import load_checkpoint
    from .taxonomy import parse_taxonomy

    ckpt = load_checkpoint(args.checkpoint)
    tax = parse_taxonomy(read_text(args.taxonomy), args.format)
    if tax.leaf_names != ckpt.taxonomy.leaf_names:
        raise ValueError("taxonomy leaves do not match the checkpoint's classes")
    if tax.names != ckpt.taxonomy.names:
        # prototype class maps hold node ids, so the numbering must agree
        here, there = tax.names + (None,), ckpt.taxonomy.names + (None,)
        i = next(i for i, (a, b) in enumerate(zip(here, there)) if a != b)
        raise ValueError(f"taxonomy node id {i} is {here[i]!r} but {there[i]!r} "
                         "in the checkpoint")
    ckpt = replace(ckpt, taxonomy=tax)
    dataset = load_csv(pathlib.Path(args.dataset), args.label_column, tax)
    report = evaluate_checkpoint(ckpt, dataset, args.scheme)
    out = args.out
    write_text(os.path.join(out, "eval.json"), json_text(report.to_dict()))
    write_text(os.path.join(out, "confusion.csv"), report.confusion_to_csv())
    write_text(os.path.join(out, "eval_config.json"), json_text(_echo(args)))
    extra = "" if report.l_er is None else f" l_er={report.l_er:.4f} r_er={report.r_er}"
    print(f"er={report.er:.4f} ac={report.ac:.4f}{extra} -> {out}")
    return 0


def cmd_infer(args) -> int:
    import numpy as np

    from .data import read_numeric
    from .inference import predict_blocks, top3
    from .model import load_checkpoint

    ckpt = load_checkpoint(args.checkpoint)
    ids, X = read_numeric(pathlib.Path(args.features), "id")
    if X.shape[1] != ckpt.model.input_dim:
        raise ValueError(f"feature dimension {X.shape[1]} does not match the "
                         f"model input dimension {ckpt.model.input_dim}")
    if ids is None:
        ids = range(X.shape[0])

    metric, blocks = predict_blocks(ckpt, X, args.scheme)
    names, leaf_names = metric.class_names, ckpt.taxonomy.leaf_names
    ids = iter(ids)

    def block_rows(block):
        """The CSV rows of one block; its arrays go when this returns."""
        preds, P, ec_table = block
        top = top3(P)
        probs = np.take_along_axis(P, top, axis=1).tolist()
        # max-prob builds no table: its EC is one per-row dot
        ecs = (np.einsum("ik,ik->i", P, metric.costs[preds]) if ec_table is None
               else ec_table[np.arange(len(preds)), preds]).tolist()
        rows = []
        for sample_id, pred, ks, ps, ec in zip(itertools.islice(ids, len(preds)),
                                               preds.tolist(), top.tolist(), probs, ecs):
            cells = [cell for k, p in zip(ks, ps) for cell in (leaf_names[k], p)]
            cells += [None] * (6 - len(cells))  # fewer than three leaves
            rows.append([sample_id, args.scheme, names[pred], *cells, ec])
        return rows

    # the text is whole before the file is opened: a failing block writes nothing
    write_text(args.out, csv_text(
        ["sample_id", "scheme", "predicted_class", "p1_class", "p1_prob", "p2_class",
         "p2_prob", "p3_class", "p3_prob", "ec"],
        itertools.chain.from_iterable(map(block_rows, blocks))))
    print(f"wrote {X.shape[0]} predictions to {args.out}")
    return 0


def cmd_synth(args) -> int:
    import numpy as np

    from .data import dataset_to_csv, gen_hierarchical_gaussians
    from .taxonomy import parse_taxonomy

    _check_seed("--seed", args.seed)
    tax = parse_taxonomy(read_text(args.taxonomy), args.format)
    rng = np.random.default_rng(args.seed)
    dataset = gen_hierarchical_gaussians(tax, per_class=args.per_class,
                                         dims=args.dims,
                                         root_spread=args.root_spread,
                                         decay=args.decay, noise=args.noise,
                                         rng=rng)
    write_text(args.out, dataset_to_csv(dataset))
    meta = os.path.splitext(args.out)[0] + ".meta.json"
    write_text(meta, json_text(_echo(args, n=dataset.n)))
    print(f"wrote {dataset.n} samples to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises its usage errors, so that `main` prints them as one line."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="protometric",
        description="Metric-guided prototype learning toolkit")
    parser.add_argument("--threads", type=int, default=None,
                        help="pin BLAS/OpenMP thread pools (1 = deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="derive a cost matrix from a taxonomy")
    p.add_argument("taxonomy")
    p.add_argument("--format", choices=("edge-list", "json-tree"), default="edge-list")
    p.add_argument("--nodes", choices=("leaves", "all"), default="leaves")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("embed", help="fit prototypes to the taxonomy metric alone")
    p.add_argument("taxonomy")
    p.add_argument("--format", choices=("edge-list", "json-tree"), default="edge-list")
    p.add_argument("--nodes", choices=("leaves", "all"), default="leaves")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--regularizer", choices=("disto", "rank"), default="disto")
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--distance", choices=DISTANCE_KINDS, default="euclidean")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--triplets", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train from a JSON run config")
    p.add_argument("config")
    p.add_argument("--output-dir", default=None,
                   help=f"overrides the config; default root from ${OUTPUT_ROOT_ENV}")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--head", choices=HEADS, default=None)
    p.add_argument("--regularizer", choices=REGULARIZERS, default=None)
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--aggregate", choices=AGGREGATES, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled CSV")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("taxonomy")
    p.add_argument("--format", choices=("edge-list", "json-tree"), default="edge-list")
    p.add_argument("--scheme", choices=SCHEMES, default="max-prob")
    p.add_argument("--label-column", default="label")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="batch inference over a feature CSV")
    p.add_argument("checkpoint")
    p.add_argument("features")
    p.add_argument("--scheme", choices=SCHEMES, default="max-prob")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("synth", help="generate hierarchy-aligned Gaussian data")
    p.add_argument("taxonomy")
    p.add_argument("--format", choices=("edge-list", "json-tree"), default="edge-list")
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--root-spread", type=float, default=4.0)
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def _show_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.threads is not None:
            # below 1 sets nothing: OpenBLAS would take it as "all cores"
            if args.threads < 1:
                raise ValueError(f"--threads must be >= 1, got {args.threads}")
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS"):
                os.environ[var] = str(args.threads)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    import numpy as np  # only now: --threads has set the BLAS pools

    try:
        # a numpy overflow or invalid-value warning would be a second stderr
        # line; the explicit finite checks report the failure itself. Any
        # other warning is one line, without the source line Python adds.
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except (ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
