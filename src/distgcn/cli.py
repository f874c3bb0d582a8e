"""Command-line front end.

Subcommands: gen-graph (synthetic instances), partition, spmm-bench and
train. Every command is deterministic given its flags and seed and writes
byte-identical outputs on repeated runs. Errors are reported as one JSON
object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import costmodel, graphgen, io
from .gcn import TrainConfig, train
from .partition import (block_partition, comm_metrics, edgecut,
                        greedy_tv_partition, random_partition,
                        volume_balanced_refine)
from .runtime import PRIMITIVES
from .sparse import CsrMatrix, gcn_normalize
from .spmm import VARIANTS, run_spmm, validate_variant_grid

PARTITIONERS = ("block", "random", "greedy-tv", "gvb")


class CliError(Exception):
    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


@dataclass
class ExperimentConfig:
    """Validated bundle of the flags shared by the experiment commands."""

    graph_path: str = None
    fmt: str = None
    gen: str = None
    n: int = 256
    p: int = 1
    c: int = 1
    variant: str = "1d-sparse"
    partitioner: str = "block"
    epsilon: float = 0.10
    lambda_max: float = None
    max_passes: int = 10
    f: int = 4
    seed: int = 0
    raw: bool = False
    out_dir: str = "."

    def validate_grid(self):
        try:
            validate_variant_grid(self.variant, self.p, self.c)
        except ValueError as exc:
            raise CliError(str(exc), variant=self.variant, p=self.p, c=self.c) from exc


def _detect_format(path, fmt):
    if fmt:
        return fmt
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        return "matrix-market"
    return "edge-list-tsv"


def _read_graph(cfg: ExperimentConfig):
    """Graph plus optional features/labels, from file or generator, as
    read: not normalized."""
    features = labels = None
    if cfg.gen:
        if cfg.gen == "sbm":
            a, features, labels = graphgen.sbm(cfg.n, seed=cfg.seed, feature_dim=cfg.f)
        elif cfg.gen == "grid":
            side = int(round(np.sqrt(cfg.n)))
            a = graphgen.grid2d(side, side)
        elif cfg.gen == "star":
            a = graphgen.star(cfg.n - 1)
        elif cfg.gen == "cliques":
            size = max(2, cfg.n // 8)
            a = graphgen.clique_blocks(cfg.n // size, size)
        elif cfg.gen == "star-augmented":
            a = graphgen.star_augmented(cfg.n, seed=cfg.seed)
        else:
            raise CliError(f"unknown generator {cfg.gen!r}")
    else:
        if not cfg.graph_path:
            raise CliError("either --graph or --gen is required")
        fmt = _detect_format(cfg.graph_path, cfg.fmt)
        try:
            if fmt == "matrix-market":
                a = io.load_matrix_market(cfg.graph_path)
            elif fmt == "edge-list-tsv":
                a = io.load_edge_list_tsv(cfg.graph_path)
            else:
                raise CliError(f"unknown graph format {fmt!r}")
        except FileNotFoundError as exc:
            raise CliError(f"cannot read graph file: {exc}") from exc
        except io.ParseError as exc:
            raise CliError(str(exc), path=exc.path, line=exc.lineno) from exc
    return a, features, labels


def _load_graph(cfg: ExperimentConfig):
    """_read_graph, with the adjacency normalized unless --raw is set."""
    a, features, labels = _read_graph(cfg)
    if not cfg.raw:
        a = gcn_normalize(a)
    return a, features, labels


def _build_partition(a: CsrMatrix, k, cfg: ExperimentConfig):
    if k > a.n_rows:
        raise CliError(f"cannot split {a.n_rows} vertices into {k} parts")
    if cfg.partitioner == "block":
        return block_partition(a.n_rows, k)
    if cfg.partitioner == "random":
        return random_partition(a.n_rows, k, cfg.seed)
    if cfg.partitioner == "greedy-tv":
        return greedy_tv_partition(a, k, cfg.epsilon, cfg.max_passes)
    if cfg.partitioner == "gvb":
        start = greedy_tv_partition(a, k, cfg.epsilon, cfg.max_passes)
        return volume_balanced_refine(a, start, cfg.lambda_max, cfg.epsilon,
                                      cfg.max_passes)
    raise CliError(f"unknown partitioner {cfg.partitioner!r}")


def _out_dir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_graph(cfg: ExperimentConfig) -> int:
    # generation always writes the raw graph; normalization happens on load
    out = _out_dir(cfg)
    a, features, labels = _read_graph(cfg)
    if cfg.fmt == "matrix-market":
        io.save_matrix_market(out / "graph.mtx", a)
    else:
        io.save_edge_list_tsv(out / "graph.tsv", a)
    if features is not None:
        io.save_features_tsv(out / "features.tsv", features)
    if labels is not None:
        io.save_labels(out / "labels.tsv", labels)
    io.write_json(out / "graph.json", {
        "n": a.n_rows, "nnz": a.nnz, "generator": cfg.gen, "seed": cfg.seed,
    })
    return 0


def cmd_partition(cfg: ExperimentConfig, k: int) -> int:
    out = _out_dir(cfg)
    a, _, _ = _load_graph(cfg)
    part = _build_partition(a, k, cfg)
    metrics = comm_metrics(a, part, cfg.f)
    io.save_partition(out / "partition.txt", part)
    io.write_json(out / "partition.json", {
        "k": k,
        "partitioner": cfg.partitioner,
        "seed": cfg.seed,
        "epsilon": cfg.epsilon,
        "lambda_max": cfg.lambda_max if cfg.lambda_max is not None else float(k),
        "boundaries": [[int(s), int(e)] for s, e in part.boundaries],
        "edgecut": edgecut(a, part),
        "metrics": metrics.to_dict(),
    })
    return 0


def cmd_spmm_bench(cfg: ExperimentConfig, alpha, beta, l_layers) -> int:
    cfg.validate_grid()
    out = _out_dir(cfg)
    a, _, _ = _load_graph(cfg)
    k = cfg.p // cfg.c
    part = _build_partition(a, k, cfg)
    h = graphgen.gaussian_features(a.n_rows, cfg.f, cfg.seed)
    run = run_spmm(a, h, cfg.p, cfg.c, cfg.variant, partition=part)
    metrics = comm_metrics(a, part, cfg.f)
    cp = costmodel.CostParams(alpha=alpha, beta=beta, p=cfg.p, c=cfg.c,
                              l_layers=l_layers, f=cfg.f, cut_p=metrics.cut_p)
    if cfg.variant.startswith("1d"):
        terms = costmodel.predict_1d_terms(cp)
    else:
        terms = costmodel.predict_15d_terms(cp)
    # oblivious variants legitimately ship whole block rows
    row_bound = (metrics.cut_p if cfg.variant.endswith("sparse")
                 else max(e - s for s, e in part.boundaries))
    report = costmodel.confront(terms, run.ledger, cp, phases=1, row_bound=row_bound)
    io.write_json(out / "ledger.json", run.ledger.to_dict())
    io.write_json(out / "metrics.json", metrics.to_dict())
    io.write_json(out / "confront.json", report)
    return 0


def cmd_train(cfg: ExperimentConfig, train_cfg: TrainConfig,
              features_path=None, labels_path=None) -> int:
    if train_cfg.variant != "serial":
        cfg.validate_grid()
    out = _out_dir(cfg)
    a, features, labels = _load_graph(cfg)
    if features_path:
        features = io.load_features_tsv(features_path)
    if labels_path:
        labels, mask = io.load_labels(labels_path)
    elif labels is not None:
        mask = np.ones(labels.shape[0], dtype=bool)
    else:
        raise CliError("labels are required: pass --labels or use --gen sbm")
    if features is None:
        features = graphgen.gaussian_features(a.n_rows, cfg.f, cfg.seed)
    if labels.shape[0] != a.n_rows:
        raise CliError(f"label count {labels.shape[0]} does not match n={a.n_rows}")
    if not mask.any():
        raise CliError("empty training mask: every label is -1")
    k = max(cfg.p // cfg.c, 1)
    part = _build_partition(a, k, cfg) if train_cfg.variant != "serial" else None
    result = train(a, features, labels, mask, train_cfg, p=cfg.p, c=cfg.c,
                   partition=part)
    with open(out / "history.csv", "w") as fh:
        fh.write("epoch,loss,train_acc," + ",".join(f"{p}_bytes" for p in PRIMITIVES) + "\n")
        for row in result.history:
            cells = [str(row["epoch"]), repr(row["loss"]), repr(row["train_acc"])]
            cells += [repr(float(row.get(f"{p}_bytes", 0.0))) for p in PRIMITIVES]
            fh.write(",".join(cells) + "\n")
    totals = result.ledger.totals() if result.ledger is not None else {}
    io.write_json(out / "summary.json", {
        "epochs": train_cfg.epochs,
        "variant": train_cfg.variant,
        "partitioner": cfg.partitioner,
        "p": cfg.p,
        "c": cfg.c,
        "seed": train_cfg.seed,
        "final_loss": result.history[-1]["loss"] if result.history else None,
        "final_accuracy": result.final_accuracy,
        "volume_by_primitive": {
            prim: vals.get("bytes_sent", 0.0) for prim, vals in totals.items()
        },
    })
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distgcn",
        description="Distributed GCN training simulator and partitioning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, experiment=True, grid=True):
        sp.add_argument("--graph", dest="graph_path", metavar="GRAPH",
                        help="path to a graph file")
        sp.add_argument("--format", dest="fmt", choices=["matrix-market", "edge-list-tsv"],
                        help="graph file format (default: by extension)")
        sp.add_argument("--gen", choices=["sbm", "grid", "star", "cliques",
                                          "star-augmented"],
                        help="generate a synthetic graph instead of reading one")
        sp.add_argument("--n", type=int, default=256, help="synthetic graph size")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--f", type=int, default=4, help="feature width")
        sp.add_argument("--out-dir", default=".")
        if not experiment:
            return
        sp.add_argument("--raw", action="store_true",
                        help="skip adjacency normalization after ingestion")
        sp.add_argument("--partitioner", choices=PARTITIONERS, default="block")
        sp.add_argument("--epsilon", type=float, default=0.10)
        sp.add_argument("--lambda-max", type=float, default=None)
        sp.add_argument("--max-passes", type=int, default=10)
        if grid:
            sp.add_argument("--p", type=int, default=4, help="process count")
            sp.add_argument("--c", type=int, default=1, help="replication factor")
            sp.add_argument("--variant", choices=list(VARIANTS) + ["serial"],
                            default="1d-sparse")

    g = sub.add_parser("gen-graph", help="write a synthetic graph to disk")
    add_common(g, experiment=False)

    pt = sub.add_parser("partition", help="partition a graph and report volumes")
    add_common(pt, grid=False)
    pt.add_argument("--k", type=int, required=True, help="number of parts")

    sb = sub.add_parser("spmm-bench", help="run one distributed multiply")
    add_common(sb)
    sb.add_argument("--alpha", type=float, default=1e-6)
    sb.add_argument("--beta", type=float, default=1e-9)
    sb.add_argument("--layers", type=int, default=1,
                    help="layer count used by the cost-model bound")

    tr = sub.add_parser("train", help="train a GCN over a simulated grid")
    add_common(tr)
    tr.add_argument("--features", help="path to a feature TSV")
    tr.add_argument("--labels", help="path to a label file (-1 = unlabeled)")
    tr.add_argument("--layers", type=int, default=3)
    tr.add_argument("--hidden", type=int, default=16)
    tr.add_argument("--lr", type=float, default=0.01)
    tr.add_argument("--epochs", type=int, default=100)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    # flags a subcommand does not register keep the dataclass defaults
    names = {f.name for f in fields(ExperimentConfig)}
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if k in names})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "gen-graph":
            return cmd_gen_graph(cfg)
        if args.command == "partition":
            return cmd_partition(cfg, args.k)
        if args.command == "spmm-bench":
            return cmd_spmm_bench(cfg, args.alpha, args.beta, args.layers)
        if args.command == "train":
            tc = TrainConfig(layers=args.layers, hidden=args.hidden, lr=args.lr,
                             epochs=args.epochs, seed=args.seed, variant=args.variant)
            return cmd_train(cfg, tc, args.features, args.labels)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        json.dump({"error": str(exc), **exc.details}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2
    except (ValueError, FloatingPointError, io.ParseError) as exc:
        json.dump({"error": str(exc)}, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
