"""Command-line front end.

Subcommands: gen-graph (synthetic instances), partition, spmm-bench and
train. Every command is deterministic given its flags and seed and writes
byte-identical outputs on repeated runs. Errors are reported as one JSON
object on stderr with a nonzero exit code. The argparse parser is the only
record of the flags and their defaults: each subcommand's handler reads
the parsed namespace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import costmodel, graphgen, io
from .gcn import TrainConfig, train
from .partition import (_check_refine_params, block_partition, comm_metrics, edgecut,
                        greedy_tv_partition, random_partition, volume_balanced_refine)
from .runtime import PRIMITIVES
from .sparse import CsrMatrix, gcn_normalize
from .spmm import VARIANTS, run_spmm, validate_variant_grid

PARTITIONERS = ("block", "random", "greedy-tv", "gvb")


def _int_at_least(low):
    """argparse type: an integer of at least `low`. A non-integer gets
    argparse's own "invalid int value" message."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


class CliError(Exception):
    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


def _check_grid(args):
    try:
        validate_variant_grid(args.variant, args.p, args.c)
    except ValueError as exc:
        raise CliError(str(exc), variant=args.variant, p=args.p, c=args.c) from exc


def _read_graph(args):
    """Graph plus optional features/labels, from file or generator, as
    read: not normalized."""
    features = labels = None
    if args.gen == "sbm":
        a, features, labels = graphgen.sbm(args.n, seed=args.seed, feature_dim=args.f)
    elif args.gen == "grid":
        side = int(round(np.sqrt(args.n)))
        a = graphgen.grid2d(side, side)
    elif args.gen == "star":
        a = graphgen.star(args.n - 1)
    elif args.gen == "cliques":
        size = max(2, args.n // 8)
        a = graphgen.clique_blocks(args.n // size, size)
    elif args.gen == "star-augmented":
        a = graphgen.star_augmented(args.n, seed=args.seed)
    elif not args.graph_path:
        raise CliError("either --graph or --gen is required")
    else:
        fmt = args.fmt
        if fmt is None:
            suffix = Path(args.graph_path).suffix.lower()
            fmt = "matrix-market" if suffix in (".mtx", ".mm") else "edge-list-tsv"
        load = io.load_matrix_market if fmt == "matrix-market" else io.load_edge_list_tsv
        try:
            a = load(args.graph_path)
        except FileNotFoundError as exc:
            raise CliError(f"cannot read graph file: {exc}") from exc
        except io.ParseError as exc:
            raise CliError(str(exc), path=exc.path, line=exc.lineno) from exc
    return a, features, labels


def _load_graph(args):
    """_read_graph, with the adjacency normalized unless --raw is set."""
    a, features, labels = _read_graph(args)
    if not args.raw:
        a = gcn_normalize(a)
    return a, features, labels


def _build_partition(a: CsrMatrix, k, args):
    # every partitioner's parameters reach partition.json, used or not
    _check_refine_params(args.epsilon, args.max_passes, args.lambda_max)
    if args.partitioner == "block":
        return block_partition(a.n_rows, k)
    if args.partitioner == "random":
        return random_partition(a.n_rows, k, args.seed)
    part = greedy_tv_partition(a, k, args.epsilon, args.max_passes)
    if args.partitioner == "gvb":
        part = volume_balanced_refine(a, part, args.lambda_max, args.epsilon, args.max_passes)
    return part


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_graph(args) -> int:
    # generation always writes the raw graph; normalization happens on load
    out = _out_dir(args)
    a, features, labels = _read_graph(args)
    if args.fmt == "matrix-market":
        io.save_matrix_market(out / "graph.mtx", a)
    else:
        io.save_edge_list_tsv(out / "graph.tsv", a)
    if features is not None:
        io.save_features_tsv(out / "features.tsv", features)
    if labels is not None:
        io.save_labels(out / "labels.tsv", labels)
    io.write_json(out / "graph.json", {
        "n": a.n_rows, "nnz": a.nnz, "generator": args.gen, "seed": args.seed,
    })
    return 0


def cmd_partition(args) -> int:
    out = _out_dir(args)
    a, _, _ = _load_graph(args)
    part = _build_partition(a, args.k, args)
    metrics = comm_metrics(a, part, args.f)
    io.save_partition(out / "partition.txt", part)
    io.write_json(out / "partition.json", {
        "k": args.k,
        "partitioner": args.partitioner,
        "seed": args.seed,
        "epsilon": args.epsilon,
        "lambda_max": args.lambda_max if args.lambda_max is not None else float(args.k),
        "boundaries": [[int(s), int(e)] for s, e in part.boundaries],
        "edgecut": edgecut(a, part),
        "metrics": metrics.to_dict(),
    })
    return 0


def cmd_spmm_bench(args) -> int:
    _check_grid(args)
    out = _out_dir(args)
    a, _, _ = _load_graph(args)
    part = _build_partition(a, args.p // args.c, args)
    # the model's parameters need no run, so a bad one fails before it
    metrics = comm_metrics(a, part, args.f)
    cp = costmodel.CostParams(alpha=args.alpha, beta=args.beta, p=args.p, c=args.c,
                              l_layers=args.layers, f=args.f, cut_p=metrics.cut_p)
    h = graphgen.gaussian_features(a.n_rows, args.f, args.seed)
    run = run_spmm(a, h, args.p, args.c, args.variant, partition=part)
    if args.variant.startswith("1d"):
        terms = costmodel.predict_1d_terms(cp)
    else:
        terms = costmodel.predict_15d_terms(cp)
    # oblivious variants legitimately ship whole block rows
    row_bound = (metrics.cut_p if args.variant.endswith("sparse")
                 else max(e - s for s, e in part.boundaries))
    report = costmodel.confront(terms, run.ledger, cp, phases=1, row_bound=row_bound)
    io.write_json(out / "ledger.json", run.ledger.to_dict())
    io.write_json(out / "metrics.json", metrics.to_dict())
    io.write_json(out / "confront.json", report)
    return 0


def cmd_train(args) -> int:
    train_cfg = TrainConfig(layers=args.layers, hidden=args.hidden, lr=args.lr,
                            epochs=args.epochs, seed=args.seed, variant=args.variant)
    serial = args.variant == "serial"
    if not serial:
        _check_grid(args)
    out = _out_dir(args)
    a, features, labels = _load_graph(args)
    if args.features:
        features = io.load_features_tsv(args.features)
    if args.labels:
        labels, mask = io.load_labels(args.labels)
    elif labels is not None:
        mask = np.ones(labels.shape[0], dtype=bool)
    else:
        raise CliError("labels are required: pass --labels or use --gen sbm")
    if features is None:
        features = graphgen.gaussian_features(a.n_rows, args.f, args.seed)
    if labels.shape[0] != a.n_rows:
        raise CliError(f"label count {labels.shape[0]} does not match n={a.n_rows}")
    if not mask.any():
        raise CliError("empty training mask: every label is -1")
    part = None if serial else _build_partition(a, args.p // args.c, args)
    result = train(a, features, labels, mask, train_cfg, p=args.p, c=args.c,
                   partition=part)
    with open(out / "history.csv", "w") as fh:
        fh.write("epoch,loss,train_acc," + ",".join(f"{p}_bytes" for p in PRIMITIVES) + "\n")
        for row in result.history:
            cells = [str(row["epoch"]), repr(row["loss"]), repr(row["train_acc"])]
            cells += [repr(float(row.get(f"{p}_bytes", 0.0))) for p in PRIMITIVES]
            fh.write(",".join(cells) + "\n")
    totals = result.ledger.totals() if result.ledger is not None else {}
    io.write_json(out / "summary.json", {
        "epochs": args.epochs,
        "variant": args.variant,
        "partitioner": args.partitioner,
        "p": args.p,
        "c": args.c,
        "seed": args.seed,
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
        sp.add_argument("--n", type=_int_at_least(1), default=256,
                        help="synthetic graph size")
        sp.add_argument("--seed", type=_int_at_least(0), default=0)
        sp.add_argument("--f", type=_int_at_least(0), default=4, help="feature width")
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
    g.set_defaults(run=cmd_gen_graph)

    pt = sub.add_parser("partition", help="partition a graph and report volumes")
    add_common(pt, grid=False)
    pt.add_argument("--k", type=int, required=True, help="number of parts")
    pt.set_defaults(run=cmd_partition)

    sb = sub.add_parser("spmm-bench", help="run one distributed multiply")
    add_common(sb)
    sb.add_argument("--alpha", type=float, default=1e-6)
    sb.add_argument("--beta", type=float, default=1e-9)
    sb.add_argument("--layers", type=int, default=1,
                    help="layer count used by the cost-model bound")
    sb.set_defaults(run=cmd_spmm_bench)

    tr = sub.add_parser("train", help="train a GCN over a simulated grid")
    add_common(tr)
    tr.add_argument("--features", help="path to a feature TSV")
    tr.add_argument("--labels", help="path to a label file (-1 = unlabeled)")
    tr.add_argument("--layers", type=int, default=3)
    tr.add_argument("--hidden", type=int, default=16)
    tr.add_argument("--lr", type=float, default=0.01)
    tr.add_argument("--epochs", type=int, default=100)
    tr.set_defaults(run=cmd_train)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (CliError, ValueError, FloatingPointError) as exc:
        json.dump({"error": str(exc), **getattr(exc, "details", {})}, sys.stderr,
                  sort_keys=True)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
