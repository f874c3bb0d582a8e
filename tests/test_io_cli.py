import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distgcn
from distgcn import io
from distgcn.cli import main
from distgcn.partition import block_partition, random_partition
from distgcn.sparse import csr_equal, csr_from_dense

from oracles import random_csr_dense


# ---- matrix market ---------------------------------------------------------

def test_mm_symmetric_entry_mirrored(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "% a comment\n"
                    "2 2 1\n"
                    "2 1 1.0\n")
    a = io.load_matrix_market(path)
    assert a.shape == (2, 2)
    assert a.nnz == 2
    np.testing.assert_array_equal(a.to_dense(), [[0, 1], [1, 0]])


def test_mm_pattern_and_general(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                    "3 3 2\n"
                    "1 2\n"
                    "3 3\n")
    a = io.load_matrix_market(path)
    assert a.to_dense()[0, 1] == 1.0 and a.to_dense()[2, 2] == 1.0


def test_mm_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "g.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n"
                    "1 5 1.0\n")
    with pytest.raises(io.ParseError, match=r"g\.mtx:3"):
        io.load_matrix_market(path)
    path.write_text("not a header\n")
    with pytest.raises(io.ParseError, match="header"):
        io.load_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 3 0\n")
    with pytest.raises(io.ParseError, match="square"):
        io.load_matrix_market(path)


def test_mm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    a = csr_from_dense(random_csr_dense(rng, 15, density=0.2))
    path = tmp_path / "rt.mtx"
    io.save_matrix_market(path, a)
    assert csr_equal(io.load_matrix_market(path), a)


# ---- edge lists --------------------------------------------------------------

def test_tsv_infers_size(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n1\t2\n")
    a = io.load_edge_list_tsv(path)
    assert a.shape == (3, 3)
    assert a.nnz == 2


def test_tsv_weights_and_errors(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\t2.5\n")
    a = io.load_edge_list_tsv(path)
    assert a.to_dense()[0, 1] == 2.5
    path.write_text("0\t1\n0\n")
    with pytest.raises(io.ParseError, match=r"g\.tsv:2"):
        io.load_edge_list_tsv(path)


def test_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    a = csr_from_dense(random_csr_dense(rng, 12, density=0.25))
    path = tmp_path / "rt.tsv"
    io.save_edge_list_tsv(path, a)
    assert csr_equal(io.load_edge_list_tsv(path, n=12), a)


def test_features_and_labels_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(9, 4))
    io.save_features_tsv(tmp_path / "f.tsv", feats)
    np.testing.assert_array_equal(io.load_features_tsv(tmp_path / "f.tsv"), feats)
    labels = np.array([0, 1, -1, 2])
    io.save_labels(tmp_path / "l.tsv", labels)
    got, mask = io.load_labels(tmp_path / "l.tsv")
    np.testing.assert_array_equal(got, labels)
    np.testing.assert_array_equal(mask, [True, True, False, True])


def test_partition_round_trip(tmp_path):
    part = random_partition(30, 4, seed=3)
    io.save_partition(tmp_path / "p.txt", part)
    loaded = io.load_partition(tmp_path / "p.txt")
    np.testing.assert_array_equal(loaded.assignment, part.assignment)


# ---- CLI ---------------------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def read_all(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_cli_partition_block_diagonal_zero_volume(tmp_path):
    out = tmp_path / "out"
    rc = run_cli("partition", "--gen", "cliques", "--n", "32", "--k", "2",
                 "--partitioner", "greedy-tv", "--out-dir", str(out))
    assert rc == 0
    report = json.loads((out / "partition.json").read_text())
    assert report["metrics"]["total_rows"] == 0
    assert report["edgecut"] == 0


def test_cli_partition_k1_all_zero(tmp_path):
    out = tmp_path / "out"
    assert run_cli("partition", "--gen", "grid", "--n", "64", "--k", "1",
                   "--out-dir", str(out)) == 0
    report = json.loads((out / "partition.json").read_text())
    m = report["metrics"]
    assert m["total_rows"] == 0 and m["max_rows"] == 0 and m["cut_p"] == 0


def test_cli_gvb_beats_random_on_grid(tmp_path):
    res = {}
    for name in ("gvb", "random"):
        out = tmp_path / name
        assert run_cli("partition", "--gen", "grid", "--n", "256", "--k", "4",
                       "--partitioner", name, "--seed", "1", "--out-dir", str(out)) == 0
        res[name] = json.loads((out / "partition.json").read_text())["metrics"]
    assert res["gvb"]["max_rows"] < res["random"]["max_rows"]


def test_cli_spmm_bench_block_diagonal(tmp_path):
    out_s = tmp_path / "sparse"
    assert run_cli("spmm-bench", "--gen", "cliques", "--n", "32", "--p", "4",
                   "--variant", "1d-sparse", "--out-dir", str(out_s)) == 0
    ledger = json.loads((out_s / "ledger.json").read_text())
    data_bytes = sum(ledger["totals"][prim]["data_bytes_sent"]
                     for prim in ("p2p", "alltoallv", "broadcast", "allreduce"))
    assert data_bytes == 0.0
    out_o = tmp_path / "obl"
    assert run_cli("spmm-bench", "--gen", "cliques", "--n", "32", "--p", "4",
                   "--variant", "1d-oblivious", "--out-dir", str(out_o)) == 0
    ledger_o = json.loads((out_o / "ledger.json").read_text())
    assert ledger_o["totals"]["broadcast"]["data_bytes_sent"] > 0


def test_cli_spmm_bench_all_variants_dominance(tmp_path):
    totals = {}
    for variant, c in [("1d-oblivious", 1), ("1d-sparse", 1),
                       ("15d-oblivious", 2), ("15d-sparse", 2)]:
        out = tmp_path / variant
        assert run_cli("spmm-bench", "--gen", "sbm", "--n", "48", "--p", "4",
                       "--c", str(c), "--variant", variant, "--seed", "3",
                       "--out-dir", str(out)) == 0
        ledger = json.loads((out / "ledger.json").read_text())
        totals[variant] = sum(ledger["totals"][prim]["data_bytes_sent"]
                              for prim in ("p2p", "alltoallv", "broadcast", "allreduce"))
        confront = json.loads((out / "confront.json").read_text())
        assert confront["flags"] == []
    assert totals["1d-sparse"] <= totals["1d-oblivious"]
    assert totals["15d-sparse"] <= totals["15d-oblivious"]


def test_cli_rejects_bad_grid_with_named_constraint(tmp_path, capsys):
    rc = run_cli("spmm-bench", "--gen", "sbm", "--n", "32", "--p", "4", "--c", "2",
                 "--variant", "1d-sparse", "--out-dir", str(tmp_path))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "c == 1" in err["error"]
    rc = run_cli("spmm-bench", "--gen", "sbm", "--n", "32", "--p", "6", "--c", "2",
                 "--variant", "15d-sparse", "--out-dir", str(tmp_path))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "c*c" in err["error"]


@pytest.mark.parametrize("command", ["spmm-bench", "train"])
def test_cli_rejects_non_positive_grid(tmp_path, capsys, command):
    rc = run_cli(command, "--gen", "sbm", "--n", "32", "--p", "4", "--c", "0",
                 "--variant", "15d-sparse", "--out-dir", str(tmp_path))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "p and c must be at least 1" in err["error"]
    assert (err["p"], err["c"]) == (4, 0)


@pytest.mark.parametrize("flag", [["--raw"], ["--partitioner", "gvb"], ["--epsilon", "0.2"],
                                  ["--lambda-max", "2"], ["--max-passes", "3"]])
def test_cli_gen_graph_rejects_partition_flags(tmp_path, flag):
    # gen-graph writes the raw generated graph; partition flags have no effect there
    with pytest.raises(SystemExit) as exc:
        run_cli("gen-graph", "--gen", "grid", "--n", "16", *flag, "--out-dir", str(tmp_path))
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, name", [(["--epsilon", "nan"], "epsilon"),
                                        (["--epsilon", "-0.5"], "epsilon"),
                                        (["--lambda-max", "-1"], "lambda_max"),
                                        (["--max-passes", "-3"], "max_passes")])
def test_cli_partition_rejects_bad_partitioner_parameters(tmp_path, capsys, flag, name):
    out = tmp_path / "out"
    rc = run_cli("partition", "--gen", "grid", "--n", "256", "--k", "4",
                 "--partitioner", "gvb", *flag, "--out-dir", str(out))
    assert rc == 2
    assert name in json.loads(capsys.readouterr().err)["error"]
    assert not (out / "partition.txt").exists()


def test_cli_train_lr_zero_flat_loss(tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--gen", "sbm", "--n", "32", "--p", "2",
                   "--variant", "1d-sparse", "--lr", "0", "--epochs", "4",
                   "--hidden", "4", "--out-dir", str(out)) == 0
    lines = (out / "history.csv").read_text().strip().splitlines()
    losses = {line.split(",")[1] for line in lines[1:]}
    assert len(losses) == 1


def test_cli_train_writes_history_and_summary(tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--gen", "sbm", "--n", "40", "--p", "4",
                   "--variant", "1d-sparse", "--partitioner", "gvb",
                   "--epochs", "5", "--hidden", "8", "--out-dir", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epochs"] == 5
    assert 0.0 <= summary["final_accuracy"] <= 1.0
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == ("epoch,loss,train_acc,p2p_bytes,alltoallv_bytes,"
                      "broadcast_bytes,allreduce_bytes")


def test_cli_train_gvb_beats_random_volume(tmp_path):
    totals = {}
    accs = {}
    for name in ("gvb", "random"):
        out = tmp_path / name
        assert run_cli("train", "--gen", "sbm", "--n", "96", "--p", "4",
                       "--variant", "1d-sparse", "--partitioner", name,
                       "--epochs", "30", "--hidden", "8", "--seed", "2",
                       "--out-dir", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        totals[name] = sum(summary["volume_by_primitive"].values())
        accs[name] = summary["final_accuracy"]
    assert totals["gvb"] < totals["random"]
    assert accs["gvb"] >= 0.9


def test_cli_train_requires_labels(tmp_path, capsys):
    rc = run_cli("train", "--gen", "grid", "--n", "16", "--p", "1",
                 "--variant", "serial", "--epochs", "1", "--out-dir", str(tmp_path))
    assert rc == 2
    assert "labels" in json.loads(capsys.readouterr().err)["error"]


def test_cli_train_rejects_all_unlabeled(tmp_path, capsys):
    graph = tmp_path / "g.tsv"
    graph.write_text("0\t1\n1\t2\n2\t3\n")
    labels = tmp_path / "l.tsv"
    labels.write_text("-1\n-1\n-1\n-1\n")
    rc = run_cli("train", "--graph", str(graph), "--labels", str(labels),
                 "--p", "1", "--variant", "serial", "--epochs", "1",
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert "mask" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weight, feature, lr, message", [
    ("-3.0", "0.5", "0.01", "non-negative edge weights"),
    ("1.0", "nan", "0.01", "features must be finite"),
    ("1.0", "0.5", "1e300", "weights became non-finite"),
], ids=["negative-weight", "nan-feature", "divergent-lr"])
def test_cli_train_rejects_non_finite_runs(tmp_path, capsys, weight, feature, lr, message):
    graph = tmp_path / "g.tsv"
    graph.write_text(f"0\t1\t{weight}\n1\t2\n2\t3\n")
    labels = tmp_path / "l.tsv"
    labels.write_text("0\n1\n0\n1\n")
    feats = tmp_path / "f.tsv"
    feats.write_text(f"{feature}\t1.0\n0.2\t0.1\n0.3\t0.4\n1.0\t0.0\n")
    rc = run_cli("train", "--graph", str(graph), "--labels", str(labels),
                 "--features", str(feats), "--p", "2", "--lr", lr, "--epochs", "3",
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_cli_malformed_graph_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "3 3 1\nnot numbers here\n")
    rc = run_cli("partition", "--graph", str(bad), "--k", "2",
                 "--out-dir", str(tmp_path / "out"))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "bad.mtx:3" in err["error"]


def test_cli_gen_graph_writes_files(tmp_path):
    out = tmp_path / "out"
    assert run_cli("gen-graph", "--gen", "sbm", "--n", "24", "--f", "5",
                   "--out-dir", str(out)) == 0
    assert (out / "graph.tsv").exists()
    assert io.load_features_tsv(out / "features.tsv").shape == (24, 5)
    labels, mask = io.load_labels(out / "labels.tsv")
    assert labels.shape == (24,) and mask.all()


@pytest.mark.parametrize("argv", [
    ("partition", "--gen", "grid", "--n", "64", "--k", "4", "--partitioner", "gvb"),
    ("spmm-bench", "--gen", "sbm", "--n", "40", "--p", "4", "--variant", "1d-sparse"),
    ("train", "--gen", "sbm", "--n", "32", "--p", "2", "--variant", "1d-sparse",
     "--epochs", "3", "--hidden", "4"),
])
def test_cli_outputs_bit_identical_across_runs(tmp_path, argv):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run_cli(*argv, "--seed", "11", "--out-dir", str(out)) == 0
        outs.append(read_all(out))
    assert outs[0] == outs[1]


def test_cli_entrypoint_via_subprocess(tmp_path):
    # the child imports the same package as this process, installed or not
    src = str(Path(distgcn.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "distgcn.cli", "partition", "--gen", "grid",
         "--n", "16", "--k", "2", "--out-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "distgcn.cli", "spmm-bench", "--gen", "grid",
         "--n", "16", "--p", "4", "--c", "2", "--variant", "1d-sparse",
         "--out-dir", str(tmp_path / "o2")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "c == 1" in json.loads(proc.stderr)["error"]
