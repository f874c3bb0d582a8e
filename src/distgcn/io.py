"""File formats: Matrix Market coordinate files, TSV edge lists, feature
and label tables, partition files, and deterministic JSON/CSV writers.

All writers format floats with repr and emit keys in sorted order, so a
given object always serializes to the same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from .partition import Partition
from .sparse import CsrMatrix, csr_from_edges

__all__ = [
    "ParseError",
    "load_edge_list_tsv",
    "load_features_tsv",
    "load_labels",
    "load_matrix_market",
    "load_partition",
    "save_edge_list_tsv",
    "save_features_tsv",
    "save_labels",
    "save_matrix_market",
    "save_partition",
    "write_json",
]


class ParseError(ValueError):
    """Malformed input file; the message carries file and line."""

    def __init__(self, path, lineno, reason):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {reason}")


def load_matrix_market(path) -> CsrMatrix:
    """Coordinate-format Matrix Market reader (1-indexed entries).

    Supports real/integer/pattern fields and general/symmetric symmetry;
    symmetric files get their off-diagonal entries mirrored. Only square
    matrices are accepted. Both edge readers build through
    `csr_from_edges`: duplicate entries are summed and zero sums are not
    stored.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ParseError(path, 1, "missing %%MatrixMarket header")
    head = lines[0].split()
    if len(head) < 5 or head[1] != "matrix" or head[2] != "coordinate":
        raise ParseError(path, 1, f"unsupported header {lines[0].strip()!r}")
    field, symmetry = head[3], head[4]
    if field not in ("real", "integer", "pattern"):
        raise ParseError(path, 1, f"unsupported field type {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ParseError(path, 1, f"unsupported symmetry {symmetry!r}")

    # one pass over the lines that are neither blank nor comments (the
    # header is one too); the first is the size line
    body = ((lineno, line.strip()) for lineno, line in enumerate(lines, start=1))
    body = ((lineno, text) for lineno, text in body if text and not text.startswith("%"))
    lineno, text = next(body, (len(lines), None))
    if text is None:
        raise ParseError(path, lineno, "missing size line")
    parts = text.split()
    if len(parts) != 3:
        raise ParseError(path, lineno, f"size line needs 'rows cols nnz', got {text!r}")
    try:
        n_rows, n_cols, nnz = (int(x) for x in parts)
    except ValueError:
        raise ParseError(path, lineno, f"size line needs integers, got {text!r}") from None
    if n_rows != n_cols:
        raise ParseError(path, lineno, f"adjacency matrix must be square, got {n_rows}x{n_cols}")

    want = 2 if field == "pattern" else 3
    edges = []
    for lineno, text in body:
        parts = text.split()
        if len(parts) < want:
            raise ParseError(path, lineno, f"expected {want} columns, got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = 1.0 if field == "pattern" else float(parts[2])
        except ValueError:
            raise ParseError(path, lineno, f"malformed entry {text!r}") from None
        if not (1 <= u <= n_rows and 1 <= v <= n_cols):
            raise ParseError(path, lineno, f"entry ({u}, {v}) outside 1..{n_rows}")
        edges.append((u - 1, v - 1, w))
    if len(edges) != nnz:
        raise ParseError(path, len(lines), f"size line promised {nnz} entries, found {len(edges)}")
    return csr_from_edges(edges, n_rows, symmetrize=symmetry == "symmetric")


def save_matrix_market(path, a: CsrMatrix):
    """General real coordinate file, entries in storage order, 1-indexed."""
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{a.n_rows} {a.n_cols} {a.nnz}\n")
        rows = a.row_of_nnz()
        for r, c, v in zip(rows, a.col_idx, a.values):
            fh.write(f"{r + 1} {c + 1} {float(v)!r}\n")


def load_edge_list_tsv(path, n=None) -> CsrMatrix:
    """Tab-separated 0-indexed edge list: u, v and an optional weight
    (default 1.0) per line, and "#" comment lines. n is inferred as max
    id + 1 when omitted."""
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) not in (2, 3):
                raise ParseError(path, lineno, f"expected 'u<TAB>v[<TAB>w]', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError:
                raise ParseError(path, lineno, f"malformed edge {stripped!r}") from None
            if u < 0 or v < 0:
                raise ParseError(path, lineno, f"negative vertex id in {stripped!r}")
            if n is not None and max(u, v) >= n:
                bad = u if u >= n else v
                raise ParseError(path, lineno, f"vertex id {bad} outside 0..{n - 1} "
                                               f"of declared n={n}")
            edges.append((u, v, w))
    if n is None:
        n = max((max(u, v) for u, v, _ in edges), default=-1) + 1
    return csr_from_edges(edges, n)


def save_edge_list_tsv(path, a: CsrMatrix):
    with open(path, "w") as fh:
        rows = a.row_of_nnz()
        for r, c, v in zip(rows, a.col_idx, a.values):
            fh.write(f"{r}\t{c}\t{float(v)!r}\n")


def load_features_tsv(path) -> np.ndarray:
    """One vertex per line, tab-separated float features."""
    rows = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped:
                continue
            try:
                row = [float(x) for x in stripped.split("\t")]
            except ValueError:
                raise ParseError(path, lineno, f"malformed feature row {stripped!r}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ParseError(path, lineno,
                                 f"feature row has {len(row)} values, expected {width}")
            rows.append(row)
    return np.array(rows, dtype=np.float64)


def save_features_tsv(path, features):
    with open(path, "w") as fh:
        for row in np.asarray(features, dtype=np.float64):
            fh.write("\t".join(repr(float(x)) for x in row) + "\n")


def _read_ints(path, what):
    """One integer per non-blank line, as int64 arrays of (values, line
    numbers); a line that is not an integer is a "malformed {what}"."""
    values, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                values.append(int(stripped))
            except ValueError:
                raise ParseError(path, lineno, f"malformed {what} {stripped!r}") from None
            linenos.append(lineno)
    return np.array(values, dtype=np.int64), np.array(linenos, dtype=np.int64)


def load_labels(path):
    """One integer label per line; -1 marks an unlabeled vertex and values
    below -1 are rejected. Returns (labels, mask) with the mask false on
    unlabeled vertices."""
    labels, linenos = _read_ints(path, "label")
    below = np.flatnonzero(labels < -1)
    if below.size:
        i = below[0]
        raise ParseError(path, int(linenos[i]),
                         f"label {labels[i]} is below -1 (-1 marks an unlabeled vertex)")
    return labels, labels >= 0


def save_labels(path, labels):
    with open(path, "w") as fh:
        for x in np.asarray(labels, dtype=np.int64):
            fh.write(f"{int(x)}\n")


def save_partition(path, part: Partition):
    """Text layout: line i holds the part of vertex i (original ids)."""
    save_labels(path, part.assignment)


def load_partition(path, k=None) -> Partition:
    assignment, _ = _read_ints(path, "part id")
    if k is None:
        k = int(assignment.max()) + 1 if assignment.size else 1
    return Partition.from_assignment(assignment, k)


def write_json(path, obj):
    """Stable-key, repr-float JSON so identical objects give identical files."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
