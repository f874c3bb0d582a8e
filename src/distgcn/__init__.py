"""distgcn: a deterministic simulator and library for distributed
full-batch GCN training.

The package provides CSR kernels, k-way partitioners with send-volume
metrics, a bulk-synchronous message-passing simulator with exact byte
accounting, sparsity-oblivious and sparsity-aware distributed SpMM in 1D
and replicated (1.5D) layouts, full GCN training over any of them, and a
latency-bandwidth cost model checked against measured volumes.
"""

from .costmodel import CostParams, confront
from .gcn import SerialGcn, TrainConfig, init_weights, serial_train, softmax_xent, train
from .partition import (CommMetrics, Partition, apply_partition, block_partition,
                        comm_metrics, edgecut, greedy_tv_partition, imbalance_pct,
                        random_partition, volume_balanced_refine)
from .runtime import (Comm, CommLedger, DeadlockError, ProcessGrid, SimulationError,
                      run_program)
from .sparse import (CsrMatrix, csr_from_dense, csr_from_edges, gcn_normalize, gemm,
                     local_spmm, transpose_csr)
from .spmm import (VARIANTS, DistMatrices, build_dist_matrices, run_spmm,
                   serial_reference, spmm_kernel)

__version__ = "0.1.0"

__all__ = [
    "Comm", "CommLedger", "CommMetrics", "CostParams", "CsrMatrix",
    "DeadlockError", "DistMatrices", "Partition", "ProcessGrid",
    "SerialGcn", "SimulationError", "TrainConfig", "VARIANTS",
    "apply_partition", "block_partition", "build_dist_matrices", "comm_metrics",
    "confront", "csr_from_dense", "csr_from_edges", "edgecut", "gcn_normalize",
    "gemm", "greedy_tv_partition", "imbalance_pct", "init_weights", "local_spmm",
    "random_partition", "run_program",
    "run_spmm", "serial_reference", "serial_train", "softmax_xent", "spmm_kernel",
    "train", "transpose_csr", "volume_balanced_refine",
]
