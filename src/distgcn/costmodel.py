"""Latency-bandwidth communication cost model and its confrontation with
measured volumes.

Predictions are per-process upper bounds for one full training epoch pair
of multiplies per layer: `confront` therefore treats them as bounds and
flags measurements that exceed them, never demanding equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .runtime import CommLedger, ProcessGrid

__all__ = ["CostParams", "confront", "predict_1d_terms", "predict_15d_terms"]


@dataclass
class CostParams:
    """alpha: seconds per message; beta: seconds per scalar unit (the
    feature width f multiplies in at evaluation); cut_p in rows."""

    alpha: float
    beta: float
    p: int
    c: int = 1
    l_layers: int = 1
    f: int = 1
    cut_p: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"cost model parameter {name} must be finite and "
                                 f"non-negative, got {value}")
        ProcessGrid(self.p, self.c)
        for name, low in (("f", 1), ("l_layers", 1), ("cut_p", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"cost model parameter {name} must be at least {low}, "
                                 f"got {value}")


def predict_1d_terms(cp: CostParams) -> dict:
    """Latency/bandwidth decomposition of the 1D aware-variant bound:
    2L * (alpha*(P-1) + (P-1)*cut_p*f*beta)."""
    if cp.c != 1:
        raise ValueError(f"the 1D model requires c == 1 (got c={cp.c})")
    latency = 2.0 * cp.l_layers * cp.alpha * (cp.p - 1)
    bandwidth = 2.0 * cp.l_layers * (cp.p - 1) * cp.cut_p * cp.f * cp.beta
    return {"latency": latency, "bandwidth": bandwidth, "total": latency + bandwidth}


def predict_15d_terms(cp: CostParams) -> dict:
    """Decomposition of the replicated-layout bound:
    2L * (alpha*(P/c^2)*log2(P/c^2) + (P/c^2)*cut_p*f*beta); the log term
    is zero when P/c^2 == 1."""
    s = ProcessGrid(cp.p, cp.c).stage_count()
    log_s = math.log2(s) if s > 1 else 0.0
    latency = 2.0 * cp.l_layers * cp.alpha * s * log_s
    bandwidth = 2.0 * cp.l_layers * s * cp.cut_p * cp.f * cp.beta
    return {"latency": latency, "bandwidth": bandwidth, "total": latency + bandwidth}


def confront(model_terms: dict, ledger: CommLedger, cp: CostParams, phases=1,
             row_bound=None) -> dict:
    """Compare a run's measured volumes against the analytic bounds.

    Checks, per multiply phase, that no rank pair moved more data rows in
    a single message than `row_bound` (cut_p by default, the aware-variant
    bound; oblivious runs should pass their full block-row height) and
    that no process exchanged more than 2*(P-1) point-to-point or
    personalized-exchange data messages. Any violation is reported as a
    flag; a clean run yields none.
    """
    if row_bound is None:
        row_bound = cp.cut_p
    max_pair_bytes = ledger.max_pair_data_bytes()
    max_pair_rows = max_pair_bytes / (8.0 * cp.f)
    # index messages are one-time setup traffic, amortized by design, so
    # only data messages count against the per-phase latency bound
    max_msgs = max((ledger.counters["p2p"]["data_msgs_sent"][r]
                    + ledger.counters["p2p"]["data_msgs_received"][r]
                    + ledger.counters["alltoallv"]["data_msgs_sent"][r]
                    + ledger.counters["alltoallv"]["data_msgs_received"][r])
                   for r in range(ledger.p))
    flags = []
    if max_pair_rows > row_bound:
        flags.append({
            "kind": "pair-rows-exceed-bound",
            "measured_rows": max_pair_rows,
            "bound_rows": row_bound,
        })
    msg_bound = 2 * (cp.p - 1) * phases
    if max_msgs > msg_bound:
        flags.append({
            "kind": "message-count-exceeds-bound",
            "measured_msgs": int(max_msgs),
            "bound_msgs": msg_bound,
        })
    return {
        "model": dict(model_terms),
        "measured": {
            "max_pair_data_rows": max_pair_rows,
            "max_pair_data_bytes": max_pair_bytes,
            "max_rank_msgs": int(max_msgs),
            "data_bytes_sent": ledger.total_bytes_sent("data"),
            "index_bytes_sent": ledger.total_bytes_sent("index"),
        },
        "phases": phases,
        "flags": flags,
    }
