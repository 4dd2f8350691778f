"""Object ids beyond int64 on either side of a tree-based join.

The batch traversal packs tree refs into int64 columns. A tree holding
a wider object id cannot be packed, so the join takes the per-node path
(the one ``REPRO_BATCH=0`` selects), says why on the result, and answers
exactly like the nested-loop oracle at exactly the per-node path's cost.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.join import spatial_join
from repro.join.batch import batch_traversal_available
from repro.kernels import batch_enabled, kernels_enabled
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=104, buffer_pages=64)
WIDE = 2**63


def _join(method: str, side: str, **kwargs):
    ws = Workspace(CFG)
    d_r = generate_clustered(ClusteredConfig(
        300, cover_quotient=2.0, objects_per_cluster=10,
        data_side_bound=0.04, seed=41,
        oid_start=WIDE if side == "r" else 0,
    ))
    d_s = generate_clustered(ClusteredConfig(
        200, cover_quotient=2.0, objects_per_cluster=10,
        data_side_bound=0.04, seed=42,
        oid_start=WIDE if side == "s" else 10**6,
    ))
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    result = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        **kwargs,
    )
    return result, ws.metrics.summary()


@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("method", ["BFJ", "STJ", "RTJ", "2STJ"])
def test_wide_oids_match_naive(method, side, monkeypatch):
    naive, _ = _join("NAIVE", side)
    result, summary = _join(method, side)
    assert naive.pairs
    assert result.pair_set() == naive.pair_set()
    assert len(result.pairs) == len(naive.pairs)

    # BFJ's query ids never enter a column; every other combination
    # puts a wide id into some tree's snapshot.
    batch_on = kernels_enabled() and batch_enabled() and batch_traversal_available()
    if batch_on and (method, side) != ("BFJ", "s"):
        assert "int64" in result.batch_refused
    else:
        assert result.batch_refused == ""

    monkeypatch.setenv("REPRO_BATCH", "0")
    per_node, per_node_summary = _join(method, side)
    assert result.pairs == per_node.pairs
    assert summary == per_node_summary
    assert per_node.batch_refused == ""


@pytest.mark.skipif(
    not (kernels_enabled() and batch_enabled() and batch_traversal_available()),
    reason="batch traversal off",
)
def test_partitioned_join_reports_refusal():
    """Each tile's join refuses the batch path on its own; the merged
    result carries the reason and the sequential run's pairs."""
    sequential, _ = _join("STJ", "r")
    result, _ = _join(
        "STJ", "r", workers=2, partitions=4, parallel_guard=False,
    )
    assert "int64" in result.batch_refused
    assert result.pair_set() == sequential.pair_set()
    assert len(result.pairs) == len(sequential.pairs)
