"""Distributed connected components and the near-duplicate clustering
pipeline built on it (beyond-the-reference training-data suite: fuzzy
dedup needs CLUSTERS, not just pairs — pick one canonical document per
group of mutual near-duplicates and drop the rest).

``connected_components`` is hash-min label propagation expressed in
Ray Data primitives:

- the pair list is symmetrized and materialized ONCE (it is re-read
  every iteration, never recomputed);
- labels start as ``label(v) = v`` and per iteration every vertex takes
  ``min(own label, neighbours' labels)`` — one size-aware
  :func:`relops.join` (broadcast while the label table is small, hash shuffle beyond
  ``relops.BROADCAST_LIMIT``) + one ``groupby().min()``;
- convergence is detected by the LABEL-SUM invariant: min-propagation
  only ever decreases labels, so an unchanged ``sum(label)`` IS the
  fixpoint — one scalar aggregate per iteration instead of a
  change-count join.

Iterations = O(component diameter). Near-dup clusters are dense and
shallow (dups of a common source are mutual pairs), so 2-3 iterations
in practice; the partitioning assumption is only that the LABEL table's
hash partitions fit in worker heaps — labels are O(vertices-in-pairs),
a tiny fraction of the corpus.

No reference analog (rappdw/fs-crawler has no dedup surface at all);
this is part of the LLM-training-data operator suite alongside
:mod:`fs_crawler_ray.text` and is strictly oracled against a DuckDB
recursive-CTE reachability query in ``__ray_entry__``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from fs_crawler_ray.relops import bucketed_agg, distinct, join


def connected_components(
    pairs: ray.data.Dataset,
    src: str = "doc_a",
    dst: str = "doc_b",
    num_partitions: int = 16,
    max_iters: int = 64,
) -> ray.data.Dataset:
    """``(v, component)`` for every vertex appearing in ``pairs``, where
    ``component`` is the smallest vertex id reachable through the pair
    graph (the canonical representative). Raises if ``max_iters``
    iterations do not reach the fixpoint (component diameter bound)."""

    def sym(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"s": np.concatenate([a, b]), "d": np.concatenate([b, a])})

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    verts = distinct(
        edges.map_batches(lambda t: pa.table({"v": t["s"]}), batch_format="pyarrow"),
        ["v"], num_buckets=num_partitions,
    )
    labels = verts.map_batches(
        lambda t: pa.table({"v": t["v"], "component": t["v"]}), batch_format="pyarrow"
    ).materialize()

    def _label_sum(ds: ray.data.Dataset):
        """Overflow-safe label checksum: int64-sum the HIGH and LOW 32
        bits separately (each bounded by V·2^32 ≪ 2^63 — a single
        int64 sum overflows once labels are hash-scale, e.g. the md5
        label space `graph.family_components` feeds in). Labels only
        ever DECREASE under min-propagation, so: hi-sum unchanged ⇒
        every label's high half unchanged ⇒ any change is a strict
        low-half decrease ⇒ lo-sum strictly decreases. Both halves
        unchanged IS the fixpoint."""
        parts = ds.map_batches(
            lambda t: pa.table({
                "hi": [int((np.asarray(t["component"].to_numpy(zero_copy_only=False),
                                       dtype=np.int64) >> 32).sum())],
                "lo": [int((np.asarray(t["component"].to_numpy(zero_copy_only=False),
                                       dtype=np.int64) & 0xFFFFFFFF).sum())],
            }),
            batch_format="pyarrow",
        ).to_pandas()
        if len(parts) == 0:
            return None
        return (int(parts["hi"].sum()), int(parts["lo"].sum()))

    prev_sum = _label_sum(labels)
    if prev_sum is None:  # empty pair list -> empty components table
        return labels

    for _ in range(max_iters):
        msgs = join(edges, labels, "s", "v")
        msgs = msgs.map_batches(
            lambda t: pa.table({"v": t["d"], "component": t["component"]}),
            batch_format="pyarrow",
        )
        merged = bucketed_agg(
            msgs.union(labels), ["v"],
            [("component", "min", "min(component)")],
            num_buckets=num_partitions,
        )
        labels = merged.map_batches(
            lambda t: pa.table({"v": t["v"], "component": t["min(component)"]}),
            batch_format="pyarrow",
        ).materialize()
        cur_sum = _label_sum(labels)
        if cur_sum == prev_sum:
            return labels
        prev_sum = cur_sum
    raise RuntimeError(
        f"connected_components did not converge in {max_iters} iterations "
        "(component diameter exceeds the bound)"
    )


def near_dup_clusters(
    docs: ray.data.Dataset,
    threshold: float = 0.8,
    shingle_k: int = 3,
    num_perm: int = 64,
    bands: int = 16,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Full fuzzy-dedup clustering: MinHash LSH candidates → true-Jaccard
    verify → connected components. Returns ``(doc_id, cluster_id)`` for
    every document that belongs to a near-dup cluster (singletons are
    absent — a doc with no near-dup has no row)."""
    from fs_crawler_ray.text import minhash_lsh_candidates, ngram_jaccard_verify

    cand = minhash_lsh_candidates(docs, num_perm=num_perm, bands=bands)
    pairs = ngram_jaccard_verify(cand, docs, threshold=threshold, shingle_k=shingle_k)
    cc = connected_components(pairs, num_partitions=num_partitions)
    return cc.map_batches(
        lambda t: pa.table({"doc_id": t["v"], "cluster_id": t["component"]}),
        batch_format="pyarrow",
    )


def near_dup_survivors(
    docs: ray.data.Dataset,
    clusters: ray.data.Dataset,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """The deduplicated corpus id set: every document except non-canonical
    cluster members (the cluster representative — the min id — survives).
    One anti-join of the corpus against the loser set; the loser set is
    tiny relative to the corpus, so it broadcasts."""
    losers = clusters.map_batches(
        lambda t: pa.table(
            {"doc_id": t["doc_id"].filter(
                pa.compute.not_equal(t["doc_id"], t["cluster_id"]))}
        ),
        batch_format="pyarrow",
    )
    return join(docs.select_columns([id_col]), losers, id_col, "doc_id", how="anti")
