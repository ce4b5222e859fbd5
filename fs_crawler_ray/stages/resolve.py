"""Lazy relationship resolution (SURVEY §2 J2 + A1 + M5 + J5 + M13).

The reference's post-crawl pass (``fsapi.py:224-235``):

1. candidates (J2): untyped edges whose BOTH endpoints are resolved
   vertices, with the destination's gender
   (``graph_db_impl.py:217-231`` double join, ORDER BY source);
2. classification (A1, ``graph.py:188-224``): per (source, gender) the
   set of DISTINCT rel ids; a rel is AssumedBiological iff its gender
   set has size 1 and the source's total (sum of per-gender distinct
   counts — a rel with two resolved parents counts once per gender) is
   < 3; otherwise Resolve. Updates apply per rel_id
   (``graph_db_impl.py:251-257``);
3. resolve fetch (M5): distinct Resolve rel ids → relationship store →
   per-(child,parent) fact types, default UnspecifiedParentType
   (``fsapi.py:87-123``); errors/missing rels tolerated;
4. rewrite split (M13, ``relationship_rewriter.py:8-12,44-58``):
   final types in {UntypedParent, UnspecifiedParentType,
   BiologicalParent} stay in the primary edges output, the rest move to
   aux edges.

Ray mapping: the pass reads the edges once and materializes them; the
candidates and both type overrides run over those blocks. Every vertex
or type lookup is :func:`fs_crawler_ray.relops.unique_lookup`: the
unique right side (vertex ``(id, color)``, the classification, the
deduped updates) is collected as Arrow, ``ray.put`` once and probed per
edge batch with ``index_in`` + ``take`` — both candidate endpoints in
one pass, no shuffle, no pandas — and only above
``relops.BROADCAST_LIMIT`` rows becomes a bucketed hash join. The
per-source classification shuffles by a HASH BUCKET of source (all rows
of a source land in one bucket; vectorized Arrow/numpy inside — no
per-group Python call), and the resolve fetch resolves in-task against
the row-group range store (partition-local — the relationship table is
never broadcast).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from fs_crawler_ray.model import PRIMARY_EDGE_TYPES, RelationshipType
from fs_crawler_ray.relops import _BUCKET_COL, _add_bucket, project, unique_lookup


ASSUMED = RelationshipType.ASSUMED_BIOLOGICAL.value
RESOLVE = RelationshipType.RESOLVE.value
UNTYPED = RelationshipType.UNTYPED_PARENT.value
UNSPECIFIED = RelationshipType.UNSPECIFIED_PARENT.value
#: the vertex columns the resolve reads: pass ``vertices`` as
#: ``CrawlResult.vertices(columns=VERTEX_LOOKUP_COLUMNS)`` to read no others
VERTEX_LOOKUP_COLUMNS = ["id", "color"]


def candidate_relationships(
    edges: ray.data.Dataset, vertices: ray.data.Dataset, num_partitions: int = 16
) -> ray.data.Dataset:
    """J2: untyped edges ⨝ vertices(source) ⨝ vertices(destination→color)
    → (source, rel_id, dest_color). One pass over the edges: both
    endpoints probe one broadcast of the vertex ``(id, color)`` table
    (:func:`unique_lookup`; vertex ids are unique)."""

    def untyped(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["type"], UNTYPED)).select(["source", "destination", "id"])

    unt = edges.map_batches(untyped, batch_format="pyarrow")
    j = unique_lookup(
        unt, project(vertices, VERTEX_LOOKUP_COLUMNS), ["id"],
        [(["source"], {}), (["destination"], {"color": "dest_color"})],
        num_partitions=num_partitions,
    )
    return j.map_batches(
        lambda t: pa.table({"source": t["source"], "rel_id": t["id"],
                            "dest_color": t["dest_color"]}),
        batch_format="pyarrow",
    )


def classify_resolution(candidates: ray.data.Dataset, num_buckets: int = 64) -> ray.data.Dataset:
    """A1 → Dataset[rel_id, rtype]. Vectorized within source-hash buckets."""

    def per_bucket(t: pa.Table) -> pa.Table:
        # Arrow/numpy across all sources in the bucket: distinct
        # (source, rel_id, dest_color) rows, then per-(source, color)
        # set sizes and per-source totals via bincount over dictionary
        # codes — no pandas groupby.transform (Python-object strings).
        from fs_crawler_ray.relops import _keep_first_arrow

        t = _keep_first_arrow(t, ["source", "rel_id", "dest_color"],
                              ["source", "rel_id", "dest_color"]).combine_chunks()
        n = len(t)
        if n == 0:
            return pa.table({"rel_id": pa.array([], pa.string()),
                             "rtype": pa.array([], pa.string())})
        src = pc.dictionary_encode(t["source"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False).astype(np.int64)
        color = t["dest_color"].to_numpy(zero_copy_only=False).astype(np.int64) + 1  # {-1,0,1}→{0,1,2}
        pair = src * 3 + color
        set_size = np.bincount(pair)[pair]
        total = np.bincount(src)[src]
        rtype = np.where((set_size == 1) & (total < 3), ASSUMED, RESOLVE)
        rel = pc.dictionary_encode(t["rel_id"].combine_chunks()).indices.to_numpy(
            zero_copy_only=False)
        first = np.sort(np.unique(rel, return_index=True)[1])
        return pa.table({"rel_id": t["rel_id"].take(pa.array(first)),
                         "rtype": pa.array(rtype[first].astype("U"))})

    return _add_bucket(candidates, ["source"], num_buckets).groupby(
        _BUCKET_COL, num_partitions=num_buckets
    ).map_groups(
        lambda g: per_bucket(g.drop_columns([_BUCKET_COL])), batch_format="pyarrow"
    )


def _left_join_type_override(
    edges: ray.data.Dataset,
    right: ray.data.Dataset,
    on: tuple[str, ...],
    right_on: tuple[str, ...],
    value_col: str,
    num_partitions: int,
) -> ray.data.Dataset:
    """edges ⟕ right; type := coalesce(right.value_col, type). Both call
    sites guarantee UNIQUE right keys (classification is one row per rel
    id; updates are deduped keep-max-rel on the endpoint pair first), so
    this is a :func:`unique_lookup`: a broadcast Arrow probe below
    ``relops.BROADCAST_LIMIT``, a bucketed hash join above it."""
    right = right.materialize()  # sized AND reused — never execute twice
    if right.count() == 0:
        return edges  # nothing overrides; an empty side may carry no dtypes
    j = unique_lookup(edges, right, list(right_on), [(list(on), {value_col: value_col})],
                      how="left", num_partitions=num_partitions)

    def coalesce(t: pa.Table) -> pa.Table:
        new_type = pc.coalesce(t[value_col], t["type"])
        t = t.drop_columns([value_col])
        return t.set_column(t.column_names.index("type"), "type", new_type)

    return j.map_batches(coalesce, batch_format="pyarrow")


def apply_classification(
    edges: ray.data.Dataset, classification: ray.data.Dataset, num_partitions: int = 16
) -> ray.data.Dataset:
    """Left join edges ⟕ classification on rel id; coalesce type."""
    return _left_join_type_override(
        edges, classification, ("id",), ("rel_id",), "rtype", num_partitions
    )


def fetch_resolve_updates(
    classification: ray.data.Dataset,
    relationships_path: str,
    fetch_concurrency: int = 2,
) -> ray.data.Dataset:
    """Distinct Resolve rel ids → relationship store → update rows
    (source, destination, new_type).

    The rel-id set is sorted before the fetch so each lookup task hits a
    contiguous range of the (rel_id-sorted) relationship store — the
    same partition-local shape as the corpus fetch; the store is NEVER
    broadcast or loaded whole (``open_range_store`` reads only the row
    groups owning each batch's ids). ``fetch_concurrency`` does nothing:
    the lookup tasks are plain ``map_batches`` tasks that Ray schedules
    by free CPUs; it stays in the signature for existing callers."""

    def _resolve_ids(t: pa.Table) -> pa.Table:
        # filter+project in one Arrow batch fn (select/rename Project
        # ops break on the pandas blocks classification arrives in)
        return pa.table({"id": t.filter(pc.equal(t["rtype"], RESOLVE))["rel_id"]})

    to_resolve = classification.map_batches(_resolve_ids, batch_format="pyarrow").sort("id")

    def rel_fetch_fn(batch: pa.Table) -> pa.Table:
        from fs_crawler_ray.ids import as_key_array
        from fs_crawler_ray.sources.doc_table import open_range_store

        store = open_range_store(relationships_path, "rel_id")
        tbl, _found = store.fetch(as_key_array(batch["id"]))
        return tbl

    rel_docs = to_resolve.map_batches(rel_fetch_fn, batch_format="pyarrow", batch_size=4096)

    def expand(t: pa.Table) -> pa.Table:
        # vectorized: per parent slot, keep rows with both endpoints
        # present (fsapi.py:108-110 warns and skips) and default the
        # missing fact type (fsapi.py:87-97) — no per-row Python
        parts = []
        for pk, tk in (("parent1", "parent1_type"), ("parent2", "parent2_type")):
            mask = pc.and_(pc.is_valid(t["child"]), pc.is_valid(t[pk]))
            sub = t.filter(mask)
            parts.append(
                pa.table(
                    {
                        "__us": sub["child"].cast(pa.string()),
                        "__ud": sub[pk].cast(pa.string()),
                        "new_type": pc.fill_null(sub[tk].cast(pa.string()), UNSPECIFIED),
                        "__ur": sub["rel_id"].cast(pa.string()),
                    }
                )
            )
        return pa.concat_tables(parts)

    updates = rel_docs.map_batches(expand, batch_format="pyarrow")

    # Two Resolve rels can cover the same (child, parent); the reference
    # applies updates sequentially over rel ids in iteration order, so
    # the LAST (max) rel_id wins (fsapi.py:224-235 loop order). Dedup
    # here so the left join below cannot multiply edge rows.
    def keep_max_rel(t: pa.Table) -> pa.Table:
        from fs_crawler_ray.relops import _keep_first_arrow

        return _keep_first_arrow(t, ["__us", "__ud"], [("__ur", "descending")])

    from fs_crawler_ray.relops import _BUCKET_COL as _B, _add_bucket as _ab

    return _ab(updates, ["__us", "__ud"], 32).groupby(_B, num_partitions=32).map_groups(
        lambda g: keep_max_rel(g.drop_columns([_B])), batch_format="pyarrow"
    ).drop_columns(["__ur"])


def apply_updates(
    edges: ray.data.Dataset, updates: ray.data.Dataset, num_partitions: int = 16
) -> ray.data.Dataset:
    """Left join on (source, destination); coalesce type
    (``update_relationship`` keyed by endpoints, ``fsapi.py:104-110``)."""
    return _left_join_type_override(
        edges, updates, ("source", "destination"), ("__us", "__ud"), "new_type", num_partitions
    )


def split_primary_aux(edges: ray.data.Dataset) -> tuple[ray.data.Dataset, ray.data.Dataset]:
    """M13: primary vs aux edge outputs (relationship_rewriter.py:8-12)."""
    keep = list(PRIMARY_EDGE_TYPES)
    primary = edges.map_batches(
        lambda t: t.filter(pc.is_in(t["type"], value_set=pa.array(keep))), batch_format="pyarrow"
    )
    aux = edges.map_batches(
        lambda t: t.filter(pc.invert(pc.is_in(t["type"], value_set=pa.array(keep)))),
        batch_format="pyarrow",
    )
    return primary, aux


def resolve_relationships(
    edges: ray.data.Dataset,
    vertices: ray.data.Dataset,
    relationships_path: str,
    num_partitions: int = 16,
    num_buckets: int = 64,
    fetch_concurrency: int = 2,
) -> ray.data.Dataset:
    """Full lazy-resolution pass → edges with final types. The edges are
    read once: the candidates and the two type overrides all run over
    the same materialized edge blocks. ``fetch_concurrency`` does
    nothing (see :func:`fetch_resolve_updates`)."""
    edges = edges.materialize()
    cands = candidate_relationships(edges, vertices, num_partitions)
    classification = classify_resolution(cands, num_buckets).materialize()
    typed = apply_classification(edges, classification, num_partitions)
    updates = fetch_resolve_updates(classification, relationships_path, fetch_concurrency)
    return apply_updates(typed, updates, num_partitions)
