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

Ray mapping: one execution over the edges. One map probes both
endpoints' colour against one broadcast of the vertex ``(id, color)``
table (:func:`fs_crawler_ray.relops.unique_lookup`, ``how="left"``: an
Arrow ``ray.put`` probed per batch with ``index_in`` + ``take``, a
bucketed hash join above ``relops.BROADCAST_LIMIT``). One shuffle by a
hash bucket of ``source`` then puts every edge of a source in one
bucket, and each bucket runs steps 1-3 in Arrow/numpy: candidates, the
classification kernel, the rel-id type override, a fetch of the
bucket's Resolve rel ids from the row-group range store (the
relationship table is never broadcast or loaded whole), keep-max-rel
dedup and the ``(source, destination)`` update override. The fusion is
exact because every step is local to one source: classification is
per (source, gender), a rel id belongs to one child, and updates are
keyed (child, parent) = (source, destination). A fetched rel whose
child is not a source of its bucket breaks that and raises
``ValueError``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from fs_crawler_ray.model import EDGE_SCHEMA, PRIMARY_EDGE_TYPES, RelationshipType
from fs_crawler_ray.relops import (_keep_first_arrow, _probe_key, project, shuffle_apply,
                                   unique_lookup)


ASSUMED = RelationshipType.ASSUMED_BIOLOGICAL.value
RESOLVE = RelationshipType.RESOLVE.value
UNTYPED = RelationshipType.UNTYPED_PARENT.value
UNSPECIFIED = RelationshipType.UNSPECIFIED_PARENT.value
#: the vertex columns the resolve reads: pass ``vertices`` as
#: ``CrawlResult.vertices(columns=VERTEX_LOOKUP_COLUMNS)`` to read no others
VERTEX_LOOKUP_COLUMNS = ["id", "color"]
#: the endpoint colours the probe appends to each edge (null: not a vertex)
_SRC_COLOR, _DST_COLOR = "__src_color", "__dest_color"


def _probe_colors(edges: ray.data.Dataset, vertices: ray.data.Dataset,
                  num_partitions: int) -> ray.data.Dataset:
    """Every edge with both endpoints' colour, null where the endpoint
    is not a vertex: one pass probing one broadcast of the vertex
    ``(id, color)`` table (vertex ids are unique)."""
    return unique_lookup(
        edges, project(vertices, VERTEX_LOOKUP_COLUMNS), ["id"],
        [(["source"], {"color": _SRC_COLOR}), (["destination"], {"color": _DST_COLOR})],
        how="left", num_partitions=num_partitions,
    )


def _candidates(t: pa.Table) -> pa.Table:
    """J2 on probed edges: untyped edges whose BOTH endpoints are
    vertices → (source, rel_id, dest_color)."""
    both = pc.and_(pc.is_valid(t[_SRC_COLOR]), pc.is_valid(t[_DST_COLOR]))
    c = t.filter(pc.and_(pc.equal(t["type"], UNTYPED), both))
    return pa.table({"source": c["source"], "rel_id": c["id"], "dest_color": c[_DST_COLOR]})


def _classify(t: pa.Table) -> pa.Table:
    """A1 over the candidates of whole sources → (rel_id, rtype), one
    row per rel id. Arrow/numpy across all sources of the table:
    distinct (source, rel_id, dest_color) rows, then per-(source,
    color) set sizes and per-source totals via bincount over dictionary
    codes — no pandas groupby, no per-source Python call."""
    t = _keep_first_arrow(t, ["source", "rel_id", "dest_color"],
                          ["source", "rel_id", "dest_color"]).combine_chunks()
    if len(t) == 0:
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


def candidate_relationships(
    edges: ray.data.Dataset, vertices: ray.data.Dataset, num_partitions: int = 16
) -> ray.data.Dataset:
    """J2 as a Dataset: untyped edges ⨝ vertices(source) ⨝
    vertices(destination→color) → (source, rel_id, dest_color)."""
    return _probe_colors(edges, vertices, num_partitions).map_batches(
        _candidates, batch_format="pyarrow")


def classify_resolution(candidates: ray.data.Dataset, num_buckets: int = 64) -> ray.data.Dataset:
    """A1 as a Dataset → (rel_id, rtype): the classification kernel per
    source-hash bucket."""
    return shuffle_apply(candidates, _classify, key_cols=["source"], num_buckets=num_buckets)


def _override(values: pa.ChunkedArray, keys: pa.Array, right_keys: pa.Array,
              right_values: pa.Array) -> pa.ChunkedArray:
    """``coalesce(right_values[key], values)`` per row; ``right_keys``
    is unique and a null key never matches."""
    idx = pc.index_in(keys, value_set=right_keys, skip_nulls=True)
    return pc.coalesce(right_values.cast(values.type).take(idx), values)


def _fetch_updates(rel_ids: pa.Array, relationships_path: str,
                   sources: pa.Array) -> pa.Table:
    """M5: Resolve rel ids → relationship store → one update
    (__us, __ud, new_type) per (child, parent), the max rel id winning.

    Only the row groups owning the ids are read (``open_range_store``).
    Per parent slot, rows with both endpoints present are kept
    (``fsapi.py:108-110`` warns and skips) and a missing fact type
    defaults to UnspecifiedParentType (``fsapi.py:87-97``); missing
    rels are skipped. Two Resolve rels can cover the same (child,
    parent); the reference applies them in rel-id order, so the LAST
    (max) rel id wins (``fsapi.py:224-235``). A rel whose child is not
    in ``sources`` raises ``ValueError``: its update would belong to
    another bucket."""
    from fs_crawler_ray.ids import as_key_array
    from fs_crawler_ray.sources.doc_table import open_range_store

    if len(rel_ids) == 0:  # the store is not opened unless a rel is fetched
        return pa.table({c: pa.array([], pa.string()) for c in ("__us", "__ud", "new_type")})
    rels, _found = open_range_store(relationships_path, "rel_id").fetch(as_key_array(rel_ids))
    child = rels["child"].cast(pa.string())
    stray = pc.and_(pc.is_valid(child), pc.invert(pc.is_in(child, value_set=sources)))
    if pc.any(stray).as_py():
        bad = rels.filter(stray)["rel_id"][0]
        raise ValueError(f"relationship {bad}: child {child.filter(stray)[0]} "
                         "is not a source of its edge bucket")
    parts = []
    for pk, tk in (("parent1", "parent1_type"), ("parent2", "parent2_type")):
        sub = rels.filter(pc.and_(pc.is_valid(rels["child"]), pc.is_valid(rels[pk])))
        parts.append(pa.table({
            "__us": sub["child"].cast(pa.string()),
            "__ud": sub[pk].cast(pa.string()),
            "new_type": pc.fill_null(sub[tk].cast(pa.string()), UNSPECIFIED),
            "__ur": sub["rel_id"].cast(pa.string()),
        }))
    return _keep_first_arrow(pa.concat_tables(parts), ["__us", "__ud"],
                             [("__ur", "descending")]).drop_columns(["__ur"])


def _resolve_bucket(t: pa.Table, relationships_path: str) -> pa.Table:
    """Steps 1-3 on every edge of a set of sources (probed edges in,
    edges with their final type out)."""
    cls = _classify(_candidates(t))
    edges = t.drop_columns([_SRC_COLOR, _DST_COLOR])
    types = _override(edges["type"], _probe_key(edges, ["id"]), cls["rel_id"], cls["rtype"])
    to_fetch = cls.filter(pc.equal(cls["rtype"], RESOLVE))["rel_id"]
    upd = _fetch_updates(to_fetch, relationships_path, pc.unique(edges["source"]))
    types = _override(types, _probe_key(edges, ["source", "destination"]),
                      _probe_key(upd, ["__us", "__ud"]), upd["new_type"])
    return edges.set_column(edges.column_names.index("type"), "type", types)


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
    """Full lazy-resolution pass → edges with final types, materialized
    by one execution over the edges (after the vertex broadcast's own):
    the colour probe, then ``num_partitions`` source-hash buckets that
    each run the whole resolution (module docstring). A shuffle of zero
    rows yields no schema, so an empty result carries the crawl's edge
    schema (``model.EDGE_SCHEMA``). ``num_buckets`` and
    ``fetch_concurrency`` are unused; they stay in the signature for
    existing callers."""
    probed = _probe_colors(edges, vertices, num_partitions)
    out = shuffle_apply(probed, lambda t: _resolve_bucket(t, relationships_path),
                        key_cols=["source"], num_buckets=num_partitions)
    if out.count() == 0:
        return ray.data.from_arrow(EDGE_SCHEMA.empty_table())
    return out
