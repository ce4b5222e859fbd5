"""Graph export: hop filtering, canonical numbering, CSR adjacency build
(SURVEY §2 S9, J3, M11, M12, O2–O4, ST4).

Re-creates ``fscrawler/util/db_reader.py`` semantics Ray-Data-first:

- hop filter (M11, ``db_reader.py:70-155``): ``iteration < hops`` on
  vertices; edges keep only rows whose BOTH endpoints survive;
- edge-type filter (M12, ``db_reader.py:15,25,41``): only
  {AssumedBiological, UnspecifiedParentType, BiologicalParent};
- numbering (J3, ``db_reader.py:8-50``): string ids → dense 1-based
  positions. The reference uses SQLite ROWID (insertion order) composed
  with an optional ORDERING permutation; here the canonical insertion
  order is ``(iteration, id)`` (the crawl's deterministic visit order)
  and a custom ordering can be supplied. Implemented as a distributed
  zip-with-index: global sort → per-block offsets → index column
  (raw block refs — the one place the Dataset API can't express the
  semantics);
- CSR triple assembly (O4/ST4, ``db_reader.py:341-380`` merge-interleave
  + the golden builder ``tests/util/test_db_reader.py:6-53``): the
  streaming vertex/edge interleave is equivalent to emitting
  ``(row=pos-1, col=pos-1, val=color)`` diagonal entries and
  ``(row=src-1, col=dst-1, val= 3 if dest_color==1 else 2)`` edge
  entries, globally ordered by ``(row, diag-first, col)`` — which is how
  we build it: a union + one distributed sort, sharded for scale. Both
  endpoints of each edge find their position (and the destination its
  color) in one pass over the edges, probing one broadcast of the
  numbering table (:func:`fs_crawler_ray.relops.unique_lookup`; a
  bucketed hash join above ``relops.BROADCAST_LIMIT`` vertices).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from fs_crawler_ray.model import ADJACENCY_EDGE_TYPES
from fs_crawler_ray.relops import (
    blocks_with_rows, from_block_refs, project, sort_by_range, unique_lookup)
from fs_crawler_ray.sources import storage as st


@ray.remote
def _add_index(t: pa.Table, offset: int, col: str, keep: list[str] | None) -> pa.Table:
    if keep is not None:
        t = t.select(keep)
    return t.append_column(col, pa.array(np.arange(offset, offset + len(t), dtype=np.int64)))


def zip_with_index(
    ds: ray.data.Dataset, sort_keys: list[str], index_col: str = "position", start: int = 1,
    keep: list[str] | None = None,
) -> ray.data.Dataset:
    """Global sort + dense sequential index. Distributed: per-block row
    counts (from the materialized sort's block metadata) → cumulative
    offsets → per-block index columns. ``keep`` narrows the output to
    those columns (plus the index) in the same per-block task, so a
    projection costs no extra execution. The numbered blocks' metadata
    comes from the sort's (row counts, schema plus the index column), so
    building the result launches no task beyond the ``_add_index`` ones."""
    ordered = ds.sort(sort_keys).materialize()
    blocks = blocks_with_rows(ordered)
    if not blocks:
        # the sort of an all-empty input leaves schema-less blocks; keep
        # the input's columns so lookups against the index find them
        empty = ds.schema().base_schema.empty_table()
        return ray.data.from_arrow(
            empty.select(keep or empty.column_names).append_column(
                index_col, pa.array([], pa.int64())))
    in_schema = ordered.schema().base_schema
    schema = (in_schema if keep is None else pa.schema([in_schema.field(c) for c in keep])
              ).append(pa.field(index_col, pa.int64()))
    counts = [m.num_rows for _, m in blocks]
    offsets = start + np.concatenate([[0], np.cumsum(counts)[:-1]])
    refs = [_add_index.remote(r, int(off), index_col, keep)
            for (r, _), off in zip(blocks, offsets)]
    # size_bytes: an upper bound when ``keep`` drops columns
    return from_block_refs(refs, blocks, schema, in_schema)


def hop_filter_vertices(vertices: ray.data.Dataset, hops: int | None) -> ray.data.Dataset:
    if hops is None:
        return vertices
    return vertices.map_batches(
        lambda t: t.filter(pc.less(t["iteration"], hops)), batch_format="pyarrow"
    )


def position_columns(hops: int | None = None,
                     order_cols: list[str] | None = None) -> list[str]:
    """The vertex columns :func:`compute_positions` reads. A caller that
    holds a ``CrawlResult`` passes ``vertices(columns=position_columns(
    hops, order_cols))`` so the read carries no other column."""
    return list(dict.fromkeys(["id", "color"] + (order_cols or ["iteration", "id"])
                              + (["iteration"] if hops is not None else [])))


def compute_positions(
    vertices: ray.data.Dataset,
    hops: int | None = None,
    order_cols: list[str] | None = None,
    ordering: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Vertex numbering table (id, color, position). Default order is the
    canonical insertion order (iteration, id); pass ``order_cols=["id"]``
    to number purely by id (the golden fixture's layout), or
    ``ordering`` — an externally computed permutation Dataset
    ``(external_id, position)`` (the persisted ORDERING table, reference
    ``db_reader.py:29-45,308-316``) — to compose a builder-supplied
    canonical order into the read."""
    v = hop_filter_vertices(project(vertices, position_columns(hops, order_cols)), hops)
    if ordering is not None:
        j = unique_lookup(v, ordering, ["external_id"], [(["id"], {"position": "position"})])
        return j.map_batches(
            lambda t: pa.table({"id": t["id"], "color": t["color"],
                                "position": pc.cast(t["position"], pa.int64())}),
            batch_format="pyarrow",
        )
    return zip_with_index(v, order_cols or ["iteration", "id"], "position",
                          keep=["id", "color"])


def sorted_adjacency_entries(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    hops: int | None = None,
    order_cols: list[str] | None = None,
    num_partitions: int = 16,
    ordering: ray.data.Dataset | None = None,
    descending: bool = False,
) -> ray.data.Dataset:
    """→ Dataset[row:int64, col:int64, val:int8, diag:int8] of CSR
    triples (0-based) in canonical ``(row, diag, col)`` order (or its
    reverse), block after block. Rows lie in ``[0, N)`` for the N
    numbered vertices, so the sort cuts them at known row boundaries
    (``relops.sort_by_range``), into as many parts as the vertex and
    edge entries have blocks together (each input a read sized by
    rows)."""
    pos = compute_positions(vertices, hops, order_cols, ordering).materialize()

    def vert_entries(t: pa.Table) -> pa.Table:
        p = pc.subtract(t["position"], 1)
        return pa.table(
            {
                "row": pc.cast(p, pa.int64()),
                "col": pc.cast(p, pa.int64()),
                "val": pc.cast(t["color"], pa.int8()),
                "diag": pa.array(np.zeros(len(t), dtype=np.int8)),
            }
        )

    diag = pos.map_batches(vert_entries, batch_format="pyarrow")

    def typed(t: pa.Table) -> pa.Table:
        keep = pc.is_in(t["type"], value_set=pa.array(list(ADJACENCY_EDGE_TYPES)))
        return t.filter(keep).select(["source", "destination"])

    # inner lookups drop edges outside the (hop-filtered) vertex set — the
    # reference's double join does the same (db_reader.py:20-27)
    e = unique_lookup(
        edges.map_batches(typed, batch_format="pyarrow"), pos, ["id"],
        [(["source"], {"position": "src_pos"}),
         (["destination"], {"position": "dst_pos", "color": "dst_color"})],
        num_partitions=num_partitions,
    )

    def edge_entries(t: pa.Table) -> pa.Table:
        val = np.where(t["dst_color"].to_numpy(zero_copy_only=False) == 1, 3, 2).astype(np.int8)
        return pa.table(
            {
                "row": pc.cast(pc.subtract(t["src_pos"], 1), pa.int64()),
                "col": pc.cast(pc.subtract(t["dst_pos"], 1), pa.int64()),
                "val": pa.array(val),
                "diag": pa.array(np.ones(len(t), dtype=np.int8)),
            }
        )

    return sort_by_range(diag.union(e.map_batches(edge_entries, batch_format="pyarrow")),
                         ["row", "diag", "col"], pos.count(), descending)


def build_csr(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    hops: int | None = None,
    order_cols: list[str] | None = None,
    num_partitions: int = 16,
) -> tuple[list[int], list[int], list[int]]:
    """Small-scale collector: full (rows, cols, vals) arrays in canonical
    order — the exact layout of the reference's golden CSR test
    (``tests/util/test_db_reader.py:62-70``). Use
    :func:`write_adjacency_shards` at scale."""
    out = sorted_adjacency_entries(vertices, edges, hops, order_cols, num_partitions).take_all()
    return [r["row"] for r in out], [r["col"] for r in out], [r["val"] for r in out]


def write_adjacency_shards(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    out_path: str,
    shard_size: int = 1 << 20,
    hops: int | None = None,
    order_cols: list[str] | None = None,
    num_partitions: int = 16,
) -> str:
    """Scale path: canonical global sort, then hive-partitioned parquet
    shards ``shard = row // shard_size`` — contiguous row ranges per
    shard so a RedBlackGraph builder can consume shards independently
    and a failed export run can skip completed shards."""
    ent = sorted_adjacency_entries(vertices, edges, hops, order_cols, num_partitions)

    def add_shard(t: pa.Table) -> pa.Table:
        shard = pc.divide(t["row"], shard_size)
        return t.append_column("shard", pc.cast(shard, pa.int32()))

    ent.map_batches(add_shard, batch_format="pyarrow").write_parquet(
        out_path, partition_cols=["shard"]
    )
    # an empty graph writes no file; its (empty) directory still exists
    st.makedirs(out_path)
    return out_path


class AbstractGraphBuilder:
    """Pluggable adjacency-builder protocol (the RedBlackGraph extension
    surface — reference ``fscrawler/util/abstract_graph.py:18-142``).

    A builder receives the graph in the reference's merge-interleave
    order (``db_reader.py:341-380``): positions DESCENDING, and for each
    vertex its out-edges (dst descending) BEFORE the vertex itself —
    i.e. exactly the reverse of the canonical ``(row, diag-first, col)``
    CSR order, so arrays filled back-to-front reproduce the golden
    layout.
    """

    def init_builder(self, vertex_count: int, edge_count: int) -> None:
        raise NotImplementedError

    def add_vertex(self, vertex_id: int, color: int) -> None:
        raise NotImplementedError

    def add_edge(self, source_id: int, dest_id: int) -> None:
        raise NotImplementedError

    def add_gender(self, vertex_id: int, color: int) -> None:
        raise NotImplementedError

    def build(self):
        raise NotImplementedError

    # -- canonical ordering (reference abstract_graph.py get_ordering /
    #    db_reader.py:157-192 compute_ordering round trip) -------------
    def get_ordering(self) -> "np.ndarray":
        """Permutation ``old_position → canonical position`` computed
        from the unordered graph fed so far (the RedBlackGraph
        topological-closure ordering in the reference). Optional."""
        raise NotImplementedError

    # -- built-graph cache (reference db_reader.py:194-249 delegates
    #    validity/save/load to the builder) ----------------------------
    def save_cache(self, graph, cache_path: str, metadata: dict) -> None:
        """Default binary cache: pickle + a ``.meta.json`` sidecar
        carrying ``metadata`` (e.g. ``{'hops': N}``). Builders with
        custom formats override."""
        import json
        import pickle

        with open(cache_path, "wb") as f:
            pickle.dump(graph, f)
        with open(cache_path + ".meta.json", "w") as f:
            json.dump(metadata, f)

    def load_cache(self, cache_path: str, expected_metadata: dict):
        """Load the cached graph; raises ``ValueError`` on metadata
        mismatch (reference load_cache hop-count check)."""
        import json
        import pickle

        with open(cache_path + ".meta.json") as f:
            meta = json.load(f)
        if meta != expected_metadata:
            raise ValueError(f"cache metadata mismatch: {meta} != {expected_metadata}")
        with open(cache_path, "rb") as f:
            return pickle.load(f)

    def is_cache_valid(self, cache_path: str, source_path: str) -> bool:
        """Freshness: cache + sidecar exist and the cache is newer than
        the source data (reference mtime check, db_reader.py:204-214)."""
        import os

        if not (os.path.exists(cache_path) and os.path.exists(cache_path + ".meta.json")):
            return False
        return os.path.getmtime(cache_path) >= os.path.getmtime(source_path)


def build_with_builder(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    builder: AbstractGraphBuilder,
    hops: int | None = None,
    order_cols: list[str] | None = None,
    num_partitions: int = 16,
    ordering: ray.data.Dataset | None = None,
):
    """Feed a builder through the reference's streaming protocol
    (S9/O4): genders first (ascending), then the merge-interleave of
    edges and vertices in descending canonical order. Driver-side
    iteration over the sorted entry stream — at scale, run one builder
    per contiguous shard inside ``relops.shuffle_apply`` instead."""
    ordered = sorted_adjacency_entries(vertices, edges, hops, order_cols, num_partitions,
                                       ordering, descending=True).materialize()
    nv = int(hop_filter_vertices(vertices, hops).count())
    ne = ordered.count() - nv
    builder.init_builder(nv, ne)
    # genders ascending (db_reader.py:351-356 reads vertices first)
    for b in ordered.iter_batches(batch_size=8192, batch_format="pyarrow"):
        diag = b["diag"].to_numpy(zero_copy_only=False)
        rows = b["row"].to_numpy(zero_copy_only=False)
        vals = b["val"].to_numpy(zero_copy_only=False)
        for r, v in zip(rows[diag == 0], vals[diag == 0]):
            builder.add_gender(int(r), int(v))
    for b in ordered.iter_batches(batch_size=8192, batch_format="pyarrow"):
        rows = b["row"].to_numpy(zero_copy_only=False)
        cols = b["col"].to_numpy(zero_copy_only=False)
        vals = b["val"].to_numpy(zero_copy_only=False)
        diag = b["diag"].to_numpy(zero_copy_only=False)
        for r, c, v, d in zip(rows, cols, vals, diag):
            if d == 0:
                builder.add_vertex(int(r), int(v))
            else:
                builder.add_edge(int(r), int(c))
    return builder.build()


def vertex_key(
    vertices: ray.data.Dataset,
    hops: int | None = None,
    order_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """position → (external id, "'surname', 'given'") designation
    (``db_reader.py:318-339``)."""
    v = hop_filter_vertices(vertices, hops).select_columns(
        list(dict.fromkeys(["id", "surname", "given_name", "color"] + (order_cols or ["iteration", "id"])))
    )
    pos = zip_with_index(v, order_cols or ["iteration", "id"], "position")

    def fmt(t: pa.Table) -> pa.Table:
        name = pc.binary_join_element_wise(
            pc.binary_join_element_wise(pa.scalar("'"), t["surname"], "', '", ""),
            t["given_name"],
            "'",
            "",
        )
        return pa.table(
            {
                "position": pc.cast(pc.subtract(t["position"], 1), pa.int64()),
                "external_id": t["id"],
                "designation": name,
            }
        )

    return pos.map_batches(fmt, batch_format="pyarrow")


# ----------------------------------------------------------------------
# RelationshipGraphReader: the db_reader.read() analog — ordering
# round-trip + built-graph cache protocol (S10/O2, reference
# fscrawler/util/db_reader.py:157-316)
# ----------------------------------------------------------------------
class RelationshipGraphReader:
    """Reads a crawl checkpoint into an :class:`AbstractGraphBuilder`
    with (a) an optional persisted canonical ORDERING and (b) a
    built-graph cache keyed ``{stem}[_hops{N}].cache`` whose validity
    (mtime freshness + ``{'hops': N}`` metadata) is delegated to the
    builder — the RedBlackGraph plug-in surface."""

    def __init__(self, crawl_dir: str, builder: AbstractGraphBuilder,
                 hops: int | None = None, num_partitions: int = 8):
        import os

        self.crawl_dir = crawl_dir
        self.builder = builder
        self.hops = hops
        self.num_partitions = num_partitions
        self.ordering_path = os.path.join(crawl_dir, "ordering.parquet")

    # -- sources -------------------------------------------------------
    def _tables(self):
        from fs_crawler_ray.crawl import CrawlResult

        res = CrawlResult.load(self.crawl_dir)
        return res.vertices(), res.edges()

    def _source_mtime_path(self) -> str:
        import os

        # newest hop marker = the checkpoint's logical mtime
        hops = sorted(d for d in os.listdir(self.crawl_dir) if d.startswith("hop="))
        return os.path.join(self.crawl_dir, hops[-1], "log.json") if hops else self.crawl_dir

    def cache_path(self) -> str:
        import os

        stem = os.path.basename(os.path.normpath(self.crawl_dir))
        name = f"{stem}_hops{self.hops}.cache" if self.hops is not None else f"{stem}.cache"
        return os.path.join(self.crawl_dir, name)

    # -- ordering round trip (db_reader.py:157-192,308-316) ------------
    def has_ordering(self) -> bool:
        import os

        return os.path.exists(self.ordering_path)

    def compute_ordering(self) -> None:
        """Build the UNORDERED graph, ask the builder for its canonical
        permutation, persist it as the ORDERING table
        ``(external_id, position)``. Skips recompute when the persisted
        ordering already covers every vertex (reference up-to-date
        check)."""
        import numpy as np
        import pyarrow.parquet as pq

        vertices, edges = self._tables()
        nv = hop_filter_vertices(vertices, None).count()
        if self.has_ordering() and pq.read_metadata(self.ordering_path).num_rows == nv:
            return
        # feed the unordered (full, default-order) graph; builders see
        # the same stream the reference's unordered read produces
        build_with_builder(vertices, edges, self.builder,
                           num_partitions=self.num_partitions)
        ordering = np.asarray(self.builder.get_ordering())
        # ordering[i] = canonical position of the vertex at default
        # position i; persist external_id → canonical position
        key = vertex_key(vertices).to_pandas().sort_values("position")
        tbl = pa.table({
            "external_id": pa.array(key["external_id"].to_numpy()),
            "position": pa.array(ordering.astype(np.int64) + 1),
        })
        pq.write_table(tbl, self.ordering_path)

    def ordering(self) -> "ray.data.Dataset | None":
        if not self.has_ordering():
            return None
        return ray.data.read_parquet(self.ordering_path)

    # -- read with cache (db_reader.py:251-306) ------------------------
    def read(self, use_cache: bool = False):
        metadata = {"hops": self.hops}
        cpath = self.cache_path()
        if use_cache and self.builder.is_cache_valid(cpath, self._source_mtime_path()):
            try:
                return self.builder.load_cache(cpath, metadata)
            except ValueError:
                pass  # stale metadata → rebuild
        vertices, edges = self._tables()
        graph = build_with_builder(
            vertices, edges, self.builder, hops=self.hops,
            num_partitions=self.num_partitions, ordering=self.ordering(),
        )
        if use_cache:
            self.builder.save_cache(graph, cpath, metadata)
        return graph
