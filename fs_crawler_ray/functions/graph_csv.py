"""CSV graph export — the reference's 6-file layout (SURVEY §2 S4,
``fscrawler/controller/graph_writer.py:10-123``), plus the
within/spanning/frontier edge sets as actual TABLES (the round-1 review
noted only their counts were exposed; a user wanting the spanning-edge
set had to re-derive it).

Files written under ``out_dir`` (headers verbatim from the reference,
``graph_writer.py:5-6``):

    {base}.vertices.csv            #external_id,color,name,iteration,lifespan
    {base}.edges.csv               #source_vertex,destination_vertex,relationship_type,relationship_id
    {base}.spanning.edges.csv      (same header)
    {base}.frontier.edges.csv      (same header)
    {base}.frontier.vertices.csv   #external_id
    {base}.log.csv                 #iteration,duration,vertices,frontier,edges,spanning_edges,frontier_edges

CSV is the reference's single-file interop format, so the writer
streams batches driver-side (O(batch) memory) into one file per table;
the columnar scale path remains the per-hop Parquet checkpoint. The
output round-trips through :mod:`fs_crawler_ray.functions.migrate`.
"""

from __future__ import annotations

import csv
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

RELATIONSHIP_HEADER = ["#source_vertex", "destination_vertex", "relationship_type", "relationship_id"]
VERTEX_HEADER = ["#external_id", "color", "name", "iteration", "lifespan"]
LOG_HEADER = ["#iteration", "duration", "vertices", "frontier", "edges", "spanning_edges", "frontier_edges"]


def tag_edge_categories(
    edges: ray.data.Dataset,
    vertices: ray.data.Dataset,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """J1: ``edges`` with a ``category`` column from endpoint membership
    in the resolved vertex set (``graph_writer.py:100-114`` /
    ``graph_memory_impl.py:106-120``): ``within`` (both endpoints are
    vertices), ``spanning`` (one) or ``frontier`` (neither). Both flags
    come from one :func:`~fs_crawler_ray.relops.unique_lookup` of the
    endpoints against the vertex ids (unique by construction): one
    broadcast below ``relops.BROADCAST_LIMIT``, bucketed hash joins
    above it, so nothing vertex-sized is materialized driver-side."""
    from fs_crawler_ray import relops

    ids = relops.project(vertices, ["id"]).map_batches(
        lambda t: t.append_column("__in", pa.array(np.ones(len(t), dtype=bool))),
        batch_format="pyarrow").materialize()
    flagged = relops.unique_lookup(
        edges, ids, ["id"],
        [(["source"], {"__in": "__src_in"}), (["destination"], {"__in": "__dst_in"})],
        how="left", num_partitions=num_partitions)

    def add_cat(t: pa.Table) -> pa.Table:
        src_in = pc.is_valid(t["__src_in"]).to_numpy(zero_copy_only=False)
        dst_in = pc.is_valid(t["__dst_in"]).to_numpy(zero_copy_only=False)
        cat = np.select([src_in & dst_in, ~src_in & ~dst_in], ["within", "frontier"], "spanning")
        return t.drop_columns(["__src_in", "__dst_in"]).append_column(
            "category", pa.array(cat, pa.string()))

    tagged = flagged.map_batches(add_cat, batch_format="pyarrow")
    if ids.count() > relops.BROADCAST_LIMIT:
        # each consumer would re-run both shuffle joins; a broadcast
        # probe is one cheap map, so that path stays lazy
        tagged = tagged.materialize()
    return tagged


def classify_edge_tables(
    edges: ray.data.Dataset,
    vertices: ray.data.Dataset,
    num_partitions: int = 16,
) -> dict:
    """J1 as TABLES: ``{"within": ds, "spanning": ds, "frontier": ds}``,
    each edge in the table of its :func:`tag_edge_categories` category."""
    tagged = tag_edge_categories(edges, vertices, num_partitions)

    def only(cat: str):
        return tagged.map_batches(
            lambda t, c=cat: t.filter(pc.equal(t["category"], c)).drop_columns(["category"]),
            batch_format="pyarrow",
        )

    return {"within": only("within"), "spanning": only("spanning"), "frontier": only("frontier")}


def _stream_csv(path: str, header: list[str], ds: ray.data.Dataset | None, row_cols: list[str]) -> int:
    """Stream a Dataset into one reference-format CSV (header row first,
    then batches as they arrive — never materializes the table)."""
    n = 0
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        if ds is None:
            return 0
        for batch in ds.iter_batches(batch_size=8192, batch_format="pandas"):
            w.writerows(batch[row_cols].itertuples(index=False, name=None))
            n += len(batch)
    return n


def write_csv_graph(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    frontier: ray.data.Dataset,
    log_rows: list[dict],
    out_dir: str,
    basename: str,
    save_living: bool = False,
) -> dict:
    """Write the reference's 6-file CSV graph layout. ``edges`` carries
    whatever types it has (UntypedParent during the crawl, final types
    after the resolution rewrite — both use the same header). Living
    individuals are dropped unless ``save_living`` (M10,
    ``graph_writer.py:85-87``). Returns ``{name: path}``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "vertices": os.path.join(out_dir, f"{basename}.vertices.csv"),
        "edges": os.path.join(out_dir, f"{basename}.edges.csv"),
        "spanning_edges": os.path.join(out_dir, f"{basename}.spanning.edges.csv"),
        "frontier_edges": os.path.join(out_dir, f"{basename}.frontier.edges.csv"),
        "frontier_vertices": os.path.join(out_dir, f"{basename}.frontier.vertices.csv"),
        "log": os.path.join(out_dir, f"{basename}.log.csv"),
    }

    def fmt_vertices(t: pa.Table) -> pa.Table:
        if not save_living:
            t = t.filter(pc.equal(t["living"], False))
        name = pc.binary_join_element_wise(t["surname"], t["given_name"], ", ")
        return pa.table({
            "external_id": t["id"],
            "color": t["color"],
            "name": name,
            "iteration": t["iteration"],
            "lifespan": t["lifespan"],
        })

    _stream_csv(paths["vertices"], VERTEX_HEADER,
                vertices.map_batches(fmt_vertices, batch_format="pyarrow"),
                ["external_id", "color", "name", "iteration", "lifespan"])

    cats = classify_edge_tables(edges, vertices)
    for key, name in (("edges", "within"), ("spanning_edges", "spanning"), ("frontier_edges", "frontier")):
        ds = cats[name].select_columns(["source", "destination", "type", "id"])
        _stream_csv(paths[key], RELATIONSHIP_HEADER, ds, ["source", "destination", "type", "id"])

    _stream_csv(paths["frontier_vertices"], ["#external_id"],
                frontier.select_columns(["id"]), ["id"])

    with open(paths["log"], "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(LOG_HEADER)
        for row in log_rows:
            w.writerow([row.get("iteration"), row.get("duration"), row.get("vertices"),
                        row.get("frontier"), row.get("edges"), row.get("spanning_edges"),
                        row.get("frontier_edges")])
    return paths


def write_csv_graph_from_result(result, out_dir: str, basename: str,
                                save_living: bool = False, edges: ray.data.Dataset | None = None) -> dict:
    """Convenience: export a :class:`~fs_crawler_ray.crawl.CrawlResult`
    (optionally with resolution-rewritten ``edges``) to the CSV layout."""
    return write_csv_graph(
        result.vertices(), edges if edges is not None else result.edges(),
        result.frontier(), result.log, out_dir, basename, save_living,
    )
