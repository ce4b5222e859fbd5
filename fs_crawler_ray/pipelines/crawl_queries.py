"""Crawl-engine queries over the deterministic synthetic corpus, shaped
for the driver's DuckDB cross-check.

The corpus for a given ``sf_dir`` is derived deterministically
(:func:`fs_crawler_ray.corpus.corpus_for_sf`, seeded, sized from the
sf's documents row count) and the crawl itself is cached on disk under
the corpus dir, so repeated query invocations reattach instead of
re-crawling. The matching oracle SQL (see ``__ray_entry__``) recomputes
the same BFS with a recursive CTE over the same parquet files.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from fs_crawler_ray.corpus import CorpusInfo, corpus_for_sf
from fs_crawler_ray.crawl import CrawlConfig, CrawlResult, crawl
from fs_crawler_ray.stages.export import build_csr, vertex_key
from fs_crawler_ray.stages.resolve import (
    candidate_relationships,
    classify_resolution,
    resolve_relationships,
)
from fs_crawler_ray.stages.validate import birth_year_from_lifespan, validate
from fs_crawler_ray.state import resident

CRAWL_HOPS = 5


def _tune_context() -> None:
    """Scale Ray Data exchange widths with the cluster instead of the
    200-partition defaults (safe to call in the driver's session — it
    only affects execution shape, never results)."""
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        return
    ctx = DataContext.get_current()
    cpus = int(ray.cluster_resources().get("CPU", 8))
    width = max(8, min(cpus, 16))  # >16-way exchanges only add contention here
    if ctx.min_parallelism > width:
        ctx.min_parallelism = width
        ctx.read_op_min_num_blocks = width
        ctx.default_hash_shuffle_parallelism = width
        ctx.max_hash_shuffle_aggregators = max(4, cpus // 2)


def corpus_and_crawl(sf_dir: str) -> tuple[CorpusInfo, CrawlResult]:
    _tune_context()
    info = corpus_for_sf(sf_dir)
    out_dir = os.path.join(info.out_dir, f"crawl_h{CRAWL_HOPS}")
    try:
        result = CrawlResult.load(out_dir)
        if len(result.hops_run) >= CRAWL_HOPS:
            return info, result
    except FileNotFoundError:
        pass
    cfg = CrawlConfig(hops=CRAWL_HOPS, num_shards=8, num_buckets=32, fetch_concurrency=4)
    result = crawl(info, info.seeds, out_dir, cfg)
    # the crawl is cached, so this session does not crawl again: its
    # idle state actors would only hold memory through the later queries
    resident.drain()
    return info, result


def _resolved_edges(sf_dir: str) -> tuple[CorpusInfo, CrawlResult, ray.data.Dataset]:
    info, result = corpus_and_crawl(sf_dir)
    final = resolve_relationships(
        result.edges(), result.vertices(), info.relationships_path,
        num_partitions=8, num_buckets=32,
    )
    return info, result, final


def crawl_vertices(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    return result.vertices().to_pandas()[
        ["id", "color", "surname", "given_name", "iteration", "lifespan", "living"]
    ]


def crawl_edges(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    df = result.edges().to_pandas().rename(columns={"id": "rel_id"})
    return df[["source", "destination", "rel_id", "hop"]]


def crawl_frontier(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    return result.frontier().to_pandas()[["id"]]


def crawl_log(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    return pd.DataFrame(result.log)[
        ["iteration", "vertices", "frontier", "edges", "spanning_edges", "frontier_edges"]
    ]


def resolution_classification(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    cands = candidate_relationships(result.edges(), result.vertices(), 8)
    return classify_resolution(cands, 32).to_pandas()[["rel_id", "rtype"]]


def resolved_edge_types(sf_dir: str) -> pd.DataFrame:
    _, _, final = _resolved_edges(sf_dir)
    df = final.to_pandas().rename(columns={"type": "final_type"})
    return df[["source", "destination", "final_type"]]


def adjacency_triples(sf_dir: str) -> pd.DataFrame:
    info, result, final = _resolved_edges(sf_dir)
    rows, cols, vals = build_csr(result.vertices(), final.materialize(), hops=None,
                                 num_partitions=8)
    return pd.DataFrame({
        "idx": np.arange(len(rows), dtype=np.int64),
        "row": np.array(rows, dtype=np.int64),
        "col": np.array(cols, dtype=np.int64),
        "val": np.array(vals, dtype=np.int64),
    })


def vertex_key_table(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    return vertex_key(result.vertices()).to_pandas()[["position", "external_id", "designation"]]


def hop_filtered_vertices(sf_dir: str, hops: int = 3) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    out = result.vertices().map_batches(
        lambda t: t.filter(pc.less(t["iteration"], hops)), batch_format="pyarrow"
    )
    return out.to_pandas()[["id", "color", "iteration"]]


def edge_classification_counts(sf_dir: str) -> pd.DataFrame:
    """J1/A2 over the final graph: every edge × endpoint membership."""
    _, result = corpus_and_crawl(sf_dir)
    import ray as _ray

    # vertex-id set broadcast once as an Arrow array; membership via the
    # pc.is_in kernel (one call per endpoint column, no Python row loop).
    # For sets too big to broadcast, use the membership shard actors
    # (crawl.MembershipStage) instead.
    vert_ids = result.vertices().select_columns(["id"]).to_pandas()["id"]
    ref = _ray.put(pa.array(vert_ids.to_numpy()))

    def classify(t: pa.Table) -> pa.Table:
        ids = _ray.get(ref)
        src_in = pc.is_in(t["source"], value_set=ids).to_numpy(zero_copy_only=False)
        dst_in = pc.is_in(t["destination"], value_set=ids).to_numpy(zero_copy_only=False)
        cat = np.select([src_in & dst_in, ~src_in & ~dst_in], ["within", "frontier"], "spanning")
        return pa.table({"category": pa.array(cat.tolist(), pa.string())})

    out = (
        result.edges().map_batches(classify, batch_format="pyarrow")
        .groupby("category").count().to_pandas()
    )
    return out.rename(columns={"count()": "n"})


def lifespan_birth_years(sf_dir: str) -> pd.DataFrame:
    _, result = corpus_and_crawl(sf_dir)
    df = result.vertices().select_columns(["id", "lifespan"]).to_pandas()
    df["birth_year"] = birth_year_from_lifespan(df["lifespan"].to_numpy())
    return df[["id", "birth_year"]]


def validator_children(sf_dir: str) -> pd.DataFrame:
    """Per-child validation counts + invalid flag + category over the
    resolved graph (A6)."""
    _, result, final = _resolved_edges(sf_dir)
    _, classified = validate(result.vertices(), final.materialize(), result.frontier(), 8)
    df = classified.to_pandas()
    out = df[["source", "vm", "vf", "vu", "rm", "rf", "ru"]].copy()
    out["invalid"] = df["invalid"].astype(bool)
    out["category"] = df["category"]
    return out.sort_values("source").reset_index(drop=True)


def living_filtered_vertices(sf_dir: str) -> pd.DataFrame:
    """M10: drop living individuals from the vertex output (the
    save_living flag gate, graph_writer.py:85-87)."""
    _, result = corpus_and_crawl(sf_dir)
    out = result.vertices().map_batches(
        lambda t: t.filter(pc.equal(t["living"], False)), batch_format="pyarrow"
    )
    return out.to_pandas()[["id", "color", "iteration", "lifespan"]]


def primary_edges(sf_dir: str) -> pd.DataFrame:
    """M13: the primary edge output after the resolution rewrite split
    (relationship_rewriter.py:8-12)."""
    from fs_crawler_ray.stages.resolve import split_primary_aux

    _, _, final = _resolved_edges(sf_dir)
    primary, _aux = split_primary_aux(final.materialize())
    df = primary.to_pandas().rename(columns={"type": "final_type"})
    return df[["source", "destination", "final_type"]]


def rels_to_resolve(sf_dir: str) -> pd.DataFrame:
    """A4: distinct relationship ids flagged Resolve
    (graph_db_impl.py:233-249)."""
    df = resolution_classification(sf_dir)
    out = df[df["rtype"] == "Resolve"][["rel_id"]].drop_duplicates().sort_values("rel_id")
    return out.reset_index(drop=True)


def max_iteration(sf_dir: str) -> pd.DataFrame:
    """A5: MAX(iteration) over the crawled vertices (resume bookkeeping,
    graph_db_impl.py:288)."""
    _, result = corpus_and_crawl(sf_dir)
    m = result.vertices().max("iteration")
    return pd.DataFrame({"max_iteration": [int(m)]})


def invalid_birth_decades(sf_dir: str) -> pd.DataFrame:
    """A7: birth-decade histogram of invalid children
    (graph_validator.py:156-159)."""
    _, result, final = _resolved_edges(sf_dir)
    stats, _ = validate(result.vertices(), final.materialize(), result.frontier(), 8)
    h = stats.birth_decade_histogram
    return pd.DataFrame(
        {"decade": np.array(sorted(h), dtype=np.int64),
         "n": np.array([h[k] for k in sorted(h)], dtype=np.int64)}
    )


def span_vertices(sf_dir: str) -> pd.DataFrame:
    """Pure span parse (no BFS): every document → vertex record."""
    from fs_crawler_ray.stages.parse import parse_documents

    info = corpus_for_sf(sf_dir)
    ds = ray.data.read_parquet(info.documents_path)
    rec = ds.map_batches(parse_documents, batch_format="pyarrow")
    verts = rec.map_batches(
        lambda t: t.filter(pc.equal(t["rec_kind"], "vertex")), batch_format="pyarrow"
    )
    return verts.to_pandas()[["id", "color", "surname", "given_name", "lifespan", "living"]]


def span_edges(sf_dir: str) -> pd.DataFrame:
    from fs_crawler_ray.stages.parse import parse_documents

    info = corpus_for_sf(sf_dir)
    ds = ray.data.read_parquet(info.documents_path)
    rec = ds.map_batches(parse_documents, batch_format="pyarrow")
    edges = rec.map_batches(
        lambda t: t.filter(pc.equal(t["rec_kind"], "edge")), batch_format="pyarrow"
    )
    df = edges.to_pandas()
    return df[["src_doc", "source", "destination", "rel_id", "offset"]].rename(
        columns={"src_doc": "doc_id"}
    )


def _span_edges_ds(sf_dir: str) -> ray.data.Dataset:
    """The parsed child→parent edge stream as a Dataset (the graph the
    link-analysis queries run over)."""
    from fs_crawler_ray.stages.parse import parse_documents

    info = corpus_for_sf(sf_dir)
    ds = ray.data.read_parquet(info.documents_path)
    rec = ds.map_batches(parse_documents, batch_format="pyarrow")
    return rec.map_batches(
        lambda t: t.filter(pc.equal(t["rec_kind"], "edge")).select(
            ["source", "destination"]),
        batch_format="pyarrow",
    )


def graph_degree_hist(sf_dir: str) -> pd.DataFrame:
    """Total-degree histogram of the parsed relationship graph
    (graph.degree_histogram): distinct directed edges → per-vertex
    in+out degree → (degree, n_vertices). All-integer output."""
    from fs_crawler_ray.graph import degree_histogram

    out = degree_histogram(_span_edges_ds(sf_dir)).to_pandas()
    return out.astype({"degree": "int64", "n_vertices": "int64"}).sort_values(
        "degree").reset_index(drop=True)


def graph_pagerank(sf_dir: str) -> pd.DataFrame:
    """Fixed 5-iteration PageRank over the parsed relationship graph in
    scaled-integer arithmetic (graph.pagerank_scaled) — bit-exact vs the
    unrolled DuckDB CTE oracle because every update is an int64
    floor-divide/sum (integer addition is order-independent, float
    addition is not)."""
    from fs_crawler_ray.graph import pagerank_scaled

    out = pagerank_scaled(_span_edges_ds(sf_dir), iters=5).to_pandas()
    return out[["id", "rank_scaled"]].astype({"rank_scaled": "int64"}).sort_values(
        "id").reset_index(drop=True)


def graph_two_hop(sf_dir: str) -> pd.DataFrame:
    """Distinct-grandparent counts per vertex (graph.two_hop_counts):
    the wedge self-join on the mid endpoint. Integer counts only."""
    from fs_crawler_ray.graph import two_hop_counts

    out = two_hop_counts(_span_edges_ds(sf_dir)).to_pandas()
    return out.astype({"n_two_hop": "int64"}).sort_values("id").reset_index(drop=True)


def graph_coparents(sf_dir: str) -> pd.DataFrame:
    """Canonical co-parent pairs with shared-child counts
    (graph.coparent_pairs): the wedge self-join on the source endpoint
    with p1 < p2 canonicalization. Integer counts only."""
    from fs_crawler_ray.graph import coparent_pairs

    out = coparent_pairs(_span_edges_ds(sf_dir)).to_pandas()
    return out.astype({"n_children": "int64"}).sort_values(
        ["p1", "p2"]).reset_index(drop=True)


def graph_families(sf_dir: str) -> pd.DataFrame:
    """Family-unit clustering (graph.family_components): connected
    components of the co-parent graph, component id = smallest member
    md5-hash. Strings + int64 only."""
    from fs_crawler_ray.graph import family_components

    out = family_components(_span_edges_ds(sf_dir)).to_pandas()
    return out[["id", "family"]].astype({"family": "int64"}).sort_values(
        "id").reset_index(drop=True)


def span_media(sf_dir: str) -> pd.DataFrame:
    from fs_crawler_ray.stages.parse import parse_documents

    info = corpus_for_sf(sf_dir)
    ds = ray.data.read_parquet(info.documents_path)
    rec = ds.map_batches(parse_documents, batch_format="pyarrow")
    media = rec.map_batches(
        lambda t: t.filter(pc.equal(t["rec_kind"], "media")), batch_format="pyarrow"
    )
    return media.to_pandas()[["id", "media_ref", "offset"]].rename(columns={"id": "doc_id"})


def _edge_category_table(sf_dir: str, category: str) -> pd.DataFrame:
    from fs_crawler_ray.functions.graph_csv import classify_edge_tables

    _, result = corpus_and_crawl(sf_dir)
    ds = classify_edge_tables(result.edges(), result.vertices())[category]
    df = ds.to_pandas().rename(columns={"id": "rel_id"})
    return df[["source", "destination", "rel_id"]]


def spanning_edges(sf_dir: str) -> pd.DataFrame:
    """J1 as a table (graph_writer.py:100-114): edges with exactly one
    endpoint in the resolved vertex set."""
    return _edge_category_table(sf_dir, "spanning")


def frontier_edges(sf_dir: str) -> pd.DataFrame:
    """J1 as a table: edges with neither endpoint resolved."""
    return _edge_category_table(sf_dir, "frontier")


def graph_triangles(sf_dir: str) -> pd.DataFrame:
    """Canonical triangles u<v<w of the co-parent graph
    (graph.coparent_triangles): wedge self-join + closing-edge semi
    join. String ids only — hash-exact vs the 3-way-join oracle."""
    from fs_crawler_ray.graph import coparent_triangles

    out = coparent_triangles(_span_edges_ds(sf_dir)).to_pandas()
    return out[["u", "v", "w"]].sort_values(["u", "v", "w"]).reset_index(drop=True)


def graph_kcore(sf_dir: str) -> pd.DataFrame:
    """Fixed-round 2-core peeling of the co-parent graph
    (graph.kcore_peel): 3 unrolled drop-degree-<2 rounds, then the
    surviving subgraph's (id, deg) table. Integer degrees only."""
    from fs_crawler_ray.graph import kcore_peel

    out = kcore_peel(_span_edges_ds(sf_dir)).to_pandas()
    return out.astype({"deg": "int64"}).sort_values("id").reset_index(drop=True)


def graph_assortativity(sf_dir: str) -> pd.DataFrame:
    """Integer degree-assortativity moments of the span graph
    (graph.assortativity_sum): n_edges, Σ deg(src)·deg(dst) and the
    marginal degree sums."""
    from fs_crawler_ray.graph import assortativity_sum

    out = assortativity_sum(_span_edges_ds(sf_dir)).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).reset_index(drop=True)


def graph_clustering(sf_dir: str) -> pd.DataFrame:
    """Global transitivity moments of the co-parent graph
    (graph.clustering_global): (n_wedges, n_closed)."""
    from fs_crawler_ray.graph import clustering_global

    out = clustering_global(_span_edges_ds(sf_dir)).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).reset_index(drop=True)


def graph_family_sizes(sf_dir: str) -> pd.DataFrame:
    """Family-size histogram (family_components ∘ two shrinking count
    shuffles): (family_size, n_families) — the household-scale
    distribution of the co-parent clustering."""
    from fs_crawler_ray.graph import family_components
    from fs_crawler_ray.relops import bucketed_agg

    fam = family_components(_span_edges_ds(sf_dir))
    sizes = bucketed_agg(fam, ["family"], [("id", "count", "family_size")], 8)
    hist = bucketed_agg(sizes, ["family_size"],
                        [("family", "count", "n_families")], 2)
    out = hist.to_pandas()
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        "family_size").reset_index(drop=True)
