"""Graph analytics over an edge table: degree distribution and a
fixed-iteration PageRank — the link-analysis surface a web-scale crawl
feeds (quality priors for training-data selection, crawl-frontier
prioritization). Beyond-reference training-data components (no
reference analog; the reference stops at building the adjacency
matrix, ``rel_db_reader.py``).

Design notes for the 100 TB case:

- The edge table is the big side; every stage below touches it only
  through hash-bucketed shuffles (``relops``) or map-only passes — no
  driver materialization, no all-pairs work.
- PageRank runs in SCALED-INTEGER arithmetic: ranks are int64 in units
  of ``scale/V``, shares are ``r // outdeg``, and the damping update is
  ``((100-d)*base)//100 + (d*sum_shares)//100``.  Integer addition is
  exactly associative, so the result is bit-identical regardless of
  summation order — which makes a 5-iteration PageRank *strictly
  oracle-checkable* against an unrolled DuckDB CTE (float PageRank can
  never be hash-compared across engines; the quantization error vs
  float PageRank is < V/scale per vertex per iteration).
- The per-iteration rank table is O(V) — tiny next to the edges — so
  the edges×shares join goes through :func:`relops.join`, which
  broadcasts the rank side below ``BROADCAST_LIMIT`` and degrades to
  the bucketed shuffle join above it (the standard scale path).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from fs_crawler_ray.relops import bucketed_agg, distinct, join


@ray.remote(num_cpus=1)
class _PageRankShard:
    """BSP superstep worker for the small-V PageRank path: holds a
    slice of the (already materialized) edge table resident across all
    iterations, pre-indexed against the global sorted vertex order so
    each round is one int64 gather + scatter-add. Exact integer
    arithmetic end-to-end, so the result is bit-identical to the
    Dataset-per-iteration large-V path (pinned by test)."""

    def __init__(self, block_refs, src: str, dst: str, ids_sorted):
        tables = [t for t in ray.get(list(block_refs)) if len(t) > 0]
        if tables:
            s = np.concatenate(
                [t[src].to_numpy(zero_copy_only=False) for t in tables])
            d = np.concatenate(
                [t[dst].to_numpy(zero_copy_only=False) for t in tables])
        else:
            s = np.zeros(0, dtype=np.int64)
            d = np.zeros(0, dtype=np.int64)
        self.src_idx = np.searchsorted(ids_sorted, s)
        self.dst_uniq, self.dst_codes = np.unique(d, return_inverse=True)
        self.dst_gidx = np.searchsorted(ids_sorted, self.dst_uniq)

    def contrib(self, shares: np.ndarray):
        out = np.zeros(len(self.dst_uniq), dtype=np.int64)
        np.add.at(out, self.dst_codes, shares[self.src_idx])
        return self.dst_gidx, out


def _project(ds: ray.data.Dataset, col: str, out: str) -> ray.data.Dataset:
    return ds.map_batches(lambda t: pa.table({out: t[col]}), batch_format="pyarrow")


def endpoint_degrees(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 16,
    assume_distinct: bool = False,
):
    """The shared setup of every link-analysis op: the DISTINCT edge
    set (materialized once) plus ONE tagged endpoint aggregation that
    yields, per vertex, its out-degree (sum of source tags) AND its
    total degree (count of endpoint occurrences = outdeg + indeg)
    together. Returns ``(edges_materialized, state)`` with ``state``
    columns ``(id, outdeg, deg)`` — callers share it so a bench stage
    running the degree histogram and PageRank over the same graph pays
    the edge scan + shuffle once, not per operator."""
    e = edges.select_columns([src, dst])
    if not assume_distinct:
        e = distinct(e, [src, dst], num_buckets)
    e = e.materialize()

    def ends_fn(t: pa.Table) -> pa.Table:
        n = len(t)
        ids = np.concatenate([t[src].to_numpy(zero_copy_only=False),
                              t[dst].to_numpy(zero_copy_only=False)])
        is_src = np.concatenate([np.ones(n, np.int64), np.zeros(n, np.int64)])
        return pa.table({"id": ids, "is_src": is_src})

    state = bucketed_agg(
        e.map_batches(ends_fn, batch_format="pyarrow"),
        ["id"], [("is_src", "sum", "outdeg"), ("is_src", "count", "deg")],
        num_buckets,
    )
    return e, state


def degree_histogram(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 32,
    assume_distinct: bool = False,
    degrees: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Total-degree histogram over the DISTINCT directed edge set:
    ``degree(v) = outdeg(v) + indeg(v)`` → ``(degree, n_vertices)``.
    Two bucketed shuffles, each strictly smaller than the last (tagged
    endpoints → per-vertex degree → per-degree count); all-integer
    output. Pass ``degrees`` (the state from :func:`endpoint_degrees`)
    to reuse an aggregation already computed for PageRank."""
    if degrees is None:
        _, degrees = endpoint_degrees(edges, src, dst, num_buckets,
                                      assume_distinct)
    deg = degrees.map_batches(
        lambda t: pa.table({"v": t["id"], "degree": t["deg"].cast(pa.int64())}),
        batch_format="pyarrow")
    hist = bucketed_agg(deg, ["degree"], [("v", "count", "n_vertices")], 8)
    return hist


def two_hop_counts(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-vertex count of DISTINCT 2-hop successors (``id → mid →
    anc``): the classic wedge self-join (friends-of-friends /
    grandparent reach). One self-join on the mid vertex — size-aware
    via :func:`relops.join`, so below ``BROADCAST_LIMIT`` the
    edge table broadcasts once and above it the join degrades to the
    bucketed hash shuffle — then a distinct + count, each one bucketed
    shuffle over a table no larger than the wedge set. All-integer
    count output → hash-exact vs the SQL oracle."""
    e = distinct(edges.select_columns([src, dst]), [src, dst], num_buckets)
    left = e.map_batches(
        lambda t: pa.table({"id": t[src], "mid": t[dst]}), batch_format="pyarrow")
    right = e.map_batches(
        lambda t: pa.table({"mid2": t[src], "anc": t[dst]}), batch_format="pyarrow")
    j = join(left, right, "mid", "mid2")
    pairs = distinct(
        j.map_batches(lambda t: pa.table({"id": t["id"], "anc": t["anc"]}),
                      batch_format="pyarrow"),
        ["id", "anc"], num_buckets)
    return bucketed_agg(pairs, ["id"], [("anc", "count", "n_two_hop")], num_buckets)


def coparent_pairs(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Canonical co-destination pairs: ``(p1, p2, n_children)`` where
    ``p1 < p2`` are both destinations of the same source (co-parents
    sharing a child in the crawl graph; co-cited pages in a web graph).
    Same wedge shape as :func:`two_hop_counts` but joined on the SOURCE
    endpoint, with the ``p1 < p2`` canonicalization halving the pair
    space before the count shuffle."""
    e = distinct(edges.select_columns([src, dst]), [src, dst], num_buckets)
    left = e.map_batches(
        lambda t: pa.table({"child": t[src], "p1": t[dst]}), batch_format="pyarrow")
    right = e.map_batches(
        lambda t: pa.table({"child2": t[src], "p2": t[dst]}), batch_format="pyarrow")
    j = join(left, right, "child", "child2")
    canon = j.map_batches(
        lambda t: t.filter(pc.less(t["p1"], t["p2"])).select(["child", "p1", "p2"]),
        batch_format="pyarrow")
    return bucketed_agg(canon, ["p1", "p2"], [("child", "count", "n_children")], num_buckets)


def family_components(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 16,
    hash_mod: int = 1 << 62,
) -> ray.data.Dataset:
    """Connected components of the CO-PARENT graph — family-unit
    clustering: parents linked whenever they share a child, components
    = households chained by remarriage. Returns ``(id, family)`` with
    ``family`` the smallest member hash (the md5-derived canonical
    representative).

    Composition of two verified operators: :func:`coparent_pairs`
    (wedge self-join) feeding :func:`components.connected_components`
    (hash-min label propagation). String ids enter the int64 label
    space via ``md5_lower64 % 2^62`` — non-negative, so numpy's signed
    MIN agrees with DuckDB's unsigned ``MIN(md5_number_lower(...))``
    and the recursive-CTE oracle hash-matches. Unlike the full span
    graph (one giant component — a reachability-closure oracle would
    be O(V²)), co-parent components are small and shallow, the same
    regime the near-dup clustering runs in."""
    from fs_crawler_ray.components import connected_components
    from fs_crawler_ray.text import md5_lower64

    pairs = coparent_pairs(edges, src, dst, num_buckets)

    def hashed(t: pa.Table) -> pa.Table:
        p1 = t["p1"].to_numpy(zero_copy_only=False)
        p2 = t["p2"].to_numpy(zero_copy_only=False)
        h1 = (md5_lower64(p1) % np.uint64(hash_mod)).astype(np.int64)
        h2 = (md5_lower64(p2) % np.uint64(hash_mod)).astype(np.int64)
        return pa.table({"p1": t["p1"], "p2": t["p2"], "h1": h1, "h2": h2})

    hp = pairs.map_batches(hashed, batch_format="pyarrow").materialize()
    comp = connected_components(
        hp.map_batches(lambda t: pa.table({"doc_a": t["h1"], "doc_b": t["h2"]}),
                       batch_format="pyarrow"))
    pmap = distinct(
        hp.map_batches(lambda t: pa.table({
            "id": pa.chunked_array([t["p1"].combine_chunks(), t["p2"].combine_chunks()]),
            "h": pa.chunked_array([t["h1"].combine_chunks(), t["h2"].combine_chunks()]),
        }), batch_format="pyarrow"),
        ["id", "h"], num_buckets)
    out = join(pmap, comp, "h", "v")
    return out.map_batches(
        lambda t: pa.table({"id": t["id"], "family": pc.cast(t["component"], pa.int64())}),
        batch_format="pyarrow")


def pagerank_scaled(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    iters: int = 5,
    scale: int = 10**12,
    damping_pct: int = 85,
    num_buckets: int = 16,
    assume_distinct: bool = False,
    setup: tuple | None = None,
) -> ray.data.Dataset:
    """Fixed-iteration PageRank in scaled-integer arithmetic (see the
    module docstring for why integers): returns ``(id, rank_scaled)``
    with ``rank_scaled ≈ pagerank(id) * scale``.

    Setup is two shuffles total: the edge distinct, then the ONE tagged
    endpoint aggregation of :func:`endpoint_degrees` that yields the
    vertex set AND per-vertex outdegree together (pass ``setup`` — its
    ``(edges, state)`` result — to share that work with a degree
    histogram over the same graph). Below ``BROADCAST_LIMIT`` vertices
    the O(V) rank state is driver-resident and the edge shards live in
    a persistent actor pool (see the fast-path comment); above it, per
    iteration: shares ``r // outdeg`` (map-only over the O(V) state
    Dataset), one edges×shares join, one bucketed sum per destination,
    one O(V) state join. Sink mass (vertices with no out-edges) is
    dropped, identically on both engines — the spec IS the oracle
    SQL's unrolled CTE.
    """
    import pandas as pd

    from fs_crawler_ray.relops import BROADCAST_LIMIT

    if setup is None:
        setup = endpoint_degrees(edges, src, dst, num_buckets, assume_distinct)
    e, state = setup
    state0 = state.select_columns(["id", "outdeg"]).materialize()
    n_v = state0.count()
    if n_v == 0:
        return state0.select_columns(["id"])
    base = scale // n_v
    tele = ((100 - damping_pct) * base) // 100

    if n_v <= BROADCAST_LIMIT:
        # Small-state fast path: the O(V) rank vector lives on the
        # DRIVER (same size class the broadcast joins already pull
        # driver-side); the O(E) edge table is sharded ONCE into a
        # persistent actor pool (the BSP/Pregel superstep worker — the
        # canonical "drop to raw actors" case: an iterative algorithm
        # whose per-round state the Dataset API would re-execute). Each
        # actor pre-indexes its edges against the global vertex order in
        # __init__ (searchsorted for sources, one np.unique local dest
        # encoding), so an ITERATION is just: broadcast the O(V) int64
        # share vector via ray.put, one RPC per shard computing exact
        # int64 partial destination sums (np.add.at), driver-side O(V)
        # merge — milliseconds per round instead of the fixed per-
        # Dataset-execution floor a streaming run pays 1× per iteration
        # (previously ~0.7-1.5 s/iter on this VM; the Dataset-per-
        # iteration variant remains as the large-V path below).
        vdf = state0.to_pandas().sort_values("id")
        ids = vdf["id"].to_numpy()
        od = vdf["outdeg"].to_numpy().astype(np.int64)
        r = np.full(n_v, base, dtype=np.int64)
        nz = od > 0

        refs = e.to_arrow_refs()
        # Cap the pool at the cluster's CPU count: each shard actor pins
        # one CPU, so asking for more than exist leaves actors pending
        # forever and the ray.get below deadlocks (seen on a 4-CPU test
        # session with the default 8-shard pool).
        # ... and size against CURRENTLY AVAILABLE CPUs, not the cluster
        # total: a concurrently-alive num_cpus=1 pool (another query's
        # flagger/scorer actors) would otherwise still leave shards
        # pending and deadlock the per-iteration ray.get (ADVICE r3).
        avail_cpus = max(1, int(ray.available_resources().get("CPU", 1)))
        n_actors = max(1, min(len(refs), max(2, num_buckets // 2), avail_cpus))
        ids_ref = ray.put(ids)
        actors = [
            _PageRankShard.remote(refs[i::n_actors], src, dst, ids_ref)
            for i in range(n_actors)
        ]
        try:
            for _ in range(iters):
                share = np.zeros(n_v, dtype=np.int64)
                share[nz] = r[nz] // od[nz]
                sref = ray.put(share)
                s = np.zeros(n_v, dtype=np.int64)
                for gidx, part in ray.get([a.contrib.remote(sref) for a in actors]):
                    s[gidx] += part  # gidx unique within a shard
                r = tele + (damping_pct * s) // 100
        finally:
            for a in actors:
                ray.kill(a)
        return ray.data.from_pandas(pd.DataFrame({"id": ids, "rank_scaled": r}))
    def init(t: pa.Table) -> pa.Table:
        return pa.table({
            "id": t["id"], "outdeg": t["outdeg"].cast(pa.int64()),
            "r": pa.array(np.full(len(t), base, dtype=np.int64)),
        })

    state = state0.map_batches(init, batch_format="pyarrow").materialize()

    for _ in range(iters):
        def shares_fn(t: pa.Table) -> pa.Table:
            od = t["outdeg"].to_numpy(zero_copy_only=False)
            r = t["r"].to_numpy(zero_copy_only=False)
            keep = od > 0
            return pa.table({
                "id": t["id"].filter(pa.array(keep)),
                "share": pa.array(r[keep] // od[keep]),
            })

        shares = state.map_batches(shares_fn, batch_format="pyarrow")
        contrib = join(e, shares, src, "id")
        sums = bucketed_agg(contrib, [dst], [("share", "sum", "s")], num_buckets)
        joined = join(state.select_columns(["id", "outdeg"]), sums, "id", dst,
                      how="left")

        def update(t: pa.Table) -> pa.Table:
            s = pc.coalesce(t["s"], pa.scalar(0, pa.int64())).cast(pa.int64())
            s_np = s.to_numpy(zero_copy_only=False)
            r = tele + (damping_pct * s_np) // 100
            return pa.table({
                "id": t["id"],
                "outdeg": t["outdeg"].cast(pa.int64()),
                "r": pa.array(r.astype(np.int64)),
            })

        state = joined.map_batches(update, batch_format="pyarrow").materialize()

    return state.map_batches(
        lambda t: pa.table({"id": t["id"], "rank_scaled": t["r"]}),
        batch_format="pyarrow")


def coparent_triangles(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Canonical triangles ``u < v < w`` of the co-parent graph — the
    classic triangle enumeration (community/cohesion signal; in the
    crawl graph a triangle is three parents pairwise sharing children,
    i.e. a remarriage clique). Standard wedge-then-close plan: build
    the canonical co-parent edge set (``p1 < p2``), self-join on the
    middle vertex to enumerate wedges ``u < v < w`` (ordering is free:
    both legs are already canonical), then keep the wedges whose
    closing edge ``(u, w)`` exists — a semi join against the edge set,
    size-aware via :func:`relops.join` (broadcast below
    ``BROADCAST_LIMIT``, bucketed hash shuffle above). Work is
    O(wedges), the proven bound for distributed triangle listing."""
    cp = coparent_pairs(edges, src, dst, num_buckets).map_batches(
        lambda t: pa.table({"u": t["p1"], "v": t["p2"]}),
        batch_format="pyarrow").materialize()
    left = cp.map_batches(lambda t: pa.table({"u": t["u"], "v": t["v"]}),
                          batch_format="pyarrow")
    right = cp.map_batches(lambda t: pa.table({"v2": t["u"], "w": t["v"]}),
                           batch_format="pyarrow")
    wedges = join(left, right, "v", "v2")

    def wedge_key(t: pa.Table) -> pa.Table:
        uw = pc.binary_join_element_wise(
            pc.cast(t["u"], pa.string()), pc.cast(t["w"], pa.string()), "|")
        return t.append_column("uw", uw)

    def edge_key(t: pa.Table) -> pa.Table:
        return pa.table({"uw": pc.binary_join_element_wise(
            pc.cast(t["u"], pa.string()), pc.cast(t["v"], pa.string()), "|")})

    closed = join(
        wedges.map_batches(wedge_key, batch_format="pyarrow"),
        cp.map_batches(edge_key, batch_format="pyarrow"),
        "uw", how="semi", num_partitions=num_buckets)
    return closed.map_batches(
        lambda t: pa.table({"u": t["u"], "v": t["v"], "w": t["w"]}),
        batch_format="pyarrow")


def kcore_peel(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    k: int = 2,
    rounds: int = 3,
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Fixed-round k-core peeling of the CO-PARENT graph: repeatedly
    drop vertices of degree < ``k`` (with the edges they carry) for
    ``rounds`` rounds, then return the surviving subgraph's degree
    table ``(id, deg)``. The bounded-unroll variant of k-core
    decomposition — the dense-community extractor (spam-farm / clique
    detection on a web graph; multi-marriage family nuclei here) —
    chosen over run-to-fixpoint so the oracle is a plain unrolled CTE
    chain, exactly like :func:`pagerank_scaled`'s iteration bound.

    Per round: one endpoint-count aggregation (O(E) rows in, O(V) out)
    and two size-aware semi joins of the shrinking edge set against the
    surviving vertex set (broadcast below ``BROADCAST_LIMIT``, bucketed
    shuffle above). Each round's edge set is materialized — it only
    ever shrinks, and the next round reads it twice."""
    e = coparent_pairs(edges, src, dst, num_buckets).map_batches(
        lambda t: pa.table({"u": t["p1"], "v": t["p2"]}),
        batch_format="pyarrow").materialize()

    def ends(t: pa.Table) -> pa.Table:
        return pa.table({"w": pa.chunked_array(
            [t["u"].combine_chunks(), t["v"].combine_chunks()])})

    for _ in range(rounds):
        deg = bucketed_agg(
            e.map_batches(ends, batch_format="pyarrow"),
            ["w"], [("w", "count", "deg")], num_buckets)
        keep = deg.map_batches(
            lambda t: pa.table(
                {"w": t["w"].filter(pc.greater_equal(t["deg"], k))}),
            batch_format="pyarrow")
        e = join(e, keep, "u", "w", how="semi", num_partitions=num_buckets)
        e = join(e, keep, "v", "w", how="semi", num_partitions=num_buckets).materialize()

    out = bucketed_agg(
        e.map_batches(ends, batch_format="pyarrow"),
        ["w"], [("w", "count", "deg")], num_buckets)
    return out.map_batches(
        lambda t: pa.table({"id": t["w"], "deg": t["deg"].cast(pa.int64())}),
        batch_format="pyarrow")


def assortativity_sum(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """The integer core of degree assortativity: over the DISTINCT
    directed edge set, ``(n_edges, sum_deg_product, sum_src_deg,
    sum_dst_deg)`` with ``sum_deg_product = Σ deg(src)·deg(dst)``
    (total degrees). Hub-to-hub wiring shows up as a large product sum
    — the disassortativity probe of a web/crawl graph — and keeping
    only the integer moments (the Pearson assembly is one float
    division the CALLER does) makes the table hash-exact vs SQL.

    Reuses :func:`endpoint_degrees`' one tagged aggregation; the O(V)
    degree table rides two size-aware lookup joins onto the edges; the
    final reduction is per-batch partials into a single-row sum."""
    e, state = endpoint_degrees(edges, src, dst, num_buckets)
    deg = state.map_batches(
        lambda t: pa.table({"id": t["id"], "deg": t["deg"].cast(pa.int64())}),
        batch_format="pyarrow")
    j = join(e, deg, src, "id")
    j = j.map_batches(
        lambda t: pa.table({dst: t[dst], "sdeg": t["deg"]}),
        batch_format="pyarrow")
    j2 = join(j, deg, dst, "id")

    def partial(t: pa.Table) -> pa.Table:
        s = t["sdeg"].to_numpy(zero_copy_only=False)
        d = t["deg"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_edges": np.array([len(t)], dtype=np.int64),
            "sum_deg_product": np.array([(s * d).sum()], dtype=np.int64),
            "sum_src_deg": np.array([s.sum()], dtype=np.int64),
            "sum_dst_deg": np.array([d.sum()], dtype=np.int64),
        })

    parts = j2.map_batches(partial, batch_format="pyarrow")
    from fs_crawler_ray.relops import bucketed_agg

    tagged = parts.map_batches(
        lambda t: t.append_column("__one", pa.array(np.ones(len(t), np.int64))),
        batch_format="pyarrow")
    out = bucketed_agg(
        tagged, ["__one"],
        [("n_edges", "sum", "n_edges"),
         ("sum_deg_product", "sum", "sum_deg_product"),
         ("sum_src_deg", "sum", "sum_src_deg"),
         ("sum_dst_deg", "sum", "sum_dst_deg")], 1)
    return out.map_batches(
        lambda t: t.drop_columns(["__one"]), batch_format="pyarrow")


def clustering_global(
    edges: ray.data.Dataset,
    src: str = "source",
    dst: str = "destination",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Global clustering coefficient of the co-parent graph, as the
    integer pair ``(n_wedges, n_closed)`` — the transitivity numerator
    and denominator (``C = n_closed / n_wedges`` is the one float
    division, left to the caller so the table stays hash-exact). The
    cohesion number next to :func:`coparent_triangles`: ``n_wedges =
    Σ_v C(deg(v), 2)`` over the canonical co-parent edge set and
    ``n_closed = 3 · triangles``. One degree aggregation (O(V) rows) +
    the already-O(wedges) triangle plan."""
    cp = coparent_pairs(edges, src, dst, num_buckets).map_batches(
        lambda t: pa.table({"u": t["p1"], "v": t["p2"]}),
        batch_format="pyarrow").materialize()

    def ends(t: pa.Table) -> pa.Table:
        return pa.table({"w": pa.chunked_array(
            [t["u"].combine_chunks(), t["v"].combine_chunks()])})

    deg = bucketed_agg(
        cp.map_batches(ends, batch_format="pyarrow"),
        ["w"], [("w", "count", "deg")], num_buckets)

    def wedge_partial(t: pa.Table) -> pa.Table:
        d = t["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"n_wedges": np.array([(d * (d - 1) // 2).sum()],
                                              dtype=np.int64)})

    wedges = deg.map_batches(wedge_partial, batch_format="pyarrow")
    n_wedges = int(sum(r["n_wedges"] for r in wedges.take_all()))

    n_tri = coparent_triangles(edges, src, dst, num_buckets).count()
    import pandas as pd

    return ray.data.from_pandas(pd.DataFrame(
        {"n_wedges": [n_wedges], "n_closed": [3 * n_tri]}))
