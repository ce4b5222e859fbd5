"""Floor probe and replay probes, run only in a traced run.

Each probe calls the engine's public functions directly on data taken
from the run's own crawl output, inside a span, so a layer's cost can be
read without the rest of the hop around it.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import gate
from workloads import (NUM_CPUS, WORKLOADS, budget_floor_s, crawl_config, crawl_seeds,
                       politeness, robots_policy)

#: the sizing of ROADMAP's in-process membership measurements (200k
#: 8-byte person ids, one shard)
KERNEL_IDS = 200_000
KERNEL_CAPACITY = 1 << 18


def fetch_block(n_ids: int) -> int:
    """The direct-fetch crawl's fetch-block size for a hop of ``n_ids``
    ids (the same formula as the crawl's ``_fetch_rpb``)."""
    return min(32_768, max(4096, n_ids // (2 * NUM_CPUS) + 1))


def _median_s(fn, reps: int = 3) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def floor_probe(run) -> None:
    """A 1-id hop on a warm Crawler: crawl twice, time the second."""
    from fs_crawler_ray.crawl import Crawler

    c = Crawler(run.info, os.path.join(run.run_dir, "floor"), crawl_config(run.wl, hops=1))
    try:
        c.crawl([run.seeds[0]])
        t0 = time.perf_counter()
        with run.tracer.span("crawl.floor_probe"):
            c.crawl([run.seeds[0]])
        run.layer["crawl.floor_s"] = (time.perf_counter() - t0, "s")
    finally:
        c.shutdown()


def pool_start_probe(run) -> None:
    """The polite probe's FetchPool, constructed until every fetch actor
    answers."""
    from fs_crawler_ray.state.fetch_service import FetchPool

    wl = WORKLOADS["polite_probe"]
    t0 = time.perf_counter()
    with run.tracer.span("fetch.pool_start"):
        pool = FetchPool(run.info.documents_path, size=wl.fetch_concurrency,
                         politeness=politeness(wl), robots=robots_policy(wl))
        pool.stats()
    run.layer["fetch.pool_start_s"] = (time.perf_counter() - t0, "s")
    pool.shutdown()


def polite_probe(run) -> None:
    """One polite crawl, checked against the oracle: the only run of the
    host-routed FetchPool and its token buckets."""
    from fs_crawler_ray.crawl import crawl

    wl = WORKLOADS["polite_probe"]
    seeds = crawl_seeds(wl, run.args.seed, run.doc_ids)
    out = os.path.join(run.run_dir, "polite")

    def probe():
        t0 = time.perf_counter()
        with run.tracer.span("fetch.polite_crawl"):
            crawl(run.info, seeds, out, crawl_config(wl))
        wall = time.perf_counter() - t0
        f = gate.lineage_summary(out, wall)["fetch"]
        attempted = f.get("ids_attempted", 0.0)
        floor = budget_floor_s(wl, len(seeds))
        run.layer.update({
            "fetch.polite_urls_per_s": (attempted / wall, "1/s"),
            "fetch.requests": (f.get("requests", 0.0), "count"),
            "fetch.ids_attempted": (attempted, "count"),
            "fetch.fetched_over_attempted": (f.get("fetched", 0.0) / attempted if attempted
                                             else 0.0, "ratio"),
            "fetch.robots_blocked": (f.get("robots_blocked", 0.0), "count"),
            "fetch.politeness_wait_s": (f.get("politeness_wait_s", 0.0), "s"),
            "fetch.budget_floor_s": (floor, "s"),
            "fetch.overhead_s": (wall - floor, "s"),
        })
        return run.check_output(out, wl)

    run._attempt("polite_probe", probe)


def membership_replay(run, ids: np.ndarray, edge_keys: np.ndarray) -> None:
    """The crawl's own ids and edge keys replayed into fresh shards of the
    workload's mode and shard count, in fetch-block sized batches."""
    import ray

    from fs_crawler_ray.ids import shard_of
    from fs_crawler_ray.state.membership import ShardedMembership

    k = run.config.num_shards
    sm = ShardedMembership.create(num_shards=k, capacity_per_shard=run.wl.shard_capacity,
                                  mode=run.wl.membership_mode)
    sm.stats()  # shard actors are up before anything is timed
    block = fetch_block(len(ids))
    rpcs = keys = 0

    def replay(fn, name: str, arr: np.ndarray) -> float:
        nonlocal rpcs, keys
        parts = [arr[i:i + block] for i in range(0, len(arr), block)]
        rpcs += sum(len(np.unique(shard_of(p, k))) for p in parts)
        keys += len(arr)
        t0 = time.perf_counter()
        for p in parts:
            fn(name, p)
        return time.perf_counter() - t0

    try:
        with run.tracer.span("membership.replay"):
            t_check = (replay(sm.check_and_add, "processing", ids)
                       + replay(sm.check_and_add_deferred, "edges", edge_keys))
            t_add = replay(sm.add, "visited", ids)
            t_contains = replay(sm.contains, "visited", ids)
            t0 = time.perf_counter()
            sm.commit("edges")
            t_commit = time.perf_counter() - t0
            rpcs += k
    finally:
        for a in sm.actors:
            ray.kill(a)
    us = 1e6
    run.layer.update({
        "membership.rpcs": (rpcs, "count"),
        "membership.keys": (keys, "count"),
        "membership.check_and_add_us_per_key": (t_check * us / max(1, len(ids) + len(edge_keys)),
                                                "us"),
        "membership.add_us_per_key": (t_add * us / max(1, len(ids)), "us"),
        "membership.contains_us_per_key": (t_contains * us / max(1, len(ids)), "us"),
        "membership.commit_s": (t_commit, "s"),
    })


def membership_kernels(run) -> None:
    """In-process shard state and filter kernels over 200k ids of the
    corpus's id space (the corpus's own ids come first)."""
    from fs_crawler_ray.ids import as_key_array, indices_to_pids, stable_hash64
    from fs_crawler_ray.state.membership import BloomFilter, CuckooFilter, MembershipShardState

    keys = as_key_array(pa.array(indices_to_pids(np.arange(KERNEL_IDS)).tolist()))
    ms = 1e3
    with run.tracer.span("membership.kernels"):
        for mode in ("exact", "probabilistic"):
            def add(mode=mode):
                MembershipShardState(KERNEL_CAPACITY, mode).add("v", keys)

            full = MembershipShardState(KERNEL_CAPACITY, mode)
            full.add("v", keys)
            run.layer[f"membership.state_add_ms.{mode}"] = (_median_s(add) * ms, "ms")
            run.layer[f"membership.state_contains_ms.{mode}"] = (
                _median_s(lambda: full.contains("v", keys)) * ms, "ms")
        h1 = stable_hash64(keys, seed=MembershipShardState.H1_SEED)
        h2 = stable_hash64(keys, seed=MembershipShardState.H2_SEED)
        run.layer["membership.bloom_add_ms"] = (
            _median_s(lambda: BloomFilter(KERNEL_CAPACITY).add(h1, h2)) * ms, "ms")
        run.layer["membership.cuckoo_add_ms"] = (
            _median_s(lambda: CuckooFilter(KERNEL_CAPACITY).add_h(h1)) * ms, "ms")
        cf = CuckooFilter(KERNEL_CAPACITY)
        cf.add_h(h1)
        run.layer["membership.cuckoo_contains_ms"] = (_median_s(lambda: cf.contains_h(h1)) * ms,
                                                      "ms")


def id_kernels(run, id_arr: pa.Array) -> None:
    """Key conversion and hashing over the crawl's vertex id set."""
    from fs_crawler_ray.ids import as_key_array, stable_hash64

    with run.tracer.span("ids.kernels"):
        keys = as_key_array(id_arr)
        run.layer["ids.as_key_array_ms"] = (_median_s(lambda: as_key_array(id_arr)) * 1e3, "ms")
        run.layer["ids.stable_hash64_ms"] = (_median_s(lambda: stable_hash64(keys)) * 1e3, "ms")


def fetch_parse_distinct(run, ids: np.ndarray) -> None:
    """Range-store fetch, parse and candidate distinct over the crawl's
    fetched ids, at the crawl's fetch-block size and bucket count."""
    import ray.data

    from fs_crawler_ray.relops import distinct
    from fs_crawler_ray.sources.doc_table import open_range_store
    from fs_crawler_ray.stages.parse import parse_documents

    block = fetch_block(len(ids))
    open_range_store.cache_clear()  # a cold store, as a fresh worker has
    t0 = time.perf_counter()
    with run.tracer.span("doc_table.fetch"):
        store = open_range_store(run.info.documents_path, "doc_id")
        docs = [store.fetch(ids[i:i + block])[0] for i in range(0, len(ids), block)]
    fetch_s = time.perf_counter() - t0
    n_docs = sum(len(d) for d in docs)
    docs = [d.append_column("hop", pa.array(np.zeros(len(d), np.int32))) for d in docs]
    t0 = time.perf_counter()
    with run.tracer.span("parse.parse_documents"):
        recs = [parse_documents(d) for d in docs]
    parse_s = time.perf_counter() - t0
    n_recs = sum(len(r) for r in recs)
    cands = pa.concat_tables(r.filter(pc.equal(r["rec_kind"], "cand")).select(["cand_id"])
                             for r in recs)
    # the crawl's shuffle width for a hop of this many input ids
    buckets = int(max(2, min(64, (len(ids) * 10) // 5000 + 1)))
    ds = ray.data.from_arrow(cands, override_num_blocks=max(1, len(docs)))
    t0 = time.perf_counter()
    with run.tracer.span("relops.distinct"):
        distinct(ds, ["cand_id"], num_buckets=buckets).count()
    run.layer.update({
        "doc_table.fetch_s": (fetch_s, "s"),
        "doc_table.rows_per_s": (n_docs / fetch_s if fetch_s else 0.0, "1/s"),
        "parse.docs_per_s": (n_docs / parse_s if parse_s else 0.0, "1/s"),
        "parse.records_per_doc": (n_recs / n_docs if n_docs else 0.0, "ratio"),
        "relops.distinct_s": (time.perf_counter() - t0, "s"),
    })


def run_all(run) -> None:
    from fs_crawler_ray.ids import as_key_array

    out = gate.read_output(run.rep_out)
    id_arr = pa.array(sorted(out["vertices"]), pa.string())
    ids = as_key_array(id_arr)
    edge_keys = as_key_array(pc.binary_join_element_wise(
        pa.array([s for s, _ in out["edges"]], pa.string()),
        pa.array([d for _, d in out["edges"]], pa.string()), "|"))
    floor_probe(run)
    pool_start_probe(run)
    polite_probe(run)
    membership_replay(run, ids, edge_keys)
    membership_kernels(run)
    id_kernels(run, id_arr)
    fetch_parse_distinct(run, ids)
