"""Conformance: the Ray Data crawl must match the single-process oracle
(reference-faithful semantics) on vertices, edges (incl. keep-first
rel_id choice), frontier, visit order, seen set and LOG counts."""

import json
import os

import pytest

from fs_crawler_ray.crawl import CrawlConfig, Crawler, crawl
from fs_crawler_ray.oracle import oracle_crawl
from fs_crawler_ray.stages.fetch import PolitenessBudget
from fs_crawler_ray.state.robots import RobotsPolicy

HOPS = 4


def _ray_tables(result):
    verts = {r["id"]: r for r in result.vertices().take_all()}
    edges = {(r["source"], r["destination"]): r for r in result.edges().take_all()}
    frontier = {r["id"] for r in result.frontier().take_all()}
    return verts, edges, frontier


def _assert_match(result, oracle):
    verts, edges, frontier = _ray_tables(result)
    assert set(verts) == set(oracle.vertices)
    for vid, ov in oracle.vertices.items():
        rv = verts[vid]
        for k in ("color", "surname", "given_name", "iteration", "lifespan", "living"):
            assert rv[k] == ov[k], (vid, k, rv[k], ov[k])
    assert set(edges) == set(oracle.edges)
    for key, oe in oracle.edges.items():
        re_ = edges[key]
        assert re_["id"] == oe["id"], (key, re_["id"], oe["id"])  # keep-first rel_id
        assert re_["hop"] == oe["hop"]
        assert re_["type"] == oe["type"]
    assert frontier == oracle.frontier
    # LOG counts per hop
    for row, orow in zip(result.log, oracle.log):
        for k in ("iteration", "vertices", "frontier", "edges", "spanning_edges", "frontier_edges"):
            assert row[k] == orow[k], (k, row[k], orow[k])


@pytest.fixture(scope="module")
def crawled(small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl_out"))
    cfg = CrawlConfig(hops=HOPS, num_shards=4, fetch_concurrency=2, num_buckets=8)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, HOPS)
    return result, oracle


def test_crawl_matches_oracle(crawled):
    result, oracle = crawled
    _assert_match(result, oracle)
    assert len(oracle.vertices) > 20  # the crawl actually expanded


def test_visit_order_matches_oracle(crawled):
    """Canonical visit order = sorted processing ids per hop."""
    result, oracle = crawled
    oracle_by_hop = {}
    for vid in oracle.visit_order:
        oracle_by_hop.setdefault(oracle.vertices[vid]["iteration"], []).append(vid)
    for hop in result.hops_run:
        attempted = sorted(r["id"] for r in result.processing(hop).take_all())
        fetched = [i for i in attempted if i in oracle.vertices and oracle.vertices[i]["iteration"] == hop]
        assert fetched == oracle_by_hop.get(hop, [])


def test_crawl_deterministic(small_corpus, tmp_path_factory, crawled):
    result, _ = crawled
    out2 = str(tmp_path_factory.mktemp("crawl_out2"))
    cfg = CrawlConfig(hops=HOPS, num_shards=2, fetch_concurrency=3, num_buckets=4)
    result2 = crawl(small_corpus, small_corpus.seeds, out2, cfg)
    v1, e1, f1 = _ray_tables(result)
    v2, e2, f2 = _ray_tables(result2)
    assert v1 == v2
    assert e1 == e2
    assert f1 == f2


def test_resume_is_identical(small_corpus, tmp_path_factory, crawled):
    """Kill after hop 2, resume → byte-identical final tables."""
    full, _ = crawled
    out = str(tmp_path_factory.mktemp("crawl_resume"))
    cfg2 = CrawlConfig(hops=2, num_shards=4, num_buckets=8)
    crawl(small_corpus, small_corpus.seeds, out, cfg2)
    # simulate a crash mid-hop-2: leave a partial hop dir without log.json
    partial = os.path.join(out, "hop=2")
    os.makedirs(os.path.join(partial, "vertices.parquet"), exist_ok=True)
    cfg4 = CrawlConfig(hops=HOPS, num_shards=4, num_buckets=8)
    resumed = crawl(small_corpus, small_corpus.seeds, out, cfg4, resume=True)
    assert resumed.hops_run == list(range(HOPS))
    vf, ef, ff = _ray_tables(full)
    vr, er, fr = _ray_tables(resumed)
    assert vf == vr
    assert ef == er
    assert ff == fr
    assert [r["vertices"] for r in resumed.log] == [r["vertices"] for r in full.log]


def test_missing_docs_crawl(missing_doc_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl_missing"))
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=4)
    result = crawl(missing_doc_corpus, missing_doc_corpus.seeds, out, cfg)
    oracle = oracle_crawl(missing_doc_corpus.documents_path, missing_doc_corpus.seeds, 3)
    _assert_match(result, oracle)


def test_robots_gating(small_corpus, tmp_path_factory):
    robots = RobotsPolicy(n_hosts=64, disallow_every=5)
    out = str(tmp_path_factory.mktemp("crawl_robots"))
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=4, robots=robots)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3, robots=robots)
    _assert_match(result, oracle)
    # gating actually blocked something
    lineage = json.load(open(os.path.join(out, "hop=1", "lineage.json")))
    plain = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3)
    assert len(oracle.vertices) < len(plain.vertices)
    assert lineage["fetch"].get("robots_blocked", 0) >= 0


def test_frontier_budget_priority_queue(small_corpus, tmp_path_factory):
    """Budgeted (priority-queue) frontier: ≤K ids processed per hop,
    remainder carries over with original priority; matches the budgeted
    oracle exactly."""
    out = str(tmp_path_factory.mktemp("crawl_budget"))
    cfg = CrawlConfig(hops=8, num_shards=2, num_buckets=4, frontier_budget=25)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 8,
                          frontier_budget=25)
    _assert_match(result, oracle)
    for hop in result.hops_run:
        assert result.processing(hop).count() <= 25
    # budget actually bit: the unbudgeted crawl resolves more in 8 hops
    plain = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 8)
    assert len(oracle.vertices) < len(plain.vertices)


def test_invalid_seed_rejected(small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl_bad"))
    with pytest.raises(ValueError):
        crawl(small_corpus, ["not-an-id"], out, CrawlConfig(hops=1))


def test_crawl_past_exhaustion(small_corpus, tmp_path_factory):
    """More hops than the forest depth → later hops are empty, no crash."""
    out = str(tmp_path_factory.mktemp("crawl_deep"))
    cfg = CrawlConfig(hops=25, num_shards=2, num_buckets=4)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 25)
    verts, _, frontier = _ray_tables(result)
    assert set(verts) == set(oracle.vertices)
    assert frontier == oracle.frontier


def test_politeness_token_bucket_waits():
    """Unit: same host hit beyond the burst must wait ≈1/rate."""
    import time

    from fs_crawler_ray.stages.fetch import TokenBuckets

    b = TokenBuckets(PolitenessBudget(rate_per_host=50.0, burst=1.0, n_hosts=4))
    assert b.acquire(0, 1) == 0.0  # burst token
    t0 = time.monotonic()
    waited = b.acquire(0, 1)
    assert waited > 0
    assert time.monotonic() - t0 >= 0.015  # ≥ 1/50 s


def test_politeness_budget_preserves_results(small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("crawl_polite"))
    budget = PolitenessBudget(rate_per_host=200.0, burst=1.0, n_hosts=4)
    cfg = CrawlConfig(hops=2, num_shards=2, num_buckets=4, fetch_concurrency=1,
                      fetch_batch_size=20, politeness=budget)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 2)
    verts, _, _ = _ray_tables(result)
    assert set(verts) == set(oracle.vertices)  # politeness changes timing, not results


def test_branch_checkpoint_retry_idempotent(tmp_path):
    """A task retried after its side-write landed must overwrite the
    same part file (content-derived name), not duplicate rows."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from fs_crawler_ray.crawl import BranchCheckpoint
    from fs_crawler_ray.model import FRONTIER_SCHEMA

    d = str(tmp_path / "proc")
    os.makedirs(d)
    ckpt = BranchCheckpoint(d, FRONTIER_SCHEMA)
    batch = pa.table(
        {"id": ["A", "B", "C"], "priority": [0, 0, 0], "hop": [0, 0, 0]},
        schema=FRONTIER_SCHEMA,
    )
    out1 = ckpt(batch)
    out2 = ckpt(batch)  # simulated retry of the same task
    assert out1 == batch and out2 == batch  # pure passthrough
    parts = [f for f in os.listdir(d) if f.endswith(".parquet")]
    assert len(parts) == 1  # overwrote, not duplicated
    assert pads.dataset(d).to_table().num_rows == 3
    # a DIFFERENT batch lands in its own part
    batch2 = pa.table(
        {"id": ["D"], "priority": [1], "hop": [1]}, schema=FRONTIER_SCHEMA
    )
    ckpt(batch2)
    assert pads.dataset(d).to_table().num_rows == 4


@pytest.mark.parametrize("n_files", [3, 30, 49])
def test_read_parts_equals_one_read(tmp_path, n_files):
    """A checkpoint read of more part files than Ray fetches footers for
    in the driver is a union of smaller reads: same rows, same columns,
    the requested block count kept (at least one block per read)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data.datasource.parquet_meta_provider import PARALLELIZE_META_FETCH_THRESHOLD

    from fs_crawler_ray.crawl import FOOTER_TASKS_ABOVE, _read_parts

    assert FOOTER_TASKS_ABOVE == PARALLELIZE_META_FETCH_THRESHOLD
    files = []
    for i in range(n_files):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(pa.table({"source": [f"S{i}-{j}" for j in range(3)],
                                 "destination": [f"D{i}"] * 3,
                                 "hop": [i] * 3}), files[-1])
    want = sorted((f"S{i}-{j}", f"D{i}") for i in range(n_files) for j in range(3))
    ds = _read_parts(files, columns=["source", "destination"])
    assert ds.columns() == ["source", "destination"]
    assert sorted((r["source"], r["destination"]) for r in ds.take_all()) == want
    n_reads = -(-n_files // FOOTER_TASKS_ABOVE)
    ds = _read_parts(files, override_num_blocks=2 * n_reads).materialize()
    assert ds.count() == 3 * n_files
    assert ds.num_blocks() == 2 * n_reads


def test_crawl_configures_data_context(crawled):
    """Engine-level executor config (VERDICT r4 item 2): constructing a
    Crawler — any production entry point, not just bench.py — must turn
    Ray Data's per-operator resource reservation OFF (it halves map
    concurrency upstream of shuffles; see fs_crawler_ray.engine)."""
    from ray.data import DataContext

    # the `crawled` fixture ran a full crawl in this process
    assert DataContext.get_current().op_resource_reservation_enabled is False


def test_configure_data_context_env_override(monkeypatch):
    from ray.data import DataContext

    from fs_crawler_ray.engine import configure_data_context

    ctx = DataContext.get_current()
    before = ctx.op_resource_reservation_enabled
    try:
        monkeypatch.setenv("FSRAY_RESERVATION", "1")
        configure_data_context()
        assert ctx.op_resource_reservation_enabled is True
        monkeypatch.delenv("FSRAY_RESERVATION")
        configure_data_context()
        assert ctx.op_resource_reservation_enabled is False
        configure_data_context(reservation=True)  # explicit beats env
        assert ctx.op_resource_reservation_enabled is True
    finally:
        ctx.op_resource_reservation_enabled = before


def test_final_mode_fused_classification_matches_full(small_corpus, tmp_path_factory):
    """The fused final classification (classify-only rows riding the
    last hop's shuffle + sink-side classification of the hop's own
    edges) must produce the SAME last-hop within/spanning/frontier
    counts as the reference-faithful 'full' mode."""
    cfg_full = CrawlConfig(hops=3, num_shards=2, num_buckets=8,
                           log_edge_classification="full")
    cfg_final = CrawlConfig(hops=3, num_shards=2, num_buckets=8,
                            log_edge_classification="final")
    out_full = str(tmp_path_factory.mktemp("cl_full"))
    out_final = str(tmp_path_factory.mktemp("cl_final"))
    r_full = crawl(small_corpus, small_corpus.seeds, out_full, cfg_full)
    r_final = crawl(small_corpus, small_corpus.seeds, out_final, cfg_final)
    last_full, last_final = r_full.log[-1], r_final.log[-1]
    for k in ("edges", "spanning_edges", "frontier_edges", "vertices", "frontier"):
        assert last_final[k] == last_full[k], (k, last_final[k], last_full[k])
    # earlier hops skip classification in final mode
    assert all(row["edges"] is None for row in r_final.log[:-1])


def test_final_mode_fused_classification_exhausted_last_hop(small_corpus, tmp_path_factory):
    """Fused final classification when the last hop fetches NOTHING
    (crawl past exhaustion): the classify-only rows of earlier hops
    still ride the (otherwise empty) last execution, so the final log
    row's counts must equal full mode's."""
    out_a = str(tmp_path_factory.mktemp("cl_exh_final"))
    out_b = str(tmp_path_factory.mktemp("cl_exh_full"))
    r_final = crawl(small_corpus, small_corpus.seeds, out_a,
                    CrawlConfig(hops=25, num_shards=2, num_buckets=4,
                                log_edge_classification="final"))
    r_full = crawl(small_corpus, small_corpus.seeds, out_b,
                   CrawlConfig(hops=25, num_shards=2, num_buckets=4,
                               log_edge_classification="full"))
    for k in ("edges", "spanning_edges", "frontier_edges"):
        assert r_final.log[-1][k] == r_full.log[-1][k], k


def test_final_mode_fused_with_frontier_budget(small_corpus, tmp_path_factory):
    """Budget-mode carryover rows and classify-only rows share the last
    hop's shuffle — counts must still match full mode."""
    cfg = dict(hops=6, num_shards=2, num_buckets=4, frontier_budget=40)
    out_a = str(tmp_path_factory.mktemp("cl_bud_final"))
    out_b = str(tmp_path_factory.mktemp("cl_bud_full"))
    r_final = crawl(small_corpus, small_corpus.seeds, out_a,
                    CrawlConfig(log_edge_classification="final", **cfg))
    r_full = crawl(small_corpus, small_corpus.seeds, out_b,
                   CrawlConfig(log_edge_classification="full", **cfg))
    for k in ("edges", "spanning_edges", "frontier_edges"):
        assert r_final.log[-1][k] == r_full.log[-1][k], k


def test_final_mode_resume_preserves_fused_counts(small_corpus, tmp_path_factory):
    """Crash before the last hop, resume in 'final' mode: the fused
    classification re-reads the completed hops' edges and must produce
    the same last-hop counts as an uninterrupted final-mode crawl."""
    out_full = str(tmp_path_factory.mktemp("fin_res_a"))
    cfg4 = CrawlConfig(hops=4, num_shards=2, num_buckets=8,
                       log_edge_classification="final")
    base = crawl(small_corpus, small_corpus.seeds, out_full, cfg4)
    # run only 2 hops, then resume to 4 with final mode
    out_res = str(tmp_path_factory.mktemp("fin_res_b"))
    crawl(small_corpus, small_corpus.seeds, out_res,
          CrawlConfig(hops=2, num_shards=2, num_buckets=8,
                      log_edge_classification="final"))
    resumed = crawl(small_corpus, small_corpus.seeds, out_res, cfg4, resume=True)
    for k in ("edges", "spanning_edges", "frontier_edges", "vertices", "frontier"):
        assert resumed.log[-1][k] == base.log[-1][k], (
            k, resumed.log[-1][k], base.log[-1][k])


# ----------------------------------------------------------------------
# session-resident state actors (fs_crawler_ray.state.resident)
# ----------------------------------------------------------------------
def _first_lineage(out: str) -> dict:
    with open(os.path.join(out, "hop=0", "lineage.json")) as f:
        return json.load(f)


def test_second_crawl_reuses_actors(small_corpus, tmp_path_factory, empty_free_lists):
    """Two crawls in one session, different seeds, exact then
    probabilistic membership: both equal the oracle, and the second
    runs on the first one's (reset) actors."""
    seeds_b = ["0000-001", "0000-010", "ZZZZ-999"]  # the last is not in the corpus
    for i, (seeds, mode) in enumerate([(small_corpus.seeds, "exact"),
                                       (seeds_b, "probabilistic")]):
        out = str(tmp_path_factory.mktemp(f"pool_{mode}"))
        cfg = CrawlConfig(hops=3, num_shards=4, num_buckets=8, membership_mode=mode)
        result = crawl(small_corpus, seeds, out, cfg)
        _assert_match(result, oracle_crawl(small_corpus.documents_path, seeds, 3))
        actors = _first_lineage(out)["actors"]
        want = {"reused": 0, "started": 5} if i == 0 else {"reused": 5, "started": 0}
        assert {k: actors[k] for k in want} == want
        assert actors["acquire_s"] >= 0


def test_killed_idle_actor_replaced_then_resume(small_corpus, tmp_path_factory,
                                                empty_free_lists, kill_shard, crawled):
    """A pooled shard killed while idle is replaced by a fresh one, and
    the next crawl (a resume) still equals the full crawl."""
    from fs_crawler_ray.state import resident

    full, _ = crawled
    out = str(tmp_path_factory.mktemp("pool_resume"))
    crawl(small_corpus, small_corpus.seeds, out,
          CrawlConfig(hops=2, num_shards=4, num_buckets=8))
    kill_shard(resident._free_list("MembershipShard")[-1])
    resumed = crawl(small_corpus, small_corpus.seeds, out,
                    CrawlConfig(hops=HOPS, num_shards=4, num_buckets=8), resume=True)
    with open(os.path.join(out, "hop=2", "lineage.json")) as f:
        actors = json.load(f)["actors"]  # the first lineage the resume wrote
    assert (actors["reused"], actors["started"]) == (4, 1)
    assert _ray_tables(resumed) == _ray_tables(full)
    assert [r["vertices"] for r in resumed.log] == [r["vertices"] for r in full.log]


def test_raised_crawl_kills_its_actors(small_corpus, tmp_path_factory, empty_free_lists):
    import ray

    from fs_crawler_ray.state import resident

    c = Crawler(small_corpus, str(tmp_path_factory.mktemp("pool_raise")),
                CrawlConfig(hops=1, num_shards=2, num_buckets=4))
    with pytest.raises(ValueError):
        c.crawl(["not-an-id"])
    c.shutdown()
    held = c.sm.actors + [c.metrics]
    idle = {a._actor_id for n in ("MembershipShard", "MetricsActor")
            for a in resident._free_list(n)}
    assert not idle & {a._actor_id for a in held}
    for a in held:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(a.snapshot.remote() if a is c.metrics else a.stats.remote(), timeout=60)


def test_stale_metrics_delta_is_dropped(small_corpus, tmp_path_factory, empty_free_lists):
    """A late fire-and-forget delta sent with an earlier crawl's epoch
    does not reach the next crawl's lineage fetch counters."""
    cfg = CrawlConfig(hops=1, num_shards=2, num_buckets=4)
    first = Crawler(small_corpus, str(tmp_path_factory.mktemp("pool_m1")), cfg)
    first.crawl(small_corpus.seeds)
    first.shutdown()
    out = str(tmp_path_factory.mktemp("pool_m2"))
    second = Crawler(small_corpus, out, cfg)
    assert second.metrics._actor_id == first.metrics._actor_id
    assert second.metrics_epoch != first.metrics_epoch
    first.metrics.increment.remote({"ids_attempted": 1e6}, 0, first.metrics_epoch)
    second.crawl(small_corpus.seeds)
    second.shutdown()
    assert _first_lineage(out)["fetch"]["ids_attempted"] == len(set(small_corpus.seeds))
