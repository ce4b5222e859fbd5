"""Conformance: the Ray Data crawl must match the single-process oracle
(reference-faithful semantics) on vertices, edges (incl. keep-first
rel_id choice), frontier, visit order, seen set and LOG counts."""

import json
import os

import pyarrow as pa
import pytest
import ray

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


def test_resume_is_identical(small_corpus, tmp_path_factory, crawled, small_blocks):
    """Kill after hop 2, resume → byte-identical final tables. The
    checkpoint reads go at 16 rows per block, so the resume rebuild and
    the shuffles after it run over several blocks."""
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
    assert resumed.vertices().materialize().num_blocks() > 1
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
    _assert_fetch_counts(result)


def _assert_fetch_counts(result, robots: RobotsPolicy | None = None) -> list[int]:
    """Each hop's lineage fetch counters against what the hop wrote:
    ``ids_attempted`` is its ``processing.parquet`` rows, ``fetched``
    its ``vertices.parquet`` rows, ``missing + robots_blocked`` the
    difference, and ``robots_blocked`` the processing ids ``robots``
    disallows. Returns each hop's ``robots_blocked``."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.ids import as_key_array

    blocked = []
    for hop in result.hops_run:
        with open(os.path.join(result.hop_dir(hop), "lineage.json")) as f:
            fetch = json.load(f)["fetch"]
        proc = pq.read_table(os.path.join(result.hop_dir(hop), "processing.parquet"))["id"]
        n_vertices = pq.read_table(os.path.join(result.hop_dir(hop), "vertices.parquet")).num_rows
        assert fetch["ids_attempted"] == len(proc), hop
        assert fetch["fetched"] == n_vertices, hop
        assert fetch["missing"] + fetch["robots_blocked"] == len(proc) - n_vertices, hop
        want = 0 if robots is None else int((~robots.allowed_mask(as_key_array(proc))).sum())
        assert fetch["robots_blocked"] == want, hop
        blocked.append(want)
    return blocked


def _names_a_missing_doc(corpus) -> tuple[str, str]:
    """The first present doc (by id) whose spans name an id with no
    document, and that id."""
    from fs_crawler_ray.model import SpanKind
    from fs_crawler_ray.oracle import load_docs

    docs = load_docs(corpus.documents_path)
    for doc_id in sorted(docs):
        for span in docs[doc_id]:
            if span["kind"] == SpanKind.COUPLE:
                named = [span["text"]]
            elif span["kind"] == SpanKind.CHILD_PARENT:
                named = span["text"].split("|")[:2]
            else:
                continue
            for other in named:
                if other not in docs:
                    return doc_id, other
    raise AssertionError("the corpus names no missing doc")


@pytest.mark.parametrize("budget", [None, 2])
def test_candidate_missing_in_same_hop(missing_doc_corpus, tmp_path_factory, budget):
    """A hop's frontier holds a present doc and a missing doc the
    present one names: the missing id is in the hop's processing set,
    so it must not enter the next frontier (it may re-enter later).
    Only the sink's miss filter drops it — it is never in VISITED."""
    import pyarrow.parquet as pq

    present, missing = _names_a_missing_doc(missing_doc_corpus)
    seeds = [present, missing]
    out = str(tmp_path_factory.mktemp("crawl_same_hop_miss"))
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=4, frontier_budget=budget)
    result = crawl(missing_doc_corpus, seeds, out, cfg)
    oracle = oracle_crawl(missing_doc_corpus.documents_path, seeds, 3, frontier_budget=budget)
    _assert_match(result, oracle)
    hop0_frontier = pq.read_table(os.path.join(result.hop_dir(0), "frontier.parquet"))
    assert 0 < len(hop0_frontier) and missing not in hop0_frontier["id"].to_pylist()
    _assert_fetch_counts(result)


def test_robots_gating(small_corpus, tmp_path_factory):
    robots = RobotsPolicy(n_hosts=64, disallow_every=5)
    out = str(tmp_path_factory.mktemp("crawl_robots"))
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=4, robots=robots)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3, robots=robots)
    _assert_match(result, oracle)
    # gating actually blocked something, and the crawl counted it
    plain = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3)
    assert len(oracle.vertices) < len(plain.vertices)
    assert max(_assert_fetch_counts(result, robots)) > 0


def _frontier_in_part_order(result, hop: int) -> list[tuple[int, str]]:
    """A hop's frontier rows as ``(priority, id)``, its part files
    concatenated in the order the next hop reads them."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import _expand_parquet

    files = _expand_parquet([os.path.join(result.hop_dir(hop), "frontier.parquet")])
    rows = pa.concat_tables([pq.read_table(f) for f in files])
    return list(zip(rows["priority"].to_pylist(), rows["id"].to_pylist()))


def _assert_budget_cuts(result, budget: int) -> None:
    """Every hop after the first fetched exactly the first ``budget``
    ids of the previous frontier in ``(priority, id)`` order, which is
    the order of its part files."""
    for hop in result.hops_run[1:]:
        prev = _frontier_in_part_order(result, hop - 1)
        assert prev == sorted(prev), hop
        processed = sorted(r["id"] for r in result.processing(hop).take_all())
        assert processed == sorted(i for _, i in prev[:budget]), hop


def test_frontier_budget_priority_queue(small_corpus, tmp_path_factory):
    """Budgeted (priority-queue) frontier: ≤K ids processed per hop,
    remainder carries over with original priority; matches the budgeted
    oracle exactly. Each frontier's parts, in name order, are in
    ``(priority, id)`` order, and each hop fetched the first K of them."""
    out = str(tmp_path_factory.mktemp("crawl_budget"))
    cfg = CrawlConfig(hops=8, num_shards=2, num_buckets=4, frontier_budget=25)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 8,
                          frontier_budget=25)
    _assert_match(result, oracle)
    for hop in result.hops_run:
        assert result.processing(hop).count() <= 25
    _assert_budget_cuts(result, 25)
    _assert_fetch_counts(result)
    # some frontier held carried-over ids beside new ones
    assert any(len({p for p, _ in _frontier_in_part_order(result, h)}) > 1
               for h in result.hops_run)
    # budget actually bit: the unbudgeted crawl resolves more in 8 hops
    plain = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 8)
    assert len(oracle.vertices) < len(plain.vertices)


def test_budget_smaller_than_seeds(small_corpus, tmp_path_factory):
    """A budget below the seed count: hop 0 fetches the first seeds in id
    order and the rest carry over at priority 0; the crawl equals the
    budgeted oracle."""
    from fs_crawler_ray.oracle import load_docs

    seeds = sorted(load_docs(small_corpus.documents_path))[::30]
    out = str(tmp_path_factory.mktemp("crawl_budget_seeds"))
    cfg = CrawlConfig(hops=4, num_shards=2, num_buckets=4, frontier_budget=4)
    result = crawl(small_corpus, seeds, out, cfg)
    _assert_match(result, oracle_crawl(small_corpus.documents_path, seeds, 4,
                                       frontier_budget=4))
    assert sorted(r["id"] for r in result.processing(0).take_all()) == seeds[:4]
    carried = [(p, i) for p, i in _frontier_in_part_order(result, 0) if i in seeds]
    assert carried == [(0, i) for i in seeds[4:]]
    _assert_budget_cuts(result, 4)


def test_budget_resume_is_identical(small_corpus, tmp_path_factory, small_blocks):
    """A budget crawl killed in hop 2 (its log.json removed) and resumed
    writes what an uninterrupted budget crawl writes, and equals the
    budgeted oracle; the reads go at 16 rows per block. The budget cuts
    the frontier the resumed hop reads."""
    cfg = CrawlConfig(hops=HOPS, num_shards=2, num_buckets=4, frontier_budget=4)
    full = crawl(small_corpus, small_corpus.seeds,
                 str(tmp_path_factory.mktemp("budget_full")), cfg)
    out = str(tmp_path_factory.mktemp("budget_resume"))
    crawl(small_corpus, small_corpus.seeds, out, cfg)
    os.remove(os.path.join(out, "hop=2", "log.json"))
    resumed = crawl(small_corpus, small_corpus.seeds, out, cfg, resume=True)
    assert resumed.hops_run == list(range(HOPS))
    assert _ray_tables(resumed) == _ray_tables(full)
    assert resumed.log == [{**r, "duration": resumed.log[i]["duration"]}
                           for i, r in enumerate(full.log)]
    _assert_match(resumed, oracle_crawl(small_corpus.documents_path, small_corpus.seeds,
                                        HOPS, frontier_budget=4))
    assert resumed.log[1]["frontier"] > 4
    _assert_budget_cuts(resumed, 4)
    _assert_fetch_counts(resumed)


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_several_fetch_blocks_per_hop(small_corpus, tmp_path_factory, small_fetch_blocks, mode):
    """Hops of several fetch blocks (a 16-id floor) and so several
    shuffle partitions and sink calls: a budget crawl killed in hop 2
    and resumed writes what an uninterrupted one writes, and both equal
    the budgeted oracle, in either membership mode. Every hop writes one
    processing part per head block it plans (budget heads included),
    and none of them is empty."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import _cluster_cpus, _fetch_rpb, _sized_blocks
    from fs_crawler_ray.oracle import load_docs

    seeds = sorted(load_docs(small_corpus.documents_path))[::5]
    cfg = CrawlConfig(hops=HOPS, num_shards=4, num_buckets=8, frontier_budget=40,
                      membership_mode=mode)
    full = crawl(small_corpus, seeds, str(tmp_path_factory.mktemp(f"blocks_{mode}")), cfg)
    for hop in full.hops_run:
        with open(os.path.join(full.hop_dir(hop), "lineage.json")) as f:
            lineage = json.load(f)
        n_head = lineage["fetch"]["ids_attempted"]
        proc = os.path.join(full.hop_dir(hop), "processing.parquet")
        rows = [pq.read_metadata(os.path.join(proc, f)).num_rows for f in os.listdir(proc)]
        assert n_head == 40 and sum(rows) == n_head, hop
        assert len(rows) == _sized_blocks(n_head, _fetch_rpb(n_head, _cluster_cpus(), True)) > 1
        assert min(rows) > 0, hop
        assert lineage["sink"]["partitions"] > 3, hop  # head, tail and classify blocks
    oracle = oracle_crawl(small_corpus.documents_path, seeds, HOPS, frontier_budget=40)
    _assert_match(full, oracle)
    out = str(tmp_path_factory.mktemp(f"blocks_resume_{mode}"))
    crawl(small_corpus, seeds, out, cfg)
    os.remove(os.path.join(out, "hop=2", "log.json"))
    resumed = crawl(small_corpus, seeds, out, cfg, resume=True)
    assert resumed.hops_run == list(range(HOPS))
    assert _ray_tables(resumed) == _ray_tables(full)
    _assert_match(resumed, oracle)
    _assert_budget_cuts(resumed, 40)
    _assert_fetch_counts(resumed)


def test_budget_cut_inside_a_multi_bucket_priority(tmp_path):
    """The cut found from footers: frontier parts of two priorities over
    several id-range buckets, written in reverse order, with the
    budget's last id inside the middle bucket of priority 2. The head
    predicate keeps exactly the first ``budget`` rows in
    ``(priority, id)`` order and reads the parts up to the one holding
    the cut; no budget, or one as large as the frontier, cuts nothing."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import _budget_cut, _expand_parquet
    from fs_crawler_ray.model import FRONTIER_SCHEMA

    parts = {(1, 0): ["A000", "A003"], (1, 10): ["D001"],
             (2, 0): ["A001", "A002"], (2, 1): ["B000", "B004", "B007"], (2, 10): ["D000"]}
    for (p, b), ids in reversed(list(parts.items())):
        pq.write_table(pa.table({"id": ids[::-1], "priority": [p] * len(ids),
                                 "hop": [p] * len(ids)}, schema=FRONTIER_SCHEMA),
                       str(tmp_path / f"part-{p}-{b}-{len(ids)}abc.parquet"))
    files = _expand_parquet([str(tmp_path)])
    assert [os.path.basename(f).rsplit("-", 1)[0] for f in files] == [
        "part-1-0", "part-1-10", "part-2-0", "part-2-1", "part-2-10"]
    rows = pa.concat_tables([pq.read_table(f) for f in files])
    want = sorted(zip(rows["priority"].to_pylist(), rows["id"].to_pylist()))
    footers = [pq.read_metadata(f) for f in files]
    n_head, k, keep = _budget_cut(files, footers, 7)
    assert (n_head, k) == (7, 3)
    head = rows.filter(keep)
    assert sorted(zip(head["priority"].to_pylist(), head["id"].to_pylist())) == want[:7]
    tail = rows.filter(~keep)
    assert sorted(zip(tail["priority"].to_pylist(), tail["id"].to_pylist())) == want[7:]
    assert _budget_cut(files, footers, None) == _budget_cut(files, footers, 9) == (9, 4, None)


def test_frontier_footers_read_once_per_hop(tmp_path_factory, monkeypatch):
    """A hop reads its frontier's part footers once, for the budget cut
    and the read together, and a crawl reads each edge part's footer
    once, however many later hops classify it: a 4-hop "full" crawl of
    2,000 persons reads each of the 3 frontiers that later hops take up
    once, and each edge part of hops 0-2 once."""
    from collections import Counter

    from fs_crawler_ray.corpus import CorpusSpec, generate_corpus
    from fs_crawler_ray.sources import storage as st

    corpus = generate_corpus(CorpusSpec(n_persons=2000, seed=42),
                             str(tmp_path_factory.mktemp("footers_corpus")))
    reads, footer = Counter(), st.footer

    def counting(path):
        reads[os.path.basename(os.path.dirname(path))] += 1
        return footer(path)

    monkeypatch.setattr(st, "footer", counting)
    out = str(tmp_path_factory.mktemp("footers"))
    result = crawl(corpus, corpus.seeds, out,
                   CrawlConfig(hops=4, num_shards=4, num_buckets=8,
                               log_edge_classification="full"))
    assert result.hops_run == [0, 1, 2, 3]
    parts = sum(len(os.listdir(os.path.join(out, f"hop={h}", "frontier.parquet")))
                for h in range(3))
    assert reads["frontier.parquet"] == parts == 3
    edge_parts = sum(len(os.listdir(os.path.join(out, f"hop={h}", "edges.parquet")))
                     for h in range(3))
    assert reads["edges.parquet"] == edge_parts


def test_fetch_blocks_follow_work():
    """A hop too small to give every CPU a ``FETCH_SPLIT_ROWS``-id block
    is fetched in ``FETCH_ROWS_PER_TASK``-id blocks, as a seed slice or
    as a checkpoint read: at 4 CPUs a hop below 16,384 ids is one block.
    Every larger hop gets the blocks the 4,096-id floor alone gave, at
    least one per CPU; a block holds at most 32,768 ids; polite fetch
    blocks stay 5,000."""
    from fs_crawler_ray.crawl import (FETCH_ROWS_PER_TASK, FETCH_SPLIT_ROWS, FETCH_WAVES,
                                      _fetch_rpb, _sized_blocks)

    def blocks(n: int, cpus: int = 4) -> int:  # a checkpoint read's
        return _sized_blocks(n, _fetch_rpb(n, cpus, True))

    def seed_chunks(n: int) -> int:
        return len(range(0, n, _fetch_rpb(n, 4, True)))

    def old_blocks(n: int, cpus: int = 4) -> int:
        return _sized_blocks(n, min(32_768, max(4096, n // (FETCH_WAVES * cpus) + 1)))

    assert 4 * FETCH_SPLIT_ROWS == FETCH_ROWS_PER_TASK == 16_384
    for n in (1, 4_400, 14_400, FETCH_ROWS_PER_TASK - 1):
        assert blocks(n) == seed_chunks(n) == 1, n
    assert blocks(30_000, cpus=8) == 2 and old_blocks(30_000, cpus=8) == 8
    for cpus in (1, 2, 4, 8, 32):
        for n in (cpus * FETCH_SPLIT_ROWS, 65_536, 85_000, 100_000, 131_072, 1_000_000,
                  10_000_000):
            if n >= cpus * FETCH_SPLIT_ROWS:
                assert blocks(n, cpus) == old_blocks(n, cpus) >= cpus, (n, cpus)
    # bench.py --scaling's crawl (65,536 seeds at 2 and 8 CPUs) splits as before
    assert blocks(65_536, cpus=2) == 4 and blocks(65_536, cpus=8) == 16
    assert blocks(100_000) == 8 and blocks(131_072) == FETCH_WAVES * 4
    assert _fetch_rpb(10_000_000, 4, True) == _fetch_rpb(10**9, 32, True) == 32_768
    assert _fetch_rpb(14_400, 4, False) == _fetch_rpb(10**6, 4, False) == 5_000


@pytest.mark.parametrize("bad", [{"frontier_budget": -1}, {"frontier_budget": 0},
                                 {"log_edge_classification": "Full"},
                                 {"log_edge_classification": "none"}])
def test_config_rejects_out_of_range_values(bad):
    """A frontier budget below 1 or an unknown edge-classification mode
    is refused when the config is built, before a crawl writes
    anything; the smallest budget and every mode are accepted."""
    with pytest.raises(ValueError, match=next(iter(bad))):
        CrawlConfig(**bad)
    for mode in ("full", "final", "off"):
        CrawlConfig(frontier_budget=1, log_edge_classification=mode)


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
    """A polite crawl (the host-routed fetch pool) with a robots rule
    equals the oracle: politeness changes timing, not results. Its
    fetch counters hold on every hop, and the pool adds ``requests``
    and ``politeness_wait_s``."""
    out = str(tmp_path_factory.mktemp("crawl_polite"))
    budget = PolitenessBudget(rate_per_host=200.0, burst=1.0, n_hosts=4)
    robots = RobotsPolicy(n_hosts=64, disallow_every=5)
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=4, fetch_concurrency=1,
                      fetch_batch_size=20, politeness=budget, robots=robots)
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    _assert_match(result, oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3,
                                       robots=robots))
    assert max(_assert_fetch_counts(result, robots)) > 0
    for hop in result.hops_run:
        with open(os.path.join(result.hop_dir(hop), "lineage.json")) as f:
            fetch = json.load(f)["fetch"]
        assert fetch["requests"] > 0 and fetch["politeness_wait_s"] >= 0, hop


def test_hop_map_retry_writes_the_same_parts(small_corpus, tmp_path):
    """A hop map task run twice on one block (a retry after its writes
    landed) rewrites the same content-named processing and vertex parts
    with the same rows, returns the same partition pieces, and leaves
    VISITED as one run leaves it."""
    import functools

    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import VISITED, _fetch_block, _hop_map, _make_record_tagger
    from fs_crawler_ray.model import FRONTIER_SCHEMA
    from fs_crawler_ray.oracle import load_docs
    from fs_crawler_ray.state.fetch_service import make_partition_fetcher

    ids = sorted(load_docs(small_corpus.documents_path))[:30] + ["ZZZZ-ZZZ"]  # one miss
    block = pa.table({"id": ids, "priority": [0] * len(ids), "hop": [0] * len(ids)},
                     schema=FRONTIER_SCHEMA)
    sm = _CountingMembership()
    dirs = [tmp_path / "processing", tmp_path / "vertices"]
    for d in dirs:
        d.mkdir()
    fn = functools.partial(_fetch_block, proc_path=str(dirs[0]), vert_path=str(dirs[1]),
                           fetch=make_partition_fetcher(small_corpus.documents_path, 0),
                           batch_size=None, robots=None, sm=sm,
                           tag=_make_record_tagger(0, 4, None))
    runs = []
    for _ in range(2):
        pieces = _hop_map._function(block, fn, [1, 2, 3])
        runs.append(([sorted(os.listdir(d)) for d in dirs],
                     [pq.read_table(str(d)) for d in dirs], pieces, sm.state.stats()))
    (names, rows, pieces, visited), again = runs
    assert names == again[0] and [len(n) for n in names] == [1, 1]
    assert [a.equals(b) for a, b in zip(rows, again[1])] == [True, True]
    assert len(pieces) == 4 and [a.equals(b) for a, b in zip(pieces, again[2])] == [True] * 4
    assert visited == again[3] == {VISITED: {"mode": "exact", "count": 30}}
    assert sm.calls["add"] == 2 and rows[0].num_rows == 31 and rows[1].num_rows == 30


def test_hop_reducer_retry_writes_the_same_parts(tmp_path):
    """A hop's reducer run twice on its pieces (a retry after its sink
    wrote) gives the same count rows and rewrites the same frontier and
    edge parts with the same rows; EDGES holds none of the new edges
    until the hop commits them."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import EDGES, VISITED, _HopSink
    from fs_crawler_ray.ids import as_key_array
    from fs_crawler_ray.relops import _exchange_reduce

    cand, edge, cls = _sink_rows()
    sm = _CountingMembership()
    sm.state.add(VISITED, as_key_array(pa.array(["AAAA-000", "AAAA-005", "AAAA-009"])))
    sm.state.add(EDGES, as_key_array(pa.array(["AAAA-002|AAAA-007"])))
    dirs = [tmp_path / "frontier", tmp_path / "edges"]
    for d in dirs:
        d.mkdir()
    sink = _HopSink(sm, str(dirs[0]), str(dirs[1]), classify_edges=True)
    runs = []
    for _ in range(2):
        block, _ = _exchange_reduce._function(sink, "__bucket", False, cand,
                                              pa.concat_tables([edge, cls]))
        runs.append((block, [sorted(os.listdir(d)) for d in dirs],
                     [pq.read_table(str(d)) for d in dirs]))
    (counts, names, rows), again = runs
    assert counts.equals(again[0]) and names == again[1] and [len(n) for n in names] == [1, 1]
    assert [a.equals(b) for a, b in zip(rows, again[2])] == [True, True]
    keys = as_key_array(pa.array([f"{s}|{d}" for s, d in
                                  zip(rows[1]["source"].to_pylist(),
                                      rows[1]["destination"].to_pylist())]))
    assert len(keys) == 6 and not sm.state.contains(EDGES, keys).any()
    assert sm.state.stats()[EDGES]["count"] == 1
    assert sm.state.commit(EDGES) == 6 and sm.state.contains(EDGES, keys).all()


def test_sized_blocks_directory_or_files(tmp_path):
    """One row-sizing rule for a row count and for a list of part
    files: rows / (2 × CPUs) per block, at least ``ROWS_PER_TASK`` and
    at most ``MAX_ROWS_PER_TASK``; the crawl result's reads of a
    checkpoint directory use it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import MAX_ROWS_PER_TASK, ROWS_PER_TASK, CrawlResult, _sized_blocks

    d = tmp_path / "hop=0" / "vertices.parquet"
    d.mkdir(parents=True)
    files = []
    for i in range(6):
        files.append(str(d / f"part-{i}.parquet"))
        pq.write_table(pa.table({"id": [f"V{i}-{j}" for j in range(2500)]}), files[-1])
    assert _sized_blocks(files) == 1  # 15k rows: below the floor
    assert _sized_blocks(files, rows_per_block=1000) == 16
    assert _sized_blocks(files, rows_per_block=1000, max_blocks=5) == 5
    # 360k rows: 2 blocks per CPU of the 4-CPU session
    assert _sized_blocks(files * 24) == 8
    assert _sized_blocks(2 * ROWS_PER_TASK) == 3  # past the floor, below 2 per CPU
    assert _sized_blocks(64 * MAX_ROWS_PER_TASK) == 65  # past the cap
    res = CrawlResult(out_dir=str(tmp_path), hops_run=[0])
    assert res.vertices().materialize().num_blocks() == 1


@pytest.mark.parametrize("n_files", [3, 30, 49])
def test_read_parts_equals_one_read(tmp_path, n_files, monkeypatch, remote_tasks):
    """``storage.read_parts`` of checkpoint part files: their rows in file
    order, the ``columns`` projection, the requested block count, an
    ``empty.parquet``-only directory that keeps its schema, and fsspec
    URIs; building a read launches no remote task."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from fs_crawler_ray.crawl import _expand_parquet
    from fs_crawler_ray.model import FRONTIER_SCHEMA
    from fs_crawler_ray.sources import storage as st

    monkeypatch.setattr(DataContext.get_current().execution_options, "preserve_order", True)
    files = []
    for i in range(n_files):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(pa.table({"source": [f"S{i}-{j}" for j in range(3)],
                                 "destination": [f"D{i}"] * 3,
                                 "hop": [i] * 3}), files[-1], row_group_size=2)
    want = [(f"S{i}-{j}", f"D{i}") for i in range(n_files) for j in range(3)]
    ds = st.read_parts(files, columns=["source", "destination"])
    assert ds.columns() == ["source", "destination"]
    assert [(r["source"], r["destination"]) for r in ds.take_all()] == want
    for n_blocks in (1, 7, lambda rows: rows // 2):
        ds = st.read_parts(files, num_blocks=n_blocks).materialize()
        assert ds.num_blocks() == (n_blocks(3 * n_files) if callable(n_blocks) else n_blocks)
        assert [(r["source"], r["destination"], r["hop"]) for r in ds.take_all()] == [
            (s, d, int(d[1:])) for s, d in want]
    uri = st.read_parts(["file://" + f for f in files], ["source"], 2)
    assert [r["source"] for r in uri.take_all()] == [s for s, _ in want]

    empty = tmp_path / "frontier.parquet"
    empty.mkdir()
    pq.write_table(FRONTIER_SCHEMA.empty_table(), str(empty / "empty.parquet"))
    remote_tasks.clear()
    ds = st.read_parts(_expand_parquet([str(empty)]), num_blocks=8)
    assert ds.schema().base_schema.names == FRONTIER_SCHEMA.names
    assert ds.schema().base_schema.types == FRONTIER_SCHEMA.types
    assert not remote_tasks  # the schema and count come from the footers
    ds = ds.materialize()
    assert ds.count() == 0 and ds.num_blocks() == 1
    assert ray.get(ds.to_arrow_refs())[0].schema.equals(FRONTIER_SCHEMA)


def test_checkpoint_reads_launch_no_task(crawled, remote_tasks):
    """Building every read of a crawl checkpoint launches no remote
    task, and the vertex table carries the vertex schema's columns (no
    hive ``hop`` column from the ``hop=N`` directories)."""
    from fs_crawler_ray.model import VERTEX_SCHEMA

    result, _ = crawled
    reads = [result.vertices(), result.vertices(columns=["id", "color"]), result.edges(),
             result.frontier(), result.processing(0)]
    assert [ds.schema() is not None for ds in reads] == [True] * len(reads)
    assert reads[0].schema().names == VERTEX_SCHEMA.names
    assert reads[1].columns() == ["id", "color"]
    assert not remote_tasks


def test_crawl_resume_and_graph_build_sample_no_footers(small_corpus, tmp_path_factory,
                                                        remote_tasks):
    """A crawl, a resume and a graph build read their checkpoints without
    Ray's parquet fragment-sampling or footer-fetching tasks, and a crawl
    and a resume shuffle on known bucket boundaries: no ``_sample_block``
    task."""
    from fs_crawler_ray.stages.export import write_adjacency_shards
    from fs_crawler_ray.stages.resolve import resolve_relationships

    out = str(tmp_path_factory.mktemp("no_read_tasks"))
    cfg = CrawlConfig(hops=HOPS, num_shards=4, num_buckets=8, log_edge_classification="final")
    crawl(small_corpus, small_corpus.seeds, out, cfg)
    os.remove(os.path.join(out, f"hop={HOPS - 1}", "log.json"))
    result = crawl(small_corpus, small_corpus.seeds, out, cfg, resume=True)
    assert remote_tasks["_sample_block"] == remote_tasks["reduce"] == 0
    assert remote_tasks["_exchange_reduce"] > 0  # the hop shuffles ran
    final = resolve_relationships(result.edges(), result.vertices(),
                                  small_corpus.relationships_path,
                                  num_partitions=4, num_buckets=8)
    write_adjacency_shards(result.vertices(), final,
                           str(tmp_path_factory.mktemp("no_read_tasks_adj")))
    assert remote_tasks["_sample_fragment"] == remote_tasks["fetch_func"] == 0
    assert remote_tasks  # the counter saw the build's own tasks


def test_graph_build_tasks_follow_rows(crawled, small_corpus, tmp_path, remote_tasks):
    """A checkpoint table below ``ROWS_PER_TASK`` reads as one block, so
    the resolve's exchange and the numbering sort run one reducer each,
    and the adjacency sort two: one per block of its vertex and edge
    entries. Only the numbering sort, whose key is a string id, samples
    boundaries. The numbered blocks' Dataset is built
    from metadata the driver holds: no
    ``get_table_block_metadata_schema`` task."""
    from fs_crawler_ray.stages.export import write_adjacency_shards
    from fs_crawler_ray.stages.resolve import resolve_relationships

    result, _ = crawled
    assert [result.vertices().materialize().num_blocks(),
            result.edges().materialize().num_blocks(),
            result.frontier().materialize().num_blocks()] == [1, 1, 1]
    remote_tasks.clear()
    final = resolve_relationships(result.edges(), result.vertices(),
                                  small_corpus.relationships_path,
                                  num_partitions=4, num_buckets=8).materialize()
    write_adjacency_shards(result.vertices(), final, str(tmp_path / "adj"))
    assert remote_tasks["_sample_block"] == 1
    assert remote_tasks["_exchange_reduce"] == 1 and remote_tasks["_exchange_split"] == 0
    assert remote_tasks["reduce"] == 3  # the two sorts
    assert remote_tasks["_add_index"] == 1
    assert remote_tasks["get_table_block_metadata_schema"] == 0


def test_crawl_configures_data_context(crawled):
    """Engine-level executor config (VERDICT r4 item 2): constructing a
    Crawler — any production entry point, not just bench.py — must turn
    Ray Data's per-operator resource reservation OFF (it halves map
    concurrency upstream of shuffles; see fs_crawler_ray.engine)."""
    from ray.data import DataContext

    # the `crawled` fixture ran a full crawl in this process
    assert DataContext.get_current().op_resource_reservation_enabled is False


@pytest.mark.parametrize("budget", [None, 40])
def test_full_mode_hop_is_one_execution(small_corpus, tmp_path_factory, count_executions,
                                        budget):
    """A fresh 'full'-mode crawl classifies every hop at the hop
    shuffle's sink, and each hop runs as plain tasks: no Ray Data
    execution, with or without a frontier budget (the head and the
    carried-over tail are read in the hop's own map tasks), and every
    hop's LOG row equals the oracle's. Every fifth document is a seed,
    so the budget cuts hop 0 and more."""
    from fs_crawler_ray.oracle import load_docs

    seeds = sorted(load_docs(small_corpus.documents_path))[::5]
    out = str(tmp_path_factory.mktemp("full_one_exec"))
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=8, log_edge_classification="full",
                      frontier_budget=budget)
    start = len(count_executions)
    result = crawl(small_corpus, seeds, out, cfg)
    assert len(count_executions) - start == 0
    oracle = oracle_crawl(small_corpus.documents_path, seeds, 3, frontier_budget=budget)
    _assert_match(result, oracle)
    if budget is not None:
        assert [result.processing(h).count() for h in (0, 1)] == [budget, budget]


def test_resume_rebuild_is_one_execution(crawled, small_corpus, count_executions):
    """A resume rebuilds VISITED and EDGES from every complete hop's
    vertex and edge tables in plain tasks: no Ray Data execution."""
    from fs_crawler_ray.crawl import EDGES, VISITED
    from fs_crawler_ray.ids import as_key_array

    result, _ = crawled
    crawler = Crawler(small_corpus, result.out_dir,
                      CrawlConfig(hops=HOPS, num_shards=4, num_buckets=8))
    try:
        start = len(count_executions)
        next_hop, _, log = crawler._resume_state()
        assert len(count_executions) - start == 0
        assert (next_hop, log) == (HOPS, result.log)
        verts, edges, _ = _ray_tables(result)
        assert crawler.sm.contains(VISITED, as_key_array(pa.array(list(verts)))).all()
        keys = as_key_array(pa.array([f"{s}|{d}" for s, d in edges]))
        assert crawler.sm.contains(EDGES, keys).all()
    finally:
        crawler.shutdown()


class _CountingMembership:
    """An in-process membership handle: one ``MembershipShardState``
    whose method calls are counted by name."""

    def __init__(self):
        from collections import Counter

        from fs_crawler_ray.state.membership import MembershipShardState

        self.state = MembershipShardState(1024, "exact")
        self.calls = Counter()

    def __getattr__(self, method):
        def counted(*args):
            self.calls[method] += 1
            return getattr(self.state, method)(*args)

        return counted


def _sink_rows():
    """One bucket's candidate (with the hop's miss and blocked rows),
    edge and classify rows, some of them repeated or already
    registered."""
    from fs_crawler_ray.crawl import _BLOCKED, _CAND, _CLASSIFY, _EDGE, _MISS, _tagged

    ids = [f"AAAA-{i:03d}" for i in range(12)]
    cand = pa.concat_tables([
        _tagged(_CAND, [3] * 8, cand_id=ids[:6] + ids[:2], priority=[2, 2, 2, 2, 2, 2, 1, 3]),
        _tagged(_MISS, [3] * 2, cand_id=[ids[1], ids[10]]),
        _tagged(_BLOCKED, [3] * 2, cand_id=[ids[3], ids[11]])])
    src, dst = ids[:7] + ids[:2], ids[5:12] + ids[5:7]
    edge = _tagged(_EDGE, [3] * 9, source=src, destination=dst,
                   rel_id=[f"R{i}" for i in range(9)], src_doc=src,
                   offset=list(range(9)), hop=[1] * 7 + [0, 2])
    cls = _tagged(_CLASSIFY, [3] * 4, source=ids[8:12], destination=ids[:4])
    return cand, edge, cls


def _run_sink(tables, tmp_path):
    """The sink's count rows and written frontier/edge rows for
    ``tables``, one sink call each, over fresh state holding a few
    visited and committed edge keys."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import EDGES, VISITED, _HopSink
    from fs_crawler_ray.ids import as_key_array

    sm = _CountingMembership()
    sm.state.add(VISITED, as_key_array(pa.array(["AAAA-000", "AAAA-005", "AAAA-009"])))
    sm.state.add(EDGES, as_key_array(pa.array(["AAAA-002|AAAA-007"])))
    dirs = [tmp_path / "frontier", tmp_path / "edges"]
    for d in dirs:
        d.mkdir(parents=True)
    sink = _HopSink(sm, str(dirs[0]), str(dirs[1]), classify_edges=True)
    sm.calls.clear()
    counts = pa.concat_tables([sink(t) for t in tables]).sort_by("kind")
    written = [pq.read_table(str(dirs[0])).sort_by("id"),
               pq.read_table(str(dirs[1])).sort_by([("source", "ascending")])]
    return counts, written, [len(list(d.iterdir())) for d in dirs], sm.calls


def test_hop_sink_one_call_per_kind(tmp_path):
    """One sink call over a bucket holding candidate, miss, blocked, edge
    and classify rows makes one membership call per row kind (misses and
    blocked ids make none: the candidates equal to them are dropped in
    the call) and
    writes one frontier part and one edge part; its count rows and
    written rows equal the same rows handled one kind per call. A bucket
    whose candidates carry two priorities (a budget carried some over)
    writes one frontier part per priority, and the parts of two such
    buckets, in name order, hold their rows in ``(priority, id)``
    order."""
    cand, edge, cls = _sink_rows()
    counts, written, parts, calls = _run_sink([pa.concat_tables([cls, edge, cand])],
                                              tmp_path / "one")
    assert dict(calls) == {"check_and_add_deferred": 1, "contains": 2}
    assert parts == [1, 1]
    by_kind, by_kind_written, _, _ = _run_sink([cand, edge, cls], tmp_path / "per_kind")
    assert counts.equals(by_kind)
    assert [w.equals(b) for w, b in zip(written, by_kind_written)] == [True, True]
    assert counts["kind"].to_pylist() == ["blocked", "classify", "edges", "frontier", "miss"]
    assert counts["rows_in"].to_pylist() == [2, 4, 9, 8, 2]
    assert counts["rows_out"].to_pylist() == [0, 0, 6, 2, 0]
    assert written[0]["id"].to_pylist() == ["AAAA-002", "AAAA-004"]
    assert written[0]["priority"].to_pylist() == [2, 2]
    assert [r["id"] for r in written[1].to_pylist()] == ["R7", "R1", "R3", "R4", "R5", "R6"]

    import pyarrow.parquet as pq

    from fs_crawler_ray.crawl import _CAND, _HopSink, _expand_parquet, _tagged

    front = tmp_path / "two_priorities"
    front.mkdir()
    sm = _CountingMembership()
    sink = _HopSink(sm, str(front), str(tmp_path), classify_edges=False)
    for bucket, prefix in [(10, "CCCC"), (5, "BBBB")]:  # bucket 10 holds the larger ids
        ids = [f"{prefix}-{i:03d}" for i in range(6)]
        sink(_tagged(_CAND, [bucket] * 7, cand_id=ids[::-1] + ids[:1],
                     priority=[2, 1, 2, 1, 2, 1, 2]))
    assert dict(sm.calls) == {"contains": 2}
    files = _expand_parquet([str(front)])
    assert [os.path.basename(f).split("-")[1:3] for f in files] == [
        ["1", "5"], ["1", "10"], ["2", "5"], ["2", "10"]]
    rows = pa.concat_tables([pq.read_table(f) for f in files])
    got = list(zip(rows["priority"].to_pylist(), rows["id"].to_pylist()))
    assert got == sorted(got) and len(got) == 12


def test_full_mode_sink_runs_once_per_partition(small_corpus, tmp_path_factory, small_blocks):
    """Every hop of a 'full'-mode crawl over 16-row checkpoint blocks
    (several shuffle partitions on the classifying hops): its sink
    lineage holds one bucket per partition, its frontier and edge
    tables at most one part per partition, and its sink made at most
    one membership call per row kind, partition and host; the shards
    hold no set but ``visited`` and ``edges``."""
    out = str(tmp_path_factory.mktemp("full_sink"))
    cfg = CrawlConfig(hops=3, num_shards=4, num_buckets=8, log_edge_classification="full")
    result = crawl(small_corpus, small_corpus.seeds, out, cfg)
    _assert_match(result, oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3))
    hosts = _first_lineage(out)["actors"]["hosts"]
    widths = []
    for hop in result.hops_run:
        hop_dir = os.path.join(out, f"hop={hop}")
        with open(os.path.join(hop_dir, "lineage.json")) as f:
            lineage = json.load(f)
        sink, rpcs = lineage["sink"], lineage["shards"]["rpcs"]
        p = sink["partitions"]
        widths.append(p)
        assert len({e["bucket"] for e in sink["entries"]}) == p
        for table in ("frontier.parquet", "edges.parquet"):
            assert len(os.listdir(os.path.join(hop_dir, table))) <= p
        # contains(visited): one call for the candidates, one for the
        # classification
        for method, name, kinds in [("check_and_add_deferred", "edges", 1),
                                    ("contains", "visited", 2)]:
            assert 0 < rpcs[method][name]["calls"] <= kinds * p * hosts, (hop, method)
        assert set(rpcs) <= {"add", "check_and_add_deferred", "contains"}
        assert set(rpcs.get("add", {})) <= {"visited"}
        assert all(set(s) <= {"visited", "edges"} for s in lineage["shards"]["sets"])
    assert max(widths) > 1  # the earlier hops' edges widened the shuffle


@pytest.mark.parametrize("budget", [None, 40])
def test_hop_runs_no_ray_data_task_after_its_exchange(small_corpus, tmp_path_factory,
                                                      small_blocks, remote_tasks,
                                                      monkeypatch, budget):
    """A hop runs no Ray Data task at all: a 'full' crawl over 16-row
    checkpoint blocks (with a budget, a carried-over tail too) launches
    one ``_hop_map`` task per block it plans, which cuts its own rows
    into ``min(num_buckets, blocks)`` partitions (no ``_exchange_split``),
    and its sink runs in the exchange's reduce tasks, one per
    partition."""
    from fs_crawler_ray import crawl as crawl_mod
    from fs_crawler_ray.oracle import load_docs

    planned, run_hop = [], crawl_mod._run_hop

    def spy(blocks, sink, n):
        planned.append((len(blocks), n))
        return run_hop(blocks, sink, n)

    monkeypatch.setattr(crawl_mod, "_run_hop", spy)
    seeds = sorted(load_docs(small_corpus.documents_path))[::5]
    out = str(tmp_path_factory.mktemp("no_task_after_exchange"))
    cfg = CrawlConfig(hops=3, num_shards=2, num_buckets=8, log_edge_classification="full",
                      frontier_budget=budget)
    remote_tasks.clear()
    crawl(small_corpus, seeds, out, cfg)
    assert len(planned) == 3
    assert max(blocks for blocks, _ in planned) > 1
    assert all(parts == min(8, blocks) for blocks, parts in planned)
    assert remote_tasks["_map_task"] == remote_tasks["_exchange_split"] == 0
    assert remote_tasks["_hop_map"] == sum(blocks for blocks, _ in planned)
    assert remote_tasks["_exchange_reduce"] == sum(parts for _, parts in planned)
    assert remote_tasks["map"] == remote_tasks["reduce"] == 0


def test_final_mode_fused_classification_matches_full(small_corpus, tmp_path_factory):
    """'final' mode classifies only its last hop, on the same sink path
    'full' mode takes every hop (classify-only rows of earlier hops
    riding the hop's shuffle + sink-side classification of the hop's
    own edges): its last-hop within/spanning/frontier counts equal
    'full' mode's."""
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
    """Classification when the last hop fetches NOTHING (crawl past
    exhaustion): the classify-only rows of earlier hops still ride the
    (otherwise empty) last execution, so the final log row's counts
    must equal full mode's."""
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
    """Crash before the last hop, resume in 'final' mode: the last
    hop's classification re-reads the completed hops' edges and must
    produce the same last-hop counts as an uninterrupted final-mode
    crawl."""
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
        # 4 shards on the 2 hosts of the 4-CPU test cluster
        want = {"hosts": 2, "shards": 4} | (
            {"reused": 0, "started": 2} if i == 0 else {"reused": 2, "started": 0})
        assert {k: actors[k] for k in want} == want
        assert actors["acquire_s"] >= 0


def test_killed_idle_actor_replaced_then_resume(small_corpus, tmp_path_factory,
                                                empty_free_lists, kill_shard, crawled):
    """A pooled shard host killed while idle loses all of its shards and
    is replaced by a fresh one, never handed out again, and the next
    crawl (a resume) still equals the full crawl."""
    from fs_crawler_ray.state import resident

    full, _ = crawled
    out = str(tmp_path_factory.mktemp("pool_resume"))
    crawl(small_corpus, small_corpus.seeds, out,
          CrawlConfig(hops=2, num_shards=4, num_buckets=8))
    dead = resident._free_list("MembershipShard")[-1]
    kill_shard(dead)
    resumed = crawl(small_corpus, small_corpus.seeds, out,
                    CrawlConfig(hops=HOPS, num_shards=4, num_buckets=8), resume=True)
    with open(os.path.join(out, "hop=2", "lineage.json")) as f:
        actors = json.load(f)["actors"]  # the first lineage the resume wrote
    # 2 hosts of 2 shards each: the live host reused, the dead one replaced
    assert (actors["hosts"], actors["shards"]) == (2, 4)
    assert (actors["reused"], actors["started"]) == (1, 1)
    assert dead._actor_id not in {a._actor_id for a in resident._free_list("MembershipShard")}
    assert _ray_tables(resumed) == _ray_tables(full)
    assert [r["vertices"] for r in resumed.log] == [r["vertices"] for r in full.log]


def test_reused_crawler_starts_from_empty_state(small_corpus, tmp_path_factory):
    """One Crawler crawling the same seeds again, fresh and then resumed
    after its last hop's log.json is removed, writes what its first
    crawl wrote and equals the oracle: each crawl() starts from reset
    shards. The second crawl counts only its own seeds as attempted."""
    out = str(tmp_path_factory.mktemp("reused_crawler"))
    oracle = oracle_crawl(small_corpus.documents_path, small_corpus.seeds, 3)
    c = Crawler(small_corpus, out, CrawlConfig(hops=3, num_shards=4, num_buckets=8))
    try:
        first = c.crawl(small_corpus.seeds)
        _assert_match(first, oracle)
        want = _ray_tables(first)  # the next crawl rewrites the same directory
        again = c.crawl(small_corpus.seeds)
        _assert_match(again, oracle)
        assert _ray_tables(again) == want
        assert _first_lineage(out)["fetch"]["ids_attempted"] == len(set(small_corpus.seeds))
        os.remove(os.path.join(out, "hop=2", "log.json"))
        resumed = c.crawl(small_corpus.seeds, resume=True)
        _assert_match(resumed, oracle)
        assert _ray_tables(resumed) == want
    finally:
        c.shutdown()


def test_raised_crawl_kills_its_actors(small_corpus, tmp_path_factory, empty_free_lists):
    import ray

    from fs_crawler_ray.state import resident

    c = Crawler(small_corpus, str(tmp_path_factory.mktemp("pool_raise")),
                CrawlConfig(hops=1, num_shards=2, num_buckets=4))
    with pytest.raises(ValueError):
        c.crawl(["not-an-id"])
    c.shutdown()
    idle = {a._actor_id for a in resident._free_list("MembershipShard")}
    assert not idle & {a._actor_id for a in c.sm.actors}
    for a in c.sm.actors:
        with pytest.raises(ray.exceptions.RayActorError):
            ray.get(a.stats.remote(), timeout=60)
