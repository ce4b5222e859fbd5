"""CSV graph export (S4): the 6-file reference layout round-trips
through the migrator, and the spanning/frontier edge TABLES partition
the edge set consistently with the classification counts."""

import csv
import os
import shutil

import pytest
import ray.data

from fs_crawler_ray.corpus import CorpusSpec, generate_corpus
from fs_crawler_ray.crawl import CrawlConfig, crawl
from fs_crawler_ray.functions.graph_csv import classify_edge_tables, write_csv_graph_from_result
from fs_crawler_ray.functions.migrate import migrate_graph_dir


@pytest.fixture(scope="module")
def small_crawl(tmp_path_factory):
    d = tmp_path_factory.mktemp("csvgraph")
    info = generate_corpus(CorpusSpec(n_persons=800, seed=11), str(d / "corpus"))
    result = crawl(info, info.seeds, str(d / "crawl"), CrawlConfig(hops=3, num_shards=4))
    return info, result, d


def test_csv_layout_and_migrate_round_trip(small_crawl):
    _, result, d = small_crawl
    out = str(d / "csv")
    paths = write_csv_graph_from_result(result, out, "graft")
    # all six reference files exist with reference headers
    with open(paths["vertices"]) as f:
        assert next(csv.reader(f)) == ["#external_id", "color", "name", "iteration", "lifespan"]
    with open(paths["edges"]) as f:
        assert next(csv.reader(f)) == ["#source_vertex", "destination_vertex",
                                       "relationship_type", "relationship_id"]
    with open(paths["frontier_vertices"]) as f:
        assert next(csv.reader(f)) == ["#external_id"]
    with open(paths["log"]) as f:
        rows = list(csv.reader(f))
        assert rows[0][0] == "#iteration" and len(rows) == 1 + len(result.log)

    # migrator round trip: vertices + 3 edge files load back
    mig = migrate_graph_dir(out, "graft", str(d / "mig"))
    verts = ray.data.read_parquet(mig["vertices"])
    n_nonliving = result.vertices().map_batches(
        lambda t: t.filter(t["living"].combine_chunks().to_numpy(zero_copy_only=False) == False),  # noqa: E712
        batch_format="pyarrow",
    ).count()
    assert verts.count() == n_nonliving
    vr = verts.take(1)[0]
    assert set(vr) >= {"id", "color", "surname", "given_name", "iteration", "lifespan"}
    n_edges_back = sum(
        ray.data.read_parquet(mig[t]).count() for t in ("edges", "spanning.edges", "frontier.edges")
    )
    assert n_edges_back == result.edges().count()


def test_edge_tables_partition_the_edge_set(small_crawl):
    _, result, _ = small_crawl
    cats = classify_edge_tables(result.edges(), result.vertices())
    counts = {k: v.count() for k, v in cats.items()}
    assert sum(counts.values()) == result.edges().count()
    # within edges match the final LOG row's cumulative classification
    last = result.log[-1]
    assert counts["within"] == last["edges"]
    assert counts["spanning"] == last["spanning_edges"]
    assert counts["frontier"] == last["frontier_edges"]


def test_edge_classification_join_path_matches_broadcast(small_crawl, request):
    """BROADCAST_LIMIT=0 forces the distributed flag-join path; its
    per-category tables must equal the broadcast path's exactly."""
    _, result, _ = small_crawl
    bcast = classify_edge_tables(result.edges(), result.vertices())
    request.getfixturevalue("shuffle_joins")
    joined = classify_edge_tables(result.edges(), result.vertices(), num_partitions=4)
    for cat in ("within", "spanning", "frontier"):
        b = {(r["source"], r["destination"], r["type"], r["id"]) for r in bcast[cat].take_all()}
        j = {(r["source"], r["destination"], r["type"], r["id"]) for r in joined[cat].take_all()}
        assert b == j, cat
    # join path preserves the edge schema (no helper columns leak)
    cols = set(joined["within"].schema().names)
    assert not any(c.startswith("__") or c == "category" for c in cols)
