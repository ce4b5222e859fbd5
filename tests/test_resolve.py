"""Resolution-phase conformance: golden classifier fixture (reference
tests/model/test_graph.py:100-118) + full pass vs the oracle."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from fs_crawler_ray.crawl import CrawlConfig, crawl
from fs_crawler_ray.oracle import oracle_crawl, oracle_resolution, oracle_resolve_fetch
from fs_crawler_ray.stages.resolve import (
    candidate_relationships,
    classify_resolution,
    resolve_relationships,
    split_primary_aux,
)


def test_golden_resolution_fixture():
    """Exact reproduction of the reference's determine_resolution test
    (FIXTURES.md F6)."""
    rows = [
        ("Isabella", "9ZT2-JR1", -1),
        ("Isabella", "9ZT2-JR1", 1),
        ("Isabella", "9ZT2-QRF", -1),
        ("Daniel", "M9JK-BT5", -1),
        ("Daniel", "M9JK-BT5", 1),
        ("Barbara", "9VFV-48R", -1),
        ("Barbara", "9VFV-48R", 1),
    ]
    ds = ray.data.from_arrow(
        pa.table(
            {
                "source": [r[0] for r in rows],
                "rel_id": [r[1] for r in rows],
                "dest_color": pa.array([r[2] for r in rows], pa.int8()),
            }
        )
    )
    out = {r["rel_id"]: r["rtype"] for r in classify_resolution(ds, num_buckets=4).take_all()}
    assert out == {
        "9ZT2-QRF": "Resolve",
        "9ZT2-JR1": "Resolve",
        "M9JK-BT5": "AssumedBiological",
        "9VFV-48R": "AssumedBiological",
    }


@pytest.fixture(scope="module")
def resolve_corpus(tmp_path_factory):
    """Corpus rich in multi-relationship children → Resolve cases."""
    from fs_crawler_ray.corpus import CorpusSpec, generate_corpus

    out = tmp_path_factory.mktemp("resolve_corpus")
    return generate_corpus(
        CorpusSpec(n_persons=300, seed=11, extra_parent_frac=0.10, single_parent_frac=0.05),
        str(out),
    )


@pytest.fixture(scope="module")
def crawled(resolve_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("resolve_crawl"))
    cfg = CrawlConfig(hops=6, num_shards=4, num_buckets=8)
    result = crawl(resolve_corpus, resolve_corpus.seeds, out, cfg)
    oracle = oracle_crawl(resolve_corpus.documents_path, resolve_corpus.seeds, 6)
    return result, oracle


def test_candidates_and_classification_match_oracle(crawled):
    result, oracle = crawled
    cands = candidate_relationships(result.edges(), result.vertices(), num_partitions=4)
    got = {(r["source"], r["rel_id"], r["dest_color"]) for r in cands.take_all()}
    verts = oracle.vertices
    expected = {
        (s, e["id"], verts[d]["color"])
        for (s, d), e in oracle.edges.items()
        if s in verts and d in verts
    }
    assert got == expected

    cls = classify_resolution(cands, num_buckets=8)
    got_cls = {r["rel_id"]: r["rtype"] for r in cls.take_all()}
    assert got_cls == oracle_resolution(oracle)


def test_full_resolution_matches_oracle(crawled, resolve_corpus, small_blocks):
    """At 16 rows per checkpoint-read block, so the resolve shuffle runs
    over several blocks."""
    result, oracle = crawled
    assert result.edges().materialize().num_blocks() > 1
    final = resolve_relationships(
        result.edges(), result.vertices(), resolve_corpus.relationships_path,
        num_partitions=4, num_buckets=8,
    )
    got = {(r["source"], r["destination"]): r["type"] for r in final.take_all()}
    cls = oracle_resolution(oracle)
    expected = oracle_resolve_fetch(oracle, cls, resolve_corpus.relationships_path)
    assert got == expected
    # some edges actually got resolved to concrete fact types
    assert any(t not in ("UntypedParent", "AssumedBiological") for t in got.values())


def test_split_primary_aux(crawled, resolve_corpus):
    result, _ = crawled
    final = resolve_relationships(
        result.edges(), result.vertices(), resolve_corpus.relationships_path,
        num_partitions=4, num_buckets=8,
    ).materialize()
    primary, aux = split_primary_aux(final)
    p = primary.take_all()
    a = aux.take_all()
    assert len(p) + len(a) == final.count()
    assert all(r["type"] in ("UntypedParent", "UnspecifiedParentType", "BiologicalParent") for r in p)
    assert all(r["type"] not in ("UntypedParent", "UnspecifiedParentType", "BiologicalParent") for r in a)


def test_full_resolution_distributed_join_path(crawled, resolve_corpus, shuffle_joins):
    """relops.BROADCAST_LIMIT=0 forces the hash_join fallback of every
    lookup in the pass (the candidates' vertex lookups and both type
    overrides — the 100-TB path); it must agree with the broadcast path
    / oracle exactly — including on the sparse rel-id key space that
    breaks Dataset.join (relops.py:160)."""
    result, oracle = crawled
    final = resolve_relationships(
        result.edges(), result.vertices(), resolve_corpus.relationships_path,
        num_partitions=4, num_buckets=8,
    )
    got = {(r["source"], r["destination"]): r["type"] for r in final.take_all()}
    cls = oracle_resolution(oracle)
    expected = oracle_resolve_fetch(oracle, cls, resolve_corpus.relationships_path)
    assert got == expected


def test_resolve_and_export_run_four_executions(crawled, resolve_corpus, tmp_path,
                                                count_executions, small_blocks):
    """The graph build: vertex broadcast read, the fused resolve pass,
    the numbering sort, entries → sort → write; with the checkpoint
    tables read at 16 rows per block, every sort runs over several
    blocks and the numbering stays dense."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from fs_crawler_ray.stages.export import write_adjacency_shards

    result, _ = crawled
    assert result.vertices().materialize().num_blocks() > 1
    start = len(count_executions)
    final = resolve_relationships(
        result.edges(), result.vertices(), resolve_corpus.relationships_path,
        num_partitions=4, num_buckets=8,
    ).materialize()
    write_adjacency_shards(result.vertices(), final, str(tmp_path / "adj"), num_partitions=4)
    assert len(count_executions) - start <= 4
    ent = pads.dataset(str(tmp_path / "adj"), format="parquet", partitioning="hive").to_table()
    diag = ent.filter(pc.equal(ent["diag"], 0))
    assert sorted(diag["row"].to_pylist()) == list(range(result.vertices().count()))


def test_empty_edges_keep_the_edge_schema(crawled, resolve_corpus, tmp_path,
                                         count_executions):
    """An empty edge input resolves to an empty result that carries the
    edge schema, in the vertex broadcast's execution and the resolve
    pass's: none only to learn the input's schema."""
    from fs_crawler_ray.stages.export import write_adjacency_shards

    result, _ = crawled
    none = result.edges().map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    start = len(count_executions)
    final = resolve_relationships(none, result.vertices(), resolve_corpus.relationships_path,
                                  num_partitions=4, num_buckets=8)
    assert len(count_executions) - start == 2
    assert final.count() == 0
    assert final.schema().names == ["source", "destination", "type", "id", "hop"]
    assert final.select_columns(["source", "destination", "type"]).take_all() == []
    out = write_adjacency_shards(result.vertices(), final, str(tmp_path / "adj"),
                                 num_partitions=4)
    # every vertex still gets its diagonal entry; no edge entry
    ent = pd.read_parquet(out)
    assert len(ent) == result.vertices().count()
    assert (ent["diag"] == 0).all()


def test_stray_relationship_child_raises(tmp_path):
    """A fetched Resolve rel whose child is not a source of its edge
    bucket would update edges the bucket does not hold: it must raise,
    naming the rel, not skip its update."""
    import pyarrow.parquet as pq

    # A's two parents have one gender, so both rels classify Resolve
    edges = ray.data.from_arrow(pa.table({
        "source": ["A", "A"], "destination": ["P1", "P2"],
        "type": ["UntypedParent"] * 2, "id": ["R1", "R2"],
        "hop": pa.array([0, 0], pa.int32()),
    }))
    vertices = ray.data.from_arrow(pa.table({
        "id": ["A", "P1", "P2"], "color": pa.array([1, -1, -1], pa.int8())}))
    rels = pa.table({
        "rel_id": ["R1", "R2"], "child": ["X", "A"], "parent1": ["P1", "P2"],
        "parent2": pa.array([None, None], pa.string()),
        "parent1_type": ["BiologicalParent"] * 2,
        "parent2_type": pa.array([None, None], pa.string()),
    })
    stray, owned = str(tmp_path / "stray.parquet"), str(tmp_path / "owned.parquet")
    pq.write_table(rels, stray)
    with pytest.raises(ValueError, match="relationship R1"):
        resolve_relationships(edges, vertices, stray, num_partitions=2)

    # the same rels with the child that owns the edges resolve
    pq.write_table(rels.set_column(1, "child", pa.array(["A", "A"])), owned)
    final = resolve_relationships(edges, vertices, owned, num_partitions=2)
    assert {(r["destination"], r["type"]) for r in final.take_all()} == {
        ("P1", "BiologicalParent"), ("P2", "BiologicalParent")}


def test_rewritten_relationships_file_is_read_afresh(tmp_path):
    """A relationships file rewritten at the same path in one session is
    read again: the worker-global range store is keyed by the file's
    size and mtime, not by its path alone."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.ids import as_key_array
    from fs_crawler_ray.sources.doc_table import open_range_store

    edges = ray.data.from_arrow(pa.table({
        "source": ["A", "A"], "destination": ["P1", "P2"],
        "type": ["UntypedParent"] * 2, "id": ["R1", "R2"],
        "hop": pa.array([0, 0], pa.int32()),
    }))
    vertices = ray.data.from_arrow(pa.table({
        "id": ["A", "P1", "P2"], "color": pa.array([1, -1, -1], pa.int8())}))

    def rels(fact: str) -> pa.Table:
        return pa.table({
            "rel_id": ["R1", "R2"], "child": ["A", "A"], "parent1": ["P1", "P2"],
            "parent2": pa.array([None, None], pa.string()),
            "parent1_type": [fact] * 2, "parent2_type": pa.array([None, None], pa.string()),
        })

    path = str(tmp_path / "rels.parquet")
    types = []
    for fact in ("BiologicalParent", "StepParent"):
        pq.write_table(rels(fact), path)
        final = resolve_relationships(edges, vertices, path, num_partitions=2)
        types.append({(r["destination"], r["type"]) for r in final.take_all()})
        store = open_range_store(path, "rel_id")
        assert store.fetch(as_key_array(pa.array(["R1"])))[0]["parent1_type"].to_pylist() == [fact]
    assert types == [{("P1", "BiologicalParent"), ("P2", "BiologicalParent")},
                     {("P1", "StepParent"), ("P2", "StepParent")}]


def test_empty_resolved_edges_give_a_typed_empty_frame(monkeypatch):
    """A query over an empty resolved-edge Dataset returns zero rows
    with its columns and dtypes, not a ``KeyError`` from selecting
    columns of the 0×0 frame ``to_pandas()`` gives for it."""
    from fs_crawler_ray.model import EDGE_SCHEMA
    from fs_crawler_ray.pipelines import crawl_queries

    empty = ray.data.from_arrow(EDGE_SCHEMA.empty_table())
    monkeypatch.setattr(crawl_queries, "_resolved_edges", lambda sf_dir: (None, None, empty))
    df = crawl_queries.resolved_edge_types("unused")
    assert list(df.columns) == ["source", "destination", "final_type"]
    assert len(df) == 0 and (df.dtypes == object).all()
