"""Adjacency export conformance: the golden 15-vertex fixture
(FIXTURES.md F5 — data from reference tests/util/resources/test.sql)
must produce the exact CSR triple of reference
tests/util/test_db_reader.py:62-70, and hop filtering must match
tests/util/test_hop_filtering.py:58-107 counts."""

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pytest
import ray.data

from fs_crawler_ray.stages.export import (
    build_csr,
    compute_positions,
    hop_filter_vertices,
    vertex_key,
    write_adjacency_shards,
    zip_with_index,
)

GOLDEN_VERTICES = [
    # (id, color, surname, given_name, iteration, lifespan)
    ("ABCD-1AB", -1, "R", "H", 0, "1935-2016"),
    ("ABCD-2AB", -1, "R", "D", 0, "1963-Living"),
    ("ABCD-3AB", 1, "S", "R", 1, "1924-1991"),
    ("ABCD-4AB", -1, "S", "D", 2, "1935-2019"),
    ("ABCD-5AB", -1, "R", "E", 1, "1912-1993"),
    ("ABCD-6AB", 1, "T", "M", 1, "1912-1988"),
    ("ABCD-7AB", 1, "W", "A", 2, "1882-1964"),
    ("ABCD-8AB", -1, "R", "M", 2, "1880-1948"),
    ("ABCD-9AB", 1, "W", "I", 3, "1901-1929"),
    ("ABCD-AAB", -1, "S", "J", 3, "1894-1983"),
    ("ABCD-BAB", 1, "K", "E", 3, "1913-2007"),
    ("ABCD-CAB", 1, "K", "M", 3, "1838-1925"),
    ("ABCD-DAB", -1, "R", "G", 3, "1836-1904"),
    ("ABCD-EAB", -1, "S", "S", 3, "1854-1896"),
    ("ABCD-FAB", 1, "C", "E", 3, "1868-1942"),
]

GOLDEN_EDGES = [
    ("ABCD-1AB", "ABCD-5AB", "AssumedBiological", "MLBP-167"),
    ("ABCD-1AB", "ABCD-6AB", "AssumedBiological", "MLBP-167"),
    ("ABCD-2AB", "ABCD-5AB", "AssumedBiological", "M9JK-BT5"),
    ("ABCD-2AB", "ABCD-3AB", "AssumedBiological", "M9JK-BT5"),
    ("ABCD-3AB", "ABCD-AAB", "UnspecifiedParentType", "MZRR-D4L"),
    ("ABCD-3AB", "ABCD-9AB", "BiologicalParent", "MZRR-D4L"),
    ("ABCD-3AB", "ABCD-BAB", "StepParent", "98FZ-R77"),
    ("ABCD-4AB", "ABCD-AAB", "AssumedBiological", "9HBF-HG7"),
    ("ABCD-4AB", "ABCD-BAB", "AssumedBiological", "9HBF-HG7"),
    ("ABCD-5AB", "ABCD-8AB", "AssumedBiological", "M9CP-S5N"),
    ("ABCD-5AB", "ABCD-7AB", "AssumedBiological", "M9CP-S5N"),
    ("ABCD-8AB", "ABCD-DAB", "AssumedBiological", "MWFP-3BY"),
    ("ABCD-8AB", "ABCD-CAB", "AssumedBiological", "MWFP-3BY"),
    ("ABCD-AAB", "ABCD-EAB", "AssumedBiological", "M4W8-FH4"),
    ("ABCD-AAB", "ABCD-FAB", "AssumedBiological", "M4W8-FH4"),
]


@pytest.fixture()
def golden():
    verts = ray.data.from_arrow(
        pa.table(
            {
                "id": [v[0] for v in GOLDEN_VERTICES],
                "color": pa.array([v[1] for v in GOLDEN_VERTICES], pa.int8()),
                "surname": [v[2] for v in GOLDEN_VERTICES],
                "given_name": [v[3] for v in GOLDEN_VERTICES],
                "iteration": pa.array([v[4] for v in GOLDEN_VERTICES], pa.int32()),
                "lifespan": [v[5] for v in GOLDEN_VERTICES],
            }
        )
    )
    edges = ray.data.from_arrow(
        pa.table(
            {
                "source": [e[0] for e in GOLDEN_EDGES],
                "destination": [e[1] for e in GOLDEN_EDGES],
                "type": [e[2] for e in GOLDEN_EDGES],
                "id": [e[3] for e in GOLDEN_EDGES],
            }
        )
    )
    return verts, edges


def test_golden_csr_triple(golden):
    verts, edges = golden
    rows, cols, vals = build_csr(verts, edges, hops=4, order_cols=["id"], num_partitions=4)
    r = -1
    assert vals == [r, 2, 3, r, 3, 2, 1, 3, 2, r, 2, 3, r, 3, 2, 1, 1, r, 3, 2, 1, r, 2, 3, 1, 1, r, r, 1]
    assert rows == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 7, 7, 7, 8, 9, 9, 9, 10, 11, 12, 13, 14]
    assert cols == [0, 4, 5, 1, 2, 4, 2, 8, 9, 3, 9, 10, 4, 6, 7, 5, 6, 7, 11, 12, 8, 9, 13, 14, 10, 11, 12, 13, 14]


@pytest.mark.parametrize("hops,expected", [(1, 2), (2, 5), (3, 8), (None, 15)])
def test_hop_filtering_counts(golden, hops, expected):
    verts, _ = golden
    assert hop_filter_vertices(verts, hops).count() == expected


def test_hop_filtered_csr_is_subgraph(golden):
    verts, edges = golden
    rows, cols, vals = build_csr(verts, edges, hops=2, order_cols=["id"], num_partitions=4)
    # 5 vertices (iteration < 2): 1AB,2AB,3AB,5AB,6AB → positions 1,2,3,4,5
    # surviving edges: 1AB→5AB, 1AB→6AB, 2AB→5AB, 2AB→3AB
    assert rows == [0, 0, 0, 1, 1, 1, 2, 3, 4]
    assert cols == [0, 3, 4, 1, 2, 3, 2, 3, 4]
    assert vals == [-1, 2, 3, -1, 3, 2, 1, -1, 1]


def test_zip_with_index_dense_and_ordered():
    ds = ray.data.range(1000).map_batches(
        lambda b: {"k": 999 - b["id"]}, batch_format="numpy"
    )
    out = zip_with_index(ds, ["k"], "pos").take_all()
    ks = sorted(r["k"] for r in out)
    by_pos = {r["pos"]: r["k"] for r in out}
    assert sorted(by_pos) == list(range(1, 1001))
    assert [by_pos[i] for i in range(1, 1001)] == ks


@pytest.mark.parametrize("mod", [7, 1])
def test_zip_with_index_metadata_from_the_driver(remote_tasks, mod):
    """The numbered Dataset's row counts and schema come from the sort's
    metadata (no ``get_table_block_metadata_schema`` task) and match
    its blocks; the empty partitions a one-key sort leaves are dropped."""
    ds = ray.data.range(1000, override_num_blocks=4).map_batches(
        lambda b: {"k": b["id"] % mod, "v": b["id"].astype("float64")}, batch_format="numpy")
    out = zip_with_index(ds, ["k"], "pos", keep=["v"])
    assert remote_tasks["get_table_block_metadata_schema"] == 0
    assert out.count() == 1000
    want = pa.schema([("v", pa.float64()), ("pos", pa.int64())])
    assert out.schema().base_schema == want
    blocks = ray.get(out.to_arrow_refs())
    assert all(b.schema == want and len(b) for b in blocks)
    assert mod != 1 or len(blocks) == 1  # one key: one non-empty partition
    assert sorted(pa.concat_tables(blocks)["pos"].to_pylist()) == list(range(1, 1001))


def test_compute_positions_canonical_order(golden):
    verts, _ = golden
    pos = {r["id"]: r["position"] for r in compute_positions(verts).take_all()}
    expected_order = sorted(GOLDEN_VERTICES, key=lambda v: (v[4], v[0]))
    for i, v in enumerate(expected_order, start=1):
        assert pos[v[0]] == i


def test_vertex_key(golden):
    verts, _ = golden
    vk = {r["position"]: (r["external_id"], r["designation"]) for r in
          vertex_key(verts, hops=4, order_cols=["id"]).take_all()}
    assert vk[0] == ("ABCD-1AB", "'R', 'H'")
    assert vk[14] == ("ABCD-FAB", "'C', 'E'")


def test_builder_protocol_golden(golden):
    """The pluggable builder protocol (reference AbstractGraphBuilder +
    merge-interleave read order) reproduces the golden CSR arrays via
    back-to-front fill, exactly like reference tests/util/test_db_reader.py."""
    from fs_crawler_ray.stages.export import AbstractGraphBuilder, build_with_builder

    class CsrBuilder(AbstractGraphBuilder):
        def init_builder(self, nv, ne):
            self.idx = nv + ne - 1
            self.val = [0] * (nv + ne)
            self.col = [0] * (nv + ne)
            self.row = [0] * (nv + ne)
            self.genders = [0] * nv

        def add_gender(self, vid, color):
            self.genders[vid] = color

        def add_vertex(self, vid, color):
            self.val[self.idx] = color
            self.row[self.idx] = vid
            self.col[self.idx] = vid
            self.idx -= 1

        def add_edge(self, src, dst):
            self.val[self.idx] = 3 if self.genders[dst] == 1 else 2
            self.row[self.idx] = src
            self.col[self.idx] = dst
            self.idx -= 1

        def build(self):
            return self.row, self.col, self.val

    verts, edges = golden
    rows, cols, vals = build_with_builder(verts, edges, CsrBuilder(), hops=4,
                                          order_cols=["id"], num_partitions=4)
    r = -1
    assert vals == [r, 2, 3, r, 3, 2, 1, 3, 2, r, 2, 3, r, 3, 2, 1, 1, r, 3, 2, 1, r, 2, 3, 1, 1, r, r, 1]
    assert rows == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 7, 7, 7, 8, 9, 9, 9, 10, 11, 12, 13, 14]


def test_write_adjacency_shards(golden, tmp_path):
    verts, edges = golden
    out = str(tmp_path / "adj")
    write_adjacency_shards(verts, edges, out, shard_size=8, hops=4, order_cols=["id"],
                           num_partitions=4)
    shards = sorted(d for d in os.listdir(out) if d.startswith("shard="))
    assert shards == ["shard=0", "shard=1"]
    got = ray.data.read_parquet(out).take_all()
    assert len(got) == 29
    for r in got:
        assert r["row"] // 8 == int(r["shard"])


class _OrderingBuilder:
    """Test builder: records entries, supplies a REVERSING canonical
    ordering, uses the default pickle cache protocol."""

    def __init__(self):
        from fs_crawler_ray.stages.export import AbstractGraphBuilder

        self._abc = AbstractGraphBuilder
        self.reset()
        self.builds = 0
        self.loads = 0

    def reset(self):
        self.nv = 0
        self.entries = []
        self.genders = {}

    def init_builder(self, nv, ne):
        self.reset()
        self.nv = nv

    def add_vertex(self, vid, color):
        self.entries.append(("v", vid, color))

    def add_edge(self, s, d):
        self.entries.append(("e", s, d))

    def add_gender(self, vid, color):
        self.genders[vid] = color

    def build(self):
        self.builds += 1
        return {"entries": list(self.entries), "genders": dict(self.genders)}

    def get_ordering(self):
        import numpy as np

        return np.arange(self.nv)[::-1]  # reverse permutation

    # default cache protocol from the ABC
    def save_cache(self, graph, path, metadata):
        return self._abc.save_cache(self, graph, path, metadata)

    def load_cache(self, path, expected_metadata):
        self.loads += 1
        return self._abc.load_cache(self, path, expected_metadata)

    def is_cache_valid(self, cache_path, source_path):
        return self._abc.is_cache_valid(self, cache_path, source_path)


def _fake_crawl_dir(tmp_path, golden):
    import json

    import pyarrow.parquet as pq

    from fs_crawler_ray.model import FRONTIER_SCHEMA

    verts, edges = golden
    hop0 = os.path.join(tmp_path, "hop=0")
    for sub in ("vertices.parquet", "edges.parquet", "frontier.parquet", "processing.parquet"):
        os.makedirs(os.path.join(hop0, sub), exist_ok=True)
    vt = pa.Table.from_pandas(verts.to_pandas(), preserve_index=False)
    vt = vt.append_column("living", pa.array([False] * len(vt)))
    pq.write_table(vt, os.path.join(hop0, "vertices.parquet", "part.parquet"))
    et = pa.Table.from_pandas(edges.to_pandas(), preserve_index=False)
    et = et.append_column("hop", pa.array([0] * len(et), pa.int32()))
    pq.write_table(et, os.path.join(hop0, "edges.parquet", "part.parquet"))
    pq.write_table(FRONTIER_SCHEMA.empty_table(), os.path.join(hop0, "frontier.parquet", "empty.parquet"))
    pq.write_table(FRONTIER_SCHEMA.empty_table(), os.path.join(hop0, "processing.parquet", "empty.parquet"))
    with open(os.path.join(hop0, "log.json"), "w") as f:
        json.dump({"iteration": 0}, f)
    return tmp_path


def test_ordering_round_trip_and_cache(golden, tmp_path):
    """S10/O2/X2 completion: compute_ordering persists the builder's
    permutation; read() composes it; read(use_cache=True) round-trips
    through the builder cache with mtime + hops-metadata validation
    (reference db_reader.py:157-249)."""
    import time as _time

    import pyarrow.parquet as pq

    from fs_crawler_ray.stages.export import RelationshipGraphReader

    d = _fake_crawl_dir(str(tmp_path), golden)
    b = _OrderingBuilder()
    reader = RelationshipGraphReader(d, b, hops=None)

    # ordering round trip: persisted once, reused
    reader.compute_ordering()
    assert reader.has_ordering()
    nv = 15
    assert pq.read_metadata(reader.ordering_path).num_rows == nv
    mtime = os.path.getmtime(reader.ordering_path)
    reader.compute_ordering()  # up-to-date → no rewrite
    assert os.path.getmtime(reader.ordering_path) == mtime

    # the persisted permutation reverses the default (iteration, id) order
    odf = pq.read_table(reader.ordering_path).to_pandas().sort_values("external_id")
    default = sorted(
        (v[4], v[0]) for v in GOLDEN_VERTICES
    )
    first_id = default[0][1]
    assert int(odf[odf["external_id"] == first_id]["position"].iloc[0]) == nv

    # read() composes the ordering: the first-default vertex now sits at
    # diag row nv-1
    g = reader.read()
    diag_rows = {e[1]: e for e in g["entries"] if e[0] == "v"}
    assert (nv - 1) in diag_rows

    # cache round trip
    builds_before = b.builds
    g1 = reader.read(use_cache=True)          # builds + saves
    assert b.builds == builds_before + 1
    g2 = reader.read(use_cache=True)          # cache hit → load, no build
    assert b.loads == 1 and b.builds == builds_before + 1
    assert g2 == g1

    # hops change → metadata mismatch → rebuild (per-hops cache name)
    r2 = RelationshipGraphReader(d, b, hops=2)
    r2.read(use_cache=True)
    assert b.builds == builds_before + 2

    # touching the source invalidates freshness
    _time.sleep(0.01)
    os.utime(os.path.join(d, "hop=0", "log.json"))
    assert not b.is_cache_valid(reader.cache_path(), reader._source_mtime_path())
    reader.read(use_cache=True)
    assert b.builds == builds_before + 3


def test_golden_csr_hash_join_path(golden, tmp_path, shuffle_joins):
    """relops.BROADCAST_LIMIT=0 sends the endpoint lookups through the
    bucketed hash_join (the path for vertex tables too large to
    broadcast); the CSR must still equal the golden triple."""
    verts, edges = golden
    rows, cols, vals = build_csr(verts, edges, hops=4, order_cols=["id"], num_partitions=4)
    r = -1
    assert vals == [r, 2, 3, r, 3, 2, 1, 3, 2, r, 2, 3, r, 3, 2, 1, 1, r, 3, 2, 1, r, 2, 3, 1, 1, r, r, 1]
    assert rows == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 6, 7, 7, 7, 8, 9, 9, 9, 10, 11, 12, 13, 14]
    assert cols == [0, 4, 5, 1, 2, 4, 2, 8, 9, 3, 9, 10, 4, 6, 7, 5, 6, 7, 11, 12, 8, 9, 13, 14, 10, 11, 12, 13, 14]
    out = str(tmp_path / "adj")
    write_adjacency_shards(verts, edges, out, shard_size=8, hops=4, order_cols=["id"],
                           num_partitions=4)
    got = sorted((r["row"], r["diag"], r["col"], r["val"])
                 for r in ray.data.read_parquet(out).take_all())
    assert [(g[0], g[2], g[3]) for g in got] == list(zip(rows, cols, vals))


def test_hops_zero_is_an_empty_graph(golden, tmp_path):
    """hops=0 keeps no vertex (iteration < 0), so the graph is empty —
    not a crash on the empty vertex table."""
    verts, edges = golden
    assert build_csr(verts, edges, hops=0, order_cols=["id"], num_partitions=4) == ([], [], [])


def test_hops_zero_writes_no_entries(golden, tmp_path):
    verts, edges = golden
    out = str(tmp_path / "adj")
    write_adjacency_shards(verts, edges, out, shard_size=8, hops=0, num_partitions=4)
    assert os.path.isdir(out)
    assert pads.dataset(out, format="parquet", partitioning="hive").count_rows() == 0


def test_hops_zero_builder_gets_empty_graph(golden):
    from fs_crawler_ray.stages.export import build_with_builder

    class Recording(_OrderingBuilder):
        def init_builder(self, nv, ne):
            super().init_builder(nv, ne)
            self.sizes = (nv, ne)

    verts, edges = golden
    b = Recording()
    g = build_with_builder(verts, edges, b, hops=0, num_partitions=4)
    assert b.sizes == (0, 0) and g == {"entries": [], "genders": {}}
