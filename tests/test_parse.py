import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from fs_crawler_ray.oracle import load_docs
from fs_crawler_ray.stages.parse import RECORD_SCHEMA, parse_documents, spans_roundtrip


def _with_hop(t: pa.Table, hop: int = 0) -> pa.Table:
    return t.append_column("hop", pa.array([hop] * len(t), pa.int32()))


def test_span_sequence_equality(small_corpus):
    """Per-row invariant: (kind, text, media_ref, order) sequences coming
    out of the Ray pipeline equal the raw document spans."""
    ds = ray.data.read_parquet(small_corpus.documents_path)
    out = ds.map_batches(spans_roundtrip, batch_format="pyarrow").to_pandas()
    docs = load_docs(small_corpus.documents_path)
    got = {}
    for r in out.itertuples():
        got.setdefault(r.doc_id, []).append((r.offset, r.kind, r.text, r.media_ref))
    assert set(got) == set(docs)
    for doc_id, spans in docs.items():
        expected = [(s["offset"], s["kind"], s["text"], s["media_ref"]) for s in spans]
        assert sorted(got[doc_id]) == expected, doc_id


def test_parse_vertices_match_oracle_parse(small_corpus):
    t = _with_hop(pq.read_table(small_corpus.documents_path), hop=3)
    rec = parse_documents(t)
    assert rec.schema.equals(RECORD_SCHEMA)
    verts = rec.filter(pa.compute.equal(rec["rec_kind"], "vertex")).to_pylist()
    docs = load_docs(small_corpus.documents_path)
    assert len(verts) == len(docs)
    by_id = {v["id"]: v for v in verts}
    for doc_id, spans in docs.items():
        v = by_id[doc_id]
        sd = {s["kind"]: s["text"] for s in spans}
        assert v["given_name"] == sd["name.given"]
        assert v["surname"] == sd["name.surname"]
        assert v["color"] == {"Male": -1, "Female": 1}.get(sd["gender"], 0)
        assert v["living"] == (sd["living"] == "true")
        assert v["lifespan"] == sd["lifespan"]
        assert v["iteration"] == 3


def test_parse_edges_and_cands(small_corpus):
    t = _with_hop(pq.read_table(small_corpus.documents_path))
    rec = parse_documents(t)
    edges = rec.filter(pa.compute.equal(rec["rec_kind"], "edge"))
    cands = rec.filter(pa.compute.equal(rec["rec_kind"], "cand"))
    docs = load_docs(small_corpus.documents_path)
    n_cp = sum(1 for s_list in docs.values() for s in s_list if s["kind"] == "child_parent")
    n_couple = sum(1 for s_list in docs.values() for s in s_list if s["kind"] == "couple")
    assert len(edges) == n_cp
    assert len(cands) == n_couple + 2 * n_cp
    # every edge splits into valid parts
    e = edges.to_pylist()
    for row in e[:100]:
        assert row["source"] and row["destination"] and row["rel_id"].startswith("R")
        assert row["src_doc"] in docs


def test_parse_media(small_corpus):
    t = _with_hop(pq.read_table(small_corpus.documents_path))
    rec = parse_documents(t)
    media = rec.filter(pa.compute.equal(rec["rec_kind"], "media")).to_pylist()
    docs = load_docs(small_corpus.documents_path)
    n_media = sum(1 for s_list in docs.values() for s in s_list if s["kind"] == "media")
    assert len(media) == n_media
    for m in media[:20]:
        assert m["media_ref"].startswith("memories/")


_SPANS_TYPE = pa.list_(pa.struct([("kind", pa.string()), ("text", pa.string()),
                                   ("media_ref", pa.string()), ("offset", pa.int32())]))


def _reference_parse(batch: pa.Table) -> pa.Table:
    """The parse semantics, one Python row at a time: a vertex per doc
    (the LAST span of each scalar kind, "" when the doc has none), then
    an edge per child_parent span, then the candidates (couple partners,
    then every child, then every parent), then the media spans."""
    docs = batch["doc_id"].to_pylist()
    hops = batch["hop"].to_pylist() if "hop" in batch.column_names else [0] * len(docs)
    spans = [s or [] for s in batch["spans"].to_pylist()]
    vertices, edges, couples, children, parents, media = [], [], [], [], [], []
    for doc, hop, doc_spans in zip(docs, hops, spans):
        last = {sp["kind"]: sp["text"] for sp in doc_spans}
        vertices.append({
            "rec_kind": "vertex", "id": doc, "hop": hop, "iteration": hop,
            "color": {"Male": -1, "Female": 1}.get(last.get("gender", ""), 0),
            "surname": last.get("name.surname", ""), "given_name": last.get("name.given", ""),
            "lifespan": last.get("lifespan", ""), "living": last.get("living", "") == "true",
        })
        for sp in doc_spans:
            at = {"src_doc": doc, "offset": sp["offset"], "hop": hop}
            if sp["kind"] == "child_parent":
                child, parent, rel = sp["text"].split("|")[:3]
                edges.append({"rec_kind": "edge", "source": child, "destination": parent,
                              "rel_id": rel, **at})
                children.append({"rec_kind": "cand", "cand_id": child, **at})
                parents.append({"rec_kind": "cand", "cand_id": parent, **at})
            elif sp["kind"] == "couple":
                couples.append({"rec_kind": "cand", "cand_id": sp["text"], **at})
            elif sp["kind"] == "media":
                media.append({"rec_kind": "media", "id": doc, "media_ref": sp["media_ref"], **at})
    rows = vertices + edges + couples + children + parents + media
    return pa.Table.from_pylist(rows, schema=RECORD_SCHEMA)


def _span(kind, text, offset, media_ref=""):
    return {"kind": kind, "text": text, "media_ref": media_ref, "offset": offset}


def test_parse_matches_reference_on_corpus(small_corpus):
    t = pq.read_table(small_corpus.documents_path)
    for batch in (_with_hop(t, hop=2), _with_hop(t).slice(37, 400), t.slice(5, 90)):
        assert parse_documents(batch).equals(_reference_parse(batch))


def test_parse_empty_batch():
    empty = pa.table({"doc_id": pa.array([], pa.string()),
                      "spans": pa.array([], _SPANS_TYPE),
                      "hop": pa.array([], pa.int32())})
    out = parse_documents(empty)
    assert out.equals(RECORD_SCHEMA.empty_table())
    assert parse_documents(empty.drop(["hop"])).equals(RECORD_SCHEMA.empty_table())


def test_parse_edge_cases_match_reference():
    """No ``hop`` column (hop 0); docs missing a scalar kind ("" default,
    so ``color`` 0 and ``living`` False), or with no spans at all; and
    batches with no child_parent, couple or media spans."""
    scalars = [_span("name.given", "Ann", 0), _span("gender", "Female", 1),
               _span("living", "true", 2)]
    batches = {
        "missing scalars": [[_span("name.surname", "Ode", 0)], [], scalars],
        "no child_parent": [scalars + [_span("couple", "BBBB-002", 3),
                                       _span("media", "", 4, "memories/x")]],
        "no couple": [scalars + [_span("child_parent", "AAAA-001|BBBB-002|R1", 3)]],
        "no media": [scalars + [_span("couple", "BBBB-002", 3),
                                _span("child_parent", "AAAA-001|CCCC-003|R2", 4)]],
        "scalars only": [scalars, [_span("gender", "Male", 0)]],
    }
    for name, spans in batches.items():
        t = pa.table({"doc_id": [f"AAAA-{i:03d}" for i in range(len(spans))],
                      "spans": pa.array(spans, _SPANS_TYPE)})
        for batch in (t, _with_hop(t, hop=4)):
            out = parse_documents(batch)
            assert out.equals(_reference_parse(batch)), name
    v = parse_documents(pa.table({"doc_id": ["AAAA-000"],
                                  "spans": pa.array([[]], _SPANS_TYPE)})).to_pylist()
    assert v == [{**dict.fromkeys(RECORD_SCHEMA.names), "rec_kind": "vertex", "id": "AAAA-000",
                  "color": 0, "surname": "", "given_name": "", "iteration": 0,
                  "lifespan": "", "living": False, "hop": 0}]


def test_last_wins_on_duplicate_scalar_spans():
    spans = [[
        {"kind": "name.given", "text": "A", "media_ref": "", "offset": 0},
        {"kind": "name.given", "text": "B", "media_ref": "", "offset": 1},
        {"kind": "gender", "text": "Male", "media_ref": "", "offset": 2},
        {"kind": "gender", "text": "Female", "media_ref": "", "offset": 3},
    ]]
    t = pa.table({"doc_id": ["XXXX-AAA"], "spans": spans, "hop": pa.array([0], pa.int32())})
    rec = parse_documents(t)
    v = rec.filter(pa.compute.equal(rec["rec_kind"], "vertex")).to_pylist()[0]
    assert v["given_name"] == "B"
    assert v["color"] == 1


def test_malformed_child_parent_span_is_dropped(small_corpus):
    """A child_parent span without its three ``child|parent|rel_id``
    parts gives no edge and no candidates; the rest of its batch parses
    as it does without that span."""
    t = _with_hop(pq.read_table(small_corpus.documents_path).slice(0, 40), hop=1)
    spans = t["spans"].to_pylist()
    bad = [list(s) for s in spans]
    bad[7] = bad[7] + [_span("child_parent", "AAAA-001|BBBB-002", 999)]
    bad[20] = [_span("child_parent", "", 998)] + bad[20]
    broken = t.set_column(t.column_names.index("spans"), "spans",
                          pa.array(bad, t["spans"].type))
    assert parse_documents(broken).equals(parse_documents(t))
    only = pa.table({"doc_id": ["AAAA-000"],
                     "spans": pa.array([[_span("child_parent", "AAAA-001|BBBB-002", 0)]],
                                       _SPANS_TYPE)})
    rec = parse_documents(only)
    assert rec["rec_kind"].to_pylist() == ["vertex"]
