"""Vectorized span parser — the core extractor (SURVEY §2.2 M1–M5).

One zero-copy Arrow pass turns a batch of interleaved documents
``(doc_id, spans, hop)`` into a normalized record table tagged by
``rec_kind``:

- ``vertex``  — person parse (reference ``fscrawler/model/individual.py:41-57``
  name/gender/living/lifespan extraction, ``fscrawler/model/name.py:6-16``
  given/surname parts; for repeated scalar spans the LAST one wins,
  matching the reference's non-preferred-name fallback).
- ``edge``    — one row per child_parent span
  (``fscrawler/controller/fsapi.py:156-161`` parent1/parent2 expansion),
  text ``child|parent|rel_id`` split vectorized; a span with fewer
  parts is dropped (no edge, no candidates).
- ``cand``    — frontier candidates: Couple partners
  (``fsapi.py:151-155``) plus both endpoints of every child_parent span
  (``graph_memory_impl.py:69-72`` add_to_frontier of child and parent).
- ``media``   — media spans (evidence persona URIs) routed to the
  multimodal pipeline.
- ``miss`` / ``blocked`` — a fetched id that yielded no document, in
  ``id``: ``blocked`` if the robots policy disallows it, else ``miss``
  (no such document); the crawl's fetch stage emits these
  (:func:`miss_records`), not the parser.

Rows keep ``(hop, src_doc, offset)`` so downstream keep-first dedup is
deterministic under the canonical visit order (sorted doc id per hop)
without relying on physical execution order.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fs_crawler_ray.model import SpanKind

RECORD_SCHEMA = pa.schema(
    [
        ("rec_kind", pa.string()),
        ("id", pa.string()),
        ("color", pa.int8()),
        ("surname", pa.string()),
        ("given_name", pa.string()),
        ("iteration", pa.int32()),
        ("lifespan", pa.string()),
        ("living", pa.bool_()),
        ("source", pa.string()),
        ("destination", pa.string()),
        ("rel_id", pa.string()),
        ("cand_id", pa.string()),
        ("media_ref", pa.string()),
        ("src_doc", pa.string()),
        ("offset", pa.int32()),
        ("hop", pa.int32()),
    ]
)


def _emit(rec_kind: str, n: int, cols: dict) -> pa.Table:
    arrays = []
    for f in RECORD_SCHEMA:
        if f.name == "rec_kind":
            arrays.append(pa.repeat(pa.scalar(rec_kind, f.type), n))
        elif f.name in cols:
            arrays.append(cols[f.name].cast(f.type))
        else:
            arrays.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(arrays, schema=RECORD_SCHEMA)


def parse_documents(batch: pa.Table) -> pa.Table:
    """(doc_id, spans, hop) batch → normalized record table.

    Every string stays in Arrow: spans are selected by kind through one
    ``dictionary_encode``, and each output column is a ``take`` of the
    span or document columns at numpy-computed indices."""
    batch = batch.combine_chunks()
    n_docs = len(batch)
    doc_ids = batch["doc_id"].combine_chunks()
    spans = batch["spans"].combine_chunks()
    hops = (batch["hop"].combine_chunks() if "hop" in batch.column_names
            else pa.array(np.zeros(n_docs, np.int32)))

    flat = spans.flatten()
    parent = pc.list_parent_indices(spans).to_numpy()
    text = flat.field("text")
    offset = flat.field("offset")
    kinds = pc.dictionary_encode(flat.field("kind"))
    codes = kinds.indices.fill_null(-1).to_numpy()
    code_of = {k: i for i, k in enumerate(kinds.dictionary.to_pylist())}

    def spans_of(kind: str) -> np.ndarray:
        """Indices (ascending) of the spans of ``kind``."""
        code = code_of.get(kind)
        return np.zeros(0, np.int64) if code is None else np.flatnonzero(codes == code)

    def at_docs(idx: np.ndarray) -> dict:
        """src_doc/offset/hop columns of the spans at ``idx``."""
        docs = pa.array(parent[idx])
        return {"src_doc": doc_ids.take(docs), "offset": offset.take(pa.array(idx)),
                "hop": hops.take(docs)}

    parts: list[pa.Table] = []

    # --- vertices (one per doc) --------------------------------------
    def last_of(kind: str) -> pa.Array:
        """Per doc, the text of its LAST span of ``kind``; "" if none."""
        idx = spans_of(kind)
        docs = parent[idx]
        last = np.full(n_docs, -1, np.int64)
        is_last = np.ones(len(idx), bool)
        is_last[:-1] = docs[1:] != docs[:-1]  # spans are in doc order
        last[docs[is_last]] = idx[is_last]
        found = last >= 0
        taken = text.take(pa.array(last, mask=~found))
        return pc.if_else(pa.array(found), taken, pa.scalar("", text.type))

    if n_docs:
        gender = last_of(SpanKind.GENDER)
        male = pc.equal(gender, "Male").fill_null(False).to_numpy(zero_copy_only=False)
        female = pc.equal(gender, "Female").fill_null(False).to_numpy(zero_copy_only=False)
        color = np.where(male, -1, np.where(female, 1, 0)).astype(np.int8)
        parts.append(_emit("vertex", n_docs, {
            "id": doc_ids,
            "color": pa.array(color),
            "surname": last_of(SpanKind.NAME_SURNAME),
            "given_name": last_of(SpanKind.NAME_GIVEN),
            "iteration": hops,
            "lifespan": last_of(SpanKind.LIFESPAN),
            "living": pc.equal(last_of(SpanKind.LIVING), "true").fill_null(False),
            "hop": hops,
        }))

    # --- edges (child_parent spans) ----------------------------------
    cp = spans_of(SpanKind.CHILD_PARENT)
    split = pc.split_pattern(text.take(pa.array(cp)), "|")
    # a span without its three child|parent|rel_id parts is dropped: it
    # gives no edge and no candidates
    whole = pc.greater_equal(pc.list_value_length(split), 3).fill_null(False)
    if not pc.all(whole).as_py():
        cp, split = cp[whole.to_numpy(zero_copy_only=False)], split.filter(whole)
    child, par = pc.list_element(split, 0), pc.list_element(split, 1)
    if len(cp):
        parts.append(_emit("edge", len(cp), {
            "source": child, "destination": par, "rel_id": pc.list_element(split, 2),
            **at_docs(cp),
        }))

    # --- frontier candidates -----------------------------------------
    cpl = spans_of(SpanKind.COUPLE)
    n_cand = len(cpl) + 2 * len(cp)
    if n_cand:
        parts.append(_emit("cand", n_cand, {
            "cand_id": pa.concat_arrays([text.take(pa.array(cpl)), child, par]),
            **at_docs(np.concatenate([cpl, cp, cp])),
        }))

    # --- media spans --------------------------------------------------
    md = spans_of(SpanKind.MEDIA)
    if len(md):
        at = at_docs(md)
        parts.append(_emit("media", len(md), {
            "id": at["src_doc"], "media_ref": flat.field("media_ref").take(pa.array(md)), **at,
        }))

    if not parts:
        return RECORD_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def miss_records(ids: pa.Array, kind: str = "miss") -> pa.Table:
    """One ``kind`` record (``miss`` or ``blocked``) per id, in the
    parsed-record layout."""
    return _emit(kind, len(ids), {"id": ids})


def spans_roundtrip(batch: pa.Table) -> pa.Table:
    """Identity re-emission of (kind, text, media_ref, offset) sequences —
    used by the span-sequence-equality conformance test (the per-row
    invariant from BASELINE input_hint)."""
    spans = batch["spans"].combine_chunks()
    flat = spans.flatten()
    parent = pc.list_parent_indices(spans)
    return pa.table(
        {
            "doc_id": pc.take(batch["doc_id"].combine_chunks(), parent),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )
