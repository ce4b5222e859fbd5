"""Corpus-curation operators: benchmark decontamination, repetition
statistics and percentile length filtering.

The three quality/curation passes a training-data pipeline runs after
dedup (reference has no analog — this is the beyond-reference
training-data suite, same family as ``text.py``):

- :func:`decontaminate` — flag documents sharing word n-grams with a
  held-out evaluation set (the standard "benchmark decontamination"
  sweep). The eval-side n-gram set is small by definition (benchmarks
  are MBs against a corpus of TBs), so it is built once with a
  vocabulary-sized shuffle, pulled to the driver, and broadcast via
  ``ray.put``; the corpus side is a shuffle-free per-batch ``is_in``.
- :func:`doc_ngram_stats` — per-document total vs distinct n-gram
  counts (the Gopher-style repetition signal: a high duplicate-gram
  fraction marks boilerplate/spam). Shuffle-free; integer outputs so
  the oracle comparison has no float hazards.
- :func:`length_percentile_filter` — keep documents whose length sits
  within global ``quantile_disc`` percentile bounds. Exact at any
  scale: lengths are small-domain integers, so per-batch ``bincount``
  partials + an O(distinct values) shuffle yield the full length
  histogram, the thresholds fall out of its cumulative sum on the
  driver (a few hundred rows), and the filter itself is a shuffle-free
  per-batch mask.

All kernels are Arrow/numpy-vectorized; tokenization is shared with
``text._tokenize_batch`` so every operator sees the exact token stream
the DuckDB oracles reproduce.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from fs_crawler_ray.text import _tokenize_batch


def _eval_mask(ids, eval_mod: int) -> np.ndarray:
    """Deterministic eval-slice membership for any id type: integer ids
    slice by ``id % eval_mod`` (the SQL-oracle-checkable form); string
    ids by ``stable_hash64(id) % eval_mod`` (the 100 TB corpus case,
    where ids are URLs/UUIDs)."""
    arr = ids.to_numpy() if hasattr(ids, "to_numpy") else np.asarray(ids)
    if arr.dtype.kind in "iu":
        return (arr % eval_mod) == 0
    from fs_crawler_ray.ids import stable_hash64

    return (stable_hash64(arr.astype(str)) % np.uint64(eval_mod)) == 0


def _batch_ngrams(texts: pa.Array | pa.ChunkedArray, n: int):
    """Vectorized word n-grams for one batch: tokenize (shared kernel),
    join ``n`` shifted token views with a single Arrow
    ``binary_join_element_wise`` call, and keep windows fully inside one
    document. Returns ``(grams: pa.Array, parent: int64 ndarray)``."""
    flat, parent, _ = _tokenize_batch(texts)
    L = len(flat) - n + 1
    empty = pa.array([], type=pa.string())
    if L <= 0:
        return empty, np.zeros(0, np.int64)
    ok = parent[:L] == parent[n - 1:]
    if not ok.any():
        return empty, np.zeros(0, np.int64)
    starts = np.flatnonzero(ok)
    views = [flat.slice(j, L) for j in range(n)]
    grams = pc.binary_join_element_wise(*views, " ")
    return grams.take(pa.array(starts)), parent[starts]


_WMIX = np.uint64(0x100000001B3)  # FNV prime: positional window mix


def _token_hashes(flat: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """64-bit hash per token, computed by dictionary-encoding the token
    stream (one Arrow C++ pass) and hashing only the VOCABULARY —
    ``stable_hash64`` over 30M raw strings would build a unicode matrix
    bigger than the batch; over the few-thousand-word vocabulary it is
    free, and the per-token value is a single gather."""
    from fs_crawler_ray.ids import stable_hash64

    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    enc = flat.dictionary_encode()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return stable_hash64(enc.dictionary)[codes]


def _window_hashes(flat: pa.Array, starts: np.ndarray, L: int, n: int) -> np.ndarray:
    """Combined 64-bit hash per n-token window WITHOUT materializing the
    joined gram strings: per-token hashes (vocabulary-hashed, see
    :func:`_token_hashes`), then ``n`` shifted multiply-adds. Collisions
    are possible (~1e-5 per 30M windows), so callers must STRING-verify
    hash hits before reporting — the prefilter only bounds how many
    strings get built."""
    th = _token_hashes(flat)
    with np.errstate(over="ignore"):
        h = np.zeros(L, dtype=np.uint64)
        for j in range(n):
            h = h * _WMIX + th[j:j + L]
    return h[starts]


def eval_ngram_set(
    ds: ray.data.Dataset,
    n: int = 8,
    eval_mod: int = 53,
) -> pa.Array:
    """Distinct word n-grams of the held-out eval slice
    (``doc_id % eval_mod == 0`` — the deterministic synthetic stand-in
    for a benchmark suite; string ids hash-slice, see
    :func:`_eval_mask`). Per-batch distinct partials stream to the
    driver and dedupe there — bounded by the EVAL set's size, never the
    corpus's, and no shuffle at all."""

    def partial(t: pa.Table) -> pa.Table:
        mask = _eval_mask(t["doc_id"], eval_mod)
        grams, _ = _batch_ngrams(t.filter(pa.array(mask))["text"], n)
        return pa.table({"gram": pc.unique(grams)})

    mapped = ds.select_columns(["doc_id", "text"]).map_batches(
        partial, batch_format="pyarrow")
    # per-batch partials are already distinct; the cross-batch dedup
    # happens driver-side on the (small, eval-sized) result — no
    # shuffle at all
    batches = list(mapped.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.array([], type=pa.string())
    return pc.unique(pa.concat_tables(batches)["gram"].combine_chunks())


def _gram_hashes(grams: pa.Array) -> np.ndarray:
    """Window hashes of already-joined gram strings, computed the same
    way :func:`_window_hashes` combines token hashes — split each gram
    back into its tokens and fold. Runs once over the (small) eval set
    on the driver."""
    if len(grams) == 0:
        return np.zeros(0, dtype=np.uint64)
    toks = pc.split_pattern(grams, " ")
    flat = toks.flatten()
    th = _token_hashes(flat)
    offs = np.zeros(len(grams) + 1, dtype=np.int64)
    offs[1:] = np.cumsum(
        pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64))
    with np.errstate(over="ignore"):
        h = np.zeros(len(grams), dtype=np.uint64)
        width = int((offs[1:] - offs[:-1]).max())
        for j in range(width):
            idx = offs[:-1] + j
            active = idx < offs[1:]
            hj = th[np.minimum(idx, len(th) - 1)]
            h = np.where(active, h * _WMIX + hj, h)
    return h


class _ContaminationFlagger:
    """Actor-pool stage: holds the broadcast eval n-gram set (fetched
    once per actor in ``__init__``, not per batch) and counts, per
    document, how many of its n-gram POSITIONS hit the eval set.

    Two-stage match: a sorted-uint64 searchsorted over combined
    token-hash window hashes prefilters the corpus positions (no gram
    STRING is ever built for the non-matching ~100%), then the few
    hash-hits are string-verified against the eval gram set — the
    reported hits are exact, the hash only bounds the string work."""

    def __init__(self, gram_ref, n: int, eval_mod: int):
        self._grams, self._hashes = ray.get(gram_ref)  # strings, sorted u64
        self._n = n
        self._mod = eval_mod

    def __call__(self, t: pa.Table) -> pa.Table:
        keep = ~_eval_mask(t["doc_id"], self._mod)
        t = t.filter(pa.array(keep))
        ids_col = t["doc_id"].combine_chunks() if isinstance(
            t["doc_id"], pa.ChunkedArray) else t["doc_id"]
        empty = pa.table({"doc_id": pa.array([], type=ids_col.type),
                          "n_hits": pa.array([], type=pa.int64())})
        n = self._n
        flat, parent, _ = _tokenize_batch(t["text"])
        L = len(flat) - n + 1
        if L <= 0 or len(self._hashes) == 0:
            return empty
        ok = parent[:L] == parent[n - 1:]
        if not ok.any():
            return empty
        starts = np.flatnonzero(ok)
        wh = _window_hashes(flat, starts, L, n)
        pos = np.searchsorted(self._hashes, wh)
        cand = self._hashes[np.minimum(pos, len(self._hashes) - 1)] == wh
        if not cand.any():
            return empty
        cs = starts[cand]
        # build gram strings ONLY at hash-hit positions, verify exactly
        g = pc.binary_join_element_wise(
            *[flat.take(pa.array(cs + j)) for j in range(n)], " ")
        verified = pc.is_in(g, value_set=self._grams).to_numpy(zero_copy_only=False)
        if not verified.any():
            return empty
        hits_per_doc = np.bincount(parent[cs[verified]], minlength=len(t))
        nz = np.flatnonzero(hits_per_doc)
        return pa.table({"doc_id": ids_col.take(pa.array(nz)),
                         "n_hits": pa.array(hits_per_doc[nz], type=pa.int64())})


def decontaminate(
    ds: ray.data.Dataset,
    n: int = 8,
    eval_mod: int = 53,
    concurrency: int = 4,
) -> ray.data.Dataset:
    """Benchmark decontamination: ``(doc_id, n_hits)`` for every
    non-eval document sharing at least one word ``n``-gram with the
    eval slice. ``n_hits`` counts contaminated n-gram positions (each
    position matches at most one DISTINCT eval gram, so this equals the
    SQL join cardinality). The corpus pass is shuffle-free."""
    grams = eval_ngram_set(ds, n=n, eval_mod=eval_mod)
    gram_ref = ray.put((grams, np.sort(_gram_hashes(grams))))
    # autoscaling pool (1, N): a FIXED pool of N actors deadlocks when
    # N == cluster CPUs (the actors pin every slot and the upstream
    # parquet-read task can never schedule); starting at 1 leaves the
    # scheduler room and still scales to N where CPUs allow.
    return ds.select_columns(["doc_id", "text"]).map_batches(
        _ContaminationFlagger,
        fn_constructor_args=(gram_ref, n, eval_mod),
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )


def doc_ngram_stats(ds: ray.data.Dataset, n: int = 2) -> ray.data.Dataset:
    """Per-document repetition statistics: ``(doc_id, n_grams,
    n_distinct)`` over word ``n``-grams (documents with at least one
    gram). ``1 - n_distinct/n_grams`` is the Gopher-style
    duplicate-gram fraction; integers are emitted so the comparison is
    exact. Shuffle-free: grams are packed into per-batch dictionary
    codes and counted with one lexsort per batch."""

    def stats(t: pa.Table) -> pa.Table:
        flat, parent, _ = _tokenize_batch(t["text"])
        ids_col = t["doc_id"].combine_chunks() if isinstance(
            t["doc_id"], pa.ChunkedArray) else t["doc_id"]
        empty = pa.table({"doc_id": pa.array([], type=ids_col.type),
                          "n_grams": pa.array([], type=pa.int64()),
                          "n_distinct": pa.array([], type=pa.int64())})
        L = len(flat) - n + 1
        if L <= 0:
            return empty
        ok = parent[:L] == parent[n - 1:]
        if not ok.any():
            return empty
        enc = flat.dictionary_encode()
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(ok)
        packed = np.zeros(len(starts), dtype=np.int64)
        v = np.int64(len(enc.dictionary))
        if int(v) ** n < 2 ** 62:
            for j in range(n):
                packed = packed * v + codes[starts + j]
        else:
            # vocab^n would wrap int64 (silently colliding grams):
            # re-rank after each step so packed stays < n_windows and
            # packed*v + code stays < 2^62 for any n
            for j in range(n):
                packed = np.unique(packed * v + codes[starts + j],
                                   return_inverse=True)[1].astype(np.int64)
        par = parent[starts]
        order = np.lexsort((packed, par))
        ps, ks = par[order], packed[order]
        new = np.ones(len(ps), dtype=bool)
        new[1:] = (ps[1:] != ps[:-1]) | (ks[1:] != ks[:-1])
        total = np.bincount(par, minlength=len(t))
        distinct = np.bincount(ps[new], minlength=len(t))
        nz = np.flatnonzero(total)
        return pa.table({"doc_id": ids_col.take(pa.array(nz)),
                         "n_grams": pa.array(total[nz], type=pa.int64()),
                         "n_distinct": pa.array(distinct[nz], type=pa.int64())})

    return ds.select_columns(["doc_id", "text"]).map_batches(
        stats, batch_format="pyarrow")


def global_quantiles_disc(
    ds: ray.data.Dataset,
    value_col: str,
    qs: list[float],
    agg_partitions: int = 4,
) -> list[int]:
    """Exact global ``quantile_disc`` values of an integer column at any
    scale: per-batch value histograms (one ``np.unique`` each), an
    O(distinct values) shuffle to merge them, and the threshold read off
    the cumulative histogram driver-side (``quantile_disc(q)`` = the
    value at 1-based sorted rank ``ceil(q * N)``)."""

    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, cnt = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uniq), "c": pa.array(cnt.astype(np.int64))})

    from fs_crawler_ray.relops import bucketed_agg

    hist = bucketed_agg(
        ds.select_columns([value_col]).map_batches(partial, batch_format="pyarrow"),
        ["v"], [("c", "sum", "sum(c)")], num_buckets=agg_partitions,
    ).to_pandas()
    if len(hist) == 0:  # empty input: no rows pass any bound
        return [0 for _ in qs]
    hist = hist.sort_values("v")
    counts = hist["sum(c)"].to_numpy()
    values = hist["v"].to_numpy()
    cum = np.cumsum(counts)
    total = int(cum[-1])
    out = []
    for q in qs:
        rank = int(np.ceil(q * total - 1e-9))
        out.append(int(values[np.searchsorted(cum, max(rank, 1))]))
    return out


def length_percentile_filter(
    ds: ray.data.Dataset,
    value_col: str = "n_chars",
    lo: float = 0.05,
    hi: float = 0.95,
) -> ray.data.Dataset:
    """Keep documents whose ``value_col`` lies within the corpus's
    global ``[quantile_disc(lo), quantile_disc(hi)]`` (the
    outlier-trimming length filter). The quantile pass moves only the
    value histogram; the filter is a shuffle-free per-batch mask."""
    lo_v, hi_v = global_quantiles_disc(ds, value_col, [lo, hi])
    return ds.select_columns(["doc_id", value_col]).map_batches(
        lambda t: t.filter(pc.and_(pc.greater_equal(t[value_col], lo_v),
                                   pc.less_equal(t[value_col], hi_v))),
        batch_format="pyarrow")


def filter_reasons(
    ds: ray.data.Dataset,
    lo: float = 0.05,
    hi: float = 0.95,
    eval_mod: int = 53,
    n: int = 3,
    dup_threshold: float = 0.8,
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """Drop-reason ledger — the observability twin of the curation
    funnel: one ``(doc_id, reason)`` row per REJECTED document carrying
    the FIRST failing rule in a fixed priority order (``eval_slice`` >
    ``too_short`` > ``too_long`` > ``contaminated`` > ``near_dup``),
    the per-doc audit trail real curation pipelines (Dolma, RefinedWeb)
    emit so corpus composition changes can be attributed to rules.

    Reuses the funnel's verified legs: the exact global length
    quantiles (histogram-sized shuffle), the n-gram decontamination
    flagger, and the MinHash→Jaccard→components near-dup clusters.
    Flag sets are O(rejected docs), attached with size-aware lookup
    joins; the reason cascade itself is one shuffle-free vectorized
    pass over ``(doc_id, n_chars)``.
    """
    from fs_crawler_ray.components import near_dup_clusters
    from fs_crawler_ray.relops import join

    lo_v, hi_v = global_quantiles_disc(
        ds.select_columns(["doc_id", "n_chars"]), "n_chars", [lo, hi])

    cont = decontaminate(ds.select_columns(["doc_id", "text"]),
                         n=n, eval_mod=eval_mod).map_batches(
        lambda t: pa.table({"__cid": t["doc_id"],
                            "__c": pa.array(np.ones(len(t), np.int8))}),
        batch_format="pyarrow")
    def dup_fn(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].filter(pc.not_equal(t["doc_id"], t["cluster_id"]))
        return pa.table({"__did": ids,
                         "__d": pa.array(np.ones(len(ids), np.int8))})

    dup = near_dup_clusters(ds, threshold=dup_threshold,
                            shingle_k=shingle_k).map_batches(
        dup_fn, batch_format="pyarrow")

    base = ds.select_columns(["doc_id", "n_chars"])
    j = join(base, cont, "doc_id", "__cid", how="left",
             right_schema=pa.schema([("__cid", pa.int64()), ("__c", pa.int8())]))
    j = join(j, dup, "doc_id", "__did", how="left",
             right_schema=pa.schema([("__did", pa.int64()), ("__d", pa.int8())]))

    def classify(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        nch = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = pc.is_valid(t["__c"]).to_numpy(zero_copy_only=False)
        d = pc.is_valid(t["__d"]).to_numpy(zero_copy_only=False)
        reason = np.where(
            ids % eval_mod == 0, "eval_slice",
            np.where(nch < lo_v, "too_short",
                     np.where(nch > hi_v, "too_long",
                              np.where(c, "contaminated",
                                       np.where(d, "near_dup", "")))))
        keep = reason != ""
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "reason": pa.array(reason[keep].astype(object),
                                            type=pa.string())})

    return j.map_batches(classify, batch_format="pyarrow")


def snapshot_diff(
    a: ray.data.Dataset,
    b: ray.data.Dataset,
    id_col: str = "doc_id",
    content_col: str = "text",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Recrawl / CDC snapshot diff: ``(doc_id, status)`` with status in
    ``added`` (only in ``b``), ``removed`` (only in ``a``), ``changed``
    (both, different content hash); unchanged docs emit nothing.
    The incremental-refresh primitive of a crawl pipeline: only the
    diff re-enters the downstream curation stages.

    Both snapshots reduce to ``(id, md5)`` per batch (shuffle-free),
    then ONE full-outer ``hash_join`` on the id classifies every doc —
    no side is ever collected; at 100 TB both hash tables stream
    through the same key-bucket shuffle.
    """
    from fs_crawler_ray.relops import hash_join
    from fs_crawler_ray.text import add_content_hash

    ha = add_content_hash(a.select_columns([id_col, content_col]),
                          column=content_col).map_batches(
        lambda t: pa.table({id_col: t[id_col], "__ha": t["content_hash"]}),
        batch_format="pyarrow")
    hb = add_content_hash(b.select_columns([id_col, content_col]),
                          column=content_col).map_batches(
        lambda t: pa.table({id_col: t[id_col], "__hb": t["content_hash"]}),
        batch_format="pyarrow")
    j = hash_join(ha, hb, on=[id_col], right_on=[id_col],
                  how="full_outer", num_buckets=num_buckets)

    def classify(t: pa.Table) -> pa.Table:
        if t.num_columns == 0 or len(t) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "status": pa.array([], pa.string())})
        ha_v = pc.is_valid(t["__ha"]).to_numpy(zero_copy_only=False)
        hb_v = pc.is_valid(t["__hb"]).to_numpy(zero_copy_only=False)
        same = pc.equal(pc.coalesce(t["__ha"], pa.scalar("", pa.string())),
                        pc.coalesce(t["__hb"], pa.scalar("", pa.string()))
                        ).to_numpy(zero_copy_only=False)
        status = np.where(~ha_v, "added",
                          np.where(~hb_v, "removed",
                                   np.where(~same, "changed", "")))
        keep = status != ""
        return pa.table({id_col: t[id_col].filter(pa.array(keep)),
                         "status": pa.array(status[keep].astype(object),
                                            type=pa.string())})

    return j.map_batches(classify, batch_format="pyarrow")


def winsorize(
    ds: ray.data.Dataset,
    value_col: str = "n_tokens",
    lo: float = 0.05,
    hi: float = 0.95,
) -> ray.data.Dataset:
    """Global percentile winsorization — clamp (not drop) a column to
    the corpus's exact ``[quantile_disc(lo), quantile_disc(hi)]``
    bounds: the robust-statistics sibling of
    :func:`length_percentile_filter` (training pipelines winsorize
    per-doc weights/lengths before mixing so tail outliers can't
    dominate a batch). Same scale shape: one O(distinct values)
    histogram shuffle for the exact bounds, then a shuffle-free
    per-batch integer clamp. Emits ``(doc_id, value_col, <col>_winsor)``."""
    lo_v, hi_v = global_quantiles_disc(ds, value_col, [lo, hi])
    out_name = f"{value_col}_winsor"

    def clamp(t: pa.Table) -> pa.Table:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            value_col: pa.array(v),
            out_name: pa.array(np.clip(v, lo_v, hi_v)),
        })

    return ds.select_columns(["doc_id", value_col]).map_batches(
        clamp, batch_format="pyarrow")
