"""Temporal / windowed operators the reference lacks, built as Ray Data
compositions (brief: "custom operators" — as-of join, windowed
aggregate, sessionization, per-group top-k).

Shape shared by all of them: ONE hash shuffle into key-hash BUCKETS
(``relops.shuffle_apply`` — all rows of a key land in one bucket, many
keys per bucket) followed by a per-bucket kernel that is vectorized
ACROSS keys (numpy sort/searchsorted/cumsum over the whole bucket —
no per-key Python call, unlike a naive ``groupby(key).map_groups``
which at deployment scale would make one Python call per user).
Partitioning assumption, stated once: a bucket must fit in one
worker's heap — tune ``num_buckets`` to the data; a pathologically hot
key gets the same remedy (salt + re-merge) as the crawl's salted
repartition of hot lineages.

Every per-bucket body is Arrow-native (``batch_format="pyarrow"``):
string keys become dictionary codes (one C++ hash pass, no Python
object materialization), sorts are ``pc.sort_indices``, and the
numeric work is numpy over zero-copy views — round 2 ran these through
pandas, which round-tripped every string column through Python objects
(``temporal_windows`` was the slowest bench row).

The timeline kernels (rolling window, as-of) linearize (key, ts) into
one sortable int64 axis via per-key offsets; when ``n_keys × span``
would overflow int64 they fall back to a per-key-segment numpy loop
(same results, still no per-key Python dispatch overhead).

These have no reference analog (SURVEY.md §2.5: "no windows, no
as-of/range joins"); they are part of the beyond-reference
training-data/ETL surface and are each strictly oracled against DuckDB
window/ASOF SQL in ``__ray_entry__``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from fs_crawler_ray.relops import shuffle_apply


def _sorted_table(t: pa.Table, sort_keys: list[tuple[str, str]]) -> pa.Table:
    if len(t) == 0:
        return t
    return t.take(pc.sort_indices(t, sort_keys=sort_keys))


def _key_codes(col) -> np.ndarray:
    """Key column → dense int codes (equal values ⇔ equal codes). One
    Arrow dictionary-encode pass; no Python string materialization."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.dictionary_encode(col).indices.to_numpy(zero_copy_only=False).astype(np.int64)


def _ts_i64(col) -> np.ndarray:
    """Timestamp/integer column → int64 epoch microseconds."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.timestamp("us"))
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def sessionize(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    gap: pd.Timedelta,
    value_col: str | None = None,
    order_cols: list[str] | None = None,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Gap-based sessionization: within each ``key``, a new session
    starts when the time since the previous row exceeds ``gap``
    (strictly). Emits one row per session:
    ``(key, session_id, n_events, start_ts, end_ts[, sum_value])``
    with ``session_id`` numbered 1.. in time order per key.
    """
    order_cols = order_cols or [ts_col]
    gap_us = int(gap.to_timedelta64().astype("timedelta64[us]").astype(np.int64))

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(t, [(key, "ascending")] + [(c, "ascending") for c in order_cols])
        n = len(t)
        k = _key_codes(t[key])
        ts = _ts_i64(t[ts_col])
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        new_sess = key_change.copy()
        if n > 1:
            new_sess[1:] |= (ts[1:] - ts[:-1]) > gap_us
        gsid = np.cumsum(new_sess)  # global segment id, 1-based
        # per-key session id = gsid − gsid at the key's first session + 1
        key_base = np.maximum.accumulate(np.where(key_change, gsid, 0))
        starts = np.flatnonzero(new_sess)
        ends = np.r_[starts[1:], n] if n else np.zeros(0, dtype=np.int64)
        take_starts = pa.array(starts)
        cols = {
            key: t[key].take(take_starts),
            "session_id": pa.array((gsid - key_base + 1)[starts] if n else np.zeros(0, np.int64)),
            "n_events": pa.array((ends - starts).astype(np.int64)),
            "start_ts": t[ts_col].take(take_starts),
            "end_ts": t[ts_col].take(pa.array(ends - 1 if n else ends)),
        }
        if value_col is not None:
            csum = np.r_[0.0, np.cumsum(_as_f64(t[value_col]))]
            cols["sum_value"] = pa.array(csum[ends] - csum[starts])
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def _as_f64(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.cast(pa.float64()).to_numpy(zero_copy_only=False)


def _union_schema(l_sel: ray.data.Dataset, r_sel: ray.data.Dataset) -> dict[str, pa.DataType]:
    from fs_crawler_ray.relops import arrow_dtype

    fields: dict[str, pa.DataType] = {}
    for ds_ in (l_sel, r_sel):
        sch = ds_.schema()
        for n, typ in zip(sch.names, sch.types):
            typ = arrow_dtype(typ)  # pandas-backed sides report Python classes
            if n in fields and fields[n] != typ:
                raise TypeError(f"column {n!r} has conflicting types {fields[n]} / {typ}")
            fields.setdefault(n, typ)
    return fields


def _make_tag(fields: dict[str, pa.DataType], side: int):
    """Align a side's batch to the union schema (typed nulls for the
    other side's columns) + a __side tag. Arrow nulls — not NaN-fill —
    so integer columns keep their exact types through the shuffle."""

    def fn(t: pa.Table) -> pa.Table:
        n = len(t)
        arrays = []
        for name, typ in fields.items():
            if name in t.column_names:
                col = t[name]
                if isinstance(col, pa.ChunkedArray):
                    col = col.combine_chunks()
                arrays.append(col if col.type == typ else col.cast(typ))
            else:
                arrays.append(pa.nulls(n, typ))
        arrays.append(pa.array(np.full(n, side, dtype=np.int8)))
        return pa.Table.from_arrays(arrays, names=list(fields) + ["__side"])

    return fn


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str,
    ts_col: str,
    left_cols: list[str],
    right_cols: list[str],
    right_suffix: str = "_r",
    num_buckets: int = 32,
    direction: str = "backward",
) -> ray.data.Dataset:
    """As-of join: each left row is paired with the right row of the
    same ``key`` having the greatest ``ts_col`` <= the left row's
    (inner semantics — left rows with no prior right row are dropped).
    Matches DuckDB ``ASOF JOIN r ON l.key = r.key AND l.ts >= r.ts``.
    ``direction="forward"`` flips the inequality (least right ts >= the
    left row's — DuckDB ``ON l.ts <= r.ts``); the match is the same
    searchsorted with side="left" over the identical linearized axis.

    Both sides are tagged and unioned so the ONE key-bucket shuffle
    co-locates them — no broadcast of either side. Within a bucket the
    match is a single searchsorted over a (key, ts)-linearized axis
    across all keys at once.
    """
    l_sel = left.select_columns(list(dict.fromkeys([key, ts_col, *left_cols])))
    r_sel = right.select_columns(list(dict.fromkeys([key, ts_col, *right_cols])))
    fields = _union_schema(l_sel, r_sel)

    both = l_sel.map_batches(_make_tag(fields, 0), batch_format="pyarrow").union(
        r_sel.map_batches(_make_tag(fields, 1), batch_format="pyarrow")
    )
    out_right = [f"{c}{right_suffix}" if c in set(left_cols) | {ts_col} else c for c in right_cols]
    out_right_ts = f"{ts_col}{right_suffix}"

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        side = t["__side"].to_numpy(zero_copy_only=False)
        l_rows = np.flatnonzero(side == 0)
        r_rows = np.flatnonzero(side == 1)
        codes = _key_codes(t[key]) if len(t) else np.zeros(0, np.int64)
        ts_all = _ts_i64(t[ts_col]) if len(t) else np.zeros(0, np.int64)
        if len(l_rows) == 0 or len(r_rows) == 0:
            l_take, r_take = np.zeros(0, np.int64), np.zeros(0, np.int64)
        else:
            l_codes, r_codes = codes[l_rows], codes[r_rows]
            l_ts, r_ts = ts_all[l_rows], ts_all[r_rows]
            r_order = np.lexsort((r_ts, r_codes))
            r_codes, r_ts = r_codes[r_order], r_ts[r_order]
            n_keys = int(codes.max()) + 1
            t0 = int(min(l_ts.min(), r_ts.min()))
            span = int(max(l_ts.max(), r_ts.max())) - t0 + 1
            if n_keys * span < 2**62:
                # linearized axis: code · span + (ts − t0)
                l_adj = l_codes * span + (l_ts - t0)
                r_adj = r_codes * span + (r_ts - t0)
                if direction == "forward":
                    idx = np.searchsorted(r_adj, l_adj, side="left")
                    hit = idx < len(r_adj)
                    idx = np.minimum(idx, len(r_adj) - 1)
                else:
                    idx = np.searchsorted(r_adj, l_adj, side="right") - 1
                    hit = idx >= 0
                hit[hit] &= r_codes[idx[hit]] == l_codes[hit]
            else:  # per-key-segment fallback (numpy slices, no per-key pandas)
                idx = np.full(len(l_rows), -1, dtype=np.int64)
                order = np.argsort(l_codes, kind="stable")
                uk = np.unique(np.concatenate([l_codes, r_codes]))
                bounds_l = np.r_[np.searchsorted(l_codes[order], uk), len(l_rows)]
                seg_r0 = np.searchsorted(r_codes, uk, side="left")
                seg_r1 = np.searchsorted(r_codes, uk, side="right")
                for s in range(len(uk)):
                    li = order[bounds_l[s]:bounds_l[s + 1]]
                    r0, r1 = seg_r0[s], seg_r1[s]
                    if len(li) == 0 or r0 == r1:
                        continue
                    if direction == "forward":
                        cand = r0 + np.searchsorted(r_ts[r0:r1], l_ts[li],
                                                    side="left")
                        cand[cand >= r1] = -1
                        idx[li] = cand
                    else:
                        idx[li] = r0 + np.searchsorted(
                            r_ts[r0:r1], l_ts[li], side="right") - 1
                        idx[li[idx[li] < r0]] = -1
                hit = idx >= 0
            l_take = l_rows[hit]
            r_take = r_rows[r_order[idx[hit]]]
        lt, rt = pa.array(l_take), pa.array(r_take)
        cols = {key: t[key].take(lt), ts_col: t[ts_col].take(lt)}
        for c in left_cols:
            cols[c] = t[c].take(lt)
        cols[out_right_ts] = t[ts_col].take(rt)
        for c, oc in zip(right_cols, out_right):
            cols[oc] = t[c].take(rt)
        return pa.table(cols)

    return shuffle_apply(both, per_bucket, key_cols=[key], num_buckets=num_buckets)


def rolling_time_window(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    window: pd.Timedelta,
    value_col: str,
    count_name: str = "n_window",
    sum_name: str = "sum_window",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Sliding time-window aggregate: for every row, the count and sum
    of ``value_col`` over same-key rows with ``ts`` in
    ``[ts - window, ts]`` (both ends inclusive, ties included — the
    SQL ``RANGE BETWEEN window PRECEDING AND CURRENT ROW`` frame).
    Per bucket: one sort by (key, ts), two searchsorteds over the
    (key, ts)-linearized axis, one prefix sum — O(n log n), all keys
    at once.
    """
    win_us = int(window.to_timedelta64().astype("timedelta64[us]").astype(np.int64))

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(t, [(key, "ascending"), (ts_col, "ascending")]).combine_chunks()
        n = len(t)
        if n == 0:
            return t.append_column(count_name, pa.array([], pa.int64())).append_column(
                sum_name, pa.array([], pa.float64()))
        k = _key_codes(t[key])
        t_us = _ts_i64(t[ts_col])
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        rank = np.cumsum(key_change) - 1
        t0 = int(t_us.min())
        span = int(t_us.max()) - t0 + win_us + 1
        csum = np.r_[0.0, np.cumsum(_as_f64(t[value_col]))]
        if int(rank[-1] + 1) * span < 2**62:
            adj = rank * span + (t_us - t0)
            lo = np.searchsorted(adj, adj - win_us, side="left")
            hi = np.searchsorted(adj, adj, side="right")
        else:  # per-key-segment fallback
            lo = np.empty(n, dtype=np.int64)
            hi = np.empty(n, dtype=np.int64)
            seg = np.r_[np.flatnonzero(key_change), n]
            for s in range(len(seg) - 1):
                a, b = seg[s], seg[s + 1]
                lo[a:b] = a + np.searchsorted(t_us[a:b], t_us[a:b] - win_us, side="left")
                hi[a:b] = a + np.searchsorted(t_us[a:b], t_us[a:b], side="right")
        return t.append_column(count_name, pa.array((hi - lo).astype(np.int64))).append_column(
            sum_name, pa.array(csum[hi] - csum[lo]))

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def range_join(
    left: ray.data.Dataset,
    intervals: ray.data.Dataset,
    key: str,
    ts_col: str,
    start_col: str,
    end_col: str,
    left_cols: list[str],
    interval_cols: list[str],
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Range (interval-containment) join: each left row pairs with the
    same-key interval where ``start <= ts <= end`` (inner semantics —
    rows in no interval are dropped). Matches the SQL inequality join
    ``ON l.key = r.key AND l.ts BETWEEN r.start AND r.end``.

    Assumes intervals are NON-OVERLAPPING per key (sessions, shifts,
    validity windows) so the containing interval is unique — found with
    one searchsorted over the (key, start)-linearized axis. Both sides
    ride the one key-bucket shuffle, same as :func:`asof_join`.
    """
    l_sel = left.select_columns(list(dict.fromkeys([key, ts_col, *left_cols])))
    r_sel = intervals.select_columns(
        list(dict.fromkeys([key, start_col, end_col, *interval_cols]))
    )
    fields = _union_schema(l_sel, r_sel)

    both = l_sel.map_batches(_make_tag(fields, 0), batch_format="pyarrow").union(
        r_sel.map_batches(_make_tag(fields, 1), batch_format="pyarrow")
    )
    out_cols = list(dict.fromkeys([key, ts_col, *left_cols, start_col, end_col, *interval_cols]))

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        side = t["__side"].to_numpy(zero_copy_only=False)
        l_rows = np.flatnonzero(side == 0)
        r_rows = np.flatnonzero(side == 1)
        codes = _key_codes(t[key]) if len(t) else np.zeros(0, np.int64)
        if len(l_rows) == 0 or len(r_rows) == 0:
            l_take, r_take = np.zeros(0, np.int64), np.zeros(0, np.int64)
        else:
            l_codes, r_codes = codes[l_rows], codes[r_rows]
            # subset BEFORE the int64 conversion: the union schema
            # null-fills ts on interval rows (and start/end on left
            # rows), and to_numpy over a null-bearing column degrades
            # to float64 — rounding the linearized axis above 2^53
            l_ts = _ts_i64(t[ts_col].take(pa.array(l_rows)))
            r_start = _ts_i64(t[start_col].take(pa.array(r_rows)))
            r_end = _ts_i64(t[end_col].take(pa.array(r_rows)))
            r_order = np.lexsort((r_start, r_codes))
            r_codes, r_start, r_end = r_codes[r_order], r_start[r_order], r_end[r_order]
            n_keys = int(codes.max()) + 1
            t0 = int(min(l_ts.min(), r_start.min()))
            span = int(max(l_ts.max(), r_start.max())) - t0 + 1
            if n_keys * span < 2**62:
                l_adj = l_codes * span + (l_ts - t0)
                r_adj = r_codes * span + (r_start - t0)
                idx = np.searchsorted(r_adj, l_adj, side="right") - 1
                hit = idx >= 0
                hit[hit] &= (r_codes[idx[hit]] == l_codes[hit]) & (r_end[idx[hit]] >= l_ts[hit])
            else:  # per-key-segment fallback
                idx = np.full(len(l_rows), -1, dtype=np.int64)
                order = np.argsort(l_codes, kind="stable")
                uk = np.unique(np.concatenate([l_codes, r_codes]))
                bounds_l = np.r_[np.searchsorted(l_codes[order], uk), len(l_rows)]
                seg_r0 = np.searchsorted(r_codes, uk, side="left")
                seg_r1 = np.searchsorted(r_codes, uk, side="right")
                for s in range(len(uk)):
                    li = order[bounds_l[s]:bounds_l[s + 1]]
                    r0, r1 = seg_r0[s], seg_r1[s]
                    if len(li) == 0 or r0 == r1:
                        continue
                    cand = r0 + np.searchsorted(r_start[r0:r1], l_ts[li], side="right") - 1
                    ok = (cand >= r0) & (r_end[np.clip(cand, r0, r1 - 1)] >= l_ts[li])
                    idx[li[ok]] = cand[ok]
                hit = idx >= 0
            l_take = l_rows[hit]
            r_take = r_rows[r_order[idx[hit]]]
        lt, rt = pa.array(l_take), pa.array(r_take)
        cols = {key: t[key].take(lt), ts_col: t[ts_col].take(lt)}
        for c in left_cols:
            cols[c] = t[c].take(lt)
        cols[start_col] = t[start_col].take(rt)
        cols[end_col] = t[end_col].take(rt)
        for c in interval_cols:
            cols[c] = t[c].take(rt)
        return pa.table({c: cols[c] for c in out_cols})

    return shuffle_apply(both, per_bucket, key_cols=[key], num_buckets=num_buckets)


def topk_per_group(
    ds: ray.data.Dataset,
    group_col: str,
    order_cols: list[str],
    descending: list[bool],
    k: int,
    rank_name: str = "rank",
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Per-group top-k (window ``row_number() <= k``): within each
    group, rows ranked by ``order_cols`` (deterministic — callers must
    include a tiebreak column), keep the first ``k``. Pre-prunes each
    map_batches block to its local top-k per group before the shuffle,
    so the exchanged volume is O(groups × k) per block, not the table;
    the final rank pass is one vectorized kernel per bucket of groups.
    """
    order_keys = [(c, "descending" if d else "ascending")
                  for c, d in zip(order_cols, descending)]

    def _rank_filter(t: pa.Table, rank_out: str | None) -> pa.Table:
        t = _sorted_table(t, [(group_col, "ascending"), *order_keys]).combine_chunks()
        n = len(t)
        if n == 0:
            return t.append_column(rank_out, pa.array([], pa.int64())) if rank_out else t
        g = _key_codes(t[group_col])
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = g[1:] != g[:-1]
        # rank within group = position − position of group's first row
        pos = np.arange(n, dtype=np.int64)
        base = np.maximum.accumulate(np.where(key_change, pos, 0))
        rank = pos - base + 1
        keep = rank <= k
        out = t.filter(pa.array(keep))
        if rank_out:
            out = out.append_column(rank_out, pa.array(rank[keep]))
        return out

    def local_prune(t: pa.Table) -> pa.Table:
        return _rank_filter(t, None)

    def per_bucket(t: pa.Table) -> pa.Table:
        return _rank_filter(t, rank_name)

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")
    return shuffle_apply(pruned, per_bucket, key_cols=[group_col], num_buckets=num_buckets)


def group_quantiles(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    qs: dict[str, float],
    num_buckets: int = 16,
) -> ray.data.Dataset:
    """Exact per-group discrete quantiles (``quantile_disc`` semantics:
    the smallest 1-based rank ``i`` with ``i/n >= q``, i.e. element
    ``ceil(q*n) - 1`` of the group's sorted values). One hash shuffle
    into key buckets, then a kernel vectorized ACROSS keys: one sort of
    the whole bucket by ``(key, value)``, group offsets from the key
    change-points, and a single fancy-index gather per requested
    quantile. Emits one row per group: ``(group_col, *qs.keys())``.

    Exact (not sketched) — the partitioning assumption is the module-wide
    one: a bucket of groups must fit in a worker's heap. For groups too
    large for that, pre-aggregate into a fixed-width histogram per batch
    first; this operator targets the grouped-analytics case.
    """

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(t, [(group_col, "ascending"), (value_col, "ascending")]).combine_chunks()
        n = len(t)
        g = _key_codes(t[group_col]) if n else np.zeros(0, np.int64)
        change = np.ones(n, dtype=bool)
        if n:
            change[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, n))
        cols = {group_col: t[group_col].take(pa.array(starts))}
        for name, q in qs.items():
            # ceil(q*n) with a tolerance so exact multiples (q*n integral
            # in decimal) are not bumped up by float error
            idx = np.ceil(q * counts - 1e-9).astype(np.int64) - 1
            cols[name] = t[value_col].take(pa.array(starts + np.clip(idx, 0, counts - 1)))
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=[group_col], num_buckets=num_buckets)


def running_total(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    order_cols: list[str] | None = None,
    carry_cols: list[str] | None = None,
    out_name: str = "cum_cents",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key running total (``SUM(value) OVER (PARTITION BY key ORDER
    BY ts, *order_cols ROWS UNBOUNDED PRECEDING)``) — the cumulative
    spend / cumulative exposure feature. Values are converted to integer
    cents with ``floor(v*100 + 0.5)`` BEFORE accumulating, so the result
    is an exact int64 and the DuckDB oracle (same floor expression)
    matches bit-for-bit regardless of float summation order or the
    half-even vs half-away rounding divergence (ADVICE r02 analog).

    Same shape as the other window kernels: one hash shuffle into key
    buckets, then ONE bucket-wide sort + ONE cumsum + a per-key rebase
    via the key-change mask — vectorized across all keys in the bucket.
    """
    order_cols = order_cols or []
    carry_cols = carry_cols or []

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(
            t, [(key, "ascending"), (ts_col, "ascending")] + [(c, "ascending") for c in order_cols]
        ).combine_chunks()
        n = len(t)
        if n == 0:
            cols = {key: t[key], **{c: t[c] for c in carry_cols},
                    out_name: pa.array([], pa.int64())}
            return pa.table(cols)
        k = _key_codes(t[key])
        cents = np.floor(_as_f64(t[value_col]) * 100.0 + 0.5).astype(np.int64)
        csum = np.cumsum(cents)
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(key_change)
        gid = np.cumsum(key_change) - 1
        # total before each key's first row, broadcast back to its rows
        prefix_before = csum[starts] - cents[starts]
        cum = csum - prefix_before[gid]
        cols = {key: t[key]}
        for c in carry_cols:
            cols[c] = t[c]
        cols[out_name] = pa.array(cum)
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def moving_sum(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    preceding: int = 2,
    order_cols: list[str] | None = None,
    carry_cols: list[str] | None = None,
    out_name: str = "w_cents",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key ROWS-frame moving sum (``SUM(value) OVER (PARTITION BY
    key ORDER BY ts, *order_cols ROWS BETWEEN <preceding> PRECEDING AND
    CURRENT ROW)``) — the rows-based sibling of
    :func:`rolling_time_window` (which frames by TIME). Values convert
    to integer cents with ``floor(v*100 + 0.5)`` before summing, so the
    DuckDB window oracle matches bit-for-bit (same contract as
    :func:`running_total`).

    One hash shuffle into key buckets, then a kernel vectorized across
    all keys in the bucket: one sort, one cumsum, and the frame sum is
    ``csum[i] − csum[i−w]`` clamped at each key's first row — no
    per-key Python, no per-row loop.
    """
    order_cols = order_cols or []
    carry_cols = carry_cols or []
    w = int(preceding) + 1

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(
            t, [(key, "ascending"), (ts_col, "ascending")] + [(c, "ascending") for c in order_cols]
        ).combine_chunks()
        n = len(t)
        if n == 0:
            cols = {key: t[key], **{c: t[c] for c in carry_cols},
                    out_name: pa.array([], pa.int64())}
            return pa.table(cols)
        k = _key_codes(t[key])
        cents = np.floor(_as_f64(t[value_col]) * 100.0 + 0.5).astype(np.int64)
        csum = np.cumsum(cents)
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(key_change)
        gid = np.cumsum(key_change) - 1
        # sum over the frame [max(i-w+1, start) .. i]  ==  csum[i] minus
        # the cumsum just BEFORE the frame start; "before start" is the
        # prefix before the key's first row when the frame is clipped
        prefix_before = csum[starts] - cents[starts]
        idx = np.arange(n, dtype=np.int64)
        lo = idx - w  # index whose csum is subtracted (may precede the key)
        clipped = lo < starts[gid]
        sub = np.where(clipped, prefix_before[gid], csum[np.maximum(lo, 0)])
        out = csum - sub
        cols = {key: t[key]}
        for c in carry_cols:
            cols[c] = t[c]
        cols[out_name] = pa.array(out)
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def mode_per_key(
    ds: ray.data.Dataset,
    key: str,
    cat_col: str,
    out_name: str = "top_cat",
    cnt_name: str = "cnt",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key MODE with a deterministic tie-break: the category with
    the highest count, ties broken by the smaller category value —
    exactly ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY cnt DESC,
    cat) = 1`` in SQL. Integer counts + the category value itself, so
    the oracle comparison is exact (no floats anywhere).

    One hash shuffle: per-batch partial ``(key, cat) → count`` combine
    (a hot key ships one row per batch per category, not its raw rows),
    bucket by ``key``, then per bucket ONE Arrow ``group_by`` sum, one
    sort by ``(key, cnt desc, cat asc)``, and a key-change-mask first
    gather — vectorized across all keys in the bucket.
    """

    def pre(t: pa.Table) -> pa.Table:
        res = t.group_by([key, cat_col], use_threads=False).aggregate([([], "count_all")])
        return pa.table({key: res[key], cat_col: res[cat_col],
                         "__pcnt": res["count_all"].cast(pa.int64())})

    def per_bucket(t: pa.Table) -> pa.Table:
        res = t.group_by([key, cat_col], use_threads=False).aggregate([("__pcnt", "sum")])
        res = pa.table({key: res[key], cat_col: res[cat_col],
                        cnt_name: res["__pcnt_sum"].cast(pa.int64())})
        res = _sorted_table(res, [(key, "ascending"), (cnt_name, "descending"),
                                  (cat_col, "ascending")]).combine_chunks()
        n = len(res)
        if n == 0:
            return pa.table({key: res[key],
                             out_name: pa.array([], res[cat_col].type),
                             cnt_name: pa.array([], pa.int64())})
        k = _key_codes(res[key])
        first = np.ones(n, dtype=bool)
        first[1:] = k[1:] != k[:-1]
        sel = pa.array(np.flatnonzero(first))
        return pa.table({key: res[key].take(sel),
                         out_name: res[cat_col].take(sel),
                         cnt_name: res[cnt_name].take(sel)})

    pre_ds = ds.select_columns([key, cat_col]).map_batches(pre, batch_format="pyarrow")
    return shuffle_apply(pre_ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def rank_per_key(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    carry_cols: list[str] | None = None,
    out_name: str = "rnk",
    descending: bool = True,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """SQL ``RANK() OVER (PARTITION BY key ORDER BY value [DESC])`` —
    ties share a rank and leave gaps (1,1,3 …), completing the window
    family next to :func:`ntile` / :func:`topk_per_group` (ROW_NUMBER)
    / :func:`lag_deltas`. ``value_col`` must already be integer (use
    cents) so tie detection — and therefore the oracle hash — is exact.

    One hash shuffle into key buckets, then a kernel vectorized across
    all keys in the bucket: one sort by ``(key, value)``, a
    run-boundary mask, and rank = each row's run-start index relative
    to its key's first row — two cumulative ops, no per-key Python.
    """
    carry_cols = carry_cols or []
    vdir = "descending" if descending else "ascending"

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(t, [(key, "ascending"), (value_col, vdir)]).combine_chunks()
        n = len(t)
        if n == 0:
            return pa.table({key: t[key], **{c: t[c] for c in carry_cols},
                             value_col: t[value_col],
                             out_name: pa.array([], pa.int64())})
        k = _key_codes(t[key])
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.arange(n, dtype=np.int64)
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        run_start = key_change.copy()
        run_start[1:] |= v[1:] != v[:-1]
        # index of each row's run start (runs never span keys, so the
        # cummax never carries across a key boundary)
        run_first = np.maximum.accumulate(np.where(run_start, idx, 0))
        key_first = np.maximum.accumulate(np.where(key_change, idx, 0))
        rnk = run_first - key_first + 1
        cols = {key: t[key]}
        for c in carry_cols:
            cols[c] = t[c]
        cols[value_col] = t[value_col]
        cols[out_name] = pa.array(rnk)
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def funnel(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    type_col: str,
    stages: list[str],
    depth_name: str = "funnel_depth",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Ordered-sequence (funnel) completion depth per key: stage ``i+1``
    counts only if some row of that stage has ``ts`` STRICTLY after the
    matched ts of stage ``i`` (the classic product-analytics funnel; no
    reference analog — beyond-reference training/behavioral surface).
    Emits one row per distinct key: ``(key, depth_name)`` with depth in
    ``0..len(stages)``.

    Kernel shape: one hash shuffle into key buckets; per bucket ONE sort
    by (key, ts), then ``len(stages)`` vectorized rounds — each round is
    one searchsorted of every still-alive key's cursor into that stage's
    (key, ts)-linearized row axis (per-key-segment numpy fallback when
    the linearization would overflow int64). No per-key Python at any
    bucket size.
    """

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(t, [(key, "ascending"), (ts_col, "ascending")]).combine_chunks()
        n = len(t)
        if n == 0:
            return pa.table({key: t[key], depth_name: pa.array([], pa.int64())})
        k = _key_codes(t[key])
        ts = _ts_i64(t[ts_col])
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(key_change)   # code c's first row = starts[c]
        n_keys = len(starts)
        types = t[type_col]
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + 2
        depth = np.zeros(n_keys, dtype=np.int64)
        cursor = np.full(n_keys, t0 - 1, dtype=np.int64)  # ts of last matched stage
        for si, stage in enumerate(stages):
            alive = np.flatnonzero(depth == si)
            if len(alive) == 0:
                break
            m = pc.fill_null(pc.equal(types, stage), False).to_numpy(zero_copy_only=False)
            rows = np.flatnonzero(m)
            if len(rows) == 0:
                break
            sk, sts = k[rows], ts[rows]  # sorted by (key, ts): subset of a sorted table
            if n_keys * span < 2**62:
                adj = sk * span + (sts - t0)
                q = alive * span + (cursor[alive] - t0 + 1)
                pos = np.searchsorted(adj, q, side="left")
                ok = pos < len(adj)
                ok[ok] &= sk[pos[ok]] == alive[ok]
            else:  # per-key-segment fallback
                seg0 = np.searchsorted(sk, alive, side="left")
                seg1 = np.searchsorted(sk, alive, side="right")
                pos = np.empty(len(alive), dtype=np.int64)
                ok = seg0 < seg1
                for i in np.flatnonzero(ok):
                    p = seg0[i] + np.searchsorted(
                        sts[seg0[i]:seg1[i]], cursor[alive[i]], side="right")
                    pos[i] = p
                    ok[i] = p < seg1[i]
            hit = alive[ok]
            depth[hit] = si + 1
            cursor[hit] = sts[pos[ok]]
        return pa.table({
            key: t[key].take(pa.array(starts)),
            depth_name: pa.array(depth),
        })

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def ntile(
    ds: ray.data.Dataset,
    key: str,
    order_cols: list[str],
    n_tiles: int,
    out_name: str = "tile",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key NTILE(n): rows of each key, ordered by ``order_cols``,
    split into ``n_tiles`` groups as evenly as possible — the first
    ``count % n`` tiles get one extra row (exact SQL ``NTILE``
    semantics). Emits every input row plus an ``out_name`` column in
    ``1..n_tiles``.

    Kernel: one key-bucket shuffle, one bucket-wide sort, then pure
    arithmetic on the per-key (rank, count) arrays — vectorized across
    all keys, no per-key dispatch.
    """

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(
            t, [(key, "ascending")] + [(c, "ascending") for c in order_cols]
        ).combine_chunks()
        n = len(t)
        if n == 0:
            return t.append_column(out_name, pa.array([], pa.int64()))
        k = _key_codes(t[key])
        key_change = np.ones(n, dtype=bool)
        key_change[1:] = k[1:] != k[:-1]
        pos = np.arange(n, dtype=np.int64)
        base = np.maximum.accumulate(np.where(key_change, pos, 0))
        rank = pos - base  # 0-based rank within key
        starts = np.flatnonzero(key_change)
        counts = np.diff(np.append(starts, n))
        gid = np.cumsum(key_change) - 1
        cnt = counts[gid]
        big = cnt % n_tiles            # first `big` tiles have small+1 rows
        small = cnt // n_tiles
        split = big * (small + 1)      # rows covered by the big tiles
        in_big = rank < split
        tile = np.where(
            in_big,
            rank // np.maximum(small + 1, 1),
            big + (rank - split) // np.maximum(small, 1),
        ) + 1
        return t.append_column(out_name, pa.array(tile.astype(np.int64)))

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def lag_deltas(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    order_cols: list[str] | None = None,
    carry_cols: list[str] | None = None,
    first_value: int = -1,
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key LAG delta (``ts − lag(ts) OVER (PARTITION BY key ORDER BY
    ts, *order_cols)``): the inter-event-gap feature every behavioral /
    session pipeline computes. Emits one row per input row:
    ``(key, *carry_cols, delta_us)`` with the gap in integer
    microseconds and ``first_value`` (default −1) for each key's first
    event — integers only, so the DuckDB window oracle matches
    bit-for-bit.

    Same shape as the other window kernels: one hash shuffle into key
    buckets, then a kernel vectorized ACROSS keys (one bucket-wide sort,
    one diff, one key-change mask — no per-key Python).
    """
    order_cols = order_cols or []
    carry_cols = carry_cols or []

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(
            t, [(key, "ascending"), (ts_col, "ascending")] + [(c, "ascending") for c in order_cols]
        ).combine_chunks()
        n = len(t)
        k = _key_codes(t[key]) if n else np.zeros(0, np.int64)
        ts = _ts_i64(t[ts_col]) if n else np.zeros(0, np.int64)
        delta = np.full(n, np.int64(first_value), dtype=np.int64)
        if n > 1:
            same = k[1:] == k[:-1]
            delta[1:][same] = (ts[1:] - ts[:-1])[same]
        cols = {key: t[key]}
        for c in carry_cols:
            cols[c] = t[c]
        cols["delta_us"] = pa.array(delta)
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=[key], num_buckets=num_buckets)


def ordered_paths(
    ds: ray.data.Dataset,
    key: str,
    ts_col: str,
    val_col: str,
    tiebreak: str,
    sep: str = ">",
    out_name: str = "path",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Per-key ordered value sequence concatenated into one string —
    the behavioral-sequence builder (user event paths for sequence
    models / session-trajectory features): SQL
    ``string_agg(val, sep ORDER BY ts, tiebreak) GROUP BY key``.

    Same shape as the other window kernels: one hash shuffle into key
    buckets, then a kernel vectorized ACROSS keys — one bucket-wide
    sort, a key-change mask, and ONE Arrow ``binary_join`` over a
    ListArray built from the run offsets (the string concatenation
    happens in C++, no per-key Python join). Output rows are
    O(distinct keys); the partitioning assumption is the module-wide
    one (a bucket's rows fit in one worker's heap).
    """

    def per_bucket(t: pa.Table) -> pa.Table:
        t = _sorted_table(
            t, [(key, "ascending"), (ts_col, "ascending"), (tiebreak, "ascending")]
        ).combine_chunks()
        n = len(t)
        k = _key_codes(t[key])
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        # int32 list offsets: a single bucket holds < 2^31 rows under the
        # module-wide bucket-fits-in-heap assumption
        offsets = np.concatenate([starts, [n]]).astype(np.int32)
        vals = t[val_col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        runs = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                        vals.cast(pa.string()))
        path = pc.binary_join(runs, sep)
        sel = pa.array(starts)
        return pa.table({key: t[key].take(sel), out_name: path})

    return shuffle_apply(ds.select_columns([key, ts_col, tiebreak, val_col]), per_bucket,
                         key_cols=[key], num_buckets=num_buckets)


def transition_counts(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    tiebreak: str = "event_id",
    type_col: str = "event_type",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Markov transition counts over per-key ordered event streams:
    global ``(prev_type, next_type, cnt)`` for every consecutive pair
    within a key's timeline — the behavioral-analytics transition
    matrix (and the bigram statistic of a session-sequence model).

    SQL shape: ``LAG(type) OVER (PARTITION BY key ORDER BY ts, id)``
    then ``GROUP BY prev, next``. One hash shuffle into key buckets;
    the per-bucket kernel is vectorized across keys — one sort, one
    dictionary-encode, one ``bincount`` over packed pair codes — and
    emits at most ``n_types²`` partial rows per bucket, so the final
    re-aggregation shuffle is type-cardinality-sized, not row-sized.
    """
    empty = pa.table({"prev_type": pa.array([], pa.string()),
                      "next_type": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64())})

    def per_bucket(t: pa.Table) -> pa.Table:
        if len(t) < 2:
            return empty
        t = _sorted_table(
            t, [(key, "ascending"), (ts_col, "ascending"), (tiebreak, "ascending")]
        ).combine_chunks()
        k = _key_codes(t[key])
        enc = pc.dictionary_encode(t[type_col].combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary
        n_types = len(vocab)
        same = k[1:] == k[:-1]
        if not same.any():
            return empty
        pair = codes[:-1][same] * n_types + codes[1:][same]
        cnt = np.bincount(pair, minlength=n_types * n_types)
        nz = np.flatnonzero(cnt)
        return pa.table({
            "prev_type": vocab.take(pa.array(nz // n_types)),
            "next_type": vocab.take(pa.array(nz % n_types)),
            "cnt": cnt[nz].astype(np.int64),
        })

    from fs_crawler_ray.relops import bucketed_agg

    partials = shuffle_apply(ds.select_columns([key, ts_col, tiebreak, type_col]), per_bucket,
                             key_cols=[key], num_buckets=num_buckets)
    return bucketed_agg(partials, ["prev_type", "next_type"],
                        [("cnt", "sum", "cnt")], num_buckets=8)


def user_streaks(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Longest consecutive-day activity streak per key — the classic
    gaps-and-islands window (retention/engagement reporting). One
    key-bucket shuffle of pre-deduped ``(key, epoch_day)`` pairs (the
    shuffle moves at most one row per key per day), then a per-bucket
    kernel vectorized ACROSS keys: one sort, consecutive-pair dedup,
    island starts where ``day != prev_day + 1`` or the key changes,
    ``bincount`` run lengths, ``np.maximum.at`` per-key max. Output:
    ``(key, max_streak)`` — integers only, hash-exact vs the SQL
    ``day - ROW_NUMBER()`` islands oracle."""
    us_per_day = 86_400_000_000

    def pre(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({key: pa.array([], t.schema.field(key).type),
                             "day": pa.array([], pa.int64())})
        days = _ts_i64(t[ts_col]) // us_per_day
        kk = t[key].to_numpy(zero_copy_only=False)
        order = np.lexsort((days, kk))
        ks, ds_ = kk[order], days[order]
        m = np.ones(len(ks), dtype=bool)
        m[1:] = (ks[1:] != ks[:-1]) | (ds_[1:] != ds_[:-1])
        rows = order[m]
        kcol = t[key].combine_chunks() if isinstance(
            t[key], pa.ChunkedArray) else t[key]
        return pa.table({key: kcol.take(pa.array(rows)),
                         "day": pa.array(days[rows])})

    pairs = ds.select_columns([key, ts_col]).map_batches(
        pre, batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table({key: pa.array([], t.schema.field(key).type),
                             "max_streak": pa.array([], pa.int64())})
        t = _sorted_table(t, [(key, "ascending"), ("day", "ascending")])
        k = _key_codes(t[key])
        d = t["day"].to_numpy(zero_copy_only=False)
        n = len(t)
        keep = np.ones(n, dtype=bool)
        keep[1:] = (k[1:] != k[:-1]) | (d[1:] != d[:-1])
        idx = np.flatnonzero(keep)
        k2, d2 = k[idx], d[idx]
        new = np.ones(len(idx), dtype=bool)
        new[1:] = (k2[1:] != k2[:-1]) | (d2[1:] != d2[:-1] + 1)
        sid = np.cumsum(new) - 1
        slen = np.bincount(sid).astype(np.int64)
        starts = np.flatnonzero(new)
        skey = k2[starts]
        key_change = np.ones(len(starts), dtype=bool)
        key_change[1:] = skey[1:] != skey[:-1]
        kid = np.cumsum(key_change) - 1
        mx = np.zeros(kid[-1] + 1, dtype=np.int64)
        np.maximum.at(mx, kid, slen)
        rep = idx[starts[np.flatnonzero(key_change)]]
        kcol = t[key].combine_chunks() if isinstance(
            t[key], pa.ChunkedArray) else t[key]
        return pa.table({key: kcol.take(pa.array(rep)),
                         "max_streak": mx})

    return shuffle_apply(pairs, per_bucket, key_cols=[key], num_buckets=num_buckets)
