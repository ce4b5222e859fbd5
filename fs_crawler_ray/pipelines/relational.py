"""Relational operator pipelines over the testdata star schema.

These exercise the engine's generic operator library (filters,
broadcast + shuffle joins, semi/anti joins, pre-aggregated groupbys,
keep-first dedup, distinct, top-k, union, windowed-by-time buckets) and
are each paired with a DuckDB oracle in ``__ray_entry__.oracle_sql``.

Conventions: every computed column is explicitly named to match the
oracle SQL; money sums are rounded to 2dp on both sides so the
order-insensitive value hash is stable under floating-point
reassociation.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Max, Sum

from fs_crawler_ray.relops import (
    broadcast_lookup_join,
    dedup_keep_first,
    distinct,
    hash_join,
)


def _t(sf_dir: str, name: str, **kw) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), **kw)


def _round2(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].round(2)
    return df


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-style grouped aggregate with per-batch pre-aggregation
    (partial sums per key inside map_batches, then a tiny groupby)."""
    ds = _t(sf_dir, "lineitem",
            columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                     "l_discount", "l_shipdate"])

    cutoff = pd.Timestamp("1998-09-01").to_datetime64()

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["l_shipdate"], pa.scalar(cutoff)))
        disc = pc.multiply(t["l_extendedprice"],
                           pc.subtract(pa.scalar(1.0), t["l_discount"]))
        g = pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": t["l_quantity"],
            "sum_base_price": t["l_extendedprice"],
            "sum_disc_price": disc,
        }).group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_base_price", "sum"),
             ("sum_disc_price", "sum"), ([], "count_all")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "sum_qty": g["sum_qty_sum"],
            "sum_base_price": g["sum_base_price_sum"],
            "sum_disc_price": g["sum_disc_price_sum"],
            "count_order": g["count_all"],
        })

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_price", alias_name="sum_base_price"),
            Sum("sum_disc_price", alias_name="sum_disc_price"),
            Sum("count_order", alias_name="count_order"),
        )
        .to_pandas()
    )
    return _round2(out, ["sum_qty", "sum_base_price", "sum_disc_price"])


def q_orders_by_segment(sf_dir: str):
    """Broadcast dimension join (customer → orders) + grouped aggregate."""
    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).to_pandas()
    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = broadcast_lookup_join(orders, cust, on="o_custkey", right_on="c_custkey")
    out = (
        joined.groupby("c_mktsegment")
        .aggregate(Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total_value"))
        .to_pandas()
    )
    return _round2(out, ["total_value"])


def q_customers_without_orders(sf_dir: str):
    """Anti join: customers with no high-value order (J6 frontier-hygiene
    analog — anti joins against a filtered, deduped key set)."""
    import pyarrow.compute as _pc

    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_name"])
    okeys = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(_pc.greater(t["o_totalprice"], 250000.0)), batch_format="pyarrow"
    ).select_columns(["o_custkey"])
    from fs_crawler_ray.relops import semi_anti_join

    out = semi_anti_join(cust, distinct(okeys, ["o_custkey"], 16),
                         on="c_custkey", right_on="o_custkey", anti=True)
    df = out.to_pandas()
    if df.empty:
        df = pd.DataFrame({"c_custkey": pd.Series(dtype=np.int64), "c_name": pd.Series(dtype=str)})
    return df.sort_values("c_custkey").reset_index(drop=True)


def q_top_customers(sf_dir: str, k: int = 10):
    """Grouped sum + global top-k (sort/limit)."""
    from fs_crawler_ray.relops import bucketed_agg

    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    # customer-cardinality key: bucketed Arrow aggregate, not Ray's
    # per-group Aggregate operator (o_totalprice is non-null, so Arrow
    # "count" == Ray's row Count)
    totals = bucketed_agg(
        orders, ["o_custkey"],
        [("o_totalprice", "sum", "total_spent"),
         ("o_totalprice", "count", "n_orders")],
        num_buckets=16,
    )
    top = totals.sort(["total_spent", "o_custkey"], descending=[True, False]).limit(k).to_pandas()
    return _round2(top, ["total_spent"])


def q_nation_region(sf_dir: str):
    """Small-dim chain join + count (nation ⨝ region)."""
    nation = _t(sf_dir, "nation")
    region = _t(sf_dir, "region").to_pandas()
    j = broadcast_lookup_join(nation, region, on="n_regionkey", right_on="r_regionkey")
    return (
        j.groupby("r_name").aggregate(Count(alias_name="n_nations")).to_pandas()
    )


def q_events_dedup_first(sf_dir: str):
    """Keep-first dedup: earliest event per (user_id, event_type)
    (the crawl's D1/D3 dedup semantics on a generic table)."""
    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])
    out = dedup_keep_first(ev, ["user_id", "event_type"], ["ts", "event_id"], 32).to_pandas()
    out = out.sort_values(["user_id", "event_type"]).reset_index(drop=True)
    out["value"] = out["value"].round(2)
    return out[["user_id", "event_type", "event_id", "value"]]


def q_events_hourly(sf_dir: str):
    """Time-bucketed (tumbling window) aggregate per user."""
    ev = _t(sf_dir, "events", columns=["ts", "user_id", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        g = pa.table({
            "user_id": t["user_id"],
            "hour": pc.floor_temporal(t["ts"], unit="hour"),
            "value": t["value"],
        }).group_by(["user_id", "hour"]).aggregate(
            [([], "count_all"), ("value", "sum")])
        return pa.table({
            "user_id": g["user_id"], "hour": g["hour"],
            "n_events": g["count_all"], "sum_value": g["value_sum"],
        })

    from fs_crawler_ray.relops import bucketed_agg

    out = bucketed_agg(
        ev.map_batches(bucket, batch_format="pyarrow"),
        ["user_id", "hour"],
        [("n_events", "sum", "n_events"), ("sum_value", "sum", "sum_value")],
        num_buckets=16,
    ).to_pandas()
    return _round2(out, ["sum_value"])


def q_part_brand_stats(sf_dir: str):
    """Filtered grouped aggregate with max (M + A operators)."""
    part = _t(sf_dir, "part", columns=["p_brand", "p_size", "p_retailprice"])
    big = part.map_batches(lambda t: t.filter(pc.greater(t["p_size"], 10)), batch_format="pyarrow")
    out = big.groupby("p_brand").aggregate(
        Count(alias_name="n_parts"),
        Max("p_size", alias_name="max_size"),
        Sum("p_retailprice", alias_name="sum_price"),
    ).to_pandas()
    return _round2(out, ["sum_price"])


def q_distinct_pairs(sf_dir: str):
    """Distinct over a join result (D-family)."""
    cust = _t(sf_dir, "customer", columns=["c_mktsegment", "c_nationkey"])
    return distinct(cust, ["c_mktsegment", "c_nationkey"], 16).to_pandas().sort_values(
        ["c_mktsegment", "c_nationkey"]
    ).reset_index(drop=True)


def q_union_orders(sf_dir: str):
    """Union of two filtered subsets + distinct (D5 union semantics)."""
    orders = _t(sf_dir, "orders", columns=["o_orderkey", "o_totalprice", "o_orderpriority"])
    a = orders.map_batches(lambda t: t.filter(pc.greater(t["o_totalprice"], 200000.0)),
                           batch_format="pyarrow")
    b = orders.map_batches(lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
                           batch_format="pyarrow")
    u = distinct(a.union(b), ["o_orderkey"], 16)
    out = u.select_columns(["o_orderkey", "o_orderpriority"]).to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def q_events_sessions(sf_dir: str):
    """Gap-based sessionization (12 h inactivity gap) per user — the
    windows.sessionize operator, oracled by DuckDB LAG/SUM windows."""
    from fs_crawler_ray.windows import sessionize

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    out = sessionize(
        ev, key="user_id", ts_col="ts", gap=pd.Timedelta(hours=12),
        value_col="value", order_cols=["ts", "event_id"],
    ).to_pandas()
    return _round2(out, ["sum_value"]).sort_values(
        ["user_id", "session_id"]
    ).reset_index(drop=True)


def q_events_asof_purchase_click(sf_dir: str):
    """As-of join: each purchase paired with the same user's most
    recent click at-or-before it (windows.asof_join; DuckDB ASOF JOIN
    oracle)."""
    from fs_crawler_ray.windows import asof_join

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")), batch_format="pyarrow"
    ).select_columns(["event_id", "ts", "user_id"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")), batch_format="pyarrow"
    ).select_columns(["ts", "user_id", "value"])
    out = asof_join(
        purchases, clicks, key="user_id", ts_col="ts",
        left_cols=["event_id"], right_cols=["value"],
    ).to_pandas()
    out = out.rename(columns={
        "event_id": "purchase_id", "ts": "purchase_ts",
        "ts_r": "click_ts", "value": "click_value",
    })
    out = _round2(out, ["click_value"])
    return out[["user_id", "purchase_id", "purchase_ts", "click_ts", "click_value"]].sort_values(
        ["user_id", "purchase_id"]
    ).reset_index(drop=True)


def q_events_rolling_hour(sf_dir: str):
    """Sliding 1-hour window aggregate per user (windows.
    rolling_time_window; DuckDB RANGE-frame window oracle)."""
    from fs_crawler_ray.windows import rolling_time_window

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    out = rolling_time_window(
        ev, key="user_id", ts_col="ts", window=pd.Timedelta(hours=1), value_col="value"
    ).to_pandas()
    return _round2(out, ["sum_window"])[
        ["event_id", "user_id", "n_window", "sum_window"]
    ].sort_values("event_id").reset_index(drop=True)


def q_events_error_sessions(sf_dir: str):
    """Range (interval-containment) join: each error event joined to
    the 12 h-gap session that contains it (windows.range_join over
    sessionize intervals; DuckDB BETWEEN-join oracle)."""
    from fs_crawler_ray.windows import range_join, sessionize

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    sessions = sessionize(
        ev, key="user_id", ts_col="ts", gap=pd.Timedelta(hours=12),
        order_cols=["ts", "event_id"],
    )
    errors = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "error")), batch_format="pyarrow"
    ).select_columns(["event_id", "ts", "user_id"])
    out = range_join(
        errors, sessions, key="user_id", ts_col="ts",
        start_col="start_ts", end_col="end_ts",
        left_cols=["event_id"], interval_cols=["session_id"],
    ).to_pandas()
    return out[["user_id", "event_id", "session_id"]].sort_values(
        ["user_id", "event_id"]
    ).reset_index(drop=True)


def q_top_orders_per_segment(sf_dir: str, k: int = 3):
    """Per-group top-k (window row_number ≤ k) with block-local
    pre-pruning before the shuffle (windows.topk_per_group)."""
    from fs_crawler_ray.windows import topk_per_group

    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).to_pandas()
    orders = _t(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    joined = broadcast_lookup_join(orders, cust, on="o_custkey", right_on="c_custkey")
    out = topk_per_group(
        joined, group_col="c_mktsegment",
        order_cols=["o_totalprice", "o_orderkey"], descending=[True, False], k=k,
    ).to_pandas()
    out = _round2(out, ["o_totalprice"])
    return out[["c_mktsegment", "rank", "o_orderkey", "o_totalprice"]].sort_values(
        ["c_mktsegment", "rank"]
    ).reset_index(drop=True)


def q_orders_lineitem_join(sf_dir: str):
    """Large-large shuffle hash join (relops.hash_join) + aggregate:
    revenue per order status."""
    orders = _t(sf_dir, "orders", columns=["o_orderkey", "o_orderstatus"])
    li = _t(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(t: pa.Table) -> pa.Table:
        r = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return t.append_column("revenue", r).select(["l_orderkey", "revenue"])

    li = li.map_batches(rev, batch_format="pyarrow")
    # relops.hash_join, not Dataset.join: the built-in KeyErrors on
    # one-sided shuffle partitions (sparse/skewed keys; relops.py:160)
    j = hash_join(li, orders, on=["l_orderkey"], right_on=["o_orderkey"],
                  how="inner", num_buckets=16)
    out = j.groupby("o_orderstatus").aggregate(
        Sum("revenue", alias_name="revenue"), Count(alias_name="n_items")
    ).to_pandas()
    return _round2(out, ["revenue"])


def q_lineitem_quantiles(sf_dir: str):
    """Exact per-group discrete quantiles (windows.group_quantiles):
    one key-bucket shuffle + an across-key sort/gather kernel; values
    are actual elements of the group so the oracle comparison is exact
    (no float rounding needed)."""
    from fs_crawler_ray.windows import group_quantiles

    ds = _t(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])
    out = group_quantiles(
        ds, "l_returnflag", "l_extendedprice", {"p50": 0.5, "p95": 0.95}
    ).to_pandas()
    return out.sort_values("l_returnflag").reset_index(drop=True)


def q_events_cumsum(sf_dir: str):
    """Per-user running spend total (windows.running_total: SUM OVER
    PARTITION BY ... ROWS UNBOUNDED PRECEDING); integer-cents
    accumulation so the DuckDB window oracle matches bit-for-bit."""
    from fs_crawler_ray.windows import running_total

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    out = running_total(
        ev, key="user_id", ts_col="ts", value_col="value",
        order_cols=["event_id"], carry_cols=["event_id"],
    ).to_pandas()
    return out[["user_id", "event_id", "cum_cents"]].astype(
        {"user_id": "int64", "event_id": "int64", "cum_cents": "int64"}
    ).sort_values(["user_id", "event_id"]).reset_index(drop=True)


def q_events_funnel(sf_dir: str):
    """Per-user funnel completion depth over the ordered stage sequence
    view → click → purchase (windows.funnel; strictly-increasing ts
    between stages), oracled by chained min-ts CTEs in DuckDB."""
    from fs_crawler_ray.windows import funnel

    ev = _t(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    out = funnel(
        ev, key="user_id", ts_col="ts", type_col="event_type",
        stages=["view", "click", "purchase"],
    ).to_pandas()
    return out.astype({"user_id": "int64", "funnel_depth": "int64"}).sort_values(
        "user_id"
    ).reset_index(drop=True)


def q_events_daily_users(sf_dir: str):
    """Exact distributed COUNT(DISTINCT user_id) per day: per-batch
    local dedup of (day, user) pairs, one bucketed distinct shuffle,
    then a tiny per-day count — the two-phase exact distinct-count every
    engagement pipeline runs (no sketch; the pair set, not the table,
    is what shuffles)."""
    ev = _t(sf_dir, "events", columns=["ts", "user_id"])

    def to_pairs(t: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.floor_temporal(t["ts"], unit="day"),
            "user_id": t["user_id"],
        }).group_by(["day", "user_id"]).aggregate([])  # per-batch dedup

    from fs_crawler_ray.relops import bucketed_agg, distinct

    pairs = distinct(ev.map_batches(to_pairs, batch_format="pyarrow"),
                     ["day", "user_id"], 16)
    out = bucketed_agg(
        pairs, ["day"], [("user_id", "count", "n_users")], num_buckets=8
    ).to_pandas()
    return out.astype({"n_users": "int64"}).sort_values("day").reset_index(drop=True)


_PIVOT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_events_pivot(sf_dir: str):
    """Pivot: per-user event-type counts as columns (the COUNT(*)
    FILTER feature matrix). Per-batch conditional partials then one
    bucketed sum — a single user-bucket shuffle of O(users × types)
    partial rows, never the event table."""
    ev = _t(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        import numpy as _np
        u = t["user_id"].combine_chunks().to_numpy(zero_copy_only=False)
        uniq, inv = _np.unique(u, return_inverse=True)
        cols = {"user_id": pa.array(uniq)}
        et = t["event_type"]
        for typ in _PIVOT_TYPES:
            m = pc.fill_null(pc.equal(et, typ), False).to_numpy(zero_copy_only=False)
            cols[f"n_{typ}"] = pa.array(
                _np.bincount(inv[m], minlength=len(uniq)).astype(_np.int64))
        return pa.table(cols)

    from fs_crawler_ray.relops import bucketed_agg

    out = bucketed_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        [(f"n_{typ}", "sum", f"n_{typ}") for typ in _PIVOT_TYPES],
        num_buckets=16,
    ).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        "user_id"
    ).reset_index(drop=True)


def q_lineitem_rollup(sf_dir: str):
    """ROLLUP (hierarchical grouping-sets) aggregate: (flag, status),
    (flag), and grand-total levels in one pass — the base level is a
    bucketed distributed aggregate; the two super-levels re-aggregate
    its O(groups) output (driver-side by design: groups, not rows).
    Rolled-up columns take the sentinel 'ALL' on both sides so the
    value hash has no NULL-vs-NaN ambiguity."""
    ds = _t(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"])
    from fs_crawler_ray.relops import bucketed_agg

    base = bucketed_agg(
        ds, ["l_returnflag", "l_linestatus"],
        [("l_quantity", "sum", "sum_qty"), ("l_quantity", "count", "n_rows")],
        num_buckets=8,
    ).to_pandas()
    lvl1 = base.groupby("l_returnflag", as_index=False).agg(
        sum_qty=("sum_qty", "sum"), n_rows=("n_rows", "sum"))
    lvl1["l_linestatus"] = "ALL"
    lvl0 = pd.DataFrame({
        "l_returnflag": ["ALL"], "l_linestatus": ["ALL"],
        "sum_qty": [base["sum_qty"].sum()], "n_rows": [base["n_rows"].sum()],
    })
    out = pd.concat([base, lvl1, lvl0], ignore_index=True)
    out["sum_qty"] = out["sum_qty"].round(2)
    out["n_rows"] = out["n_rows"].astype("int64")
    return out[["l_returnflag", "l_linestatus", "sum_qty", "n_rows"]].sort_values(
        ["l_returnflag", "l_linestatus"]
    ).reset_index(drop=True)


def q_customer_order_counts(sf_dir: str):
    """LEFT OUTER join surface: every customer with their order count
    and spend, zero-filled for customers with no orders (the rows an
    inner join drops). The fact side is pre-aggregated to O(customers)
    rows BEFORE the distributed left_outer hash join, so the exchange
    is keys, not orders. Uses relops.hash_join (not Dataset.join): the
    built-in's aggregator breaks on any one-sided shuffle partition —
    see the hash_join docstring."""
    from fs_crawler_ray.relops import bucketed_agg, hash_join

    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_name"])
    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    per_cust = bucketed_agg(
        orders, ["o_custkey"],
        [("o_totalprice", "count", "n_orders"), ("o_totalprice", "sum", "total_spent")],
        num_buckets=16,
    )
    j = hash_join(
        cust, per_cust, on=["c_custkey"], right_on=["o_custkey"],
        how="left_outer", num_buckets=16,
        # explicit: schema() on the shuffle output would run the agg twice
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("n_orders", pa.int64()),
                                ("total_spent", pa.float64())]),
    )
    out = j.to_pandas()
    out["n_orders"] = out["n_orders"].fillna(0).astype("int64")
    out["total_spent"] = out["total_spent"].fillna(0.0).round(2)
    return out[["c_custkey", "c_name", "n_orders", "total_spent"]].sort_values(
        "c_custkey"
    ).reset_index(drop=True)


def q_events_ntile(sf_dir: str):
    """Per-user NTILE(4) over time order (windows.ntile: exact SQL
    NTILE tie-out — first count%4 tiles take the extra rows)."""
    from fs_crawler_ray.windows import ntile

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    out = ntile(ev, key="user_id", order_cols=["ts", "event_id"], n_tiles=4).to_pandas()
    return out[["user_id", "event_id", "tile"]].astype(
        {"user_id": "int64", "event_id": "int64", "tile": "int64"}
    ).sort_values(["user_id", "event_id"]).reset_index(drop=True)


def q_events_props_sum(sf_dir: str):
    """Schema-on-read field extraction from an opaque JSON-ish payload
    column (the crawl-payload fast path): one vectorized Arrow
    ``extract_regex`` pass per batch — no per-row json.loads — then a
    tiny per-type aggregate. The oracle uses the SAME regex
    (``regexp_extract``), so the operator's contract is explicitly
    "regex field pull", not a JSON-path walk: on nested objects the two
    would diverge. Groups where no row matches keep ``sum_k = 0``
    (COALESCE on both sides — a null sum would crash the int64 cast)."""
    ev = _t(sf_dir, "events", columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        s = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.struct_field(s, "k").cast(pa.int64())
        return pa.table({"event_type": t["event_type"], "k": k})

    from fs_crawler_ray.relops import bucketed_agg

    out = bucketed_agg(
        ev.map_batches(extract, batch_format="pyarrow"),
        ["event_type"],
        [("k", "sum", "sum_k"), ("k", "count", "n_with_k")],
        num_buckets=4,
    ).to_pandas()
    out["sum_k"] = out["sum_k"].fillna(0)
    return out.astype({"sum_k": "int64", "n_with_k": "int64"}).sort_values(
        "event_type"
    ).reset_index(drop=True)


def q_customers_with_big_orders(sf_dir: str):
    """Semi join (the membership-filter shape: keep left rows whose key
    exists in a deduped right key set; complements the anti-join
    query)."""
    import pyarrow.compute as _pc

    from fs_crawler_ray.relops import semi_anti_join

    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_name"])
    okeys = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(_pc.greater(t["o_totalprice"], 250000.0)), batch_format="pyarrow"
    ).select_columns(["o_custkey"])
    out = semi_anti_join(cust, distinct(okeys, ["o_custkey"], 16),
                         on="c_custkey", right_on="o_custkey", anti=False)
    return out.to_pandas().sort_values("c_custkey").reset_index(drop=True)


def q_events_daily_type_balance(sf_dir: str):
    """FULL OUTER join surface (completes the join-type matrix next to
    inner / left_outer / semi / anti / asof / range): daily purchase
    counts against daily error counts, zero-filled on both sides so
    days with only one kind survive. Both inputs are pre-aggregated to
    O(days) rows before the distributed full_outer hash join."""
    from fs_crawler_ray.relops import bucketed_agg

    # one scan: both daily() sides fork from the materialized 2-column
    # projection (bounded by the projection, spillable) instead of each
    # re-reading the events table
    ev = _t(sf_dir, "events", columns=["ts", "event_type"]).materialize()

    def daily(typ: str, out: str):
        sub = ev.map_batches(
            lambda t, _typ=typ: t.filter(pc.equal(t["event_type"], _typ)),
            batch_format="pyarrow",
        ).map_batches(
            lambda t: pa.table({"day": pc.floor_temporal(t["ts"], unit="day")}),
            batch_format="pyarrow",
        )
        return bucketed_agg(sub, ["day"], [("day", "count", out)], num_buckets=4)

    p, c = daily("purchase", "n_purchases"), daily("error", "n_errors")
    from fs_crawler_ray.relops import hash_join

    def _sch(out):  # both sides come out of a shuffle: give types up front
        return pa.schema([("day", pa.timestamp("ns")), (out, pa.int64())])

    j = hash_join(p, c, on=["day"], how="full_outer", num_buckets=4,
                  left_schema=_sch("n_purchases"), right_schema=_sch("n_errors"))
    out = j.to_pandas()
    out["n_purchases"] = out["n_purchases"].fillna(0).astype("int64")
    out["n_errors"] = out["n_errors"].fillna(0).astype("int64")
    return out[["day", "n_purchases", "n_errors"]].sort_values(
        "day"
    ).reset_index(drop=True)


_RETENTION_ANCHOR = pd.Timestamp("2024-01-01")


def q_events_retention(sf_dir: str):
    """Cohort retention: users bucketed into weekly cohorts by their
    FIRST active week, counted in every later week they return — the
    classic engagement matrix. Shape: per-batch (user, week) pair dedup
    → bucketed distinct → per-user min-week (cohort) → hash_join of the
    O(users×weeks) pair set against the O(users) cohort table → tiny
    (cohort, week) count. Nothing bigger than the distinct pair set
    ever shuffles. Restricted to the conversion event (purchases) so
    the sf0.01 cohort matrix is non-degenerate (2 cohorts × weeks, not
    one everyone-active-week-0 row)."""
    from fs_crawler_ray.relops import bucketed_agg, distinct, hash_join

    ev = _t(sf_dir, "events", columns=["ts", "user_id", "event_type"])

    anchor = _RETENTION_ANCHOR.to_datetime64()

    def to_pairs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        day = pc.floor_temporal(t["ts"], unit="day").to_numpy(zero_copy_only=False)
        # floor-divide days-since-anchor (numpy // floors negatives,
        # matching the pandas semantics this replaced)
        days = (day - anchor) // np.timedelta64(1, "D")
        return pa.table({
            "user_id": t["user_id"],
            "week": pa.array((days // 7).astype(np.int64)),
        }).group_by(["user_id", "week"]).aggregate([])  # per-batch dedup

    pairs = distinct(ev.map_batches(to_pairs, batch_format="pyarrow"),
                     ["user_id", "week"], 16)
    cohort = bucketed_agg(pairs, ["user_id"], [("week", "min", "cohort")],
                          num_buckets=16)
    j = hash_join(
        pairs, cohort, on=["user_id"], how="inner", num_buckets=16,
        left_schema=pa.schema([("user_id", pa.int64()), ("week", pa.int64())]),
        right_schema=pa.schema([("user_id", pa.int64()), ("cohort", pa.int64())]),
    )
    out = bucketed_agg(j, ["cohort", "week"], [("week", "count", "n_users")],
                       num_buckets=8).to_pandas()
    return out.astype({"cohort": "int64", "week": "int64", "n_users": "int64"}
                      ).sort_values(["cohort", "week"]).reset_index(drop=True)


def q_events_lag(sf_dir: str):
    """Per-user inter-event gap (windows.lag_deltas: LAG window as one
    key-bucket shuffle + an across-key vectorized diff kernel); gaps in
    integer microseconds, -1 for each user's first event, so the DuckDB
    LAG oracle matches bit-for-bit."""
    from fs_crawler_ray.windows import lag_deltas

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    out = lag_deltas(
        ev, key="user_id", ts_col="ts",
        order_cols=["event_id"], carry_cols=["event_id"],
    ).to_pandas()
    return out[["user_id", "event_id", "delta_us"]].astype(
        {"user_id": "int64", "event_id": "int64", "delta_us": "int64"}
    ).sort_values(["user_id", "event_id"]).reset_index(drop=True)

def q_events_value_rank(sf_dir: str):
    """Per-user RANK() with ties over integer spend cents
    (windows.rank_per_key: ties share a rank and leave gaps — the
    remaining classic window function next to NTILE / ROW_NUMBER /
    LAG). Cents conversion happens on BOTH sides (floor(v*100+0.5)), so
    tie detection and the oracle hash are exact."""
    from fs_crawler_ray.windows import rank_per_key

    ev = _t(sf_dir, "events", columns=["event_id", "user_id", "value"])
    cents = ev.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "value_cents": pc.cast(pc.floor(
                pc.add(pc.multiply(pc.cast(t["value"], pa.float64()), 100.0), 0.5)
            ), pa.int64()),
        }),
        batch_format="pyarrow",
    )
    out = rank_per_key(
        cents, key="user_id", value_col="value_cents",
        carry_cols=["event_id"], out_name="rnk",
    ).to_pandas()
    return out[["user_id", "event_id", "value_cents", "rnk"]].astype(
        {"user_id": "int64", "event_id": "int64",
         "value_cents": "int64", "rnk": "int64"}
    ).sort_values(["user_id", "event_id"]).reset_index(drop=True)


def q_events_moving_sum(sf_dir: str):
    """Per-user 3-row moving spend (windows.moving_sum: SUM OVER ... ROWS
    BETWEEN 2 PRECEDING AND CURRENT ROW) in integer cents — the
    rows-frame sibling of q_events_cumsum; cumsum-difference kernel, one
    key-bucket shuffle, exact vs the DuckDB window oracle."""
    from fs_crawler_ray.windows import moving_sum

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    out = moving_sum(
        ev, key="user_id", ts_col="ts", value_col="value", preceding=2,
        order_cols=["event_id"], carry_cols=["event_id"], out_name="w3_cents",
    ).to_pandas()
    return out[["user_id", "event_id", "w3_cents"]].astype(
        {"user_id": "int64", "event_id": "int64", "w3_cents": "int64"}
    ).sort_values(["user_id", "event_id"]).reset_index(drop=True)


def q_events_top_type_per_user(sf_dir: str):
    """Per-user modal event type with deterministic tie-break
    (windows.mode_per_key: highest count, then lexicographically
    smallest type — ROW_NUMBER(ORDER BY cnt DESC, type) = 1 in the
    oracle). Per-batch partial counts pre-combine before the single
    key-bucket shuffle, so hot users ship counts, not rows."""
    from fs_crawler_ray.windows import mode_per_key

    ev = _t(sf_dir, "events", columns=["user_id", "event_type"])
    out = mode_per_key(
        ev, key="user_id", cat_col="event_type", out_name="top_type",
    ).to_pandas()
    return out[["user_id", "top_type", "cnt"]].astype(
        {"user_id": "int64", "cnt": "int64"}
    ).sort_values("user_id").reset_index(drop=True)


def q_events_median_gap(sf_dir: str):
    """Per-user median inter-event gap: a pure composition of two
    already-verified operators — windows.lag_deltas (integer-µs gaps)
    feeding windows.group_quantiles (quantile_disc(0.5) semantics) — the
    engagement-cadence feature. Users with a single event have no gap
    and drop out on both sides; integer output end to end."""
    import pyarrow.compute as _pc

    from fs_crawler_ray.windows import group_quantiles, lag_deltas

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    gaps = lag_deltas(
        ev, key="user_id", ts_col="ts", order_cols=["event_id"],
    ).map_batches(
        lambda t: t.filter(_pc.greater_equal(t["delta_us"], 0)),
        batch_format="pyarrow",
    )
    out = group_quantiles(
        gaps, "user_id", "delta_us", {"median_gap_us": 0.5}, num_buckets=8,
    ).to_pandas()
    return out.astype({"user_id": "int64", "median_gap_us": "int64"}).sort_values(
        "user_id").reset_index(drop=True)


def q_orders_share_per_segment(sf_dir: str):
    """Each order's share of its customer segment's total spend in
    integer parts-per-million — the SQL ``SUM() OVER (PARTITION BY)``
    share-of-group window, done the scale way: the segment totals are
    O(segments) rows (one tiny bucketed aggregation after a broadcast
    dim join), broadcast back once, and the share is a map-only integer
    floor-divide — no row-sized shuffle anywhere. Integer ppm (cents ×
    1e6 // segment cents) keeps the oracle hash exact where a float
    ratio could not be."""
    from fs_crawler_ray.relops import bucketed_agg, lookup_join

    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    orders = _t(sf_dir, "orders",
                columns=["o_orderkey", "o_custkey", "o_totalprice"])
    oc = lookup_join(orders, cust, on="o_custkey", right_on="c_custkey",
                     how="inner").map_batches(
        lambda t: pa.table({
            "o_orderkey": t["o_orderkey"],
            "segment": t["c_mktsegment"],
            "cents": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(t["o_totalprice"], pa.float64()), 100.0), 0.5)),
                pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()
    seg = bucketed_agg(oc, ["segment"], [("cents", "sum", "seg_cents")],
                       num_buckets=4).to_pandas()
    ref = ray.put((pa.array(seg["segment"].astype(str)),
                   seg["seg_cents"].to_numpy().astype(np.int64)))

    def share(t: pa.Table) -> pa.Table:
        seg_names, seg_cents = ray.get(ref)
        pos = pc.index_in(t["segment"], value_set=seg_names).to_numpy(
            zero_copy_only=False).astype(np.int64)
        cents = t["cents"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column(
            "share_ppm", pa.array(cents * 1_000_000 // seg_cents[pos]))

    out = oc.map_batches(share, batch_format="pyarrow").to_pandas()
    return out[["o_orderkey", "segment", "cents", "share_ppm"]].astype(
        {"cents": "int64", "share_ppm": "int64"}).sort_values(
        "o_orderkey").reset_index(drop=True)


def q_events_type_transitions(sf_dir: str):
    """Global Markov transition counts between consecutive event types
    per user (windows.transition_counts) — the LAG-then-GROUP-BY
    transition matrix. Output is type-cardinality-sized."""
    from fs_crawler_ray.windows import transition_counts

    ev = _t(sf_dir, "events",
            columns=["event_id", "user_id", "ts", "event_type"])
    out = transition_counts(ev).to_pandas()
    return out.astype({"cnt": "int64"}).sort_values(
        ["prev_type", "next_type"]).reset_index(drop=True)


def q_events_outliers(sf_dir: str):
    """Per-user robust outlier flags: events whose spend deviates from
    the user's median by more than 3× the user's MAD (median absolute
    deviation) — the standard robust anomaly rule, done entirely in
    integer cents + exact discrete quantiles so the oracle hash is
    exact (a mean/stddev z-score could never be). Composition of
    verified pieces: two windows.group_quantiles passes (median, then
    MAD of |cents−median|), each an O(users)-row table that rides a
    size-aware lookup join back onto the stream; the event table itself
    is never shuffled twice."""
    from fs_crawler_ray.relops import lookup_join
    from fs_crawler_ray.windows import group_quantiles

    ev = _t(sf_dir, "events",
            columns=["event_id", "user_id", "value"]).map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "cents": pc.cast(pc.floor(pc.add(pc.multiply(
                pc.cast(t["value"], pa.float64()), 100.0), 0.5)), pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()
    med = group_quantiles(ev, "user_id", "cents", {"med": 0.5})
    med_schema = pa.schema([("user_id", pa.int64()), ("med", pa.int64())])
    with_med = lookup_join(ev, med, on="user_id", right_on="user_id",
                           how="inner", right_schema=med_schema)
    dev = with_med.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "cents": t["cents"], "med": t["med"],
            "adev": pc.abs(pc.subtract(t["cents"], t["med"])),
        }),
        batch_format="pyarrow",
    ).materialize()
    mad = group_quantiles(dev, "user_id", "adev", {"mad": 0.5})
    mad_schema = pa.schema([("user_id", pa.int64()), ("mad", pa.int64())])
    out = lookup_join(dev, mad, on="user_id", right_on="user_id",
                      how="inner", right_schema=mad_schema).map_batches(
        lambda t: t.filter(pc.greater(
            t["adev"], pc.multiply(t["mad"], pa.scalar(3, pa.int64())))),
        batch_format="pyarrow",
    ).to_pandas()
    out = out[["user_id", "event_id", "cents", "med", "mad"]]
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        ["user_id", "event_id"]).reset_index(drop=True)


def q_top_suppliers_by_nation(sf_dir: str):
    """Top-3 suppliers per nation by lineitem revenue — the classic
    three-table star join + per-group top-k: revenue pre-aggregates to
    O(suppliers) rows inside the lineitem pass (per-batch partial sums,
    one supplier-key shuffle), the supplier→nation dimension join
    broadcasts, and the final ranking is windows.topk_per_group with a
    deterministic (revenue DESC, suppkey ASC) tiebreak. Revenue is
    integer cents of extendedprice·(1−discount), same expression both
    sides."""
    from fs_crawler_ray.relops import bucketed_agg, lookup_join
    from fs_crawler_ray.windows import topk_per_group

    def partial(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(pc.multiply(
            pc.cast(t["l_extendedprice"], pa.float64()),
            pc.subtract(pa.scalar(1.0, pa.float64()),
                        pc.cast(t["l_discount"], pa.float64()))),
            100.0), 0.5)), pa.int64())
        b = pa.table({"l_suppkey": t["l_suppkey"], "rev_cents": cents})
        g = b.group_by("l_suppkey", use_threads=False).aggregate(
            [("rev_cents", "sum")])
        return pa.table({"l_suppkey": g["l_suppkey"],
                         "rev_cents": g["rev_cents_sum"]})

    li = _t(sf_dir, "lineitem",
            columns=["l_suppkey", "l_extendedprice", "l_discount"]).map_batches(
        partial, batch_format="pyarrow")
    per_supp = bucketed_agg(li, ["l_suppkey"],
                            [("rev_cents", "sum", "rev_cents")], 16)
    supp = _t(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nation = _t(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    j = lookup_join(per_supp, supp, on="l_suppkey", right_on="s_suppkey",
                    how="inner")
    j = lookup_join(j, nation, on="s_nationkey", right_on="n_nationkey",
                    how="inner").map_batches(
        lambda t: pa.table({"nation": t["n_name"], "suppkey": t["l_suppkey"],
                            "rev_cents": t["rev_cents"]}),
        batch_format="pyarrow")
    out = topk_per_group(j, "nation", ["rev_cents", "suppkey"],
                         [True, False], k=3, rank_name="rnk").to_pandas()
    out = out[["nation", "rnk", "suppkey", "rev_cents"]]
    return out.astype({"rnk": "int64", "suppkey": "int64",
                       "rev_cents": "int64"}).sort_values(
        ["nation", "rnk"]).reset_index(drop=True)


def q_events_daily_new_users(sf_dir: str):
    """Daily new-user cohort sizes: each user's FIRST event timestamp
    (global min per user — one user-key bucketed Arrow aggregation),
    floored to day, then a day-cardinality count shuffle. The
    first-touch / acquisition-cohort primitive; all group state is
    O(users) then O(days)."""
    from fs_crawler_ray.relops import bucketed_agg

    ev = _t(sf_dir, "events", columns=["user_id", "ts"])
    first = bucketed_agg(ev, ["user_id"], [("ts", "min", "first_ts")], 16)
    days = first.map_batches(
        lambda t: pa.table({
            "day": pc.floor_temporal(t["first_ts"], unit="day")}),
        batch_format="pyarrow")
    out = bucketed_agg(days, ["day"], [("day", "count", "new_users")],
                       4).to_pandas()
    return out.astype({"new_users": "int64"}).sort_values(
        "day").reset_index(drop=True)


def q_part_pairs(sf_dir: str, k: int = 20):
    """Market-basket co-occurrence: the top-k part pairs most often
    bought together in one order (`p1 < p2` canonical, tiebreak
    ``cnt DESC, p1, p2``). The association-rule / co-view mining
    primitive. Plan: DISTINCT (orderkey, partkey) pairs (per-batch
    pre-dedup before one bucketed shuffle), a size-aware self-join on
    the orderkey (broadcast below ``BROADCAST_LIMIT``, bucketed hash
    shuffle above — the same wedge shape as `graph.coparent_pairs`),
    canonicalize ``p1 < p2``, count per pair, then a distributed
    (cnt DESC, p1, p2) sort + limit. Work is O(Σ per-order items²) —
    basket-bounded, not corpus-bounded."""
    from fs_crawler_ray.relops import bucketed_agg, distinct, lookup_join

    li = _t(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    op = distinct(li, ["l_orderkey", "l_partkey"], 16).materialize()
    left = op.map_batches(
        lambda t: pa.table({"o": t["l_orderkey"], "p1": t["l_partkey"]}),
        batch_format="pyarrow")
    right = op.map_batches(
        lambda t: pa.table({"o2": t["l_orderkey"], "p2": t["l_partkey"]}),
        batch_format="pyarrow")
    j = lookup_join(left, right, on="o", right_on="o2", how="inner")
    canon = j.map_batches(
        lambda t: t.filter(pc.less(t["p1"], t["p2"])).select(["o", "p1", "p2"]),
        batch_format="pyarrow")
    counts = bucketed_agg(canon, ["p1", "p2"], [("o", "count", "cnt")], 16)
    top = counts.sort(["cnt", "p1", "p2"],
                      descending=[True, False, False]).limit(k).to_pandas()
    return top[["p1", "p2", "cnt"]].astype(
        {"p1": "int64", "p2": "int64", "cnt": "int64"}).reset_index(drop=True)


def q_orders_yearly_growth(sf_dir: str):
    """Year-over-year revenue: ``(year, rev_cents, delta_cents)`` with
    ``delta_cents`` the change vs the previous calendar year (0 for
    the first). Revenue aggregates distributed — per-batch Arrow
    partial sums of integer cents, one year-cardinality shuffle — and
    the LAG runs on the O(years) result driver-side (documented: the
    final table is a handful of rows at any corpus size; the lag is a
    presentation step, not a data-scale one)."""
    from fs_crawler_ray.relops import bucketed_agg

    def partial(t: pa.Table) -> pa.Table:
        yr = pc.year(t["o_orderdate"])
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["o_totalprice"], pa.float64()), 100.0), 0.5)), pa.int64())
        b = pa.table({"year": yr, "cents": cents})
        g = b.group_by("year", use_threads=False).aggregate([("cents", "sum")])
        return pa.table({"year": pc.cast(g["year"], pa.int64()),
                         "cents": g["cents_sum"]})

    orders = _t(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
    per_year = bucketed_agg(
        orders.map_batches(partial, batch_format="pyarrow"),
        ["year"], [("cents", "sum", "rev_cents")], 4).to_pandas()
    per_year = per_year.sort_values("year").reset_index(drop=True)
    prev = per_year["rev_cents"].shift(1).fillna(per_year["rev_cents"].iloc[0]
                                                 if len(per_year) else 0)
    per_year["delta_cents"] = (per_year["rev_cents"] - prev).astype("int64")
    return per_year.astype({"year": "int64", "rev_cents": "int64"})


def q_events_weekday_profile(sf_dir: str):
    """Weekly seasonality profile: events per (ISO weekday, event_type)
    with integer-cents value totals — the day-of-week load/revenue
    matrix a capacity plan reads. Per-batch Arrow partials (one
    temporal kernel + a (7×types)-bounded group_by per batch), then a
    (7×types)-cardinality shuffle. Arrow's day_of_week counts from
    0=Monday, so +1 equals DuckDB's isodow — pinned by the oracle."""
    from fs_crawler_ray.relops import bucketed_agg

    def partial(t: pa.Table) -> pa.Table:
        dow = pc.add(pc.day_of_week(t["ts"]), 1).cast(pa.int64())
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["value"], pa.float64()), 100.0), 0.5)), pa.int64())
        b = pa.table({"isodow": dow, "event_type": t["event_type"],
                      "cents": cents})
        g = b.group_by(["isodow", "event_type"], use_threads=False).aggregate(
            [("cents", "sum"), ([], "count_all")])
        return pa.table({"isodow": g["isodow"], "event_type": g["event_type"],
                         "n_events": g["count_all"],
                         "total_cents": g["cents_sum"]})

    ev = _t(sf_dir, "events", columns=["ts", "event_type", "value"])
    out = bucketed_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["isodow", "event_type"],
        [("n_events", "sum", "n_events"), ("total_cents", "sum", "total_cents")],
        4).to_pandas()
    return out.astype({"isodow": "int64", "n_events": "int64",
                       "total_cents": "int64"}).sort_values(
        ["isodow", "event_type"]).reset_index(drop=True)


def q_events_asof_next_click(sf_dir: str):
    """Forward as-of join: each purchase paired with the same user's
    EARLIEST click at-or-after it — the post-purchase-behavior probe
    (did the buyer come back?). Same one-shuffle tagged-union plan as
    the backward as-of; the match flips to ``searchsorted(side="left")``
    over the identical linearized (key, ts) axis
    (windows.asof_join(direction="forward"); DuckDB ``ASOF JOIN ... ON
    l.ts <= r.ts`` oracle)."""
    from fs_crawler_ray.windows import asof_join

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type", "value"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")), batch_format="pyarrow"
    ).select_columns(["event_id", "ts", "user_id"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")), batch_format="pyarrow"
    ).select_columns(["ts", "user_id", "value"])
    out = asof_join(
        purchases, clicks, key="user_id", ts_col="ts",
        left_cols=["event_id"], right_cols=["value"],
        direction="forward",
    ).to_pandas()
    out = out.rename(columns={
        "event_id": "purchase_id", "ts": "purchase_ts",
        "ts_r": "click_ts", "value": "click_value",
    })
    out = _round2(out, ["click_value"])
    return out[["user_id", "purchase_id", "purchase_ts", "click_ts", "click_value"]].sort_values(
        ["user_id", "purchase_id"]
    ).reset_index(drop=True)


def q_events_conversions_1h(sf_dir: str):
    """Attribution-window conversions: purchases whose same-user most
    recent click happened within the preceding hour — the classic
    last-touch attribution rule. Pure composition: the verified
    backward as-of join plus one map-side interval filter (no extra
    shuffle beyond the as-of's single key bucket)."""
    from fs_crawler_ray.windows import asof_join

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")), batch_format="pyarrow"
    ).select_columns(["event_id", "ts", "user_id"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")), batch_format="pyarrow"
    ).select_columns(["ts", "user_id"])
    j = asof_join(purchases, clicks, key="user_id", ts_col="ts",
                  left_cols=["event_id"], right_cols=[])
    hour_us = 3_600_000_000

    def within(t: pa.Table) -> pa.Table:
        l = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        r = t["ts_r"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(l - r <= hour_us))

    out = j.map_batches(within, batch_format="pyarrow").to_pandas()
    out = out.rename(columns={"event_id": "purchase_id", "ts": "purchase_ts",
                              "ts_r": "click_ts"})
    return out[["user_id", "purchase_id", "purchase_ts", "click_ts"]].sort_values(
        ["user_id", "purchase_id"]).reset_index(drop=True)


def q_events_ttc_quantiles(sf_dir: str):
    """Conversion-latency distribution: exact p25/p50/p75/p95 of the
    click→purchase gap (seconds) over the backward as-of matches —
    "how long before a click converts". The gap is floored to integer
    seconds BEFORE the quantile so both engines pick from identical
    discrete values (quantile_disc semantics). Composition: the
    verified as-of join → one map pass → windows.group_quantiles on a
    constant key (a single global group — the quantile table is one
    row; the per-key machinery is reused, not re-derived)."""
    from fs_crawler_ray.windows import asof_join, group_quantiles

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    purchases = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "purchase")), batch_format="pyarrow"
    ).select_columns(["event_id", "ts", "user_id"])
    clicks = ev.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")), batch_format="pyarrow"
    ).select_columns(["ts", "user_id"])
    j = asof_join(purchases, clicks, key="user_id", ts_col="ts",
                  left_cols=["event_id"], right_cols=[])

    def gap(t: pa.Table) -> pa.Table:
        l = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        r = t["ts_r"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"grp": np.zeros(len(t), dtype=np.int64),
                         "gap_s": (l - r) // 1_000_000})

    gaps = j.map_batches(gap, batch_format="pyarrow")
    out = group_quantiles(gaps, "grp", "gap_s",
                          {"p25": 0.25, "p50": 0.5, "p75": 0.75,
                           "p95": 0.95}).to_pandas()
    out = out.drop(columns=["grp"])
    return out.astype({c: "int64" for c in out.columns}).reset_index(drop=True)


def q_customer_rfm(sf_dir: str):
    """Per-customer RFM table — recency (last order day, epoch days) /
    frequency (order count) / monetary (integer cents): the
    segmentation features a marketing pipeline derives. One per-batch
    Arrow partial (customer-bounded rows) + one customer-key shuffle;
    all-integer so the hash matches SQL exactly."""
    from fs_crawler_ray.relops import bucketed_agg

    def partial(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor(pc.divide(
            pc.cast(t["o_orderdate"], pa.int64()), 86_400_000_000.0)),
            pa.int64())
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["o_totalprice"], pa.float64()), 100.0), 0.5)), pa.int64())
        b = pa.table({"custkey": t["o_custkey"], "day": day, "cents": cents})
        g = b.group_by("custkey", use_threads=False).aggregate(
            [("day", "max"), ("cents", "sum"), ([], "count_all")])
        return pa.table({"custkey": g["custkey"], "last_day": g["day_max"],
                         "n_orders": g["count_all"],
                         "total_cents": g["cents_sum"]})

    orders = _t(sf_dir, "orders",
                columns=["o_custkey", "o_orderdate", "o_totalprice"])
    out = bucketed_agg(
        orders.map_batches(partial, batch_format="pyarrow"),
        ["custkey"],
        [("last_day", "max", "last_day"), ("n_orders", "sum", "n_orders"),
         ("total_cents", "sum", "total_cents")], 16).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        "custkey").reset_index(drop=True)


def q_events_session_size_hist(sf_dir: str):
    """Session-size histogram ``(n_events, n_sessions)`` — the
    engagement-shape distribution read off the sessionizer's output
    (how many one-hit visits vs long sessions). Composition: the
    verified gap sessionization (one key shuffle) plus one
    size-cardinality count shuffle over the O(sessions) table."""
    from fs_crawler_ray.relops import bucketed_agg
    from fs_crawler_ray.windows import sessionize

    ev = _t(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    sess = sessionize(ev, key="user_id", ts_col="ts",
                      gap=pd.Timedelta(hours=12),
                      order_cols=["ts", "event_id"])
    out = bucketed_agg(
        sess.map_batches(
            lambda t: pa.table({"n_events": t["n_events"],
                                "sid": t["session_id"]}),
            batch_format="pyarrow"),
        ["n_events"], [("sid", "count", "n_sessions")], 4).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        "n_events").reset_index(drop=True)


def q_ship_delay_hist(sf_dir: str):
    """Order-to-ship latency histogram ``(delay_days, n_items)`` — the
    fulfillment-SLA distribution: line items joined to their order
    (size-aware join; orders is the smaller side), delay in whole days
    via integer epoch-day subtraction, one delay-cardinality count
    shuffle."""
    from fs_crawler_ray.relops import bucketed_agg, lookup_join

    li = _t(sf_dir, "lineitem", columns=["l_orderkey", "l_shipdate"])
    orders = _t(sf_dir, "orders", columns=["o_orderkey", "o_orderdate"])
    j = lookup_join(li, orders, on="l_orderkey", right_on="o_orderkey",
                    how="inner")

    def delay(t: pa.Table) -> pa.Table:
        s = t["l_shipdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        o = t["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = s // 86_400_000_000 - o // 86_400_000_000
        return pa.table({"delay_days": d,
                         "k": np.ones(len(t), dtype=np.int64)})

    out = bucketed_agg(
        j.map_batches(delay, batch_format="pyarrow"),
        ["delay_days"], [("k", "count", "n_items")], 4).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        "delay_days").reset_index(drop=True)


def q_orders_ltv_triangle(sf_dir: str):
    """Cohort LTV triangle ``(cohort_month, month_offset, rev_cents)``
    — revenue by acquisition cohort and months-since-first-order, the
    lifetime-value layout every growth team reads. Two shuffles, both
    shrinking: per-customer first-order month (customer-key Arrow min),
    broadcast-joined back onto orders (size-aware), then a
    (cohorts×offsets)-cardinality sum of integer cents. Months are
    linearized as ``year·12 + month`` so the offset is a plain integer
    subtraction on both engines."""
    from fs_crawler_ray.relops import bucketed_agg, lookup_join

    orders = _t(sf_dir, "orders",
                columns=["o_custkey", "o_orderdate", "o_totalprice"])

    def month_partial(t: pa.Table) -> pa.Table:
        m = pc.add(pc.multiply(pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                               pa.scalar(12, pa.int64())),
                   pc.cast(pc.month(t["o_orderdate"]), pa.int64()))
        b = pa.table({"custkey": t["o_custkey"], "m": m})
        g = b.group_by("custkey", use_threads=False).aggregate([("m", "min")])
        return pa.table({"custkey": g["custkey"], "m": g["m_min"]})

    first = bucketed_agg(
        orders.map_batches(month_partial, batch_format="pyarrow"),
        ["custkey"], [("m", "min", "cohort_m")], 16)

    def row_fn(t: pa.Table) -> pa.Table:
        m = pc.add(pc.multiply(pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                               pa.scalar(12, pa.int64())),
                   pc.cast(pc.month(t["o_orderdate"]), pa.int64()))
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["o_totalprice"], pa.float64()), 100.0), 0.5)), pa.int64())
        return pa.table({"ck": t["o_custkey"], "m": m, "cents": cents})

    j = lookup_join(orders.map_batches(row_fn, batch_format="pyarrow"),
                    first, on="ck", right_on="custkey", how="inner")
    cells = j.map_batches(
        lambda t: pa.table({
            "cohort_month": t["cohort_m"],
            "month_offset": pc.subtract(t["m"], t["cohort_m"]),
            "cents": t["cents"]}),
        batch_format="pyarrow")
    out = bucketed_agg(cells, ["cohort_month", "month_offset"],
                       [("cents", "sum", "rev_cents")], 8).to_pandas()
    return out.astype({c: "int64" for c in out.columns}).sort_values(
        ["cohort_month", "month_offset"]).reset_index(drop=True)


def q_part_price_stats(sf_dir: str):
    """Per-type part-price distribution in integer cents: exact
    p25/p50/p75 via windows.group_quantiles plus min/max — the pricing
    table a catalog audit reads. One key shuffle for the quantile
    kernel + one bucketed min/max aggregation, merged on the O(types)
    result."""
    from fs_crawler_ray.relops import bucketed_agg
    from fs_crawler_ray.windows import group_quantiles

    part = _t(sf_dir, "part", columns=["p_type", "p_retailprice"])

    def cents_fn(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["p_retailprice"], pa.float64()), 100.0), 0.5)), pa.int64())
        return pa.table({"p_type": t["p_type"], "cents": cents})

    cents = part.map_batches(cents_fn, batch_format="pyarrow").materialize()
    q = group_quantiles(cents, "p_type", "cents",
                        {"p25": 0.25, "p50": 0.5, "p75": 0.75}).to_pandas()
    mm = bucketed_agg(cents, ["p_type"],
                      [("cents", "min", "min_cents"),
                       ("cents", "max", "max_cents")], 4).to_pandas()
    out = q.merge(mm, on="p_type")
    cols = ["p_type", "min_cents", "p25", "p50", "p75", "max_cents"]
    return out[cols].astype({c: "int64" for c in cols[1:]}).sort_values(
        "p_type").reset_index(drop=True)


def q_events_anomaly_days(sf_dir: str):
    """Robust anomaly flags on the daily event series: ``(day,
    n_events, abs_dev, is_anomaly)`` with the median/MAD rule
    ``|n − median| · 100 > 300 · MAD`` (3×MAD, integer
    cross-multiplied — the traffic-spike detector a crawl/ingest
    monitor runs; mean/stddev would let one spike mask another). Daily
    counts aggregate distributed (day-cardinality shuffle); the
    median/MAD reduction runs on the O(days) result driver-side
    (documented — the series is days-long at any corpus size).
    quantile_disc semantics: element ceil(q·n)−1 of the sorted
    values, identical on both engines."""
    from fs_crawler_ray.relops import bucketed_agg

    ev = _t(sf_dir, "events", columns=["ts"])
    days = ev.map_batches(
        lambda t: pa.table({"day": pc.floor_temporal(t["ts"], unit="day"),
                            "k": np.ones(len(t), dtype=np.int64)}),
        batch_format="pyarrow")
    out = bucketed_agg(days, ["day"], [("k", "count", "n_events")],
                       4).to_pandas().sort_values("day").reset_index(drop=True)
    n = out["n_events"].to_numpy().astype(np.int64)

    def qdisc(v: np.ndarray, q: float) -> int:
        s = np.sort(v)
        return int(s[int(np.ceil(q * len(s))) - 1])

    med = qdisc(n, 0.5)
    ad = np.abs(n - med)
    mad = max(qdisc(ad, 0.5), 1)
    out["abs_dev"] = ad
    out["is_anomaly"] = (ad * 100 > 300 * mad).astype(np.int64)
    return out.astype({"n_events": "int64", "abs_dev": "int64",
                       "is_anomaly": "int64"})


def q_orders_priority_matrix(sf_dir: str):
    """Order-priority mix per market segment ``(segment, priority,
    n_orders)`` — the two-dimensional composition table (are urgent
    orders concentrated in one segment?). One size-aware dim join +
    a (segments×priorities)-cardinality count shuffle."""
    from fs_crawler_ray.relops import bucketed_agg, lookup_join

    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_orderpriority",
                                           "o_orderkey"])
    cust = _t(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    j = lookup_join(orders, cust, on="o_custkey", right_on="c_custkey",
                    how="inner")
    out = bucketed_agg(
        j.map_batches(lambda t: pa.table({
            "segment": t["c_mktsegment"], "priority": t["o_orderpriority"],
            "k": t["o_orderkey"]}), batch_format="pyarrow"),
        ["segment", "priority"], [("k", "count", "n_orders")], 4).to_pandas()
    return out.astype({"n_orders": "int64"}).sort_values(
        ["segment", "priority"]).reset_index(drop=True)


def q_events_type_value_stats(sf_dir: str):
    """Per-event-type value distribution in integer cents: count +
    exact p25/p50/p75 (windows.group_quantiles on the type key) — the
    per-category monetization profile."""
    from fs_crawler_ray.relops import bucketed_agg
    from fs_crawler_ray.windows import group_quantiles

    ev = _t(sf_dir, "events", columns=["event_type", "value"])

    def cents_fn(t: pa.Table) -> pa.Table:
        cents = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(t["value"], pa.float64()), 100.0), 0.5)), pa.int64())
        return pa.table({"event_type": t["event_type"], "cents": cents})

    cents = ev.map_batches(cents_fn, batch_format="pyarrow").materialize()
    q = group_quantiles(cents, "event_type", "cents",
                        {"p25": 0.25, "p50": 0.5, "p75": 0.75}).to_pandas()
    n = bucketed_agg(cents, ["event_type"],
                     [("cents", "count", "n_events")], 4).to_pandas()
    out = q.merge(n, on="event_type")
    cols = ["event_type", "n_events", "p25", "p50", "p75"]
    return out[cols].astype({c: "int64" for c in cols[1:]}).sort_values(
        "event_type").reset_index(drop=True)


def q_events_hour_profile(sf_dir: str):
    """Hour-of-day load profile ``(hour, event_type, n_events)`` — the
    intraday seasonality matrix next to the weekday one (capacity
    planning at hour granularity). Per-batch Arrow partials, one
    (24×types)-cardinality shuffle."""
    from fs_crawler_ray.relops import bucketed_agg

    def partial(t: pa.Table) -> pa.Table:
        hr = pc.cast(pc.hour(t["ts"]), pa.int64())
        b = pa.table({"hour": hr, "event_type": t["event_type"],
                      "k": pa.array(np.ones(len(t), dtype=np.int64))})
        g = b.group_by(["hour", "event_type"], use_threads=False).aggregate(
            [("k", "sum")])
        return pa.table({"hour": g["hour"], "event_type": g["event_type"],
                         "n_events": g["k_sum"]})

    ev = _t(sf_dir, "events", columns=["ts", "event_type"])
    out = bucketed_agg(
        ev.map_batches(partial, batch_format="pyarrow"),
        ["hour", "event_type"], [("n_events", "sum", "n_events")],
        4).to_pandas()
    return out.astype({"hour": "int64", "n_events": "int64"}).sort_values(
        ["hour", "event_type"]).reset_index(drop=True)
