"""Property tests: relops.hash_join vs the pandas merge oracle.

The bucketed hash_join is the engine's scale-path join (it backs
semi/anti fallbacks, resolve, vocab, daily-balance, retention…), so it
gets an adversarial oracle: random small frames — string AND int keys,
skew, missing keys, empty sides, pandas- and arrow-backed inputs — must
match ``pd.merge`` row-multisets for every join type.
"""

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fs_crawler_ray.relops import hash_join

KEYS = ["a", "b", "c", "d", "e", "f"]


def _frame(keys, vals, col, key_dtype=object):
    # explicit dtypes: an EMPTY pandas frame defaults every column to
    # float64, which is an input ambiguity (hash_join rightly refuses
    # double-vs-string key conflicts), not a join property
    return pd.DataFrame({"k": pd.Series(list(keys), dtype=key_dtype),
                         col: pd.Series(list(vals), dtype="int64")})


def _canon(df: pd.DataFrame, cols) -> list[tuple]:
    out = []
    for row in df[cols].itertuples(index=False):
        out.append(tuple(None if (isinstance(v, float) and np.isnan(v))
                         or v is pd.NA or v is None else v for v in row))
    return sorted(out, key=repr)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    lk=st.lists(st.sampled_from(KEYS), min_size=0, max_size=12),
    rk=st.lists(st.sampled_from(KEYS), min_size=0, max_size=12),
    how=st.sampled_from(["inner", "left_outer", "full_outer"]),
    buckets=st.sampled_from([1, 3, 16]),
)
def test_hash_join_matches_pandas_merge(lk, rk, how, buckets):
    ldf = _frame(lk, range(len(lk)), "x")
    rdf = _frame(rk, range(100, 100 + len(rk)), "y")
    pd_how = {"inner": "inner", "left_outer": "left", "full_outer": "outer"}[how]
    want = ldf.merge(rdf, on="k", how=pd_how)
    got = hash_join(
        ray.data.from_pandas(ldf), ray.data.from_pandas(rdf),
        on=["k"], how=how, num_buckets=buckets,
    ).to_pandas()
    if len(got) == 0 and len(want) == 0:
        return  # an all-empty Ray result loses its schema — nothing to compare
    assert _canon(got, ["k", "x", "y"]) == _canon(want, ["k", "x", "y"]), (
        lk, rk, how, buckets)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    lk=st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=10),
    rk=st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=10),
    anti=st.booleans(),
)
def test_hash_join_semi_anti_matches_pandas(lk, rk, anti):
    ldf = _frame(lk, range(len(lk)), "x", key_dtype="int64")
    rdf = pd.DataFrame({"k": pd.Series(list(rk), dtype="int64")})
    mask = ldf["k"].isin(set(rk))
    want = ldf[~mask] if anti else ldf[mask]
    got = hash_join(
        ray.data.from_pandas(ldf), ray.data.from_pandas(rdf),
        on=["k"], how="left_anti" if anti else "left_semi", num_buckets=4,
    ).to_pandas()
    if len(got) == 0 and len(want) == 0:
        return
    assert _canon(got, ["k", "x"]) == _canon(want, ["k", "x"]), (lk, rk, anti)



@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(0, 5), st.integers(0, 99)),
        min_size=1, max_size=30),
    buckets=st.sampled_from([1, 4, 16]),
)
def test_dedup_keep_first_matches_pandas(rows, buckets):
    """dedup_keep_first == pandas sort_values + drop_duplicates(keep=first)
    for any key skew and bucket count (the crawl's D1/D3 semantics)."""
    from fs_crawler_ray.relops import dedup_keep_first

    df = pd.DataFrame(rows, columns=["k", "o", "v"])
    want = df.sort_values(["o", "v"], kind="stable").drop_duplicates(
        subset=["k"], keep="first")
    got = dedup_keep_first(
        ray.data.from_pandas(df), ["k"], ["o", "v"], num_buckets=buckets
    ).to_pandas()
    assert _canon(got, ["k", "o", "v"]) == _canon(want, ["k", "o", "v"]), rows


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(KEYS), st.integers(-50, 50)),
        min_size=1, max_size=30),
    buckets=st.sampled_from([1, 4, 16]),
)
def test_bucketed_agg_matches_pandas_groupby(rows, buckets):
    from fs_crawler_ray.relops import bucketed_agg

    df = pd.DataFrame(rows, columns=["k", "v"])
    want = df.groupby("k", as_index=False).agg(
        s=("v", "sum"), mn=("v", "min"), mx=("v", "max"), n=("v", "count"))
    got = bucketed_agg(
        ray.data.from_pandas(df), ["k"],
        [("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx"),
         ("v", "count", "n")],
        num_buckets=buckets,
    ).to_pandas()
    assert _canon(got, ["k", "s", "mn", "mx", "n"]) == _canon(
        want, ["k", "s", "mn", "mx", "n"]), rows


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(st.tuples(st.sampled_from(KEYS), st.integers(0, 3)),
                  min_size=0, max_size=25),
)
def test_distinct_matches_pandas(rows):
    from fs_crawler_ray.relops import distinct

    df = pd.DataFrame(rows, columns=["k", "g"])
    if df.empty:
        df = pd.DataFrame({"k": pd.Series(dtype=object),
                           "g": pd.Series(dtype="int64")})
    want = df.drop_duplicates()
    got = distinct(ray.data.from_pandas(df), ["k", "g"], 8).to_pandas()
    if len(got) == 0 and len(want) == 0:
        return
    assert _canon(got, ["k", "g"]) == _canon(want, ["k", "g"]), rows

if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q"]))


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    lk=st.lists(st.one_of(st.none(), st.sampled_from(KEYS)), min_size=0, max_size=10),
    rk=st.lists(st.one_of(st.none(), st.sampled_from(KEYS)), min_size=0, max_size=10),
    anti=st.booleans(),
)
def test_broadcast_semi_join_null_keys_never_match(lk, rk, anti):
    """SQL semi-join semantics: a null key matches nothing, whether the
    null is on the left, the right or both — semi drops null-key rows,
    anti keeps them."""
    import pyarrow as pa

    from fs_crawler_ray.relops import broadcast_semi_join

    right = {k for k in rk if k is not None}
    left = pa.table({"k": pa.array(lk, pa.string()),
                     "x": pa.array(range(len(lk)), pa.int64())})
    want = [(k, x) for x, k in enumerate(lk) if (k in right) != anti]
    got = broadcast_semi_join(ray.data.from_arrow(left), pa.array(rk, pa.string()),
                              "k", anti=anti).take_all()
    assert sorted(((r["k"], r["x"]) for r in got), key=repr) == sorted(want, key=repr), (
        lk, rk, anti)


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("empty_right", ["no_blocks", "schemaless_blocks"])
def test_semi_anti_join_empty_right_side(anti, empty_right):
    """An empty right side — no blocks at all, or only schema-less empty
    blocks (what an empty shuffle partition yields) — is a valid filter
    set: semi keeps no row, anti keeps every row."""
    import pyarrow as pa

    from fs_crawler_ray.relops import semi_anti_join

    if empty_right == "no_blocks":
        right = ray.data.from_items([])
    else:
        right = ray.data.from_arrow(pa.table({"id": ["x"]})).map_batches(
            lambda t: pa.table({}), batch_format="pyarrow")
    left = ray.data.from_arrow(pa.table({"k": ["a", "b"]}))
    got = sorted(r["k"] for r in semi_anti_join(left, right, "k", "id", anti=anti).take_all())
    assert got == (["a", "b"] if anti else [])


def _null_star_schema(sf) -> None:
    """A tiny star schema whose counted columns (l_quantity, value,
    o_totalprice) hold nulls."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    day = dt.datetime(1998, 1, 5, 10, 30)
    rows = 24
    ts = [day + dt.timedelta(hours=i % 3, days=i % 2) for i in range(rows)]
    nullable = [None if i % 4 == 0 else float(i) for i in range(rows)]
    pq.write_table(pa.table({
        "l_quantity": pa.array(nullable, pa.float64()),
        "l_extendedprice": pa.array([10.0 + i for i in range(rows)]),
        "l_discount": pa.array([0.05] * rows),
        "l_returnflag": pa.array(["A", "N", "R"] * (rows // 3)),
        "l_linestatus": pa.array(["F", "O"] * (rows // 2)),
        "l_shipdate": pa.array(ts, pa.timestamp("us")),
    }), sf / "lineitem.parquet")
    pq.write_table(pa.table({
        "event_id": pa.array(range(rows), pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([i % 3 for i in range(rows)], pa.int64()),
        "event_type": pa.array(["view", "click"] * (rows // 2)),
        "value": pa.array(nullable, pa.float64()),
    }), sf / "events.parquet")
    pq.write_table(pa.table({
        "o_custkey": pa.array([i % 5 for i in range(rows)], pa.int64()),
        "o_orderdate": pa.array(ts, pa.timestamp("us")),
        "o_totalprice": pa.array(nullable, pa.float64()),
    }), sf / "orders.parquet")


@pytest.mark.parametrize("query,keys,count_col,sql", [
    ("q_pricing_summary", ["l_returnflag", "l_linestatus"], "count_order",
     "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM read_parquet('{sf}/lineitem.parquet')"
     " WHERE l_shipdate < TIMESTAMP '1998-09-01' GROUP BY ALL"),
    ("q_events_hourly", ["user_id", "hour"], "n_events",
     "SELECT user_id, date_trunc('hour', ts) AS hour, COUNT(*) AS n"
     " FROM read_parquet('{sf}/events.parquet') GROUP BY ALL"),
    ("q_events_weekday_profile", ["isodow", "event_type"], "n_events",
     "SELECT CAST(isodow(ts) AS BIGINT) AS isodow, event_type, COUNT(*) AS n"
     " FROM read_parquet('{sf}/events.parquet') GROUP BY ALL"),
    ("q_customer_rfm", ["custkey"], "n_orders",
     "SELECT o_custkey AS custkey, COUNT(*) AS n FROM read_parquet('{sf}/orders.parquet')"
     " GROUP BY ALL"),
])
def test_relational_counts_are_count_star_with_nulls(tmp_path, query, keys, count_col, sql):
    """The relational partials count rows (SQL ``COUNT(*)``), not the
    non-null values of the column they aggregate: every fourth counted
    value here is null."""
    import duckdb

    from fs_crawler_ray.pipelines import relational

    _null_star_schema(tmp_path)
    got = getattr(relational, query)(str(tmp_path))
    want = duckdb.sql(sql.format(sf=tmp_path)).df()
    got_counts = {tuple(r[:-1]): int(r[-1]) for r in got[keys + [count_col]].itertuples(index=False)}
    want_counts = {tuple(r[:-1]): int(r[-1]) for r in want[keys + ["n"]].itertuples(index=False)}
    assert got_counts == want_counts
