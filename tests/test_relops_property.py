"""Property tests: relops.join and relops.hash_join vs the pandas
merge oracle.

``join`` is the engine's one join entry point and the bucketed
``hash_join`` its scale path (and the full/right outer join), so both
get an adversarial oracle: random small frames — string AND int keys,
null keys, skew, missing keys, empty sides, pandas- and arrow-backed
inputs — must match ``pd.merge`` for every join type.
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
def test_join_semi_anti_null_keys_never_match(lk, rk, anti):
    """SQL semi-join semantics: a null key matches nothing, whether the
    null is on the left, the right or both — semi drops null-key rows,
    anti keeps them."""
    import pyarrow as pa

    from fs_crawler_ray.relops import join

    right = {k for k in rk if k is not None}
    left = pa.table({"k": pa.array(lk, pa.string()),
                     "x": pa.array(range(len(lk)), pa.int64())})
    got = join(ray.data.from_arrow(left),
               ray.data.from_arrow(pa.table({"id": pa.array(rk, pa.string())})),
               "k", "id", how="anti" if anti else "semi").take_all()
    want = [(k, x) for x, k in enumerate(lk) if (k in right) != anti]
    assert sorted(((r["k"], r["x"]) for r in got), key=repr) == sorted(want, key=repr), (
        lk, rk, anti)


def _empty_right(kind: str) -> ray.data.Dataset:
    """An empty right side with no column types: no blocks at all, or
    only schema-less empty blocks (what an empty shuffle partition
    yields)."""
    import pyarrow as pa

    if kind == "no_blocks":
        return ray.data.from_items([])
    return ray.data.from_arrow(pa.table({"id": ["x"], "y": [1]})).map_batches(
        lambda t: pa.table({}), batch_format="pyarrow")


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("empty_right", ["no_blocks", "schemaless_blocks"])
def test_join_semi_anti_empty_right_side(anti, empty_right):
    """An empty right side without column types is a valid filter set:
    semi keeps no row, anti keeps every row."""
    import pyarrow as pa

    from fs_crawler_ray.relops import join

    left = ray.data.from_arrow(pa.table({"k": ["a", "b"]}))
    got = sorted(r["k"] for r in join(left, _empty_right(empty_right), "k", "id",
                                      how="anti" if anti else "semi").take_all())
    assert got == (["a", "b"] if anti else [])


_JOIN_KEY = st.one_of(st.none(), st.sampled_from(KEYS[:3]))


def _rows_and_columns(ds: ray.data.Dataset) -> tuple[list[tuple], list[str] | None]:
    """A join result's rows in output order, and its column list (None
    when no block carries a schema: an all-empty shuffle result)."""
    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_columns]
    cols = [b.column_names for b in blocks]
    assert all(c == cols[0] for c in cols), cols
    return ([tuple(r.values()) for b in blocks for r in b.to_pylist()],
            cols[0] if cols else None)


def _merge_reference(ldf: pd.DataFrame, rdf: pd.DataFrame, on: list[str],
                     right_on: list[str], how: str) -> tuple[list[tuple], list[str]]:
    """pandas merge with the right side's null-key rows removed first:
    a null key then matches nothing, the SQL semantics join keeps."""
    rdf = rdf.dropna(subset=right_on)
    if how in ("semi", "anti"):
        keys = set(rdf[right_on].itertuples(index=False, name=None))
        hit = np.array([k in keys for k in ldf[on].itertuples(index=False, name=None)],
                       dtype=bool)
        out = ldf[hit if how == "semi" else ~hit]
    else:
        if how == "inner":
            # left null keys match nothing here; dropped first, because
            # pandas 2.2's inner merge can break left order when left
            # keys are null (left keys [None] * 4 + ["a", "a"] against
            # right "a" rows 100, 101, 102 came back starting (x=4, 102))
            ldf = ldf.dropna(subset=on)
        out = ldf.merge(rdf, how=how, left_on=on, right_on=right_on).drop(columns=right_on)
    rows = [tuple(None if v is None or (isinstance(v, float) and np.isnan(v)) else v
                  for v in r) for r in out.itertuples(index=False, name=None)]
    return rows, list(out.columns)


@pytest.mark.parametrize("path", ["broadcast", "hash"])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(
    lk=st.lists(st.tuples(_JOIN_KEY, _JOIN_KEY), max_size=10),
    rk=st.lists(st.tuples(_JOIN_KEY, _JOIN_KEY), max_size=8),
    right_kind=st.sampled_from(["rows", "no_blocks", "schemaless_blocks"]),
    how=st.sampled_from(["inner", "left", "semi", "anti"]),
    two_col=st.booleans(),
)
def test_join_matches_pandas_merge(request, path, lk, rk, right_kind, how, two_col):
    """``relops.join`` against pandas merge with null right keys removed,
    for every ``how``: null keys on both sides, duplicate right keys, an
    empty right side (typed, no blocks, schema-less blocks) and a
    two-column key. The broadcast path equals the reference row for row
    and in order; the hash path equals it as a row multiset. Both give
    the reference's column list."""
    import pyarrow as pa

    from fs_crawler_ray.relops import join

    if path == "hash":
        request.getfixturevalue("shuffle_joins")
    left = pa.table({"k1": pa.array([a for a, _ in lk], pa.string()),
                     "k2": pa.array([b for _, b in lk], pa.string()),
                     "x": pa.array(range(len(lk)), pa.int64())})
    rtbl = pa.table({"rk1": pa.array([a for a, _ in rk], pa.string()),
                     "rk2": pa.array([b for _, b in rk], pa.string()),
                     "y": pa.array(range(100, 100 + len(rk)), pa.int64())})
    if right_kind == "rows":
        right = ray.data.from_arrow(rtbl)
    else:
        rtbl = rtbl.slice(0, 0)
        right = _empty_right(right_kind)
    on, right_on = (["k1", "k2"], ["rk1", "rk2"]) if two_col else (["k1"], ["rk1"])
    want, want_cols = _merge_reference(left.to_pandas(), rtbl.to_pandas(), on, right_on, how)
    got, cols = _rows_and_columns(join(ray.data.from_arrow(left), right, on, right_on,
                                       how=how, num_partitions=3, right_schema=rtbl.schema))
    assert cols == want_cols or (cols is None and not got), cols
    if path == "hash":
        got, want = sorted(got, key=repr), sorted(want, key=repr)
    assert got == want, (lk, rk, right_kind, how, two_col)


@pytest.mark.parametrize("path", ["broadcast", "hash"])
def test_join_null_key_never_matches_null_key(request, path):
    """A null left key does not match a null right key (pandas merge
    matches them); a left join keeps the null-key row once, unmatched."""
    import pyarrow as pa

    from fs_crawler_ray.relops import join

    if path == "hash":
        request.getfixturevalue("shuffle_joins")
    left = ray.data.from_arrow(pa.table({"k": pa.array(["a", None], pa.string()),
                                         "x": [0, 1]}))
    right = ray.data.from_arrow(pa.table({"rk": pa.array([None, "a"], pa.string()),
                                          "y": [10, 11]}))

    def rows(how):
        return sorted((tuple(r.values()) for r in join(left, right, "k", "rk", how=how,
                                                         num_partitions=3).take_all()),
                      key=repr)

    assert rows("inner") == [("a", 0, 11)]
    assert rows("left") == sorted([("a", 0, 11), (None, 1, None)], key=repr)
    assert rows("semi") == [("a", 0)]
    assert rows("anti") == [(None, 1)]


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


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    lk=st.lists(st.tuples(st.one_of(st.none(), st.sampled_from(KEYS)),
                          st.one_of(st.none(), st.sampled_from(KEYS))),
                min_size=0, max_size=10),
    rk=st.sets(st.sampled_from(KEYS), max_size=6),
    r_nulls=st.integers(min_value=0, max_value=2),
    how=st.sampled_from(["inner", "left"]),
    broadcast=st.booleans(),
)
def test_unique_lookup_null_keys_never_match(lk, rk, r_nulls, how, broadcast):
    """Two probes (k1, k2) against one unique right side, nulls on both
    sides: a null key matches nothing (SQL semantics, not Arrow's
    null-equals-null default), several right null keys are not
    duplicates, and the broadcast and hash_join paths agree with the
    oracle."""
    from unittest import mock

    import pyarrow as pa

    import fs_crawler_ray.relops as relops

    right_keys = sorted(rk) + [None] * r_nulls
    rmap = {k: 100 + i for i, k in enumerate(right_keys) if k is not None}
    left = pa.table({"k1": pa.array([a for a, _ in lk], pa.string()),
                     "k2": pa.array([b for _, b in lk], pa.string()),
                     "x": pa.array(range(len(lk)), pa.int64())})
    right = pa.table({"id": pa.array(right_keys, pa.string()),
                      "y": pa.array(range(100, 100 + len(right_keys)), pa.int64())})
    want = []
    for x, (a, b) in enumerate(lk):
        y1, y2 = rmap.get(a), rmap.get(b)
        if how == "left" or (y1 is not None and y2 is not None):
            want.append((x, y1, y2))
    limit = relops.BROADCAST_LIMIT if broadcast else 0
    with mock.patch.object(relops, "BROADCAST_LIMIT", limit):
        got = relops.unique_lookup(
            ray.data.from_arrow(left), ray.data.from_arrow(right), ["id"],
            [(["k1"], {"y": "y1"}), (["k2"], {"y": "y2"})], how=how, num_partitions=3,
        ).take_all()
    assert sorted((r["x"], r["y1"], r["y2"]) for r in got) == sorted(want), (lk, right_keys, how)


@pytest.mark.parametrize("broadcast", [True, False])
def test_unique_lookup_duplicate_right_key_raises(broadcast, request):
    """A lookup never multiplies left rows: a right side with a repeated
    key raises on both the broadcast and the hash_join path."""
    import pyarrow as pa

    import fs_crawler_ray.relops as relops

    if not broadcast:
        request.getfixturevalue("shuffle_joins")
    left = ray.data.from_arrow(pa.table({"k": ["a", "b"]}))
    right = ray.data.from_arrow(pa.table({"id": ["a", "a", "b"], "y": [1, 2, 3]}))
    with pytest.raises(Exception, match="not unique"):
        relops.unique_lookup(left, right, ["id"], [(["k"], {"y": "y"})]).take_all()


def test_unique_lookup_two_column_key():
    """A two-column key probes as one key; a null in either part misses."""
    import pyarrow as pa

    from fs_crawler_ray.relops import unique_lookup

    left = ray.data.from_arrow(pa.table({"s": ["a", "a", None, "b"], "d": ["x", "y", "x", "x"],
                                         "i": [0, 1, 2, 3]}))
    right = ray.data.from_arrow(pa.table({"rs": ["a", "a", "b"], "rd": ["x", "y", None],
                                          "v": ["ax", "ay", "bnull"]}))
    got = unique_lookup(left, right, ["rs", "rd"], [(["s", "d"], {"v": "v"})],
                        how="left").take_all()
    assert sorted((r["i"], r["v"]) for r in got) == [(0, "ax"), (1, "ay"), (2, None), (3, None)]


@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("empty_right", ["no_blocks", "schemaless_blocks"])
def test_unique_lookup_empty_right_side(how, empty_right):
    """An empty right side with no column types (no blocks, or only
    schema-less empty blocks) matches nothing: inner keeps no row, left
    keeps every row with a null value."""
    import pyarrow as pa

    from fs_crawler_ray.relops import unique_lookup

    left = ray.data.from_arrow(pa.table({"k": ["a", "b"]}))
    got = unique_lookup(left, _empty_right(empty_right), ["id"], [(["k"], {"y": "y"})], how=how).take_all()
    assert sorted((r["k"], r["y"]) for r in got) == ([] if how == "inner" else
                                                     [("a", None), ("b", None)])
