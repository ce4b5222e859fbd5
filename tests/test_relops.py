import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from fs_crawler_ray.relops import (
    dedup_keep_first,
    distinct,
    even_cuts,
    hash_buckets,
    join,
    shuffle_apply,
    thin_boundaries,
)


def _ds(df):
    return ray.data.from_arrow(pa.Table.from_pandas(df, preserve_index=False))


def test_dedup_keep_first_deterministic():
    rng = np.random.RandomState(0)
    n = 5000
    df = pd.DataFrame({
        "k": rng.randint(0, 300, n),          # hot keys included
        "o1": rng.randint(0, 10, n),
        "o2": np.arange(n),
        "v": rng.rand(n),
    })
    out = dedup_keep_first(_ds(df), ["k"], ["o1", "o2"], num_buckets=8).to_pandas()
    exp = df.sort_values(["o1", "o2"]).drop_duplicates("k", keep="first")
    got = out.sort_values("k").reset_index(drop=True)
    exp = exp.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp[got.columns], check_dtype=False)


def test_distinct_representative_is_min_row():
    df = pd.DataFrame({"k": [1, 1, 2, 2, 2], "p": [5, 3, 9, 1, 4]})
    out = distinct(_ds(df), ["k"], num_buckets=4).to_pandas().sort_values("k")
    assert out["p"].tolist() == [3, 1]  # smallest full row per key


def test_join_semi_anti_broadcast():
    left = _ds(pd.DataFrame({"a": [1, 2, 3, 4, 5]}))
    right = _ds(pd.DataFrame({"b": [2, 4]}))
    semi = join(left, right, "a", "b", how="semi").to_pandas()
    anti = join(left, right, "a", "b", how="anti").to_pandas()
    assert sorted(semi["a"]) == [2, 4]
    assert sorted(anti["a"]) == [1, 3, 5]


def test_join_semi_anti_empty_right():
    left = _ds(pd.DataFrame({"a": [1, 2]}))
    right = _ds(pd.DataFrame({"b": pd.Series(dtype=np.int64)}))
    assert join(left, right, "a", "b", how="anti").count() == 2
    assert join(left, right, "a", "b", how="semi").count() == 0


def test_join_inner_and_left():
    left = _ds(pd.DataFrame({"a": [1, 2, 3], "x": ["p", "q", "r"]}))
    right = _ds(pd.DataFrame({"b": [1, 3], "y": ["Y1", "Y3"]}))
    inner = join(left, right, "a", "b", how="inner").to_pandas().sort_values("a")
    assert inner["y"].tolist() == ["Y1", "Y3"]
    left_j = join(left, right, "a", "b", how="left").to_pandas().sort_values("a")
    assert left_j["y"].fillna("-").tolist() == ["Y1", "-", "Y3"]


def test_distinct_range_boundaries_balanced_and_exact(tmp_path):
    """Dense sequential ids (all sharing a '00..' prefix) must spread
    across range buckets when sampled boundaries are supplied — the
    prefix fallback degenerates to one bucket — and distinct over them
    stays exact."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.ids import indices_to_pids, range_bucket_of
    from fs_crawler_ray.sources.doc_table import corpus_range_boundaries

    ids = indices_to_pids(np.arange(20_000))
    corpus = pa.table({"doc_id": pa.array(np.sort(ids))})
    path = str(tmp_path / "docs.parquet")
    pq.write_table(corpus, path, row_group_size=1000)

    bounds = corpus_range_boundaries(path, "doc_id", 8)
    assert 1 <= len(bounds) <= 7
    buckets = range_bucket_of(ids, 8, boundaries=bounds)
    counts = np.bincount(buckets)
    assert (counts > 0).sum() >= 4, counts            # spread, not serialized
    assert counts.max() <= 2 * counts[counts > 0].min()  # roughly balanced
    # fallback (no boundaries) degenerates for this id population
    assert (np.bincount(range_bucket_of(ids, 8)) > 0).sum() == 1

    rng = np.random.RandomState(1)
    mentions = rng.choice(ids, 60_000)                # duplicated candidates
    df = pd.DataFrame({"cand_id": mentions, "priority": np.int64(1)})
    out = distinct(_ds(df), ["cand_id"], 8).to_pandas()
    assert sorted(out["cand_id"]) == sorted(set(mentions))


def test_full_outer_daily_balance_zero_fills(tmp_path):
    """Days present on only one side must survive the full_outer join
    with the other side's count zero-filled."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.pipelines.relational import q_events_daily_type_balance

    t = pa.table({
        "event_id": pa.array(range(5), pa.int64()),
        "ts": pa.array(
            [pd.Timestamp(d) for d in
             ["2024-01-01 01:00", "2024-01-01 02:00",   # purchases only
              "2024-01-02 03:00",                        # error only
              "2024-01-03 04:00", "2024-01-03 05:00"]],  # one of each
            pa.timestamp("us")),
        "user_id": pa.array([1] * 5, pa.int64()),
        "event_type": pa.array(
            ["purchase", "purchase", "error", "purchase", "error"]),
        "value": pa.array([1.0] * 5),
        "props": pa.array(['{"k": 1}'] * 5),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    out = q_events_daily_type_balance(str(tmp_path))
    assert out["day"].dt.day.tolist() == [1, 2, 3]
    assert out["n_purchases"].tolist() == [2, 0, 1]
    assert out["n_errors"].tolist() == [0, 1, 1]


def test_hash_join_all_types_survive_one_sided_partitions():
    """Three keys over 8 buckets guarantees one-sided shuffle
    partitions — the case where Ray's Dataset.join aggregator raises
    KeyError on a zero-column empty side (ray 2.49 join.py:118)."""
    from fs_crawler_ray.relops import hash_join

    left = _ds(pd.DataFrame({"k": [1, 2, 3], "lv": [10, 20, 30]}))
    right = _ds(pd.DataFrame({"rk": [2, 3, 4], "rv": [200, 300, 400]}))

    def run(how):
        out = hash_join(left, right, on=["k"], right_on=["rk"], how=how,
                        num_buckets=8).to_pandas().sort_values("k")
        return out.reset_index(drop=True)

    inner = run("inner")
    assert inner["k"].tolist() == [2, 3]
    assert inner["rv"].tolist() == [200, 300]

    lo = run("left_outer")
    assert lo["k"].tolist() == [1, 2, 3]
    assert lo["rv"].fillna(-1).tolist() == [-1, 200, 300]

    ro = run("right_outer")
    assert sorted(ro["k"].tolist()) == [2, 3, 4]       # coalesced key
    assert ro.set_index("k")["rv"].to_dict() == {2: 200, 3: 300, 4: 400}

    fo = run("full_outer")
    assert sorted(fo["k"].tolist()) == [1, 2, 3, 4]
    assert fo.set_index("k")["lv"].fillna(-1).to_dict() == {1: 10, 2: 20, 3: 30, 4: -1}


def test_hash_join_rejects_overlapping_payload_columns():
    from fs_crawler_ray.relops import hash_join

    left = _ds(pd.DataFrame({"k": [1], "v": [1]}))
    right = _ds(pd.DataFrame({"k": [1], "v": [2]}))
    import pytest
    with pytest.raises(ValueError, match="disjoint"):
        hash_join(left, right, on=["k"], how="inner")


def test_hash_join_null_keys_follow_sql_semantics():
    """NULL keys never match (SQL three-valued equality) but outer
    joins still keep the null-key rows with a null other side."""
    from fs_crawler_ray.relops import hash_join

    left = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, None, 3], pa.int64()), "lv": [10, 20, 30]}))
    right = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, None], pa.int64()), "rv": [100, 200]}))

    inner = hash_join(left, right, on=["k"], how="inner", num_buckets=4).to_pandas()
    assert inner.to_dict("records") == [{"k": 1, "lv": 10, "rv": 100}]

    fo = hash_join(left, right, on=["k"], how="full_outer", num_buckets=4).to_pandas()
    assert len(fo) == 4  # 1-match + left null + left 3 + right null
    assert fo["lv"].notna().sum() == 3 and fo["rv"].notna().sum() == 2


def test_hash_join_semi_anti():
    from fs_crawler_ray.relops import hash_join

    left = _ds(pd.DataFrame({"k": [1, 2, 3, 4], "lv": [10, 20, 30, 40]}))
    right = _ds(pd.DataFrame({"rk": [2, 4, 9], "junk": ["a", "b", "c"]}))

    semi = hash_join(left, right, on=["k"], right_on=["rk"], how="left_semi",
                     num_buckets=8).to_pandas().sort_values("k")
    assert semi["k"].tolist() == [2, 4]
    assert list(semi.columns) == ["k", "lv"]  # right payload dropped

    anti = hash_join(left, right, on=["k"], right_on=["rk"], how="left_anti",
                     num_buckets=8).to_pandas().sort_values("k")
    assert anti["k"].tolist() == [1, 3]


def test_hash_join_rejects_right_payload_named_like_left_key():
    from fs_crawler_ray.relops import hash_join

    left = _ds(pd.DataFrame({"k": [1], "x": [1]}))
    right = _ds(pd.DataFrame({"rk": [1], "k": [9]}))  # payload shadows left key
    import pytest
    with pytest.raises(ValueError, match="disjoint"):
        hash_join(left, right, on=["k"], right_on=["rk"], how="inner")


def test_hash_join_rejects_wrong_schema_hint():
    from fs_crawler_ray.relops import hash_join

    left = _ds(pd.DataFrame({"k": [1], "lv": [1]}))
    right = _ds(pd.DataFrame({"rk": [1], "rv": [2]}))
    import pytest
    bad = pa.schema([("rk", pa.int64()), ("rv_typo", pa.int64())])
    with pytest.raises(Exception, match="not in the declared schema"):
        hash_join(left, right, on=["k"], right_on=["rk"], how="inner",
                  right_schema=bad).to_pandas()


def test_join_semi_anti_hash_path_matches_broadcast(request):
    """With BROADCAST_LIMIT at 0 a semi/anti join takes its bucketed
    hash_join path (the >2M-key scale path): it must agree exactly with
    the broadcast path, for semi AND anti, including a one-sided bucket
    (keys the left never has)."""
    left = ray.data.from_pandas(pd.DataFrame(
        {"a": [f"k{i}" for i in range(40)], "v": list(range(40))}))
    right = ray.data.from_pandas(pd.DataFrame(
        {"b": [f"k{i}" for i in range(0, 60, 3)]}))  # some keys not in left
    want_semi = sorted(join(left, right, "a", "b", how="semi").to_pandas()["a"])
    want_anti = sorted(join(left, right, "a", "b", how="anti").to_pandas()["a"])
    request.getfixturevalue("shuffle_joins")
    got_semi = sorted(join(left, right, "a", "b", how="semi").to_pandas()["a"])
    got_anti = sorted(join(left, right, "a", "b", how="anti").to_pandas()["a"])
    assert got_semi == want_semi and len(want_semi) == 14
    assert got_anti == want_anti and len(want_anti) == 26


@pytest.mark.parametrize("how,executions", [("inner", 1), ("left", 1), ("semi", 2), ("anti", 2)])
def test_hash_join_runs_no_plan_for_schemas(tmp_path, shuffle_joins, count_executions,
                                             how, executions):
    """On the hash path a join over a ``read_parts`` left side learns both
    sides' schemas from their plans: the join runs once, and a semi/anti
    join once more only to materialize its key-only right side."""
    import pyarrow.parquet as pq

    from fs_crawler_ray.sources import storage as st

    files = []
    for i in range(3):
        files.append(str(tmp_path / f"part-{i}.parquet"))
        pq.write_table(pa.table({"k": list(range(10 * i, 10 * i + 10)),
                                 "v": [f"v{j}" for j in range(10)]}), files[-1])
    right = ray.data.from_arrow(pa.table({"rk": list(range(0, 30, 3)), "w": list(range(10))}))
    out = join(st.read_parts(files, num_blocks=2), right, "k", "rk", how=how)
    assert out.count() == {"inner": 10, "left": 30, "semi": 10, "anti": 20}[how]
    assert len(count_executions) == executions


def test_hash_buckets_pins_bucket_ids():
    # the hop shuffle and every bucketed join and dedup route rows by
    # these ids (and so decide which checkpoint part a row lands in):
    # pin them so a change to the mix is a deliberate one
    src = pa.array(["KWCB-1AA", "L2Q4-XYZ", "", "KWCB-1AA", "ZZZZ-999"])
    dst = pa.array([3, 1, 4, 1, 5], pa.int64())
    assert hash_buckets([src], 64).tolist() == [61, 15, 41, 61, 54]
    assert hash_buckets([src, dst], 1000).tolist() == [644, 464, 806, 510, 825]
    assert hash_buckets([pa.chunked_array([src[:2], src[2:]])], 64).tolist() == [
        61, 15, 41, 61, 54]


def test_thin_boundaries_keeps_every_nth_cut():
    cuts = np.arange(63)  # 64 sampled ranges
    assert thin_boundaries(cuts, 8).tolist() == [7, 15, 23, 31, 39, 47, 55]
    assert thin_boundaries(cuts, 64) is cuts
    assert thin_boundaries(cuts, 0) is cuts
    assert thin_boundaries(None, 8) is None


def _bucket_summary():
    """A per-bucket function returning one row per call: the bucket it
    saw, its rows, its distinct bucket ids and its columns. (A closure:
    Ray workers cannot import a test module's top-level functions.)"""

    def summary(t: pa.Table) -> pa.Table:
        return pa.table({"bucket": [t["b"][0].as_py()], "rows": [len(t)],
                         "buckets_seen": [len(set(t["b"].to_pylist()))],
                         "cols": [",".join(t.column_names)]})

    return summary


def _assert_exchange_tasks(remote_tasks, blocks: int, parts: int) -> None:
    """The exchange's own tasks: one split per input block (none with
    one partition), one reducer per partition, and none of Ray's sort
    tasks (no map, reduce or sampled boundary)."""
    assert remote_tasks["_exchange_reduce"] == parts
    assert remote_tasks["_exchange_split"] == (blocks if parts > 1 else 0)
    assert remote_tasks["map"] == remote_tasks["reduce"] == remote_tasks["_sample_block"] == 0


@pytest.mark.parametrize("blocks", [1, 4])
def test_shuffle_apply_calls_fn_once_per_bucket(blocks, remote_tasks):
    """Bucket 0 has rows in every input block; buckets 5-7 have none.
    Each non-empty bucket reaches ``fn`` whole, in one call, over
    ``min(num_buckets, blocks)`` reducers and no sampled boundary."""
    b = np.array([0, 1, 2, 3, 4] * 8)
    t = pa.table({"b": b, "v": np.arange(len(b))})
    n = len(t) // blocks
    ds = ray.data.from_arrow([t.slice(i * n, n) for i in range(blocks)])
    remote_tasks.clear()
    out = shuffle_apply(ds, _bucket_summary(), bucket="b", num_buckets=8).to_pandas()
    assert sorted(out["bucket"]) == [0, 1, 2, 3, 4]  # one call per bucket
    assert set(out["rows"]) == {8} and set(out["buckets_seen"]) == {1}
    assert set(out["cols"]) == {"b,v"}  # the caller's column stays
    _assert_exchange_tasks(remote_tasks, blocks, min(8, blocks))


@pytest.mark.parametrize("blocks", [1, 4])
def test_shuffle_apply_key_cols_meets_keys_and_drops_bucket(blocks, remote_tasks):
    keys = np.arange(40) % 10
    t = pa.table({"k": keys, "v": np.arange(40)})
    ds = ray.data.from_arrow([t.slice(i * (40 // blocks), 40 // blocks) for i in range(blocks)])
    remote_tasks.clear()

    def per_bucket(g: pa.Table) -> pa.Table:
        assert g.column_names == ["k", "v"]
        res = g.group_by("k").aggregate([("v", "count")])
        return res.append_column("calls", pa.array([1] * len(res)))

    out = shuffle_apply(ds, per_bucket, key_cols=["k"], num_buckets=8).to_pandas()
    assert sorted(out["k"]) == list(range(10))  # every key met all its rows
    assert set(out["v_count"]) == {4}
    _assert_exchange_tasks(remote_tasks, blocks, min(8, blocks))


@pytest.mark.parametrize("blocks", [1, 4])
def test_shuffle_apply_keeps_buckets_whole_across_block_cuts(blocks):
    """Ray's output buffer cuts a map step's output block above 1.5 ×
    ``target_max_block_size`` into pieces. At a few KB, a partition of
    320 KB must still reach ``fn`` one whole bucket per call."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = ctx.target_max_block_size
    ctx.target_max_block_size = 8 * 1024
    try:
        b = np.random.RandomState(0).permutation(np.arange(20_000) % 8)
        t = pa.table({"b": b, "v": np.arange(len(b))})
        n = len(t) // blocks
        ds = ray.data.from_arrow([t.slice(i * n, n) for i in range(blocks)])
        out = shuffle_apply(ds, _bucket_summary(), bucket="b", num_buckets=8).to_pandas()
    finally:
        ctx.target_max_block_size = before
    assert sorted(out["bucket"]) == list(range(8))  # one call per bucket
    assert set(out["rows"]) == {2_500}


def test_shuffle_apply_many_small_blocks_call_fn_once_per_bucket(remote_tasks):
    """P > 1 over many input blocks, cut further by a tiny
    ``target_max_block_size`` in the map step before the shuffle: each
    bucket still reaches ``fn`` exactly once, whole, and the exchange
    splits every non-empty block once."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = ctx.target_max_block_size
    ctx.target_max_block_size = 4 * 1024
    try:
        b = np.random.RandomState(1).permutation(np.arange(16_000) % 8)
        t = pa.table({"b": b, "v": np.arange(len(b))})
        ds = ray.data.from_arrow([t.slice(i * 1_000, 1_000) for i in range(16)]).map_batches(
            lambda x: x, batch_format="pyarrow", batch_size=100)
        remote_tasks.clear()
        out = shuffle_apply(ds, _bucket_summary(), bucket="b", num_buckets=8).to_pandas()
    finally:
        ctx.target_max_block_size = before
    assert sorted(out["bucket"]) == list(range(8))  # one call per bucket
    assert set(out["rows"]) == {2_000} and set(out["buckets_seen"]) == {1}
    assert remote_tasks["_exchange_reduce"] == 8
    assert remote_tasks["_exchange_split"] > 16  # the map step cut its blocks
    assert remote_tasks["map"] == remote_tasks["reduce"] == remote_tasks["_sample_block"] == 0


@pytest.mark.parametrize("blocks", [1, 3])
def test_shuffle_apply_empty_input(blocks):
    empty = pa.table({"b": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    ds = ray.data.from_arrow([empty] * blocks)
    assert shuffle_apply(ds, _bucket_summary(), bucket="b", num_buckets=8).take_all() == []
    assert shuffle_apply(ds, _bucket_summary(), key_cols=["v"], num_buckets=8).take_all() == []


def test_exchange_reduce_joins_outputs_with_schema_metadata(caplog):
    """Two buckets in one partition whose ``fn`` returns tables carrying
    schema metadata (a dict, so the schema does not hash): the reducer
    joins them without Ray's schema-unification warning, keeps every
    row and the first output's metadata."""
    import logging

    from fs_crawler_ray.relops import _exchange_reduce

    def fn(t: pa.Table) -> pa.Table:
        b = t["b"][0].as_py()
        return t.replace_schema_metadata({"bucket": str(b)})

    piece = pa.table({"b": [3, 1, 3, 1], "v": [10, 11, 12, 13]})
    caplog.set_level(logging.WARNING, logger="ray.data")
    logger = logging.getLogger("ray.data")  # does not propagate to the root logger
    logger.addHandler(caplog.handler)
    try:
        block, meta = _exchange_reduce._function(fn, "b", False, piece, piece.slice(0, 1))
    finally:
        logger.removeHandler(caplog.handler)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert sorted(zip(block["b"].to_pylist(), block["v"].to_pylist())) == [
        (1, 11), (1, 13), (3, 10), (3, 10), (3, 12)]
    assert block.schema.metadata == {b"bucket": b"1"}
    assert meta.metadata.num_rows == 5


def test_shuffle_apply_takes_one_bucket_mode():
    ds = ray.data.from_arrow(pa.table({"b": [0]}))
    with pytest.raises(ValueError):
        shuffle_apply(ds, _bucket_summary(), num_buckets=2)
    with pytest.raises(ValueError):
        shuffle_apply(ds, _bucket_summary(), key_cols=["b"], bucket="b", num_buckets=2)


def test_even_cuts_split_the_range_evenly():
    assert even_cuts(4, 8) == [2, 4, 6]
    assert even_cuts(3, 10) == [3, 6]
    assert even_cuts(1, 8) == []
    assert all(type(c) is int for c in even_cuts(4, np.int64(8)))


def test_no_bucket_shuffle_outside_relops():
    """``relops.shuffle_apply`` is the one bucketed shuffle: no other
    package module groups by a bucket or imports the bucket helpers."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "fs_crawler_ray"
    banned = re.compile(r"\.map_groups\(|groupby\(\s*[\"']__bucket|_add_bucket|_BUCKET_COL")
    hits = [f"{f.relative_to(pkg)}:{i}"
            for f in sorted(pkg.rglob("*.py")) if f.name != "relops.py" or f.parent != pkg
            for i, line in enumerate(f.read_text().splitlines(), 1) if banned.search(line)]
    assert hits == []
