"""HyperLogLog sketch: accuracy, merge algebra, and determinism."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from fs_crawler_ray.sketch import (
    hll_distinct, hll_estimate, hll_merge, hll_sketch)


def _ds(vals):
    return ray.data.from_pandas(pd.DataFrame({"k": vals}))


def test_hll_accuracy_within_standard_error():
    """m=4096 → stderr ≈ 1.6%; require 5% (3σ) on a 20k-distinct set."""
    n = 20_000
    vals = [f"user-{i}" for i in range(n)] * 2  # duplicates must not matter
    est = hll_distinct(_ds(vals), "k").to_pandas()["est"][0]
    assert abs(est - n) / n < 0.05, est


def test_hll_small_range_linear_counting_is_exactish():
    est = hll_distinct(_ds([f"u{i}" for i in range(50)]), "k").to_pandas()["est"][0]
    assert abs(est - 50) / 50 < 0.1, est


def test_hll_merge_equals_whole():
    """Sketch union (elementwise max) must equal sketching the union —
    the property that makes HLL a distributed aggregate."""
    a = [f"x{i}" for i in range(5000)]
    b = [f"x{i}" for i in range(2500, 7500)]  # overlapping
    ra = hll_sketch(_ds(a), "k")
    rb = hll_sketch(_ds(b), "k")
    whole = hll_sketch(_ds(a + b), "k")
    assert np.array_equal(hll_merge(ra, rb), whole)
    assert hll_estimate(hll_merge(ra, rb)) == hll_estimate(whole)


def test_hll_int_column_matches_string_cast():
    ints = list(range(1000))
    ri = hll_sketch(_ds(ints), "k")
    rs = hll_sketch(_ds([str(i) for i in ints]), "k")
    assert np.array_equal(ri, rs)  # int→string cast aligns with VARCHAR


def test_hll_deterministic_across_block_splits():
    vals = [f"d{i}" for i in range(3000)]
    one = hll_sketch(ray.data.from_pandas(pd.DataFrame({"k": vals})), "k")
    many = hll_sketch(
        ray.data.from_pandas(pd.DataFrame({"k": vals})).repartition(16), "k")
    assert np.array_equal(one, many)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q"]))


def test_hll_distinct_by_matches_per_group_global():
    """Grouped sketch == running the global sketch on each group's rows
    (multiple keys per shuffle bucket exercised via num_partitions=2)."""
    from fs_crawler_ray.sketch import hll_distinct_by

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c", "d", "e"], size=8000),
        "u": rng.integers(0, 1500, size=8000),
    })
    out = hll_distinct_by(ray.data.from_pandas(df), "u", "g",
                          num_partitions=2).to_pandas().sort_values("g")
    assert list(out["g"]) == ["a", "b", "c", "d", "e"]
    for _, row in out.iterrows():
        sub = df[df["g"] == row["g"]]["u"]
        want = hll_estimate(hll_sketch(_ds(list(sub)), "k"))
        assert row["z_scaled"] == want["z_scaled"], row["g"]
        assert row["est"] == want["est"], row["g"]
        exact = sub.nunique()
        assert abs(row["est"] - exact) / exact < 0.06, (row["g"], row["est"], exact)


def test_kmv_distinct_estimate_accuracy():
    """Saturated bottom-k estimator: rel err ~1/sqrt(k) ≈ 3% at k=1024;
    require 10%. Unsaturated: exact."""
    from fs_crawler_ray.sketch import kmv_estimate_distinct, kmv_sketch

    n = 30_000
    sk = kmv_sketch(_ds([f"v{i}" for i in range(n)]), "k")
    est = kmv_estimate_distinct(sk)
    assert abs(est - n) / n < 0.10, est
    small = kmv_sketch(_ds([f"v{i}" for i in range(200)]), "k")
    assert kmv_estimate_distinct(small) == 200.0


def test_kmv_overlap_jaccard_accuracy():
    """Known 1/3 Jaccard (A=0..2k, B=k..3k): estimate within 0.08."""
    from fs_crawler_ray.sketch import kmv_overlap

    a = [f"u{i}" for i in range(0, 20_000)]
    b = [f"u{i}" for i in range(10_000, 30_000)]
    out = kmv_overlap(_ds(a), _ds(b), "k").to_pandas().iloc[0]
    assert abs(out["jaccard"] - 1 / 3) < 0.08, out["jaccard"]
    assert abs(out["est_distinct_a"] - 20_000) / 20_000 < 0.10
    assert out["n_ref"] == 1024


def test_kmv_sketch_block_split_invariant():
    from fs_crawler_ray.sketch import kmv_sketch

    vals = [f"z{i}" for i in range(5000)]
    one = kmv_sketch(ray.data.from_pandas(pd.DataFrame({"k": vals})), "k")
    many = kmv_sketch(
        ray.data.from_pandas(pd.DataFrame({"k": vals})).repartition(16), "k")
    assert np.array_equal(one, many)


def test_sketches_match_duckdb_replay_with_nulls():
    """Null user ids are skipped (SQL md5_number_lower(NULL) is NULL,
    not the md5 of 'None') and null event types form one NULL group,
    register for register against the DuckDB replays the query registry
    uses."""
    import duckdb
    import pyarrow as pa

    from fs_crawler_ray.pipelines import oracle_sqls as osql
    from fs_crawler_ray.sketch import hll_distinct_by, kmv_overlap

    rng = np.random.default_rng(11)
    n = 12_000
    users = rng.integers(0, 4000, size=n)
    types = rng.choice(["view", "purchase", "click"], size=n).astype(object)
    events = pa.table({
        "user_id": pa.array(users, pa.int64(), mask=rng.random(n) < 0.1),
        "event_type": pa.array(types, pa.string(), mask=rng.random(n) < 0.1),
    })
    con = duckdb.connect()
    con.register("events", events)
    ds = ray.data.from_arrow(events).repartition(4)

    got = hll_distinct(ds, "user_id").to_pandas()
    want = con.execute(osql.EVENTS_HLL_USERS).df()
    assert got.to_dict("records") == want.to_dict("records")

    got = hll_distinct_by(ds, "user_id", "event_type", num_partitions=2).to_pandas()
    want = con.execute(osql.EVENTS_HLL_USERS_BY_TYPE).df()
    assert got["event_type"].isna().sum() == 1  # the NULL group
    key = lambda r: (r["event_type"] is None, r["event_type"] or "")  # noqa: E731
    assert (sorted(got.to_dict("records"), key=key)
            == sorted(want.astype(object).where(want.notna(), None).to_dict("records"),
                      key=key))

    import pyarrow.compute as pc

    def of_type(t):
        return lambda b: b.filter(pc.equal(b["event_type"], t))

    got = kmv_overlap(ds.map_batches(of_type("purchase"), batch_format="pyarrow"),
                      ds.map_batches(of_type("view"), batch_format="pyarrow"),
                      "user_id").to_pandas()
    want = con.execute(osql.EVENTS_KMV_OVERLAP).df()
    assert got.to_dict("records") == want.to_dict("records")
