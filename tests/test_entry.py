"""Replicates the driver's correctness gate locally: every queries()
entry with an oracle_sql() is run at sf0.001 and compared to DuckDB
(row count + column names + order-insensitive values)."""

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import __ray_entry__ as entry_mod

SF = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def _to_df(x) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    if isinstance(x, ray.data.Dataset):
        return x.to_pandas()
    raise TypeError(type(x))


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].round(4)
        elif str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]").astype(str)
        elif df[c].dtype == bool:
            df[c] = df[c].astype(int)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype(np.int64)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def _sqlize(sql: str) -> str:
    """The oracle SQL is written against sf0.01 paths for the driver;
    repoint the corpus parquet paths at the sf0.001 corpus for the
    local gate."""
    from fs_crawler_ray.corpus import corpus_for_sf

    i01 = corpus_for_sf("/root/testdata/sf0.01")
    i001 = corpus_for_sf(SF)
    return sql.replace(i01.documents_path, i001.documents_path).replace(
        i01.relationships_path, i001.relationships_path
    )


def _seedfix(sql: str) -> str:
    from fs_crawler_ray.corpus import corpus_for_sf

    i01 = corpus_for_sf("/root/testdata/sf0.01")
    i001 = corpus_for_sf(SF)
    for s01, s001 in zip(i01.seeds, i001.seeds):
        sql = sql.replace(f"('{s01}'", f"('{s001}'")
    return sql


ALL = entry_mod.queries()
SQLS = entry_mod.oracle_sql()
CHECKED = sorted(set(ALL) & set(SQLS))


@pytest.mark.parametrize("name", CHECKED)
def test_query_matches_oracle(name, ray_session):
    got = _normalize(_to_df(ALL[name](SF)))
    sql = _seedfix(_sqlize(SQLS[name]))
    exp = _normalize(_duck().execute(sql).df())
    assert list(got.columns) == list(exp.columns), (got.columns, exp.columns)
    assert len(got) == len(exp), (name, len(got), len(exp))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, atol=1e-3)


def test_rows_only_queries_run(ray_session):
    for name in sorted(set(ALL) - set(SQLS)):
        out = _to_df(ALL[name](SF))
        assert out is not None and len(out) >= 0, name


def test_entry_smoke(ray_session):
    out = _to_df(entry_mod.entry())
    assert len(out) > 0
    assert "id" in out.columns


def test_crawl_queries_drain_idle_actors(tmp_path, monkeypatch, empty_free_lists):
    """The query session crawls once (the crawl is cached on disk), so
    its crawl leaves no idle state actors behind for the later queries."""
    import functools

    from fs_crawler_ray.corpus import corpus_for_sf
    from fs_crawler_ray.pipelines import crawl_queries
    from fs_crawler_ray.state import resident

    monkeypatch.setattr(crawl_queries, "corpus_for_sf",
                        functools.partial(corpus_for_sf, cache_root=str(tmp_path)))
    _, result = crawl_queries.corpus_and_crawl(SF)
    assert len(result.hops_run) == crawl_queries.CRAWL_HOPS
    assert not any(resident._idle.values())
