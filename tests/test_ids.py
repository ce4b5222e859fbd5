import numpy as np
import pyarrow as pa
import pytest

from fs_crawler_ray.ids import (
    index_to_pid,
    indices_to_pids,
    is_valid_pid,
    pid_to_index,
    range_bucket_of,
    shard_of,
    stable_hash64,
)


def test_pid_roundtrip():
    for i in [0, 1, 35, 36, 12345, 36**7 - 1]:
        pid = index_to_pid(i)
        assert is_valid_pid(pid), pid
        assert pid_to_index(pid) == i


def test_pid_order_preserving():
    pids = [index_to_pid(i) for i in range(1000)]
    assert pids == sorted(pids)


def test_vectorized_pids_match_scalar():
    idx = np.array([0, 5, 99, 5000, 123456])
    vec = indices_to_pids(idx)
    assert list(vec) == [index_to_pid(int(i)) for i in idx]


def test_stable_hash_deterministic_and_spread():
    ids = indices_to_pids(np.arange(5000))
    h1 = stable_hash64(ids)
    h2 = stable_hash64(ids)
    assert (h1 == h2).all()
    assert len(np.unique(h1)) == len(ids)  # no collisions at this scale
    assert (stable_hash64(ids, seed=1) != h1).any()
    shards = shard_of(ids, 16)
    counts = np.bincount(shards, minlength=16)
    assert counts.min() > len(ids) / 16 * 0.7  # balanced partitioning


def test_hash_handles_arbitrary_strings():
    h = stable_hash64(np.array(["", "a", "ab", "longer-string-here"]))
    assert len(np.unique(h[1:])) == 3


@pytest.mark.parametrize("keys", [np.array([], "S8"), np.array([], "U8"),
                                  pa.array([], pa.string()), pa.chunked_array([], pa.string())],
                         ids=["S8", "U8", "arrow", "chunked"])
@pytest.mark.parametrize("boundaries", [None, np.array([b"5000-000"])], ids=["prefix", "cuts"])
def test_range_bucket_of_no_keys(keys, boundaries):
    out = range_bucket_of(keys, 8, boundaries=boundaries)
    assert out.dtype == np.int64 and len(out) == 0
