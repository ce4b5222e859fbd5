import numpy as np
import pytest

from fs_crawler_ray.ids import indices_to_pids
from fs_crawler_ray.state.membership import (
    BloomFilter,
    CuckooFilter,
    MembershipShardState,
    ShardedMembership,
)
from fs_crawler_ray.ids import stable_hash64


def _hashes(keys):
    return stable_hash64(keys, seed=11), stable_hash64(keys, seed=23)


def test_bloom_no_false_negatives():
    keys = indices_to_pids(np.arange(5000))
    other = indices_to_pids(np.arange(5000, 10000))
    b = BloomFilter(capacity=5000, fp_rate=0.01)
    b.add(*_hashes(keys))
    assert b.contains(*_hashes(keys)).all()
    fp = b.contains(*_hashes(other)).mean()
    assert fp < 0.05


def test_cuckoo_membership():
    keys = indices_to_pids(np.arange(4000))
    other = indices_to_pids(np.arange(4000, 8000))
    c = CuckooFilter(capacity=4000)
    h = stable_hash64(keys, seed=11)
    c.add_h(h)
    assert c.contains_h(h).all()
    fp = c.contains_h(stable_hash64(other, seed=11)).mean()
    assert fp < 0.01


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_shard_state_check_and_add(mode):
    s = MembershipShardState(capacity=1 << 12, mode=mode)
    keys = indices_to_pids(np.arange(1000))
    first = s.check_and_add("visited", keys)
    assert not first.any()
    again = s.check_and_add("visited", keys)
    assert again.all()
    assert s.contains("visited", keys).all()
    fresh = indices_to_pids(np.arange(1000, 1400))
    assert not s.contains("visited", fresh).any() or mode == "probabilistic"


def test_overflow_grows_segments_preserves_correctness():
    """A probabilistic set pushed past its cuckoo capacity GROWS (new
    doubled segments, scalable-bloom shape) instead of degrading into
    eviction chains; membership stays correct with no false negatives."""
    s = MembershipShardState(capacity=256, mode="probabilistic")
    keys = indices_to_pids(np.arange(4000))  # 15× capacity
    s.add("visited", keys)
    assert s.contains("visited", keys).all()  # no false negatives, ever
    st = s.stats()["visited"]
    assert st["segments"] > 1            # the overload opened new segments
    assert st["stash"] == 0              # no eviction-storm spill
    # distinct-count estimate stays sane under cross-segment dedup
    assert 3800 <= st["count"] <= 4200
    s.add("visited", keys)               # re-add: idempotent, no drift
    assert 3800 <= s.stats()["visited"]["count"] <= 4200
    # clear() restores ORIGINAL capacity (regression: it used to shrink
    # to the previous count, overflowing the next epoch)
    s.clear("visited")
    s.add("visited", indices_to_pids(np.arange(100)))
    assert s.contains("visited", indices_to_pids(np.arange(100))).all()


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_deferred_add_visible_after_commit(mode, monkeypatch):
    """check_and_add_deferred answers from COMMITTED state only; the
    staged keys become visible at commit(), whose return value and
    stats count are the distinct keys (exact) or within the filters'
    fingerprint-collision band (probabilistic). An exact shard holds no
    filters and never hashes a key."""
    import fs_crawler_ray.state.membership as membership

    if mode == "exact":
        def no_hashing(*a, **k):
            raise AssertionError("exact membership hashed a key")
        monkeypatch.setattr(membership, "stable_hash64", no_hashing)
    s = MembershipShardState(capacity=1 << 12, mode=mode)
    old = indices_to_pids(np.arange(500))
    s.add("edges", old)
    keys = indices_to_pids(np.arange(250, 2250))  # 250 committed, 1750 new
    batch = np.concatenate([keys, keys[:300]])    # a retried slice
    mask = s.check_and_add_deferred("edges", batch)
    assert mask.tolist() == [i < 250 for i in range(2000)] + [True] * 250 + [False] * 50
    # staged keys stay invisible until commit
    assert not s.contains("edges", keys[250:]).any() or mode == "probabilistic"
    n = s.commit("edges")
    assert s.contains("edges", keys).all()
    count = s.stats()["edges"]["count"]
    if mode == "exact":
        assert n == 1750
        assert count == 2250
        assert set(s.stats()["edges"]) == {"mode", "count"}
    else:
        assert 0.95 * 1750 <= n <= 1.05 * 1750
        assert 0.95 * 2250 <= count <= 1.05 * 2250
    assert s.commit("edges") == 0  # nothing staged since


def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="unknown membership mode"):
        MembershipShardState(mode="exakt")


def test_shard_state_in_batch_duplicates():
    s = MembershipShardState(mode="exact")
    keys = np.array(["AAAA-001", "AAAA-002", "AAAA-001", "AAAA-003", "AAAA-002"])
    present = s.check_and_add("x", keys)
    assert present.tolist() == [False, False, True, False, True]


def test_shard_state_multiple_sets_and_contains_any():
    s = MembershipShardState(mode="exact")
    s.add("visited", np.array(["AAAA-001"]))
    s.add("processing", np.array(["AAAA-002"]))
    m = s.contains_any(["visited", "processing"], np.array(["AAAA-001", "AAAA-002", "AAAA-003"]))
    assert m.tolist() == [True, True, False]
    s.clear("processing")
    assert not s.contains("processing", np.array(["AAAA-002"]))[0]


def test_sharded_membership_actors(ray_session):
    sm = ShardedMembership.create(num_shards=4, mode="exact")
    keys = indices_to_pids(np.arange(2000))
    assert not sm.check_and_add("visited", keys).any()
    assert sm.check_and_add("visited", keys).all()
    mixed = indices_to_pids(np.array([5, 10, 9999, 3000]))
    assert sm.contains("visited", mixed).tolist() == [True, True, False, False]
    stats = sm.stats()
    assert len(stats) == 4
    assert sum(st["visited"]["count"] for st in stats) == 2000
    sm.clear("visited")
    assert not sm.contains("visited", keys[:10]).any()


def test_mixed_range_hash_names_raises():
    """_route must refuse a call mixing range-routed and hash-routed
    filter names instead of silently hash-routing range-added keys onto
    the wrong shards (ADVICE r4)."""
    import numpy as np
    import pytest

    from fs_crawler_ray.state.membership import ShardedMembership

    sm = ShardedMembership.create(
        num_shards=2, capacity_per_shard=1024, mode="exact",
        boundaries=np.array([b"M"]), range_names=("visited",))
    sm.add("visited", np.array(["A", "Z"]))
    sm.add("edges", np.array(["A"]))
    # single-name calls route fine
    assert sm.contains("visited", np.array(["A"])).tolist() == [True]
    with pytest.raises(ValueError, match="mixes range-routed"):
        sm.contains_any(["visited", "edges"], np.array(["A"]))
    for a in sm.actors:
        import ray
        ray.kill(a)
