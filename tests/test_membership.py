import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from fs_crawler_ray.ids import as_key_array, indices_to_pids
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
    # pushed far past its slots, the eviction walks fill the table and
    # what they cannot place goes to the stash: still no false negatives
    full = CuckooFilter(capacity=1000)
    full.add_h(h)
    assert full.contains_h(h).all()
    assert full.stash


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


def test_filters_are_sized_to_their_contents():
    """A set starts at ``min(capacity, 1 << 16)`` keys whatever the
    shard's capacity, grows past that with no false negatives, and a
    staged epoch starts small the same way."""
    first = 1 << 16
    small = 1 << 20  # filter bytes of a 64k-key segment are well below this
    s = MembershipShardState(capacity=1 << 21, mode="probabilistic")
    s.add("visited", indices_to_pids(np.arange(2000)))
    st = s.stats()["visited"]
    assert st["segments"] == 1 and st["bytes"] < small
    keys = indices_to_pids(np.arange(2 * first))  # past the power-of-two rounding
    s.add("visited", keys)
    st = s.stats()["visited"]
    assert st["segments"] > 1
    assert s.contains("visited", keys).all()  # no false negatives
    assert st["bytes"] < 8 * small            # the parent sized one segment at ~12 MB
    s.add("edges", indices_to_pids(np.arange(10)))
    s.check_and_add_deferred("edges", indices_to_pids(np.arange(5, 2000)))
    assert s.commit("edges") > 1900
    st = s.stats()["edges"]
    assert st["segments"] == 2 and st["bytes"] < 2 * small  # the epoch's segment is small too
    assert s.contains("edges", indices_to_pids(np.arange(2000))).all()


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
@pytest.mark.parametrize("ids", [["0000-08A", "0000-09B", "0000-10C"],
                                 ["Ä000-08A", "Ä000-09B", "Ä000-10C"]])
def test_key_form_does_not_matter(mode, ids):
    """A key registered from an Arrow column (``as_key_array``'s ``S``
    bytes view) is found when probed as ``<U`` str (a Python list), and
    the reverse, ASCII or not."""
    arrow_keys = as_key_array(pa.array(ids))
    list_keys = as_key_array(ids)
    assert arrow_keys.dtype.kind == "S" and list_keys.dtype.kind == "U"
    for reg, probe in ((arrow_keys, list_keys), (list_keys, arrow_keys)):
        s = MembershipShardState(capacity=1 << 12, mode=mode)
        s.add("visited", reg)
        assert s.contains("visited", probe).all()
        assert s.check_and_add("visited", probe).all()
        assert s.check_and_add_deferred("visited", probe).all()
        assert s.stats()["visited"]["count"] == len(ids)


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


def test_shard_state_named_sets_are_independent():
    s = MembershipShardState(mode="exact")
    s.add("visited", np.array(["AAAA-001"]))
    s.add("edges", np.array(["AAAA-002"]))
    keys = np.array(["AAAA-001", "AAAA-002", "AAAA-003"])
    assert s.contains("visited", keys).tolist() == [True, False, False]
    assert s.contains("edges", keys).tolist() == [False, True, False]


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
    sm.reset()
    assert sm.stats() == [{}] * 4
    assert not sm.contains("visited", keys[:10]).any()
    # routing sees one key form too: bytes from Arrow, str from a list
    ids = ["Ä000-08A", "Ä000-09B", "Ä000-10C"]
    sm.add("visited", as_key_array(pa.array(ids)))
    assert sm.contains("visited", ids).all()


def test_end_hop_commits_then_reports(ray_session):
    """``end_hop`` commits the named set, then returns what ``stats()``
    returns after a commit and the host calls served since the last
    ``end_hop``, whose counts then start again at zero."""
    sm = ShardedMembership.create(num_shards=4, mode="exact")
    try:
        keys = indices_to_pids(np.arange(300))
        sm.add("visited", keys)
        assert not sm.check_and_add_deferred("edges", keys[:100]).any()
        sm.contains("visited", keys[:50])
        stats, rpcs = sm.end_hop("edges")
        assert stats == sm.stats()
        assert sum(s["edges"]["count"] for s in stats) == 100  # committed
        hosts = len(sm.actors)
        assert {m: {n: c["keys"] for n, c in by.items()} for m, by in rpcs.items()} == {
            "add": {"visited": 300}, "check_and_add_deferred": {"edges": 100},
            "contains": {"visited": 50}}
        assert all(0 < c["calls"] <= hosts for by in rpcs.values() for c in by.values())
        assert sm.end_hop("edges") == (stats, {})
    finally:
        sm.release()


@pytest.mark.parametrize("mode", ["exact", "probabilistic"])
def test_reset_equals_fresh_state(mode):
    """reset(capacity, mode) leaves a shard indistinguishable from a new
    MembershipShardState(capacity, mode), whatever it held before."""
    other = "probabilistic" if mode == "exact" else "exact"
    s = MembershipShardState(capacity=1024, mode=other)
    keys = indices_to_pids(np.arange(500))
    s.add("visited", keys)
    s.check_and_add_deferred("edges", keys)  # a staged, uncommitted epoch
    s.reset(4096, mode)
    assert s.stats() == {}
    assert s.commit("edges") == 0  # the staged epoch is gone
    assert not s.contains("visited", keys).any()
    assert not s.check_and_add("visited", keys).any()
    assert s.stats()["visited"]["mode"] == mode
    assert s.capacity == 4096
    with pytest.raises(ValueError, match="unknown membership mode"):
        s.reset(4096, "fuzzy")


def test_released_shards_are_reused_empty(empty_free_lists):
    """create() takes released shards first; each is reset before use,
    so its stats() are empty on acquire."""
    import ray

    sm = ShardedMembership.create(num_shards=3, capacity_per_shard=1024, mode="exact")
    assert sm.reused == 0
    sm.add("visited", indices_to_pids(np.arange(300)))
    sm.check_and_add_deferred("edges", indices_to_pids(np.arange(50)))
    sm.release()
    again = ShardedMembership.create(num_shards=3, capacity_per_shard=1024, mode="probabilistic")
    assert again.reused == 2  # both hosts of the 4-CPU test cluster
    assert {a._actor_id for a in again.actors} == {a._actor_id for a in sm.actors}
    assert again.stats() == [{}, {}, {}]
    assert again.commit("edges") == 0
    keys = indices_to_pids(np.arange(300))
    assert not again.check_and_add("visited", keys).any()
    assert again.stats()[0]["visited"]["mode"] == "probabilistic"
    for a in again.actors:
        ray.kill(a)


def test_dead_idle_shard_is_replaced(empty_free_lists, kill_shard):
    import ray

    sm = ShardedMembership.create(num_shards=2, capacity_per_shard=1024, mode="exact")
    sm.stats()
    sm.release()
    kill_shard(sm.actors[0])  # dies while idle
    again = ShardedMembership.create(num_shards=2, capacity_per_shard=1024, mode="exact")
    assert again.reused == 1
    assert sm.actors[0]._actor_id not in {a._actor_id for a in again.actors}
    keys = indices_to_pids(np.arange(100))
    assert not again.check_and_add("visited", keys).any()
    assert again.contains("visited", keys).all()
    for a in again.actors:
        ray.kill(a)


def test_free_list_is_bounded(empty_free_lists):
    """The free-list holds at most the largest set one release returned."""
    from fs_crawler_ray.state import resident

    a = ShardedMembership.create(num_shards=2, capacity_per_shard=1024, mode="exact")
    b = ShardedMembership.create(num_shards=3, capacity_per_shard=1024, mode="exact")
    a.release()
    b.release()
    assert len(resident._free_list("MembershipShard")) == 2  # hosts, not shards


def test_free_list_is_per_session(empty_free_lists, monkeypatch):
    """Idle actors of an earlier Ray session are never handed out: the
    free-list starts empty when the session (node id, job id) changes."""
    import ray

    from fs_crawler_ray.state import resident

    sm = ShardedMembership.create(num_shards=1, capacity_per_shard=1024, mode="exact")
    sm.release()
    assert len(resident._free_list("MembershipShard")) == 1
    ray.kill(sm.actors[0])
    monkeypatch.setattr(resident, "_session", ("an-earlier-node", "01000000"))
    fresh = ShardedMembership.create(num_shards=1, capacity_per_shard=1024, mode="exact")
    assert fresh.reused == 0
    ray.kill(fresh.actors[0])


def test_create_without_ray_init_starts_ray():
    """A library caller that never called ray.init(): create() starts
    Ray, as the first ``.remote()`` call does, and the free-list works
    in the session it started."""
    code = (
        "import ray\n"
        "from fs_crawler_ray.state.membership import ShardedMembership\n"
        "sm = ShardedMembership.create(num_shards=2, capacity_per_shard=1024)\n"
        "assert ray.is_initialized() and sm.reused == 0\n"
        "assert sm.stats() == [{}, {}]\n"
        "sm.release()\n"
        "again = ShardedMembership.create(num_shards=2, capacity_per_shard=1024)\n"
        "assert again.reused == 2\n"
        "ray.shutdown()\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]


# ----------------------------------------------------------------------
# shard hosts: several shards per actor process
# ----------------------------------------------------------------------
def test_host_count_follows_cluster_cpus(ray_session):
    """One host per two CPUs of the (4-CPU) test cluster, at most one
    per shard; every host serves a contiguous, non-empty shard block."""
    from fs_crawler_ray.state.membership import host_count

    assert [host_count(k) for k in (1, 2, 3, 8)] == [1, 2, 2, 2]
    sm = ShardedMembership.create(num_shards=8, capacity_per_shard=1024, mode="exact")
    assert len(sm.actors) == 2 and sm.first.tolist() == [0, 4, 8]
    sm.release()


_PIDS = indices_to_pids(np.arange(48))


def _op():
    from hypothesis import strategies as hst

    idx = hst.lists(hst.integers(0, len(_PIDS) - 1), max_size=24)
    # one range-routed name, one hash-routed
    name = hst.sampled_from(("visited", "edges"))
    return hst.one_of(
        hst.tuples(hst.sampled_from(("check_and_add", "check_and_add_deferred", "add",
                                     "contains")), name, idx),
        hst.tuples(hst.just("commit"), name, hst.just([])),
        hst.tuples(hst.just("reset"), hst.just(None), hst.just([])),
    )


@pytest.mark.parametrize("ranged", [False, True], ids=["hash", "range"])
@pytest.mark.parametrize("num_shards,hosts", [(1, 1), (3, 1), (3, 2), (3, 3),
                                              (8, 1), (8, 2), (8, 8)])
def test_hosting_is_invisible(num_shards, hosts, ranged, monkeypatch, empty_free_lists):
    """Whatever the host count, with hash or range routing, every
    ShardedMembership op gives the masks and counts of one in-process
    MembershipShardState."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as hst

    from fs_crawler_ray.state import membership, resident

    monkeypatch.setattr(membership, "host_count", lambda k: hosts)
    cuts = (np.arange(1, num_shards) * len(_PIDS)) // num_shards
    boundaries = np.sort(_PIDS.astype("S"))[cuts] if ranged else None

    def create():
        return ShardedMembership.create(num_shards, capacity_per_shard=1024, mode="exact",
                                        boundaries=boundaries,
                                        range_names=("visited",))

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(hst.lists(_op(), max_size=10))
    def run(ops):
        sm = create()  # the hosts of the last example, reset
        assert len(sm.actors) == hosts
        model = MembershipShardState(1024, "exact")
        try:
            for op, name, idx in ops:
                keys = _PIDS[idx]
                if op == "commit":
                    assert sm.commit(name) == model.commit(name), name
                elif op == "reset":
                    sm.reset()
                    model.reset(1024, "exact")
                elif op == "add":
                    sm.add(name, keys)
                    model.add(name, keys)
                else:
                    got, want = getattr(sm, op)(name, keys), getattr(model, op)(name, keys)
                    assert got.tolist() == want.tolist(), (op, name, idx)
            stats = sm.stats()
            assert len(stats) == num_shards
            for name, want in model.stats().items():
                assert sum(s[name]["count"] for s in stats if name in s) == want["count"]
        finally:
            sm.release()

    try:
        run()
    finally:
        resident.drain()


def test_dead_idle_host_loses_its_block(empty_free_lists, kill_shard):
    """A host killed while idle takes all of its shards with it: the next
    create() starts one host in its place, the free-list never hands out
    the dead one again, and the new host serves the whole block."""
    from fs_crawler_ray.state import resident

    sm = ShardedMembership.create(num_shards=8, capacity_per_shard=1024, mode="exact")
    keys = indices_to_pids(np.arange(400))
    sm.add("visited", keys)
    sm.release()
    dead = sm.actors[0]
    kill_shard(dead)
    for reused in (1, 2):
        again = ShardedMembership.create(num_shards=8, capacity_per_shard=1024, mode="exact")
        assert again.reused == reused
        assert dead._actor_id not in {a._actor_id for a in again.actors}
        assert again.stats() == [{}] * 8
        assert not again.check_and_add("visited", keys).any()
        assert again.contains("visited", keys).all()
        again.release()
    assert dead._actor_id not in {a._actor_id for a in resident._free_list("MembershipShard")}
