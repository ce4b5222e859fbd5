"""Distributed person/URL-seen membership: partitioned shard actors,
consulted from ``map_batches`` stages.

This replaces the reference's process-local seen state
(``fscrawler/model/graph_memory_impl.py:33-34,45-46,60-63`` in-memory
sets; ``fscrawler/model/graph_db_impl.py:101-127`` SQL point lookups)
with the scale substitution mandated by the north rule:

- keys are hash-partitioned across K shard actors (one id meets exactly
  one shard), route = ``stable_hash64(id) % K``;
- each shard holds named sets (e.g. ``visited``, ``processing``,
  ``edges``), all of ONE kind fixed by the shard's mode:

  - ``exact``: the authoritative Python key set, nothing else — the
    conformance mode the oracle tests run (SURVEY §7.5);
  - ``probabilistic``: a chain of segments, each a bloom bit-array
    pre-filter (fast definite-negative) gating a cuckoo filter (4-way
    buckets, 16-bit fingerprints) — bounded memory at 10^10 keys;
- batch RPCs only: ``contains / add / check_and_add`` take numpy string
  arrays and return masks, so a 10^10-key frontier costs O(keys/batch)
  RPCs, not O(keys).

False-positive budget: in ``probabilistic`` mode membership may report
a never-seen id as seen (dropping a frontier candidate). Shards report
per-set counts and cuckoo occupancy via ``stats()`` so bench runs can
record the fp budget; correctness runs use ``exact`` mode.

Shard actors are session-resident (:mod:`fs_crawler_ray.state.resident`):
:meth:`ShardedMembership.create` takes idle shards of the Ray session
first, resets each to the state of a fresh ``MembershipShardState(
capacity, mode)`` with a driver-side ``ray.get`` before use, and starts
only the shortfall; :meth:`ShardedMembership.release` gives them back
after a crawl that returned normally and has them drop their sets at
once. Filter arrays live on their own zero-on-touch mappings, which go
back to the OS with the filter, so neither an idle shard nor a reused
one in a crawl holds more than a fresh one (an idle shard is ~65 MB
PSS, all of it the Ray worker process itself).
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np
import ray

from fs_crawler_ray.ids import stable_hash64
from fs_crawler_ray.state import resident


def _zeroed(shape, dtype) -> np.ndarray:
    """A zero array on its own anonymous mapping, for the buffers that
    live as long as a filter: the kernel zero-fills a page on first
    touch, so only the pages a filter writes become resident, and the
    pages go back to the OS with the filter. ``np.zeros`` gives that
    only while malloc serves the size by mmap; once glibc's dynamic
    threshold has risen (a shard reused for a second crawl), calloc
    reuses heap chunks and zeroes every page up front (measured on the
    wide_wave benchmark: ~10 MB more PSS per reused shard during a
    crawl)."""
    count = int(np.prod(shape))
    # PRIVATE: a read of an untouched page maps the shared zero page (a
    # SHARED anonymous mapping, mmap's default, would allocate it)
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize),
                    flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


# ----------------------------------------------------------------------
# Bloom filter (vectorized, double hashing)
# ----------------------------------------------------------------------
class BloomFilter:
    def __init__(self, capacity: int, fp_rate: float = 0.01):
        n_bits = max(64, int(-capacity * np.log(fp_rate) / (np.log(2) ** 2)))
        self.n_bits = 1 << int(np.ceil(np.log2(n_bits)))
        # k capped well below the "optimal" ln2·m/n (22 at the default
        # sizing): the bloom only GATES the cuckoo, so its fp rate just
        # costs an extra cuckoo probe — k=6 at m/n≈32 is already ~2e-5
        # fp while insert cost (the per-hop epoch-staging hot path) is
        # ~3.7× cheaper than k=22.
        self.k = max(1, min(6, int(round(self.n_bits / capacity * np.log(2)))))
        self.bits = _zeroed(self.n_bits // 64, np.uint64)
        self._bitmask = np.uint64(self.n_bits - 1)  # n_bits is a power of two
        self.count = 0
        self._posbuf: np.ndarray | None = None  # persistent add() workspace

    #: keys per add() chunk — bounds the position workspace to
    #: ~k·CHUNK·8B (≈11 MB at k=11), kept persistent so repeated adds
    #: re-touch warm pages instead of mmapping fresh ones (a cold 40 MB
    #: temp cost 25 s in first-touch faults on the bench VM vs 0.2 s
    #: warm; chunking also keeps sort working sets cache-sized)
    ADD_CHUNK = 1 << 17

    def _positions(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        # double hashing: pos_i = h1 + i*h2 (Kirsch–Mitzenmacher)
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        with np.errstate(over="ignore"):
            return (h1[None, :] + i * h2[None, :]) & self._bitmask

    def add(self, h1: np.ndarray, h2: np.ndarray) -> None:
        for lo in range(0, len(h1), self.ADD_CHUNK):
            self._add_chunk(h1[lo:lo + self.ADD_CHUNK], h2[lo:lo + self.ADD_CHUNK])
        self.count += len(h1)

    def _add_chunk(self, h1: np.ndarray, h2: np.ndarray) -> None:
        # NOT np.bitwise_or.at: ufunc.at is an unbuffered per-element C
        # loop (~2 µs/elem — measured 50-100× slower than the vector
        # path on k×n position arrays). Sort positions, OR the bits of
        # each 64-bit word's run via reduceat, then one conflict-free
        # scatter into the unique words.
        n, k = len(h1), self.k
        if n == 0:
            return
        if self._posbuf is None or self._posbuf.size < k * n:
            self._posbuf = _zeroed(k * self.ADD_CHUNK, np.uint64)
        pos = self._posbuf[:k * n].reshape(k, n)
        with np.errstate(over="ignore"):
            for i in range(k):
                np.multiply(h2, np.uint64(i), out=pos[i])
                np.add(pos[i], h1, out=pos[i])
                np.bitwise_and(pos[i], self._bitmask, out=pos[i])
        flat = self._posbuf[:k * n]
        flat.sort()
        word = flat >> np.uint64(6)
        bit = np.uint64(1) << (flat & np.uint64(63))
        starts = np.concatenate([[0], np.nonzero(word[1:] != word[:-1])[0] + 1])
        self.bits[word[starts].astype(np.intp)] |= np.bitwise_or.reduceat(bit, starts)

    def contains(self, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
        """Early-exit probe order: after each hash, only surviving keys
        are probed again. Non-members fail within ~2 probes at 50% bit
        density, so total work is ~2n gathers instead of k·n — the
        membership pre-filter is on the hop-commit critical path."""
        n = len(h1)
        idx: np.ndarray | None = None  # None = all still surviving
        cur1, cur2 = h1, h2
        for i in range(self.k):
            with np.errstate(over="ignore"):
                pos = (cur1 + np.uint64(i) * cur2) & self._bitmask
            word = self.bits[(pos >> np.uint64(6)).astype(np.intp)]
            ok = ((word >> (pos & np.uint64(63))) & np.uint64(1)).astype(bool)
            if ok.all():
                continue
            idx = np.nonzero(ok)[0] if idx is None else idx[ok]
            if len(idx) == 0:
                break
            cur1, cur2 = h1[idx], h2[idx]
        out = np.zeros(n, dtype=bool)
        if idx is None:
            out[:] = True
        else:
            out[idx] = True
        return out


# ----------------------------------------------------------------------
# Cuckoo filter (4-slot buckets, 16-bit fingerprints)
# ----------------------------------------------------------------------
class CuckooFilter:
    """Partial-key cuckoo filter (Fan et al., CoNEXT'14, public paper).

    Lookup is fully vectorized; insert is vectorized for the
    no-collision fast path with a bounded per-key eviction loop for the
    rest.
    """

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int):
        n_buckets = max(8, int(capacity / self.SLOTS / 0.84) + 1)
        self.n_buckets = 1 << int(np.ceil(np.log2(n_buckets)))
        self.table = _zeroed((self.n_buckets, self.SLOTS), np.uint16)
        self.count = 0
        self._mask = np.uint64(self.n_buckets - 1)
        #: cuckoo-with-stash: a failed eviction chain leaves one
        #: fingerprint in hand that belongs to some PREVIOUSLY inserted
        #: key — dropping it would create a false negative. It goes to
        #: the stash as BOTH of its (bucket, fingerprint) addressings
        #: (the alternate bucket is derivable from either), which lookups
        #: consult. Bounded in practice; a growing stash
        #: means the filter is undersized (see stats).
        self.stash: set[tuple[int, int]] = set()

    def _fp(self, h: np.ndarray) -> np.ndarray:
        fp = ((h >> np.uint64(40)) & np.uint64(0xFFFF)).astype(np.uint16)
        return np.where(fp == 0, np.uint16(1), fp)  # 0 = empty slot sentinel

    def _i1(self, h: np.ndarray) -> np.ndarray:
        return (h & self._mask).astype(np.int64)

    def _i2(self, i1: np.ndarray, fp: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            fph = fp.astype(np.uint64) * np.uint64(0x5BD1E995)
        return ((i1.astype(np.uint64) ^ fph) & self._mask).astype(np.int64)

    def contains_h(self, h: np.ndarray) -> np.ndarray:
        fp = self._fp(h)
        i1 = self._i1(h)
        i2 = self._i2(i1, fp)
        t = self.table
        m1 = (t[i1] == fp[:, None]).any(axis=1)
        m2 = (t[i2] == fp[:, None]).any(axis=1)
        out = m1 | m2
        if self.stash:
            miss = np.nonzero(~out)[0]
            for j in miss:
                if (int(i1[j]), int(fp[j])) in self.stash:
                    out[j] = True
        return out

    def add_h(self, h: np.ndarray) -> None:
        """Vectorized insert. Already-present fingerprints are skipped
        (idempotent under Ray task retries — ``count`` tracks distinct
        keys up to fingerprint collisions, so the LOG's probabilistic
        vertex count no longer drifts on retried adds). The ~95%
        no-collision case is a masked scatter; only eviction chains drop
        to the per-key loop."""
        fp_all = self._fp(h)
        i1_all = self._i1(h)
        todo = ~self.contains_h(h)
        if not todo.any():
            return
        fp, i1 = fp_all[todo], i1_all[todo]
        # in-batch dedup of identical (bucket, fingerprint) insertions
        pair_key = (i1.astype(np.uint64) << np.uint64(16)) | fp.astype(np.uint64)
        _, first = np.unique(pair_key, return_index=True)
        fp, i1 = fp[first], i1[first]
        i2 = self._i2(i1, fp)
        n = len(fp)
        inserted = np.zeros(n, dtype=bool)
        # repeated alternating passes, one write per bucket per pass
        # (avoids scatter conflicts): each pass fills at most one slot
        # per bucket, so up to 2*SLOTS passes drain every reachable
        # empty slot. A single pass per side (the old code) left every
        # key after the first in a shared bucket to the Python eviction
        # loop — ~45% of keys at high fan-in batches (measured), each
        # costing ~25 µs vs ~0.2 µs on this path.
        no_progress = 0
        for p in range(2 * self.SLOTS):
            rem = np.nonzero(~inserted)[0]
            if len(rem) == 0:
                break
            buckets = i1 if p % 2 == 0 else i2
            idxs = buckets[rem]
            _, first_in_bucket = np.unique(idxs, return_index=True)
            cand = rem[first_in_bucket]
            rows = self.table[buckets[cand]]
            has_empty = (rows == 0).any(axis=1)
            slot = (rows == 0).argmax(axis=1)
            ok = cand[has_empty]
            self.table[buckets[ok], slot[has_empty]] = fp[ok]
            inserted[ok] = True
            no_progress = no_progress + 1 if len(ok) == 0 else 0
            if no_progress >= 2:  # a full i1+i2 cycle placed nothing
                break
        for j in np.nonzero(~inserted)[0]:
            self._insert_one(int(i1[j]), int(i2[j]), int(fp[j]))
        self.count += n

    def _i2_one(self, idx: int, fp: int) -> int:
        # scalar twin of _i2 (uint64 wraparound via 64-bit mask) — the
        # eviction loop runs per key, and building 1-element numpy
        # arrays per kick dominated its cost (~25 µs/kick measured)
        return (idx ^ ((fp * 0x5BD1E995) & 0xFFFFFFFFFFFFFFFF)) & int(self._mask)

    def _insert_one(self, i1: int, i2: int, fp: int) -> None:
        table = self.table
        for idx in (i1, i2):
            row = table[idx]
            for s in range(self.SLOTS):
                if row[s] == 0:
                    row[s] = fp
                    return
        # evict with bounded kicks; a surviving in-hand fingerprint
        # (belonging to some earlier key) goes to the stash
        rng_state = fp  # deterministic kicks
        idx = i1
        for kick in range(self.MAX_KICKS):
            rng_state = (rng_state * 1103515245 + 12345) & 0x7FFFFFFF
            slot = rng_state % self.SLOTS
            fp, table[idx, slot] = int(table[idx, slot]), fp
            idx = self._i2_one(idx, fp)
            row = table[idx]
            for s in range(self.SLOTS):
                if row[s] == 0:
                    row[s] = fp
                    return
        self._stash_add(idx, fp)

    def _stash_add(self, idx: int, fp: int) -> None:
        self.stash.add((idx, fp))
        self.stash.add((self._i2_one(idx, fp), fp))


# ----------------------------------------------------------------------
# Named sets: one mechanism per mode, chosen once per shard
# ----------------------------------------------------------------------
# Both kinds share one protocol. ``probe(keys)`` turns an RPC's keys into
# what the set looks up, once per RPC; a probe slices like the keys
# along its last axis (``probe[..., idx]``), so a shard can narrow it to
# a batch's absent keys without knowing which kind it holds.
class _ExactSet:
    """Exact mode: the authoritative key set and nothing else — no
    filters, no hashing. The probe is the keys themselves; an epoch
    commit is a set union."""

    def __init__(self, capacity: int):
        self.keys: set = set()

    @staticmethod
    def probe(keys: np.ndarray) -> np.ndarray:
        return keys

    def contains(self, probe: np.ndarray) -> np.ndarray:
        seen = self.keys
        return np.fromiter((k in seen for k in probe.tolist()), dtype=bool, count=len(probe))

    def add(self, probe: np.ndarray) -> None:
        self.keys.update(probe.tolist())

    def merge(self, staged: "_ExactSet") -> int:
        self.keys |= staged.keys
        return len(staged.keys)

    def stats(self) -> dict:
        return {"mode": "exact", "count": len(self.keys)}


class _FilterChain:
    """Probabilistic mode: a CHAIN of (bloom, cuckoo) segments, each
    sized for its own capacity; when the active segment's cuckoo reaches
    ``GROW_AT`` load a new segment of 2× capacity is opened (the
    scalable-bloom growth shape applied to cuckoo filters). Inserts go
    to the active segment after a cross-segment dedup probe; lookups OR
    across segments, bloom-gated so cold segments cost one vectorized
    bloom probe. Growth keeps every cuckoo below eviction-storm load: a
    fixed-size cuckoo pushed past ~capacity degrades to ~2.5 ms/key
    Python eviction chains (measured 51 s for one 470k-key add at 1.8×
    load), which would serialize hop commits at 10^10-key scale.

    The probe is the keys' two hashes stacked as a ``(2, n)`` array."""

    GROW_AT = 0.88
    H1_SEED, H2_SEED = 11, 23

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.segments: list[tuple[BloomFilter, CuckooFilter]] = [
            (BloomFilter(capacity), CuckooFilter(capacity))
        ]
        self._next_capacity = capacity * 2

    @classmethod
    def probe(cls, keys: np.ndarray) -> np.ndarray:
        return np.stack([stable_hash64(keys, seed=cls.H1_SEED),
                         stable_hash64(keys, seed=cls.H2_SEED)])

    def contains(self, probe: np.ndarray) -> np.ndarray:
        h1, h2 = probe
        out = np.zeros(len(h1), dtype=bool)
        for bloom, cuckoo in self.segments:
            rem = np.nonzero(~out)[0]
            if len(rem) == 0:
                break
            maybe = bloom.contains(h1[rem], h2[rem])
            if maybe.any():
                sel = rem[maybe]
                out[sel] = cuckoo.contains_h(h1[sel])
        return out

    def _grow(self) -> None:
        cap = self._next_capacity
        self._next_capacity = cap * 2
        self.segments.append((BloomFilter(cap), CuckooFilter(cap)))

    def add(self, probe: np.ndarray) -> None:
        h1, h2 = probe
        # cross-segment dedup: a key lives in exactly one segment (up to
        # fingerprint collisions), so counts stay distinct-key estimates
        # and the chain never accumulates duplicates
        fresh = np.nonzero(~self.contains(probe))[0]
        i, n = 0, len(fresh)
        while i < n:
            bloom, cuckoo = self.segments[-1]
            headroom = int(self.GROW_AT * cuckoo.n_buckets * CuckooFilter.SLOTS) - cuckoo.count
            if headroom <= 0:
                self._grow()
                continue
            sel = fresh[i:i + headroom]
            bloom.add(h1[sel], h2[sel])
            cuckoo.add_h(h1[sel])
            i += len(sel)

    def merge(self, staged: "_FilterChain") -> int:
        """Splice the staged segments into the chain — no re-hash, no
        re-insert; the bloom-gated contains() reads them like any other
        segment."""
        self.segments.extend(seg for seg in staged.segments if seg[1].count or seg[0].count)
        self._next_capacity = max(self._next_capacity, staged._next_capacity)
        return sum(c.count for _, c in staged.segments)

    def stats(self) -> dict:
        active = self.segments[-1][1]
        return {
            "mode": "probabilistic",
            "count": sum(c.count for _, c in self.segments),
            "cuckoo_load": active.count / (active.n_buckets * CuckooFilter.SLOTS),
            "segments": len(self.segments),
            "stash": sum(len(c.stash) for _, c in self.segments),
        }


_SET_KINDS = {"exact": _ExactSet, "probabilistic": _FilterChain}


# ----------------------------------------------------------------------
# One shard's state (usable directly, or inside the Ray actor)
# ----------------------------------------------------------------------
class MembershipShardState:
    """Per-shard multi-set membership. Keys: numpy arrays of strings.
    Every named set of a shard is of the one kind its mode selects."""

    H1_SEED, H2_SEED = _FilterChain.H1_SEED, _FilterChain.H2_SEED

    def __init__(self, capacity: int = 1 << 16, mode: str = "exact"):
        self.reset(capacity, mode)

    def reset(self, capacity: int, mode: str) -> None:
        """Back to the state of ``MembershipShardState(capacity, mode)``:
        no sets, no staged epochs (``stats() == {}``)."""
        if mode not in _SET_KINDS:
            raise ValueError(f"unknown membership mode {mode!r}")
        self.capacity = capacity
        self._kind = _SET_KINDS[mode]
        self.sets: dict = {}
        # deferred-add staging: a fresh set per name, filled
        # INCREMENTALLY by check_and_add_deferred so the insert cost
        # lands inside the (parallel, overlapped) execution, not on the
        # driver's post-hop critical path — commit() only merges it.
        self._epoch: dict = {}

    def _get(self, name: str):
        if name not in self.sets:
            self.sets[name] = self._kind(self.capacity)
        return self.sets[name]

    def contains(self, name: str, keys: np.ndarray) -> np.ndarray:
        return self.contains_any([name], keys)

    def contains_any(self, names: list[str], keys: np.ndarray) -> np.ndarray:
        """OR of membership across several named sets (one RPC)."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        probe = self._kind.probe(keys)
        out = np.zeros(len(keys), dtype=bool)
        for n in names:
            out |= self._get(n).contains(probe)
        return out

    def add(self, name: str, keys: np.ndarray) -> int:
        if len(keys) == 0:
            return 0
        self._get(name).add(self._kind.probe(keys))
        return len(keys)

    def check_and_add(self, name: str, keys: np.ndarray) -> np.ndarray:
        """True where the key was ALREADY present; absent keys are added.
        Duplicate keys within the batch: first occurrence wins."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        probe = self._kind.probe(keys)
        s = self._get(name)
        present = s.contains(probe)
        # in-batch duplicates: mark later occurrences as present
        _, first_idx, inv = np.unique(keys, return_index=True, return_inverse=True)
        is_first = np.zeros(len(keys), dtype=bool)
        is_first[first_idx] = True
        new = ~(present[first_idx][inv] | ~is_first)
        if new.any():
            s.add(probe[..., new])
        return ~new

    def check_and_add_deferred(self, name: str, keys: np.ndarray) -> np.ndarray:
        """contains() against COMMITTED state only; absent keys are
        staged into a per-name epoch set merged by :meth:`commit`. Task
        retries re-send the same keys and get the same mask (the
        committed state is unchanged mid-epoch and the epoch set's own
        add() dedups) — the retry-safe fused check+add used by the
        per-hop edge-seen filter. Staging does the inserts HERE, inside
        the hop's streaming execution across all shard actors in
        parallel, so commit() stays cheap: a 950k-key probabilistic hop
        commit measured 2.9 s when all filter inserts happened at commit
        time (k=22 bloom adds serialized on the critical path) vs ~0
        after this change."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        probe = self._kind.probe(keys)
        present = self._get(name).contains(probe)
        ep = self._epoch.get(name)
        if ep is None:
            ep = self._epoch[name] = self._kind(self.capacity)
        if not present.all():
            ep.add(probe[..., ~present])
        return present

    def commit(self, name: str) -> int:
        """Merge the staged epoch into the committed set; returns the
        number of keys the epoch added."""
        ep = self._epoch.pop(name, None)
        return 0 if ep is None else self._get(name).merge(ep)

    def clear(self, name: str) -> None:
        if name in self.sets:
            self.sets[name] = self._kind(self.capacity)
        self._epoch.pop(name, None)

    def drop(self, name: str) -> None:
        self.sets.pop(name, None)

    def stats(self) -> dict:
        return {name: s.stats() for name, s in self.sets.items()}


MembershipShard = ray.remote(MembershipShardState)


@dataclass
class ShardedMembership:
    """Driver-side handle to the K shard actors + batched routing.

    Routing contract: key → shard ``stable_hash64(key, seed=7) % K``
    (``fs_crawler_ray.ids.shard_of``) — EXCEPT for filter names listed
    in ``range_names`` when ``boundaries`` is set: those route by key
    RANGE (``ids.range_bucket_of`` over the same corpus cut points the
    frontier shuffle uses). The crawl's frontier batches arrive
    range-clustered, so range-aligned routing sends each batch to 1-2
    shards instead of all K — the RPC fan-out per batch stops growing
    with the shard count, which is what makes shards-per-node viable on
    a large cluster (hash routing cost K RPCs × every task × every
    round). Edge-seen keys are hashes with no range locality and stay
    hash-routed. Shard placement is an implementation detail of the
    filter: any routing gives the same union semantics; exact-mode
    conformance is routing-independent.

    Stages route inside their own ``map_batches`` batch (see
    :class:`fs_crawler_ray.crawl.MembershipStage`), so each batch issues
    ≤K RPCs regardless of batch size.
    """

    actors: list
    num_shards: int
    mode: str
    boundaries: "np.ndarray | None" = None
    range_names: frozenset = frozenset()
    #: how many of ``actors`` were idle shards reused, not started
    reused: int = 0

    @staticmethod
    def create(num_shards: int, capacity_per_shard: int = 1 << 16, mode: str = "exact",
               boundaries: "np.ndarray | None" = None,
               range_names=()) -> "ShardedMembership":
        # num_cpus=0: the shards are lightweight, mostly-idle lookup
        # servers; reserving CPU slots makes them invisible contenders
        # against Ray Data's own resource accounting and can deadlock an
        # actor-pool stage on a small cluster (observed: fetch pool +
        # shard actors > num_cpus → pool never starts).
        if mode not in _SET_KINDS:
            raise ValueError(f"unknown membership mode {mode!r}")
        actors, reused = resident.acquire(
            "MembershipShard", num_shards,
            lambda: MembershipShard.options(num_cpus=0, max_concurrency=1).remote(
                capacity_per_shard, mode),
            lambda a: a.reset.remote(capacity_per_shard, mode))
        # fire-and-forget warmup ping for the started shards: actor
        # PROCESS startup costs ~0.5-0.8 s for a shard set on a cold
        # worker pool, and the first real RPC (the hop-0 clear) would
        # pay it serially on the driver. Kicking a ping now lets startup
        # overlap the caller's remaining prep (seed validation, settings
        # write, Ray Data executor spin-up); the refs are held so the
        # tasks aren't cancelled, never awaited.
        warmup = [a.stats.remote() for a in actors[reused:]]
        if boundaries is not None and len(boundaries) == 0:
            boundaries = None
        sm = ShardedMembership(actors=actors, num_shards=num_shards, mode=mode,
                               boundaries=boundaries,
                               range_names=frozenset(range_names), reused=reused)
        sm._warmup_refs = warmup
        return sm

    def release(self) -> None:
        """Give the shard actors back to the session's free-list, for the
        next :meth:`create`. Only after a run that returned normally;
        otherwise ``ray.kill`` them. Each shard drops its state now
        (fire-and-forget), so an idle shard holds no crawl's sets; the
        synchronous reset on acquire still runs after this one (Ray
        keeps one caller's calls to an actor in order)."""
        for a in self.actors:
            a.reset.remote(1 << 16, self.mode)
        resident.release("MembershipShard", self.actors)

    def _route(self, keys: np.ndarray, names=()):
        from fs_crawler_ray.ids import range_bucket_of, shard_of

        in_range = [n in self.range_names for n in names]
        if self.boundaries is not None and names and all(in_range):
            shards = range_bucket_of(keys, self.num_shards, boundaries=self.boundaries)
        else:
            if self.boundaries is not None and any(in_range) and not all(in_range):
                # a mixed call would silently hash-route the range-added
                # names onto the WRONG shards → false negatives. No such
                # call exists; fail loudly if one appears (ADVICE r4).
                raise ValueError(
                    f"membership call mixes range-routed and hash-routed "
                    f"filter names {tuple(names)}; split the call per name")
            shards = shard_of(keys, self.num_shards)
        order = np.argsort(shards, kind="stable")
        bounds = np.searchsorted(shards[order], np.arange(self.num_shards + 1))
        return order, bounds

    def _scatter_gather(self, method: str, keys, *args, route_names=()) -> np.ndarray:
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        order, bounds = self._route(keys, route_names)
        refs, spans = [], []
        for s in range(self.num_shards):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            refs.append(getattr(self.actors[s], method).remote(*args, keys[order[lo:hi]]))
            spans.append((lo, hi))
        results = ray.get(refs)
        out = np.zeros(len(keys), dtype=bool)
        for (lo, hi), r in zip(spans, results):
            if isinstance(r, np.ndarray):
                out[order[lo:hi]] = r
        return out

    def contains(self, name: str, keys) -> np.ndarray:
        return self._scatter_gather("contains", keys, name, route_names=(name,))

    def contains_any(self, names: list[str], keys) -> np.ndarray:
        return self._scatter_gather("contains_any", keys, names,
                                    route_names=tuple(names))

    def add(self, name: str, keys) -> None:
        self._scatter_gather("add", keys, name, route_names=(name,))

    def check_and_add(self, name: str, keys) -> np.ndarray:
        return self._scatter_gather("check_and_add", keys, name, route_names=(name,))

    def check_and_add_deferred(self, name: str, keys) -> np.ndarray:
        return self._scatter_gather("check_and_add_deferred", keys, name,
                                    route_names=(name,))

    def commit(self, name: str) -> int:
        return sum(ray.get([a.commit.remote(name) for a in self.actors]))

    def clear(self, name: str) -> None:
        ray.get([a.clear.remote(name) for a in self.actors])

    def stats(self) -> list[dict]:
        return ray.get([a.stats.remote() for a in self.actors])
