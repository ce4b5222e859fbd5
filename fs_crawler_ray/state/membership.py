"""Distributed person/URL-seen membership: partitioned shards hosted by
a few actor processes, consulted from ``map_batches`` stages.

This replaces the reference's process-local seen state
(``fscrawler/model/graph_memory_impl.py:33-34,45-46,60-63`` in-memory
sets; ``fscrawler/model/graph_db_impl.py:101-127`` SQL point lookups)
with the scale substitution mandated by the north rule:

- keys are hash-partitioned across K shards (one id meets exactly one
  shard), route = ``stable_hash64(id) % K``;
- each shard holds named sets (the crawl's ``visited`` and ``edges``),
  all of ONE kind fixed by the shard's mode:

  - ``exact``: the authoritative Python key set, nothing else — the
    conformance mode the oracle tests run (SURVEY §7.5);
  - ``probabilistic``: a chain of segments, each a bloom bit-array
    pre-filter (fast definite-negative) gating a cuckoo filter (4-way
    buckets, 16-bit fingerprints) — bounded memory at 10^10 keys. A
    set is sized to its contents, not to the shard's ``capacity``: its
    first segment holds ``min(capacity, 1 << 16)`` keys and each later
    one twice the last, so a fresh or staged-epoch set costs a
    few hundred KB and a set of n keys about what n keys need;
- batch RPCs only: ``contains / add / check_and_add`` take numpy string
  arrays and return masks, so a 10^10-key frontier costs O(keys/batch)
  RPCs, not O(keys). Keys are compared as UTF-8 bytes
  (:func:`key_form`), whichever string form the caller holds.

Hosting: the K shards live in ``H = min(K, max(1, CPUs // 2))`` actor
processes (:class:`MembershipShardHost`, :func:`host_count`), each
serving a contiguous block of shard indices, so a call costs one RPC
per host it touches. ``K`` keeps its meaning — the routing, and with it
every mask and count, is the same for any ``H``. An actor process costs
~65 MB PSS however little it holds (all of it the Ray worker itself),
so 8 shards in 2 hosts instead of 8 processes save 6 of those.

False-positive budget: in ``probabilistic`` mode membership may report
a never-seen id as seen (dropping a frontier candidate). Shards report
per-set counts, cuckoo occupancy, segments and filter bytes via
``stats()`` so bench runs can record the fp budget and the sizing;
correctness runs use ``exact`` mode.

Hosts are session-resident (:mod:`fs_crawler_ray.state.resident`):
:meth:`ShardedMembership.create` takes idle hosts of the Ray session
first, resets each (all its shards become fresh ``MembershipShardState(
capacity, mode)``) with a driver-side ``ray.get`` before use, and starts
only the shortfall; :meth:`ShardedMembership.release` gives them back
after a crawl that returned normally and has them drop their shards at
once. A host that died while idle is replaced, and the shards of its
block start empty on the new one. Filter arrays live on their own
zero-on-touch mappings, which go back to the OS with the filter, so
neither an idle host nor a reused one in a crawl holds more than a
fresh one.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import cached_property

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

    Lookup and insert are vectorized, eviction walks included (each
    bounded by ``MAX_KICKS`` steps).
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
        no-collision case is a masked scatter; the rest take eviction
        walks (:meth:`_evict`)."""
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
        # key after the first in a shared bucket to the eviction walks
        # — ~45% of keys at high fan-in batches (measured).
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
        rest = np.nonzero(~inserted)[0]
        if len(rest):
            self._evict(i1[rest], fp[rest])
        self.count += n

    def _evict(self, idx: np.ndarray, fp: np.ndarray) -> None:
        """Place fingerprints whose passes found no free slot by random
        walks, all walks a step at a time: in each step every bucket that
        a fingerprint in hand waits for takes one of them, into a free
        slot if it has one, else swapped for a resident fingerprint,
        which walks on to its own alternate bucket. Fingerprints still in
        hand after ``MAX_KICKS`` steps (each belongs to some key already
        counted) go to the stash. A segment filled to its growth load
        leaves ~3 % of a large batch here (6,095 of 200k measured), so
        the walks run vectorized, not one key at a time."""
        idx, fp = idx.copy(), fp.copy()
        for step in range(self.MAX_KICKS):
            if len(idx) == 0:
                return
            _, first = np.unique(idx, return_index=True)
            rows = self.table[idx[first]]
            free = rows == 0
            has_free = free.any(axis=1)
            put = first[has_free]
            self.table[idx[put], free[has_free].argmax(axis=1)] = fp[put]
            kick = first[~has_free]
            with np.errstate(over="ignore"):  # deterministic victim slot
                mix = (fp[kick].astype(np.uint64) + np.uint64(step)) * np.uint64(0x9E3779B1)
            slot = ((mix >> np.uint64(16)) % np.uint64(self.SLOTS)).astype(np.int64)
            bucket = idx[kick]
            victim = self.table[bucket, slot]
            self.table[bucket, slot] = fp[kick]
            fp[kick] = victim
            idx[kick] = self._i2(bucket, victim)
            waiting = np.ones(len(idx), dtype=bool)
            waiting[put] = False
            idx, fp = idx[waiting], fp[waiting]
        # both addressings of each: a lookup derives either bucket
        alt = self._i2(idx, fp)
        for bucket in (idx, alt):
            self.stash.update(zip(bucket.tolist(), fp.tolist()))


def key_form(keys) -> np.ndarray:
    """The one form membership keys take: UTF-8 bytes (``S<w>``).
    :func:`fs_crawler_ray.ids.as_key_array` gives a fixed-width Arrow
    string column as a zero-copy ``S`` view (every crawl path), but a
    Python list or a column of mixed widths as ``<U`` str; an exact set
    would miss ``b"0000-08A"`` probed as ``"0000-08A"``, and a non-ASCII
    key hashes and routes differently in the two forms."""
    arr = np.asarray(keys)
    if arr.dtype.kind == "S":
        return arr
    if arr.dtype.kind != "U":
        arr = arr.astype("U")
    try:
        return arr.astype("S")  # ASCII: one cast
    except UnicodeEncodeError:
        return np.char.encode(arr, "utf-8")


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
    #: most keys the first segment is sized for, whatever the shard's
    #: capacity: a filter's pages are touched all over by its random
    #: probes, so a segment sized far past its contents costs page
    #: faults and cache misses on every call (a 14.4k-URL hop over 8
    #: shards of ``1 << 21`` keys faulted in 128k pages; ``1 << 16``,
    #: 6k). A set that outgrows it doubles through ``_grow``.
    FIRST_SEGMENT = 1 << 16

    def __init__(self, capacity: int):
        first = min(capacity, self.FIRST_SEGMENT)
        self.segments: list[tuple[BloomFilter, CuckooFilter]] = [
            (BloomFilter(first), CuckooFilter(first))
        ]
        self._next_capacity = first * 2

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
            "bytes": sum(b.bits.nbytes + c.table.nbytes for b, c in self.segments),
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

    def _probe(self, keys) -> np.ndarray:
        return self._kind.probe(key_form(keys))

    def _get(self, name: str):
        if name not in self.sets:
            self.sets[name] = self._kind(self.capacity)
        return self.sets[name]

    def contains(self, name: str, keys: np.ndarray) -> np.ndarray:
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        return self._get(name).contains(self._probe(keys))

    def add(self, name: str, keys: np.ndarray) -> int:
        if len(keys) == 0:
            return 0
        self._get(name).add(self._probe(keys))
        return len(keys)

    def check_and_add(self, name: str, keys: np.ndarray) -> np.ndarray:
        """True where the key was ALREADY present; absent keys are added.
        Duplicate keys within the batch: first occurrence wins."""
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        probe = self._probe(keys)
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
        probe = self._probe(keys)
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

    def stats(self) -> dict:
        return {name: s.stats() for name, s in self.sets.items()}


class MembershipShardHost:
    """One actor process holding a contiguous block of shards, each a
    :class:`MembershipShardState` keyed by its global shard index. A
    shard is made on first touch, so a host needs to know only the
    capacity and mode (``reset``), not which shards it will serve, and
    ``reset`` leaves every shard as a fresh ``MembershipShardState(
    capacity, mode)``. Each RPC carries the keys of several shards,
    cut by ``bounds``."""

    def __init__(self, capacity: int = 1 << 16, mode: str = "exact"):
        self.reset(capacity, mode)

    def reset(self, capacity: int, mode: str) -> None:
        if mode not in _SET_KINDS:
            raise ValueError(f"unknown membership mode {mode!r}")
        self.capacity, self.mode = capacity, mode
        self.shards: dict[int, MembershipShardState] = {}
        #: ``call`` RPCs served since the last :meth:`end_hop`, by
        #: ``(method, set name)``: ``[calls, keys]``
        self.rpcs: dict[tuple[str, str], list[int]] = {}

    def _shard(self, i: int) -> MembershipShardState:
        if i not in self.shards:
            self.shards[i] = MembershipShardState(self.capacity, self.mode)
        return self.shards[i]

    def call(self, method: str, first: int, bounds: np.ndarray, keys: np.ndarray,
             name: str) -> np.ndarray:
        """``method(name, keys[bounds[j]:bounds[j + 1]])`` on shard
        ``first + j`` for every non-empty span; the shards' masks,
        concatenated in key order."""
        served = self.rpcs.setdefault((method, name), [0, 0])
        served[0] += 1
        served[1] += len(keys)
        out = np.zeros(len(keys), dtype=bool)
        for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if lo < hi:
                r = getattr(self._shard(first + j), method)(name, keys[lo:hi])
                if isinstance(r, np.ndarray):
                    out[lo:hi] = r
        return out

    def commit(self, name: str) -> int:
        return sum(s.commit(name) for s in self.shards.values())

    def stats(self, shards=()) -> list[dict]:
        """Per-shard ``stats()`` of ``shards`` (global indices), in order."""
        return [self.shards[i].stats() if i in self.shards else {} for i in shards]

    def end_hop(self, name: str, shards=()) -> tuple[list[dict], dict]:
        """A hop's close in one RPC: :meth:`commit` of ``name``, then
        :meth:`stats` of ``shards`` and :attr:`rpcs`, whose counts then
        start again at zero."""
        self.commit(name)
        served, self.rpcs = self.rpcs, {}
        return self.stats(shards), served


_Host = ray.remote(MembershipShardHost)


def host_count(num_shards: int) -> int:
    """Host processes for ``num_shards`` shards: one per two CPUs of the
    Ray cluster, at most one per shard. An idle actor process costs
    ~65 MB PSS however little it holds, and a shard's own state is
    small next to it."""
    ray.get_runtime_context()  # starts Ray, as .remote() would, if not started
    cpus = int(ray.cluster_resources().get("CPU", 1))
    return min(num_shards, max(1, cpus // 2))


@dataclass
class ShardedMembership:
    """Driver-side handle to the shard hosts + batched routing.

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

    Hosting: host ``h`` of ``actors`` serves shards ``first[h]`` to
    ``first[h + 1] - 1``, a contiguous block, so neighbouring key ranges
    share a host. A call makes one RPC per host that owns any of its
    keys (``commit``/``end_hop``/``reset``/``stats``: one per host).

    Callers route a whole block or sink partition per call (the crawl's
    fetch blocks, resume tasks and hop sink), so each call issues ≤ one
    RPC per host regardless of its size.
    """

    actors: list
    num_shards: int
    mode: str
    capacity: int = 1 << 16
    boundaries: "np.ndarray | None" = None
    range_names: frozenset = frozenset()
    #: how many of ``actors`` were idle hosts reused, not started
    reused: int = 0

    @cached_property
    def first(self) -> np.ndarray:
        """Shard index where each host's block starts, then ``num_shards``."""
        return np.arange(len(self.actors) + 1) * self.num_shards // len(self.actors)

    @staticmethod
    def create(num_shards: int, capacity_per_shard: int = 1 << 16, mode: str = "exact",
               boundaries: "np.ndarray | None" = None,
               range_names=()) -> "ShardedMembership":
        # num_cpus=0: the hosts are lightweight, mostly-idle lookup
        # servers; reserving CPU slots makes them invisible contenders
        # against Ray Data's own resource accounting and can deadlock an
        # actor-pool stage on a small cluster (observed: fetch pool +
        # shard actors > num_cpus → pool never starts).
        if mode not in _SET_KINDS:
            raise ValueError(f"unknown membership mode {mode!r}")
        actors, reused = resident.acquire(
            "MembershipShard", host_count(num_shards),
            lambda: _Host.options(num_cpus=0, max_concurrency=1).remote(
                capacity_per_shard, mode),
            lambda a: a.reset.remote(capacity_per_shard, mode))
        # fire-and-forget warmup ping for the started hosts: actor
        # PROCESS startup costs ~0.5-0.8 s for a shard set on a cold
        # worker pool, and the first real RPC would pay it inside the
        # first hop's execution. Kicking a ping now lets startup
        # overlap the caller's remaining prep (seed validation, settings
        # write, Ray Data executor spin-up); the refs are held so the
        # tasks aren't cancelled, never awaited.
        warmup = [a.stats.remote() for a in actors[reused:]]
        if boundaries is not None and len(boundaries) == 0:
            boundaries = None
        sm = ShardedMembership(actors=actors, num_shards=num_shards, mode=mode,
                               capacity=capacity_per_shard, boundaries=boundaries,
                               range_names=frozenset(range_names), reused=reused)
        sm._warmup_refs = warmup
        return sm

    def release(self) -> None:
        """Give the hosts back to the session's free-list, for the next
        :meth:`create`. Only after a run that returned normally;
        otherwise ``ray.kill`` them. Each host drops its shards now
        (fire-and-forget), so an idle host holds no crawl's sets; the
        synchronous reset on acquire still runs after this one (Ray
        keeps one caller's calls to an actor in order)."""
        for a in self.actors:
            a.reset.remote(1 << 16, self.mode)
        resident.release("MembershipShard", self.actors)

    def reset(self) -> None:
        """Every shard back to a fresh ``MembershipShardState(capacity,
        mode)`` (one RPC per host, the reset :meth:`create` makes)."""
        ray.get([a.reset.remote(self.capacity, self.mode) for a in self.actors])

    def _route(self, keys: np.ndarray, name: str):
        from fs_crawler_ray.ids import range_bucket_of, shard_of

        if self.boundaries is not None and name in self.range_names:
            shards = range_bucket_of(keys, self.num_shards, boundaries=self.boundaries)
        else:
            shards = shard_of(keys, self.num_shards)
        order = np.argsort(shards, kind="stable")
        bounds = np.searchsorted(shards[order], np.arange(self.num_shards + 1))
        return order, bounds

    def _scatter_gather(self, method: str, name: str, keys) -> np.ndarray:
        keys = key_form(keys)
        if len(keys) == 0:
            return np.zeros(0, dtype=bool)
        order, bounds = self._route(keys, name)
        refs, spans = [], []
        for actor, a, b in zip(self.actors, self.first[:-1], self.first[1:]):
            lo, hi = bounds[a], bounds[b]
            if lo == hi:
                continue
            refs.append(actor.call.remote(method, int(a), bounds[a:b + 1] - lo,
                                          keys[order[lo:hi]], name))
            spans.append((lo, hi))
        out = np.zeros(len(keys), dtype=bool)
        for (lo, hi), r in zip(spans, ray.get(refs)):
            out[order[lo:hi]] = r
        return out

    def contains(self, name: str, keys) -> np.ndarray:
        return self._scatter_gather("contains", name, keys)

    def add(self, name: str, keys) -> None:
        self._scatter_gather("add", name, keys)

    def check_and_add(self, name: str, keys) -> np.ndarray:
        return self._scatter_gather("check_and_add", name, keys)

    def check_and_add_deferred(self, name: str, keys) -> np.ndarray:
        return self._scatter_gather("check_and_add_deferred", name, keys)

    def commit(self, name: str) -> int:
        return sum(ray.get([a.commit.remote(name) for a in self.actors]))

    def end_hop(self, name: str) -> tuple[list[dict], dict]:
        """Commit ``name``, then return one ``stats()`` dict per shard, in
        shard order, and the membership RPCs (host ``call``s) served
        since the hosts were acquired or last ended a hop, summed over
        hosts: ``{method: {set name: {"calls", "keys"}}}``. The RPC
        counts then start again at zero. One RPC per host."""
        per_host = ray.get([a.end_hop.remote(name, range(lo, hi)) for a, lo, hi
                            in zip(self.actors, self.first[:-1], self.first[1:])])
        rpcs: dict = {}
        for _, served in per_host:
            for (method, set_name), (calls, keys) in served.items():
                c = rpcs.setdefault(method, {}).setdefault(set_name, {"calls": 0, "keys": 0})
                c["calls"] += calls
                c["keys"] += keys
        return [s for block, _ in per_host for s in block], rpcs

    def stats(self) -> list[dict]:
        """One ``stats()`` dict per shard, in shard order."""
        per_host = ray.get([a.stats.remote(range(lo, hi)) for a, lo, hi
                            in zip(self.actors, self.first[:-1], self.first[1:])])
        return [s for block in per_host for s in block]
