"""Person-ID codec and stable vectorized hashing.

Person IDs follow the reference format ``[A-Z0-9]{4}-[A-Z0-9]{3}``
(validated at ``fscrawler/crawler.py:92-94``). We map dense integer
indices to IDs via base-36 so ID sort order == index order, which makes
the canonical frontier ordering (sorted by id) deterministic and easy
to reason about in both the Ray pipeline and the single-process oracle.

``stable_hash64`` is the ONE hash used for shard routing, bloom/cuckoo
fingerprints and salted repartitioning — a vectorized FNV-1a over the
string bytes. It must be stable across processes (unlike Python's
``hash``) so resume can rebuild filter state identically.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

ALPHABET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
ID_RE = re.compile(r"^[A-Z0-9]{4}-[A-Z0-9]{3}$")

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def index_to_pid(i: int) -> str:
    """Dense index → person id, order-preserving (base-36, 7 digits)."""
    if i < 0 or i >= 36**7:
        raise ValueError(f"index out of range: {i}")
    digits = []
    for _ in range(7):
        digits.append(ALPHABET[i % 36])
        i //= 36
    s = "".join(reversed(digits))
    return s[:4] + "-" + s[4:]


def pid_to_index(pid: str) -> int:
    s = pid.replace("-", "")
    i = 0
    for ch in s:
        i = i * 36 + ALPHABET.index(ch)
    return i


def is_valid_pid(pid: str) -> bool:
    """Seed-ID regex gate (reference crawler.py:92-94)."""
    return bool(ID_RE.match(pid))


def indices_to_pids(idx: np.ndarray) -> np.ndarray:
    """Vectorized index→pid for corpus generation."""
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty((len(idx), 8), dtype="U1")
    rem = idx.copy()
    chars = np.array(list(ALPHABET))
    cols = [7, 6, 5, 3, 2, 1, 0]  # positions of digits (4 is the dash)
    for c in cols:
        out[:, c] = chars[rem % 36]
        rem //= 36
    out[:, 4] = "-"
    return np.array(["".join(row) for row in out])


def as_key_array(values) -> np.ndarray:
    """Arrow/numpy/list strings → numpy array suitable for key ops.

    Fast path: a fixed-width ASCII Arrow string column (person ids, rel
    ids, edge keys) becomes a zero-copy ``S<w>`` bytes view of the Arrow
    data buffer — no per-row Python string materialization. Fallback is
    the usual object→unicode array. ``stable_hash64`` produces identical
    hashes for both representations of the same ASCII strings."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array) and pa.types.is_string(values.type) and values.null_count == 0:
        n = len(values)
        if n == 0:
            return np.zeros(0, dtype="S1")
        offs = np.frombuffer(values.buffers()[1], dtype=np.int32,
                             count=n + 1, offset=values.offset * 4)
        w = int(offs[1] - offs[0])
        if w > 0 and (np.diff(offs) == w).all():
            data = values.buffers()[2]
            return np.frombuffer(data, dtype=f"S{w}", count=n, offset=int(offs[0]))
        values = values.to_numpy(zero_copy_only=False)
    if isinstance(values, pa.Array):
        values = values.to_numpy(zero_copy_only=False)
    arr = np.asarray(values)
    if arr.dtype.kind in ("S", "U"):
        return arr
    return arr.astype("U")


def _to_bytes_matrix(values) -> tuple[np.ndarray, np.ndarray]:
    """Strings → (N, width) uint code-unit matrix + lengths, for
    vectorized hashing. Accepts unicode arrays (UTF-32 view) and the
    ``S`` fixed-byte fast path of :func:`as_key_array` (uint8 view —
    identical code units for ASCII)."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        values = as_key_array(values)
    arr = np.asarray(values)
    if arr.dtype.kind == "S":
        u8 = np.frombuffer(arr.tobytes(), dtype=np.uint8).reshape(len(arr), -1)
        lengths = (u8 != 0).sum(axis=1)
        return u8.astype(np.uint32), lengths
    arr = np.asarray(arr, dtype="U")
    # Encode via UTF-32 view → keep low byte (ids are ASCII; general
    # strings still hash stably since we fold all 4 bytes).
    u32 = arr.view(np.uint32).reshape(len(arr), -1)
    lengths = (u32 != 0).sum(axis=1)
    return u32, lengths


def stable_hash64(values, seed: int = 0) -> np.ndarray:
    """Vectorized stable 64-bit hash of an array of strings.

    FNV-1a over UTF-32 code units, with a seed mixed in. Returns
    ``np.uint64`` array. O(maxlen) vectorized passes over all rows.
    """
    if hasattr(values, "__len__") and len(values) == 0:
        return np.zeros(0, dtype=np.uint64)
    u32, lengths = _to_bytes_matrix(values)
    n, width = u32.shape
    h = np.full(n, _FNV_OFFSET ^ np.uint64(seed * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for c in range(width):
            col = u32[:, c].astype(np.uint64)
            active = c < lengths
            h2 = (h ^ col) * _FNV_PRIME
            h = np.where(active, h2, h)
        # final avalanche (splitmix64 tail)
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def shard_of(values, num_shards: int, seed: int = 7) -> np.ndarray:
    """Hash-partition routing: id → shard index (uint32)."""
    return (stable_hash64(values, seed=seed) % np.uint64(num_shards)).astype(np.uint32)


def range_bucket_of(values, num_buckets: int,
                    boundaries: np.ndarray | None = None) -> np.ndarray:
    """RANGE-partition routing: key → contiguous-range bucket index.
    Used to write frontiers range-clustered so each
    fetch task's batch maps to 1-2 corpus row groups — the routing is
    folded into shuffles that already happen (distinct), never a
    separate global sort.

    ``boundaries`` (sorted byte-string cut points, e.g. from
    :func:`fs_crawler_ray.sources.doc_table.corpus_range_boundaries`)
    gives buckets balanced against the REAL key density. Without them
    the fallback buckets by the first two base36 characters — which
    degenerates to ONE bucket when the key population occupies a dense
    low prefix (sequential ids all start "00.."), serializing the
    downstream per-bucket work; always pass boundaries when a corpus
    footer is available."""
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    if boundaries is not None and len(boundaries) > 0:
        keys = as_key_array(values)
        if keys.dtype.kind == "U":
            keys = keys.astype("S")
        b = np.asarray(boundaries)
        # widen to a common byte width: numpy S-compare is bytewise
        # lexicographic with NUL padding, order-preserving for these
        # fixed-format ascii keys
        w = max(keys.dtype.itemsize, b.dtype.itemsize)
        if keys.dtype.itemsize != w:
            keys = keys.astype(f"S{w}")
        if b.dtype.itemsize != w:
            b = b.astype(f"S{w}")
        return np.searchsorted(b, keys, side="right").astype(np.int64)
    u32, lengths = _to_bytes_matrix(values)
    # map byte → base36 digit (0-9, A-Z); other bytes clamp into range
    c0 = np.where(u32[:, 0] >= 65, u32[:, 0] - 55, u32[:, 0] - 48).clip(0, 35) if u32.shape[1] > 0 else np.zeros(len(u32), np.uint32)
    c1 = np.where(u32[:, 1] >= 65, u32[:, 1] - 55, u32[:, 1] - 48).clip(0, 35) if u32.shape[1] > 1 else np.zeros(len(u32), np.uint32)
    v = c0.astype(np.int64) * 36 + c1.astype(np.int64)
    return v * num_buckets // (36 * 36)
