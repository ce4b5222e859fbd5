"""Access layer for the interleaved-document table and relationship store.

All readers/writers of the document corpus go through here so the
storage format is swappable (Parquet in this sandbox; Lance at
deployment scale — ``lance.dataset(...).take`` for point lookups and
``ray.data.read_lance`` for scans; the ``lance`` package is not
installed here).

``RangeStore`` is the partition-local point-lookup primitive: the
corpus file is globally sorted by its key column, so each parquet row
group is a contiguous key RANGE. The store keeps only the row-group
range index (from parquet footer statistics — bytes, not data) and
loads row groups lazily into a small LRU cache. A fetch touches ONLY
the row groups owning its ids — the 10^10-doc analog is a Lance
fragment ``take``; nothing ever broadcasts or loads the whole corpus
(the round-1 design did, which was the #1 scale defect).

``DocStore`` and ``open_range_store`` are the sandbox stand-ins for
the crawl's remote fetch (reference ``fscrawler/controller/session.py:
109-132`` HTTP GETs / ``fsapi.py:99-101`` relationship requests): batched point
lookups of ids against the corpus. Route sorted id batches at them
(the crawl writes its processing set id-sorted) and each batch resolves
against 1-2 row groups.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from fs_crawler_ray.ids import as_key_array


def read_documents(path: str, **kwargs) -> "ray.data.Dataset":
    from fs_crawler_ray.sources import storage as st

    if _is_lance(path):
        return ray.data.read_lance(path, **kwargs)
    if _is_jsonl(path):
        # raw crawl dumps: ray.data.read_json streams JSONL per block.
        # `columns` is a read_parquet-ism — emulate with a projection
        # (JSONL has no column pruning at the byte level anyway).
        columns = kwargs.pop("columns", None)
        ds = ray.data.read_json(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    return st.read_parquet(path, **kwargs)


def _open_parquet(path: str) -> pq.ParquetFile:
    """ParquetFile over a local path (memory-mapped) or an fsspec URI
    (shared object store — the multi-node corpus configuration)."""
    from fs_crawler_ray.sources import storage as st

    if st.is_uri(path):
        return pq.ParquetFile(st.open_file(path, "rb"))
    return pq.ParquetFile(path, memory_map=True)


def _parquet_parts(path: str) -> list[str]:
    """A parquet 'table' is either one file or a DIRECTORY of
    part-NNNN.parquet shards (the at-scale layout: a sharded table is
    what keeps Ray read tasks, and therefore every downstream scan,
    parallel). Returns the ordered file list; the corpus writer emits
    parts in key order, so file order preserves the global key sort the
    range index relies on."""
    from fs_crawler_ray.sources import storage as st

    if not st.isdir(path):
        return [path]
    import re

    def _part_key(f: str):
        # numeric-aware: "part-100000" must sort AFTER "part-99999" even
        # though zero-padding ran out — lexicographic order would corrupt
        # the range index's global key sort past 10^5 parts (~1.6B docs
        # at the default part size, inside the 10^10-URL target regime)
        m = re.fullmatch(r"part-(\d+)\.parquet", f)
        return (0, int(m.group(1)), f) if m else (1, 0, f)

    return [st.join(path, f) for f in sorted(st.listdir(path), key=_part_key)
            if f.endswith(".parquet")]


def corpus_range_boundaries(path: str, key_col: str, num_buckets: int) -> np.ndarray:
    """≤ ``num_buckets-1`` sorted byte-string cut points over the corpus
    key space, from parquet row-group max statistics (footer bytes only
    — no data read; the Lance analog is fragment manifests).

    Range-bucketing ids by ``searchsorted`` over these boundaries gives
    buckets that are (a) balanced against the corpus's REAL id density
    (row groups are equal-row-count, and the file is key-sorted) and
    (b) aligned to row-group edges, the fetch unit — a bucket's ids hit
    whole row groups. Available bucket count grows with the corpus
    (more row groups), exactly the scaling the frontier shuffle needs.
    """
    if _is_lance(path):
        # Lance fragment manifests don't expose per-fragment key min/max
        # through a stable public API; sample the key column instead
        # (one column, fragment-parallel scan) to cut the key space.
        import lance

        ds = lance.dataset(path)
        keys = np.sort(as_key_array(ds.to_table(columns=[key_col])[key_col]))
        if keys.dtype.kind == "U":
            keys = keys.astype("S")
        n = len(keys)
        k = min(num_buckets, max(1, n // 4096))
        if k <= 1:
            return np.zeros(0, dtype="S1")
        return keys[(np.arange(1, k) * n) // k]
    mds = [_open_parquet(p).metadata for p in _parquet_parts(path)]
    if sum(md.num_row_groups for md in mds) <= 1:
        return np.zeros(0, dtype="S1")
    leaf = None
    for md in mds:
        if md.num_row_groups:
            rg0 = md.row_group(0)
            for i in range(rg0.num_columns):
                if rg0.column(i).path_in_schema == key_col:
                    leaf = i
                    break
            break
    if leaf is None:
        return np.zeros(0, dtype="S1")
    maxs = []
    for md in mds:
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(leaf).statistics
            if st is None or not st.has_min_max:
                return np.zeros(0, dtype="S1")
            maxs.append(st.max if isinstance(st.max, bytes) else str(st.max).encode())
    arr = np.sort(np.array(maxs, dtype="S"))
    n = len(arr)
    k = min(num_buckets, n)
    idx = (np.arange(1, k) * n) // k
    return arr[idx]


class RangeStore:
    """Row-group-range-partitioned point lookup over a key-sorted
    parquet file. Holds the range index only; row groups load on demand
    (memory-mapped) into an LRU of ``max_cached`` row groups."""

    def __init__(self, path: str, key_col: str, max_cached: int = 16):
        self.path = path
        self.key_col = key_col
        # one logical table = one file OR an ordered list of part files
        # (sharded layout); row groups index globally across parts in
        # (file, row-group) order, which IS key order — the writer emits
        # parts in key order
        self.pfs = [_open_parquet(p) for p in _parquet_parts(path)]
        self.n_rows = sum(pf.metadata.num_rows for pf in self.pfs)
        # leaf-column index of the (top-level) key column
        self._leaf_idx = None
        for pf in self.pfs:
            md = pf.metadata
            if md.num_row_groups:
                rg0 = md.row_group(0)
                for i in range(rg0.num_columns):
                    if rg0.column(i).path_in_schema == key_col:
                        self._leaf_idx = i
                        break
                break
        mins, maxs = [], []
        self._rg_map: list[tuple[int, int]] = []  # global rg → (file, local rg)
        if self._leaf_idx is not None:
            for fi, pf in enumerate(self.pfs):
                md = pf.metadata
                for g in range(md.num_row_groups):
                    st = md.row_group(g).column(self._leaf_idx).statistics
                    if st is None or not st.has_min_max:
                        raise ValueError(f"{path}: no min/max statistics for {key_col}")
                    mins.append(st.min if isinstance(st.min, bytes) else str(st.min).encode())
                    maxs.append(st.max if isinstance(st.max, bytes) else str(st.max).encode())
                    self._rg_map.append((fi, g))
        self.rg_min = np.array(mins, dtype="S") if mins else np.zeros(0, dtype="S1")
        self.rg_max = np.array(maxs, dtype="S") if maxs else np.zeros(0, dtype="S1")
        self._cache: OrderedDict[int, tuple[np.ndarray, pa.Table]] = OrderedDict()
        self._max_cached = max_cached

    @property
    def pf(self) -> pq.ParquetFile:  # single-file compatibility accessor
        return self.pfs[0]

    def __len__(self) -> int:
        return self.n_rows

    def _load(self, rg: int) -> tuple[np.ndarray, pa.Table]:
        hit = self._cache.get(rg)
        if hit is not None:
            self._cache.move_to_end(rg)
            return hit
        fi, local_rg = self._rg_map[rg]
        tbl = self.pfs[fi].read_row_group(local_rg)
        keys = as_key_array(tbl[self.key_col])
        if keys.dtype.kind == "U":
            keys = keys.astype("S")
        entry = (keys, tbl)
        self._cache[rg] = entry
        while len(self._cache) > self._max_cached:
            self._cache.popitem(last=False)
        return entry

    def fetch(self, ids: np.ndarray) -> tuple[pa.Table, np.ndarray]:
        """ids → (rows for the found ids, found mask aligned to input).

        Missing ids are simply absent from the result — the reference
        treats unfetchable persons as silently unresolved
        (``fsapi.py:139-143`` only processes returned persons). Output
        rows are grouped by owning row group (≈ key-sorted), not input
        order; all consumers key on the id column.
        """
        ids = np.asarray(ids)
        n = len(ids)
        found = np.zeros(n, dtype=bool)
        if n == 0 or self.n_rows == 0 or len(self.rg_max) == 0:
            return self.pf.schema_arrow.empty_table(), found
        ids_b = ids.astype("S") if ids.dtype.kind == "U" else ids
        if ids_b.dtype.itemsize != self.rg_max.dtype.itemsize:
            w = max(ids_b.dtype.itemsize, self.rg_max.dtype.itemsize)
            ids_b = ids_b.astype(f"S{w}")
        rg_max = self.rg_max.astype(ids_b.dtype)
        rg_of = np.searchsorted(rg_max, ids_b, side="left")
        in_range = rg_of < len(rg_max)
        parts: list[pa.Table] = []
        for rg in np.unique(rg_of[in_range]):
            sel = np.nonzero(rg_of == rg)[0]
            keys, tbl = self._load(int(rg))
            want = ids_b[sel].astype(keys.dtype)
            pos = np.searchsorted(keys, want)
            pos_c = np.minimum(pos, len(keys) - 1)
            ok = (pos < len(keys)) & (keys[pos_c] == want)
            if ok.any():
                parts.append(tbl.take(pa.array(pos_c[ok])))
                found[sel[ok]] = True
        if not parts:
            return self.pf.schema_arrow.empty_table(), found
        return pa.concat_tables(parts), found


class LanceRangeStore:
    """``RangeStore``'s contract over a Lance table (the
    ``BASELINE.json`` input_hint format). Point lookups go through
    ``lance.dataset(path).to_table(filter=key IN ids)`` — Lance pushes
    the predicate into fragment zone-maps / scalar indices, so a batch
    of (sorted, range-clustered) ids touches only the fragments owning
    them: the exact fragment-``take`` analog of ``RangeStore``'s
    row-group loads. Requires the ``lance`` package (not installed in
    this sandbox; the class import-gates and the conformance test
    ``tests/test_storage.py`` skips without it)."""

    def __init__(self, path: str, key_col: str):
        import lance  # import-gated: optional dependency

        self.ds = lance.dataset(path)
        self.key_col = key_col
        self.n_rows = self.ds.count_rows()

    def __len__(self) -> int:
        return self.n_rows

    def fetch(self, ids: np.ndarray) -> tuple[pa.Table, np.ndarray]:
        import pyarrow.compute as pc

        ids = np.asarray(ids)
        n = len(ids)
        found = np.zeros(n, dtype=bool)
        if n == 0 or self.n_rows == 0:
            return self.ds.schema.empty_table(), found
        want = pa.array(ids.astype("U")) if ids.dtype.kind in "SU" else pa.array(ids)
        tbl = self.ds.to_table(filter=pc.field(self.key_col).isin(want))
        got = as_key_array(tbl[self.key_col])
        keys = as_key_array(pa.chunked_array([want]))
        found[np.isin(keys, got)] = True
        return tbl, found


def _is_lance(path: str) -> bool:
    return path.rstrip("/").endswith(".lance")


def _is_jsonl(path: str) -> bool:
    return path.rstrip("/").endswith((".jsonl", ".json"))


def open_range_store(path: str, key_col: str):
    """Worker-global store cache: stateless map tasks share one range
    index + row-group LRU per (path, key, file identity) per worker
    process — the setup-once property of an actor pool without pinning
    the stage to actors. The identity (size and mtime of every part
    file) makes a table rewritten at the same path open afresh instead
    of being served from the old file's index and row groups.
    ``*.lance`` paths get the Lance fragment-take backend."""
    from fs_crawler_ray.sources import storage as st

    parts = [path] if _is_lance(path) else _parquet_parts(path)
    return _open_store(path, key_col, tuple(st.file_identity(p) for p in parts))


@lru_cache(maxsize=8)
def _open_store(path: str, key_col: str, identity: tuple):
    if _is_lance(path):
        return LanceRangeStore(path, key_col)
    return RangeStore(path, key_col)


open_range_store.cache_clear = _open_store.cache_clear


class DocStore:
    """Point-lookup view of the document corpus (the synthetic "web")."""

    def __init__(self, documents_path: str):
        self.store = (LanceRangeStore(documents_path, "doc_id")
                      if _is_lance(documents_path) else RangeStore(documents_path, "doc_id"))

    def __len__(self) -> int:
        return len(self.store)

    def fetch(self, ids: np.ndarray) -> tuple[pa.Table, np.ndarray]:
        return self.store.fetch(ids)
