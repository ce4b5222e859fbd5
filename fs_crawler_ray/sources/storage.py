"""Checkpoint / corpus IO behind fsspec URIs.

The crawl's checkpoint writers (a hop's fetch blocks and its
``_HopSink``) write parquet parts from worker processes; written with
``pq.write_table`` to plain OS paths, that silently requires every
node of a multi-node cluster to mount the same POSIX filesystem. This
module makes the shared-storage assumption EXPLICIT: every path the
crawl reads or writes goes through these helpers, which accept either a
plain local path (the sandbox default, zero overhead) or any fsspec URI
(``s3://``, ``gcs://``, ``hdfs://``, ``file://`` …) — the
deployment-scale configuration is "point ``out_dir`` at the shared
object store".

Caveats, stated honestly:
- ``memory://`` is per-PROCESS — fine for driver-only unit tests,
  useless for a real crawl (Ray workers are separate processes).
- ``replace()`` is atomic on local filesystems (``os.replace``); on
  object stores it degrades to copy-then-delete — the hop-complete
  marker protocol tolerates this (a torn ``log.json`` is re-done, never
  trusted half-written, because resume re-runs any hop whose marker
  fails to parse).

The Lance-native backend (``lance.dataset().take`` behind
``RangeStore``'s contract, per ``BASELINE.json`` input_hint) slots in
at ``doc_table.py``; the ``lance`` package is not installed in this
sandbox, so parquet-over-fsspec is the implemented path and the
interface is the documented seam.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data import Datasource, ReadTask
from ray.data.block import BlockMetadata


def is_uri(path: str) -> bool:
    return "://" in path


def fs_path(path: str):
    """→ (fsspec filesystem, protocol-stripped path). Imported lazily so
    plain-path use never touches fsspec."""
    import fsspec

    return fsspec.core.url_to_fs(path)


def join(base: str, *parts: str) -> str:
    if is_uri(base):
        return "/".join([base.rstrip("/"), *parts])
    return os.path.join(base, *parts)


def exists(path: str) -> bool:
    if is_uri(path):
        fs, p = fs_path(path)
        return fs.exists(p)
    return os.path.exists(path)


def isdir(path: str) -> bool:
    if is_uri(path):
        fs, p = fs_path(path)
        return fs.isdir(p)
    return os.path.isdir(path)


def listdir(path: str) -> list[str]:
    """Basenames, sorted (parquet part files are globbed by suffix)."""
    if is_uri(path):
        fs, p = fs_path(path)
        return sorted(x.rstrip("/").rsplit("/", 1)[-1] for x in fs.ls(p, detail=False))
    return sorted(os.listdir(path))


def makedirs(path: str, exist_ok: bool = True) -> None:
    if is_uri(path):
        fs, p = fs_path(path)
        fs.makedirs(p, exist_ok=exist_ok)
        return
    os.makedirs(path, exist_ok=exist_ok)


def rmtree(path: str) -> None:
    if is_uri(path):
        fs, p = fs_path(path)
        if fs.exists(p):
            fs.rm(p, recursive=True)
        return
    shutil.rmtree(path)


def remove(path: str) -> None:
    if is_uri(path):
        fs, p = fs_path(path)
        fs.rm(p)
        return
    os.remove(path)


def file_identity(path: str) -> tuple:
    """(size, modification time) of a file or directory: a file
    rewritten at the same path gets a new identity."""
    if is_uri(path):
        fs, p = fs_path(path)
        info = fs.info(p)
        mtime = [info[k] for k in ("mtime", "LastModified", "updated", "created") if k in info]
        return info.get("size"), str(mtime[:1])
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def open_file(path: str, mode: str = "rb"):
    if is_uri(path):
        fs, p = fs_path(path)
        return fs.open(p, mode)
    return open(path, mode)


def replace(src: str, dst: str) -> None:
    """Atomic on local filesystems; copy-then-delete semantics on object
    stores (see module docstring for why the marker protocol tolerates
    that)."""
    if is_uri(src):
        fs, s = fs_path(src)
        _, d = fs_path(dst)
        fs.mv(s, d)
        return
    os.replace(src, dst)


def write_table(tbl: pa.Table, path: str) -> None:
    if is_uri(path):
        with open_file(path, "wb") as f:
            pq.write_table(tbl, f)
        return
    pq.write_table(tbl, path)


def read_table(path: str, columns: list[str] | None = None) -> pa.Table:
    with open_file(path) if is_uri(path) else contextlib.nullcontext(path) as src:
        return pq.read_table(src, columns=columns)


def footer(path: str) -> pq.FileMetaData:
    if is_uri(path):
        with open_file(path, "rb") as f:
            return pq.read_metadata(f)
    return pq.read_metadata(path)


def file_rows(path: str) -> int:
    return footer(path).num_rows


def write_json(obj, path: str) -> None:
    with open_file(path, "wt") as f:
        json.dump(obj, f)


def read_json(path: str):
    with open_file(path, "rt") as f:
        return json.load(f)


def read_parquet(paths, **kwargs):
    """ray.data.read_parquet that resolves fsspec URIs through an Arrow
    filesystem handler (plain local paths pass straight through)."""
    import ray.data

    plist = paths if isinstance(paths, list) else [paths]
    if not any(is_uri(p) for p in plist):
        return ray.data.read_parquet(paths, **kwargs)
    from pyarrow.fs import FSSpecHandler, PyFileSystem

    fs, _ = fs_path(plist[0])
    stripped = [fs_path(p)[1] for p in plist]
    return ray.data.read_parquet(
        stripped if isinstance(paths, list) else stripped[0],
        filesystem=PyFileSystem(FSSpecHandler(fs)), **kwargs,
    )


def read_pieces(pieces: list, schema: pa.Schema, filters: dict | None = None) -> pa.Table:
    """The rows of ``(file, row groups, skip, take)`` pieces, in order:
    for each, only those row groups of ``schema``'s columns, put through
    the Arrow filter expression ``filters`` holds for the file (if any),
    then rows ``[skip, skip + take)`` of what is left."""
    tables = []
    for path, groups, skip, take in pieces:
        with open_file(path) if is_uri(path) else contextlib.nullcontext(path) as src:
            t = pq.ParquetFile(src).read_row_groups(groups, columns=schema.names)
        if filters and path in filters:
            t = t.filter(filters[path])
        t = t.slice(skip, take)
        tables.append(t if t.schema.equals(schema) else t.cast(schema))
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _read_task(pieces: list, schema: pa.Schema):
    yield read_pieces(pieces, schema)


def row_ranges(rows: int, num_blocks: int) -> list[tuple[int, int]]:
    """``num_blocks`` even ``[lo, hi)`` ranges of ``rows`` rows (1 to ``rows``)."""
    k = max(1, min(num_blocks, rows))
    bounds = [rows * i // k for i in range(k + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


class PartsDatasource(Datasource):
    """Parquet part files as one run of rows, in file order, planned on
    the driver from their footers (read once, or the caller's
    ``footers``): :meth:`pieces` cuts a row range into the pieces
    :func:`read_pieces` reads, in a Ray Data read task or in a task of
    the caller's own. So a read runs no remote task to plan itself
    (``ray.data.read_parquet`` samples fragments and, above 24 files,
    fetches footers in remote tasks). No hive column is added. ``kept``
    maps a file's index to the rows a filter keeps of it, read as one
    run over all its row groups (:func:`read_pieces` takes the filter)."""

    def __init__(self, files: list[str], columns: list[str] | None = None, footers=None,
                 kept: dict[int, int] | None = None):
        if not files:
            raise ValueError("read_parts needs at least one part file")
        metas = footers if footers is not None else [footer(f) for f in files]
        schema = metas[0].schema.to_arrow_schema()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns], metadata=schema.metadata)
        self.files, self.schema = list(files), schema
        kept = kept or {}
        self._runs = []  # (file index, row groups, rows)
        for i, md in enumerate(metas):
            groups = list(range(md.num_row_groups))
            self._runs += ([(i, groups, kept[i])] if i in kept else
                           [(i, [g], md.row_group(g).num_rows) for g in groups])
        self._ends = np.cumsum([n for _, _, n in self._runs], dtype=np.int64)
        self.num_rows = int(self._ends[-1]) if self._runs else 0
        self._bytes = sum(md.row_group(g).total_byte_size
                          for md in metas for g in range(md.num_row_groups))

    def estimate_inmemory_data_size(self) -> int:
        return self._bytes

    def pieces(self, lo: int, hi: int) -> list[tuple]:
        """The ``(file, row groups, skip, take)`` pieces of rows [lo, hi)."""
        pieces = []
        first = int(np.searchsorted(self._ends, lo, side="right"))
        for (f, groups, n), end in zip(self._runs[first:], self._ends[first:]):
            start = int(end) - n
            if start >= hi:
                break
            take = min(hi, start + n) - max(lo, start)
            if pieces and pieces[-1][0] == f:
                pieces[-1][1].extend(groups)
                pieces[-1][3] += take
            elif n:
                pieces.append([f, list(groups), max(0, lo - start), take])
        return [(self.files[f], gs, skip, take) for f, gs, skip, take in pieces]

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        tasks = []
        for lo, hi in row_ranges(self.num_rows, parallelism):
            pieces = self.pieces(lo, hi)
            meta = BlockMetadata(num_rows=hi - lo, exec_stats=None,
                                 size_bytes=self._bytes * (hi - lo) // max(1, self.num_rows),
                                 input_files=list(dict.fromkeys(p[0] for p in pieces)))
            tasks.append(ReadTask(functools.partial(_read_task, pieces, self.schema), meta,
                                  schema=self.schema))
        return tasks


def read_parts(files: list[str], columns: list[str] | None = None, num_blocks=None,
               footers=None):
    """The rows of parquet part files, in file order, as a Dataset of
    ``num_blocks`` contiguous row ranges (:class:`PartsDatasource`).
    ``num_blocks`` is a count, a function of the files' total rows, or
    None for one block per file; it is capped at the row count, and a
    read of zero rows is one block of the schema's empty table.
    ``footers``: the files' footers, if the caller has read them."""
    import ray.data

    src = PartsDatasource(files, columns, footers)
    if callable(num_blocks):
        num_blocks = num_blocks(src.num_rows)
    num_blocks = min(len(files) if num_blocks is None else num_blocks, src.num_rows)
    return ray.data.read_datasource(src, override_num_blocks=max(1, num_blocks))
