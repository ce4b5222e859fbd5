"""Checkpoint / corpus IO behind fsspec URIs.

Round 2's checkpoint writers (``BranchCheckpoint``, ``_HopSink``,
``_safe_write``) wrote worker-side ``pq.write_table`` to plain OS paths
— which on a real multi-node cluster silently requires every node to
mount the same POSIX filesystem. This module makes the shared-storage
assumption EXPLICIT: every path the crawl reads or writes goes through
these helpers, which accept either a plain local path (the sandbox
default, zero overhead) or any fsspec URI (``s3://``, ``gcs://``,
``hdfs://``, ``file://`` …) — the deployment-scale configuration is
"point ``out_dir`` at the shared object store".

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

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq


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


def file_rows(path: str) -> int:
    if is_uri(path):
        with open_file(path, "rb") as f:
            return pq.read_metadata(f).num_rows
    return pq.read_metadata(path).num_rows


def write_json(obj, path: str) -> None:
    with open_file(path, "wt") as f:
        json.dump(obj, f)


def read_json(path: str):
    with open_file(path, "rt") as f:
        return json.load(f)


def write_dataset(ds, path: str) -> None:
    """Dataset.write_parquet that resolves fsspec URIs (plain local
    paths pass straight through)."""
    if not is_uri(path):
        ds.write_parquet(path)
        return
    from pyarrow.fs import FSSpecHandler, PyFileSystem

    fs, p = fs_path(path)
    ds.write_parquet(p, filesystem=PyFileSystem(FSSpecHandler(fs)))


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
