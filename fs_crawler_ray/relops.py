"""Generic, scale-aware relational operators over ``ray.data.Dataset``.

These are the reusable building blocks the crawl engine and the
``queries()`` surface share. Every per-batch and per-bucket body is an
Arrow/numpy kernel over ``batch_format="pyarrow"`` blocks; this module
never converts a block to pandas. Design rules (SURVEY §4):

- every key-bucketed shuffle is one :func:`shuffle_apply`: rows go to
  an integer bucket in a known range ``[0, num_buckets)`` (a HASH
  BUCKET of the key through :func:`hash_buckets`, or the caller's own
  bucket column), the rows move on cut points computed from that range
  (no sampled boundaries), and the body runs once per bucket as one
  Arrow kernel across all of the bucket's keys, avoiding one Python
  call per distinct key, in the exchange's plain reduce tasks. This
  module owns the shuffle backend; no other module groups by a bucket;
- :func:`join` is the one join entry point (inner / left / semi /
  anti). A right side at or below :data:`BROADCAST_LIMIT` rows is
  collected as Arrow, built into one sorted hash side and ``ray.put``
  once; each left batch probes it with ``index_in``/``is_in`` inside
  ``map_batches`` (no shuffle). A larger right side goes through one
  bucketed :func:`hash_join`, which also serves the full/right outer
  joins. :func:`unique_lookup` is the variant for a right side unique
  on its key, with several probes sharing one broadcast;
- pre-aggregation happens inside ``map_batches`` before any shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data._internal.logical.interfaces import LogicalPlan
from ray.data._internal.logical.operators.from_operators import FromArrow
from ray.data._internal.plan import ExecutionPlan
from ray.data._internal.stats import DatasetStats
from ray.data.block import BlockAccessor, BlockMetadata, BlockMetadataWithSchema
from ray.data.context import DataContext
from ray.data.dataset import MaterializedDataset

from fs_crawler_ray.ids import stable_hash64


def arrow_dtype(typ) -> pa.DataType:
    """Normalize a ``Dataset.schema()`` type entry to an Arrow dtype:
    pandas-backed datasets report PYTHON classes (``object``/``int``/…)
    instead of ``pa.DataType`` — feeding those to ``pa.schema`` /
    ``pa.nulls`` explodes mid-shuffle."""
    if isinstance(typ, pa.DataType):
        return typ
    if typ is object or typ is str:
        return pa.string()
    try:
        return pa.from_numpy_dtype(np.dtype(typ))
    except (TypeError, pa.ArrowNotImplementedError):
        return pa.string()

_BUCKET_COL = "__bucket"


def project(ds: ray.data.Dataset, columns: list[str]) -> ray.data.Dataset:
    """``ds`` with only ``columns``, in that order. A Dataset that has
    exactly these columns already (a read given ``columns=``, e.g.
    ``CrawlResult.vertices(columns=...)``) is returned as it is: after a
    read that splits its blocks, a ``select_columns`` Project cannot fuse
    into the read and runs as tasks of its own. The check reads only a
    schema Ray Data already knows; it never starts an execution."""
    columns = list(columns)
    if ds.columns(fetch_if_missing=False) == columns:
        return ds
    return ds.select_columns(columns)


def blocks_with_rows(ds: ray.data.MaterializedDataset) -> list:
    """The ``(ref, metadata)`` of each non-empty block of ``ds``, in order."""
    return [b for bundle in ds.iter_internal_ref_bundles()
            for b in bundle.blocks if b[1].num_rows]


def from_block_refs(refs: list, blocks: list, schema: pa.Schema,
                    base: pa.Schema) -> ray.data.Dataset:
    """The Dataset of ``refs``, one Arrow block per block of ``blocks``
    (see :func:`blocks_with_rows`) with the same row count, whose
    schema is ``schema``: a per-block task's output over a materialized
    Dataset of schema ``base``. The metadata is built on the driver, so
    no ``get_table_block_metadata_schema`` task runs (the same
    construction as ``ray.data.from_blocks``); a block's size is its
    input's plus the fixed width of each column ``schema`` adds to
    ``base``."""
    row_bytes = sum(f.type.byte_width for f in schema if f.name not in base.names)
    return _materialized(refs, [BlockMetadataWithSchema(
        BlockMetadata(num_rows=m.num_rows, size_bytes=m.size_bytes + row_bytes * m.num_rows,
                      input_files=None, exec_stats=None), schema) for _, m in blocks])


def _materialized(refs: list, metadata: list) -> ray.data.MaterializedDataset:
    """The Dataset of ``refs``, its output set: reading it runs no execution."""
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metadata}, parent=None),
                         DataContext.get_current().copy())
    out = MaterializedDataset(plan, LogicalPlan(FromArrow(refs, metadata), plan._context))
    plan.execute()  # as materialize() does; the source holds its blocks
    return out


def hash_buckets(key_arrays: list, num_buckets: int) -> np.ndarray:
    """int64 bucket in ``[0, num_buckets)`` of each row of a key given
    as one array per key column: the columns' seeded ``stable_hash64``
    mixed in order. Every hash-bucketed shuffle routes through this, so
    a key lands in the same bucket in each of them."""
    h = np.zeros(len(key_arrays[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for i, a in enumerate(key_arrays):
            h = h * np.uint64(0x9E3779B97F4A7C15) + stable_hash64(a, seed=31 + i)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def thin_boundaries(boundaries: np.ndarray | None, num_buckets: int) -> np.ndarray | None:
    """Reduce sorted range cut points to ``num_buckets`` ranges by
    keeping ``num_buckets - 1`` evenly spaced ones, so a small shuffle
    does not pay for the sampled bucket count."""
    if boundaries is None or len(boundaries) + 1 <= num_buckets or num_buckets < 1:
        return boundaries
    n = len(boundaries) + 1
    cut = (np.arange(1, num_buckets) * n) // num_buckets
    return boundaries[cut - 1]


def even_cuts(parts: int, span: int) -> list[int]:
    """The ``parts - 1`` cut points that split the integers
    ``[0, span)`` into ``parts`` even ranges (Python ints, as
    ``Dataset.sort(boundaries=...)`` requires)."""
    return [int(i * span // parts) for i in range(1, parts)]


def partition_count(span: int, ds: ray.data.Dataset) -> int:
    """Partitions of a shuffle of ``ds`` over the buckets ``[0, span)``:
    ``min(span, input blocks)``, 1 when the block count is unknown. The
    block count is the one the plan knows before it runs (checkpoint
    reads size it by rows)."""
    return min(span, ds._plan.initial_num_blocks() or 1)


def sort_by_range(ds: ray.data.Dataset, keys: list[str], span: int,
                  descending: bool = False) -> ray.data.Dataset:
    """``ds`` sorted by ``keys`` in ``P =`` :func:`partition_count`
    blocks of whole ranges of a first key whose values are integers in
    ``[0, span)``: Ray's sort cut at :func:`even_cuts` (no sampled
    boundary), or with P = 1 one ``repartition`` sorted in a task."""
    parts = partition_count(span, ds)
    if parts > 1:
        return ds.sort(keys, descending=descending, boundaries=even_cuts(parts, span))
    order = [(k, "descending" if descending else "ascending") for k in keys]
    return ds.repartition(1).map_batches(lambda t: t.sort_by(order), batch_format="pyarrow",
                                         batch_size=None, zero_copy_batch=True)


def _by_bucket(block, col: str) -> tuple[pa.Table, np.ndarray]:
    """``block`` as Arrow, stable-sorted by its ``col``, and that column."""
    t = BlockAccessor.for_block(block).to_arrow()
    order = np.argsort(t[col].to_numpy(), kind="stable")
    t = t.take(order)
    return t, t[col].to_numpy()


def split_buckets(block, col: str, cuts: list[int]) -> tuple[pa.Table, ...]:
    """The exchange's map step: ``block`` cut into one piece per
    partition, at ``cuts`` of its ``col`` buckets (whole with no cuts)."""
    if not cuts:
        return (BlockAccessor.for_block(block).to_arrow(),)
    t, b = _by_bucket(block, col)
    ends = np.concatenate([[0], np.searchsorted(b, cuts), [len(b)]])
    return tuple(t.slice(lo, hi - lo) for lo, hi in zip(ends[:-1], ends[1:]))


@ray.remote
def _exchange_split(block, col: str, cuts: list[int]) -> tuple:
    return split_buckets(block, col, cuts)


@ray.remote(num_returns=2)
def _exchange_reduce(fn, col: str, drop: bool, *pieces):
    """The exchange's reduce step: ``fn`` once per bucket of one
    partition's pieces; its outputs as one block (with no columns when
    the partition is empty) and that block's metadata."""
    outs = []
    pieces = [t for t in (BlockAccessor.for_block(p).to_arrow() for p in pieces) if t.num_rows]
    if pieces:
        t, b = _by_bucket(pa.concat_tables(pieces, promote_options="default"), col)
        t = t.drop_columns([col]) if drop else t
        starts = np.flatnonzero(np.append(True, b[1:] != b[:-1]))
        for lo, hi in zip(starts, np.append(starts[1:], len(b))):
            out = BlockAccessor.batch_to_block(fn(t.slice(lo, hi - lo)))
            outs.append(BlockAccessor.for_block(out).to_arrow())
    outs = [o for o in outs if o.num_rows] or outs[-1:]
    # Arrow's concat, widening types as Ray's block builder did, keeps the
    # first output's schema metadata; Ray's would hash the schemas, and
    # one holding metadata (a dict) does not hash
    block = pa.concat_tables(outs, promote_options="permissive") if outs else pa.table({})
    return block, BlockMetadataWithSchema.from_block(block)


def exchange_reduce(fn, col: str, drop: bool, pieces: list, parts: int) -> tuple[list, list]:
    """One ``_exchange_reduce`` per partition ``i`` of ``parts``, over
    ``pieces[b][i]`` of every block ``b``: the output block and metadata
    refs, in partition order."""
    fn = ray.put(fn)
    refs, metas = zip(*(_exchange_reduce.remote(fn, col, drop, *(p[i] for p in pieces))
                        for i in range(parts)))
    return list(refs), list(metas)


def shuffle_apply(ds: ray.data.Dataset, fn, *, key_cols: list[str] | None = None,
                  bucket: str | None = None, num_buckets: int) -> ray.data.MaterializedDataset:
    """``fn`` applied once per non-empty bucket, on an Arrow table
    holding every row of that bucket; the result is ``fn``'s outputs,
    materialized (a zero-row input gives blocks with no schema).

    With ``key_cols``, a row's bucket is :func:`hash_buckets` of those
    columns, so all rows of a key meet in one call; the bucket column
    is dropped before ``fn`` runs. With ``bucket``, it is the caller's
    int64 column, holding values in ``[0, num_buckets)``, and it stays
    in the rows.

    ``ds`` executes once; the exchange after it is plain Ray tasks. As
    each non-empty block arrives, an ``_exchange_split``
    (:func:`split_buckets`) cuts it into ``P =`` :func:`partition_count`
    partitions of whole buckets at :func:`even_cuts` (none with P = 1).
    One ``_exchange_reduce`` per partition takes its piece of every
    block (so the shuffle is a barrier) and calls ``fn``. A fixed P
    gave a 1-2 block hop 8 reducers (deep_crawl −30 % URLs per CPU-s);
    Ray's sort plus a Ray Data map for ``fn`` cost an operator more per
    shuffle. A hot key's bucket lands whole in one partition."""
    if (key_cols is None) == (bucket is None):
        raise ValueError("shuffle_apply: pass exactly one of key_cols and bucket")
    col = _BUCKET_COL if bucket is None else bucket
    if key_cols is not None:
        key_cols = list(key_cols)

        def add(t: pa.Table) -> pa.Table:
            return t.append_column(
                col, pa.array(hash_buckets([t[c] for c in key_cols], num_buckets)))

        ds = ds.map_batches(add, batch_format="pyarrow")
    parts = partition_count(num_buckets, ds)
    split = _exchange_split.options(num_returns=parts)
    pieces = [[ref] if parts == 1 else split.remote(ref, col, even_cuts(parts, num_buckets))
              for bundle in ds.iter_internal_ref_bundles()
              for ref, m in bundle.blocks if m.num_rows]
    refs, metas = exchange_reduce(fn, col, key_cols is not None, pieces, parts)
    return _materialized(refs, ray.get(metas))


def _keep_first_arrow(t: pa.Table, key_cols: list[str], order_cols: list) -> pa.Table:
    """Arrow-native keep-first: sort by ``order_cols`` (Arrow's sort is
    stable; entries are column names or ``(name, "descending")``
    tuples), keep the first occurrence of each key via
    ``dictionary_encode`` + first-index — no pandas round trip on the
    per-hop hot dedup path. Deterministic whenever the order tuple is
    unique per key occurrence (true for every caller: edge
    (hop, src_doc, offset), event (ts, event_id), full-row distinct)."""
    if len(t) == 0:
        return t
    idx = pc.sort_indices(
        t, sort_keys=[c if isinstance(c, tuple) else (c, "ascending") for c in order_cols]
    )
    t2 = t.take(idx)
    if len(key_cols) == 1:
        key = t2[key_cols[0]]
        if not pa.types.is_string(key.type):
            key = pc.cast(key, pa.string())
    else:
        parts = [pc.cast(t2[c], pa.string()) for c in key_cols]
        key = pc.binary_join_element_wise(*parts, "\x1f")
    if isinstance(key, pa.ChunkedArray):
        key = key.combine_chunks()
    codes = pc.dictionary_encode(key).indices.to_numpy(zero_copy_only=False)
    first = np.sort(np.unique(codes, return_index=True)[1])
    return t2.take(pa.array(first))


def _probe_key(t: pa.Table, cols: list[str]) -> pa.Array:
    """One probe array per row: the column itself for a one-column key,
    else the columns cast to string and joined on ``\\x1f`` (never
    occurs in ids). A null in any part makes the whole key null."""
    if len(cols) == 1:
        a = t[cols[0]]
    else:
        a = pc.binary_join_element_wise(
            *[pc.cast(t[c], pa.string()) for c in cols], "\x1f")
    return a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a


def dedup_keep_first(
    ds: ray.data.Dataset,
    key_cols: list[str],
    order_cols: list[str],
    num_buckets: int = 64,
) -> ray.data.Dataset:
    """Exact dedup keeping, per key, the row with the smallest
    ``order_cols`` tuple (deterministic keep-first — the distributed
    analog of the reference's first-insert-wins dedup,
    ``graph_memory_impl.py:69-73`` / ``graph_db_impl.py:140-149``).

    A per-batch pre-combiner dedups BEFORE the shuffle, so a hot key
    (e.g. a hot-lineage parent mentioned by thousands of docs) ships at
    most one row per input batch instead of all of them — the
    skew-mitigation for hot lineages (keep-first is associative:
    min-of-mins == global min). Both passes are Arrow kernels."""

    def keep_first(t: pa.Table) -> pa.Table:
        return _keep_first_arrow(t, key_cols, order_cols)

    return shuffle_apply(ds.map_batches(keep_first, batch_format="pyarrow"), keep_first,
                         key_cols=key_cols, num_buckets=num_buckets)


def bucketed_agg(
    ds: ray.data.Dataset,
    key_cols: list[str],
    aggs: list[tuple[str, str, str]],
    num_buckets: int = 32,
) -> ray.data.Dataset:
    """Hash-bucketed grouped aggregation: ``aggs`` is a list of
    ``(in_col, fn, out_name)`` with ``fn`` an Arrow hash-aggregate
    kernel name (``sum``/``min``/``max``/``count``/``mean``).

    Ray's built-in ``groupby(key).sum()`` costs ~1 ms of driver-free
    but PER-GROUP Python in its sort-based Aggregate operator (measured
    ~1.1k groups/s on 26k single-row groups — both shuffle strategies),
    which is catastrophic for high-cardinality keys (vocabularies,
    n-grams, vertex ids). This helper shuffles by a hash BUCKET of the
    key instead (``num_buckets`` ≈ a few × cores) and aggregates each
    bucket with ONE Arrow C++ ``Table.group_by`` call — vectorized
    ACROSS keys, ~100× the built-in on many-group inputs. Callers keep
    Ray's output naming (pass ``out_name="sum(col)"``) so call sites
    stay drop-in."""

    def per_bucket(t: pa.Table) -> pa.Table:
        res = t.group_by(key_cols, use_threads=False).aggregate(
            [(c, fn) for c, fn, _ in aggs])
        cols = {k: res[k] for k in key_cols}
        for c, fn, out in aggs:
            cols[out] = res[f"{c}_{fn}"]
        return pa.table(cols)

    return shuffle_apply(ds, per_bucket, key_cols=key_cols, num_buckets=num_buckets)


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: list[str],
    right_on: list[str] | None = None,
    how: str = "inner",
    num_buckets: int = 16,
    left_schema: pa.Schema | None = None,
    right_schema: pa.Schema | None = None,
    right_unique: bool = False,
) -> ray.data.Dataset:
    """Distributed hash join on ONE key-bucket shuffle: both sides are
    tagged and unioned so one shuffle co-locates them, then each bucket
    runs a single Arrow C++ ``Table.join``. ``how``: ``inner`` /
    ``left_outer`` / ``right_outer`` / ``full_outer`` / ``left_semi`` /
    ``left_anti`` (semi/anti emit left columns only; the right side is
    reduced to its key columns before the shuffle).

    Exists because ``Dataset.join``'s hash-shuffle aggregator builds a
    ZERO-COLUMN table for any partition that received no rows on one
    side and then ``pa.Table.join`` raises ``KeyError`` on the missing
    key column — i.e. the built-in breaks whenever the key space is
    sparse or skewed enough to leave a partition one-sided (Ray 2.49,
    ``execution/operators/join.py:118``). Here both sides ride the same
    bucket, so an empty side is a schema-correct empty slice and the
    outer-join semantics survive.

    Non-key output columns must be disjoint between the sides (rename
    before joining); key columns are merged (coalesced for
    ``full_outer``). Pass ``left_schema``/``right_schema`` for a side
    that can be empty (an empty :func:`shuffle_apply` result has no
    schema) or ends in a lazy map: ``Dataset.schema()`` runs its plan
    just to learn the column types — at scale a full extra pass.
    ``right_unique=True`` raises ``ValueError`` when a non-null right
    key occurs twice (a bucket holds every row of its keys, so the check
    is exact) instead of multiplying left rows."""
    right_on = right_on or on
    semi_anti = how in ("left_semi", "left_anti")
    if semi_anti:
        # key-only side: the key types come from a schema the caller or
        # the unprojected plan already holds, as the projection's own
        # schema() would run the right plan once more to learn them
        known = right_schema if right_schema is not None else right.schema(
            fetch_if_missing=False)
        right = right.select_columns(list(right_on))
        right_schema = None if known is None else pa.schema(
            [(c, arrow_dtype(known.types[known.names.index(c)])) for c in right_on])
    l_sch = left_schema if left_schema is not None else left.schema()
    r_sch = right_schema if right_schema is not None else right.schema()
    l_names = list(l_sch.names)
    r_names = list(r_sch.names)
    r_payload = [c for c in r_names if c not in right_on]
    # a right payload column named like ANY left column (key or payload)
    # would merge into the wrong field; same for a left payload column
    # named like a right key — reject both up front instead of failing
    # inside a shuffle task
    overlap = (set(r_payload) & set(l_names)) | (
        (set(l_names) - set(on)) & set(right_on))
    if overlap:
        raise ValueError(f"non-key columns must be disjoint, got overlap: {sorted(overlap)}")

    # tag + align to the union schema (typed nulls for the other side).
    # Dataset.schema() reports PYTHON classes (object/int/...) for
    # pandas-backed datasets — normalize to Arrow dtypes or the
    # pa.schema/pa.nulls calls below explode mid-shuffle.
    fields: dict[str, pa.DataType] = {}
    for n, typ in zip(l_sch.names, l_sch.types):
        fields[n] = arrow_dtype(typ)
    for n, typ in zip(r_sch.names, r_sch.types):
        typ = arrow_dtype(typ)
        if n in fields and fields[n] != typ:
            raise TypeError(f"column {n!r} has conflicting types {fields[n]} / {typ}")
        fields.setdefault(n, typ)

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            extra = set(t.column_names) - set(fields)
            if extra:  # a wrong schema hint would silently null a column
                raise ValueError(
                    f"hash_join side {side}: columns {sorted(extra)} not in "
                    f"the declared schema {list(fields)}")
            n = len(t)
            arrays = []
            for name, typ in fields.items():
                if name in t.column_names:
                    col = t[name]
                    if isinstance(col, pa.ChunkedArray):
                        col = col.combine_chunks()
                    arrays.append(col if col.type == typ else col.cast(typ))
                else:
                    arrays.append(pa.nulls(n, typ))
            arrays.append(pa.array(np.full(n, side, dtype=np.int8)))
            return pa.Table.from_arrays(arrays, names=list(fields) + ["__side"])

        return fn

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")
    )
    # bucket LEFT rows by `on`, RIGHT rows by `right_on` (they may
    # differ in name; the hash must agree), so one shuffle co-locates
    # join partners
    lo, ro = list(on), list(right_on)

    def add_bucket(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return t.append_column(_BUCKET_COL, pa.array([], pa.int64()))
        # the union schema null-fills the other side's key column, so
        # coalescing yields each row's own key
        keys = [t[lc] if lc == rc else pc.coalesce(t[lc], t[rc].cast(fields[lc]))
                for lc, rc in zip(lo, ro)]
        return t.append_column(_BUCKET_COL, pa.array(hash_buckets(keys, num_buckets)))

    arrow_how = {"inner": "inner", "left_outer": "left outer",
                 "right_outer": "right outer", "full_outer": "full outer",
                 "left_semi": "left semi", "left_anti": "left anti"}[how]
    keep_l = [c for c in l_names]
    keep_r = [] if semi_anti else r_payload

    # an ALL-empty side without a schema hint reports Arrow `null` for
    # its columns (empty pandas/arrow blocks carry no type) — acero
    # rejects null-typed non-key join fields, so those columns sit the
    # join out and come back as nulls (they have no values by
    # construction). Keys can't hit this: a null-typed key implies that
    # side is empty, which short-circuits to an empty/left-only result.
    null_payload = [c for c in keep_l + keep_r
                    if c not in on and c not in right_on
                    and pa.types.is_null(fields[c])]

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.drop_columns([_BUCKET_COL])
        side = t["__side"]
        lt = t.filter(pc.equal(side, 0)).select(
            [c for c in keep_l if c not in null_payload])
        rt = t.filter(pc.equal(side, 1)).select(
            [c for c in list(right_on) + keep_r if c not in null_payload])
        if right_unique:
            rk = _probe_key(rt, list(right_on)).drop_null()
            if len(pc.unique(rk)) != len(rk):
                raise ValueError(f"hash_join: right side not unique on {right_on}")
        joined = lt.join(rt, keys=list(on), right_keys=list(right_on),
                         join_type=arrow_how, coalesce_keys=True)
        for c in null_payload:
            joined = joined.append_column(c, pa.nulls(len(joined)))
        # a right-outer coalesced key keeps the RIGHT name; map it back
        renames = {rc: lc for lc, rc in zip(on, right_on)
                   if rc != lc and rc in joined.column_names
                   and lc not in joined.column_names}
        if renames:
            joined = joined.rename_columns(
                [renames.get(c, c) for c in joined.column_names])
        # stable column order regardless of join type
        return joined.select(keep_l + keep_r)

    return shuffle_apply(both.map_batches(add_bucket, batch_format="pyarrow"), per_bucket,
                         bucket=_BUCKET_COL, num_buckets=num_buckets)


def distinct(ds: ray.data.Dataset, key_cols: list[str], num_buckets: int = 64) -> ray.data.Dataset:
    """Distinct rows by key (deterministic representative: smallest full
    row). Per-batch pre-dedup before the shuffle (hot-key mitigation,
    same argument as :func:`dedup_keep_first`). Both passes are Arrow
    kernels."""

    def keep_first(t: pa.Table) -> pa.Table:
        return _keep_first_arrow(t, key_cols, list(t.column_names))

    return shuffle_apply(ds.map_batches(keep_first, batch_format="pyarrow"), keep_first,
                         key_cols=key_cols, num_buckets=num_buckets)


#: Right sides at or below this row count are broadcast instead of
#: shuffle-joined: faster, and it sidesteps a Ray 2.49 Dataset.join
#: failure when a hash partition of the right side is empty (pyarrow
#: acero receives a schema-less empty table). Read at call time, so
#: patching it to 0 drives every size-aware join down its shuffle path.
BROADCAST_LIMIT = 2_000_000

_HASH_HOW = {"inner": "inner", "left": "left_outer",
             "semi": "left_semi", "anti": "left_anti"}


def _collect_right(right: ray.data.Dataset, cols: list[str] | None = None,
                   schema: pa.Schema | None = None) -> pa.Table:
    """A materialized right side as one Arrow table of ``cols`` (every
    column when None). Empty shuffle partitions yield schema-less empty
    blocks: they are skipped, so a right side with no typed block is an
    empty table typed by ``schema``, or null-typed without one."""
    blocks = [b if cols is None else b.select(cols)
              for b in ray.get(right.to_arrow_refs()) if b.num_columns]
    if blocks:
        return pa.concat_tables(blocks, promote_options="default")
    if schema is not None:
        return schema.empty_table()
    return pa.schema([(c, pa.null()) for c in cols or []]).empty_table()


def _as_cols(key: str | list[str]) -> list[str]:
    return [key] if isinstance(key, str) else list(key)


def join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str | list[str],
    right_on: str | list[str] | None = None,
    how: str = "inner",
    num_partitions: int = 16,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Join ``left`` to ``right`` on ``on`` = ``right_on`` (one column or
    a list, matched by position). ``how``: ``inner``; ``left`` (a left
    row without a match is kept once, its right columns null);
    ``semi`` / ``anti`` (left rows with / without a match, left columns
    only). A null key never matches (SQL semantics), and a duplicate
    right key repeats its left row once per match.

    Output columns are the same on both paths: the left columns, then
    the right's non-key columns (the right key is not emitted; it equals
    the left key on every matched row). A right non-key column named
    like a left column raises ``ValueError``.

    At or below :data:`BROADCAST_LIMIT` right rows the right side is
    collected as Arrow once, null keys dropped and stable-sorted by key;
    its unique keys, each key's first row and run length are ``ray.put``
    once. Each left batch then takes one ``is_in`` (semi/anti) or one
    ``index_in`` plus a ``np.repeat`` expansion (inner/left): no shuffle
    and no pandas. Output order is left rows in order, a key's right
    rows in right order. Above the limit it is one bucketed
    :func:`hash_join`, which keeps no row order.

    ``right_schema``: the right side's schema, for a right side that can
    be empty (an empty Dataset may carry no column types at all)."""
    on = _as_cols(on)
    right_on = on if right_on is None else _as_cols(right_on)
    if how not in _HASH_HOW:
        raise ValueError(f"join: how must be one of {sorted(_HASH_HOW)}, got {how!r}")
    filter_only = how in ("semi", "anti")
    if filter_only:
        right, right_schema = project(right, right_on), None
    right = right.materialize()  # sized AND reused — never execute twice
    if right.count() > BROADCAST_LIMIT:
        return hash_join(left, right, on=on, right_on=right_on, how=_HASH_HOW[how],
                         num_buckets=num_partitions, right_schema=right_schema)

    rtbl = _collect_right(right, right_on if filter_only else
                          (right_schema.names if right_schema is not None else None),
                          right_schema)
    if rtbl.num_columns == 0:  # no typed block and no hint: null-typed keys
        rtbl = pa.schema([(c, pa.null()) for c in right_on]).empty_table()
    rtbl = rtbl.filter(pc.is_valid(_probe_key(rtbl, right_on)))
    payload = [c for c in rtbl.column_names if c not in right_on]
    if filter_only:
        ref = ray.put(pc.unique(_probe_key(rtbl, right_on)))

        def keep(t: pa.Table) -> pa.Table:
            keys = ray.get(ref)  # plasma-local after first access
            if len(keys) == 0:
                return t if how == "anti" else t.slice(0, 0)
            hit = pc.is_in(_probe_key(t, on), value_set=keys, skip_nulls=True)
            return t.filter(pc.invert(hit) if how == "anti" else hit)

        return left.map_batches(keep, batch_format="pyarrow")

    rkeys = _probe_key(rtbl, right_on)
    order = pc.sort_indices(rkeys)  # stable: a key's rows stay in right order
    sk = rkeys.take(order)
    first = np.ones(len(sk), dtype=bool)
    if len(sk) > 1:
        first[1:] = pc.not_equal(sk[1:], sk[:-1]).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(first)
    lengths = np.diff(np.append(starts, len(sk)))
    vals = rtbl.select(payload).take(order).combine_chunks()
    ref = ray.put((sk.filter(pa.array(first)), starts, lengths, vals))

    def probe(t: pa.Table) -> pa.Table:
        keys, starts, lengths, vals = ray.get(ref)  # plasma-local after first access
        clash = set(payload) & set(t.column_names)
        if clash:
            raise ValueError(f"join: non-key columns must be disjoint, got {sorted(clash)}")
        run = (pc.index_in(_probe_key(t, on), value_set=keys, skip_nulls=True)
               if len(keys) else pa.nulls(len(t), pa.int32()))
        run = pc.fill_null(run, -1).to_numpy(zero_copy_only=False)
        hit = run >= 0
        cnt = np.full(len(t), 1 if how == "left" else 0, dtype=np.int64)
        cnt[hit] = lengths[run[hit]]
        base = np.zeros(len(t), dtype=np.int64)
        base[hit] = starts[run[hit]]
        ends = np.cumsum(cnt)
        rows = np.repeat(base - (ends - cnt), cnt) + np.arange(ends[-1] if len(t) else 0)
        matched = np.repeat(hit, cnt)
        out = t.take(pa.array(np.repeat(np.arange(len(t)), cnt)))
        idx = pa.array(rows, mask=~matched)
        for c in payload:
            col = vals[c]
            out = out.append_column(c, col.take(idx) if len(col) else
                                    pa.nulls(len(out), col.type))
        return out

    return left.map_batches(probe, batch_format="pyarrow")


def unique_lookup(
    ds: ray.data.Dataset,
    right: ray.data.Dataset,
    right_on: list[str],
    probes: list[tuple[list[str], dict[str, str]]],
    how: str = "inner",
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Look up left rows in a right side that is UNIQUE on ``right_on``.

    Each probe is ``(left key columns, {right column: output column})``:
    the left key (positionally matched to ``right_on``) finds at most
    one right row, whose columns are appended under the output names.
    Several probes against the same right side (e.g. both endpoints of
    an edge against one vertex table) share one broadcast and one pass.
    ``how="inner"`` drops rows that miss on any probe; ``how="left"``
    keeps them with nulls. A null key never matches (SQL semantics).

    At or below :data:`BROADCAST_LIMIT` right rows the right side is
    collected as Arrow, ``ray.put`` once, and probed per batch with
    ``index_in`` + ``take``: first match, left row order kept, no
    shuffle and no pandas. A right side with a duplicate key raises
    ``ValueError`` (a lookup must not multiply left rows). Above the
    limit each probe is one bucketed :func:`hash_join`, which raises on
    duplicate right keys as well; it keeps no row order."""
    right = right.materialize()  # sized AND reused — never execute twice
    n = right.count()
    value_cols = list(dict.fromkeys(c for _, cols in probes for c in cols))
    if n <= BROADCAST_LIMIT:
        rtbl = _collect_right(right, right_on + value_cols)
        rtbl = rtbl.filter(pc.is_valid(_probe_key(rtbl, right_on)))
        rkeys = _probe_key(rtbl, right_on)
        if len(pc.unique(rkeys)) != len(rkeys):
            raise ValueError(f"unique_lookup: right side not unique on {right_on}")
        ref = ray.put((rkeys, rtbl.select(value_cols)))

        def probe(t: pa.Table) -> pa.Table:
            keys, vals = ray.get(ref)  # plasma-local after first access
            idx = [pc.index_in(_probe_key(t, cols), value_set=keys, skip_nulls=True)
                   if len(keys) else pa.nulls(len(t), pa.int32())
                   for cols, _ in probes]
            if how == "inner":
                hit = idx[0].is_valid()
                for i in idx[1:]:
                    hit = pc.and_(hit, i.is_valid())
                t, idx = t.filter(hit), [i.filter(hit) for i in idx]
            for i, (_, cols) in zip(idx, probes):
                for rc, out in cols.items():
                    t = t.append_column(out, vals[rc].take(i))
            return t

        return ds.map_batches(probe, batch_format="pyarrow")

    # above the limit: one bucketed hash_join per probe, the right key
    # renamed so it cannot collide with a left column of the same name
    out = ds
    for p, (cols, outs) in enumerate(probes):
        keys = [f"__k{p}_{j}" for j in range(len(right_on))]
        side = right.select_columns(right_on + list(outs)).rename_columns(
            dict(zip(right_on, keys)) | outs)
        out = hash_join(out, side, on=list(cols), right_on=keys,
                        how="inner" if how == "inner" else "left_outer",
                        num_buckets=num_partitions, right_unique=True)
    return out
