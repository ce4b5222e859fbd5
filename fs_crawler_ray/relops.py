"""Generic, scale-aware relational operators over ``ray.data.Dataset``.

These are the reusable building blocks the crawl engine and the
``queries()`` surface share. Design rules (SURVEY §4):

- dedup/distinct shuffle by a HASH BUCKET of the key, not the raw key:
  ``groupby(bucket).map_groups`` gives one map_groups call per bucket
  (``num_buckets`` ≈ a few × cores, scales with cluster size), and the
  per-bucket body is vectorized pandas — avoiding one Python call per
  distinct key;
- small-side joins broadcast via ``ray.put`` and merge inside
  ``map_batches`` (no shuffle);
- pre-aggregation happens inside ``map_batches`` before any groupby.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

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


def _add_bucket(ds: ray.data.Dataset, key_cols: list[str], num_buckets: int) -> ray.data.Dataset:
    def add(batch: pa.Table) -> pa.Table:
        b = hash_buckets([batch[c] for c in key_cols], num_buckets)
        return batch.append_column(_BUCKET_COL, pa.array(b))

    return ds.map_batches(add, batch_format="pyarrow")


def _keep_first_arrow(t: pa.Table, key_cols: list[str], order_cols: list,
                      drop: list[str] | None = None) -> pa.Table:
    """Arrow-native keep-first: sort by ``order_cols`` (Arrow's sort is
    stable; entries are column names or ``(name, "descending")``
    tuples), keep the first occurrence of each key via
    ``dictionary_encode`` + first-index — no pandas round trip on the
    per-hop hot dedup path. Deterministic whenever the order tuple is
    unique per key occurrence (true for every caller: edge
    (hop, src_doc, offset), event (ts, event_id), full-row distinct)."""
    if drop and len(t) == 0:
        return t.drop_columns([c for c in drop if c in t.column_names])
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
    out = t2.take(pa.array(first))
    if drop:
        out = out.drop_columns([c for c in drop if c in out.column_names])
    return out


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

    def pre(t: pa.Table) -> pa.Table:
        return _keep_first_arrow(t, key_cols, order_cols)

    def per_bucket(t: pa.Table) -> pa.Table:
        return _keep_first_arrow(t, key_cols, order_cols, drop=[_BUCKET_COL])

    pre_ds = ds.map_batches(pre, batch_format="pyarrow")
    return _add_bucket(pre_ds, key_cols, num_buckets).groupby(
        _BUCKET_COL, num_partitions=num_buckets
    ).map_groups(
        per_bucket, batch_format="pyarrow"
    )


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
        t = t.drop_columns([_BUCKET_COL])
        res = t.group_by(key_cols, use_threads=False).aggregate(
            [(c, fn) for c, fn, _ in aggs])
        cols = {k: res[k] for k in key_cols}
        for c, fn, out in aggs:
            cols[out] = res[f"{c}_{fn}"]
        return pa.table(cols)

    return _add_bucket(ds, key_cols, num_buckets).groupby(
        _BUCKET_COL, num_partitions=num_buckets
    ).map_groups(per_bucket, batch_format="pyarrow")


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
    ``full_outer``). Pass ``left_schema``/``right_schema`` when a side
    comes out of a shuffle (groupby/map_groups): ``Dataset.schema()``
    on such a side executes its whole upstream plan just to learn the
    column types — at scale that is a full extra pass.
    ``right_unique=True`` raises ``ValueError`` when a non-null right
    key occurs twice (a bucket holds every row of its keys, so the check
    is exact) instead of multiplying left rows."""
    right_on = right_on or on
    semi_anti = how in ("left_semi", "left_anti")
    if semi_anti:
        right = right.select_columns(list(right_on))
        right_schema = None  # key-only side: derive from the projection
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

    out_schema = pa.schema([(c, fields[c]) for c in keep_l + keep_r])

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
        if t.num_columns == 0 or len(t) == 0:
            # empty shuffle partitions arrive as zero-column bundles
            return out_schema.empty_table()
        t = t.drop_columns([_BUCKET_COL])
        # re-align dtypes: the sort shuffle can round-trip blocks
        # through pandas, which rewrites an ALL-null typed column (one
        # side contributed no rows in this bucket) to Arrow `null` —
        # acero then rejects it as a join field. Restore the declared
        # dtype (the column is all-null by construction, so this is a
        # pure type fix, no data change).
        for i, c in enumerate(t.column_names):
            want = fields.get(c)
            if (want is not None and pa.types.is_null(t.column(i).type)
                    and not pa.types.is_null(want)):
                t = t.set_column(i, c, pa.nulls(len(t), want))
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

    return both.map_batches(add_bucket, batch_format="pyarrow").groupby(
        _BUCKET_COL, num_partitions=num_buckets
    ).map_groups(per_bucket, batch_format="pyarrow")


def _add_range_bucket(ds: ray.data.Dataset, key_col: str, num_buckets: int,
                      boundaries: np.ndarray | None = None) -> ray.data.Dataset:
    """Bucket by key RANGE instead of hash — output buckets are
    contiguous key ranges, so a downstream consumer that wants
    range-clustered blocks (e.g. the partition-local fetch) gets them
    from THIS shuffle for free. ``boundaries``: sorted cut points
    sampled from the real key distribution (corpus row-group stats);
    without them a first-two-chars prefix heuristic is used, which
    degenerates for dense sequential ids — pass boundaries whenever
    available."""
    from fs_crawler_ray.ids import range_bucket_of

    boundaries = thin_boundaries(boundaries, num_buckets)

    def add(batch: pa.Table) -> pa.Table:
        from fs_crawler_ray.ids import as_key_array

        # boundaries is ≤ num_buckets-1 short byte strings — closure
        # capture (task-spec inline), no object-store round trip
        b = range_bucket_of(as_key_array(batch[key_col]), num_buckets,
                            boundaries=boundaries)
        return batch.append_column(_BUCKET_COL, pa.array(b))

    return ds.map_batches(add, batch_format="pyarrow")


def distinct(ds: ray.data.Dataset, key_cols: list[str], num_buckets: int = 64,
             range_bucket: bool = False,
             range_boundaries: np.ndarray | None = None) -> ray.data.Dataset:
    """Distinct rows by key (deterministic representative: smallest full
    row). Per-batch pre-dedup before the shuffle (hot-key mitigation,
    same argument as :func:`dedup_keep_first`). ``range_bucket=True``
    buckets by the first key column's RANGE, emitting range-clustered,
    internally-sorted blocks. Both passes are Arrow kernels."""

    def pre(t: pa.Table) -> pa.Table:
        return _keep_first_arrow(t, key_cols, list(t.column_names))

    def per_bucket(t: pa.Table) -> pa.Table:
        order = [c for c in t.column_names if c != _BUCKET_COL]
        return _keep_first_arrow(t, key_cols, order, drop=[_BUCKET_COL])

    pre_ds = ds.map_batches(pre, batch_format="pyarrow")
    if range_bucket:
        bucketed = _add_range_bucket(pre_ds, key_cols[0], num_buckets,
                                     boundaries=range_boundaries)
    else:
        bucketed = _add_bucket(pre_ds, key_cols, num_buckets)
    return bucketed.groupby(_BUCKET_COL, num_partitions=num_buckets).map_groups(
        per_bucket, batch_format="pyarrow")


def broadcast_semi_join(
    ds: ray.data.Dataset,
    keys: Iterable[str] | np.ndarray,
    column: str,
    anti: bool = False,
) -> ray.data.Dataset:
    """Semi/anti join against a small key set: ``ray.put`` the set once,
    filter inside map_batches (no shuffle). For key sets too big to
    broadcast use the membership shard actors instead
    (:class:`fs_crawler_ray.crawl.MembershipStage`). A null key never
    matches (SQL semi-join semantics): nulls leave the broadcast set."""
    # stateless task + ray.get of the broadcast set: the object is
    # plasma-local after first access, and stateless tasks avoid
    # per-execution actor-pool startup/teardown churn (measured: actor
    # pools made small executions 2-3× slower on wide clusters)
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        # zero-copy path (semi_anti_join): broadcast the key column in
        # its ORIGINAL Arrow dtype — no Python key list, no string
        # coercion, so is_in needs no value_set cast at probe time
        ka = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
        ref = ray.put(pc.unique(ka).drop_null())
    else:
        arr = np.asarray(list(keys) if not isinstance(keys, np.ndarray) else keys)
        if arr.dtype.kind == "S":
            arr = arr.astype("U")
        ref = ray.put(pa.array(np.unique(arr).astype("U")))

    def filt(batch: pa.Table) -> pa.Table:
        value_set = ray.get(ref)  # plasma-local after first access
        mask = pc.is_in(batch[column], value_set=value_set)
        return batch.filter(pc.invert(mask) if anti else mask)

    return ds.map_batches(filt, batch_format="pyarrow")


def broadcast_lookup_join(
    ds: ray.data.Dataset,
    lookup_df: pd.DataFrame,
    on: str,
    right_on: str | None = None,
    how: str = "left",
) -> ray.data.Dataset:
    """Broadcast hash join with a small dimension table: the table is put
    in the object store once and merged per batch (SURVEY §2.4 J2/J3/J5
    small-side pattern)."""
    ref = ray.put(lookup_df)
    r_on = right_on or on

    def join_fn(batch: pd.DataFrame) -> pa.Table:
        small: pd.DataFrame = ray.get(ref)  # plasma-local after first access
        m = batch.merge(small, how=how, left_on=on, right_on=r_on)
        # emit Arrow: downstream Project (select/rename) operators
        # assume Arrow blocks in this Ray version
        return pa.Table.from_pandas(m, preserve_index=False)

    # batch_format="pandas" is deliberate here (pandas-merge semantics):
    # merge's left-row-order + right-duplicate expansion contract is what
    # the conformance oracles pin, and pyarrow Table.join guarantees no
    # output order. The per-batch pandas round-trip is bounded by the
    # batch, and the small side is already a DataFrame in plasma.
    return ds.map_batches(join_fn, batch_format="pandas")


#: Right sides at or below this row count are broadcast instead of
#: shuffle-joined — faster, and it sidesteps a Ray 2.49 Dataset.join
#: failure when a hash partition of the right side is empty (pyarrow
#: acero receives a schema-less empty table).
BROADCAST_LIMIT = 2_000_000


def semi_anti_join(
    ds: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str,
    anti: bool = False,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Semi/anti join, broadcasting the right key set when it is small
    (the common case for filter sets like invalid children, frontier
    ids), shuffle-joining otherwise."""
    right = right.materialize()  # sized AND reused — never execute twice
    n = right.count()
    if n == 0:
        # before collecting: an empty right side's blocks may all be
        # schema-less, which would leave nothing to concatenate
        return ds if anti else ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")
    if n <= BROADCAST_LIMIT:
        # collect the key COLUMN as Arrow (concat of block refs — no
        # per-row Python comprehension over up to 2M keys, VERDICT r4
        # item 4) and broadcast it in its original dtype
        # to_arrow_refs can hand back the UN-projected materialized
        # blocks (the lazy select_columns is not reliably applied):
        # materialize the projection so only the key column crosses to
        # the driver, and select per block as belt-and-braces
        blocks = ray.get(
            right.select_columns([right_on]).materialize().to_arrow_refs())
        # empty shuffle partitions yield schema-LESS empty blocks —
        # skip them (select would KeyError); n > 0 so at least one block
        # carries the column
        keys = pa.concat_tables(
            b.select([right_on]) for b in blocks
            if right_on in b.schema.names).column(right_on)
        return broadcast_semi_join(ds, keys, on, anti=anti)
    # large-key-set fallback: our bucketed hash_join, NOT Dataset.join —
    # the built-in's aggregator KeyErrors on one-sided shuffle
    # partitions (see hash_join's docstring), which a filtered left vs
    # a >BROADCAST_LIMIT right key set can easily produce
    return hash_join(
        ds, right.select_columns([right_on]),
        on=[on], right_on=[right_on],
        how="left_anti" if anti else "left_semi",
        num_buckets=num_partitions,
    )


def lookup_join(
    ds: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str,
    how: str = "inner",
    num_partitions: int = 16,
    right_schema: pa.Schema | None = None,
) -> ray.data.Dataset:
    """Hash join that broadcasts a small right side (pandas merge per
    batch; duplicate right keys multiply left rows) and falls back to
    the bucketed :func:`hash_join` for large ones. For a right side
    that is unique on its key use :func:`unique_lookup` (Arrow, no
    pandas).

    ``right_schema``: static schema hint for the right side — REQUIRED
    when the right side can be EMPTY (a zero-row Dataset loses its
    schema entirely, so the per-batch merge would KeyError on the join
    column; the hint reconstructs a typed empty frame instead)."""
    right = right.materialize()  # sized AND reused — never execute twice
    n = right.count()
    if n <= BROADCAST_LIMIT:
        rdf = right.to_pandas()
        if right_on not in rdf.columns and right_schema is not None:
            rdf = right_schema.empty_table().to_pandas()
        out = broadcast_lookup_join(ds, rdf, on=on, right_on=right_on, how="left" if how != "inner" else "inner")
        return out
    # same fallback rationale as semi_anti_join: the bucketed hash_join
    # survives one-sided shuffle partitions where Dataset.join raises
    return hash_join(ds, right, on=[on], right_on=[right_on],
                     how="inner" if how == "inner" else "left_outer",
                     num_buckets=num_partitions)


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
        # empty shuffle partitions yield schema-less empty blocks — skip
        # them; an empty right side keeps its column types when it has any
        blocks = [b.select(right_on + value_cols)
                  for b in ray.get(right.to_arrow_refs()) if b.num_columns]
        schema = pa.schema([(c, pa.null()) for c in right_on + value_cols])
        rtbl = (pa.concat_tables(blocks, promote_options="default") if blocks
                else schema.empty_table())
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
