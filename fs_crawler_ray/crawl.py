"""The BFS frontier crawl: each hop runs as plain Ray tasks, frontier to sink.

Re-creates the reference's superstep loop (``fscrawler/crawler.py:44-46``
→ ``fsapi.py:194-222`` → graph-store mutations) as one wave of map
tasks and one of reduce tasks per hop, with no Ray Data plan. The
driver plans the hop's blocks from what it holds (the sorted seed
table, or the frontier parts' footers) and runs one :func:`_hop_map`
task per fetch block:

frontier slice (a seed slice, or ``(file, row groups, skip, take)``
pieces, the budget predicate applied to the part holding the cut) →
``processing.parquet`` part → fetch and parse (:func:`_fetch_records`:
politeness token buckets + robots, ids routed by host, or
partition-local row-group lookup in direct mode; one ``miss`` or
``blocked`` record per id that yielded no document) → ``visited``
registration + vertex part → record tagger (per-block pre-combine; every
kind in ONE space of ``n`` buckets: candidates and misses by id range,
edges by hash) → the rows cut into the hop's ``n = min(num_buckets,
blocks)`` partitions, one bucket each. A classifying hop's earlier
edges and a budget's carried-over tail go through the same task with
only their tagger. The driver hands the map refs straight to one
``relops._exchange_reduce`` per partition, which calls
:class:`_HopSink` once, one step per row kind:

- edges: in-hop keep-first dedup (``(hop, src_doc, offset)`` under the
  canonical visit order = sorted id per hop) → cross-hop edge-seen
  filter with DEFERRED adds committed after the hop (retry-safe)
  → ``edges.parquet`` part side-write;
- candidates: distinct → minus the partition's miss ids → filtered
  against ``visited``, unioned with any budget remainder →
  range-clustered ``frontier.parquet`` side-write, one part per
  priority in the partition. This is the ``add_to_frontier`` guard
  ``not in visited and not in processing`` (``graph_memory_impl.py:60-63``):
  by the exchange barrier every frontier id that yielded a document is
  in ``visited``, so ``visited ∪ processing`` is ``visited ∪ misses``,
  and equal ids meet in one range bucket with no membership lookup;
- classify-only rows (a hop that logs edge classification): earlier
  hops' edges, counted within/spanning/frontier against ``visited``
  together with the hop's own written edges; nothing is written.

Each step is one membership call (one RPC per shard host it reaches)
over the whole partition, so sink RPCs grow with partitions, not keys;
the driver gets the sink's count rows with one ``ray.get``. An optional
priority-queue budget takes the best ``(priority, id)`` ids and carries
the rest in the same hop: the frontier's parts, in ``(priority,
bucket)`` name order, are in ``(priority, id)`` order, so the driver
finds the cut from their footers and one part's ids (:func:`_budget_cut`).

Membership mutations are idempotent or deferred-committed and part
names derive from content, so task retries and resume cannot corrupt
state. The LOG row (cumulative edge classification per
``graph_memory_impl.py:106-120`` and the frontier size, summed from the
sink's counts) and per-stage lineage close the hop. The lineage's fetch
counters (the reference's request counter, ``session.py:111,122``) come
from the hop's own rows: ``ids_attempted`` is the head's row count,
``missing`` and ``robots_blocked`` the sink's miss and blocked rows,
``fetched`` the rest; a polite crawl's fetch pool adds ``requests`` and
``politeness_wait_s``. No count travels outside the hop's data, so a
retried task cannot count an id twice. ``log.json`` is written LAST as
the hop-complete marker, so a killed crawl resumes byte-identically
from the last complete hop. :class:`CrawlResult` reads the checkpoint
back as Ray Data Datasets.

Checkpoint layout (one directory per hop — partitioned, resumable output):

    out_dir/settings.json
    out_dir/hop=N/{processing,vertices,edges,frontier}.parquet/  + log.json + lineage.json
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from fs_crawler_ray.corpus import CorpusInfo
from fs_crawler_ray.ids import as_key_array, range_bucket_of
from fs_crawler_ray.model import EDGE_SCHEMA, FRONTIER_SCHEMA, VERTEX_SCHEMA, RelationshipType
from fs_crawler_ray.relops import (even_cuts, exchange_reduce, hash_buckets, split_buckets,
                                   thin_boundaries)
from fs_crawler_ray.sources import storage as st
from fs_crawler_ray.stages.fetch import PolitenessBudget
from fs_crawler_ray.state.fetch_service import FetchPool, FetchStage
from fs_crawler_ray.stages.parse import RECORD_SCHEMA, miss_records, parse_documents
from fs_crawler_ray.state.membership import ShardedMembership
from fs_crawler_ray.state.robots import RobotsPolicy

VISITED = "visited"
EDGES = "edges"
#: a hop's checkpoint tables, by name, with their schemas
_TABLES = {"processing": FRONTIER_SCHEMA, "vertices": VERTEX_SCHEMA,
           "frontier": FRONTIER_SCHEMA, "edges": EDGE_SCHEMA}

#: fetch blocks per CPU for a hop large enough to fill them
#: (``_fetch_rpb``). Per-doc fan-out variance skews task walls ~2.6x,
#: so more/smaller blocks could in principle smooth the straggler tail
#: before the shuffle barrier — measured, waves=2/4 and sink partitions
#: 8/16/32 are indistinguishable inside the ±30% run-to-run drift. A
#: hop below FETCH_WAVES × CPUs × :data:`FETCH_SPLIT_ROWS` ids runs
#: fewer blocks than that
FETCH_WAVES = 2
#: fewest and most rows in a checkpoint-read block in ``_sized_blocks``'
#: auto mode (the floor is measured, see there)
ROWS_PER_TASK = 32_768
MAX_ROWS_PER_TASK = 131_072
#: fewest ids in a direct-mode fetch block of a hop that gives every
#: CPU a block of at least this many (``_fetch_rpb``)
FETCH_SPLIT_ROWS = 4_096
#: fewest ids in a direct-mode fetch block of a smaller hop
FETCH_ROWS_PER_TASK = 16_384


@dataclass
class CrawlConfig:
    hops: int = 3
    num_shards: int = 8
    membership_mode: str = "exact"          # "probabilistic" at scale
    #: caps the keys a probabilistic set's FIRST filter segment is sized
    #: for (the filters start at ``min(shard_capacity, 1 << 16)`` keys
    #: and double as they fill); exact mode ignores it
    shard_capacity: int = 1 << 18
    fetch_concurrency: int = 4              # actor pool size (politeness budget, fsapi.py:25)
    fetch_batch_size: int = 200             # ids per "request" (MAX_PERSONS, fsapi.py:23)
    #: most partitions of a hop's shuffle: a hop runs min(num_buckets,
    #: planned input blocks) of them, one bucket and one sink call each
    num_buckets: int = 64
    politeness: PolitenessBudget | None = None
    robots: RobotsPolicy | None = None
    #: per-hop LOG edge classification: "full" recomputes the
    #: within/spanning/frontier counts every hop (reference
    #: end_iteration semantics); "final" only on the last hop; "off"
    #: never. A classifying hop counts at its own shuffle's sink, which
    #: re-shuffles every earlier hop's edges, so "full" moves
    #: O(hops × edges) rows. Conformance runs use "full"; bench "final".
    log_edge_classification: str = "full"
    #: priority-queue frontier: process at most this many ids per hop
    #: (at least 1), chosen by (priority, id) order; the remainder
    #: carries over to the next hop's frontier with its own priority, in
    #: the same hop. None = reference semantics (whole frontier
    #: per superstep). This is the load-bounding extension the reference
    #: lacks — at 10^10-URL scale hops MUST be budgeted.
    frontier_budget: int | None = None

    def __post_init__(self):
        if self.frontier_budget is not None and self.frontier_budget < 1:
            raise ValueError(f"frontier_budget must be None or at least 1, "
                             f"not {self.frontier_budget}")
        if self.log_edge_classification not in ("full", "final", "off"):
            raise ValueError("log_edge_classification must be 'full', 'final' or 'off', "
                             f"not {self.log_edge_classification!r}")

    def to_json(self) -> dict:
        d = asdict(self)
        d["politeness"] = asdict(self.politeness) if self.politeness else None
        d["robots"] = asdict(self.robots) if self.robots else None
        return d


@dataclass
class CrawlResult:
    out_dir: str
    hops_run: list[int] = field(default_factory=list)
    log: list[dict] = field(default_factory=list)

    def hop_dir(self, hop: int) -> str:
        return _hop_dir(self.out_dir, hop)

    @staticmethod
    def load(out_dir: str) -> "CrawlResult":
        """Reattach to a completed crawl checkpoint on disk."""
        hops = _complete_hops(out_dir)
        if not hops:
            raise FileNotFoundError(f"no complete hops under {out_dir}")
        log = [st.read_json(st.join(_hop_dir(out_dir, h), "log.json")) for h in hops]
        return CrawlResult(out_dir=out_dir, hops_run=hops, log=log)

    def _cat(self, name: str, columns: list[str] | None = None,
             hops: list[int] | None = None) -> ray.data.Dataset:
        paths = [st.join(self.hop_dir(h), name) for h in (hops or self.hops_run)]
        return st.read_parts(_expand_parquet([p for p in paths if st.exists(p)]), columns,
                             _sized_blocks)

    def vertices(self, columns: list[str] | None = None) -> ray.data.Dataset:
        """The vertex table of every hop run, as one read; ``columns``
        narrows the read itself (no Project operator after it)."""
        return self._cat("vertices.parquet", columns)

    def edges(self) -> ray.data.Dataset:
        return self._cat("edges.parquet")

    def frontier(self) -> ray.data.Dataset:
        return self._cat("frontier.parquet", hops=self.hops_run[-1:])

    def processing(self, hop: int) -> ray.data.Dataset:
        return self._cat("processing.parquet", hops=[hop])


# ----------------------------------------------------------------------
# the hop's map tasks
# ----------------------------------------------------------------------
def _fetch_records(ids: pa.Table, fetch, batch_size: int | None,
                   robots: RobotsPolicy | None) -> pa.Table:
    """Frontier rows → parsed records, one batch of ``batch_size`` rows
    at a time (the whole table with None): ``fetch`` (a direct-mode fetch
    function returning one table, or a :class:`FetchStage` yielding
    several) then :func:`parse_documents` on each table, in the fetch's
    own order — FetchStage's fixed actor order keeps a retried task's
    records, and so its content-named parts, identical. After each
    batch's documents come the records of its ids that yielded no
    document: a ``blocked`` record per id ``robots`` disallows (the
    policy is a pure function of the id, so this is the fetch gate's own
    decision) and a ``miss`` record per other id (no such document). The
    hop's sink counts both kinds, which is how a hop counts its fetch
    outcomes."""
    out = []
    step = batch_size or max(1, len(ids))
    for lo in range(0, len(ids), step):
        batch = ids.slice(lo, step)
        docs = fetch(batch)
        found = []
        for d in [docs] if isinstance(docs, pa.Table) else docs:
            found.append(d["doc_id"].combine_chunks())
            out.append(parse_documents(d))
        keys = batch["id"].combine_chunks()
        missed = keys.filter(pc.invert(pc.is_in(keys, pa.concat_arrays(found))))
        if len(missed) and robots is not None:
            allowed = pa.array(robots.allowed_mask(as_key_array(missed)))
            out.append(miss_records(missed.filter(pc.invert(allowed)), "blocked"))
            missed = missed.filter(allowed)
        out.append(miss_records(missed))
    return pa.concat_tables(out) if out else RECORD_SCHEMA.empty_table()


def _fetch_block(ids: pa.Table, *, proc_path: str, vert_path: str, fetch,
                 batch_size: int | None, robots: RobotsPolicy | None,
                 sm: ShardedMembership, tag) -> pa.Table:
    """One fetch block of a hop, from its frontier rows to tagged rows:
    the processing part, then fetch + parse (:func:`_fetch_records`),
    then the vertex part once its ids are in ``visited``, then ``tag``.
    Both parts are content-named (:func:`_write_part`) and ``add`` is
    idempotent, so a retried task rewrites the same files and state."""
    if len(ids):
        _write_part(ids, proc_path, FRONTIER_SCHEMA, key_col="id")
    records = _fetch_records(ids, fetch, batch_size, robots)
    verts = records.filter(pc.equal(records["rec_kind"], "vertex"))
    if len(verts):
        verts = verts.select(VERTEX_SCHEMA.names).cast(VERTEX_SCHEMA)
        sm.add(VISITED, as_key_array(verts["id"]))
        _write_part(verts, vert_path, VERTEX_SCHEMA, key_col="id")
    return tag(records)


@ray.remote
def _hop_map(src, fn, cuts: list[int]):
    """A hop's map task: one block's rows (a seed slice, or
    ``(pieces, schema, filters)`` checkpoint pieces read with
    :func:`storage.read_pieces`) through ``fn`` (:func:`_fetch_block`, or
    the classify or carry-over tagger alone), cut into the hop's
    partitions at ``cuts`` of ``__bucket`` (``len(cuts) + 1`` returns)."""
    rows = src if isinstance(src, pa.Table) else st.read_pieces(*src)
    pieces = split_buckets(fn(rows), "__bucket", cuts)
    return pieces if cuts else pieces[0]


def _run_hop(blocks: list[tuple], sink, n: int) -> list[dict]:
    """A hop's ``(source, fn)`` blocks through :func:`_hop_map`, each cut
    into ``n`` partitions of one bucket, then one ``_exchange_reduce``
    per partition calling ``sink``; returns the sink's count rows. The
    driver hands the map refs straight to the reducers and waits once."""
    cuts = even_cuts(n, n)
    hop_map = _hop_map.options(num_returns=n)
    pieces = [hop_map.remote(src, fn, cuts) for src, fn in blocks]
    refs, _ = exchange_reduce(sink, "__bucket", False,
                              [p if cuts else [p] for p in pieces], n)
    return [r for t in ray.get(refs) for r in t.to_pylist()]


def _read_blocks(files: list[str], columns: list[str] | None, footers=None,
                 num_blocks: int | None = None, cut: tuple | None = None) -> list[tuple]:
    """Part files in ``num_blocks`` (None: :func:`_sized_blocks`) even row
    ranges, each the ``(pieces, schema, filters)`` a task reads with
    :func:`storage.read_pieces`. ``cut``: the ``(index, rows kept,
    predicate)`` of the one file read through a filter."""
    kept, filters = ({cut[0]: cut[1]}, {files[cut[0]]: cut[2]}) if cut else (None, None)
    rows = st.PartsDatasource(files, columns, footers, kept)
    return [(rows.pieces(lo, hi), rows.schema, filters) for lo, hi in
            st.row_ranges(rows.num_rows, num_blocks or _sized_blocks(rows.num_rows))]


@ray.remote
def _add_keys(sm: ShardedMembership, name: str, src: tuple) -> None:
    """Add one checkpoint block's keys to the ``name`` set: vertex ids to
    ``visited``, ``source|destination`` keys to ``edges``."""
    rows = st.read_pieces(*src)
    sm.add(name, as_key_array(rows["id"] if name == VISITED else _edge_keys(rows)))


def _part_order(name: str) -> tuple:
    """Sort key of a part file name: the integers between ``part-`` and
    the content hash (``part-{priority}-{bucket}-{md5}.parquet`` for a
    frontier part, ``part-{bucket}-{md5}.parquet`` for an edge part),
    then the name itself."""
    fields = name.removesuffix(".parquet").split("-")[1:-1]
    return tuple(int(f) for f in fields if f.isdigit()), name


def _expand_parquet(paths: list[str]) -> list[str]:
    """The part files of checkpoint directories (a plain file path is
    kept), each directory's in :func:`_part_order`: a frontier's parts
    in ``(priority, bucket)`` order, which is ``(priority, id)`` order."""
    files = []
    for p in paths:
        if st.isdir(p):
            files.extend(st.join(p, f) for f in sorted(
                (f for f in st.listdir(p) if f.endswith(".parquet")), key=_part_order))
        else:
            files.append(p)
    return files


def _budget_cut(files: list[str], footers: list, budget: int | None
                ) -> tuple[int, int, pc.Expression | None]:
    """``(head rows, index of the part holding the cut, head predicate)``
    of a frontier's part files in :func:`_expand_parquet` order, whose
    rows are then in ``(priority, id)`` order (a part is one priority and
    one id-range bucket). Their ``footers`` give the part holding the
    ``budget``-th row, its ids give id*, and the head is ``(priority, id)
    <= (p*, id*)``; with no cut it is every part, unfiltered."""
    rows = np.cumsum([m.num_rows for m in footers])
    total = int(rows[-1]) if len(rows) else 0
    if budget is None or total <= budget:
        return total, len(files) - 1, None
    k = int(np.searchsorted(rows, budget))  # first part whose rows reach the budget
    ids = st.read_table(files[k], ["id"])["id"].sort()
    id_star = ids[budget - (int(rows[k]) - len(ids)) - 1].as_py()
    p_star = _part_order(os.path.basename(files[k]))[0][0]
    priority, fid = pc.field("priority"), pc.field("id")
    return budget, k, (priority < p_star) | ((priority == p_star) & (fid <= id_star))


def _hop_dir(out_dir: str, hop: int) -> str:
    return st.join(out_dir, f"hop={hop}")


def _complete_hops(out_dir: str) -> list[int]:
    """Hops 0, 1, ... of a crawl checkpoint up to the first one without
    a ``log.json`` (a hop writes its log last)."""
    hops = []
    while st.exists(st.join(_hop_dir(out_dir, len(hops)), "log.json")):
        hops.append(len(hops))
    return hops


def _cluster_cpus() -> int:
    """CPUs of the connected Ray cluster; 8 before ``ray.init``."""
    return int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8


def _fetch_rpb(n: int, cpus: int, direct: bool) -> int:
    """Ids per fetch block for a hop of ``n`` ids: about FETCH_WAVES
    blocks per CPU when the hop is large enough (measured in round 3:
    halving the block count at 32 CPUs beat doubling it), at least
    :data:`FETCH_SPLIT_ROWS` and at most 32,768 (which bounds a task's
    record table at roughly 60 MB). A hop of fewer than CPUs ×
    FETCH_SPLIT_ROWS ids cannot give every CPU a block, so it is sized
    by its work instead, in blocks of :data:`FETCH_ROWS_PER_TASK` ids:
    a block costs a map task, a reducer with its sink call and RPCs,
    and part files (~90 ms of session CPU on 1 vCPU, measured when a
    block was a Ray Data map task plus an exchange split) against ~28
    µs of work per id (a 14.4k-id wave took 0.88 session CPU-s in 4
    blocks, 0.61 in one, on 1 vCPU). At 4 CPUs a hop
    of fewer than 16,384 ids is one block, and every larger hop gets
    the blocks of the 4,096-id floor alone, at least one per CPU. The
    politeness-budget actor pool takes fixed 5k-id blocks."""
    if not direct:
        return 5_000
    floor = FETCH_ROWS_PER_TASK if n < cpus * FETCH_SPLIT_ROWS else FETCH_SPLIT_ROWS
    return min(32_768, max(floor, n // (FETCH_WAVES * cpus) + 1))


def _sized_blocks(rows: int | list[str], rows_per_block: int | None = None,
                  max_blocks: int = 512) -> int:
    """Block count for a read of ``rows`` rows (or of a list of part
    files, their rows summed from the footers), proportional to the
    rows. Every block of a checkpoint read becomes a map task, plus a
    split task in each shuffle after the read. A remote task costs ~8 ms
    of session CPU whatever it carries (4 vCPUs: a deep_crawl graph build
    of 30k edges fell 0.86 CPU-s going from 128 tasks to 21; BASELINE.md).
    So the auto mode (``rows_per_block`` None) sizes by rows per task,
    not by CPU count: rows / (2 × CPUs) rows in a block, at least
    :data:`ROWS_PER_TASK` and at most :data:`MAX_ROWS_PER_TASK`. A
    table below the floor reads as one block, and a large one as about
    2 blocks per CPU. The floor is the smallest of 16k/32k/64k that
    kept the graph-build saving (16k kept 87-92 % of it but only ~60 %
    of the resume and peak-memory savings; 64k did no better than 32k)."""
    if not isinstance(rows, int):
        rows = sum(st.file_rows(f) for f in rows)
    if rows_per_block is None:
        rows_per_block = int(min(MAX_ROWS_PER_TASK,
                                 max(ROWS_PER_TASK, rows // (2 * _cluster_cpus()) + 1)))
    return int(min(max_blocks, max(1, rows // rows_per_block + 1)))


def _ensure_nonempty(path: str, schema: pa.Schema) -> None:
    """Leave a readable (possibly empty) parquet directory behind — a
    zero-row write produces no part files otherwise. Decided by listing
    alone: every part writer skips empty tables, so a directory that
    holds a part holds rows."""
    if not any(f.endswith(".parquet") for f in st.listdir(path)):
        st.write_table(schema.empty_table(), st.join(path, "empty.parquet"))


def _write_part(rows: pa.Table, path: str, schema: pa.Schema,
                key_col: str | int = 0, prefix: str = "") -> None:
    """Content-named idempotent parquet part write,
    ``part-{prefix}{md5}.parquet`` with the md5 of the prefix and the
    batch content (first/last key + row count), so a task retried after
    its write lands overwrites the same file instead of duplicating rows
    — the same contract as Ray's own write tasks. Shared by every hop
    side-write (the fetch block's parts and the hop sink's, whose
    prefixes are :func:`_part_order`'s integers) so the naming rule
    lives in one place."""
    rows = rows.select(schema.names).cast(schema)
    key = rows.column(key_col)
    tag = f"{prefix}{key[0].as_py()}|{key[-1].as_py()}|{len(rows)}"
    name = hashlib.md5(tag.encode()).hexdigest()
    st.write_table(rows, st.join(path, f"part-{prefix}{name}.parquet"))


def _edge_keys(t: pa.Table) -> pa.ChunkedArray:
    """The ``source|destination`` key of each edge row."""
    return pc.binary_join_element_wise(t["source"], t["destination"], "|")


# Unified row layout for the hop's single combined shuffle: frontier
# candidates, the hop's missed and robots-blocked ids (in ``cand_id``),
# edge rows and (on a classifying hop) earlier hops' edges ride the SAME
# exchange, so a hop pays ONE all-to-all instead of one per kind.
# Every kind shares one space of ``n`` buckets (candidates, misses and
# blocked ids by id range, edge and classify rows by a hash of
# (source, destination)); ``__kind`` tells the rows apart in the sink.
_CAND, _EDGE, _CLASSIFY, _MISS, _BLOCKED = range(5)

_TAGGED_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("destination", pa.string()),
        ("rel_id", pa.string()),
        ("src_doc", pa.string()),
        ("offset", pa.int32()),
        ("hop", pa.int32()),
        ("cand_id", pa.string()),
        ("priority", pa.int64()),
        ("__bucket", pa.int64()),
        ("__kind", pa.int8()),
    ]
)

_SINK_COUNT_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),
        ("bucket", pa.int64()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        # edge-classification partials (0 unless the hop classifies,
        # see CrawlConfig.log_edge_classification): J1 counts folded
        # into the hop's own exchange
        ("within", pa.int64()),
        ("spanning", pa.int64()),
        ("frontier_e", pa.int64()),
    ]
)


def _tagged(kind: int, bucket: np.ndarray, **cols) -> pa.Table:
    n = len(bucket)
    arrays = []
    for f in _TAGGED_SCHEMA:
        if f.name == "__bucket":
            arrays.append(pa.array(np.asarray(bucket, dtype=np.int64)))
        elif f.name == "__kind":
            arrays.append(pa.array(np.full(n, kind, dtype=np.int8)))
        elif f.name in cols:
            v = cols[f.name]
            if isinstance(v, pa.ChunkedArray):
                v = v.combine_chunks()
            if not isinstance(v, pa.Array):
                v = pa.array(v)
            if v.type != f.type:
                v = pc.cast(v, f.type)
            arrays.append(v)
        else:
            arrays.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(arrays, schema=_TAGGED_SCHEMA)


def _edge_bucket(t: pa.Table, n_buckets: int) -> np.ndarray:
    return hash_buckets([t["source"], t["destination"]], n_buckets)


def _range_tagged(kind: int, ids: pa.Array, n_buckets: int, boundaries: np.ndarray | None,
                  **cols) -> pa.Table:
    """``ids`` (in ``cand_id``) tagged as ``kind`` rows in their id-range
    buckets over the (thinned) ``boundaries``."""
    b = range_bucket_of(as_key_array(ids), n_buckets, boundaries=boundaries)
    return _tagged(kind, b, cand_id=ids, **cols)


def _make_record_tagger(hop: int, n_buckets: int, boundaries: np.ndarray | None):
    """Split a fetch block's parsed records into its edge rows,
    frontier-candidate rows and miss and blocked rows, pre-combine the
    first two (the same per-block keep-first that dedup_keep_first/
    distinct ran before their separate shuffles — hot-key mitigation is
    preserved), and emit ONE tagged table whose ``__bucket`` routes
    candidates, misses and blocked ids to ``n_buckets`` range buckets
    (range-clustered next frontier == next hop's fetch routing; a miss
    meets the candidates equal to it) and edges to the same
    ``n_buckets`` as hash buckets."""
    from fs_crawler_ray.relops import _keep_first_arrow

    bnd = thin_boundaries(boundaries, n_buckets)

    def tag(batch: pa.Table) -> pa.Table:
        e = batch.filter(pc.equal(batch["rec_kind"], "edge")).select(
            ["source", "destination", "rel_id", "src_doc", "offset", "hop"]
        )
        e = _keep_first_arrow(e, ["source", "destination"], ["hop", "src_doc", "offset"])
        # keep-first ordered by its own key: the sorted distinct ids
        c = pc.unique(batch.filter(pc.equal(batch["rec_kind"], "cand"))["cand_id"]).sort()
        return pa.concat_tables([
            _tagged(_EDGE, _edge_bucket(e, n_buckets), **{k: e[k] for k in e.column_names}),
            _range_tagged(_CAND, c, n_buckets, bnd,
                          priority=np.full(len(c), hop + 1, dtype=np.int64)),
            *(_range_tagged(k, batch.filter(pc.equal(batch["rec_kind"], name))["id"],
                            n_buckets, bnd) for k, name in ((_MISS, "miss"),
                                                             (_BLOCKED, "blocked"))),
        ])

    return tag


def _make_classify_tagger(n_buckets: int):
    """Tag earlier hops' (source, destination) edge rows as
    classify-only rows in the hop's ``n_buckets`` hash buckets — they
    ride a classifying hop's own shuffle so the sink classifies them
    AFTER every VISITED registration of the hop (the exchange barrier
    is the ordering), and edge classification is never a pass of its
    own."""

    def tag(batch: pa.Table) -> pa.Table:
        return _tagged(_CLASSIFY, _edge_bucket(batch, n_buckets), source=batch["source"],
                       destination=batch["destination"])

    return tag


def _make_carryover_tagger(n_buckets: int, boundaries: np.ndarray | None):
    """Tag a budget-remainder frontier batch (id, priority) as candidate
    rows carrying their ORIGINAL priority."""
    bnd = thin_boundaries(boundaries, n_buckets)
    return lambda t: _range_tagged(_CAND, t["id"], n_buckets, bnd, priority=t["priority"])


class _HopSink:
    """Terminal of the hop's combined shuffle, called once per bucket
    with every row of that bucket; the crawl sizes the bucket space so
    that each shuffle partition holds one bucket, so this runs once per
    partition. Each call does one step per row kind:

    - candidates: keep-first by ``(cand_id, priority)`` → minus the
      call's missed and blocked ids (``pc.is_in``) → ONE ``visited``
      membership check → one frontier part per priority, sorted by id
      (one part per bucket unless a budget carried ids over);
    - edges: keep-first dedup → ONE cross-hop edge-seen check with
      deferred adds → one edge part;
    - classification (a classifying hop): ONE VISITED check over this
      call's written edges and its classify-only rows.

    Both parts are content-named (:func:`_write_part`: a retried reduce
    task rewrites the same files); the call returns one count row per
    kind present (``miss`` and ``blocked`` rows are the hop's fetch
    counts). Every occurrence of a key lands in one bucket, so the
    whole-bucket keep-first and checks give the rows the same work done
    key group by key group would.

    Correctness: the exchange upstream is an all-to-all barrier, so
    every VISITED registration (in the hop's fetch blocks,
    :func:`_fetch_block`) has completed before any sink call runs. Each
    id of the hop's frontier then is in VISITED or arrives here as a
    miss or blocked row in its range bucket, so "not in visited and not
    in processing" is "neither missed nor blocked, and not in visited"."""

    def __init__(self, sm: ShardedMembership, frontier_path: str, edges_path: str,
                 classify_edges: bool = False):
        self.sm = sm
        self.classify_edges = classify_edges
        self.frontier_path = frontier_path
        self.edges_path = edges_path

    def _frontier(self, t: pa.Table, missed: pa.ChunkedArray, bucket: int) -> int:
        """Write this call's new frontier rows: its candidates minus
        ``missed`` and ``visited``. Returns how many it wrote."""
        from fs_crawler_ray.relops import _keep_first_arrow

        c = _keep_first_arrow(t.select(["cand_id", "priority"]), ["cand_id"],
                              ["cand_id", "priority"])
        c = c.filter(pc.invert(pc.is_in(c["cand_id"], missed.combine_chunks())))
        present = self.sm.contains(VISITED, as_key_array(c["cand_id"]))
        c = c.filter(pa.array(~present))
        out = pa.table({"id": c["cand_id"], "priority": c["priority"],
                        "hop": pc.cast(c["priority"], pa.int32())}, schema=FRONTIER_SCHEMA)
        for p in pc.unique(out["priority"]).to_pylist():
            _write_part(out.filter(pc.equal(out["priority"], p)), self.frontier_path,
                        FRONTIER_SCHEMA, prefix=f"{p}-{bucket}-")
        return len(c)

    def _edges(self, t: pa.Table, bucket: int) -> pa.Table:
        """This call's new edges (also written as its edge part)."""
        from fs_crawler_ray.relops import _keep_first_arrow

        e = t.select(["source", "destination", "rel_id", "src_doc", "offset", "hop"])
        e = _keep_first_arrow(e, ["source", "destination"], ["hop", "src_doc", "offset"])
        present = self.sm.check_and_add_deferred(EDGES, as_key_array(_edge_keys(e)))
        e = e.filter(pa.array(~present))
        out = pa.table({
            "source": e["source"],
            "destination": e["destination"],
            "type": pa.repeat(pa.scalar(RelationshipType.UNTYPED_PARENT.value), len(e)),
            "id": e["rel_id"],
            "hop": e["hop"],
        })
        if len(out):
            _write_part(out, self.edges_path, EDGE_SCHEMA, prefix=f"{bucket}-")
        return out

    def _classify(self, *edge_sets: pa.Table) -> list[tuple[int, int, int]]:
        """J1 within/spanning/frontier partial of each table of
        (source, destination) rows (``graph_memory_impl.py:106-120``),
        from ONE VISITED check over both endpoints of all of them. Safe
        here: the shuffle barrier guarantees every VISITED registration
        of this hop completed first."""
        sizes = [len(e) for e in edge_sets]
        total = sum(sizes)
        keys = [as_key_array(e[c]) for c in ("source", "destination") for e in edge_sets]
        both = self.sm.contains(VISITED, np.concatenate(keys)) if total else np.zeros(0, bool)
        src_in, dst_in = both[:total], both[total:]
        out, lo = [], 0
        for n in sizes:
            s, d = src_in[lo:lo + n], dst_in[lo:lo + n]
            within, frontier = int((s & d).sum()), int((~s & ~d).sum())
            out.append((within, n - within - frontier, frontier))
            lo += n
        return out

    def __call__(self, t: pa.Table) -> pa.Table:
        bucket = t["__bucket"][0].as_py()
        kind = t["__kind"].to_numpy()
        cand, edge, cls, miss, blocked = (t.filter(pa.array(kind == k)) for k in
                                          (_CAND, _EDGE, _CLASSIFY, _MISS, _BLOCKED))
        rows = []  # (kind, rows_in, rows_out, (within, spanning, frontier))
        if len(cand):
            missed = pa.chunked_array(miss["cand_id"].chunks + blocked["cand_id"].chunks,
                                      pa.string())
            rows.append(("frontier", len(cand), self._frontier(cand, missed, bucket),
                         (0, 0, 0)))
        written = self._edges(edge, bucket) if len(edge) else edge
        w_edge = w_cls = (0, 0, 0)
        if self.classify_edges:
            # this hop's written edges and the classify-only rows
            # (earlier hops' edges, of which nothing is written)
            w_edge, w_cls = self._classify(written, cls)
        if len(edge):
            rows.append(("edges", len(edge), len(written), w_edge))
        if len(cls):
            rows.append(("classify", len(cls), 0, w_cls))
        for name, r in (("miss", miss), ("blocked", blocked)):
            if len(r):
                rows.append((name, len(r), 0, (0, 0, 0)))
        cols = list(zip(*[(k, bucket, n_in, n_out, *w) for k, n_in, n_out, w in rows]))
        return pa.Table.from_arrays([pa.array(c, f.type) for c, f in
                                     zip(cols, _SINK_COUNT_SCHEMA)], schema=_SINK_COUNT_SCHEMA)


# ----------------------------------------------------------------------
# the crawl
# ----------------------------------------------------------------------
class Crawler:
    def __init__(self, corpus: CorpusInfo, out_dir: str, config: CrawlConfig | None = None):
        self.corpus = corpus
        self.out_dir = out_dir
        self.config = config or CrawlConfig()
        # engine-level executor settings (op resource reservation off —
        # see fs_crawler_ray.engine for the measurement and the caveat);
        # applied here so EVERY crawl entry point (library, CLI, bench,
        # driver) runs untrottled, not just the benchmark.
        from fs_crawler_ray.engine import configure_data_context

        configure_data_context()
        st.makedirs(out_dir, exist_ok=True)
        # sampled range boundaries for the frontier's range-clustered
        # distinct: footer-only read, aligned to corpus row groups (the
        # fetch unit) and balanced against real id density — the prefix
        # fallback degenerates to ONE bucket for dense sequential ids
        # and serialized the whole frontier dedup (measured 15.6 s in a
        # single task on a 2M-URL wave)
        from fs_crawler_ray.sources.doc_table import corpus_range_boundaries

        try:
            self.range_boundaries = corpus_range_boundaries(
                corpus.documents_path, "doc_id", self.config.num_buckets
            )
        except Exception:
            self.range_boundaries = None
        # ONE partitioning reused across stages: the VISITED set shards
        # by the SAME corpus range cuts the frontier shuffle clusters
        # by, so each (range-clustered) batch's or sink partition's
        # visited RPCs hit 1-2 shards instead of all K — the RPC
        # fan-out no longer grows with the shard count. Edge-seen keys
        # are hashes (no range locality) and stay hash-routed inside
        # the same instance. The shard hosts are session-resident: idle
        # ones left by an earlier crawl are reset and reused, see
        # shutdown().
        t_acquire = time.perf_counter()
        self.sm = ShardedMembership.create(
            num_shards=self.config.num_shards,
            capacity_per_shard=self.config.shard_capacity,
            mode=self.config.membership_mode,
            boundaries=thin_boundaries(self.range_boundaries,
                                       self.config.num_shards),
            range_names=(VISITED,),
        )
        # Two fetch modes: with a politeness budget the token buckets
        # must be central → persistent host-routed actor pool; without
        # one, fetch resolves partition-locally in-task against the
        # row-group range store (no nested RPC, no corpus broadcast —
        # scales with task parallelism AND corpus size).
        self.direct = self.config.politeness is None or self.config.politeness.rate_per_host <= 0
        #: how this Crawler got its shard hosts (``reused``/``started``
        #: count processes); the first lineage.json a crawl writes
        #: records it
        self._actors = {"hosts": len(self.sm.actors), "shards": self.sm.num_shards,
                        "reused": self.sm.reused,
                        "started": len(self.sm.actors) - self.sm.reused,
                        "acquire_s": round(time.perf_counter() - t_acquire, 3)}
        #: False until this Crawler's first crawl() starts: the shards
        #: of a later crawl() hold the earlier one's sets until reset
        self._crawled = False
        #: True from the start of crawl() until it returns normally; a
        #: crawl that raised may still have tasks calling the actors
        self._in_flight = False
        self.pool = None
        if not self.direct:
            self.pool = FetchPool(
                corpus.documents_path,
                size=self.config.fetch_concurrency,
                politeness=self.config.politeness,
                robots=self.config.robots,
            )

    def _fetch_stage(self, hop: int):
        if self.direct:
            from fs_crawler_ray.state.fetch_service import make_partition_fetcher

            return make_partition_fetcher(self.corpus.documents_path, hop,
                                          robots=self.config.robots)
        return FetchStage(self.pool, hop)

    def shutdown(self) -> None:
        """Release the state actors. The membership shard hosts are
        session-resident: after a crawl that returned normally they go
        back to the Ray session's free-list, and the next Crawler resets
        and reuses them instead of starting new worker processes. After
        a crawl that raised, its hop tasks may still be calling them,
        so they are killed. The polite-mode fetch pool is always killed
        (its token buckets and auth session start fresh per crawl).
        Results remain fully readable — all state is reconstructable
        from the checkpoint (resume does so)."""
        if self._in_flight:
            for a in self.sm.actors:
                ray.kill(a)
        else:
            self.sm.release()
        if self.pool is not None:
            self.pool.shutdown()

    # -- checkpoint helpers -------------------------------------------
    def _hop_dir(self, hop: int) -> str:
        return _hop_dir(self.out_dir, hop)

    def _write_settings(self, seeds: list[str]) -> None:
        # run-config dump (reference crawler.py:107-122 settings writer).
        # json.dumps (one-shot C encoder), NOT json.dump: dump streams
        # through the pure-Python iterencode path regardless of options,
        # which cost 0.6 s of serial driver time per run on a 500k-seed
        # wave — a fixed floor that ate directly into measured N→4N
        # scaling efficiency.
        with st.open_file(st.join(self.out_dir, "settings.json"), "wt") as f:
            f.write(json.dumps({"seeds": seeds, "config": self.config.to_json(),
                                "corpus": self.corpus.documents_path},
                               separators=(",", ":")))

    # -- resume --------------------------------------------------------
    def _resume_state(self) -> tuple[int, str | None, list[dict]]:
        """Rebuild shard state from checkpointed tables (SURVEY §7.5:
        filter state must be reconstructable, never snapshotted ad hoc)."""
        done = _complete_hops(self.out_dir)
        if not done:
            return 0, None, []
        log = [st.read_json(st.join(self._hop_dir(h), "log.json")) for h in done]
        # the filter-state rebuild: one plain task per block of every
        # hop's vertex and edge tables
        ray.get([_add_keys.remote(self.sm, name, src)
                 for name, table, cols in ((VISITED, "vertices.parquet", ["id"]),
                                           (EDGES, "edges.parquet", ["source", "destination"]))
                 for src in _read_blocks(
                     _expand_parquet([st.join(self._hop_dir(h), table) for h in done]), cols)])
        last = done[-1]
        return last + 1, st.join(self._hop_dir(last), "frontier.parquet"), log

    def _split_frontier(self, frontier: pa.Table | str) -> tuple[int, list, list]:
        """A hop's frontier cut at the budget: the head's row count
        (exact: frontier ids are unique), its :func:`_hop_map` sources,
        :func:`_sized_blocks` even blocks of at most :func:`_fetch_rpb`
        ids, and those of the tail it carries over (none when the head is
        every id). ``frontier`` is the sorted seed table, all priority 0,
        cut by a slice, or a frontier checkpoint directory, cut by
        :func:`_budget_cut`'s predicate, which only the part holding the
        cut is read through (its negation, for the tail)."""
        budget = self.config.frontier_budget
        n = len(frontier) if isinstance(frontier, pa.Table) else None
        if n is not None:
            n_head = n if budget is None else min(budget, n)
        else:
            files = _expand_parquet([frontier])
            footers = [st.footer(f) for f in files]  # read once, for the cut and both reads
            n_head, k, keep = _budget_cut(files, footers, budget)
        blocks = _sized_blocks(n_head, _fetch_rpb(n_head, _cluster_cpus(), self.direct))
        if n is not None:
            # fetch-sized slices (one block would be one task for the
            # whole chain: a 2M-seed wave spent 77 s in one task)
            head = [frontier.slice(lo, hi - lo) for lo, hi in st.row_ranges(n_head, blocks)]
            return n_head, head, [frontier.slice(n_head)] if n_head < n else []
        if keep is None:
            return n_head, _read_blocks(files, None, footers, blocks), []
        in_head = n_head - sum(m.num_rows for m in footers[:k])  # rows of part k in the head
        head = _read_blocks(files[:k + 1], None, footers[:k + 1], blocks, (k, in_head, keep))
        tail = _read_blocks(files[k:], ["id", "priority"], footers[k:],
                            cut=(0, footers[k].num_rows - in_head, ~keep))
        return n_head, head, tail

    # -- main loop -----------------------------------------------------
    def crawl(self, seeds: list[str], resume: bool = False) -> CrawlResult:
        cfg = self.config
        self._in_flight = True
        # vectorized seed gate: a Python regex loop over a 500k-seed wave
        # costs ~0.5 s of driver time before any task runs
        from fs_crawler_ray.ids import ID_RE

        ok = pc.match_substring_regex(
            pa.array(seeds, pa.string()), ID_RE.pattern
        ).to_numpy(zero_copy_only=False)
        bad = [s for s, o in zip(seeds, ok) if not o] if not ok.all() else []
        if bad:  # seed regex gate (reference crawler.py:92-94)
            raise ValueError(f"invalid seed ids: {bad}")
        self._write_settings(seeds)
        if self._crawled:
            # one reset RPC per host: no hop filters its frontier
            # against VISITED, so it must start from this crawl's state
            self.sm.reset()
        self._crawled = True

        start_hop, frontier, log = 0, None, []
        if resume:
            start_hop, frontier, log = self._resume_state()
        else:
            # fresh run: clear any stale hop dirs so _complete_hops /
            # resume never sees leftovers from a longer previous run
            for d in st.listdir(self.out_dir):
                if d.startswith("hop="):
                    st.rmtree(st.join(self.out_dir, d))
        if frontier is None:
            # the seeds, priority 0. Arrow unique+sort: Python
            # sorted(set()) on a 500k-seed wave is ~0.2 s of driver time
            ids = pc.unique(pa.array(seeds, pa.string())).sort()
            frontier = pa.table({"id": ids, "priority": np.zeros(len(ids), np.int64),
                                 "hop": np.zeros(len(ids), np.int32)}, schema=FRONTIER_SCHEMA)
        result = CrawlResult(out_dir=self.out_dir, hops_run=list(range(start_hop)), log=log)
        # each edge part's footer, kept from the first classifying hop
        # that reads it (a complete hop's parts never change)
        edge_footers: dict = {}

        for hop in range(start_hop, cfg.hops):
            t0 = time.time()
            hop_dir = self._hop_dir(hop)
            if st.exists(hop_dir):
                st.rmtree(hop_dir)  # incomplete hop from a killed run
            st.makedirs(hop_dir)

            stage_t: dict[str, float] = {}

            def _mark(name: str, since: list[float]) -> None:
                now = time.time()
                stage_t[name] = round(now - since[0], 3)
                since[0] = now

            tick = [time.time()]

            # 1.+2. the frontier head in fetch blocks, one map task
            # each (_fetch_block). No task filters the frontier against
            # VISITED: the sink that wrote it did (a budget tail rides
            # that sink too), a resume rebuilds the same VISITED, and
            # seeds meet empty shards. The frontier arrives
            # RANGE-CLUSTERED (seeds are sorted; later frontiers are
            # range-bucketed parts read in name order), so each fetch
            # block is a contiguous id range: 1-2 corpus row groups.
            paths = {name: st.join(hop_dir, f"{name}.parquet") for name in _TABLES}
            for path in paths.values():
                st.makedirs(path)
            n_head, head, tail = self._split_frontier(frontier)

            # 3. the combined edges + frontier exchange: every map task
            # tags its rows into n buckets (candidates, misses and
            # blocked ids by id range, so the next frontier lands
            # range-clustered; edges by hash) and cuts them into the n
            # partitions itself; _HopSink, in the exchange's reduce
            # tasks, writes the next frontier and the new edges. On a
            # classifying hop (every hop in "full" mode, the last in
            # "final") the earlier hops' edges ride the same exchange as
            # classify-only rows. The exchange is a barrier, so every
            # VISITED registration completes before any sink call.
            classify = (cfg.log_edge_classification == "full"
                        or (cfg.log_edge_classification == "final"
                            and hop == cfg.hops - 1))
            prev_edges = []
            if classify and result.hops_run:
                files = _expand_parquet(
                    [st.join(self._hop_dir(h), "edges.parquet") for h in result.hops_run])
                for f in files:
                    if f not in edge_footers:
                        edge_footers[f] = st.footer(f)
                prev_edges = _read_blocks(files, ["source", "destination"],
                                          [edge_footers[f] for f in files])
            # one bucket per partition: one sink call per partition
            n = min(cfg.num_buckets, len(head) + len(prev_edges) + len(tail))
            fetch = functools.partial(
                _fetch_block, proc_path=paths["processing"], vert_path=paths["vertices"],
                fetch=self._fetch_stage(hop), robots=cfg.robots, sm=self.sm,
                batch_size=None if self.direct else cfg.fetch_batch_size,
                tag=_make_record_tagger(hop, n, self.range_boundaries))
            # an unprocessed budget remainder carries over with its
            # ORIGINAL priority; the sink's keep-first by (cand_id,
            # priority) keeps the smallest priority per id
            blocks = ([(src, fetch) for src in head]
                      + [(src, _make_classify_tagger(n)) for src in prev_edges]
                      + [(src, _make_carryover_tagger(n, self.range_boundaries))
                         for src in tail])
            sink = _HopSink(self.sm, paths["frontier"], paths["edges"], classify_edges=classify)
            _mark("hop_plan", tick)  # block planning + seed prep
            sink_counts = _run_hop(blocks, sink, n)
            _mark("hop_exec", tick)
            for name, schema in _TABLES.items():
                _ensure_nonempty(paths[name], schema)
            # ONE call per host: merge this hop's edge keys, then the
            # shards' stats and the RPCs the hosts served this hop
            shard_stats, rpcs = self.sm.end_hop(EDGES)

            def sunk(kind: str, col: str = "rows_in") -> int:
                return int(sum(r[col] for r in sink_counts if r["kind"] == kind))

            # post-pre-combine candidate and edge rows of the shuffle
            n_records = sunk("frontier") + sunk("edges")
            _mark("hop_post", tick)

            # 4. lineage + LOG (membership already mutated in-pass above)
            if classify:
                counts = {
                    "within": int(sum(r["within"] for r in sink_counts)),
                    "spanning": int(sum(r["spanning"] for r in sink_counts)),
                    "frontier": int(sum(r["frontier_e"] for r in sink_counts)),
                }
            else:
                counts = {"within": None, "spanning": None, "frontier": None}
            n_vertices = sum(s[VISITED]["count"] for s in shard_stats if VISITED in s)
            # the hop's fetch outcomes, counted from its own rows: every
            # id of the head yielded a document or reached the sink as a
            # miss or blocked row; a fetch pool adds what only it knows
            missing, blocked = sunk("miss"), sunk("blocked")
            fetch = {"ids_attempted": n_head, "robots_blocked": blocked, "missing": missing,
                     "fetched": n_head - missing - blocked}
            if self.pool is not None:
                fetch |= self.pool.reset()
            _mark("log_classify", tick)
            lineage = {
                "hop": hop,
                "fetch": fetch,
                # the shards' sets, and the membership RPCs their hosts
                # served since the previous hop's lineage (a resume's
                # state rebuild counts with its first hop)
                "shards": {"sets": shard_stats, "rpcs": rpcs},
                # one entry per sink call and row kind; every call holds
                # one bucket, so "partitions" calls when none is empty
                "sink": {"partitions": n,
                         "entries": sorted(
                             [{k: r[k] for k in ("bucket", "kind", "rows_in", "rows_out")}
                              for r in sink_counts], key=lambda e: (e["bucket"], e["kind"]))},
                "stage_seconds": stage_t,
                "records": n_records,
            }
            if hop == start_hop:
                lineage["actors"] = self._actors
            with st.open_file(st.join(hop_dir, "lineage.json"), "wt") as f:
                json.dump(lineage, f, indent=1, default=str)
            row = {
                "iteration": hop,
                "duration": time.time() - t0,
                "vertices": int(n_vertices),
                "frontier": sunk("frontier", "rows_out"),
                "edges": counts["within"],
                "spanning_edges": counts["spanning"],
                "frontier_edges": counts["frontier"],
            }
            log.append(row)
            # log.json written LAST == hop-complete marker (atomic-ish)
            tmp = st.join(hop_dir, ".log.json.tmp")
            st.write_json(row, tmp)
            st.replace(tmp, st.join(hop_dir, "log.json"))

            result.hops_run.append(hop)
            frontier = paths["frontier"]

        result.log = log
        # a later crawl() of this Crawler reuses every actor it holds
        held = self._actors["reused"] + self._actors["started"]
        self._actors = self._actors | {"reused": held, "started": 0, "acquire_s": 0.0}
        self._in_flight = False
        return result


def crawl(corpus: CorpusInfo, seeds: list[str], out_dir: str, config: CrawlConfig | None = None,
          resume: bool = False) -> CrawlResult:
    crawler = Crawler(corpus, out_dir, config)
    try:
        return crawler.crawl(seeds, resume=resume)
    finally:
        crawler.shutdown()
