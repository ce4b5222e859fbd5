"""The BFS frontier crawl: ONE fused Ray Data execution per hop.

Re-creates the reference's superstep loop (``fscrawler/crawler.py:44-46``
→ ``fsapi.py:194-222`` → graph-store mutations) as a single streaming
Dataset execution per hop:

frontier → fused visited-filter + processing-registration (membership
shards via ``map_batches``) → ``processing.parquet`` checkpoint
side-write → fetch (politeness token buckets + robots, ids routed by
host; or partition-local row-group lookup in direct mode) → vectorized
span parser → vertices checkpoint side-write + ``visited`` registration
(safe: this hop's vertices ⊆ processing, which the candidate filter
also checks) → record tagger (per-batch pre-combine of edge rows and
frontier-candidate rows; disjoint bucket-id ranges) → ONE combined
groupby shuffle → per-group ``_HopSink``:

- edge buckets: in-hop keep-first dedup (``(hop, src_doc, offset)``
  under the canonical visit order = sorted id per hop) → cross-hop
  edge-seen filter with DEFERRED adds committed after the execution
  (retry-safe) → ``edges.parquet`` part side-write;
- candidate buckets: distinct → filtered against
  ``visited ∪ processing`` (the ``add_to_frontier`` guard,
  ``graph_memory_impl.py:60-63``), unioned with any budget remainder →
  range-clustered ``frontier.parquet`` part side-write.

The groupby is an all-to-all barrier, so every membership registration
upstream completes before any sink group consults the shards — the same
ordering guarantee the round-2 shape bought with a per-hop
``materialize()`` and two extra Dataset executions. An optional
priority-queue budget takes the best ``(priority, id)`` ids and carries
the rest, at the cost of a sort-barrier execution.

All in-hop membership mutations are idempotent or deferred-committed,
so task retries and resume can never corrupt state. The LOG row
(cumulative edge classification per ``graph_memory_impl.py:106-120``)
and per-stage lineage close the hop; ``log.json`` is written LAST and
is the hop-complete marker, making a killed crawl resumable
byte-identically from the last complete hop.

Checkpoint layout (one directory per hop — partitioned, resumable output):

    out_dir/settings.json
    out_dir/hop=N/{processing,vertices,edges,frontier}.parquet/  + log.json + lineage.json
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from fs_crawler_ray.corpus import CorpusInfo
from fs_crawler_ray.ids import as_key_array
from fs_crawler_ray.model import EDGE_SCHEMA, FRONTIER_SCHEMA, VERTEX_SCHEMA, RelationshipType
from fs_crawler_ray.relops import distinct
from fs_crawler_ray.sources import storage as st
from fs_crawler_ray.stages.fetch import PolitenessBudget
from fs_crawler_ray.state.fetch_service import FetchPool, FetchStage
from fs_crawler_ray.stages.parse import parse_documents
from fs_crawler_ray.state.membership import ShardedMembership
from fs_crawler_ray.state.robots import RobotsPolicy

VISITED = "visited"
PROCESSING = "processing"
EDGES = "edges"

#: task waves per hop for a seed frontier. Per-doc fan-out variance
#: skews task walls ~2.6x, so more/smaller blocks could in principle
#: smooth the straggler tail before the shuffle barrier — measured,
#: waves=2/4 and sink partitions 8/16/32 are indistinguishable inside
#: the ±30% run-to-run drift, so it stays at the benchmarked shape
FETCH_WAVES = 2
#: edge rows up to which the last hop's "final" edge classification
#: rides the hop's own shuffle; past it the separate map-only pass
#: (membership RPCs, no shuffle of the edge set) is the scale path
CLASSIFY_FUSE_MAX = 20_000_000


@dataclass
class CrawlConfig:
    hops: int = 3
    num_shards: int = 8
    membership_mode: str = "exact"          # "probabilistic" at scale
    shard_capacity: int = 1 << 18
    fetch_concurrency: int = 4              # actor pool size (politeness budget, fsapi.py:25)
    fetch_batch_size: int = 200             # ids per "request" (MAX_PERSONS, fsapi.py:23)
    num_buckets: int = 64                   # dedup shuffle buckets; scale with cluster
    politeness: PolitenessBudget | None = None
    robots: RobotsPolicy | None = None
    #: per-hop LOG edge classification: "full" recomputes the
    #: within/spanning/frontier counts every hop (reference
    #: end_iteration semantics, O(hops × edges)); "final" only on the
    #: last hop; "off" never. Conformance runs use "full"; bench "final".
    log_edge_classification: str = "full"
    #: priority-queue frontier: process at most this many ids per hop,
    #: chosen by (priority, id) order; the remainder carries over to the
    #: next hop's frontier. None = reference semantics (whole frontier
    #: per superstep). This is the load-bounding extension the reference
    #: lacks — at 10^10-URL scale hops MUST be budgeted.
    frontier_budget: int | None = None

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
        return st.join(self.out_dir, f"hop={hop}")

    @staticmethod
    def load(out_dir: str) -> "CrawlResult":
        """Reattach to a completed crawl checkpoint on disk."""
        hops, log = [], []
        h = 0
        while st.exists(st.join(out_dir, f"hop={h}", "log.json")):
            log.append(st.read_json(st.join(out_dir, f"hop={h}", "log.json")))
            hops.append(h)
            h += 1
        if not hops:
            raise FileNotFoundError(f"no complete hops under {out_dir}")
        return CrawlResult(out_dir=out_dir, hops_run=hops, log=log)

    def _cat(self, name: str) -> ray.data.Dataset:
        paths = [st.join(self.hop_dir(h), name) for h in self.hops_run]
        paths = _expand_parquet([p for p in paths if st.exists(p)])
        return st.read_parquet(paths)

    def vertices(self) -> ray.data.Dataset:
        return self._cat("vertices.parquet")

    def edges(self) -> ray.data.Dataset:
        return self._cat("edges.parquet")

    def frontier(self) -> ray.data.Dataset:
        return st.read_parquet(st.join(self.hop_dir(self.hops_run[-1]), "frontier.parquet"))

    def processing(self, hop: int) -> ray.data.Dataset:
        return st.read_parquet(st.join(self.hop_dir(hop), "processing.parquet"))


# ----------------------------------------------------------------------
# the membership-consulting map_batches stage
# ----------------------------------------------------------------------
class MembershipStage:
    """The one membership-consulting stage: drop rows whose key is in
    any of the ``check`` sets, then register the kept keys into
    ``register``; either step may be left out. Emits the kept rows.
    Both steps are retry-safe (``contains`` is pure, ``add``
    idempotent), so fusing them costs nothing."""

    def __init__(self, sm: ShardedMembership, column: str,
                 check: tuple[str, ...] = (), register: str | None = None):
        self.sm = sm
        self.column = column
        self.check = list(check)
        self.register = register

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return batch
        keys = as_key_array(batch[self.column])
        if self.check:
            absent = ~self.sm.contains_any(self.check, keys)
            batch, keys = batch.filter(pa.array(absent)), keys[absent]
        if self.register is not None and len(keys):
            self.sm.add(self.register, keys)
        return batch


def _expand_parquet(paths: list[str]) -> list[str]:
    """ray.data.read_parquet does not expand directories when given a
    LIST of paths — glob the part files explicitly."""
    files = []
    for p in paths:
        if st.isdir(p):
            files.extend(st.join(p, f) for f in st.listdir(p) if f.endswith(".parquet"))
        else:
            files.append(p)
    return files


#: Ray Data fetches the footers of a read of more than this many files
#: in tasks of 0.5 CPU (``PARALLELIZE_META_FETCH_THRESHOLD`` in
#: ``ray.data.datasource.parquet_meta_provider``), two to a CPU
FOOTER_TASKS_ABOVE = 24


def _read_parts(files: list[str], **kwargs) -> ray.data.Dataset:
    """read_parquet of checkpoint part files as a union of reads of at
    most FOOTER_TASKS_ABOVE files, whose footers the driver reads itself.
    The crawl builds its reads across hops (30 files for a 5-hop crawl)
    right after another execution. Ray's half-CPU footer tasks then find
    that execution's workers not yet returned and start ~3 more (~1
    CPU-s each), which Ray kills about a second after they go idle, so
    whether a crawl or resume pays for them would depend on how soon
    after the previous crawl it runs. ``CrawlResult`` keeps one read: a
    union does not fuse with the map stages after it (about 1.3x the
    graph-build CPU on the wide_wave benchmark), and a graph build on
    its own starts no workers for the footer tasks."""
    if len(files) <= FOOTER_TASKS_ABOVE:
        return st.read_parquet(files, **kwargs)
    n_blocks = kwargs.pop("override_num_blocks", None)
    parts = []
    for i in range(0, len(files), FOOTER_TASKS_ABOVE):
        chunk = files[i:i + FOOTER_TASKS_ABOVE]
        if n_blocks is not None:  # split pro rata, cumulative so they add up
            kwargs["override_num_blocks"] = max(
                1, n_blocks * (i + len(chunk)) // len(files) - n_blocks * i // len(files))
        parts.append(st.read_parquet(chunk, **kwargs))
    return parts[0].union(*parts[1:])


def _read_sized(path: str, columns: list[str] | None = None,
                rows_per_block: int | None = None, max_blocks: int = 512) -> ray.data.Dataset:
    """read_parquet with a block count proportional to the DATA (and,
    when auto, to the cluster): Ray's default targets ~2×cores blocks,
    which turns a few-thousand-row frontier into hundreds of micro-tasks
    that each pay task launch + membership/fetch RPC fan-out (observed
    6× slowdown at 32 CPUs). The auto mode aims for ~3 blocks per CPU
    with at least 500 rows per block, so big hops still saturate the
    cluster."""
    rows = _parquet_rows(path)
    if rows_per_block is None:
        cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
        rows_per_block = int(min(20_000, max(4096, rows // (2 * cpus) + 1)))
    blocks = int(min(max_blocks, max(1, rows // rows_per_block + 1)))
    return st.read_parquet(path, columns=columns, override_num_blocks=blocks)


def _parquet_rows(dir_path: str) -> int:
    total = 0
    if not st.isdir(dir_path):
        return 0
    for f in st.listdir(dir_path):
        if f.endswith(".parquet"):
            total += st.file_rows(st.join(dir_path, f))
    return total


def _ensure_nonempty(path: str, schema: pa.Schema) -> None:
    """Leave a readable (possibly empty) parquet directory behind — a
    zero-row write produces no part files otherwise."""
    if _parquet_rows(path) == 0:
        st.makedirs(path, exist_ok=True)
        for f in st.listdir(path):
            st.remove(st.join(path, f))
        st.write_table(schema.empty_table(), st.join(path, "empty.parquet"))


def _safe_write(ds: ray.data.Dataset, path: str, schema: pa.Schema) -> None:
    """write_parquet that always leaves a readable (possibly empty)
    parquet directory — Ray writes nothing for an empty dataset."""
    st.write_dataset(ds, path)
    _ensure_nonempty(path, schema)


def _write_part(rows: pa.Table, path: str, schema: pa.Schema,
                key_col: str | int = 0, tag_prefix: str = "") -> None:
    """Content-named idempotent parquet part write: the file name is
    derived from the batch content (first/last key + row count, plus an
    optional caller tag), so a task retried after its write lands
    overwrites the same file instead of duplicating rows — the same
    contract as Ray's own write tasks. Shared by every fused side-write
    (BranchCheckpoint and the hop sink) so the naming/idempotence rule
    lives in one place."""
    rows = rows.select(schema.names).cast(schema)
    key = rows.column(key_col)
    tag = f"{tag_prefix}{key[0].as_py()}|{key[-1].as_py()}|{len(rows)}"
    name = hashlib.md5(tag.encode()).hexdigest()
    st.write_table(rows, st.join(path, f"part-{name}.parquet"))


class BranchCheckpoint:
    """1:1 passthrough map_batches stage that persists (a projection of)
    each batch as a parquet part file while the execution continues
    downstream — fusing a checkpoint write into a longer pipeline so a
    hop pays ONE streaming execution where write + re-read + second
    execution used to sit (each extra Dataset execution costs a fixed
    ~0.2-0.5 s floor; a 4-hop crawl paid it 8 extra times).

    Part names are derived from the batch CONTENT (first/last key + row
    count), so a task retried after its write lands overwrites the same
    file instead of duplicating rows — the same idempotence contract as
    Ray's own write tasks. Optionally registers the projected keys into
    a membership set in the same pass (retry-safe: adds are idempotent).
    """

    def __init__(self, path: str, schema: pa.Schema, extract=None,
                 sm: ShardedMembership | None = None, register: str | None = None,
                 key_col: str = "id"):
        self.path = path
        self.schema = schema
        self.extract = extract
        self.sm = sm
        self.register = register
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = self.extract(batch) if self.extract is not None else batch
        if len(rows):
            rows = rows.select(self.schema.names).cast(self.schema)
            if self.sm is not None:
                self.sm.add(self.register, as_key_array(rows[self.key_col]))
            _write_part(rows, self.path, self.schema, key_col=self.key_col)
        return batch


def _rec_filter(kind: str):
    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["rec_kind"], kind))

    return f


def _edge_key(batch: pa.Table) -> pa.Table:
    key = pc.binary_join_element_wise(batch["source"], batch["destination"], "|")
    return batch.append_column("edge_key", key)


# Unified row layout for the hop's single combined shuffle: edge rows and
# frontier-candidate rows ride the SAME exchange (disjoint bucket-id
# ranges route each kind to its own sink groups), so a hop pays ONE
# all-to-all instead of two sequential Dataset executions.
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
    ]
)

_SINK_COUNT_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),
        ("bucket", pa.int64()),
        ("rows_in", pa.int64()),
        ("rows_out", pa.int64()),
        # fused edge-classification partials (0 unless the last hop
        # runs with log_edge_classification="final"): J1 counts folded
        # into the SAME streaming execution as the hop itself
        ("within", pa.int64()),
        ("spanning", pa.int64()),
        ("frontier_e", pa.int64()),
    ]
)


def _tagged(n: int, bucket: np.ndarray, **cols) -> pa.Table:
    arrays = []
    for f in _TAGGED_SCHEMA:
        if f.name == "__bucket":
            arrays.append(pa.array(np.asarray(bucket, dtype=np.int64)))
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


def _thin_boundaries(boundaries: np.ndarray | None, num_buckets: int) -> np.ndarray | None:
    """Reduce sampled range cut points to the hop's (data-proportional)
    bucket count — same rule as relops._add_range_bucket."""
    if boundaries is None or len(boundaries) + 1 <= num_buckets or num_buckets < 1:
        return boundaries
    n = len(boundaries) + 1
    cut = (np.arange(1, num_buckets) * n) // num_buckets
    return boundaries[cut - 1]


def _make_record_tagger(hop: int, n_cand_buckets: int, n_edge_buckets: int,
                        boundaries: np.ndarray | None):
    """1:1 batch stage: split a parsed record batch into its edge rows
    and frontier-candidate rows, pre-combine each (the same per-batch
    keep-first that dedup_keep_first/distinct ran before their separate
    shuffles — hot-key mitigation is preserved), and emit ONE tagged
    table whose ``__bucket`` routes candidates to range buckets
    ``[0, n_cand_buckets)`` (range-clustered next frontier == next hop's
    fetch routing) and edges to hash buckets
    ``[n_cand_buckets, n_cand_buckets + n_edge_buckets)``."""
    from fs_crawler_ray.ids import range_bucket_of, stable_hash64
    from fs_crawler_ray.relops import _keep_first_arrow

    bnd = _thin_boundaries(boundaries, n_cand_buckets)

    def tag(batch: pa.Table) -> pa.Table:
        parts = []
        e = batch.filter(pc.equal(batch["rec_kind"], "edge")).select(
            ["source", "destination", "rel_id", "src_doc", "offset", "hop"]
        )
        if len(e):
            e = _keep_first_arrow(e, ["source", "destination"], ["hop", "src_doc", "offset"])
            h = np.zeros(len(e), dtype=np.uint64)
            with np.errstate(over="ignore"):
                for i, c in enumerate(["source", "destination"]):
                    h = h * np.uint64(0x9E3779B97F4A7C15) + stable_hash64(e[c], seed=31 + i)
            b = (h % np.uint64(n_edge_buckets)).astype(np.int64) + n_cand_buckets
            parts.append(_tagged(
                len(e), b, source=e["source"], destination=e["destination"],
                rel_id=e["rel_id"], src_doc=e["src_doc"], offset=e["offset"],
                hop=e["hop"],
            ))
        c = batch.filter(pc.equal(batch["rec_kind"], "cand")).select(["cand_id"])
        if len(c):
            c = _keep_first_arrow(c, ["cand_id"], ["cand_id"])
            prio = pa.array(np.full(len(c), hop + 1, dtype=np.int64))
            b = range_bucket_of(as_key_array(c["cand_id"]), n_cand_buckets, boundaries=bnd)
            parts.append(_tagged(len(c), b, cand_id=c["cand_id"], priority=prio))
        if not parts:
            return _TAGGED_SCHEMA.empty_table()
        return pa.concat_tables(parts)

    return tag


def _make_classify_tagger(n_cand_buckets: int, n_edge_buckets: int):
    """Tag PREVIOUS hops' (source, destination) edge rows as
    classify-only rows routed to buckets
    ``[n_cand+n_edge, n_cand+2·n_edge)`` — they ride the last hop's
    existing shuffle so the sink classifies them AFTER every VISITED
    registration of the hop (the groupby barrier is the ordering), and
    the final edge-classification pass stops being its own streaming
    execution (VERDICT r4 item 1: one fewer per-hop floor)."""
    from fs_crawler_ray.ids import stable_hash64

    def tag(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _TAGGED_SCHEMA.empty_table()
        h = np.zeros(len(batch), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i, c in enumerate(["source", "destination"]):
                h = h * np.uint64(0x9E3779B97F4A7C15) + stable_hash64(batch[c], seed=31 + i)
        b = (h % np.uint64(n_edge_buckets)).astype(np.int64) \
            + n_cand_buckets + n_edge_buckets
        return _tagged(len(batch), b, source=batch["source"],
                       destination=batch["destination"])

    return tag


def _make_carryover_tagger(n_cand_buckets: int, boundaries: np.ndarray | None):
    """Tag a budget-remainder frontier batch (id, priority) as candidate
    rows carrying their ORIGINAL priority."""
    from fs_crawler_ray.ids import range_bucket_of

    bnd = _thin_boundaries(boundaries, n_cand_buckets)

    def tag(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return _TAGGED_SCHEMA.empty_table()
        b = range_bucket_of(as_key_array(batch["id"]), n_cand_buckets, boundaries=bnd)
        return _tagged(len(batch), b, cand_id=batch["id"],
                       priority=pc.cast(batch["priority"], pa.int64()))

    return tag


class _HopSink:
    """Per-bucket terminal of the hop's combined shuffle. Each group is
    purely one kind (bucket-id ranges are disjoint): candidate buckets
    run distinct-keep-first → ``visited ∪ processing`` membership filter
    → frontier rows; edge buckets run keep-first dedup → cross-hop
    edge-seen filter (deferred adds) → edge rows. Both side-write their
    group's output as a content-named parquet part (same retry-safe
    idempotence contract as BranchCheckpoint) and return only a count
    row — the hop's frontier AND edges land on disk in the SAME
    execution that fetched and parsed the records.

    Correctness of the fusion: the groupby upstream is an all-to-all
    barrier, so every PROCESSING/VISITED registration (they happen in
    the pre-fetch and post-parse stages of this same execution) has
    completed before any sink group runs — identical visibility to the
    old 3-execution shape."""

    def __init__(self, sm: ShardedMembership, n_cand_buckets: int,
                 frontier_path: str, edges_path: str,
                 n_edge_buckets: int | None = None,
                 classify_edges: bool = False):
        self.sm = sm
        self.n_cand_buckets = n_cand_buckets
        self.n_edge_buckets = (n_cand_buckets if n_edge_buckets is None
                               else n_edge_buckets)
        self.classify_edges = classify_edges
        self.frontier_path = frontier_path
        self.edges_path = edges_path

    def _write(self, rows: pa.Table, path: str, schema: pa.Schema, bucket: int) -> None:
        _write_part(rows, path, schema, key_col=0, tag_prefix=f"{bucket}|")

    def _classify(self, src, dst) -> tuple[int, int, int]:
        """J1 within/spanning/frontier partial for one edge group — ONE
        concatenated VISITED scatter for both endpoints (same RPC-halving
        as _classify_edges). Safe here: the groupby barrier guarantees
        every VISITED registration of this hop completed first."""
        n = len(src)
        if n == 0:
            return 0, 0, 0
        both = self.sm.contains(VISITED, np.concatenate(
            [as_key_array(src), as_key_array(dst)]))
        src_in, dst_in = both[:n], both[n:]
        within = int((src_in & dst_in).sum())
        frontier = int((~src_in & ~dst_in).sum())
        return within, n - within - frontier, frontier

    def __call__(self, t: pa.Table) -> pa.Table:
        from fs_crawler_ray.relops import _keep_first_arrow

        if len(t) == 0:
            return _SINK_COUNT_SCHEMA.empty_table()
        bucket = t["__bucket"][0].as_py()
        n_in = len(t)
        wsf = (0, 0, 0)
        if bucket >= self.n_cand_buckets + self.n_edge_buckets:
            # classify-only rows (previous hops' edges, fused final
            # classification): count, write nothing
            wsf = self._classify(t["source"], t["destination"])
            return pa.table(
                {
                    "kind": pa.array(["classify"], pa.string()),
                    "bucket": pa.array([bucket], pa.int64()),
                    "rows_in": pa.array([n_in], pa.int64()),
                    "rows_out": pa.array([0], pa.int64()),
                    "within": pa.array([wsf[0]], pa.int64()),
                    "spanning": pa.array([wsf[1]], pa.int64()),
                    "frontier_e": pa.array([wsf[2]], pa.int64()),
                },
                schema=_SINK_COUNT_SCHEMA,
            )
        if bucket < self.n_cand_buckets:
            c = t.select(["cand_id", "priority"])
            c = _keep_first_arrow(c, ["cand_id"], ["cand_id", "priority"])
            present = self.sm.contains_any([VISITED, PROCESSING], as_key_array(c["cand_id"]))
            c = c.filter(pa.array(~present))
            out = pa.table(
                {
                    "id": c["cand_id"],
                    "priority": c["priority"],
                    "hop": pc.cast(c["priority"], pa.int32()),
                },
                schema=FRONTIER_SCHEMA,
            )
            if len(out):
                self._write(out, self.frontier_path, FRONTIER_SCHEMA, bucket)
            kind = "frontier"
        else:
            e = t.select(["source", "destination", "rel_id", "src_doc", "offset", "hop"])
            e = _keep_first_arrow(e, ["source", "destination"], ["hop", "src_doc", "offset"])
            e = _edge_key(e)
            present = self.sm.check_and_add_deferred(EDGES, as_key_array(e["edge_key"]))
            e = e.filter(pa.array(~present))
            n = len(e)
            out = pa.table(
                {
                    "source": e["source"],
                    "destination": e["destination"],
                    "type": pa.array([RelationshipType.UNTYPED_PARENT.value] * n, pa.string()),
                    "id": e["rel_id"],
                    "hop": e["hop"],
                },
            )
            if len(out):
                self._write(out, self.edges_path, EDGE_SCHEMA, bucket)
            if self.classify_edges:
                # fused final classification of THIS hop's written edges
                wsf = self._classify(out["source"], out["destination"])
            kind = "edges"
        return pa.table(
            {
                "kind": pa.array([kind], pa.string()),
                "bucket": pa.array([bucket], pa.int64()),
                "rows_in": pa.array([n_in], pa.int64()),
                "rows_out": pa.array([len(out)], pa.int64()),
                "within": pa.array([wsf[0]], pa.int64()),
                "spanning": pa.array([wsf[1]], pa.int64()),
                "frontier_e": pa.array([wsf[2]], pa.int64()),
            },
            schema=_SINK_COUNT_SCHEMA,
        )


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
        # ONE partitioning reused across stages: the id-keyed membership
        # filters shard by the SAME corpus range cuts the frontier
        # shuffle clusters by, so each (range-clustered) batch's
        # visited/processing RPCs hit 1-2 shards instead of all K —
        # the per-batch RPC fan-out no longer grows with the shard
        # count. Edge-seen keys are hashes (no range locality) and stay
        # hash-routed inside the same instance. The shards (and the
        # direct-mode metrics actor) are session-resident: idle ones
        # left by an earlier crawl are reset and reused, see shutdown().
        t_acquire = time.perf_counter()
        self.sm = ShardedMembership.create(
            num_shards=self.config.num_shards,
            capacity_per_shard=self.config.shard_capacity,
            mode=self.config.membership_mode,
            boundaries=_thin_boundaries(self.range_boundaries,
                                        self.config.num_shards),
            range_names=(VISITED, PROCESSING),
        )
        # Two fetch modes: with a politeness budget the token buckets
        # must be central → persistent host-routed actor pool; without
        # one, fetch resolves partition-locally in-task against the
        # row-group range store (no nested RPC, no corpus broadcast —
        # scales with task parallelism AND corpus size).
        self.direct = self.config.politeness is None or self.config.politeness.rate_per_host <= 0
        self.metrics, self.metrics_epoch, m_reused = None, None, 0
        if self.direct:
            from fs_crawler_ray.metrics import acquire_metrics

            self.metrics, self.metrics_epoch, m_reused = acquire_metrics()
        reused = self.sm.reused + m_reused
        #: how this Crawler got its state actors; the first lineage.json
        #: a crawl writes records it
        self._actors = {"reused": reused,
                        "started": self.config.num_shards + self.direct - reused,
                        "acquire_s": round(time.perf_counter() - t_acquire, 3)}
        #: False until this Crawler's first hop runs — lets a fresh
        #: crawl skip the no-op hop-0 PROCESSING clear (see hop loop)
        self._shards_touched = False
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
                                          robots=self.config.robots,
                                          metrics=self.metrics,
                                          epoch=self.metrics_epoch)
        return FetchStage(self.pool, hop)

    def _fetch_counters(self, hop: int | None = None) -> dict:
        if self.direct:
            return ray.get(self.metrics.reset_counters.remote(hop))
        return self.pool.reset()

    def shutdown(self) -> None:
        """Release the state actors. The membership shards and the
        metrics actor are session-resident: after a crawl that returned
        normally they go back to the Ray session's free-list, and the
        next Crawler resets and reuses them instead of starting new
        worker processes. After a crawl that raised, Ray Data tasks may
        still be calling them, so they are killed. The polite-mode fetch
        pool is always killed (its token buckets and auth session start
        fresh per crawl). Results remain fully readable — all state is
        reconstructable from the checkpoint (resume does so)."""
        if self._in_flight:
            for a in self.sm.actors + [self.metrics]:
                if a is not None:
                    ray.kill(a)
        else:
            from fs_crawler_ray.metrics import release_metrics

            self.sm.release()
            if self.metrics is not None:
                release_metrics(self.metrics)
        if self.pool is not None:
            self.pool.shutdown()

    # -- checkpoint helpers -------------------------------------------
    def _hop_dir(self, hop: int) -> str:
        return st.join(self.out_dir, f"hop={hop}")

    def _complete_hops(self) -> list[int]:
        hops = []
        h = 0
        while st.exists(st.join(self._hop_dir(h), "log.json")):
            hops.append(h)
            h += 1
        return hops

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
        done = self._complete_hops()
        if not done:
            return 0, None, []
        log = []
        for h in done:
            log.append(st.read_json(st.join(self._hop_dir(h), "log.json")))
        # batched filter-state rebuild: one pass over all hops' tables
        v_paths = _expand_parquet([st.join(self._hop_dir(h), "vertices.parquet") for h in done])
        _read_parts(v_paths, columns=["id"]).map_batches(
            MembershipStage(self.sm, "id", register=VISITED),
            batch_format="pyarrow", batch_size=8192
        ).count()
        e_paths = _expand_parquet([st.join(self._hop_dir(h), "edges.parquet") for h in done])
        _read_parts(e_paths, columns=["source", "destination"]).map_batches(
            _edge_key, batch_format="pyarrow"
        ).map_batches(
            MembershipStage(self.sm, "edge_key", register=EDGES),
            batch_format="pyarrow", batch_size=8192
        ).count()
        last = done[-1]
        return last + 1, st.join(self._hop_dir(last), "frontier.parquet"), log

    # -- main loop -----------------------------------------------------
    def crawl(self, seeds: list[str], resume: bool = False) -> CrawlResult:
        cfg = self.config
        self._in_flight = True
        # vectorized seed gate: a Python regex loop over a 500k-seed wave
        # costs ~0.5 s of driver time before any task runs
        import pyarrow.compute as _pc

        from fs_crawler_ray.ids import ID_RE

        _ok = _pc.match_substring_regex(
            pa.array(seeds, pa.string()), ID_RE.pattern
        ).to_numpy(zero_copy_only=False)
        bad = [s for s, o in zip(seeds, _ok) if not o] if not _ok.all() else []
        if bad:  # seed regex gate (reference crawler.py:92-94)
            raise ValueError(f"invalid seed ids: {bad}")
        self._write_settings(seeds)

        start_hop, frontier_path, log = 0, None, []
        if resume:
            start_hop, frontier_path, log = self._resume_state()
        else:
            # fresh run: clear any stale hop dirs so _complete_hops /
            # resume never sees leftovers from a longer previous run
            for d in st.listdir(self.out_dir):
                if d.startswith("hop="):
                    st.rmtree(st.join(self.out_dir, d))
        seed_frontier, n_frontier_est = None, 0
        if frontier_path is None:
            # Arrow unique+sort: Python sorted(set()) on a 500k-seed
            # wave is ~0.2 s of serial driver time
            uniq_arr = _pc.unique(pa.array(seeds, pa.string())).sort()
            n_uniq = len(uniq_arr)
            seed_tbl = pa.table(
                {
                    "id": uniq_arr,
                    "priority": pa.nulls(n_uniq, pa.int64()).fill_null(0),
                    "hop": pa.nulls(n_uniq, pa.int32()).fill_null(0),
                },
                schema=FRONTIER_SCHEMA,
            )
            # chunk large seed lists: one Arrow block = one task for the
            # whole fused filter+fetch chain otherwise (a 2M-seed wave
            # spent 77 s in a single serial filter task). Chunks use the
            # fetch block sizing so the fused execution's fetch tasks
            # are the same granularity as re-read frontiers get.
            n_frontier_est = len(seed_tbl)
            _cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
            chunk = (min(32_768, max(4096, n_frontier_est // (FETCH_WAVES * _cpus) + 1))
                     if self.direct else 5_000)
            # override_num_blocks over one table instead of driver-side
            # slice+put per chunk: the split happens lazily inside Ray
            # Data, off the measured serial driver path
            n_blocks = max(1, -(-n_frontier_est // chunk))
            seed_frontier = ray.data.from_arrow(
                seed_tbl, override_num_blocks=n_blocks)
        result = CrawlResult(out_dir=self.out_dir, hops_run=list(range(start_hop)), log=log)

        for hop in range(start_hop, cfg.hops):
            t0 = time.time()
            hop_dir = self._hop_dir(hop)
            if st.exists(hop_dir):
                st.rmtree(hop_dir)  # incomplete hop from a killed run
            st.makedirs(hop_dir)
            # Skip the PROCESSING clear on the very first hop of a fresh
            # Crawler: the shards are brand-new (empty), and this
            # blocking driver RPC would otherwise pay the full shard
            # actor-process cold start (~0.5-0.9 s measured) serially.
            # Deferring first contact into the fused execution lets the
            # cold start overlap executor spin-up and the frontier read.
            # Resume paths already touched the shards (state rebuild),
            # and any later hop / repeat crawl() must clear for real.
            if hop > start_hop or resume or self._shards_touched:
                self.sm.clear(PROCESSING)
            self._shards_touched = True

            stage_t: dict[str, float] = {}

            def _mark(name: str, since: list[float]) -> None:
                now = time.time()
                stage_t[name] = round(now - since[0], 3)
                since[0] = now

            tick = [time.time()]

            # 1.+2. visited-filter + PROCESSING registration + checkpoint
            # side-write + fetch + parse + vertex side-write, all ONE
            # streaming execution (each extra Dataset execution costs a
            # ~0.2-0.5 s fixed floor; the old write→re-read→write shape
            # paid it 3× per hop). The frontier arrives RANGE-CLUSTERED
            # (seeds are sorted; each later frontier is written
            # range-bucketed by the distinct shuffle in
            # _branch_frontier) and every stage here is 1:1, so each
            # fetch task's batch is a contiguous id range hitting 1-2
            # corpus row groups / Lance fragments with NO extra sort.
            proc_path = st.join(hop_dir, "processing.parquet")
            vert_path = st.join(hop_dir, "vertices.parquet")
            st.makedirs(proc_path)
            st.makedirs(vert_path)
            cpus = int(ray.cluster_resources().get("CPU", 8))
            # The visited-filter is REDUNDANT for frontiers produced by
            # a completed previous hop of this run: _branch_frontier
            # already filtered the candidates against the same VISITED
            # state (nothing registers into VISITED between the frontier
            # write and this point), so only the PROCESSING registration
            # remains. The first hop of a run (seeds, or a resumed
            # checkpoint) keeps the full filter.
            prefiltered = hop > start_hop

            # fetch blocks sized to amortize per-block fixed costs (task
            # dispatch + membership-shard RPC fan-out): ≥4k ids per
            # fetch task, ~2 tasks/CPU when the hop is large enough.
            # Measured on this VM: halving block count at 32 CPUs beat
            # doubling it (per-block overhead, not compute, bounds small
            # hops — see BASELINE.md).
            def _fetch_rpb(n: int) -> int:
                return min(32_768, max(4096, n // (2 * cpus) + 1)) if self.direct else 5_000

            # the stage chain downstream of the eligible frontier:
            # fetch → parse → vertex checkpoint (VISITED registration
            # fused in). Vertex rows are a pure 1:1 projection of the
            # parsed records, so persisting them inside this execution
            # replaces the whole former vertices branch.
            def _fetch_parse_chain(src: ray.data.Dataset) -> ray.data.Dataset:
                return (
                    src.map_batches(
                        self._fetch_stage(hop),
                        batch_size=None if self.direct else cfg.fetch_batch_size,
                        batch_format="pyarrow",
                    )
                    .map_batches(parse_documents, batch_format="pyarrow")
                    .map_batches(
                        BranchCheckpoint(vert_path, VERTEX_SCHEMA,
                                         extract=_rec_filter("vertex"),
                                         sm=self.sm, register=VISITED),
                        batch_format="pyarrow",
                    )
                )

            # sink directories must exist before the fused execution
            frontier_out = st.join(hop_dir, "frontier.parquet")
            edges_out = st.join(hop_dir, "edges.parquet")
            st.makedirs(frontier_out)
            st.makedirs(edges_out)
            carryover = None  # budget-mode remainder, tagged separately

            if cfg.frontier_budget is None:
                if frontier_path is not None:
                    n_frontier_est = _parquet_rows(frontier_path)
                    src = _read_sized(frontier_path, rows_per_block=_fetch_rpb(n_frontier_est))
                else:
                    src = seed_frontier
                stage = MembershipStage(self.sm, "id", register=PROCESSING,
                                        check=() if prefiltered else (VISITED,))
                eligible = src.map_batches(stage, batch_format="pyarrow").map_batches(
                    BranchCheckpoint(proc_path, FRONTIER_SCHEMA), batch_format="pyarrow"
                )
                records = _fetch_parse_chain(eligible)
                n_src_est = n_frontier_est
            else:
                # sharded priority queue: take the best `budget` ids by
                # (priority, id); carry the rest to the next frontier.
                # Registration into PROCESSING happens on the head only,
                # AFTER the split (no register/clear/re-register churn).
                # The sort is a materialization barrier, so this path
                # keeps the write→sized-re-read shape for the fetch.
                frontier = (_read_sized(frontier_path) if frontier_path is not None
                            else seed_frontier)
                filtered = frontier if prefiltered else frontier.map_batches(
                    MembershipStage(self.sm, "id", check=(VISITED,)), batch_format="pyarrow"
                )
                ordered = filtered.sort(["priority", "id"]).materialize()
                head, tail = ordered.split_at_indices([cfg.frontier_budget])
                eligible = head.map_batches(
                    MembershipStage(self.sm, "id", register=PROCESSING), batch_format="pyarrow"
                )
                remainder = tail
                _safe_write(eligible, proc_path, FRONTIER_SCHEMA)
                n_proc = _parquet_rows(proc_path)
                records = _fetch_parse_chain(
                    _read_sized(proc_path, columns=["id"], rows_per_block=_fetch_rpb(n_proc))
                )
                n_src_est = n_proc
                if remainder.count() > 0:
                    carryover = remainder.select_columns(["id", "priority"])

            # shuffle width scaled to this hop's data, estimated from the
            # INPUT frontier size (the record count is not known until the
            # fused execution runs; records ≈ ~10 rows per fetched id —
            # vertex + edges + candidate mentions)
            eff_buckets = int(max(2, min(cfg.num_buckets, (n_src_est * 10) // 5000 + 1)))

            # 3. the combined edges + frontier shuffle, fused into the
            # SAME streaming execution as filter/fetch/parse: the tagger
            # pre-combines each kind per batch (hot-key mitigation, same
            # as the old dedup_keep_first/distinct pre-passes), routes
            # candidates to range buckets [0, eff) — so the next
            # frontier lands range-clustered, which IS the next hop's
            # fetch routing — and edges to hash buckets [eff, 2·eff);
            # the per-group _HopSink dedups, membership-filters
            # (visited ∪ processing for candidates — the add_to_frontier
            # guard, graph_memory_impl.py:60-63 — and the deferred
            # cross-hop edge-seen check for edges) and side-writes each
            # group's output parquet part. One execution per hop where
            # round 2 paid three: the groupby barrier provides the same
            # ordering guarantees the old materialize() did.
            # Fused final edge classification (VERDICT r4 item 1): on
            # the LAST hop in "final" mode, previous hops' edges ride
            # THIS hop's shuffle as classify-only rows and this hop's
            # own edges are classified at the sink — the J1
            # classification stops being its own streaming execution
            # (one fewer ~0.5-1 s per-crawl floor). The groupby barrier
            # provides the ordering (all VISITED registrations complete
            # before any sink group). Volume-gated by CLASSIFY_FUSE_MAX.
            fuse_classify = (cfg.log_edge_classification == "final"
                             and hop == cfg.hops - 1)
            prev_edge_paths: list[str] = []
            if fuse_classify:
                prev_edge_paths = _expand_parquet([
                    p for p in (st.join(self._hop_dir(h), "edges.parquet")
                                for h in result.hops_run)
                    if st.exists(p)])
                n_prev = sum(st.file_rows(p) for p in prev_edge_paths)
                if n_prev > CLASSIFY_FUSE_MAX:
                    fuse_classify = False

            tagger = _make_record_tagger(hop, eff_buckets, eff_buckets, self.range_boundaries)
            tagged = records.map_batches(tagger, batch_format="pyarrow")
            if fuse_classify and prev_edge_paths:
                n_prev_blocks = int(min(64, max(1, n_prev // 65_536 + 1)))
                prev_edges = _read_parts(
                    prev_edge_paths, columns=["source", "destination"],
                    override_num_blocks=n_prev_blocks)
                tagged = tagged.union(prev_edges.map_batches(
                    _make_classify_tagger(eff_buckets, eff_buckets),
                    batch_format="pyarrow"))
            if carryover is not None:
                # unprocessed budget remainder carries over with its
                # ORIGINAL priority; the sink's keep-first by
                # (cand_id, priority) keeps the smallest priority per id
                tagged = tagged.union(
                    carryover.map_batches(
                        _make_carryover_tagger(eff_buckets, self.range_boundaries),
                        batch_format="pyarrow",
                    )
                )
            sink = _HopSink(self.sm, eff_buckets, frontier_out, edges_out,
                            n_edge_buckets=eff_buckets,
                            classify_edges=fuse_classify)

            def hop_sink(t: pa.Table) -> pa.Table:  # map_groups wants a function
                return sink(t)

            # shuffle PARTITION count follows the cluster, not the bucket
            # count: each sort-shuffle reduce task costs ~20-30 ms of
            # scheduling regardless of size, so 128 partitions on an
            # 8-slot cluster is ~3 s of pure orchestration for <0.3 s of
            # work (measured, BASELINE.md r3). Groups stay intact at any
            # partition count; the sink splits multi-bucket partitions.
            _cl_cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
            n_parts = max(4, min(2 * eff_buckets, 2 * _cl_cpus))
            grouped = tagged.groupby("__bucket", num_partitions=n_parts).map_groups(
                hop_sink, batch_format="pyarrow"
            )
            _mark("hop_plan", tick)  # lazy graph construction + seed prep
            sink_counts = grouped.take_all()
            if os.environ.get("FSRAY_HOP_STATS") == "1":  # perf diagnostics
                import sys

                print(grouped.stats(), file=sys.stderr)
            _mark("hop_exec", tick)
            _ensure_nonempty(proc_path, FRONTIER_SCHEMA)
            _ensure_nonempty(vert_path, VERTEX_SCHEMA)
            _ensure_nonempty(frontier_out, FRONTIER_SCHEMA)
            _ensure_nonempty(edges_out, EDGE_SCHEMA)
            self.sm.commit(EDGES)  # merge this hop's edge keys (actor RPCs only)
            n_records = sum(r["rows_in"] for r in sink_counts
                            if r["kind"] != "classify")  # post-pre-combine shuffle rows
            _mark("hop_post", tick)

            # 4. metrics + LOG (membership already mutated in-pass above)
            if fuse_classify:
                counts = {
                    "within": int(sum(r["within"] for r in sink_counts)),
                    "spanning": int(sum(r["spanning"] for r in sink_counts)),
                    "frontier": int(sum(r["frontier_e"] for r in sink_counts)),
                }
            elif cfg.log_edge_classification == "full" or (
                cfg.log_edge_classification == "final" and hop == cfg.hops - 1
            ):
                counts = self._classify_edges(result.hops_run + [hop])
            else:
                counts = {"within": None, "spanning": None, "frontier": None}
            shard_stats = self.sm.stats()  # ONE gather per hop, reused below
            n_vertices = sum(s[VISITED]["count"] for s in shard_stats if VISITED in s)
            n_frontier = _parquet_rows(st.join(hop_dir, "frontier.parquet"))
            _mark("log_classify", tick)
            lineage = {
                "hop": hop,
                "fetch": self._fetch_counters(hop),
                "shards": shard_stats,
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
                "frontier": int(n_frontier),
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
            frontier_path, seed_frontier = st.join(hop_dir, "frontier.parquet"), None

        result.log = log
        # a later crawl() of this Crawler reuses every actor it holds
        held = self._actors["reused"] + self._actors["started"]
        self._actors = {"reused": held, "started": 0, "acquire_s": 0.0}
        self._in_flight = False
        return result

    # -- edge classification (J1/A2: graph_memory_impl.py:106-120) ----
    def _classify_edges(self, hops: list[int]) -> dict:
        paths = [st.join(self._hop_dir(h), "edges.parquet") for h in hops]
        paths = _expand_parquet([p for p in paths if st.exists(p)])
        if not paths:
            return {"within": 0, "spanning": 0, "frontier": 0}
        ds = _read_parts(paths, columns=["source", "destination"])
        sm = self.sm

        def classify(batch: pa.Table) -> pa.Table:
            # ONE scatter-gather for both endpoints: concatenate the
            # source+destination keys, split the result — halves the
            # per-batch membership RPC count (8 RPCs at 8 shards, not 16)
            n = len(batch)
            both = sm.contains(VISITED, np.concatenate([
                as_key_array(batch["source"]), as_key_array(batch["destination"])]))
            src_in, dst_in = both[:n], both[n:]
            within = int((src_in & dst_in).sum())
            frontier = int((~src_in & ~dst_in).sum())
            return pa.table(
                {
                    "within": pa.array([within], pa.int64()),
                    "spanning": pa.array([len(batch) - within - frontier], pa.int64()),
                    "frontier": pa.array([frontier], pa.int64()),
                }
            )

        # per-batch partial counts summed on the driver: three scalars
        # per task, so a shuffle Aggregate here only adds an all-to-all
        # operator's fixed cost (~1.5 s) to every crawl. Large batches:
        # each one costs 2 scatter-gathers across ALL membership shards
        # (16 RPCs at 8 shards), so default-sized batches are RPC-bound
        # (measured 9.5 s → 6.2 s on 5.8M rows at 256k-row batches; a
        # 256k batch is ~6 MB of id strings)
        parts = ds.map_batches(
            classify, batch_format="pyarrow", batch_size=262_144
        ).take_all()
        return {
            "within": int(sum(r["within"] for r in parts)),
            "spanning": int(sum(r["spanning"] for r in parts)),
            "frontier": int(sum(r["frontier"] for r in parts)),
        }


def crawl(corpus: CorpusInfo, seeds: list[str], out_dir: str, config: CrawlConfig | None = None,
          resume: bool = False) -> CrawlResult:
    crawler = Crawler(corpus, out_dir, config)
    try:
        return crawler.crawl(seeds, resume=resume)
    finally:
        crawler.shutdown()
