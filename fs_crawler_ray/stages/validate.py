"""Graph validator (SURVEY §3.2): parent-count validation, invalid
categorization, histograms, valid-graph renumbering.

Faithful re-derivation of ``fscrawler/controller/graph_validator.py``:

- M7 lifespan→birth-year (``graph_validator.py:24-35``): a ``'-1'``
  substring splits birth/death (prefix empty → death-only → use death
  year); ``'Living'`` → 3000; otherwise 0 ("Dead").
- per-child gender-bucketed parent counts over VALIDATION types
  {BiologicalParent, UnspecifiedParentType} and RESOLUTION types
  {UntypedParent}, counting only parents that are resolved vertices
  (``graph_validator.py:94-122``); parents outside vertices ∪ frontier
  are "unknown vertices";
- invalid iff >2 counted parents (or 0), with the reference's 8-way
  category ladder (``graph_validator.py:125-154``); resolution_src =
  children with >1 same-gender UntypedParent parents
  (``graph_validator.py:161-164``);
- A7 birth-decade histogram, A8 per-iteration histogram;
- J4 save_valid_graph (``graph_validator.py:194-225``): renumber
  vertices 1..N, rewrite edges dropping invalid children, emit the
  invalid-relationships table.

Ray mapping: one shuffle join (edge destination → parent gender), one
hash-bucketed grouped aggregation (Arrow hash aggregation per bucket),
and a distributed stats reduction (one 1-row partial per block; the
driver folds O(blocks) rows, never the per-child table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from fs_crawler_ray.relops import bucketed_agg
from fs_crawler_ray.stages.export import zip_with_index

VALIDATION_TYPES = ["BiologicalParent", "UnspecifiedParentType"]
RESOLUTION_TYPES = ["UntypedParent"]
DEAD, LIVING = 0, 3000

INVALID_CATEGORIES = [
    "male_female_unknown", "female_unknown", "male_unknown",
    "male_female", "father", "mother", "unknown",
]


def birth_year_from_lifespan(lifespans: np.ndarray) -> np.ndarray:
    """Vectorized M7. '1894-1983'→1894, '-1983'→1983, 'Living'→3000, else 0."""
    s = pd.Series(lifespans, dtype="object").fillna("")
    idx = s.str.find("-1")
    out = np.zeros(len(s), dtype=np.int64)
    living = (idx == -1) & (s == "Living")
    out[living.to_numpy()] = LIVING
    pre = idx > 0
    out[pre.to_numpy()] = pd.to_numeric(s[pre].str.slice(0, None).str.extract(r"^(\d+)-1")[0],
                                        errors="coerce").fillna(0).astype(np.int64).to_numpy()
    d_only = idx == 0
    out[d_only.to_numpy()] = pd.to_numeric(s[d_only].str.slice(1), errors="coerce").fillna(0).astype(np.int64).to_numpy()
    return out


@dataclass
class ValidationStats:
    vertex_count: int = 0
    frontier_vertex_count: int = 0
    edge_count: int = 0
    child_count: int = 0
    unknown_vertex_count: int = 0
    invalid_counts: dict = field(default_factory=dict)   # category → n
    no_rel_count: int = 0
    max_father: int = 0
    max_mother: int = 0
    invalid_src_count: int = 0
    resolution_src_count: int = 0
    birth_decade_histogram: dict = field(default_factory=dict)
    iteration_histogram: dict = field(default_factory=dict)


def _per_child_table(
    edges: ray.data.Dataset,
    vertices: ray.data.Dataset,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """Edges ⟕ vertices(destination→parent gender) → per-child gender
    counts for validation and resolution type families."""
    from fs_crawler_ray.relops import join

    vg = vertices.select_columns(["id", "color"]).rename_columns({"id": "__p", "color": "pg"})
    j = join(edges.select_columns(["source", "destination", "type"]), vg,
             "destination", "__p", how="left", num_partitions=num_partitions)

    def partial(t: pa.Table) -> pa.Table:
        known = pc.is_valid(t["pg"]).to_numpy()
        pg = pc.fill_null(t["pg"], 99).to_numpy()
        out = {"source": t["source"]}
        for fam, types in (("v", VALIDATION_TYPES), ("r", RESOLUTION_TYPES)):
            in_fam = pc.is_in(t["type"], value_set=pa.array(types)).to_numpy() & known
            for g, tag in ((-1, "m"), (1, "f"), (0, "u")):
                out[f"{fam}{tag}"] = (in_fam & (pg == g)).astype(np.int64)
            out[f"{fam}_any"] = in_fam.astype(np.int64)
        return pa.table(out)

    cols = [f"{fam}{tag}" for fam in ("v", "r") for tag in ("m", "f", "u", "_any")]
    return bucketed_agg(j.map_batches(partial, batch_format="pyarrow"), ["source"],
                        [(c, "sum", c) for c in cols], 64)


def classify_children(per_child: pa.Table) -> pa.Table:
    """Vectorized invalid/resolution classification (graph_validator.py:125-164).
    Only children with ≥1 VALIDATION-counted parent enter validation
    (the reference's defaultdict is only created on access). Arrow
    in/out — numpy kernels over zero-copy column views."""
    t = per_child

    def col(name: str) -> np.ndarray:
        return t[name].to_numpy(zero_copy_only=False)

    vm, vf, vu = col("vm"), col("vf"), col("vu")
    v_tot = vm + vf + vu
    has_v = col("v_any") > 0
    invalid = has_v & ((v_tot > 2) | (v_tot == 0))
    over = has_v & (v_tot > 2)
    m, f, u = vm > 1, vf > 1, vu > 1
    cat = np.select(
        [over & m & f & u, over & f & u, over & m & u, over & m & f, over & m, over & f, over & u],
        ["male_female_unknown", "female_unknown", "male_unknown", "male_female", "father", "mother", "unknown"],
        default="",
    )
    cat = np.where(over & (cat == ""), "unknown", cat)  # reference's else-fallback
    resolution = (col("r_any") > 0) & ((col("rm") > 1) | (col("rf") > 1) | (col("ru") > 1))
    return (
        t.append_column("invalid", pa.array(invalid))
        .append_column("no_rel", pa.array(has_v & (v_tot == 0)))
        .append_column("category", pa.array(cat.astype(str), pa.string()))
        .append_column("resolution", pa.array(resolution))
    )


def validate(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    frontier: ray.data.Dataset,
    num_partitions: int = 16,
) -> tuple[ValidationStats, ray.data.Dataset]:
    """→ (stats, per-child classification Dataset[source, invalid,
    category, resolution, ...])."""
    stats = ValidationStats()
    stats.vertex_count = vertices.count()
    stats.frontier_vertex_count = frontier.count()
    stats.edge_count = edges.count()

    per_child = _per_child_table(edges, vertices, num_partitions).materialize()
    classified_ds = per_child.map_batches(
        classify_children, batch_format="pyarrow"
    ).materialize()

    # distributed stats reduction: ONE map_batches pass emits a 1-row
    # partial per block (sums, masked maxes, per-category counts); the
    # driver folds O(blocks) tiny rows — never the per-child table
    # (round-2 shape pulled one row per child through the driver,
    # O(vertices) memory at scale).
    def stats_partial(t: pa.Table) -> pa.Table:
        v_any = t["v_any"].to_numpy(zero_copy_only=False)
        r_any = t["r_any"].to_numpy(zero_copy_only=False)
        vm = t["vm"].to_numpy(zero_copy_only=False)
        vf = t["vf"].to_numpy(zero_copy_only=False)
        vu = t["vu"].to_numpy(zero_copy_only=False)
        inv = t["invalid"].to_numpy(zero_copy_only=False).astype(bool)
        cat = np.asarray(t["category"].to_pylist(), dtype=object)
        over = inv & (vm + vf + vu > 2)
        mf = over & (vm > 1)
        mm = over & (vf > 1)
        row = {
            "child_count": [int((v_any > 0).sum() + (r_any > 0).sum())],
            "invalid": [int(inv.sum())],
            "no_rel": [int(t["no_rel"].to_numpy(zero_copy_only=False).astype(bool).sum())],
            "resolution": [int(t["resolution"].to_numpy(zero_copy_only=False).astype(bool).sum())],
            "max_father": [int(vm[mf].max()) if mf.any() else 0],
            "max_mother": [int(vf[mm].max()) if mm.any() else 0],
        }
        for c in INVALID_CATEGORIES:
            row[f"cat_{c}"] = [int((inv & (cat == c)).sum())]
        return pa.table(row)

    partials = classified_ds.map_batches(stats_partial, batch_format="pyarrow").take_all()
    stats.child_count = sum(p["child_count"] for p in partials)
    stats.invalid_src_count = sum(p["invalid"] for p in partials)
    stats.no_rel_count = sum(p["no_rel"] for p in partials)
    stats.resolution_src_count = sum(p["resolution"] for p in partials)
    stats.max_father = max((p["max_father"] for p in partials), default=0)
    stats.max_mother = max((p["max_mother"] for p in partials), default=0)
    stats.invalid_counts = {
        c: sum(p[f"cat_{c}"] for p in partials) for c in INVALID_CATEGORIES
    }

    # unknown vertices: edge destinations outside vertices ∪ frontier —
    # distinct-then-count stays distributed (no driver key list)
    from fs_crawler_ray.relops import distinct, join

    unknown = join(edges.select_columns(["destination"]), vertices, "destination", "id",
                   how="anti", num_partitions=num_partitions)
    unknown = join(unknown, frontier, "destination", "id", how="anti",
                   num_partitions=num_partitions)
    stats.unknown_vertex_count = distinct(
        unknown.select_columns(["destination"]), ["destination"], num_partitions
    ).count()

    # histograms over invalid children (A7/A8): size-aware semi-join of
    # vertices against the invalid-child id set, then per-batch partial
    # histograms — the driver folds (decade|iteration, n) rows only
    if stats.invalid_src_count:
        inv_ds = classified_ds.map_batches(
            lambda t: t.filter(pc.cast(t["invalid"], pa.bool_())), batch_format="pyarrow"
        ).select_columns(["source"])
        vmeta = join(vertices.select_columns(["id", "iteration", "lifespan"]),
                     inv_ds, "id", "source", how="semi", num_partitions=num_partitions)

        def hist_partial(t: pa.Table) -> pa.Table:
            by = birth_year_from_lifespan(t["lifespan"].to_numpy(zero_copy_only=False))
            dec, dcnt = np.unique(by // 10 * 10, return_counts=True)
            it, icnt = np.unique(t["iteration"].to_numpy(zero_copy_only=False), return_counts=True)
            return pa.table({
                "kind": ["decade"] * len(dec) + ["iteration"] * len(it),
                "key": np.concatenate([dec, it]).astype(np.int64),
                "n": np.concatenate([dcnt, icnt]).astype(np.int64),
            })

        for r in vmeta.map_batches(hist_partial, batch_format="pyarrow").take_all():
            h = (stats.birth_decade_histogram if r["kind"] == "decade"
                 else stats.iteration_histogram)
            h[int(r["key"])] = h.get(int(r["key"]), 0) + int(r["n"])

    return stats, classified_ds


def save_valid_graph(
    vertices: ray.data.Dataset,
    edges: ray.data.Dataset,
    classified: ray.data.Dataset,
    out_dir: str,
    num_partitions: int = 16,
) -> dict:
    """J4: renumber vertices 1..N (insertion order = (iteration, id)),
    rewrite edges through the numbering dropping invalid children, and
    emit the invalid-relationships table. Returns output paths."""
    import os

    numbered = zip_with_index(vertices, ["iteration", "id"], "vertex_number").materialize()
    vpath = os.path.join(out_dir, "validated.vertices.parquet")
    numbered.write_parquet(vpath)

    from fs_crawler_ray.relops import join, unique_lookup

    invalid = classified.map_batches(
        lambda t: t.filter(pc.equal(t["invalid"], True)), batch_format="pyarrow"
    ).select_columns(["source"]).materialize()

    num = numbered.select_columns(["id", "vertex_number"])
    e = join(edges, invalid, "source", how="anti", num_partitions=num_partitions)
    # both endpoints probe one broadcast of the numbering; a duplicate
    # vertex id raises instead of multiplying edges
    e = unique_lookup(e, num, ["id"], [(["source"], {"vertex_number": "src_n"}),
                                       (["destination"], {"vertex_number": "dst_n"})],
                      how="inner", num_partitions=num_partitions)
    epath = os.path.join(out_dir, "validated.edges.parquet")
    e.select_columns(["src_n", "dst_n"]).write_parquet(epath)

    inv_rel = join(edges, invalid, "source", how="semi",
                   num_partitions=num_partitions).select_columns(["source", "id"])
    # the reference emits a deduplicated (child, rel) set via its
    # child_to_rel dict (graph_validator.py:220-225) — a two-parent
    # relationship must not produce duplicate rows
    from fs_crawler_ray.relops import distinct

    inv_rel = distinct(inv_rel, ["source", "id"], num_partitions)
    ipath = os.path.join(out_dir, "invalid.edges.parquet")
    inv_rel.write_parquet(ipath)
    return {"vertices": vpath, "edges": epath, "invalid": ipath}
