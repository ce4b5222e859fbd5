"""Crawl output read-back, and the output gate: one crawl output
against the oracle's answer.

Exact-membership crawls must equal the oracle exactly (vertex ids, the
(source, destination) edge set, the final frontier and the log rows).
Probabilistic crawls must have the exact vertex ids, and edge and
frontier counts no higher than the oracle's and lower by at most the
filters' false-positive budget.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.dataset as pads

#: the bloom filters' configured false-positive rate (BloomFilter's
#: default ``fp_rate``): the most a probabilistic crawl may drop
FP_BUDGET = 0.01


def _column(path: str, cols: list[str]) -> pa.Table:
    return pads.dataset(path, format="parquet").to_table(columns=cols)


def complete_hops(out_dir: str) -> list[int]:
    hops, h = [], 0
    while os.path.exists(os.path.join(out_dir, f"hop={h}", "log.json")):
        hops.append(h)
        h += 1
    return hops


def read_output(out_dir: str) -> dict:
    hops = complete_hops(out_dir)
    if not hops:
        raise ValueError(f"no complete hop under {out_dir}")
    hop_dirs = [os.path.join(out_dir, f"hop={h}") for h in hops]
    verts = pa.concat_tables(_column(os.path.join(d, "vertices.parquet"), ["id"])
                             for d in hop_dirs)["id"].to_pylist()
    edges = pa.concat_tables(_column(os.path.join(d, "edges.parquet"),
                                     ["source", "destination"]) for d in hop_dirs)
    frontier = _column(os.path.join(hop_dirs[-1], "frontier.parquet"), ["id"])["id"].to_pylist()
    log = []
    for d in hop_dirs:
        with open(os.path.join(d, "log.json")) as f:
            log.append(json.load(f))
    return {
        "vertices": verts,
        "edges": list(zip(edges["source"].to_pylist(), edges["destination"].to_pylist())),
        "frontier": frontier,
        "log": log,
    }


def lineage_summary(out_dir: str, wall: float) -> dict:
    """Per-layer numbers of one crawl, read back from its lineage.json."""
    stage: dict[str, float] = {}
    fetch: dict[str, float] = {}
    records = 0
    hops = complete_hops(out_dir)
    for h in hops:
        with open(os.path.join(out_dir, f"hop={h}", "lineage.json")) as f:
            lin = json.load(f)
        for k, v in lin["stage_seconds"].items():
            stage[k] = stage.get(k, 0.0) + v
        for k, v in lin["fetch"].items():
            fetch[k] = fetch.get(k, 0.0) + float(v)
        records += int(lin["records"])
    return {"wall": wall, "stage": stage, "fetch": fetch, "records": records,
            "hops": len(hops), "last_hop_stage_s": _last_hop_stage_s(out_dir, hops)}


def _last_hop_stage_s(out_dir: str, hops: list[int]) -> float:
    with open(os.path.join(out_dir, f"hop={hops[-1]}", "lineage.json")) as f:
        return float(sum(json.load(f)["stage_seconds"].values()))


def _within_budget(got: int, want: int) -> bool:
    return want * (1 - FP_BUDGET) <= got <= want


def check(out: dict, oracle: dict, exact: bool) -> list[str]:
    """Problems found (empty when the output passes)."""
    bad = []
    if len(out["vertices"]) != len(set(out["vertices"])):
        bad.append("duplicate vertex rows")
    if sorted(out["vertices"]) != oracle["vertices"]:
        bad.append(f"vertex ids differ: {len(out['vertices'])} vs oracle "
                   f"{len(oracle['vertices'])}")
    if len(out["edges"]) != len(set(out["edges"])):
        bad.append("duplicate edge rows")
    if exact:
        if sorted(out["edges"]) != [tuple(e) for e in oracle["edges"]]:
            bad.append(f"edge set differs: {len(out['edges'])} vs oracle {len(oracle['edges'])}")
        if sorted(out["frontier"]) != oracle["frontier"]:
            bad.append(f"frontier differs: {len(out['frontier'])} vs oracle "
                       f"{len(oracle['frontier'])}")
        if len(out["log"]) != len(oracle["log"]):
            bad.append("log row count differs")
        for got, want in zip(out["log"], oracle["log"]):
            for k in ("vertices", "frontier"):
                if got[k] != want[k]:
                    bad.append(f"log hop {want['iteration']} {k}: {got[k]} vs {want[k]}")
            if got["edges"] is not None:
                for k in ("edges", "spanning_edges", "frontier_edges"):
                    if got[k] != want[k]:
                        bad.append(f"log hop {want['iteration']} {k}: {got[k]} vs {want[k]}")
        if out["log"] and out["log"][-1]["edges"] is None:
            bad.append("final log row has no edge classification")
    else:
        for k in ("edges", "frontier"):
            if not _within_budget(len(out[k]), len(oracle[k])):
                bad.append(f"{k} count {len(out[k])} outside the false-positive "
                           f"budget of oracle {len(oracle[k])}")
    return bad


class Tally:
    """Reps attempted and failed. A failed rep raised or failed its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def record(self, label: str, problems: list[str]) -> list[str]:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"rep": label, "problems": problems[:5]})
        return problems
