"""Build a run's inputs: the corpus (once per checkout) and the oracle's
answer for one workload and seed, cached under ``.perfbench_work/inputs/``.

Runs in its own process (``run.py`` starts it) so that corpus generation
and the single-process oracle never count toward the benchmark's timed
regions, its set-up time or its driver memory. Usage::

    python3 perfbench/prepare.py --root . --seed 1 --persons 16000 \
        --workload deep_crawl --workload polite_probe
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def ensure_corpus(root: str, persons: int) -> str:
    """Generate the corpus once; returns its dir."""
    from fs_crawler_ray.corpus import CorpusSpec, generate_corpus

    from workloads import CORPUS_SEED, NARRATIVE_WORDS, corpus_dir

    out = corpus_dir(root, persons)
    if os.path.exists(os.path.join(out, "meta.json")):
        return out
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    generate_corpus(CorpusSpec(n_persons=persons, seed=CORPUS_SEED,
                               narrative_words=NARRATIVE_WORDS), tmp)
    # paths inside meta.json are absolute; rewrite them for the final dir
    with open(os.path.join(tmp, "meta.json")) as f:
        meta = json.load(f)
    for k in ("documents_path", "relationships_path"):
        meta[k] = os.path.join(out, os.path.basename(meta[k]))
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump(meta, f)
    os.replace(tmp, out)
    return out


def ensure_oracle(root: str, seed: int, persons: int, workload: str) -> str:
    """The oracle crawl of one workload, as sorted id lists and edge pairs."""
    import pyarrow.dataset as pads

    from fs_crawler_ray.corpus import CorpusInfo
    from fs_crawler_ray.oracle import oracle_crawl

    from workloads import WORKLOADS, crawl_seeds, oracle_path, robots_policy

    wl = WORKLOADS[workload]
    path = oracle_path(root, seed, persons, wl)
    if os.path.exists(path):
        return path
    info = CorpusInfo.load(ensure_corpus(root, persons))
    doc_ids = pads.dataset(info.documents_path).to_table(columns=["doc_id"])["doc_id"].to_pylist()
    seeds = crawl_seeds(wl, seed, doc_ids)
    res = oracle_crawl(info.documents_path, seeds, wl.hops, robots=robots_policy(wl))
    out = {
        "vertices": sorted(res.vertices),
        "edges": sorted(res.edges),
        "frontier": sorted(res.frontier),
        "log": res.log,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(path + ".tmp", path)
    return path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--persons", type=int, required=True)
    ap.add_argument("--workload", required=True, action="append")
    a = ap.parse_args()
    root = os.path.abspath(a.root)
    sys.path.insert(0, root)
    for workload in a.workload:
        ensure_oracle(root, a.seed, a.persons, workload)


if __name__ == "__main__":
    main()
