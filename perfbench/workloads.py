"""Workload definitions shared by the input preparation and the run.

The corpus stands in for the web: it is generated once per checkout
from a fixed seed. A run's inputs — the crawl seeds, the wave frontier,
the polite sample — are drawn from it with the run's ``--seed``, so the
same seed gives the same inputs. Nothing here imports Ray.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

#: corpus size: the sf0.1 documents table (5,000 rows) scaled ×3.2. A
#: ×20 (100k-doc) corpus does not fit a run of about a minute: its
#: deep-crawl oracle alone takes ~21 s per seed. At 20k documents three
#: rounds of reps took ~36 s of a deep-crawl run, leaving no time to
#: replace reps that ran while the hypervisor stole CPU.
PERSONS = 16_000
CORPUS_SEED = 42
NARRATIVE_WORDS = 150
#: crawl seeds of the deep crawl, drawn from the SEED_POOL last (latest
#: generation) persons, the region the corpus designates its own seeds in
N_SEEDS = 2048
SEED_POOL = 4 * N_SEEDS
#: share of the corpus in the wide wave's frontier; the rest can only
#: appear as new frontier candidates, which the gate then checks
WAVE_SHARE = 0.9
#: ids in the polite probe's wave: 10 requests of 500, each touching
#: every host, so the budget floor is (10 − 4) / 2 = 3 s
POLITE_IDS = 5_000
NUM_CPUS = 4

NAMES = ("deep_crawl", "wide_wave")


@dataclass(frozen=True)
class Workload:
    name: str
    hops: int
    membership_mode: str
    log_edge_classification: str
    shard_capacity: int = 1 << 18
    fetch_concurrency: int = 4
    fetch_batch_size: int = 200
    polite: bool = False


WORKLOADS = {
    "deep_crawl": Workload("deep_crawl", hops=5, membership_mode="exact",
                           log_edge_classification="final"),
    "wide_wave": Workload("wide_wave", hops=1, membership_mode="probabilistic",
                          log_edge_classification="off", shard_capacity=1 << 21),
    # not a --workload: a polite crawl costs ~9 s a rep, so a full run of
    # it (cold crawl, reps, resumes) does not fit the per-run time
    # budget; traced runs crawl it once as the fetch-layer probe
    "polite_probe": Workload("polite_probe", hops=1, membership_mode="probabilistic",
                             log_edge_classification="off", shard_capacity=1 << 21,
                             fetch_concurrency=8, fetch_batch_size=500, polite=True),
}

#: politeness budget of the polite probe: every 500-id request touches all
#: 64 hosts, so the budget-only floor is (requests − burst) / rate.
POLITE_RATE, POLITE_BURST, POLITE_HOSTS = 2.0, 4.0, 64
#: robots rule of the polite probe: one host in ROBOTS_EVERY is disallowed
ROBOTS_HOSTS, ROBOTS_EVERY = 64, 8


#: the program files whose code shapes the cached inputs: the corpus
#: generator (with what it imports from the package) and the oracle. A
#: cached input is keyed on a hash of them, so a change to either is
#: never timed or gated against a stale corpus or oracle answer.
CORPUS_SOURCES = ("corpus.py", "ids.py", "model.py")
ORACLE_SOURCES = CORPUS_SOURCES + ("oracle.py", "state/robots.py")


def source_hash(root: str, sources: tuple[str, ...]) -> str:
    h = hashlib.sha1()
    for rel in sources:
        h.update(rel.encode())
        with open(os.path.join(root, "fs_crawler_ray", rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:10]


def corpus_dir(root: str, persons: int) -> str:
    return os.path.join(work_dir(root), "inputs",
                        f"corpus_p{persons}_s{CORPUS_SEED}_w{NARRATIVE_WORDS}"
                        f"_{source_hash(root, CORPUS_SOURCES)}")


def work_dir(root: str) -> str:
    """Scratch space of the benchmark inside the checkout (git-ignored)."""
    return os.path.join(root, ".perfbench_work")


def oracle_path(root: str, seed: int, persons: int, wl: Workload) -> str:
    """Oracle cache file, keyed by everything that shapes the answer:
    the workload, its input constants and the oracle's code."""
    key = hashlib.sha1(repr((wl, N_SEEDS, SEED_POOL, WAVE_SHARE, POLITE_IDS,
                             ROBOTS_HOSTS, ROBOTS_EVERY,
                             source_hash(root, ORACLE_SOURCES))).encode())
    return os.path.join(corpus_dir(root, persons) + ".oracles",
                        f"{wl.name}_s{seed}_{key.hexdigest()[:10]}.json")


def crawl_seeds(wl: Workload, seed: int, doc_ids: list[str]) -> list[str]:
    """The seed list a workload hands the crawler (``doc_ids`` sorted)."""
    rng = np.random.default_rng(seed)
    if wl.name == "deep_crawl":
        lo = max(0, len(doc_ids) - SEED_POOL)
        pick = lo + rng.choice(len(doc_ids) - lo, size=min(N_SEEDS, len(doc_ids) - lo),
                               replace=False)
    else:
        n = int(len(doc_ids) * WAVE_SHARE) if wl.name == "wide_wave" else POLITE_IDS
        pick = rng.choice(len(doc_ids), size=min(n, len(doc_ids)), replace=False)
    return [doc_ids[i] for i in np.sort(pick)]


def robots_policy(wl: Workload):
    from fs_crawler_ray.state.robots import RobotsPolicy

    if not wl.polite:
        return None
    return RobotsPolicy(n_hosts=ROBOTS_HOSTS, disallow_every=ROBOTS_EVERY)


def politeness(wl: Workload):
    from fs_crawler_ray.stages.fetch import PolitenessBudget

    if not wl.polite:
        return None
    return PolitenessBudget(rate_per_host=POLITE_RATE, burst=POLITE_BURST,
                            n_hosts=POLITE_HOSTS)


def crawl_config(wl: Workload, hops: int | None = None):
    from fs_crawler_ray.crawl import CrawlConfig

    return CrawlConfig(
        hops=wl.hops if hops is None else hops,
        membership_mode=wl.membership_mode,
        shard_capacity=wl.shard_capacity,
        fetch_concurrency=wl.fetch_concurrency,
        fetch_batch_size=wl.fetch_batch_size,
        log_edge_classification=wl.log_edge_classification,
        politeness=politeness(wl),
        robots=robots_policy(wl),
    )


def budget_floor_s(wl: Workload, n_ids: int) -> float:
    """Budget-only wall floor of a polite hop of ``n_ids`` ids."""
    requests = -(-n_ids // wl.fetch_batch_size)
    return max(0.0, (requests - POLITE_BURST) / POLITE_RATE)
