"""A counter actor for Ray Data stages that have no rows to count in.

:func:`~fs_crawler_ray.text.minhash_lsh_candidates` takes one as its
optional ``metrics`` hook and reports the hot LSH buckets it salted and
the pairs it skipped there in fire-and-forget ``increment`` RPCs;
``snapshot`` reads the totals. The crawl does not use it: each hop's
fetch counters come from the hop's own rows (``lineage.json``, see
:mod:`fs_crawler_ray.crawl`)."""

from __future__ import annotations

from collections import defaultdict

import ray


@ray.remote(num_cpus=0)
class MetricsActor:
    def __init__(self):
        self.counters: dict[str, float] = defaultdict(float)

    def increment(self, deltas: dict[str, float]) -> None:
        for k, v in deltas.items():
            self.counters[k] += v

    def snapshot(self) -> dict:
        return dict(self.counters)
