"""Crawl metrics + per-partition lineage.

Replaces the reference's request counter (``session.py:111,122``) and
per-iteration LOG rows (``graph_db_impl.py:157-176``) with a small
metrics actor that fetch/filter stages increment in batched,
fire-and-forget RPCs, plus per-hop lineage rows recording what each
fetch actor / membership shard did (a north-rule requirement).

The crawl's metrics actor is session-resident, like the membership
shards: :func:`acquire_metrics` takes an idle one and resets it (or
starts one), and the crawl gives it back when it returns normally. Each
acquisition carries a new epoch; increments are tagged with it, and
the actor drops a delta whose epoch is not its current one, so a late
fire-and-forget delta from an earlier crawl cannot inflate the next
crawl's counters."""

from __future__ import annotations

import itertools
from collections import defaultdict

import ray

from fs_crawler_ray.state import resident

_epochs = itertools.count(1)


@ray.remote(num_cpus=0)
class MetricsActor:
    def __init__(self, epoch: int | None = None):
        self.reset(epoch)

    def reset(self, epoch: int | None = None) -> None:
        """Empty counters and lineage; accept only deltas of ``epoch``."""
        self.epoch = epoch
        self.counters: dict[str, float] = defaultdict(float)
        #: per-hop counter buckets: fire-and-forget increments from map
        #: tasks are tagged with their hop, so a late-arriving delta can
        #: never be attributed to the wrong hop's lineage row (it lands
        #: in its own hop's bucket even if that hop's snapshot was
        #: already taken).
        self.by_hop: dict[int | None, dict[str, float]] = {}
        self.lineage: list[dict] = []

    def increment(self, deltas: dict[str, float], hop: int | None = None,
                  epoch: int | None = None) -> None:
        if epoch != self.epoch:
            return  # sent to an earlier acquisition of this actor
        bucket = self.by_hop.setdefault(hop, defaultdict(float))
        for k, v in deltas.items():
            self.counters[k] += v
            bucket[k] += v

    def add_lineage(self, row: dict) -> None:
        self.lineage.append(row)

    def snapshot(self) -> dict:
        return dict(self.counters)

    def lineage_rows(self) -> list[dict]:
        return list(self.lineage)

    def reset_counters(self, hop: int | None = None) -> dict:
        """Snapshot-and-clear. With ``hop``, only that hop's bucket is
        returned/cleared (hop-accurate lineage); without, the totals."""
        if hop is not None:
            return dict(self.by_hop.pop(hop, {}))
        out = dict(self.counters)
        self.counters = defaultdict(float)
        self.by_hop = {}
        return out


def acquire_metrics() -> tuple["ray.actor.ActorHandle", int, int]:
    """A reset (or new) metrics actor of this Ray session, the epoch its
    increments must carry, and 1 if it was reused (else 0)."""
    epoch = next(_epochs)
    (actor,), reused = resident.acquire(
        "MetricsActor", 1, lambda: MetricsActor.remote(epoch),
        lambda a: a.reset.remote(epoch))
    return actor, epoch, reused


def release_metrics(actor) -> None:
    """Give a metrics actor back after a crawl that returned normally."""
    resident.release("MetricsActor", [actor])
