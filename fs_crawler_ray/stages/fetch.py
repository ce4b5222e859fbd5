"""The politeness budget of the fetch stage.

The reference crawls with a fixed load-governance budget
(``fscrawler/controller/fsapi.py:23-34``): 200 ids per request
(MAX_PERSONS), ≤40 concurrent person requests, 2 s sleep between waves.
Here the wave delay becomes a per-host token bucket (politeness is per
host at web scale, which the reference's single-host API never needed),
held by the fetch actors of :mod:`fs_crawler_ray.state.fetch_service`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class PolitenessBudget:
    """Token-bucket budget per synthetic host. ``rate_per_host <= 0``
    disables waiting (bench mode). Analog of the reference's
    MAX_PERSONS/concurrency/delay constants (fsapi.py:23-34)."""

    rate_per_host: float = 0.0   # requests/sec/host
    burst: float = 4.0
    n_hosts: int = 1024
    seed: int = 101


class TokenBuckets:
    def __init__(self, budget: PolitenessBudget):
        self.budget = budget
        self.tokens: dict[int, float] = {}
        self.last: dict[int, float] = {}

    def acquire(self, host: int, n: int = 1) -> float:
        """Blocks until n tokens available for host; returns waited secs."""
        b = self.budget
        if b.rate_per_host <= 0:
            return 0.0
        now = time.monotonic()
        tok = min(b.burst, self.tokens.get(host, b.burst) + (now - self.last.get(host, now)) * b.rate_per_host)
        waited = 0.0
        if tok < n:
            wait = (n - tok) / b.rate_per_host
            time.sleep(wait)
            waited = wait
            tok = float(n)
        self.tokens[host] = tok - n
        self.last[host] = time.monotonic()
        return waited
