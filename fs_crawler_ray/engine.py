"""Engine-level Ray Data context configuration.

Every production entry point (library ``crawl()``, the CLI, bench)
funnels through :func:`configure_data_context` so the whole deployment
— not just the benchmark — runs with the executor settings this engine
is designed against. Round 4 found that Ray Data's per-operator
resource reservation (``op_resource_reservation_enabled``, default True
with ratio 0.5) holds back roughly HALF the CPU slots from any map
stage that has an AllToAll (sort / groupby shuffle) downstream in the
plan. Measured on the crawl hop: the fused fetch+parse phase ran ~3.3
of 8 busy cores, and a pure-synthetic map→groupby repro went
4.5 s → 1.6 s with the reservation off.

Caveat (why Ray defaults it on): the reservation is an OOM guard for
memory-heavy shuffles — it keeps map operators from flooding the object
store faster than the shuffle can drain it. This engine's exchanges are
small-block (~17 MB hop blocks, pre-combined partials) and far from
object-store pressure, so the guard buys nothing and costs ~1.5× wall.
"""

from __future__ import annotations


def configure_data_context() -> None:
    """Apply engine-level ``ray.data.DataContext`` settings (idempotent):
    Ray Data's per-operator resource reservation off."""
    from ray.data import DataContext

    DataContext.get_current().op_resource_reservation_enabled = False
