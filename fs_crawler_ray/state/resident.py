"""Session-resident state actors: one free-list of idle actors, keyed by
actor class and Ray session.

Starting a Ray actor costs a worker-process birth (about a CPU-second
each on a 4-vCPU host), and a crawl holds one per two CPUs for its
membership shard hosts plus the metrics actor (3 on 4 CPUs). Instead of
starting and killing them per crawl, a crawl that returned normally
gives its actors back here and the next crawl of the same session takes
them again. The pool holds processes, not shards: any idle shard host
serves any block of shards after its reset.

- :func:`acquire` takes idle actors first and resets each with a
  driver-side ``ray.get`` before handing it out. Ray orders calls per
  caller only, and the crawl's Ray Data tasks are other callers, so the
  reset must have finished before any of them can reach the actor. An
  actor whose reset fails (it died while idle) is dropped, and only the
  shortfall is started fresh.
- :func:`release` puts actors back. The free-list of a class holds at
  most the largest set one release returned; extras are killed.
- The free-list belongs to one Ray session: after ``ray.shutdown()`` /
  ``ray.init()`` it starts empty, so a handle from an earlier session is
  never handed out.
- :func:`drain` kills the idle actors. Residency pays only in a Ray
  session that crawls two or more times; a caller that knows it will
  not crawl again in its session drains, so the actors do not idle
  through its later work.
"""

from __future__ import annotations

from typing import Callable

import ray

_idle: dict[str, list] = {}
#: per class: the largest set one release returned (the free-list bound)
_cap: dict[str, int] = {}
_session: tuple[str, str] | None = None


def _free_list(name: str) -> list:
    global _session
    # like ``.remote()``, get_runtime_context() starts Ray if the caller
    # has not called ray.init()
    ctx = ray.get_runtime_context()
    # a new local cluster has a new node id; a new driver on the same
    # cluster a new job id (and its predecessor's actors died with it)
    session = (ctx.get_node_id(), ctx.get_job_id())
    if session != _session:
        _idle.clear()
        _cap.clear()
        _session = session
    return _idle.setdefault(name, [])


def acquire(name: str, n: int, start: Callable[[], "ray.actor.ActorHandle"],
            reset: Callable[["ray.actor.ActorHandle"], "ray.ObjectRef"]) -> tuple[list, int]:
    """``n`` actors of class ``name``: idle ones reset by ``reset(actor)``
    (awaited here), the rest made by ``start()``. Returns the actors,
    reused ones first, and how many were reused."""
    idle = _free_list(name)
    taken = [idle.pop() for _ in range(min(n, len(idle)))]
    refs = [reset(a) for a in taken]
    reused = []
    for actor, ref in zip(taken, refs):
        try:
            ray.get(ref)
        except ray.exceptions.RayError:
            ray.kill(actor)  # dead, or alive in an unknown state: replace it
        else:
            reused.append(actor)
    return reused + [start() for _ in range(n - len(reused))], len(reused)


def release(name: str, actors: list) -> None:
    """Give ``actors`` back to the free-list of class ``name``. Only after
    a run that returned normally: a run that raised may still have tasks
    calling them, so its actors are killed instead."""
    if not actors or not ray.is_initialized():
        return
    idle = _free_list(name)
    idle.extend(actors)
    cap = _cap[name] = max(_cap.get(name, 0), len(actors))
    while len(idle) > cap:
        ray.kill(idle.pop(0))


def drain() -> None:
    """Kill every idle actor of this Ray session and forget the
    free-list bounds."""
    if not ray.is_initialized():
        return
    for name in list(_idle):
        for actor in _free_list(name):
            ray.kill(actor)
    _idle.clear()
    _cap.clear()
