import os
import sys

import pytest
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from fs_crawler_ray.corpus import CorpusSpec, generate_corpus  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # scale exchange width with the (4-cpu) test cluster, not Ray's
    # 200-partition defaults — same setting bench.py uses
    ctx.min_parallelism = 8
    ctx.read_op_min_num_blocks = 8
    ctx.default_hash_shuffle_parallelism = 8
    ctx.max_hash_shuffle_aggregators = 4
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_small")
    return generate_corpus(CorpusSpec(n_persons=300, seed=42), str(out))


@pytest.fixture(scope="session")
def missing_doc_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus_missing")
    return generate_corpus(CorpusSpec(n_persons=250, seed=7, missing_doc_frac=0.1), str(out))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "scale_smoke: driver-RSS-bounded ~10x-bench-volume smoke test "
        "(enable with FSRAY_SCALE_SMOKE=1)")


@pytest.fixture
def count_executions(monkeypatch):
    """Ray Data executions started from here on, one list entry per
    ``StreamingExecutor.execute`` call."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    execute = StreamingExecutor.execute

    def counting(self, *args, **kwargs):
        runs.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting)
    return runs


@pytest.fixture
def remote_tasks(monkeypatch):
    """Remote tasks launched from here on, counted by function name
    (one per ``RemoteFunction._remote`` call; actor calls not counted)."""
    from collections import Counter

    from ray.remote_function import RemoteFunction

    launched = Counter()
    launch = RemoteFunction._remote

    def counting(self, *args, **kwargs):
        launched[self._function.__name__] += 1
        return launch(self, *args, **kwargs)

    monkeypatch.setattr(RemoteFunction, "_remote", counting)
    return launched


@pytest.fixture
def empty_free_lists(ray_session):
    """Kill the session's idle state actors and forget the free-list
    bounds, so a test sees exactly the reuse it causes itself."""
    from fs_crawler_ray.state import resident

    resident.drain()


@pytest.fixture
def kill_shard(ray_session):
    """``ray.kill`` a membership shard host and wait until it is gone.
    ``ray.kill`` is asynchronous: a host killed just before a crawl can
    still answer that crawl's reset and die after it, which is a host
    dying mid-crawl, not the dead idle host a test means to hand over."""
    import time

    def kill(actor) -> None:
        ray.kill(actor)
        for _ in range(200):
            try:
                ray.get(actor.stats.remote())
            except ray.exceptions.RayActorError:
                return
            time.sleep(0.05)
        raise AssertionError("host still answers 10 s after ray.kill")

    return kill


@pytest.fixture
def shuffle_joins(monkeypatch):
    """Every size-aware join takes its shuffle path: with
    ``relops.BROADCAST_LIMIT`` at 0 only an empty right side is still
    broadcast, so ``join``, ``unique_lookup`` and the vocabulary and
    graph operators go through the bucketed ``hash_join``."""
    from fs_crawler_ray import relops

    monkeypatch.setattr(relops, "BROADCAST_LIMIT", 0)


@pytest.fixture
def small_blocks(monkeypatch):
    """Checkpoint reads at an explicit 16 rows per block, so a small
    crawl's tables still span several blocks and every shuffle after a
    read runs several reducers (the auto rule reads them as one block).
    Reads given their own ``rows_per_block`` (the hop's fetch blocks)
    keep it."""
    from fs_crawler_ray import crawl

    sized = crawl._sized_blocks

    def small(rows, rows_per_block=None, max_blocks=512):
        return sized(rows, rows_per_block or 16, max_blocks)

    monkeypatch.setattr(crawl, "_sized_blocks", small)


@pytest.fixture
def small_fetch_blocks(monkeypatch):
    """Direct-mode fetch blocks of at least 16 ids instead of
    ``crawl.FETCH_ROWS_PER_TASK``, so a small crawl's hops fetch in
    several blocks and shuffle over several partitions (at the real
    size a hop below 16,384 ids is one block at 4 CPUs)."""
    from fs_crawler_ray import crawl

    monkeypatch.setattr(crawl, "FETCH_ROWS_PER_TASK", 16)
