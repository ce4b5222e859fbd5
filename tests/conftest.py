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
def empty_free_lists(ray_session):
    """Kill the session's idle state actors and forget the free-list
    bounds, so a test sees exactly the reuse it causes itself."""
    from fs_crawler_ray.state import resident

    resident.drain()


@pytest.fixture
def kill_shard(ray_session):
    """``ray.kill`` a membership shard and wait until it is gone.
    ``ray.kill`` is asynchronous: a shard killed just before a crawl can
    still answer that crawl's reset and die after it, which is a shard
    dying mid-crawl, not the dead idle shard a test means to hand over."""
    import time

    def kill(actor) -> None:
        ray.kill(actor)
        for _ in range(200):
            try:
                ray.get(actor.stats.remote())
            except ray.exceptions.RayActorError:
                return
            time.sleep(0.05)
        raise AssertionError("shard still answers 10 s after ray.kill")

    return kill
