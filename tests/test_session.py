"""Auth/session lifecycle (state/session.py) — the S3 surface: login,
token-budget expiry, refresh-in-place, rejection of bad credentials,
and the per-actor wiring through the fetch pool."""

import numpy as np
import pytest
import ray

from fs_crawler_ray.state.session import (AuthConfig, AuthError,
                                          AuthSession, TokenAuthority)


def test_login_is_deterministic_and_validated():
    a = AuthSession(AuthConfig(client_id="c1"))
    b = AuthSession(AuthConfig(client_id="c1"))
    t1, t2 = a.authorize(), b.authorize()
    assert t1 == t2  # same grant chain -> same token (fake IdP is pure)
    assert a.stats()["logins"] == 1
    with pytest.raises(AuthError):
        AuthSession(AuthConfig(client_id="c1", secret="wrong")).authorize()


def test_token_refreshes_after_budget():
    s = AuthSession(AuthConfig(client_id="c2", token_ttl_requests=10))
    first = s.authorize(8)
    assert s.authorize(1) == first          # still within budget
    rotated = s.authorize(5)                # 14 > 10 -> refresh
    assert rotated != first
    assert s.stats() == {"logins": 1, "refreshes": 1,
                         "authorized_requests": 14}
    # refreshed tokens keep rotating with the serial
    s2 = AuthSession(AuthConfig(client_id="c2", token_ttl_requests=1))
    toks = {s2.authorize() for _ in range(5)}
    assert len(toks) == 5


def test_oversized_grant_does_not_hang():
    # n_requests > ttl used to spin forever in the refresh loop (ADVICE
    # r3): one refresh now grants the whole batch as a one-shot
    # over-budget spend, and the NEXT call refreshes again immediately.
    s = AuthSession(AuthConfig(client_id="c3", token_ttl_requests=5))
    t1 = s.authorize(6)
    assert s.stats()["refreshes"] == 0      # fresh login covers the first
    t2 = s.authorize(1)                     # 6 + 1 > 5 -> one refresh
    assert t2 != t1
    assert s.stats() == {"logins": 1, "refreshes": 1,
                         "authorized_requests": 7}


def test_fetch_pool_authenticates_and_counts():
    from fs_crawler_ray.corpus import CorpusSpec, generate_corpus
    from fs_crawler_ray.state.fetch_service import FetchPool

    info = generate_corpus(CorpusSpec(n_persons=300, seed=7),
                           "/tmp/fsray_test_session_corpus")
    import pyarrow as pa

    from fs_crawler_ray.ids import as_key_array

    pool = FetchPool(info.documents_path, size=2,
                     auth=AuthConfig(token_ttl_requests=2))
    ids = as_key_array(pa.array(info.seeds, pa.string()))
    for actor in pool.actors:
        ray.get(actor.fetch.remote(ids, 0))
        ray.get(actor.fetch.remote(ids, 0))
        ray.get(actor.fetch.remote(ids, 0))
    st = pool.stats()
    assert st["logins"] == 2                 # one per actor lifetime
    assert st["authorized_requests"] >= 6
    assert st["refreshes"] >= 2              # ttl=2 forces rotation


def test_fetch_actor_overlap_matches_serial(small_corpus):
    """S2 parity (VERDICT r4 item 7): the overlapped in-actor lookup
    path (max_in_flight=40, request-sized chunks on a thread pool) must
    return byte-identical results to the serial path, with the same
    request count."""
    import numpy as np
    import ray

    from fs_crawler_ray.sources.doc_table import DocStore
    from fs_crawler_ray.state.fetch_service import FetchActor

    import pyarrow.parquet as pq

    ids = np.sort(np.asarray(
        pq.read_table(small_corpus.documents_path,
                      columns=["doc_id"])["doc_id"].to_pylist()))
    overlapped = FetchActor.remote(small_corpus.documents_path, None, None)
    serial = FetchActor.remote(small_corpus.documents_path, None, None,
                               max_in_flight=1)
    t_over = ray.get(overlapped.fetch.remote(ids, 0))
    t_ser = ray.get(serial.fetch.remote(ids, 0))
    assert t_over.equals(t_ser)
    assert len(t_over) == len(ids)
    s_over, s_ser = ray.get([overlapped.stats.remote(), serial.stats.remote()])
    assert s_over["requests"] == s_ser["requests"] > 0
    ray.kill(overlapped)
    ray.kill(serial)


def test_fetch_actor_counts_no_request_for_blocked_ids(small_corpus):
    """Ids the robots gate blocks are never looked up, so they cost no
    request and no auth budget: 75 ids, all blocked, count 0 requests;
    an allowed id among them counts one. The actor class runs in
    process."""
    import numpy as np

    from fs_crawler_ray.state.fetch_service import FetchActor
    from fs_crawler_ray.state.robots import RobotsPolicy

    policy = RobotsPolicy(n_hosts=64, disallow_every=5)
    ids = np.array(sorted(small_corpus.seeds + [f"AAAA-{i:03d}" for i in range(1000)]))
    allowed = policy.allowed_mask(ids)
    blocked = ids[~allowed][:75]
    assert len(blocked) == 75
    actor = FetchActor.__ray_actor_class__(small_corpus.documents_path, None, policy,
                                           auth=AuthConfig(token_ttl_requests=2),
                                           max_in_flight=1)
    assert len(actor.fetch(blocked, 0)) == 0
    assert actor.stats()["requests"] == 0
    assert actor.stats()["authorized_requests"] == 0
    actor.fetch(np.append(blocked, ids[allowed][:1]), 0)
    assert actor.stats()["requests"] == 1
    assert actor.stats()["authorized_requests"] == 1
