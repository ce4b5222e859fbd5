"""Broadcast vs distributed vocabulary paths (VERDICT r03 item 3).

The token family (tfidf_top_terms / vocab_encode / token_rarity) used to
collect the full vocabulary table to the driver unconditionally — fine
at sf scale, a driver OOM on an open-web corpus. These tests pin the
size-aware split: ``relops.BROADCAST_LIMIT`` at 0 (the ``shuffle_joins``
fixture) routes through the
distributed path (vocabulary ranked on-cluster, attached by token-hash
``hash_join``) and must produce EXACTLY the broadcast path's rows.
"""

import pandas as pd
import pytest
import ray.data

SF_DIR = "/root/testdata/sf0.001"


def _docs():
    return ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                                 columns=["doc_id", "text"])


def _canon(df: pd.DataFrame) -> list[tuple]:
    cols = sorted(df.columns)
    return sorted(map(tuple, df[cols].to_numpy().tolist()))


def test_tfidf_distributed_matches_broadcast(request):
    from fs_crawler_ray.text import tfidf_top_terms

    b = tfidf_top_terms(_docs(), top_n=3).to_pandas()
    request.getfixturevalue("shuffle_joins")
    d = tfidf_top_terms(_docs(), top_n=3).to_pandas()
    assert list(b.columns) == list(d.columns) == [
        "doc_id", "tok", "tf", "df", "score"]
    assert _canon(b) == _canon(d)


def test_vocab_encode_distributed_matches_broadcast(request):
    from fs_crawler_ray.text import vocab_encode

    b = vocab_encode(_docs()).to_pandas()
    request.getfixturevalue("shuffle_joins")
    d = vocab_encode(_docs()).to_pandas()
    assert list(b.columns) == list(d.columns) == ["doc_id", "pos", "token_id"]
    assert _canon(b) == _canon(d)


def test_vocab_encode_distributed_min_count_oov(shuffle_joins):
    # OOV semantics must survive the inner join: min_count prunes the
    # vocabulary BEFORE ranking in both paths
    from fs_crawler_ray.text import vocab_encode

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["b a b", "c b a"]})
    out = (vocab_encode(ray.data.from_pandas(df), min_count=2)
           .to_pandas().sort_values(["doc_id", "pos"]).reset_index(drop=True))
    assert list(map(tuple, out.to_numpy())) == [
        (1, 1, 1), (1, 2, 2), (1, 3, 1),
        (2, 2, 1), (2, 3, 2)]


def test_token_rarity_distributed_matches_broadcast(request):
    from fs_crawler_ray.text import token_rarity

    b = token_rarity(_docs()).to_pandas()
    request.getfixturevalue("shuffle_joins")
    d = token_rarity(_docs()).to_pandas()
    assert list(b.columns) == list(d.columns) == [
        "doc_id", "rarity_sum", "n_tokens"]
    assert _canon(b) == _canon(d)


def test_broadcast_path_collect_is_bounded(shuffle_joins):
    # The driver-side collect only happens when the vocabulary fits the
    # limit: with the limit below the vocab size, to_pandas must
    # never be called on the DF/vocab Dataset (monkeypatch-counted).
    import fs_crawler_ray.text as text_mod

    docs = _docs()
    calls = []
    orig = ray.data.Dataset.to_pandas

    def counting(self, *a, **k):
        calls.append(1)
        return orig(self, *a, **k)

    ray.data.Dataset.to_pandas = counting
    try:
        out = text_mod.tfidf_top_terms(docs, top_n=2)
        n = out.count()
    finally:
        ray.data.Dataset.to_pandas = orig
    assert n > 0
    assert calls == []  # nothing vocabulary-sized collected driver-side


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-x", "-q"]))


def test_string_doc_ids_distributed(tmp_path, request):
    """ADVICE r4 (medium): the >BROADCAST_LIMIT paths must accept STRING
    doc ids (URLs/UUIDs — the at-scale corpus shape) — the id dtype is
    derived from the input schema, never hardcoded int64."""
    from fs_crawler_ray.text import tfidf_top_terms, token_rarity, vocab_encode

    df = pd.DataFrame({
        "doc_id": ["url://a", "url://b", "url://c"],
        "text": ["b a b c", "c b a", "a a d"],
    })
    ds = ray.data.from_pandas(df)
    fns = ((tfidf_top_terms, {"top_n": 2}), (vocab_encode, {}), (token_rarity, {}))
    want = [fn(ray.data.from_pandas(df), **kw).to_pandas() for fn, kw in fns]
    request.getfixturevalue("shuffle_joins")
    for (fn, kw), b in zip(fns, want):
        d = fn(ds, **kw).to_pandas()
        assert b["doc_id"].dtype == object and d["doc_id"].dtype == object, fn
        assert _canon(b) == _canon(d), fn
