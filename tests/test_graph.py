"""Unit tests for the link-analysis operators (graph.py):
degree_histogram and scaled-integer PageRank — beyond-reference
training-data components (the reference stops at adjacency building,
rel_db_reader.py), each also strictly oracled against DuckDB in
__ray_entry__ (graph_degree_hist / graph_pagerank)."""

import pandas as pd
import ray.data

from fs_crawler_ray.graph import degree_histogram, pagerank_scaled

# a small directed graph: a->b, a->c, b->c, c->a, plus a duplicate
# a->b row that the DISTINCT step must collapse
EDGES = pd.DataFrame(
    {
        "source": ["a", "a", "b", "c", "a"],
        "destination": ["b", "c", "c", "a", "b"],
    }
)


def _ds():
    return ray.data.from_pandas(EDGES)


def test_degree_histogram_counts_distinct_directed_edges():
    out = (
        degree_histogram(_ds())
        .to_pandas()
        .sort_values("degree")
        .reset_index(drop=True)
    )
    # distinct edges: a->b a->c b->c c->a
    # degrees: a = out 2 + in 1 = 3; b = out 1 + in 1 = 2; c = out 1 + in 2 = 3
    assert out["degree"].tolist() == [2, 3]
    assert out["n_vertices"].tolist() == [1, 2]


def _pagerank_reference(edges, iters=5, scale=10**12, damping_pct=85):
    """The spec, in plain Python integers: must match pagerank_scaled
    bit-for-bit (that's the whole point of the scaled-int design)."""
    e = sorted(set(edges))
    verts = sorted({s for s, _ in e} | {d for _, d in e})
    n = len(verts)
    base = scale // n
    tele = ((100 - damping_pct) * base) // 100
    outdeg = {}
    for s, _ in e:
        outdeg[s] = outdeg.get(s, 0) + 1
    r = {v: base for v in verts}
    for _ in range(iters):
        sums = {}
        for s, d in e:
            sums[d] = sums.get(d, 0) + r[s] // outdeg[s]
        r = {v: tele + (damping_pct * sums.get(v, 0)) // 100 for v in verts}
    return r


def test_pagerank_scaled_matches_integer_reference():
    out = (
        pagerank_scaled(_ds(), iters=5)
        .to_pandas()
        .sort_values("id")
        .reset_index(drop=True)
    )
    expect = _pagerank_reference(
        list(zip(EDGES["source"], EDGES["destination"]))
    )
    assert out["id"].tolist() == sorted(expect)
    assert out["rank_scaled"].tolist() == [expect[v] for v in sorted(expect)]
    # c receives from two sources (a, b) and should outrank b
    got = dict(zip(out["id"], out["rank_scaled"]))
    assert got["c"] > got["b"]


def test_pagerank_empty_graph():
    empty = ray.data.from_pandas(
        pd.DataFrame({"source": pd.Series([], dtype=str),
                      "destination": pd.Series([], dtype=str)})
    )
    assert pagerank_scaled(empty).count() == 0


def test_two_hop_counts_distinct_wedges():
    from fs_crawler_ray.graph import two_hop_counts

    # a->b->c, a->d->c, b->c, d->c : a reaches c via two mids (counted once)
    df = pd.DataFrame({
        "source": ["a", "a", "b", "d"],
        "destination": ["b", "d", "c", "c"],
    })
    out = (two_hop_counts(ray.data.from_pandas(df))
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out["id"].tolist() == ["a"]
    assert out["n_two_hop"].tolist() == [1]


def test_coparent_pairs_canonical_and_counted():
    from fs_crawler_ray.graph import coparent_pairs

    # children c1, c2 share parents (p, q); c3 has parents (q, r)
    df = pd.DataFrame({
        "source": ["c1", "c1", "c2", "c2", "c3", "c3"],
        "destination": ["q", "p", "p", "q", "r", "q"],
    })
    out = (coparent_pairs(ray.data.from_pandas(df))
           .to_pandas().sort_values(["p1", "p2"]).reset_index(drop=True))
    assert list(map(tuple, out[["p1", "p2"]].to_numpy())) == [("p", "q"), ("q", "r")]
    assert out["n_children"].tolist() == [2, 1]


def test_pagerank_large_state_path_matches_fast_path(request):
    fast = (pagerank_scaled(_ds(), iters=5)
            .to_pandas().sort_values("id").reset_index(drop=True))
    request.getfixturevalue("shuffle_joins")
    big = (pagerank_scaled(_ds(), iters=5)
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert fast["id"].tolist() == big["id"].tolist()
    assert fast["rank_scaled"].tolist() == big["rank_scaled"].tolist()


def test_family_components_clusters_coparents():
    from fs_crawler_ray.graph import family_components

    # families: {p,q,r} chained by shared children; {x,y} separate
    df = pd.DataFrame({
        "source": ["c1", "c1", "c2", "c2", "c3", "c3"],
        "destination": ["p", "q", "q", "r", "x", "y"],
    })
    out = (family_components(ray.data.from_pandas(df))
           .to_pandas().sort_values("id").reset_index(drop=True))
    fam = dict(zip(out["id"], out["family"]))
    assert set(fam) == {"p", "q", "r", "x", "y"}
    assert fam["p"] == fam["q"] == fam["r"]
    assert fam["x"] == fam["y"] != fam["p"]
