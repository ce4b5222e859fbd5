"""Pin the load-bearing prefix of ``queries()``.

The driver's correctness gate samples the FIRST 50 registered queries
(CORRECTNESS_r03 snapshot cap), so the dict insertion order is part of
the conformance surface: the SURVEY §2 reference operators and the
flagship LLM-pipeline operators must stay inside that window. This test
reads the key order statically (AST) so reordering or inserting a query
ahead of the protected prefix fails CI without needing a Ray session.
"""
import ast
import pathlib

ENTRY = pathlib.Path(__file__).resolve().parent.parent / "__ray_entry__.py"

# the exact first-50 prefix the round-3/4 driver gate sampled — §2
# crawl/resolve/validate/export operators first, then the flagship
# dedup/ANN/multimodal/relational/window queries
EXPECTED_FIRST_50 = [
    "crawl_vertices", "crawl_edges", "crawl_frontier", "crawl_log",
    "resolution_classification", "resolved_edge_types", "adjacency_triples",
    "vertex_key", "hop_filtered_vertices", "edge_classification_counts",
    "spanning_edges", "frontier_edges", "lifespan_birth_years",
    "validator_children", "span_vertices", "span_edges", "span_media",
    "living_filtered_vertices", "primary_edges", "rels_to_resolve",
    "max_iteration", "invalid_birth_decades", "docs_bigram_freq",
    "docs_dup_passages", "docs_tfidf_top", "docs_stopword_filtered",
    "docs_stratified_sample", "q_events_lag", "ann_topk", "ann_knn_join",
    "embedding_near_dups", "media_features", "media_frame_sample",
    "q_pricing_summary", "q_orders_by_segment", "q_customers_without_orders",
    "q_top_customers", "q_nation_region", "q_events_dedup_first",
    "q_events_hourly", "q_part_brand_stats", "q_distinct_pairs",
    "q_union_orders", "q_orders_lineitem_join", "q_events_sessions",
    "q_events_asof_purchase_click", "q_events_rolling_hour",
    "q_events_error_sessions", "q_top_orders_per_segment", "q_events_cumsum",
]


def _registered_keys(func_name: str) -> list[str]:
    tree = ast.parse(ENTRY.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == func_name:
            ret = [n for n in ast.walk(node) if isinstance(n, ast.Return)][-1]
            return [k.value for k in ret.value.keys if isinstance(k, ast.Constant)]
    raise AssertionError(f"{func_name}() not found in __ray_entry__.py")


def test_first_50_queries_are_the_load_bearing_set():
    keys = _registered_keys("queries")
    assert keys[:50] == EXPECTED_FIRST_50, (
        "queries() prefix changed — the driver gate samples the first 50 "
        "registered queries; keep the §2 + flagship set there"
    )


def test_no_duplicate_query_keys():
    keys = _registered_keys("queries")
    assert len(keys) == len(set(keys))


def test_query_count_does_not_shrink():
    assert len(_registered_keys("queries")) >= 164


def test_every_query_has_an_oracle():
    # test_entry.py and tools/driver_check.py compare only the keys both
    # functions define, so a key missing on either side goes unchecked
    assert set(_registered_keys("queries")) == set(_registered_keys("oracle_sql"))
