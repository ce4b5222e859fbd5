"""DuckDB oracle SQL builders for the crawl-engine queries.

Each builder returns ANSI-ish DuckDB SQL that recomputes a Ray pipeline
result directly from the corpus parquet files: the BFS is a recursive
CTE over the span-derived mention graph, resolution/validation are
window/group expressions, and the adjacency build is a ROW_NUMBER
ordering — giving the driver an independent cross-check of the whole
engine (not just per-operator parity).
"""

from __future__ import annotations


def _base(docs: str, seeds: list[str], hops: int) -> str:
    seed_vals = ", ".join(f"('{s}', 0)" for s in seeds)
    return f"""
WITH RECURSIVE spans AS (
  SELECT doc_id, u.kind AS kind, u.text AS text, u.media_ref AS media_ref, u."offset" AS off
  FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
),
mentions AS (
  SELECT doc_id AS src, split_part(text,'|',1) AS dst FROM spans WHERE kind='child_parent'
  UNION ALL
  SELECT doc_id, split_part(text,'|',2) FROM spans WHERE kind='child_parent'
  UNION ALL
  SELECT doc_id, text FROM spans WHERE kind='couple'
),
reach(id, hop) AS (
  SELECT * FROM (VALUES {seed_vals}) v(id, hop)
  UNION
  SELECT m.dst, r.hop+1 FROM reach r JOIN mentions m ON m.src = r.id WHERE r.hop < {hops}
),
dist AS (SELECT id, MIN(hop) AS iteration FROM reach GROUP BY id),
verts AS (SELECT id, iteration FROM dist WHERE iteration < {hops}),
vfields AS (
  SELECT s.doc_id AS id,
         CAST(CASE arg_max(CASE WHEN kind='gender' THEN text END, CASE WHEN kind='gender' THEN off END)
              WHEN 'Male' THEN -1 WHEN 'Female' THEN 1 ELSE 0 END AS BIGINT) AS color,
         COALESCE(arg_max(CASE WHEN kind='name.surname' THEN text END, CASE WHEN kind='name.surname' THEN off END), '') AS surname,
         COALESCE(arg_max(CASE WHEN kind='name.given' THEN text END, CASE WHEN kind='name.given' THEN off END), '') AS given_name,
         COALESCE(arg_max(CASE WHEN kind='lifespan' THEN text END, CASE WHEN kind='lifespan' THEN off END), '') AS lifespan,
         COALESCE(arg_max(CASE WHEN kind='living' THEN text END, CASE WHEN kind='living' THEN off END), '') = 'true' AS living
  FROM spans s GROUP BY s.doc_id
),
edges_all AS (
  SELECT v.iteration AS hop, s.doc_id,
         split_part(s.text,'|',1) AS source, split_part(s.text,'|',2) AS destination,
         split_part(s.text,'|',3) AS rel_id, s.off
  FROM spans s JOIN verts v ON v.id = s.doc_id
  WHERE s.kind = 'child_parent'
),
edges_dedup AS (
  SELECT source, destination, rel_id, CAST(hop AS BIGINT) AS hop
  FROM edges_all
  QUALIFY ROW_NUMBER() OVER (PARTITION BY source, destination ORDER BY hop, doc_id, off) = 1
)
"""


def crawl_vertices(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT v.id, f.color, f.surname, f.given_name, CAST(v.iteration AS BIGINT) AS iteration,
       f.lifespan, f.living
FROM verts v JOIN vfields f ON f.id = v.id
"""


def crawl_edges(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT source, destination, rel_id, hop FROM edges_dedup
"""


def crawl_frontier(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + f"""
SELECT id FROM dist WHERE iteration = {hops}
"""


def _classification_ctes() -> str:
    return """
, cand AS (
  SELECT DISTINCT e.source, e.rel_id, f.color AS dest_color
  FROM edges_dedup e
  JOIN verts v1 ON v1.id = e.source
  JOIN verts v2 ON v2.id = e.destination
  JOIN vfields f ON f.id = e.destination
),
setsz AS (SELECT source, dest_color, COUNT(*) AS n FROM cand GROUP BY source, dest_color),
tot AS (SELECT source, SUM(n) AS t FROM setsz GROUP BY source),
classification AS (
  SELECT DISTINCT c.rel_id,
         CASE WHEN s.n = 1 AND t.t < 3 THEN 'AssumedBiological' ELSE 'Resolve' END AS rtype
  FROM cand c
  JOIN setsz s ON s.source = c.source AND s.dest_color = c.dest_color
  JOIN tot t ON t.source = c.source
)
"""


def resolution_classification(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + _classification_ctes() + """
SELECT rel_id, rtype FROM classification
"""


def _resolved_ctes(rels: str) -> str:
    return f"""
, updates AS (
  SELECT source, destination, new_type FROM (
    SELECT r.child AS source, p.parent AS destination,
           COALESCE(p.ptype, 'UnspecifiedParentType') AS new_type, r.rel_id
    FROM read_parquet('{rels}') r
    JOIN classification c ON c.rel_id = r.rel_id AND c.rtype = 'Resolve'
    CROSS JOIN LATERAL (VALUES (r.parent1, r.parent1_type), (r.parent2, r.parent2_type)) p(parent, ptype)
    WHERE p.parent IS NOT NULL AND r.child IS NOT NULL
  ) QUALIFY ROW_NUMBER() OVER (PARTITION BY source, destination ORDER BY rel_id DESC) = 1
),
resolved AS (
  SELECT e.source, e.destination,
         COALESCE(u.new_type, c.rtype, 'UntypedParent') AS final_type
  FROM edges_dedup e
  LEFT JOIN classification c ON c.rel_id = e.rel_id
  LEFT JOIN updates u ON u.source = e.source AND u.destination = e.destination
)
"""


def resolved_edge_types(docs: str, rels: str, seeds: list[str], hops: int) -> str:
    return (_base(docs, seeds, hops) + _classification_ctes() + _resolved_ctes(rels) + """
SELECT source, destination, final_type FROM resolved
""")


def adjacency_triples(docs: str, rels: str, seeds: list[str], hops: int) -> str:
    return (_base(docs, seeds, hops) + _classification_ctes() + _resolved_ctes(rels) + """
, pos AS (
  SELECT v.id, f.color, ROW_NUMBER() OVER (ORDER BY v.iteration, v.id) AS p
  FROM verts v JOIN vfields f ON f.id = v.id
),
entries AS (
  SELECT p - 1 AS row, p - 1 AS col, color AS val, 0 AS diag FROM pos
  UNION ALL
  SELECT ps.p - 1, pd.p - 1, CASE WHEN pd.color = 1 THEN 3 ELSE 2 END, 1
  FROM resolved r
  JOIN pos ps ON ps.id = r.source
  JOIN pos pd ON pd.id = r.destination
  WHERE r.final_type IN ('AssumedBiological', 'UnspecifiedParentType', 'BiologicalParent')
)
SELECT CAST(ROW_NUMBER() OVER (ORDER BY row, diag, col) - 1 AS BIGINT) AS idx,
       CAST(row AS BIGINT) AS row, CAST(col AS BIGINT) AS col, CAST(val AS BIGINT) AS val
FROM entries
""")


def vertex_key_table(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT CAST(ROW_NUMBER() OVER (ORDER BY v.iteration, v.id) - 1 AS BIGINT) AS position,
       v.id AS external_id,
       chr(39) || f.surname || chr(39) || ', ' || chr(39) || f.given_name || chr(39) AS designation
FROM verts v JOIN vfields f ON f.id = v.id
"""


def hop_filtered_vertices(docs: str, seeds: list[str], hops: int, filter_hops: int) -> str:
    return _base(docs, seeds, hops) + f"""
SELECT v.id, f.color, CAST(v.iteration AS BIGINT) AS iteration
FROM verts v JOIN vfields f ON f.id = v.id
WHERE v.iteration < {filter_hops}
"""


def edge_classification_counts(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT CASE
         WHEN vs.id IS NOT NULL AND vd.id IS NOT NULL THEN 'within'
         WHEN vs.id IS NULL AND vd.id IS NULL THEN 'frontier'
         ELSE 'spanning'
       END AS category,
       COUNT(*) AS n
FROM edges_dedup e
LEFT JOIN verts vs ON vs.id = e.source
LEFT JOIN verts vd ON vd.id = e.destination
GROUP BY 1
"""


def lifespan_birth_years(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT v.id,
       CAST(CASE
         WHEN strpos(f.lifespan, '-1') = 0 THEN (CASE WHEN f.lifespan = 'Living' THEN 3000 ELSE 0 END)
         WHEN strpos(f.lifespan, '-1') = 1 THEN CAST(substr(f.lifespan, 2) AS BIGINT)
         ELSE CAST(substr(f.lifespan, 1, strpos(f.lifespan, '-1') - 1) AS BIGINT)
       END AS BIGINT) AS birth_year
FROM verts v JOIN vfields f ON f.id = v.id
"""


def validator_children(docs: str, rels: str, seeds: list[str], hops: int) -> str:
    return (_base(docs, seeds, hops) + _classification_ctes() + _resolved_ctes(rels) + """
, per_child AS (
  SELECT r.source,
    CAST(COUNT(*) FILTER (WHERE r.final_type IN ('BiologicalParent','UnspecifiedParentType') AND f.color = -1) AS BIGINT) AS vm,
    CAST(COUNT(*) FILTER (WHERE r.final_type IN ('BiologicalParent','UnspecifiedParentType') AND f.color = 1) AS BIGINT) AS vf,
    CAST(COUNT(*) FILTER (WHERE r.final_type IN ('BiologicalParent','UnspecifiedParentType') AND f.color = 0) AS BIGINT) AS vu,
    CAST(COUNT(*) FILTER (WHERE r.final_type = 'UntypedParent' AND f.color = -1) AS BIGINT) AS rm,
    CAST(COUNT(*) FILTER (WHERE r.final_type = 'UntypedParent' AND f.color = 1) AS BIGINT) AS rf,
    CAST(COUNT(*) FILTER (WHERE r.final_type = 'UntypedParent' AND f.color = 0) AS BIGINT) AS ru,
    CAST(COUNT(*) FILTER (WHERE r.final_type IN ('BiologicalParent','UnspecifiedParentType') AND f.color IS NOT NULL) AS BIGINT) AS v_any
  FROM resolved r
  LEFT JOIN verts v ON v.id = r.destination
  LEFT JOIN vfields f ON f.id = v.id
  GROUP BY r.source
)
SELECT source, vm, vf, vu, rm, rf, ru,
  (v_any > 0 AND (vm + vf + vu > 2 OR vm + vf + vu = 0)) AS invalid,
  CASE WHEN NOT (v_any > 0 AND vm + vf + vu > 2) THEN ''
       WHEN vm > 1 AND vf > 1 AND vu > 1 THEN 'male_female_unknown'
       WHEN vf > 1 AND vu > 1 THEN 'female_unknown'
       WHEN vm > 1 AND vu > 1 THEN 'male_unknown'
       WHEN vm > 1 AND vf > 1 THEN 'male_female'
       WHEN vm > 1 THEN 'father'
       WHEN vf > 1 THEN 'mother'
       ELSE 'unknown'
  END AS category
FROM per_child
""")


def living_filtered_vertices(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT v.id, f.color, CAST(v.iteration AS BIGINT) AS iteration, f.lifespan
FROM verts v JOIN vfields f ON f.id = v.id
WHERE NOT f.living
"""


def primary_edges(docs: str, rels: str, seeds: list[str], hops: int) -> str:
    return (_base(docs, seeds, hops) + _classification_ctes() + _resolved_ctes(rels) + """
SELECT source, destination, final_type FROM resolved
WHERE final_type IN ('UntypedParent', 'UnspecifiedParentType', 'BiologicalParent')
""")


def rels_to_resolve(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + _classification_ctes() + """
SELECT DISTINCT rel_id FROM classification WHERE rtype = 'Resolve' ORDER BY rel_id
"""


def max_iteration(docs: str, seeds: list[str], hops: int) -> str:
    return _base(docs, seeds, hops) + """
SELECT CAST(MAX(iteration) AS BIGINT) AS max_iteration FROM verts
"""


def invalid_birth_decades(docs: str, rels: str, seeds: list[str], hops: int) -> str:
    return (_base(docs, seeds, hops) + _classification_ctes() + _resolved_ctes(rels) + """
, per_child AS (
  SELECT r.source,
    COUNT(*) FILTER (WHERE r.final_type IN ('BiologicalParent','UnspecifiedParentType') AND f.color IS NOT NULL) AS v_any,
    COUNT(*) FILTER (WHERE r.final_type IN ('BiologicalParent','UnspecifiedParentType') AND f.color IS NOT NULL) AS v_tot
  FROM resolved r
  LEFT JOIN verts v ON v.id = r.destination
  LEFT JOIN vfields f ON f.id = v.id
  GROUP BY r.source
),
invalid_children AS (
  SELECT source FROM per_child WHERE v_any > 0 AND (v_tot > 2 OR v_tot = 0)
),
bys AS (
  SELECT CASE
           WHEN strpos(f.lifespan, '-1') = 0 THEN (CASE WHEN f.lifespan = 'Living' THEN 3000 ELSE 0 END)
           WHEN strpos(f.lifespan, '-1') = 1 THEN CAST(substr(f.lifespan, 2) AS BIGINT)
           ELSE CAST(substr(f.lifespan, 1, strpos(f.lifespan, '-1') - 1) AS BIGINT)
         END AS birth_year
  FROM invalid_children i
  JOIN vfields f ON f.id = i.source
  JOIN verts v ON v.id = i.source
)
SELECT CAST(birth_year // 10 * 10 AS BIGINT) AS decade, COUNT(*) AS n
FROM bys GROUP BY 1 ORDER BY 1
""")


def crawl_log(docs: str, seeds: list[str], hops: int) -> str:
    """Per-hop LOG row oracle (A9): cumulative visited vertices, next
    frontier size and cumulative edge classification after each hop,
    all derived from the recursive-CTE BFS (duration is execution
    metadata and lives in lineage.json, not the compared table)."""
    return _base(docs, seeds, hops) + f"""
SELECT CAST(h.h AS BIGINT) AS iteration,
  (SELECT COUNT(*) FROM dist WHERE iteration <= h.h) AS vertices,
  (SELECT COUNT(*) FROM dist WHERE iteration = h.h + 1) AS frontier,
  (SELECT COUNT(*) FROM edges_dedup e
     JOIN dist ds ON ds.id = e.source JOIN dist dd ON dd.id = e.destination
   WHERE e.hop <= h.h AND ds.iteration <= h.h AND dd.iteration <= h.h) AS edges,
  (SELECT COUNT(*) FROM edges_dedup e
     LEFT JOIN dist ds ON ds.id = e.source LEFT JOIN dist dd ON dd.id = e.destination
   WHERE e.hop <= h.h AND
     (COALESCE(ds.iteration, {hops}) <= h.h) != (COALESCE(dd.iteration, {hops}) <= h.h)) AS spanning_edges,
  (SELECT COUNT(*) FROM edges_dedup e
     LEFT JOIN dist ds ON ds.id = e.source LEFT JOIN dist dd ON dd.id = e.destination
   WHERE e.hop <= h.h AND NOT (COALESCE(ds.iteration, {hops}) <= h.h)
     AND NOT (COALESCE(dd.iteration, {hops}) <= h.h)) AS frontier_edges
FROM (SELECT unnest(generate_series(0, {hops - 1})) AS h) h
ORDER BY iteration
"""


# ----------------------------------------------------------------------
# text-analysis oracles (documents table) — every kernel here is defined
# to be DuckDB-reproducible: tokens = [a-z0-9]+ runs of lower(text),
# token/shingle hash = md5_number_lower, fingerprint = Horner mod 2^64.
# ----------------------------------------------------------------------
_TOKS_CTE = """
WITH toks AS (
  SELECT doc_id, text,
         list_filter(regexp_split_to_array(lower(text), '[^a-z0-9]+'), t -> t <> '') AS tk
  FROM documents
)"""


def _stop_list(lang: str) -> str:
    from fs_crawler_ray.text import _STOPWORDS

    return ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang]))


def docs_analysis() -> str:
    """Exact oracle for TextAnalyzer (lang/tokens/quality/fingerprint);
    float quality matches bit-for-bit because both sides evaluate the
    IEEE-identical expression tree (no rounding anywhere)."""
    de, en, es, fr = (_stop_list(x) for x in ("de", "en", "es", "fr"))
    return _TOKS_CTE + f"""
, scored AS (
  SELECT doc_id, text, tk, len(tk) AS n,
    len(list_filter(tk, t -> list_contains([{de}], t))) AS s_de,
    len(list_filter(tk, t -> list_contains([{en}], t))) AS s_en,
    len(list_filter(tk, t -> list_contains([{es}], t))) AS s_es,
    len(list_filter(tk, t -> list_contains([{fr}], t))) AS s_fr
  FROM toks
), feat AS (
  SELECT doc_id, text, tk, n, GREATEST(s_de, s_en, s_es, s_fr) AS best,
    CASE WHEN n = 0 OR GREATEST(s_de, s_en, s_es, s_fr) = 0 THEN 'unknown'
         WHEN s_fr = GREATEST(s_de, s_en, s_es, s_fr) THEN 'fr'
         WHEN s_es = GREATEST(s_de, s_en, s_es, s_fr) THEN 'es'
         WHEN s_en = GREATEST(s_de, s_en, s_es, s_fr) THEN 'en'
         ELSE 'de' END AS lang_guess
  FROM scored
), fps AS (
  SELECT doc_id, CASE WHEN len(tk) = 0 THEN CAST(0 AS UBIGINT)
    ELSE list_reduce(list_transform(tk, t -> md5_number_lower(t)),
      (a, h) -> CAST((CAST(a AS HUGEINT) * 1099511628211 + CAST(h AS HUGEINT))
                     % 18446744073709551616 AS UBIGINT)) END AS f
  FROM feat
)
SELECT feat.doc_id, lang_guess, CAST(n AS BIGINT) AS n_tokens,
  CAST(0.4 AS DOUBLE) * (CASE WHEN n BETWEEN 10 AND 100000 THEN CAST(1.0 AS DOUBLE) ELSE CAST(0.0 AS DOUBLE) END)
  + CAST(0.4 AS DOUBLE) * LEAST((CASE WHEN n = 0 THEN CAST(0.0 AS DOUBLE)
                                      ELSE CAST(best AS DOUBLE) / n END) * 5.0, CAST(1.0 AS DOUBLE))
  + CAST(0.2 AS DOUBLE) * (CAST(1.0 AS DOUBLE)
      - LEAST((CAST(len(regexp_extract_all(text, '[^\\w\\s]')) AS DOUBLE) / GREATEST(len(text), 1)) * 5.0,
              CAST(1.0 AS DOUBLE))) AS quality,
  CAST(CASE WHEN f >= CAST(9223372036854775808 AS HUGEINT)
            THEN CAST(f AS HUGEINT) - CAST(18446744073709551616 AS HUGEINT)
            ELSE CAST(f AS HUGEINT) END AS BIGINT) AS fingerprint
FROM feat JOIN fps ON fps.doc_id = feat.doc_id
"""


def docs_simhash(shingle_k: int = 2) -> str:
    """Exact oracle for SimHasher: majority vote over the distinct
    k-word-shingle set, shingles hashed with md5_number_lower."""
    joins = " || ' ' || ".join(f"tk[i+{j}]" for j in range(shingle_k))
    return _TOKS_CTE + f"""
, sh AS (
  SELECT doc_id, CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
       WHEN len(tk) < {shingle_k} THEN [array_to_string(tk, ' ')]
       ELSE list_distinct(list_transform(generate_series(1, len(tk) - {shingle_k - 1}),
                                         i -> {joins})) END AS s
  FROM toks
), un AS (
  SELECT doc_id, md5_number_lower(g.g) AS h FROM sh, unnest(s) g(g)
), bits AS (
  SELECT doc_id, b.b AS b, SUM(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM un CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b) b
  GROUP BY doc_id, b.b
), sims AS (
  SELECT doc_id, SUM(CASE WHEN v > 0 THEN CAST(1 AS HUGEINT) << b ELSE CAST(0 AS HUGEINT) END) AS u
  FROM bits GROUP BY doc_id
)
SELECT t.doc_id,
  CAST(CASE WHEN COALESCE(u, 0) >= CAST(9223372036854775808 AS HUGEINT)
            THEN COALESCE(u, 0) - CAST(18446744073709551616 AS HUGEINT)
            ELSE COALESCE(u, 0) END AS BIGINT) AS simhash
FROM toks t LEFT JOIN sims ON sims.doc_id = t.doc_id
"""


def docs_near_dup_pairs(threshold: float = 0.8, shingle_k: int = 3) -> str:
    """True-Jaccard near-dup pairs over distinct k-shingle sets — the
    oracle for the MinHash-LSH candidate + n-gram-Jaccard verify
    pipeline (at 16 bands × 4 rows the per-pair miss probability at
    J≥0.8 is (1-0.8^4)^16 ≈ 2e-4; verified exact-equal on the sf0.001
    and sf0.01 corpora)."""
    joins = " || ' ' || ".join(f"tk[i+{j}]" for j in range(shingle_k))
    return _TOKS_CTE + f"""
, sh AS (
  SELECT doc_id, CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
       WHEN len(tk) < {shingle_k} THEN [array_to_string(tk, ' ')]
       ELSE list_distinct(list_transform(generate_series(1, len(tk) - {shingle_k - 1}),
                                         i -> {joins})) END AS s
  FROM toks
), ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
sizes AS (SELECT doc_id, len(s) AS n FROM sh),
inter AS (
  SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) AS i
  FROM ex a JOIN ex b ON a.g = b.g AND b.doc_id > a.doc_id
  GROUP BY 1, 2
)
SELECT da AS doc_a, db AS doc_b
FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= {threshold}
"""


def span_vertices(docs: str) -> str:
    return f"""
WITH spans AS (
  SELECT doc_id, u.kind AS kind, u.text AS text, u."offset" AS off
  FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
)
SELECT doc_id AS id,
       CAST(CASE arg_max(CASE WHEN kind='gender' THEN text END, CASE WHEN kind='gender' THEN off END)
            WHEN 'Male' THEN -1 WHEN 'Female' THEN 1 ELSE 0 END AS BIGINT) AS color,
       COALESCE(arg_max(CASE WHEN kind='name.surname' THEN text END, CASE WHEN kind='name.surname' THEN off END), '') AS surname,
       COALESCE(arg_max(CASE WHEN kind='name.given' THEN text END, CASE WHEN kind='name.given' THEN off END), '') AS given_name,
       COALESCE(arg_max(CASE WHEN kind='lifespan' THEN text END, CASE WHEN kind='lifespan' THEN off END), '') AS lifespan,
       COALESCE(arg_max(CASE WHEN kind='living' THEN text END, CASE WHEN kind='living' THEN off END), '') = 'true' AS living
FROM spans GROUP BY doc_id
"""


def span_edges(docs: str) -> str:
    return f"""
SELECT doc_id,
       split_part(u.text,'|',1) AS source,
       split_part(u.text,'|',2) AS destination,
       split_part(u.text,'|',3) AS rel_id,
       CAST(u."offset" AS BIGINT) AS "offset"
FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
WHERE u.kind = 'child_parent'
"""


def _distinct_edges_cte(docs: str) -> str:
    """Shared CTE: the DISTINCT directed child→parent edge set parsed
    from the corpus spans (same extraction as :func:`span_edges`)."""
    return f"""
WITH raw AS (
  SELECT split_part(u.text,'|',1) AS source,
         split_part(u.text,'|',2) AS destination
  FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
  WHERE u.kind = 'child_parent'
), e AS (SELECT DISTINCT source, destination FROM raw)
"""


def graph_degree_hist(docs: str) -> str:
    return _distinct_edges_cte(docs) + """
, ends AS (SELECT source AS v FROM e UNION ALL SELECT destination AS v FROM e),
deg AS (SELECT v, COUNT(*) AS degree FROM ends GROUP BY v)
SELECT degree, COUNT(*) AS n_vertices FROM deg GROUP BY degree ORDER BY degree
"""


def graph_pagerank(docs: str, iters: int = 5, scale: int = 10**12,
                   damping_pct: int = 85) -> str:
    """Unrolled fixed-iteration PageRank in the same scaled-integer
    arithmetic as ``graph.pagerank_scaled`` — every term is an int64
    floor-divide/sum, so the two engines agree bit-for-bit (float
    PageRank could never be hash-compared; see the graph module
    docstring)."""
    sql = _distinct_edges_cte(docs) + f"""
, v AS (SELECT source AS id FROM e UNION SELECT destination AS id FROM e),
nv AS (SELECT COUNT(*) AS n FROM v),
od AS (SELECT source AS id, COUNT(*) AS d FROM e GROUP BY source),
r0 AS (SELECT id, ({scale} // (SELECT n FROM nv)) AS r FROM v)"""
    prev = "r0"
    for i in range(1, iters + 1):
        sql += f"""
, s{i} AS (
  SELECT e.destination AS id, SUM({prev}.r // od.d) AS s
  FROM e JOIN {prev} ON {prev}.id = e.source JOIN od ON od.id = e.source
  GROUP BY e.destination
), r{i} AS (
  SELECT v.id,
         CAST(({100 - damping_pct} * ({scale} // (SELECT n FROM nv))) // 100
              + ({damping_pct} * COALESCE(s{i}.s, 0)) // 100 AS BIGINT) AS r
  FROM v LEFT JOIN s{i} ON s{i}.id = v.id
)"""
        prev = f"r{i}"
    sql += f"\nSELECT id, r AS rank_scaled FROM {prev} ORDER BY id"
    return sql


def graph_two_hop(docs: str) -> str:
    return _distinct_edges_cte(docs) + """
SELECT a.source AS id, COUNT(DISTINCT b.destination) AS n_two_hop
FROM e a JOIN e b ON a.destination = b.source
GROUP BY a.source ORDER BY id
"""


def graph_coparents(docs: str) -> str:
    return _distinct_edges_cte(docs) + """
SELECT a.destination AS p1, b.destination AS p2, COUNT(*) AS n_children
FROM e a JOIN e b ON a.source = b.source AND a.destination < b.destination
GROUP BY p1, p2 ORDER BY p1, p2
"""


def graph_families(docs: str, hash_mod: int = 1 << 62) -> str:
    """Oracle for family-unit clustering: the co-parent pair graph in
    md5-hash label space (``md5_number_lower % 2^62`` mirrors
    ``text.md5_lower64``'s masking, keeping labels non-negative so
    unsigned SQL MIN == signed numpy min), closed by a recursive-CTE
    reachability query, component id = MIN reachable hash."""
    edges = _distinct_edges_cte(docs).replace("WITH raw", "WITH RECURSIVE raw", 1)
    return edges + f"""
, cp AS (
  SELECT a.destination AS p1, b.destination AS p2
  FROM e a JOIN e b ON a.source = b.source AND a.destination < b.destination
  GROUP BY p1, p2
), hp AS (
  SELECT p1, p2,
         CAST(md5_number_lower(p1) % {hash_mod} AS BIGINT) AS h1,
         CAST(md5_number_lower(p2) % {hash_mod} AS BIGINT) AS h2
  FROM cp
), ed AS (SELECT h1 AS s, h2 AS d FROM hp UNION ALL SELECT h2, h1 FROM hp),
r(v, l) AS (
  SELECT s, s FROM ed
  UNION
  SELECT ed.d, r.l FROM r JOIN ed ON ed.s = r.v
), comp AS (SELECT v, MIN(l) AS family FROM r GROUP BY v),
pmap AS (
  SELECT DISTINCT p, h FROM (
    SELECT p1 AS p, h1 AS h FROM hp UNION ALL SELECT p2, h2 FROM hp)
)
SELECT pmap.p AS id, comp.family FROM pmap JOIN comp ON comp.v = pmap.h
ORDER BY id
"""


def span_media(docs: str) -> str:
    return f"""
SELECT doc_id, u.media_ref AS media_ref, CAST(u."offset" AS BIGINT) AS "offset"
FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
WHERE u.kind = 'media'
"""


def media_features(docs: str) -> str:
    """Multimodal decode-plumbing oracle: ``media_type`` and
    ``decoded_len`` are pure functions of ``md5(media_ref)``
    (multimodal.synthesize_media_payloads seeds numpy with
    ``int(md5(ref)[:8], 16)``; type = [image,audio,video][seed%3],
    payload/decoded length = 64 + seed%192) — so the actor-pool decode
    pipeline's full output is SQL-checkable even though the byte-level
    decode itself is the sandbox's deterministic fake."""
    return f"""
WITH seeded AS (
  SELECT doc_id, u.media_ref AS media_ref,
         CAST(concat('0x', substr(md5(u.media_ref), 1, 8)) AS BIGINT) AS seed
  FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
  WHERE u.kind = 'media'
)
SELECT doc_id, media_ref,
       CASE seed % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END AS media_type,
       64 + (seed % 192) AS decoded_len
FROM seeded
"""


def _edge_category_sql(docs: str, seeds: list[str], hops: int, pred: str) -> str:
    return _base(docs, seeds, hops) + f"""
SELECT e.source, e.destination, e.rel_id
FROM edges_dedup e
LEFT JOIN verts vs ON vs.id = e.source
LEFT JOIN verts vd ON vd.id = e.destination
WHERE {pred}
"""


def spanning_edges(docs: str, seeds: list[str], hops: int) -> str:
    """J1 as a table: edges with exactly one endpoint resolved
    (graph_writer.py:100-114 spanning set)."""
    return _edge_category_sql(
        docs, seeds, hops,
        "(vs.id IS NOT NULL) != (vd.id IS NOT NULL)")


def frontier_edges(docs: str, seeds: list[str], hops: int) -> str:
    """J1 as a table: edges with neither endpoint resolved."""
    return _edge_category_sql(
        docs, seeds, hops,
        "vs.id IS NULL AND vd.id IS NULL")


def docs_dup_clusters(threshold: float = 0.8, shingle_k: int = 3) -> str:
    """Oracle for near-dup clustering: connected components of the
    true-Jaccard pair graph as a recursive-CTE reachability closure,
    component id = min reachable doc_id."""
    return f"""
WITH RECURSIVE p AS ({docs_near_dup_pairs(threshold, shingle_k)}),
e AS (SELECT doc_a AS s, doc_b AS d FROM p UNION ALL SELECT doc_b, doc_a FROM p),
r(v, l) AS (
  SELECT s, s FROM e
  UNION
  SELECT e.d, r.l FROM r JOIN e ON e.s = r.v
)
SELECT v AS doc_id, MIN(l) AS cluster_id FROM r GROUP BY v
"""


def docs_dedup_survivors(threshold: float = 0.8, shingle_k: int = 3) -> str:
    """Oracle for the canonical-dedup output: all docs except non-
    representative near-dup cluster members."""
    return f"""
SELECT doc_id FROM documents
WHERE doc_id NOT IN (
  SELECT doc_id FROM ({docs_dup_clusters(threshold, shingle_k)})
  WHERE cluster_id <> doc_id)
"""


def docs_hash_sample(denom: int = 20, keep: int = 0) -> str:
    """Oracle for deterministic md5 sampling (md5_number_lower is the
    DuckDB builtin that text.md5_lower64 mirrors bit-for-bit)."""
    return f"""
SELECT doc_id, source FROM documents
WHERE md5_number_lower(CAST(doc_id AS VARCHAR)) % {denom} = {keep}
"""


def _signed64(expr: str) -> str:
    """uint64 expression → its int64 reinterpretation (two's complement),
    matching numpy ``.view(np.int64)``."""
    return (f"CAST(CASE WHEN {expr} >= CAST(9223372036854775808 AS HUGEINT) "
            f"THEN CAST({expr} AS HUGEINT) - CAST(18446744073709551616 AS HUGEINT) "
            f"ELSE CAST({expr} AS HUGEINT) END AS BIGINT)")


def docs_dup_passages(window: int = 16, stride: int = 8) -> str:
    """Oracle for duplicate-passage detection: the identical Horner
    fingerprint (md5_number_lower token hashes, FNV prime, mod 2^64)
    over every window-token slice at stride offsets, kept where the
    fingerprint spans ≥2 distinct documents."""
    w, s = int(window), int(stride)
    return _TOKS_CTE + f"""
, win AS (
  SELECT doc_id, i - 1 AS pos,
         list_reduce(list_transform(list_slice(tk, i, i + {w - 1}), t -> md5_number_lower(t)),
           (a, h) -> CAST((CAST(a AS HUGEINT) * 1099511628211 + CAST(h AS HUGEINT))
                          % 18446744073709551616 AS UBIGINT)) AS ch
  FROM toks, unnest(CASE WHEN len(tk) >= {w}
                         THEN generate_series(1, len(tk) - {w} + 1, {s})
                         ELSE CAST([] AS BIGINT[]) END) u(i)
)
SELECT doc_id, CAST(pos AS BIGINT) AS pos, {_signed64('ch')} AS chunk_hash
FROM win QUALIFY COUNT(DISTINCT doc_id) OVER (PARTITION BY ch) > 1
"""


def docs_tfidf_top(top_n: int = 3) -> str:
    """Oracle for per-document top TF-IDF terms; the score is INTEGER
    (tf * 1_000_000 // df) so ranking has no float-ordering hazard."""
    return _TOKS_CTE + f"""
, ex AS (SELECT doc_id, t.t AS tok FROM toks, unnest(tk) t(t)),
tf AS (SELECT doc_id, tok, COUNT(*) AS tf FROM ex GROUP BY doc_id, tok),
dfs AS (SELECT tok, COUNT(DISTINCT doc_id) AS df FROM ex GROUP BY tok)
SELECT doc_id, tok, tf, df, score FROM (
  SELECT tf.doc_id, tf.tok, CAST(tf.tf AS BIGINT) AS tf, CAST(d.df AS BIGINT) AS df,
         CAST(CAST(tf.tf AS HUGEINT) * 1000000 // d.df AS BIGINT) AS score
  FROM tf JOIN dfs d USING (tok)
) QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id ORDER BY score DESC, tok) <= {int(top_n)}
"""


def docs_stopword_filtered(lang: str = "en") -> str:
    """Oracle for stopword removal: the lowercased token stream minus
    the language's stopword list, space-rejoined."""
    stop = _stop_list(lang)
    return _TOKS_CTE + f"""
SELECT doc_id,
       array_to_string(list_filter(tk, t -> NOT list_contains([{stop}], t)), ' ') AS clean_text,
       CAST(len(tk) - len(list_filter(tk, t -> NOT list_contains([{stop}], t))) AS BIGINT) AS n_removed
FROM toks
"""


def docs_stratified_sample(n: int = 5) -> str:
    """Oracle for deterministic stratified sampling: smallest-n
    md5_number_lower(id) rows per source."""
    return f"""
SELECT doc_id, source FROM documents
QUALIFY ROW_NUMBER() OVER (PARTITION BY source
    ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id) <= {int(n)}
"""


def docs_simhash_pairs(max_hamming: int = 3, shingle_k: int = 2) -> str:
    """Oracle for simhash near-dup pairs: all-pairs Hamming distance
    over the (already strictly-oracled) simhash fingerprints."""
    return f"""
WITH sims AS ({docs_simhash(shingle_k)})
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sims a JOIN sims b ON b.doc_id > a.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {int(max_hamming)}
"""


def docs_bigram_freq(top_n: int = 50) -> str:
    """Oracle for corpus-wide top bigrams by count (ties by gram)."""
    return _TOKS_CTE + f"""
, grams AS (
  SELECT tk[i] || ' ' || tk[i + 1] AS gram
  FROM toks, unnest(CASE WHEN len(tk) >= 2
                         THEN generate_series(1, len(tk) - 1)
                         ELSE CAST([] AS BIGINT[]) END) u(i)
)
SELECT gram, COUNT(*) AS cnt FROM grams
GROUP BY gram ORDER BY cnt DESC, gram LIMIT {int(top_n)}
"""


def media_frame_sample(docs: str, stride: int = 4, frame_bytes: int = 16) -> str:
    """Oracle for the video frame-sampling stage: payload length is
    64 + (md5-seed % 192) and type 'video' is seed % 3 == 2
    (synthesize_media_payloads), so the sampled frame-index set is a
    pure function of md5(media_ref)."""
    return f"""
WITH seeded AS (
  SELECT doc_id, u.media_ref AS media_ref,
         CAST(concat('0x', substr(md5(u.media_ref), 1, 8)) AS BIGINT) AS seed
  FROM (SELECT doc_id, UNNEST(spans) AS u FROM read_parquet('{docs}'))
  WHERE u.kind = 'media'
),
vids AS (
  SELECT doc_id, media_ref, (64 + (seed % 192)) // {int(frame_bytes)} AS n_frames
  FROM seeded WHERE seed % 3 = 2
)
SELECT doc_id, media_ref, CAST(i AS BIGINT) AS frame_idx
FROM vids, unnest(CASE WHEN n_frames > 0
                       THEN generate_series(0, n_frames - 1, {int(stride)})
                       ELSE CAST([] AS BIGINT[]) END) u(i)
"""


def _gram_cte(n: int) -> str:
    """Per-document word n-grams over the shared token stream."""
    return _TOKS_CTE + f"""
, grams AS (
  SELECT doc_id, array_to_string(list_slice(tk, i, i + {int(n) - 1}), ' ') AS gram
  FROM toks, unnest(CASE WHEN len(tk) >= {int(n)}
                         THEN generate_series(1, len(tk) - {int(n) - 1})
                         ELSE CAST([] AS BIGINT[]) END) u(i)
)"""


def docs_decontaminated(n: int = 3, eval_mod: int = 53) -> str:
    """Oracle for benchmark decontamination: per non-eval document, the
    number of n-gram positions matching any DISTINCT eval-slice gram."""
    return _gram_cte(n) + f"""
, eg AS (SELECT DISTINCT gram FROM grams WHERE doc_id % {int(eval_mod)} = 0)
SELECT doc_id, COUNT(*) AS n_hits
FROM grams JOIN eg USING (gram)
WHERE doc_id % {int(eval_mod)} <> 0
GROUP BY doc_id
"""


def docs_repetition(n: int = 2) -> str:
    """Oracle for per-document repetition stats: total vs distinct
    word n-grams (docs with at least one gram)."""
    return _gram_cte(n) + """
SELECT doc_id, COUNT(*) AS n_grams, COUNT(DISTINCT gram) AS n_distinct
FROM grams GROUP BY doc_id
"""


def docs_length_filtered(lo: float = 0.05, hi: float = 0.95) -> str:
    """Oracle for the global percentile length filter
    (quantile_disc bounds, inclusive)."""
    return f"""
SELECT doc_id, n_chars FROM documents
WHERE n_chars BETWEEN (SELECT quantile_disc(n_chars, {lo}) FROM documents)
              AND (SELECT quantile_disc(n_chars, {hi}) FROM documents)
"""


def graph_triangles(docs: str) -> str:
    """Triangle enumeration oracle: canonical co-parent edges (p1<p2)
    three-way-joined the textbook way (a.v=b.u, closing edge (a.u,b.v))."""
    return _distinct_edges_cte(docs) + """
, cp AS (
  SELECT a.destination AS u, b.destination AS v
  FROM e a JOIN e b ON a.source = b.source AND a.destination < b.destination
  GROUP BY u, v
)
SELECT a.u AS u, a.v AS v, b.v AS w
FROM cp a JOIN cp b ON b.u = a.v JOIN cp c ON c.u = a.u AND c.v = b.v
ORDER BY u, v, w
"""


def graph_kcore(docs: str, k: int = 2, rounds: int = 3) -> str:
    """Unrolled k-core peeling oracle: each round keeps the vertices of
    degree >= k and the edges both of whose endpoints survive — the
    same fixed-round spec as ``graph.kcore_peel``."""
    parts = [_distinct_edges_cte(docs) + """
, e0 AS (
  SELECT a.destination AS u, b.destination AS v
  FROM e a JOIN e b ON a.source = b.source AND a.destination < b.destination
  GROUP BY u, v
)"""]
    for r in range(rounds):
        parts.append(f"""
, d{r} AS (SELECT w, COUNT(*) AS deg FROM
            (SELECT u AS w FROM e{r} UNION ALL SELECT v FROM e{r}) GROUP BY w),
s{r} AS (SELECT w FROM d{r} WHERE deg >= {k}),
e{r + 1} AS (SELECT u, v FROM e{r}
             WHERE u IN (SELECT w FROM s{r}) AND v IN (SELECT w FROM s{r}))""")
    parts.append(f"""
SELECT w AS id, COUNT(*) AS deg FROM
  (SELECT u AS w FROM e{rounds} UNION ALL SELECT v FROM e{rounds})
GROUP BY w ORDER BY id
""")
    return "".join(parts)


def graph_assortativity(docs: str) -> str:
    """Oracle for the assortativity moments: total-degree table joined
    onto both endpoints of the distinct edge set, integer sums."""
    return _distinct_edges_cte(docs) + """
, ends AS (SELECT source AS v FROM e UNION ALL SELECT destination FROM e),
deg AS (SELECT v, COUNT(*) AS deg FROM ends GROUP BY v)
SELECT COUNT(*) AS n_edges,
       CAST(SUM(ds.deg * dd.deg) AS BIGINT) AS sum_deg_product,
       CAST(SUM(ds.deg) AS BIGINT) AS sum_src_deg,
       CAST(SUM(dd.deg) AS BIGINT) AS sum_dst_deg
FROM e JOIN deg ds ON ds.v = e.source JOIN deg dd ON dd.v = e.destination
"""


def graph_clustering(docs: str) -> str:
    """Oracle for the global clustering moments over the canonical
    co-parent edge set: wedges = Σ C(deg,2), closed = 3·triangles."""
    return _distinct_edges_cte(docs) + """
, cp AS (
  SELECT a.destination AS u, b.destination AS v
  FROM e a JOIN e b ON a.source = b.source AND a.destination < b.destination
  GROUP BY u, v
), ends AS (SELECT u AS w FROM cp UNION ALL SELECT v FROM cp),
deg AS (SELECT w, COUNT(*) AS deg FROM ends GROUP BY w),
tri AS (
  SELECT COUNT(*) AS n FROM cp a JOIN cp b ON b.u = a.v
  JOIN cp c ON c.u = a.u AND c.v = b.v
)
SELECT CAST(SUM(deg * (deg - 1) // 2) AS BIGINT) AS n_wedges,
       (SELECT CAST(3 * n AS BIGINT) FROM tri) AS n_closed
FROM deg
"""


def docs_near_dup_scores(threshold_pct: int = 80, shingle_k: int = 3) -> str:
    """Oracle for the SCORED near-dup pairs: the true-Jaccard pair plan
    of :func:`docs_near_dup_pairs` with the threshold as an integer
    cross-multiplication (``i·100 >= pct·union`` — no float 0.8 on the
    boundary) and the score as floor permille."""
    joins = " || ' ' || ".join(f"tk[i+{j}]" for j in range(shingle_k))
    return _TOKS_CTE + f"""
, sh AS (
  SELECT doc_id, CASE WHEN len(tk) = 0 THEN CAST([] AS VARCHAR[])
       WHEN len(tk) < {shingle_k} THEN [array_to_string(tk, ' ')]
       ELSE list_distinct(list_transform(generate_series(1, len(tk) - {shingle_k - 1}),
                                         i -> {joins})) END AS s
  FROM toks
), ex AS (SELECT doc_id, unnest(s) AS g FROM sh),
sizes AS (SELECT doc_id, len(s) AS n FROM sh),
inter AS (
  SELECT a.doc_id AS da, b.doc_id AS db, COUNT(*) AS i
  FROM ex a JOIN ex b ON a.g = b.g AND b.doc_id > a.doc_id
  GROUP BY 1, 2
)
SELECT da AS doc_a, db AS doc_b,
       CAST(i * 1000 // (sa.n + sb.n - i) AS BIGINT) AS jac_permille
FROM inter JOIN sizes sa ON sa.doc_id = da JOIN sizes sb ON sb.doc_id = db
WHERE i * 100 >= {threshold_pct} * (sa.n + sb.n - i)
ORDER BY doc_a, doc_b
"""


# ----------------------------------------------------------------------
# exact SQL replays of the sketches (fs_crawler_ray.sketch) over the
# ``events`` table. Null user ids are left out, as the sketches skip
# null values (SQL md5_number_lower(NULL) is NULL and counts nowhere);
# a null event_type is one NULL group, as in any GROUP BY.
# ----------------------------------------------------------------------

# exact SQL replay of sketch.hll_distinct (p=12, m=4096):
# md5_number_lower == text.md5_lower64 bit-for-bit; register
# value rho = 53 - bit_length(low 52 bits) (length(bin(x)) is
# the exact integer bit length); Z kept as a HUGEINT so no
# float accumulation order exists; est floored at 4 decimals on
# both sides. alpha = 0.7213/(1 + 1.079/m).
EVENTS_HLL_USERS = """
WITH v AS (
    SELECT DISTINCT md5_number_lower(CAST(user_id AS VARCHAR)) AS hv
    FROM events WHERE user_id IS NOT NULL
),
b AS (
    SELECT CAST(hv >> 52 AS BIGINT) AS bucket,
           CAST(hv & 4503599627370495 AS BIGINT) AS rest
    FROM v
),
r AS (
    SELECT bucket,
           MAX(CASE WHEN rest = 0 THEN 53
                    ELSE 53 - length(bin(rest)) END) AS rho
    FROM b GROUP BY bucket
),
agg AS (
    SELECT 4096 AS m,
           4096 - COUNT(*) AS n_zero,
           SUM(CAST(1 AS HUGEINT) << (53 - rho))
           + (4096 - COUNT(*)) * (CAST(1 AS HUGEINT) << 53) AS z
    FROM r
),
est0 AS (
    SELECT m, n_zero, z,
           (0.7213 / (1.0 + 1.079 / m)) * m * m
               * 9007199254740992.0 / CAST(z AS DOUBLE) AS raw
    FROM agg
)
SELECT CAST(m AS BIGINT) AS m,
       CAST(n_zero AS BIGINT) AS n_zero,
       CAST(z AS VARCHAR) AS z_scaled,
       FLOOR((CASE WHEN raw <= 2.5 * m AND n_zero > 0
                   THEN m * ln(CAST(m AS DOUBLE) / n_zero)
                   ELSE raw END) * 10000.0) / 10000.0 AS est
FROM est0
"""

# grouped variant of events_hll_users: same register layout per
# event_type
EVENTS_HLL_USERS_BY_TYPE = """
WITH v AS (
    SELECT DISTINCT event_type,
           md5_number_lower(CAST(user_id AS VARCHAR)) AS hv
    FROM events WHERE user_id IS NOT NULL
),
b AS (
    SELECT event_type,
           CAST(hv >> 52 AS BIGINT) AS bucket,
           CAST(hv & 4503599627370495 AS BIGINT) AS rest
    FROM v
),
r AS (
    SELECT event_type, bucket,
           MAX(CASE WHEN rest = 0 THEN 53
                    ELSE 53 - length(bin(rest)) END) AS rho
    FROM b GROUP BY event_type, bucket
),
agg AS (
    SELECT event_type, 4096 AS m,
           4096 - COUNT(*) AS n_zero,
           SUM(CAST(1 AS HUGEINT) << (53 - rho))
           + (4096 - COUNT(*)) * (CAST(1 AS HUGEINT) << 53) AS z
    FROM r GROUP BY event_type
),
est0 AS (
    SELECT event_type, m, n_zero, z,
           (0.7213 / (1.0 + 1.079 / m)) * m * m
               * 9007199254740992.0 / CAST(z AS DOUBLE) AS raw
    FROM agg
)
SELECT event_type,
       CAST(m AS BIGINT) AS m,
       CAST(n_zero AS BIGINT) AS n_zero,
       CAST(z AS VARCHAR) AS z_scaled,
       FLOOR((CASE WHEN raw <= 2.5 * m AND n_zero > 0
                   THEN m * ln(CAST(m AS DOUBLE) / n_zero)
                   ELSE raw END) * 10000.0) / 10000.0 AS est
FROM est0 ORDER BY event_type
"""

# exact SQL replay of sketch.kmv_overlap (k=1024): bottom-k
# distinct md5 hashes per side, union bottom-k as the reference
# sample, integer intersection counts; distinct estimate
# (k-1)*2^64/(hk+1) with the double cast BEFORE the +1 (matches
# the engine's float op order), floor-truncated at 4 decimals.
EVENTS_KMV_OVERLAP = """
WITH a AS (
    SELECT DISTINCT md5_number_lower(CAST(user_id AS VARCHAR)) AS h
    FROM events WHERE event_type = 'purchase' AND user_id IS NOT NULL
),
b AS (
    SELECT DISTINCT md5_number_lower(CAST(user_id AS VARCHAR)) AS h
    FROM events WHERE event_type = 'view' AND user_id IS NOT NULL
),
ka AS (SELECT h FROM a ORDER BY h LIMIT 1024),
kb AS (SELECT h FROM b ORDER BY h LIMIT 1024),
u AS (
    SELECT h FROM (SELECT h FROM ka UNION SELECT h FROM kb)
    ORDER BY h LIMIT 1024
),
flags AS (
    SELECT u.h,
           u.h IN (SELECT h FROM ka) AS ina,
           u.h IN (SELECT h FROM kb) AS inb
    FROM u
),
sa AS (SELECT COUNT(*) AS kn, MAX(h) AS hk FROM ka),
sb AS (SELECT COUNT(*) AS kn, MAX(h) AS hk FROM kb),
ov AS (
    SELECT COUNT(*) AS n_ref,
           SUM(CASE WHEN ina AND inb THEN 1 ELSE 0 END) AS n_both
    FROM flags
)
SELECT CAST(1024 AS BIGINT) AS k,
       CAST(ov.n_ref AS BIGINT) AS n_ref,
       CAST(ov.n_both AS BIGINT) AS n_both,
       CASE WHEN ov.n_ref > 0
            THEN FLOOR(CAST(ov.n_both AS DOUBLE) / ov.n_ref
                       * 10000.0) / 10000.0
            ELSE 0.0 END AS jaccard,
       CASE WHEN sa.kn < 1024 THEN CAST(sa.kn AS DOUBLE)
            ELSE FLOOR((1024 - 1) * 18446744073709551616.0
                       / (CAST(sa.hk AS DOUBLE) + 1.0)
                       * 10000.0) / 10000.0 END AS est_distinct_a,
       CASE WHEN sb.kn < 1024 THEN CAST(sb.kn AS DOUBLE)
            ELSE FLOOR((1024 - 1) * 18446744073709551616.0
                       / (CAST(sb.hk AS DOUBLE) + 1.0)
                       * 10000.0) / 10000.0 END AS est_distinct_b
FROM ov, sa, sb
"""
