"""DuckDB oracle SQL for every SQL-expressible query in queries.py.

The corpus is a pure function of ``documents`` (sources/corpus.py), so
the oracle recomputes crawl facts directly in SQL:

* url(doc)   = 'https://site-' || (doc_id%16) || '.example.com/page/' || doc_id
* links      = doc p -> targets 4 + ((p*73 + j*179 + 11) % (N-4)),
               j < 2 + (p%4)
* robots     = host h blocked iff (h%7)==5
* BFS        = recursive CTE expanding only from allowed hosts,
               depth-capped; MIN(depth) == BFS wave depth.

``N`` is written as ``(SELECT count(*) FROM documents)`` so the same
SQL is valid at any scale factor.
"""

import os

# committed reference-generated markdown goldens, resolved in this checkout
GOLDEN_MD = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tests", "golden", "markdown_goldens.parquet",
)

CRAWL_DEPTH = 3

_N = "(SELECT count(*) FROM documents)"

_URL = (
    "'https://site-' || CAST(doc_id % 16 AS VARCHAR) || "
    "'.example.com/page/' || CAST(doc_id AS VARCHAR)"
)

_LINKS_CTE = f"""links_base AS (
  SELECT d.doc_id AS src, r.j AS j,
         (4 + ((d.doc_id*73 + r.j*179 + 11) % ({_N} - 4)))::BIGINT AS t0
  FROM documents d, range(0,6) r(j)
  WHERE r.j < 2 + (d.doc_id % 4)
),
links AS (
  -- hot-host skew: every third (src, j) pair redirects to host 1
  -- (sources/corpus.py link_target)
  SELECT src,
         CASE WHEN (src + j) % 3 = 0 THEN
           CASE WHEN t0 - (t0 % 16) + 1 < 4 THEN t0 - (t0 % 16) + 17
                WHEN t0 - (t0 % 16) + 1 >= {_N} THEN t0 - (t0 % 16) - 15
                ELSE t0 - (t0 % 16) + 1 END
         ELSE t0 END AS dst
  FROM links_base
)"""

_CRAWL_CTE = f"""{_LINKS_CTE},
crawl(doc_id, depth) AS (
  SELECT * FROM (VALUES (0::BIGINT,0),(1::BIGINT,0),(2::BIGINT,0),(3::BIGINT,0)) s(doc_id, depth)
  UNION
  SELECT l.dst, c.depth + 1
  FROM crawl c JOIN links l ON l.src = c.doc_id
  WHERE c.depth < {CRAWL_DEPTH} AND ((c.doc_id % 16) % 7) != 5
),
reached AS (
  SELECT doc_id, MIN(depth) AS depth FROM crawl GROUP BY doc_id
)"""

# Exhaustive-reachability variant (depth bound far above the synthetic
# graph's diameter): the AsyncCrawler parity envelope — its crawled SET
# equals BFS exactly when max_depth does not truncate reachability
# (pipelines/async_crawl.py module doc).
_CRAWL_CTE_EXH = _CRAWL_CTE.replace(f"c.depth < {CRAWL_DEPTH}", "c.depth < 30")


_STOPLIST = ",".join(
    f"'{w}'"
    for w in "the a an and or of to in is are was were be been it this that for on with as at by from".split()
)

_NUMBER_RE = r"\b\d{1,3}(?:[,.\s]\d{3})*(?:\.\d+)?\b"

ORACLES: dict[str, str] = {
    # The golden parquet's markdown columns were generated by the
    # REFERENCE engine (vendored html2text + citation pass) — see
    # tests/golden/gen_markdown_goldens.py.  A value-hash match against
    # the Ray pipeline is therefore byte-parity with the reference.
    "markdown_parity": f"""
        SELECT fixture_id, raw_markdown, markdown_with_citations, references_markdown
        FROM read_parquet('{GOLDEN_MD}')
        ORDER BY fixture_id
    """,
    "chunk_counts": """
        SELECT doc_id,
               CAST(ceil(length(regexp_split_to_array(trim(text), '\\s+')) / 20.0) AS BIGINT) AS n_chunks
        FROM documents
        WHERE trim(text) != ''
        ORDER BY doc_id
    """,
    "quality_metrics": f"""
        WITH base AS (
          SELECT doc_id, coalesce(text, '') AS text,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS words
          FROM documents
        )
        SELECT doc_id,
          CAST(length(words) AS BIGINT) AS n_words,
          length(text)::DOUBLE / greatest(length(words), 1) AS mean_word_len,
          length(regexp_extract_all(text, '[.,;:!?]'))::DOUBLE
            / greatest(length(text), 1) AS punct_ratio,
          length(list_filter(words, x -> lower(x) IN ({_STOPLIST})))::DOUBLE
            / greatest(length(words), 1) AS stop_ratio
        FROM base ORDER BY doc_id
    """,
    # Gopher Appendix-A rules (quality.py): every ratio is the same
    # single IEEE division as the Python side, so no rounding needed
    "gopher_quality": """
        WITH base AS (
          SELECT doc_id,
                 coalesce(text, '') AS text,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS words,
                 string_split(coalesce(text, ''), chr(10)) AS lines
          FROM documents
        ), m AS (
          SELECT doc_id,
            CAST(length(words) AS BIGINT) AS n_words,
            greatest(length(words), 1) AS nw1,
            CAST(coalesce(list_sum(list_transform(words, w -> length(w))), 0) AS BIGINT) AS word_chars,
            CAST(length(regexp_extract_all(text, '#'))
               + CAST((length(text) - length(replace(text, '...', ''))) / 3 AS BIGINT) AS BIGINT) AS n_symbols,
            CAST(length(lines) AS BIGINT) AS n_lines,
            CAST(length(list_filter(lines, l -> regexp_matches(l, '^[ \t]*[-*•]'))) AS BIGINT) AS n_bullet,
            CAST(length(list_filter(lines, l -> regexp_matches(l, '(\\.\\.\\.|…)[ \t]*$'))) AS BIGINT) AS n_ellipsis,
            CAST(length(list_filter(words, w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT) AS n_alpha,
            CAST((CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'the') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'be') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'to') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'of') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'and') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'that') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'have') THEN 1 ELSE 0 END
                + CASE WHEN list_contains(list_transform(words, w -> lower(w)), 'with') THEN 1 ELSE 0 END
              ) AS BIGINT) AS stop_hits
          FROM base
        )
        SELECT doc_id, n_words,
               word_chars::DOUBLE / nw1 AS mean_word_len,
               n_symbols::DOUBLE / nw1 AS symbol_word_ratio,
               n_bullet::DOUBLE / n_lines AS bullet_line_frac,
               n_ellipsis::DOUBLE / n_lines AS ellipsis_line_frac,
               n_alpha::DOUBLE / nw1 AS alpha_word_frac,
               stop_hits,
               (n_words >= 50 AND n_words <= 100000
                AND word_chars::DOUBLE / nw1 >= 3.0 AND word_chars::DOUBLE / nw1 <= 10.0
                AND n_symbols::DOUBLE / nw1 < 0.1
                AND n_bullet::DOUBLE / n_lines < 0.9
                AND n_ellipsis::DOUBLE / n_lines < 0.3
                AND n_alpha::DOUBLE / nw1 >= 0.8
                AND stop_hits >= 2) AS gopher_pass
        FROM m ORDER BY doc_id
    """,
    # C4 line rules (Raffel et al. 2020 §2.2)
    "c4_line_stats": """
        WITH base AS (
          SELECT doc_id, text, string_split(text, chr(10)) AS lines
          FROM documents
        ), k AS (
          SELECT doc_id, text,
                 CAST(length(lines) AS BIGINT) AS n_lines,
                 list_filter(lines, l ->
                     length(regexp_extract_all(l, '\\S+')) >= 5
                     AND regexp_matches(l, '[.!?\"][ \t]*$')
                     AND NOT contains(lower(l), 'javascript')) AS kept
          FROM base
        )
        SELECT doc_id, n_lines,
               CAST(length(kept) AS BIGINT) AS n_kept_lines,
               CAST(coalesce(list_sum(list_transform(kept,
                    l -> length(regexp_extract_all(l, '\\S+')))), 0) AS BIGINT) AS n_kept_words,
               (NOT contains(lower(text), 'lorem ipsum')
                AND NOT contains(text, '{')) AS c4_keep_doc
        FROM k ORDER BY doc_id
    """,
    # corpus-wide exact line dedup: first (doc_id, line_no) of each
    # distinct edge-trimmed non-empty line survives
    "line_dedup": """
        WITH ln AS (
          SELECT doc_id,
                 unnest(string_split(text, chr(10))) AS raw_line,
                 unnest(range(1, len(string_split(text, chr(10))) + 1)) AS line_no
          FROM documents
        ), nz AS (
          SELECT doc_id, line_no,
                 regexp_replace(raw_line, '^[ \t\r\f]+|[ \t\r\f]+$', '', 'g') AS line
          FROM ln
        ), ranked AS (
          SELECT doc_id, line_no,
                 row_number() OVER (PARTITION BY line ORDER BY doc_id, line_no) AS rn
          FROM nz WHERE line <> ''
        )
        SELECT doc_id,
               CAST(count(*) FILTER (WHERE rn = 1) AS BIGINT) AS n_kept,
               CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT) AS n_removed
        FROM ranked GROUP BY doc_id ORDER BY doc_id
    """,
    # exact-substring (k=8 token window) dedup: window text stands in
    # for the engine's 64-bit window hash (collision-free at sf scale)
    "substring_dedup": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ), docs AS (
          SELECT doc_id, t FROM toks WHERE len(t) >= 8
        ), pos AS (
          SELECT doc_id, t, unnest(range(1, len(t) - 8 + 2)) AS i FROM docs
        ), wins AS (
          SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS w FROM pos
        ), ranked AS (
          SELECT doc_id, i,
                 row_number() OVER (PARTITION BY w ORDER BY doc_id, i) AS rn
          FROM wins
        )
        SELECT doc_id,
               CAST(count(*) AS BIGINT) AS n_windows,
               CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT) AS n_dup_windows,
               CAST(count(*) FILTER (WHERE rn > 1) AS DOUBLE) / count(*) AS dup_ratio
        FROM ranked GROUP BY doc_id ORDER BY doc_id
    """,
    # exact-substring dedup deletion metric: token positions covered
    # by >=1 duplicated window = gaps-and-islands interval union over
    # the rn>1 window spans [i, i+7]
    "substring_removal": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ), docs AS (
          SELECT doc_id, len(t) AS n_tokens, t FROM toks WHERE len(t) >= 8
        ), pos AS (
          SELECT doc_id, t, unnest(range(1, len(t) - 8 + 2)) AS i FROM docs
        ), wins AS (
          SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS w FROM pos
        ), ranked AS (
          SELECT doc_id, i,
                 row_number() OVER (PARTITION BY w ORDER BY doc_id, i) AS rn
          FROM wins
        ), dups AS (
          SELECT doc_id, i, i + 7 AS e FROM ranked WHERE rn > 1
        ), isl AS (
          SELECT doc_id, i, e,
                 max(e) OVER (PARTITION BY doc_id ORDER BY i
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                   AS prev_end
          FROM dups
        ), grp AS (
          SELECT doc_id, i, e,
                 sum(CASE WHEN prev_end IS NULL OR i > prev_end + 1
                     THEN 1 ELSE 0 END)
                   OVER (PARTITION BY doc_id ORDER BY i
                     ROWS UNBOUNDED PRECEDING) AS g
          FROM isl
        ), islands AS (
          SELECT doc_id, g, max(e) - min(i) + 1 AS covered
          FROM grp GROUP BY doc_id, g
        ), removed AS (
          SELECT doc_id, sum(covered) AS n_removed FROM islands
          GROUP BY doc_id
        )
        SELECT d.doc_id,
               CAST(d.n_tokens AS BIGINT) AS n_tokens,
               CAST(coalesce(r.n_removed, 0) AS BIGINT) AS n_removed_tokens,
               CAST(coalesce(r.n_removed, 0) AS DOUBLE) / d.n_tokens
                 AS removed_ratio
        FROM docs d LEFT JOIN removed r USING (doc_id) ORDER BY d.doc_id
    """,
    # decontamination: eval set = doc_id % 23 == 0, k=4-token windows
    # (query-pinned small-scale params; engine default k=8/mod=97)
    "decontaminate": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS t
          FROM documents
        ), ev AS (
          SELECT DISTINCT array_to_string(t[i:i+3], ' ') AS w
          FROM (SELECT doc_id, t, unnest(range(1, len(t) - 4 + 2)) AS i
                FROM toks WHERE doc_id % 23 = 0 AND len(t) >= 4)
        ), cw AS (
          SELECT doc_id, array_to_string(t[i:i+3], ' ') AS w
          FROM (SELECT doc_id, t, unnest(range(1, len(t) - 4 + 2)) AS i
                FROM toks WHERE doc_id % 23 <> 0 AND len(t) >= 4)
        ), hits AS (
          SELECT cw.doc_id, count(*) AS n FROM cw JOIN ev USING (w)
          GROUP BY cw.doc_id
        )
        SELECT d.doc_id,
               CAST(coalesce(h.n, 0) AS BIGINT) AS n_overlap_windows,
               coalesce(h.n, 0) > 0 AS contaminated
        FROM documents d LEFT JOIN hits h USING (doc_id)
        WHERE d.doc_id % 23 <> 0 ORDER BY d.doc_id
    """,
    "regex_numbers": f"""
        SELECT event_type,
               CAST(sum(length(regexp_extract_all(props, '{_NUMBER_RE}'))) AS BIGINT) AS n_matches
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    # real-PDF round trip: per-page text is the 200-char document
    # slice the writer rendered; a hash match proves the stdlib PDF
    # engine extracts byte-identical text in page order
    "pdf_pages": """
        SELECT doc_id,
               CAST(r.i + 1 AS INT) AS page,
               substr(text, CAST(r.i * 200 + 1 AS INT), 200) AS text,
               0 AS n_images
        FROM documents, range(0, 4096) r(i)  -- constant bound: duckdb range() rejects lateral params; docs are < 4096*200 chars
        WHERE r.i < greatest(1, CAST(ceil(length(text) / 200.0) AS BIGINT))
        ORDER BY doc_id, page
    """,
    "ngram_jaccard": """
        WITH sh AS (
          SELECT DISTINCT doc_id, substr(text, CAST(i AS INT), 7) AS g
          FROM documents, range(1, 4096) t(i)  -- constant bound: duckdb range() rejects lateral params; docs are < 4096 chars
          WHERE length(text) >= 7 AND i <= length(text) - 6
        ),
        sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
        inter AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS i
          FROM sh a JOIN sh b ON a.g = b.g AND a.doc_id < b.doc_id
          GROUP BY 1, 2
        )
        SELECT doc_a, doc_b
        FROM inter
        JOIN sizes sa ON sa.doc_id = doc_a
        JOIN sizes sb ON sb.doc_id = doc_b
        WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.5
        ORDER BY doc_a, doc_b
    """,
    "embed_near_dup": """
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        ORDER BY vec_a, vec_b
    """,
    # LSH near-dup recall is 1.0 at test scales (every true pair
    # cosine >= threshold margin) so the exact self-join is a valid
    # equality oracle for the hyperplane-bucketed variant too
    "embed_near_dup_lsh": """
        SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        ORDER BY vec_a, vec_b
    """,
    # connected components over embed-near-dup pairs: recursive-CTE
    # transitive closure; cluster label = min node id of the component
    "dedup_clusters": """
        WITH RECURSIVE pairs AS (
          SELECT a.vec_id AS doc_a, b.vec_id AS doc_b
          FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
          WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        ),
        edges AS (
          SELECT doc_a AS u, doc_b AS v FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs
        ),
        reach(node, r) AS (
          SELECT u, v FROM edges
          UNION
          SELECT w.node, e.v FROM reach w JOIN edges e ON e.u = w.r
        )
        SELECT node AS doc_id, least(node, min(r)) AS cluster
        FROM reach GROUP BY node ORDER BY doc_id
    """,
    # stratified downsample: identical md5-threshold draw per row
    # (15 hex chars = 60 bits, same digest rule as the python side)
    "stratified_sample": """
        SELECT doc_id, lang FROM (
          SELECT doc_id, lang,
                 ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))::UBIGINT % 1000000 AS draw
          FROM documents
        )
        WHERE draw < CASE WHEN lang = 'en' THEN 250000 ELSE 600000 END
        ORDER BY doc_id
    """,
    # multinomial Naive Bayes closed form: add-one smoothed (lang,
    # token) counts, per-doc distinct-token counts x log-likelihood,
    # argmax with ties to the smallest label — literal mirror of
    # pipelines/nbayes.py (same tokenizer: lower + a-z runs)
    "nb_predict_lang": """
        WITH toks AS (
          SELECT doc_id, lang, tok FROM (
            SELECT doc_id, lang,
                   unnest(regexp_split_to_array(lower(coalesce(text, '')), '[^a-z]+')) AS tok
            FROM documents
          ) WHERE tok <> ''
        ),
        counts AS (SELECT lang, tok, count(*)::DOUBLE AS c FROM toks GROUP BY 1, 2),
        totals AS (SELECT lang, sum(c) AS t FROM counts GROUP BY 1),
        vocab AS (SELECT count(DISTINCT tok)::DOUBLE AS v FROM toks),
        priors AS (SELECT lang, count(*)::DOUBLE AS n FROM documents GROUP BY 1),
        ndocs AS (SELECT count(*)::DOUBLE AS n FROM documents),
        doctok AS (SELECT doc_id, tok, count(*)::DOUBLE AS dc FROM toks GROUP BY 1, 2),
        langs AS (SELECT DISTINCT lang FROM documents),
        likes AS (
          SELECT dt.doc_id, l.lang,
                 sum(dt.dc * ln((coalesce(c.c, 0) + 1) / (t.t + v.v))) AS ls
          FROM doctok dt
          CROSS JOIN langs l
          LEFT JOIN counts c ON c.lang = l.lang AND c.tok = dt.tok
          JOIN totals t ON t.lang = l.lang
          CROSS JOIN vocab v
          GROUP BY 1, 2
        ),
        scores AS (
          SELECT d.doc_id, l.lang,
                 ln(p.n / nd.n) + coalesce(k.ls, 0) AS score
          FROM documents d
          CROSS JOIN langs l
          JOIN priors p ON p.lang = l.lang
          CROSS JOIN ndocs nd
          LEFT JOIN likes k ON k.doc_id = d.doc_id AND k.lang = l.lang
        ),
        best AS (
          SELECT doc_id, lang,
                 row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
          FROM scores
        )
        SELECT doc_id, lang AS pred_lang FROM best WHERE rn = 1 ORDER BY doc_id
    """,
    # leakage-safe split: recursive-CTE near-dup clusters (same pair
    # rule as dedup_clusters), singletons fall back to their own id,
    # then the train_split arithmetic applied to the CLUSTER label
    "leakage_split": """
        WITH RECURSIVE pairs AS (
          SELECT a.vec_id AS doc_a, b.vec_id AS doc_b
          FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
          WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        ),
        edges AS (
          SELECT doc_a AS u, doc_b AS v FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs
        ),
        reach(node, r) AS (
          SELECT u, v FROM edges
          UNION
          SELECT w.node, e.v FROM reach w JOIN edges e ON e.u = w.r
        ),
        clu AS (
          SELECT node AS doc_id, least(node, min(r)) AS cluster
          FROM reach GROUP BY node
        ),
        lab AS (
          SELECT e.vec_id AS doc_id, coalesce(c.cluster, e.vec_id) AS cluster
          FROM embeddings e LEFT JOIN clu c ON c.doc_id = e.vec_id
        )
        SELECT doc_id, cluster,
               CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END AS split
        FROM (SELECT doc_id, cluster, (cluster * 2654435761 + 97) % 100 AS b FROM lab)
        ORDER BY doc_id
    """,
    # brute-force word-3-gram jaccard (same shingle def as
    # dedup.MinHasher): length-ratio prefilter, then exact set overlap
    "dedup_minhash": """
        WITH docs0 AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        docs AS (SELECT * FROM docs0 WHERE len(w) > 0),
        grams AS (
          SELECT d.doc_id,
                 array_to_string(d.w[g.i:least(g.i + 2, len(d.w))], ' ') AS gram
          FROM docs d, generate_series(1, 8192) g(i)
          WHERE g.i <= greatest(len(d.w) - 2, 1)
        ),
        sets AS (
          SELECT doc_id, list(DISTINCT gram) AS s FROM grams GROUP BY doc_id
        ),
        cand AS (
          SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                 len(list_intersect(a.s, b.s))::DOUBLE
                   / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s))) AS j
          FROM sets a JOIN sets b ON a.doc_id < b.doc_id
          WHERE least(len(a.s), len(b.s)) * 2 >= greatest(len(a.s), len(b.s))
        )
        SELECT doc_a, doc_b, round(j, 6) AS jaccard
        FROM cand WHERE j >= 0.5 ORDER BY doc_a, doc_b
    """,
    # full SimHash chain in SQL: md5-derived word hashes (same digest
    # as dedup._md5_word_hashes), per-bit majority vote, 16-bit
    # quarter pigeonhole candidates, exact hamming <= 3
    "dedup_simhash": """
        WITH wordlist AS (
          SELECT doc_id,
                 unnest(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                                    x -> x <> '')) AS w
          FROM documents
        ),
        wh AS (
          SELECT doc_id, ('0x' || substr(md5(w), 1, 16))::UBIGINT AS h
          FROM wordlist
        ),
        stats AS (SELECT doc_id, count(*) AS n FROM wh GROUP BY doc_id),
        ones AS (
          SELECT w.doc_id, r.i AS i,
                 CAST(sum((w.h >> CAST(r.i AS UTINYINT)) & 1) AS BIGINT) AS c
          FROM wh w, range(0, 64) r(i)
          GROUP BY w.doc_id, r.i
        ),
        bits0 AS (
          SELECT o.doc_id, o.i, CASE WHEN 2 * o.c > s.n THEN 1 ELSE 0 END AS b
          FROM ones o JOIN stats s USING (doc_id)
        ),
        allbits AS (
          SELECT d.doc_id, r.i, COALESCE(b.b, 0) AS b
          FROM documents d
          CROSS JOIN range(0, 64) r(i)
          LEFT JOIN bits0 b ON b.doc_id = d.doc_id AND b.i = r.i
        ),
        quarters AS (
          SELECT doc_id, i // 16 AS q,
                 CAST(sum(b * (1 << (i % 16))) AS BIGINT) AS qv
          FROM allbits GROUP BY doc_id, q
        ),
        cand AS (
          SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM quarters a
          JOIN quarters b ON a.q = b.q AND a.qv = b.qv AND a.doc_id < b.doc_id
        ),
        ham AS (
          SELECT c.doc_a, c.doc_b,
                 CAST(sum(CASE WHEN ba.b != bb.b THEN 1 ELSE 0 END) AS BIGINT) AS hamming
          FROM cand c
          JOIN allbits ba ON ba.doc_id = c.doc_a
          JOIN allbits bb ON bb.doc_id = c.doc_b AND bb.i = ba.i
          GROUP BY c.doc_a, c.doc_b
        )
        SELECT doc_a, doc_b, hamming FROM ham
        WHERE hamming <= 3 ORDER BY doc_a, doc_b
    """,
    "distinct_users": """
        SELECT count(DISTINCT user_id) AS n_users FROM events
    """,
    # SQL mirror of LangIdBatch (stages/text_analysis.py): CJK-script
    # early exit, then weighted trigram-profile overlap with the same
    # profile tables and first-wins tie-break (dict order en,de,fr,es)
    "langid_counts": """
        WITH prof(lang, prio, gram, w) AS (VALUES
          ('en',0,' th',10),('en',0,'the',9),('en',0,'he ',8),('en',0,' an',7),
          ('en',0,'and',6),('en',0,'nd ',5),('en',0,' of',4),('en',0,'of ',3),
          ('en',0,'ing',2),('en',0,'ng ',1),
          ('de',1,'en ',10),('de',1,'er ',9),('de',1,' de',8),('de',1,'der',7),
          ('de',1,'ie ',6),('de',1,' di',5),('de',1,'die',4),('de',1,'ch ',3),
          ('de',1,'sch',2),('de',1,'ein',1),
          ('fr',2,' de',10),('fr',2,'de ',9),('fr',2,'es ',8),('fr',2,' le',7),
          ('fr',2,'le ',6),('fr',2,'ent',5),('fr',2,'nt ',4),('fr',2,'la ',3),
          ('fr',2,' la',2),('fr',2,'ion',1),
          ('es',3,' de',10),('es',3,'de ',9),('es',3,'os ',8),('es',3,' la',7),
          ('es',3,'la ',6),('es',3,'el ',5),('es',3,' el',4),('es',3,'que',3),
          ('es',3,' qu',2),('es',3,'ue ',1)
        ),
        docs AS (
          SELECT doc_id, lower(substr(text, 1, 2000)) AS low,
                 substr(text, 1, 200) AS head
          FROM documents
        ),
        tri AS (
          SELECT d.doc_id, substr(d.low, g.i, 3) AS gram
          FROM docs d, generate_series(1, 1998) g(i)
          WHERE g.i <= len(d.low) - 2
        ),
        counts AS (
          SELECT doc_id, gram, count(*) AS c FROM tri GROUP BY doc_id, gram
        ),
        scores AS (
          SELECT c.doc_id, p.lang, p.prio, sum(c.c * p.w) AS s
          FROM counts c JOIN prof p ON p.gram = c.gram
          GROUP BY c.doc_id, p.lang, p.prio
        ),
        best AS (
          SELECT doc_id, lang, s FROM scores
          QUALIFY row_number() OVER (
            PARTITION BY doc_id ORDER BY s DESC, prio ASC
          ) = 1
        ),
        cjk AS (
          SELECT doc_id,
                 len(regexp_extract_all(head, '[一-鿿]')) AS n_cjk,
                 len(head) AS hl
          FROM docs
        ),
        pred AS (
          SELECT d.doc_id,
            CASE WHEN k.n_cjk > k.hl * 0.2 THEN 'zh'
                 WHEN b.s IS NULL OR b.s <= 0 THEN 'und'
                 ELSE b.lang END AS pred_lang
          FROM documents d
          LEFT JOIN best b USING (doc_id)
          LEFT JOIN cjk k USING (doc_id)
        )
        SELECT pred_lang, count(*) AS n_docs
        FROM pred GROUP BY pred_lang ORDER BY pred_lang
    """,
    # winnowed md5-shingle fingerprints: 8 smallest digests of the
    # distinct word-4-gram set per document
    "doc_fingerprints": """
        WITH docs AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        docs_nz AS (SELECT * FROM docs WHERE len(w) > 0),
        grams AS (
          SELECT d.doc_id,
                 array_to_string(d.w[g.i:least(g.i + 3, len(d.w))], ' ') AS gram
          FROM docs_nz d, generate_series(1, 8192) g(i)
          WHERE g.i <= greatest(len(d.w) - 3, 1)
        ),
        digs AS (SELECT DISTINCT doc_id, md5(gram) AS h FROM grams),
        top8 AS (
          SELECT doc_id, h FROM digs
          QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY h) <= 8
        ),
        fp AS (
          SELECT doc_id, string_agg(h, ',' ORDER BY h) AS fingerprint
          FROM top8 GROUP BY doc_id
        )
        SELECT d.doc_id, coalesce(f.fingerprint, '') AS fingerprint
        FROM documents d LEFT JOIN fp f USING (doc_id) ORDER BY d.doc_id
    """,
    # corpus pages p%5==0 embed exactly one data table (caption Stats,
    # thead k/v, two body rows id/host) — see sources/corpus.py
    "tables_extracted": f"""
        SELECT {_URL} AS url,
               'Stats' AS caption,
               'k,v' AS headers,
               'id,' || CAST(doc_id AS VARCHAR) || ';host,' ||
                 CAST(doc_id % 16 AS VARCHAR) AS cells,
               CAST(2 AS BIGINT) AS n_rows,
               CAST(2 AS BIGINT) AS n_cols
        FROM documents WHERE doc_id % 5 = 0 ORDER BY url
    """,
    "extract_text": f"""
        SELECT {_URL} AS url, text
        FROM documents ORDER BY url
    """,
    # identical reconstruction — the Ray side re-derives (url, text)
    # through the WARC export/ingest round trip instead of parquet
    "warc_roundtrip": f"""
        SELECT {_URL} AS url, text
        FROM documents ORDER BY url
    """,
    # subset keyed GET through CDX + ranged shard reads
    "warc_keyed_fetch": f"""
        SELECT {_URL} AS url, text
        FROM documents WHERE doc_id % 3 = 0 ORDER BY url
    """,
    # closed-form structural counts of cleaned_html after the kernel's
    # pruning passes; the per-gate terms mirror sources/corpus.py
    # page_html (base-href/dup-link/pre/mermaid/picture/base64 gates)
    "cleaned_html_stats": f"""
        WITH paras AS (
          SELECT doc_id, text,
                 length(list_filter(string_split(text, chr(10)||chr(10)),
                                    x -> trim(x) != '')) AS n_paras
          FROM documents
        )
        SELECT {_URL} AS url,
               CAST(3 + (2 + doc_id % 4) + CASE WHEN doc_id % 3 = 1 THEN 1 ELSE 0 END
                      + CASE WHEN doc_id % 37 = 12 THEN 1 ELSE 0 END AS BIGINT) AS n_anchors,
               CAST(2 + CASE WHEN doc_id % 19 = 4 THEN 1 ELSE 0 END
                      + CASE WHEN doc_id % 31 = 10 THEN 1 ELSE 0 END AS BIGINT) AS n_imgs,
               CAST(n_paras AS BIGINT) AS n_paras,
               CAST(15 + n_paras + 2 * (2 + doc_id % 4)
                      + CASE WHEN doc_id % 3 = 1 THEN 1 ELSE 0 END
                      + CASE WHEN doc_id % 37 = 12 THEN 1 ELSE 0 END
                      + CASE WHEN doc_id % 7 = 2 THEN 1 ELSE 0 END
                      + CASE WHEN doc_id % 17 = 3 THEN 1 ELSE 0 END
                      + CASE WHEN doc_id % 19 = 4 THEN 2 ELSE 0 END
                      + CASE WHEN doc_id % 31 = 10 THEN 2 ELSE 0 END AS BIGINT) AS n_attrs
        FROM paras ORDER BY url
    """,
    "link_stats": f"""
        SELECT {_URL} AS url,
               CAST(2 + (doc_id % 4) AS BIGINT) AS n_internal,
               CAST(3 + CASE WHEN doc_id % 37 = 12 THEN 1 ELSE 0 END AS BIGINT) AS n_external
        FROM documents ORDER BY url
    """,
    # LinkPreview (link_preview.py:112-407 + utils.py:3459-3506): the
    # corpus link list, fnmatch filter chain, head join and intrinsic
    # link scores are all closed-form in doc_id.  Intrinsic terms
    # (calculate_link_intrinsic_score, utils.py:3344-3456) for the
    # template links: internal = 1.0 title + 1.0 depth<=2 + 0.5 https
    # + 1.0 text>3 + 0.5 words>=2 = 4.0 base + context-overlap term;
    # externals analogous (see corpus.py page_html).
    "link_preview": f"""
        WITH links_pos AS (
          SELECT d.doc_id AS src, r.j AS j,
                 (4 + ((d.doc_id*73 + r.j*179 + 11) % ({_N} - 4)))::BIGINT AS t0
          FROM documents d, range(0,6) r(j)
          WHERE r.j < 2 + (d.doc_id % 4)
        ),
        ilinks_raw AS (
          SELECT src, j,
                 CASE WHEN (src + j) % 3 = 0 THEN
                   CASE WHEN t0 - (t0 % 16) + 1 < 4 THEN t0 - (t0 % 16) + 17
                        WHEN t0 - (t0 % 16) + 1 >= {_N} THEN t0 - (t0 % 16) - 15
                        ELSE t0 - (t0 % 16) + 1 END
                 ELSE t0 END AS dst
          FROM links_pos
        ),
        ilinks AS (SELECT src, dst, min(j) AS j FROM ilinks_raw GROUP BY src, dst),
        ipos AS (
          SELECT src, dst, ROW_NUMBER() OVER (PARTITION BY src ORDER BY j) - 1 AS pos
          FROM ilinks
        ),
        ctx AS (
          SELECT doc_id AS src,
                 list_filter(regexp_split_to_array(substr(text, 1, 80), '\\s+'), x -> x != '') AS descw
          FROM documents
        ),
        internal_rows AS (
          SELECT i.src, TRUE AS is_internal, i.pos,
                 'https://site-' || CAST(i.dst % 16 AS VARCHAR) || '.example.com/page/' || CAST(i.dst AS VARCHAR) AS href,
                 'Related page ' || CAST(i.dst AS VARCHAR) AS text,
                 'Related ' || CAST(i.dst AS VARCHAR) AS title_attr,
                 i.dst AS dst,
                 (1 + CASE WHEN list_contains(c.descw, 'page') THEN 1 ELSE 0 END
                    + CASE WHEN i.dst = i.src AND i.src >= 100 THEN 1 ELSE 0 END) AS overlap,
                 (2 + CASE WHEN i.dst >= 100 THEN 1 ELSE 0 END) AS lw,
                 4.0 AS base
          FROM ipos i JOIN ctx c ON c.src = i.src
        ),
        external_rows AS (
          SELECT d.doc_id AS src, FALSE AS is_internal, e.pos, e.href, e.text, '' AS title_attr,
                 NULL::BIGINT AS dst, e.overlap, e.lw, e.base
          FROM documents d JOIN ctx c ON c.src = d.doc_id, LATERAL (
            SELECT * FROM (VALUES
              (0::BIGINT, 'javascript:void(0)', 'Menu',
                 CASE WHEN list_contains(c.descw, 'menu') THEN 1 ELSE 0 END, 1, 2.0),
              (1::BIGINT, 'mailto:info@example.com', 'Contact',
                 CASE WHEN list_contains(c.descw, 'contact') THEN 1 ELSE 0 END, 1, 2.0),
              (2::BIGINT, 'https://cdn-' || CAST(d.doc_id % 3 AS VARCHAR) || '.external.org/asset/' || CAST(d.doc_id AS VARCHAR),
                 'External asset ' || CAST(d.doc_id AS VARCHAR),
                 CASE WHEN list_contains(c.descw, 'external') THEN 1 ELSE 0 END
                 + CASE WHEN list_contains(c.descw, 'asset') THEN 1 ELSE 0 END
                 + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END,
                 2 + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END, 3.0)
            ) v(pos, href, text, overlap, lw, base)
            UNION ALL
            SELECT 3::BIGINT, 'https://news.bbc.co.uk/story/' || CAST(d.doc_id AS VARCHAR),
                   'UK story ' || CAST(d.doc_id AS VARCHAR),
                   CASE WHEN list_contains(c.descw, 'story') THEN 1 ELSE 0 END
                   + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END,
                   1 + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END, 3.0
            WHERE d.doc_id % 37 = 12
          ) e
        ),
        all_rows AS (
          SELECT *,
            base + CASE WHEN overlap > 0 THEN (overlap::DOUBLE / LEAST(lw, 10)::DOUBLE) * 2.0 ELSE 0.0 END AS intrinsic
          FROM (SELECT * FROM internal_rows UNION ALL SELECT * FROM external_rows)
        ),
        selected AS (
          SELECT src, is_internal, pos,
            CASE WHEN href LIKE 'https://%' AND NOT href GLOB '*.external.org/*' THEN
              ROW_NUMBER() OVER (
                PARTITION BY src, (href LIKE 'https://%' AND NOT href GLOB '*.external.org/*')
                ORDER BY is_internal DESC, pos)
            ELSE NULL END AS sel_rank
          FROM all_rows
        )
        SELECT
          'https://site-' || CAST(a.src % 16 AS VARCHAR) || '.example.com/page/' || CAST(a.src AS VARCHAR) AS page_url,
          a.href, a.is_internal, a.pos, a.text, a.title_attr,
          a.intrinsic AS intrinsic_score,
          CASE WHEN s.sel_rank <= 4 THEN
            CASE WHEN a.is_internal THEN 'valid' ELSE 'not_valid' END
          END AS head_status,
          CASE WHEN s.sel_rank <= 4 AND a.is_internal THEN
            'Document ' || CAST(a.dst AS VARCHAR) || ' — site-' || CAST(a.dst % 16 AS VARCHAR)
          END AS head_title,
          GREATEST(0.0, LEAST(a.intrinsic, 10.0)) AS total_score,
          ROW_NUMBER() OVER (PARTITION BY a.src ORDER BY a.is_internal DESC, a.pos) - 1 AS rank
        FROM all_rows a
        JOIN selected s ON s.src = a.src AND s.is_internal = a.is_internal AND s.pos = a.pos
        ORDER BY page_url, rank
    """,
    # BM25-scored LinkPreview (async_url_seeder.py:1703-1755 BM25Okapi
    # k1=1.5 b=0.75 eps=0.25, per-page candidate-set-relative min-max
    # normalize; blend utils.py:3459-3506).  The head text-context of
    # target t tokenizes to ['document', t, '—', 'site-h'] + desc80
    # words + ['doc,page,lang', 'document', t, 'site-h'].
    "link_preview_scored": f"""
        WITH links_pos AS (
          SELECT d.doc_id AS src, r.j AS j,
                 (4 + ((d.doc_id*73 + r.j*179 + 11) % ({_N} - 4)))::BIGINT AS t0
          FROM documents d, range(0,6) r(j)
          WHERE r.j < 2 + (d.doc_id % 4)
        ),
        ilinks_raw AS (
          SELECT src, j,
                 CASE WHEN (src + j) % 3 = 0 THEN
                   CASE WHEN t0 - (t0 % 16) + 1 < 4 THEN t0 - (t0 % 16) + 17
                        WHEN t0 - (t0 % 16) + 1 >= {_N} THEN t0 - (t0 % 16) - 15
                        ELSE t0 - (t0 % 16) + 1 END
                 ELSE t0 END AS dst
          FROM links_pos
        ),
        ilinks AS (SELECT src, dst, min(j) AS j FROM ilinks_raw GROUP BY src, dst),
        ctx AS (
          SELECT doc_id AS src,
                 list_filter(regexp_split_to_array(substr(text, 1, 80), '\\s+'), x -> x != '') AS descw
          FROM documents
        ),
        doc_tokens AS (
          SELECT i.src, i.dst, u.tok
          FROM ilinks i JOIN documents t ON t.doc_id = i.dst,
          UNNEST(list_concat(list_concat(
            ['document', CAST(i.dst AS VARCHAR), '—', 'site-' || CAST(i.dst % 16 AS VARCHAR)],
            list_filter(regexp_split_to_array(substr(t.text, 1, 80), '\\s+'), x -> x != '')),
            ['doc,page,' || t.lang, 'document', CAST(i.dst AS VARCHAR), 'site-' || CAST(i.dst % 16 AS VARCHAR)]
          )) AS u(tok)
        ),
        doc_stats AS (
          SELECT src, dst, count(*) AS dl,
                 count(*) FILTER (WHERE tok = 'scan') AS tf
          FROM doc_tokens GROUP BY src, dst
        ),
        page_stats AS (
          SELECT src, count(*) AS n, sum(dl)::DOUBLE / count(*) AS avgdl,
                 count(*) FILTER (WHERE tf > 0) AS df
          FROM doc_stats GROUP BY src
        ),
        vocab_idf AS (
          SELECT v.src, avg(ln(p.n - v.df_w + 0.5) - ln(v.df_w + 0.5)) AS aidf
          FROM (SELECT src, tok, count(DISTINCT dst) AS df_w FROM doc_tokens GROUP BY src, tok) v
          JOIN page_stats p ON p.src = v.src
          GROUP BY v.src
        ),
        idf AS (
          SELECT p.src, p.n, p.avgdl,
            CASE WHEN p.df = 0 THEN 0.0
                 WHEN (ln(p.n - p.df + 0.5) - ln(p.df + 0.5)) < 0 THEN 0.25 * a.aidf
                 ELSE ln(p.n - p.df + 0.5) - ln(p.df + 0.5) END AS idf_q
          FROM page_stats p JOIN vocab_idf a ON a.src = p.src
        ),
        raw_scores AS (
          SELECT d.src, d.dst,
            i.idf_q * ((d.tf * 2.5) / (d.tf + 1.5 * (0.25 + (0.75 * d.dl) / i.avgdl))) AS raw
          FROM doc_stats d JOIN idf i ON i.src = d.src
        ),
        contextual AS (
          SELECT src, dst,
            CASE WHEN max(raw) OVER (PARTITION BY src) = min(raw) OVER (PARTITION BY src)
                 THEN 0.5
                 ELSE (raw - min(raw) OVER (PARTITION BY src))
                      / (max(raw) OVER (PARTITION BY src) - min(raw) OVER (PARTITION BY src)) END AS ctx_score
          FROM raw_scores
        ),
        internal_rows AS (
          SELECT i.src,
                 'https://site-' || CAST(i.dst % 16 AS VARCHAR) || '.example.com/page/' || CAST(i.dst AS VARCHAR) AS href,
                 4.0 + ((1 + CASE WHEN list_contains(c.descw, 'page') THEN 1 ELSE 0 END
                           + CASE WHEN i.dst = i.src AND i.src >= 100 THEN 1 ELSE 0 END)::DOUBLE
                        / LEAST(2 + CASE WHEN i.dst >= 100 THEN 1 ELSE 0 END, 10)::DOUBLE) * 2.0 AS intrinsic,
                 x.ctx_score
          FROM ilinks i
          JOIN ctx c ON c.src = i.src
          JOIN contextual x ON x.src = i.src AND x.dst = i.dst
        ),
        external_rows AS (
          SELECT d.doc_id AS src, e.href, e.base +
                 CASE WHEN e.overlap > 0 THEN (e.overlap::DOUBLE / LEAST(e.lw, 10)::DOUBLE) * 2.0 ELSE 0.0 END AS intrinsic,
                 NULL::DOUBLE AS ctx_score
          FROM documents d JOIN ctx c ON c.src = d.doc_id, LATERAL (
            SELECT * FROM (VALUES
              ('javascript:void(0)',
                 CASE WHEN list_contains(c.descw, 'menu') THEN 1 ELSE 0 END, 1, 2.0),
              ('mailto:info@example.com',
                 CASE WHEN list_contains(c.descw, 'contact') THEN 1 ELSE 0 END, 1, 2.0),
              ('https://cdn-' || CAST(d.doc_id % 3 AS VARCHAR) || '.external.org/asset/' || CAST(d.doc_id AS VARCHAR),
                 CASE WHEN list_contains(c.descw, 'external') THEN 1 ELSE 0 END
                 + CASE WHEN list_contains(c.descw, 'asset') THEN 1 ELSE 0 END
                 + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END,
                 2 + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END, 3.0)
            ) v(href, overlap, lw, base)
            UNION ALL
            SELECT 'https://news.bbc.co.uk/story/' || CAST(d.doc_id AS VARCHAR),
                   CASE WHEN list_contains(c.descw, 'story') THEN 1 ELSE 0 END
                   + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END,
                   1 + CASE WHEN d.doc_id >= 100 THEN 1 ELSE 0 END, 3.0
            WHERE d.doc_id % 37 = 12
          ) e
        )
        SELECT
          'https://site-' || CAST(src % 16 AS VARCHAR) || '.example.com/page/' || CAST(src AS VARCHAR) AS page_url,
          href,
          ctx_score AS contextual_score,
          CASE WHEN ctx_score IS NULL THEN GREATEST(0.0, LEAST(intrinsic, 10.0))
               ELSE GREATEST(0.0, LEAST((intrinsic * 0.7) + (LEAST(ctx_score * 10.0, 10.0) * 0.3), 10.0)) END AS total_score
        FROM (SELECT * FROM internal_rows UNION ALL SELECT * FROM external_rows)
        ORDER BY page_url, href
    """,
    "host_page_counts": """
        SELECT 'site-' || CAST(doc_id % 16 AS VARCHAR) || '.example.com' AS host,
               count(*) AS n_pages
        FROM documents GROUP BY host ORDER BY host
    """,
    "crawl_reachable": f"""
        WITH RECURSIVE {_CRAWL_CTE}
        SELECT 'https://site-' || CAST(r.doc_id % 16 AS VARCHAR) ||
               '.example.com/page/' || CAST(r.doc_id AS VARCHAR) AS url,
               CAST(r.depth AS BIGINT) AS depth,
               ((r.doc_id % 16) % 7) != 5 AS success
        FROM reached r ORDER BY url
    """,
    "bm25_scores": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        corpus AS (
          SELECT count(*)::DOUBLE AS n,
                 sum(length(w))::DOUBLE / count(*) AS avgdl
          FROM toks
        ),
        words AS (SELECT doc_id, unnest(w) AS word FROM toks),
        dfreq AS (
          SELECT word, count(DISTINCT doc_id)::DOUBLE AS dfc
          FROM words GROUP BY word
        ),
        avgidf AS (
          SELECT avg(ln((SELECT n FROM corpus) - dfc + 0.5) - ln(dfc + 0.5)) AS aidf
          FROM dfreq
        ),
        qterms(word) AS (VALUES ('fast'), ('scan'), ('a'), ('dup'), ('zzz')),
        qidf AS (
          SELECT d.word,
                 CASE WHEN ln((SELECT n FROM corpus) - d.dfc + 0.5) - ln(d.dfc + 0.5) < 0
                      THEN 0.25 * (SELECT aidf FROM avgidf)
                      ELSE ln((SELECT n FROM corpus) - d.dfc + 0.5) - ln(d.dfc + 0.5)
                 END AS idf
          FROM dfreq d JOIN qterms USING (word)
        ),
        tf AS (
          SELECT w.doc_id, w.word, count(*)::DOUBLE AS tf
          FROM words w JOIN qterms USING (word)
          GROUP BY w.doc_id, w.word
        ),
        dls AS (SELECT doc_id, length(w)::DOUBLE AS dl FROM toks)
        SELECT d.doc_id,
               coalesce(sum(q.idf * (t.tf * 2.5)
                            / (t.tf + 1.5 * (0.25 + 0.75 * d.dl / (SELECT avgdl FROM corpus)))),
                        0.0) AS score
        FROM dls d
        LEFT JOIN tf t ON t.doc_id = d.doc_id
        LEFT JOIN qidf q ON q.word = t.word
        GROUP BY d.doc_id
        ORDER BY d.doc_id
    """,
    "lm_perplexity": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        words AS (SELECT doc_id, unnest(w) AS word FROM toks),
        counts AS (SELECT word, count(*)::DOUBLE AS c FROM words GROUP BY word),
        tot AS (SELECT sum(c) AS t, count(*)::DOUBLE AS v FROM counts),
        dnm AS (SELECT t + 0.5 * (v + 1) AS d FROM tot),
        head AS (SELECT word, c FROM counts ORDER BY c DESC, word ASC LIMIT 16),
        lp AS (SELECT word, ln((c + 0.5) / (SELECT d FROM dnm)) AS logp FROM head),
        oov AS (SELECT ln(0.5 / (SELECT d FROM dnm)) AS lo),
        persum AS (
          SELECT w.doc_id, sum(coalesce(l.logp, (SELECT lo FROM oov))) AS s
          FROM words w LEFT JOIN lp l USING (word)
          GROUP BY w.doc_id
        ),
        dls AS (SELECT doc_id, length(w)::BIGINT AS n FROM toks)
        SELECT d.doc_id,
               d.n AS n_tokens,
               coalesce(p.s, 0.0) AS logprob_sum,
               CASE WHEN d.n > 0 THEN exp(-p.s / d.n) ELSE 0.0 END AS ppl
        FROM dls d LEFT JOIN persum p USING (doc_id)
        ORDER BY d.doc_id
    """,
    # ccnet_buckets: the full lm_perplexity chain (above) + per-lang
    # rank terciles. Ranks order by (round(ppl, 6), doc_id) — mirrored
    # on the Ray side (pipelines/ccnet.py) so sub-ulp ln/exp
    # differences between numpy and DuckDB cannot flip a boundary.
    "ccnet_buckets": """
        WITH toks AS (
          SELECT doc_id, lang,
                 list_filter(regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        words AS (SELECT doc_id, unnest(w) AS word FROM toks),
        counts AS (SELECT word, count(*)::DOUBLE AS c FROM words GROUP BY word),
        tot AS (SELECT sum(c) AS t, count(*)::DOUBLE AS v FROM counts),
        dnm AS (SELECT t + 0.5 * (v + 1) AS d FROM tot),
        head AS (SELECT word, c FROM counts ORDER BY c DESC, word ASC LIMIT 4096),
        lp AS (SELECT word, ln((c + 0.5) / (SELECT d FROM dnm)) AS logp FROM head),
        oov AS (SELECT ln(0.5 / (SELECT d FROM dnm)) AS lo),
        persum AS (
          SELECT w.doc_id, sum(coalesce(l.logp, (SELECT lo FROM oov))) AS s
          FROM words w LEFT JOIN lp l USING (word)
          GROUP BY w.doc_id
        ),
        ppl AS (
          SELECT t.doc_id, t.lang,
                 round(CASE WHEN length(t.w) > 0
                            THEN exp(-p.s / length(t.w)) ELSE 0.0 END, 6) AS ppl
          FROM toks t LEFT JOIN persum p USING (doc_id)
        ),
        r AS (
          SELECT doc_id, lang, ppl,
                 ROW_NUMBER() OVER (PARTITION BY lang ORDER BY ppl, doc_id) AS rn,
                 COUNT(*) OVER (PARTITION BY lang) AS n
          FROM ppl
        )
        SELECT doc_id, lang, ppl,
               CASE WHEN rn <= CAST(ceil(n / 3.0) AS BIGINT) THEN 'head'
                    WHEN rn <= CAST(ceil(2 * n / 3.0) AS BIGINT) THEN 'middle'
                    ELSE 'tail' END AS bucket
        FROM r ORDER BY doc_id
    """,
    "pii_scrub": """
        WITH aug AS (
          SELECT doc_id,
            coalesce(text, '')
            || CASE WHEN doc_id % 3 = 0 THEN ' reach user' || doc_id || '@mail-'
                    || (doc_id % 7) || '.example.org' ELSE '' END
            || CASE WHEN doc_id % 4 = 1 THEN ' call +1 (555) 01' || (doc_id % 10)
                    || '-23' || (doc_id % 10) || '4' ELSE '' END
            || CASE WHEN doc_id % 5 = 2 THEN ' from 10.' || (doc_id % 250)
                    || '.0.' || (doc_id % 100) ELSE '' END
            || CASE WHEN doc_id % 6 = 3 THEN ' id 0000000' || lower(to_hex(doc_id % 16))
                    || '-0000-4000-8000-00000000000' || lower(to_hex(doc_id % 16)) ELSE '' END
            || CASE WHEN doc_id % 7 = 4 THEN ' card 4'
                    || lpad(CAST(doc_id % 1000 AS VARCHAR), 3, '0')
                    || '111111111' ELSE '' END AS t
          FROM documents
        ),
        s1 AS (
          SELECT doc_id,
                 len(regexp_extract_all(t, '[\\w.+-]+@[\\w-]+\\.[\\w.-]+', 0, 'i'))::BIGINT AS n_email,
                 regexp_replace(t, '[\\w.+-]+@[\\w-]+\\.[\\w.-]+', '[EMAIL]', 'gi') AS t
          FROM aug
        ),
        s2 AS (
          SELECT doc_id, n_email,
                 len(regexp_extract_all(t, '\\b(?:4\\d{12}(?:\\d{3})?|5[1-5]\\d{14}|3[47]\\d{13}|6(?:011|5\\d{2})\\d{12})\\b', 0, 'i'))::BIGINT AS n_credit_card,
                 regexp_replace(t, '\\b(?:4\\d{12}(?:\\d{3})?|5[1-5]\\d{14}|3[47]\\d{13}|6(?:011|5\\d{2})\\d{12})\\b', '[CREDIT_CARD]', 'gi') AS t
          FROM s1
        ),
        s3 AS (
          SELECT doc_id, n_email, n_credit_card,
                 len(regexp_extract_all(t, '(?:\\d{1,3}\\.){3}\\d{1,3}', 0, 'i'))::BIGINT AS n_ipv4,
                 regexp_replace(t, '(?:\\d{1,3}\\.){3}\\d{1,3}', '[IPV4]', 'gi') AS t
          FROM s2
        ),
        s4 AS (
          SELECT doc_id, n_email, n_credit_card, n_ipv4,
                 len(regexp_extract_all(t, '[0-9a-f]{8}-[0-9a-f]{4}-[1-5][0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}', 0, 'i'))::BIGINT AS n_uuid,
                 regexp_replace(t, '[0-9a-f]{8}-[0-9a-f]{4}-[1-5][0-9a-f]{3}-[89ab][0-9a-f]{3}-[0-9a-f]{12}', '[UUID]', 'gi') AS t
          FROM s3
        ),
        s5 AS (
          SELECT doc_id, n_email, n_credit_card, n_ipv4, n_uuid,
                 len(regexp_extract_all(t, '\\+?\\d[\\d .()-]{7,}\\d', 0, 'i'))::BIGINT AS n_phone_intl,
                 regexp_replace(t, '\\+?\\d[\\d .()-]{7,}\\d', '[PHONE_INTL]', 'gi') AS t
          FROM s4
        )
        SELECT doc_id, n_email, n_credit_card, n_ipv4, n_uuid, n_phone_intl,
               length(t)::BIGINT AS scrubbed_len,
               right(t, 48) AS scrubbed_tail
        FROM s5 ORDER BY doc_id
    """,
    "collocations": """
        WITH toks AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        words AS (SELECT unnest(w) AS word FROM toks),
        uni AS (SELECT word, count(*)::DOUBLE AS c FROM words GROUP BY word),
        tot AS (SELECT sum(c) AS t FROM uni),
        pairs AS (
          SELECT u.p[1] AS w1, u.p[2] AS w2
          FROM (SELECT unnest(list_zip(w, w[2:])) AS p FROM toks) u
          WHERE u.p[2] IS NOT NULL
        ),
        btot AS (SELECT count(*)::DOUBLE AS b FROM pairs),
        big AS (
          SELECT w1, w2, count(*)::BIGINT AS pair_count
          FROM pairs GROUP BY w1, w2 HAVING count(*) >= 2
        )
        SELECT g.w1, g.w2, g.pair_count,
               ln(g.pair_count) - ln((SELECT b FROM btot))
               + 2 * ln((SELECT t FROM tot)) - ln(u1.c) - ln(u2.c) AS pmi
        FROM big g
        JOIN uni u1 ON u1.word = g.w1
        JOIN uni u2 ON u2.word = g.w2
        ORDER BY g.w1, g.w2
    """,
    "dsir_weights": """
        WITH toks AS (
          SELECT doc_id, lang,
                 list_filter(regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                             x -> x <> '') AS w
          FROM documents
        ),
        feats AS (
          SELECT doc_id, lang, g FROM (
            SELECT doc_id, lang, unnest(w) AS g FROM toks
          )
          UNION ALL
          SELECT doc_id, lang, p[1] || ' ' || p[2] AS g FROM (
            SELECT doc_id, lang, unnest(list_zip(w, w[2:])) AS p FROM toks
          ) WHERE p[2] IS NOT NULL
        ),
        hashed AS (
          SELECT doc_id, lang,
                 CAST(('0x' || substr(md5(g), 1, 16))::UBIGINT % 256 AS BIGINT) AS b
          FROM feats
        ),
        tot AS (
          SELECT count(*)::DOUBLE AS tq,
                 sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::DOUBLE AS tp
          FROM hashed
        ),
        ratio AS (
          SELECT t.b,
                 ln(coalesce(p.c, 0) + 1.0) - ln((SELECT tp FROM tot) + 256.0)
               - ln(coalesce(q.c, 0) + 1.0) + ln((SELECT tq FROM tot) + 256.0) AS lr
          FROM (SELECT range AS b FROM range(0, 256)) t
          LEFT JOIN (SELECT b, count(*)::DOUBLE AS c FROM hashed GROUP BY b) q USING (b)
          LEFT JOIN (SELECT b, count(*)::DOUBLE AS c FROM hashed
                     WHERE lang = 'en' GROUP BY b) p USING (b)
        ),
        scores AS (
          SELECT h.doc_id, count(*)::BIGINT AS n_feats, sum(r.lr) AS lw
          FROM hashed h JOIN ratio r USING (b) GROUP BY h.doc_id
        ),
        alldocs AS (
          SELECT d.doc_id, coalesce(s.n_feats, 0)::BIGINT AS n_feats,
                 round(coalesce(s.lw, 0.0), 6) AS logw
          FROM documents d LEFT JOIN scores s USING (doc_id)
        ),
        ranked AS (
          SELECT doc_id, n_feats, logw,
                 row_number() OVER (ORDER BY logw DESC, doc_id) AS rk
          FROM alldocs
        )
        SELECT doc_id, n_feats, logw,
               CASE WHEN rk <= 100 THEN 1 ELSE 0 END::BIGINT AS selected
        FROM ranked ORDER BY doc_id
    """,
    "mixture_weights": """
        WITH per AS (
          SELECT source, count(*)::BIGINT AS n_docs,
                 sum(len(list_filter(
                       regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                       x -> x <> '')))::BIGINT AS n_tokens
          FROM documents GROUP BY source
        ),
        tot AS (SELECT sum(n_tokens)::DOUBLE AS t FROM per),
        ptot AS (
          SELECT sum(pow(n_tokens / (SELECT t FROM tot), 0.5)) AS pt FROM per
        )
        SELECT source, n_docs, n_tokens,
               round(n_tokens / (SELECT t FROM tot), 6) AS prop,
               round(pow(n_tokens / (SELECT t FROM tot), 0.5)
                     / (SELECT pt FROM ptot), 6) AS weight,
               round(pow(n_tokens / (SELECT t FROM tot), 0.5)
                     / (SELECT pt FROM ptot)
                     / (n_tokens / (SELECT t FROM tot)), 6) AS boost
        FROM per ORDER BY source
    """,
    "shuffle_manifest": """
        WITH k AS (
          SELECT doc_id,
                 ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))::UBIGINT AS h
          FROM documents
        )
        SELECT doc_id, CAST(h % 32 AS BIGINT) AS shard,
               (row_number() OVER (PARTITION BY h % 32 ORDER BY h, doc_id)
                - 1)::BIGINT AS pos
        FROM k ORDER BY doc_id
    """,
    "heavy_hitters": """
        WITH w AS (
          SELECT unnest(list_filter(
                   regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                   x -> x <> '')) AS word
          FROM documents
        )
        SELECT word, count(*)::BIGINT AS count
        FROM w GROUP BY word
        HAVING count(*) > (SELECT count(*) FROM w) / 201.0
        ORDER BY count DESC, word
    """,
    "pack_sequences": """
        WITH t AS (
          SELECT doc_id,
                 len(list_filter(
                   regexp_split_to_array(lower(coalesce(text, '')), '\\s+'),
                   x -> x <> ''))::BIGINT AS nt
          FROM documents
        ),
        c AS (
          SELECT doc_id, nt,
                 coalesce(sum(nt) OVER (ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS off
          FROM t
        )
        SELECT doc_id, nt AS n_tokens, off AS tok_offset,
               (CASE WHEN nt = 0 THEN -1 ELSE off // 128 END)::BIGINT AS first_seq,
               (CASE WHEN nt = 0 THEN -1 ELSE (off + nt - 1) // 128 END)::BIGINT AS last_seq,
               (CASE WHEN nt = 0 THEN 0
                     ELSE (off + nt - 1) // 128 - off // 128 + 1 END)::BIGINT AS n_seqs
        FROM c ORDER BY doc_id
    """,
    "async_crawl": f"""
        WITH RECURSIVE {_CRAWL_CTE_EXH}
        SELECT 'https://site-' || CAST(r.doc_id % 16 AS VARCHAR) ||
               '.example.com/page/' || CAST(r.doc_id AS VARCHAR) AS url
        FROM reached r
        WHERE ((r.doc_id % 16) % 7) != 5
        ORDER BY url
    """,
    "crawl_text": f"""
        WITH RECURSIVE {_CRAWL_CTE}
        SELECT 'https://site-' || CAST(r.doc_id % 16 AS VARCHAR) ||
               '.example.com/page/' || CAST(r.doc_id AS VARCHAR) AS url,
               d.text AS text
        FROM reached r JOIN documents d ON d.doc_id = r.doc_id
        WHERE ((r.doc_id % 16) % 7) != 5
        ORDER BY url
    """,
    "crawl_host_counts": f"""
        WITH RECURSIVE {_CRAWL_CTE}
        SELECT 'site-' || CAST(r.doc_id % 16 AS VARCHAR) || '.example.com' AS host,
               count(*) AS n_crawled
        FROM reached r
        WHERE ((r.doc_id % 16) % 7) != 5
        GROUP BY host ORDER BY host
    """,
    "ssl_certificates": """
        WITH hosts AS (
          SELECT DISTINCT 'site-' || CAST(doc_id % 16 AS VARCHAR) || '.example.com' AS host
          FROM documents
        ),
        c AS (
          SELECT host,
                 'CN=' || host AS ssl_subject,
                 'CN=Synthetic Root CA ' || CAST(length(host) % 4 AS VARCHAR) AS ssl_issuer,
                 '0x' || substr(sha256('serial:' || host), 1, 16) AS ssl_serial_number,
                 '20240101000000Z' AS ssl_not_before,
                 CAST(2025 + length(host) % 3 AS VARCHAR) || '0101000000Z' AS ssl_not_after
          FROM hosts
        )
        SELECT host, ssl_subject, ssl_issuer, ssl_serial_number,
               ssl_not_before, ssl_not_after,
               sha256('SYNTHCERT:v1:' || ssl_subject || ':issuer=' || ssl_issuer
                      || ':serial=' || ssl_serial_number || ':nb=' || ssl_not_before
                      || ':na=' || ssl_not_after
                      || ':alg=sha256WithRSAEncryption') AS ssl_fingerprint
        FROM c ORDER BY host
    """,
    "redirect_fetch": """
        WITH p AS (
          SELECT doc_id, doc_id % 16 AS h, doc_id % 5 AS m FROM documents
        ),
        u AS (
          SELECT doc_id, h, m,
            CASE WHEN m = 1 THEN 'https://site-' || CAST(h AS VARCHAR) || '.example.com/r/' || CAST(doc_id AS VARCHAR)
                 WHEN m = 3 THEN 'https://site-' || CAST(h AS VARCHAR) || '.example.com/rr/' || CAST(doc_id AS VARCHAR)
                 WHEN m = 0 THEN 'https://site-' || CAST((h + 1) % 16 AS VARCHAR) || '.example.com/r/' || CAST(doc_id AS VARCHAR)
                 ELSE 'https://site-' || CAST(h AS VARCHAR) || '.example.com/page/' || CAST(doc_id AS VARCHAR) END AS url
          FROM p
        )
        SELECT url,
               CASE WHEN m IN (1, 3)
                    THEN 'https://site-' || CAST(h AS VARCHAR) || '.example.com/page/' || CAST(doc_id AS VARCHAR)
                    ELSE url END AS redirected_url,
               CAST(CASE WHEN m IN (1, 3) THEN 301 ELSE 0 END AS BIGINT) AS redirected_status_code,
               CAST(CASE WHEN m = 0 THEN 404 ELSE 200 END AS BIGINT) AS status_code,
               (m != 0) AS fetched
        FROM u ORDER BY url
    """,
    "crawl_wave_metrics": f"""
        WITH RECURSIVE {_CRAWL_CTE},
        wave_stats AS (
          SELECT CAST(depth AS BIGINT) AS wave,
                 CAST(count(*) AS BIGINT) AS frontier,
                 CAST(sum(CASE WHEN ((doc_id % 16) % 7) = 5 THEN 1 ELSE 0 END) AS BIGINT) AS denied
          FROM reached GROUP BY depth
        )
        SELECT wave, frontier,
               frontier - denied AS fetched,
               denied,
               frontier - denied AS successes,
               CAST(COALESCE(LEAD(frontier) OVER (ORDER BY wave), 0) AS BIGINT) AS next_frontier,
               TRUE AS timings_ok,
               TRUE AS stall_ok
        FROM wave_stats ORDER BY wave
    """,
    "seen_set": f"""
        WITH RECURSIVE {_CRAWL_CTE}
        SELECT DISTINCT 'https://site-' || CAST(l.dst % 16 AS VARCHAR) ||
               '.example.com/page/' || CAST(l.dst AS VARCHAR) AS url
        FROM reached r JOIN links l ON l.src = r.doc_id
        WHERE r.depth <= {CRAWL_DEPTH} - 1 AND ((r.doc_id % 16) % 7) != 5
        ORDER BY url
    """,
    "train_split": """
        SELECT CASE WHEN b < 80 THEN 'train' WHEN b < 90 THEN 'val' ELSE 'test' END AS split,
               count(*) AS n_docs
        FROM (SELECT (doc_id * 2654435761 + 97) % 100 AS b FROM documents)
        GROUP BY split ORDER BY split
    """,
    "docs_by_lang": """
        SELECT lang, count(*) AS n_docs FROM documents
        GROUP BY lang ORDER BY lang
    """,
    "top_docs_by_chars": """
        SELECT doc_id, n_chars FROM documents
        ORDER BY n_chars DESC, doc_id ASC LIMIT 20
    """,
    "tpch_q1": """
        SELECT l_returnflag, l_linestatus,
               round(sum(l_quantity), 4) AS sum_qty,
               round(sum(l_extendedprice), 4) AS sum_base_price,
               round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
               round(avg(l_quantity), 4) AS avg_qty,
               count(*) AS count_order
        FROM lineitem
        WHERE l_shipdate <= DATE '1998-09-02'
        GROUP BY l_returnflag, l_linestatus
        ORDER BY l_returnflag, l_linestatus
    """,
    "brand_revenue": """
        SELECT p_brand, round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
        FROM lineitem JOIN part ON l_partkey = p_partkey
        GROUP BY p_brand ORDER BY p_brand
    """,
    "segment_totals": """
        SELECT c_mktsegment, round(sum(o_totalprice), 4) AS total_price
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment ORDER BY c_mktsegment
    """,
    "asof_orders": """
        WITH m AS (
          SELECT e.user_id, e.ts, max(o.o_orderdate) AS d
          FROM events e LEFT JOIN orders o
            ON o.o_custkey = e.user_id AND o.o_orderdate < e.ts
          GROUP BY 1, 2
        ),
        pick AS (
          SELECT m.user_id, m.ts, max(o.o_totalprice) AS price
          FROM m LEFT JOIN orders o
            ON o.o_custkey = m.user_id AND o.o_orderdate = m.d
          GROUP BY 1, 2
        )
        SELECT user_id,
               CAST(count(price) AS BIGINT) AS n_matched,
               round(coalesce(max(price), 0.0), 4) AS max_matched_price
        FROM pick GROUP BY user_id ORDER BY user_id
    """,
    "topk_per_group": """
        SELECT c_mktsegment, o_orderkey, round(o_totalprice, 4) AS o_totalprice
        FROM (
          SELECT c.c_mktsegment, o.o_orderkey, o.o_totalprice,
                 row_number() OVER (PARTITION BY c.c_mktsegment
                   ORDER BY o.o_totalprice DESC, o.o_orderkey DESC) AS rn
          FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        )
        WHERE rn <= 3
        ORDER BY c_mktsegment, o_totalprice DESC, o_orderkey DESC
    """,
    "median_event_value": """
        SELECT event_type, round(median(value), 6) AS median_value
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "window_agg": """
        SELECT date_trunc('hour', ts) AS window_start,
               event_type,
               count(*) AS n_events,
               round(sum(value), 6) AS sum_value
        FROM events
        GROUP BY 1, 2
        ORDER BY 1, 2
    """,
    "hopping_window": """
        -- 2h window / 30min hop: every event expands to exactly
        -- k = 4 windows with starts floor(ts/30min)*30min - i*30min
        WITH expanded AS (
          SELECT make_timestamp(((epoch_us(e.ts) // 1800000000) - r.i) * 1800000000)
                   AS window_start,
                 e.event_type, e.value
          FROM events e, range(0, 4) r(i)
        )
        SELECT window_start, event_type,
               count(*) AS n_events,
               round(sum(value), 6) AS sum_value
        FROM expanded
        GROUP BY 1, 2
        ORDER BY 1, 2
    """,
    "range_join_orders": """
        SELECT a.o_orderkey,
               CAST(count(b.o_orderkey) AS BIGINT) AS n_follow,
               round(coalesce(sum(b.o_totalprice), 0.0), 4) AS sum_follow_price
        FROM orders a LEFT JOIN orders b
          ON b.o_orderdate > a.o_orderdate
         AND b.o_orderdate <= a.o_orderdate + INTERVAL 7 DAY
        GROUP BY 1
        ORDER BY 1
    """,
    "sessionize": """
        WITH gaps AS (
          SELECT user_id, ts,
                 CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                           > INTERVAL 30 MINUTE OR
                      lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                      THEN 1 ELSE 0 END AS new_session
          FROM events
        ),
        sess AS (
          SELECT user_id, ts,
                 sum(new_session) OVER (PARTITION BY user_id ORDER BY ts
                   ROWS UNBOUNDED PRECEDING) AS session_id
          FROM gaps
        ),
        per_session AS (
          SELECT user_id, session_id, count(*) AS n FROM sess GROUP BY 1, 2
        )
        SELECT user_id,
               count(*) AS n_sessions,
               CAST(sum(n) AS BIGINT) AS n_events,
               CAST(max(n) AS BIGINT) AS max_session_events
        FROM per_session
        GROUP BY user_id
        ORDER BY user_id
    """,
    "events_by_type": """
        SELECT event_type,
               count(*) AS n_events,
               sum(value) AS sum_value,
               avg(value) AS avg_value
        FROM events GROUP BY event_type ORDER BY event_type
    """,
    "dedup_exact": """
        SELECT min(doc_id) AS keep_doc_id FROM documents
        GROUP BY text ORDER BY keep_doc_id
    """,
    "token_counts": """
        SELECT doc_id,
               length(list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                                  x -> x <> '')) AS n_tokens
        FROM documents ORDER BY doc_id
    """,
    "ann_cosine_topk": """
        SELECT vec_id FROM embeddings
        ORDER BY list_cosine_similarity(embedding,
            (SELECT embedding FROM embeddings WHERE vec_id = 0)) DESC,
            vec_id ASC
        LIMIT 10
    """,
    # batch-of-queries exact ANN: cross join restricted to the fixed
    # query-id set, per-query top-10 by cosine (ties -> smaller vec_id)
    "ann_multi_topk": """
        SELECT query_id, vec_id FROM (
            SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
                   row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC,
                                e.vec_id ASC
                   ) AS rk
            FROM embeddings q CROSS JOIN embeddings e
            WHERE q.vec_id IN (0, 3, 6, 9, 12, 15, 18, 21)
        ) WHERE rk <= 10
    """,
}


def _gopher_repetition_sql() -> str:
    """DuckDB twin of quality.gopher_repetition_batch (Rae et al. 2021
    App. A repetition rules). Generated per n: window-list n-grams,
    top-gram char mass (n=2..4, ties -> lexicographically smallest
    gram) and duplicated-gram char COVERAGE (n=5..10: distinct word
    positions inside occurrences beyond the first)."""
    per_n, joins, cols = [], [], []
    for n in range(2, 11):
        per_n.append(f"""
        w{n} AS (
          SELECT doc_id, pos,
                 list(w) OVER (PARTITION BY doc_id ORDER BY pos
                               ROWS BETWEEN CURRENT ROW AND {n - 1} FOLLOWING) AS g
          FROM words_un
          QUALIFY length(g) = {n}
        ),
        o{n} AS (
          SELECT doc_id, pos AS start,
                 array_to_string(g, ' ') AS gram,
                 length(array_to_string(g, '')) AS gchars,
                 row_number() OVER (PARTITION BY doc_id, array_to_string(g, ' ')
                                    ORDER BY pos) AS rn
          FROM w{n}
        )""")
        if n <= 4:
            per_n.append(f"""
        top{n} AS (
          SELECT doc_id, cnt * gchars AS top_chars
          FROM (SELECT doc_id, gram, gchars, count(*) AS cnt,
                       row_number() OVER (PARTITION BY doc_id
                                          ORDER BY count(*) DESC, gram ASC) AS rk
                FROM o{n} GROUP BY doc_id, gram, gchars
                QUALIFY rk = 1)
        )""")
            joins.append(f"LEFT JOIN top{n} ON top{n}.doc_id = d.doc_id")
            cols.append(
                f"coalesce(top{n}.top_chars, 0)::DOUBLE"
                f" / greatest(coalesce(tot.total_chars, 0), 1) AS top_{n}gram_char_frac"
            )
        else:
            per_n.append(f"""
        dup{n} AS (
          SELECT doc_id, sum(len) AS dup_chars FROM (
            SELECT DISTINCT o.doc_id AS doc_id, wu.pos AS pos, length(wu.w) AS len
            FROM o{n} o JOIN words_un wu
              ON wu.doc_id = o.doc_id AND wu.pos BETWEEN o.start AND o.start + {n - 1}
            WHERE o.rn > 1
          ) GROUP BY doc_id
        )""")
            joins.append(f"LEFT JOIN dup{n} ON dup{n}.doc_id = d.doc_id")
            cols.append(
                f"coalesce(dup{n}.dup_chars, 0)::DOUBLE"
                f" / greatest(coalesce(tot.total_chars, 0), 1) AS dup_{n}gram_char_frac"
            )
    from .quality import GOPHER_REP_THRESHOLDS

    ok_expr = " AND ".join(
        f"m.{k} <= {v}" for k, v in GOPHER_REP_THRESHOLDS.items()
    )
    return f"""
        WITH base AS (
          SELECT doc_id,
                 list_filter(regexp_split_to_array(coalesce(text, ''), '\\s+'),
                             x -> x <> '') AS words
          FROM documents
        ),
        words_un AS (
          SELECT doc_id, unnest(words) AS w, unnest(range(1, len(words) + 1)) AS pos
          FROM base
        ),
        tot AS (
          SELECT doc_id, count(*) AS n_words, sum(length(w)) AS total_chars
          FROM words_un GROUP BY doc_id
        ),
        lnu AS (
          SELECT doc_id,
                 regexp_replace(unnest(string_split(coalesce(text, ''), chr(10))),
                                '^[ \\t\\r\\f]+|[ \\t\\r\\f]+$', '', 'g') AS u
          FROM documents
        ),
        pnu AS (
          SELECT doc_id,
                 regexp_replace(unnest(string_split(coalesce(text, ''), chr(10) || chr(10))),
                                '^[ \\t\\r\\f]+|[ \\t\\r\\f]+$', '', 'g') AS u
          FROM documents
        ),
        lr AS (
          SELECT doc_id, length(u) AS chars,
                 row_number() OVER (PARTITION BY doc_id, u ORDER BY u) AS rn
          FROM lnu WHERE u <> ''
        ),
        pr AS (
          SELECT doc_id, length(u) AS chars,
                 row_number() OVER (PARTITION BY doc_id, u ORDER BY u) AS rn
          FROM pnu WHERE u <> ''
        ),
        ls AS (
          SELECT doc_id, count(*) AS n, count(*) FILTER (WHERE rn > 1) AS dups,
                 sum(chars) AS chars,
                 coalesce(sum(chars) FILTER (WHERE rn > 1), 0) AS dup_chars
          FROM lr GROUP BY doc_id
        ),
        ps AS (
          SELECT doc_id, count(*) AS n, count(*) FILTER (WHERE rn > 1) AS dups,
                 sum(chars) AS chars,
                 coalesce(sum(chars) FILTER (WHERE rn > 1), 0) AS dup_chars
          FROM pr GROUP BY doc_id
        ),{",".join(per_n)},
        m AS (
          SELECT d.doc_id,
                 coalesce(ls.dups, 0)::DOUBLE / greatest(coalesce(ls.n, 0), 1) AS dup_line_frac,
                 coalesce(ls.dup_chars, 0)::DOUBLE / greatest(coalesce(ls.chars, 0), 1) AS dup_line_char_frac,
                 coalesce(ps.dups, 0)::DOUBLE / greatest(coalesce(ps.n, 0), 1) AS dup_para_frac,
                 coalesce(ps.dup_chars, 0)::DOUBLE / greatest(coalesce(ps.chars, 0), 1) AS dup_para_char_frac,
                 {",".join(cols)}
          FROM documents d
          LEFT JOIN tot ON tot.doc_id = d.doc_id
          LEFT JOIN ls ON ls.doc_id = d.doc_id
          LEFT JOIN ps ON ps.doc_id = d.doc_id
          {" ".join(joins)}
        )
        SELECT m.*, ({ok_expr}) AS repetition_ok
        FROM m ORDER BY doc_id
    """


ORACLES["gopher_repetition"] = _gopher_repetition_sql()

# end-to-end curation: compose the gopher_quality + gopher_repetition
# oracles as subqueries (DuckDB allows WITH inside a parenthesized
# FROM) plus the C4 page-drop flags, folded per language
ORACLES["curation_summary"] = f"""
    SELECT lang,
           CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(CASE WHEN gopher_pass THEN 1 ELSE 0 END) AS BIGINT) AS n_gopher,
           CAST(sum(CASE WHEN repetition_ok THEN 1 ELSE 0 END) AS BIGINT) AS n_rep_ok,
           CAST(sum(CASE WHEN c4_ok THEN 1 ELSE 0 END) AS BIGINT) AS n_c4_ok,
           CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_keep,
           CAST(sum(CASE WHEN keep THEN n_words ELSE 0 END) AS BIGINT) AS kept_words
    FROM (
      SELECT d.lang, g.n_words, g.gopher_pass, r.repetition_ok,
             (NOT contains(lower(coalesce(d.text, '')), 'lorem ipsum')
              AND NOT contains(coalesce(d.text, ''), '{{')) AS c4_ok,
             (g.gopher_pass AND r.repetition_ok
              AND NOT contains(lower(coalesce(d.text, '')), 'lorem ipsum')
              AND NOT contains(coalesce(d.text, ''), '{{')) AS keep
      FROM documents d
      JOIN ({ORACLES["gopher_quality"]}) g ON g.doc_id = d.doc_id
      JOIN ({ORACLES["gopher_repetition"]}) r ON r.doc_id = d.doc_id
    )
    GROUP BY lang ORDER BY lang
"""

# curation_manifest: the full quality -> dedup -> packing chain in
# one statement — gopher_quality + gopher_repetition oracles compose
# as subqueries, keeper election is a window MIN over exact text
# among quality survivors (the Ray side elects by 64-bit text hash,
# the documented dedup_exact precedent), offsets are a window cumsum
# over kept word counts in doc_id order.
ORACLES["curation_manifest"] = f"""
    WITH cb AS (
      SELECT d.doc_id, g.n_words, d.text,
             (g.gopher_pass AND r.repetition_ok
              AND NOT contains(lower(coalesce(d.text, '')), 'lorem ipsum')
              AND NOT contains(coalesce(d.text, ''), '{{')) AS keep_quality
      FROM documents d
      JOIN ({ORACLES["gopher_quality"]}) g ON g.doc_id = d.doc_id
      JOIN ({ORACLES["gopher_repetition"]}) r ON r.doc_id = d.doc_id
    ),
    kp AS (
      SELECT doc_id,
             (doc_id = min(doc_id) OVER (PARTITION BY text)) AS is_keeper
      FROM cb WHERE keep_quality
    ),
    f AS (
      SELECT cb.doc_id, cb.n_words,
             (cb.keep_quality AND coalesce(kp.is_keeper, FALSE)) AS keep
      FROM cb LEFT JOIN kp ON kp.doc_id = cb.doc_id
    ),
    o AS (
      SELECT doc_id, n_words, keep,
             coalesce(sum(CASE WHEN keep THEN n_words ELSE 0 END) OVER
               (ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)::BIGINT AS off
      FROM f
    )
    SELECT doc_id, n_words::BIGINT AS n_words,
           (CASE WHEN keep THEN 1 ELSE 0 END)::BIGINT AS keep,
           (CASE WHEN keep THEN off ELSE -1 END)::BIGINT AS tok_offset,
           (CASE WHEN keep THEN off // 128 ELSE -1 END)::BIGINT AS first_seq,
           (CASE WHEN keep THEN (off + n_words - 1) // 128 ELSE -1 END)::BIGINT AS last_seq
    FROM o ORDER BY doc_id
"""

# media_decode_dims: the synthetic media generators derive every
# dimension from media_id by closed formula (stages/multimodal.py
# synth_media_table_dims / synth_audio_table_dims); the Ray side
# DECODES the actual payload bytes (pngmini read_png, stdlib wave),
# so this oracle value-checks the real codecs' roundtrip.
ORACLES["media_decode_dims"] = """
    SELECT 'image' AS kind, CAST(i AS BIGINT) AS media_id,
           CAST(16 + (i % 7) * 4 AS BIGINT) AS dim_a,
           CAST(16 + (i % 5) * 4 AS BIGINT) AS dim_b
    FROM range(64) t(i)
    UNION ALL
    SELECT 'audio', CAST(i AS BIGINT),
           CAST(1024 + (i % 8) * 256 AS BIGINT),
           CAST(8000 + (i % 4) * 4000 AS BIGINT)
    FROM range(32) t(i)
    ORDER BY kind, media_id
"""


# video_decode_dims: same closed-form pattern as media_decode_dims —
# synth_video_table_dims derives every geometry number from media_id
# (stages/multimodal.py); the Ray side demuxes the actual Y4M payload
# bytes (functions/y4mmini.py read_y4m), so this value-checks the real
# video container codec's roundtrip.
ORACLES["video_decode_dims"] = """
    SELECT CAST(i AS BIGINT) AS media_id,
           CAST(16 + (i % 5) * 8 AS BIGINT) AS width,
           CAST(16 + (i % 3) * 8 AS BIGINT) AS height,
           CAST(6 + (i % 4) * 3 AS BIGINT) AS n_frames,
           CAST(24 + (i % 2) * 6 AS BIGINT) AS fps_num
    FROM range(24) t(i)
    ORDER BY media_id
"""


ORACLES["inlink_stats"] = f"""
    WITH {_LINKS_CTE},
    edges AS (SELECT DISTINCT src, dst FROM links)
    SELECT 'https://site-' || CAST(dst % 16 AS VARCHAR) || '.example.com/page/' || CAST(dst AS VARCHAR) AS url,
           CAST(count(*) AS BIGINT) AS n_inlinks,
           CAST(count(DISTINCT src % 16) AS BIGINT) AS n_src_hosts,
           'Related page ' || CAST(dst AS VARCHAR) AS anchor
    FROM edges GROUP BY dst ORDER BY 1
"""


def _pagerank_sql(iters: int = 5, damping: float = 0.85) -> str:
    """Chained non-recursive CTEs: rank_{k+1} from rank_k over the
    DISTINCT internal-edge set of the synthetic link rule — every rank
    value after `iters` synchronous iterations, to 6 decimals."""
    ctes = [
        _LINKS_CTE,
        "edges AS (SELECT DISTINCT src, dst FROM links)",
        "outdeg AS (SELECT src, count(*) AS d FROM edges GROUP BY src)",
        f"r0 AS (SELECT doc_id, 1.0 / {_N} AS pr FROM documents)",
    ]
    for k in range(iters):
        ctes.append(
            f"""r{k + 1} AS (
          SELECT p.doc_id,
                 (1.0 - {damping}) / {_N} + {damping} * coalesce(c.contrib, 0.0) AS pr
          FROM documents p LEFT JOIN (
            SELECT e.dst AS doc_id, sum(r.pr / o.d) AS contrib
            FROM edges e
            JOIN r{k} r ON r.doc_id = e.src
            JOIN outdeg o ON o.src = e.src
            GROUP BY e.dst
          ) c ON c.doc_id = p.doc_id
        )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT {_URL} AS url, round(pr, 6) AS pr FROM r{iters} ORDER BY 1"
    )


ORACLES["pagerank"] = _pagerank_sql(iters=3)


def _host_pagerank_sql(iters: int = 3, damping: float = 0.85) -> str:
    """Chained CTEs mirroring pipelines/pagerank.py ``host_pagerank``:
    hosts = distinct doc_id % 16; edges = DISTINCT cross-host pairs of
    the links rule (self-loops removed); same no-dangling formula."""
    ctes = [
        _LINKS_CTE,
        "hosts AS (SELECT DISTINCT doc_id % 16 AS h FROM documents)",
        "hn AS (SELECT count(*) AS n FROM hosts)",
        "hedges AS (SELECT DISTINCT src % 16 AS hs, dst % 16 AS hd"
        " FROM links WHERE src % 16 != dst % 16)",
        "houtdeg AS (SELECT hs, count(*) AS d FROM hedges GROUP BY hs)",
        "p0 AS (SELECT h, 1.0 / (SELECT n FROM hn) AS pr FROM hosts)",
    ]
    for k in range(iters):
        ctes.append(
            f"""p{k + 1} AS (
          SELECT hosts.h,
                 (1.0 - {damping}) / (SELECT n FROM hn)
                   + {damping} * coalesce(c.contrib, 0.0) AS pr
          FROM hosts LEFT JOIN (
            SELECT e.hd AS h, sum(r.pr / o.d) AS contrib
            FROM hedges e
            JOIN p{k} r ON r.h = e.hs
            JOIN houtdeg o ON o.hs = e.hs
            GROUP BY e.hd
          ) c ON c.h = hosts.h
        )"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
        SELECT 'site-' || CAST(h AS VARCHAR) || '.example.com' AS host,
               round(pr, 6) AS pr
        FROM p{iters} ORDER BY host"""
    )


ORACLES["host_pagerank"] = _host_pagerank_sql(iters=3)


def _hits_sql(iters: int = 5) -> str:
    """Chained non-recursive CTEs mirroring pipelines/pagerank.py
    ``hits``: a_{k+1} = normalize(E^T h_k), h_{k+1} = normalize(E
    a_{k+1}) with L2 norms, init a = h = 1, over the same DISTINCT
    internal-edge set."""
    ctes = [
        _LINKS_CTE,
        "edges AS (SELECT DISTINCT src, dst FROM links)",
        "h0 AS (SELECT doc_id, 1.0 AS v FROM documents)",
    ]
    for k in range(iters):
        ctes.append(
            f"""ar{k + 1} AS (
          SELECT p.doc_id, coalesce(c.s, 0.0) AS v
          FROM documents p LEFT JOIN (
            SELECT e.dst AS doc_id, sum(h.v) AS s
            FROM edges e JOIN h{k} h ON h.doc_id = e.src GROUP BY e.dst
          ) c ON c.doc_id = p.doc_id
        )"""
        )
        ctes.append(
            f"a{k + 1} AS (SELECT doc_id, v / sqrt((SELECT sum(v * v) FROM ar{k + 1})) AS v FROM ar{k + 1})"
        )
        ctes.append(
            f"""hr{k + 1} AS (
          SELECT p.doc_id, coalesce(c.s, 0.0) AS v
          FROM documents p LEFT JOIN (
            SELECT e.src AS doc_id, sum(a.v) AS s
            FROM edges e JOIN a{k + 1} a ON a.doc_id = e.dst GROUP BY e.src
          ) c ON c.doc_id = p.doc_id
        )"""
        )
        ctes.append(
            f"h{k + 1} AS (SELECT doc_id, v / sqrt((SELECT sum(v * v) FROM hr{k + 1})) AS v FROM hr{k + 1})"
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"""
    SELECT {_URL} AS url,
           round(a.v, 6) AS authority,
           round(h.v, 6) AS hub
    FROM a{iters} a JOIN h{iters} h USING (doc_id) ORDER BY 1"""
    )


ORACLES["hits"] = _hits_sql(iters=3)

# Distributed-selection operators (pipelines/selection.py).
# quantiles: DuckDB quantile_disc has exactly the rank rule the Ray
# operator implements (1-indexed max(1, ceil(q*N)); pinned by the
# q=0.51/n=4 probe in tests/test_selection.py), so the iterative
# threshold-count narrowing is value-checked end to end.
ORACLES["quantiles"] = " UNION ALL ".join(
    f"SELECT {q} AS q, quantile_disc(value, {q}) AS value FROM events"
    for q in (0.25, 0.5, 0.75, 0.9375, 0.984375)
) + " ORDER BY q"

# uniform_sample: the md5 rank key replays bit-identically in SQL
# (same digest rule as stratified_sample), so the partial-top-k merge
# must reproduce ORDER BY draw LIMIT k exactly.
ORACLES["uniform_sample"] = """
    SELECT doc_id, lang FROM (
      SELECT doc_id, lang FROM (
        SELECT doc_id, lang,
               ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 15))::UBIGINT AS draw
        FROM documents
      ) ORDER BY draw, doc_id LIMIT 100
    ) ORDER BY doc_id
"""

# Crawl snapshot diff (pipelines/snapshot.py): both snapshot rules
# and the md5 fingerprints replay exactly in SQL; the Ray side must
# reproduce the FULL OUTER JOIN classification from real digests.
ORACLES["snapshot_diff"] = """
    SELECT doc_id, status FROM (
      WITH a AS (
        SELECT doc_id, md5(coalesce(text, '')) AS h
        FROM documents WHERE doc_id % 10 <> 0
      ),
      b AS (
        SELECT doc_id,
               CASE WHEN doc_id % 5 = 0
                    THEN md5(coalesce(text, '') || ' v2')
                    ELSE md5(coalesce(text, '')) END AS h
        FROM documents WHERE doc_id % 7 <> 0
      )
      SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
             CASE WHEN a.doc_id IS NULL THEN 'added'
                  WHEN b.doc_id IS NULL THEN 'removed'
                  WHEN a.h <> b.h THEN 'changed'
                  ELSE 'unchanged' END AS status
      FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
    ) WHERE status <> 'unchanged' ORDER BY doc_id
"""

# Per-group exact quantiles (pipelines/selection.py grouped_quantiles)
ORACLES["grouped_quantiles"] = """
    SELECT event_type, q, value FROM (
      SELECT event_type, 0.5 AS q, quantile_disc(value, 0.5) AS value
      FROM events GROUP BY event_type
      UNION ALL
      SELECT event_type, 0.9375 AS q, quantile_disc(value, 0.9375) AS value
      FROM events GROUP BY event_type
    ) ORDER BY event_type, q
"""


# recrawl_schedule: the synthetic snapshots change page doc_id during
# interval t iff doc_id % PERIODS[t-1] == 0 (pipelines/recrawl.py), so
# the digest-transition count — which the Ray side derives from REAL
# md5 digests of versioned text — is closed-form in doc_id, and the
# Cho & Garcia-Molina estimator + clamp mirror term-for-term.
from .recrawl import recrawl_schedule_sql as _recrawl_sql

ORACLES["recrawl_schedule"] = _recrawl_sql()


# trap_stats: the corpus url census (canonical /page/p + /r/p + /rr/p
# alias namespaces, sources/corpus.py) and the RE2 template rule are
# replayed verbatim in SQL; shares and trap_score are exact IEEE
# divisions mirrored term-for-term (pipelines/traps.py).
from .traps import TRAP_STATS_SQL as _trap_sql

ORACLES["trap_stats"] = _trap_sql
