"""End-to-end rank-identity: the distributed engine must produce EXACTLY the
oracle's results (doc ids, ranks, scores to 1e-9, matched terms) for the
whole query suite over the t2 corpus — the conformance gate of SURVEY.md §6.
"""

import math

import pytest

from probe_ray.corpus import QUERY_SUITE
from probe_ray.oracle import oracle_search
from probe_ray.search import Engine


def _engine_rows(table):
    return [
        (
            r["doc_id"],
            r["rank"],
            r["score"],
            r["bm25_score"],
            tuple(r["matched_terms"]),
        )
        for r in table.to_pylist()
    ]


def _oracle_rows(hits):
    return [
        (h.doc_id, h.rank, h.score, h.bm25_score, tuple(h.matched_terms))
        for h in hits
    ]


@pytest.mark.parametrize("qid,queries,opts", QUERY_SUITE, ids=[q[0] for q in QUERY_SUITE])
def test_rank_identity(qid, queries, opts, t2_rows, t2_index):
    expected = _oracle_rows(oracle_search(t2_rows, queries, **opts))
    engine = Engine(t2_index)
    got = _engine_rows(engine.search(queries, **opts))
    assert len(got) == len(expected), (
        f"{qid}: engine {len(got)} rows vs oracle {len(expected)}"
    )
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g[0] == e[0], f"{qid} row {i}: doc_id {g[0]} != {e[0]}"
        assert g[1] == e[1], f"{qid} row {i}: rank {g[1]} != {e[1]}"
        assert math.isclose(g[2], e[2], abs_tol=1e-9), f"{qid} row {i}: score"
        assert math.isclose(g[3], e[3], abs_tol=1e-9), f"{qid} row {i}: bm25"
        assert g[4] == e[4], f"{qid} row {i}: matched_terms {g[4]} != {e[4]}"


def test_guard_and_sha256(t1_index):
    """Guard-violating rows are dropped; sha256 invariant recorded for the
    rest (FIXTURES.md §1.1 item 9)."""
    import hashlib

    import pyarrow.parquet as pq

    from probe_ray.corpus import generate_rows

    rows = generate_rows("t1")
    docs = pq.read_table(t1_index.docs_dir, columns=["path", "content_sha256"])
    paths = set(docs.column("path").to_pylist())
    assert "src/nul_file.rs" not in paths
    assert "src/huge_file.rs" not in paths
    assert "src/longline.rs" in paths  # long lines are blanked, not dropped
    sha_by_path = dict(
        zip(docs.column("path").to_pylist(), docs.column("content_sha256").to_pylist())
    )
    for r in rows:
        if r["path"] in sha_by_path and r["repo"] == "org0/repo0":
            expected = hashlib.sha256(r["content"].encode()).hexdigest()
            assert sha_by_path[r["path"]] == expected


def test_determinism_across_runs(t2_rows, t2_index):
    """Two engine runs give identical output (SURVEY.md §6 determinism)."""
    engine = Engine(t2_index)
    a = _engine_rows(engine.search(["keywordAlpha OR keywordBeta"]))
    b = _engine_rows(engine.search(["keywordAlpha OR keywordBeta"]))
    assert a == b


def test_global_mode_self_consistent(t2_index):
    """Global mode: top-k by corpus-global BM25; results are deterministic,
    scores positive, ranks dense."""
    engine = Engine(t2_index)
    t = engine.search(["keywordAlpha"], mode="global", max_results=10)
    rows = t.to_pylist()
    assert rows, "global mode returned nothing"
    assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
    scores = [r["score"] for r in rows]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)


def test_session_dedup(t2_rows, t2_index):
    """Session anti-join: a second identical query returns only docs not
    already returned (cache.rs semantics at document granularity)."""
    engine = Engine(t2_index)
    first = engine.search(["keywordAlpha"], max_results=5, session="s1")
    first_files = {
        f"{r}/{p}"
        for r, p in zip(
            first.column("repo").to_pylist(), first.column("path").to_pylist()
        )
    }
    second = engine.search(["keywordAlpha"], max_results=5, session="s1")
    second_files = {
        f"{r}/{p}"
        for r, p in zip(
            second.column("repo").to_pylist(), second.column("path").to_pylist()
        )
    }
    assert not (first_files & second_files)
    # engine second call == oracle with seen=first_files
    expected = _oracle_rows(
        oracle_search(t2_rows, ["keywordAlpha"], max_results=5, seen=first_files)
    )
    got = _engine_rows(second)
    assert [g[0] for g in got] == [e[0] for e in expected]


def test_session_sha_invalidation(t2_index):
    """cache.rs:197-240 semantics: a seen entry whose recorded content hash
    no longer matches the stored file is invalidated (re-eligible); entries
    with matching hashes stay seen."""
    import json
    import os

    engine = Engine(t2_index)
    first = engine.search(["keywordAlpha"], max_results=5, session="s_inv")
    files = [
        f"{r}/{p}"
        for r, p in zip(
            first.column("repo").to_pylist(), first.column("path").to_pylist()
        )
    ]
    assert files
    key = engine._session_key("s_inv", ["keywordAlpha"])
    p = engine._session_path(key)
    with open(p) as f:
        data = json.load(f)
    assert set(data["seen"]) == set(files)
    assert set(data["sha"]) == set(files)
    # corrupt ONE entry's recorded hash -> that file becomes re-eligible
    victim = files[0]
    data["sha"][victim] = "0" * 64
    with open(p, "w") as f:
        json.dump(data, f)
    assert engine._session_seen(key) == set(files) - {victim}
    # legacy list-format session files still load
    with open(p, "w") as f:
        json.dump(files, f)
    assert engine._session_seen(key) == set(files)
    os.remove(p)


def test_seen_parity(t2_rows, t2_index):
    """Explicit seen-set parity engine vs oracle (affects candidate-set
    statistics, not just output filtering)."""
    engine = Engine(t2_index)
    base = oracle_search(t2_rows, ["keywordAlpha OR keywordBeta"], max_results=3)
    seen = {f"{h.repo}/{h.path}" for h in base}
    expected = _oracle_rows(
        oracle_search(t2_rows, ["keywordAlpha OR keywordBeta"], seen=seen)
    )
    got = _engine_rows(engine.search(["keywordAlpha OR keywordBeta"], seen=seen))
    assert len(got) == len(expected)
    for g, e in zip(got[:50], expected[:50]):
        assert g[0] == e[0] and g[1] == e[1]
        assert math.isclose(g[2], e[2], abs_tol=1e-9)


def test_maxscore_matches_exhaustive(t2_index):
    """MaxScore pruned top-k (block-max bounds) == exhaustive global
    scoring, ids, order and matched terms identical, scores equal to float
    tolerance; both are the same when doc lengths and (repo, path) come
    from parquet predicate reads (LOCAL_DOCS_MAX = 0)."""
    import numpy as np

    engine = Engine(t2_index)
    on_disk = Engine(t2_index)
    on_disk.LOCAL_DOCS_MAX = 0
    for q in ["keywordAlpha keywordBeta", "zetaTerm", "parse JSON html"]:
        pruned = engine.search([q], mode="global", max_results=10).to_pylist()
        full = engine.search([q], mode="global").to_pylist()[:10]
        assert [r["doc_id"] for r in pruned] == [r["doc_id"] for r in full], q
        assert [r["matched_terms"] for r in pruned] == [
            r["matched_terms"] for r in full], q
        assert np.allclose(
            [r["score"] for r in pruned], [r["score"] for r in full],
            rtol=1e-9,
        ), q
        for opts in ({"max_results": 10}, {}):
            assert on_disk.search([q], mode="global", **opts).equals(
                engine.search([q], mode="global", **opts)), q


@pytest.mark.parametrize("query", ["keywordAlpha", "zetaTerm OR whitelist", "auth"])
def test_t1_rank_identity_with_guard_rows(query, t1_index):
    """Rank identity also on the t1 corpus, whose input includes
    guard-violating rows (NUL, >1 MiB, 3000-char lines)."""
    from probe_ray.corpus import generate_rows

    rows = generate_rows("t1")
    expected = _oracle_rows(oracle_search(rows, [query]))
    got = _engine_rows(Engine(t1_index).search([query]))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g[0] == e[0] and g[1] == e[1]
        assert math.isclose(g[2], e[2], abs_tol=1e-9)


def test_ngram_index_closes_cross_boundary_substring_gap(t2_rows, t2_index):
    """'dalpha' only occurs ACROSS the camel split of keywordAlpha — the
    term-dictionary narrowing cannot see it, but the content char-3-gram
    index (t2 is built with ngram_index=True) retrieves it WITHOUT
    exhaustive=True; exhaustive mode still agrees."""
    expected = _oracle_rows(oracle_search(t2_rows, ["dalpha"]))
    assert expected, "oracle should match via substring injection"
    engine = Engine(t2_index)
    assert engine._has_ngrams()
    for kwargs in ({}, {"exhaustive": True}):
        got = _engine_rows(engine.search(["dalpha"], **kwargs))
        assert len(got) == len(expected), kwargs
        for g, e in zip(got, expected):
            assert g[0] == e[0] and g[1] == e[1]
            assert math.isclose(g[2], e[2], abs_tol=1e-9)


def test_dictionary_narrowing_documented_without_ngrams(t1_index):
    """Without the ngram index (t1), cross-boundary substrings remain the
    documented narrowing: default search misses them, exhaustive finds."""
    engine = Engine(t1_index)
    assert not engine._has_ngrams()
