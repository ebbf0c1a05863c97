"""Exercise the DISTRIBUTED query paths (the >LOCAL_DOCS_MAX branches that
a 10^12-doc corpus would take): map_batches verify, distributed filename
scan, candidate fetch — results must still be rank-identical to the
oracle."""

import math

import pytest

from probe_ray.corpus import QUERY_SUITE
from probe_ray.oracle import oracle_search
from probe_ray.search import Engine

_SUBSET = [q for q in QUERY_SUITE if q[0] in (
    "q01_single_term", "q02_or_chain", "q04_exclusion", "q07_complex_exclusion",
    "q09_quoted_exact", "q14_filename_only", "q18_all_stopwords",
    "q19_bm25_gradient", "q22_multi_query_and", "q23_max_results",
    "q24_files_only", "q25_max_bytes", "q26_max_tokens", "q29_allow_tests_off",
    "q10_exact_plus_negative", "q17_filename_autodetect",
)]

# quoted (special) terms with the options that change admission: each row
# a special term touches is re-tokenized inside the one doc verifier
_SPECIAL_OPTION_CASES = [
    ("quoted_files_only", ['"keywordAlpha" keywordBeta'], {"files_only": True}),
    ("quoted_negative_files_only", ['"keywordAlpha" -keywordGamma'],
     {"files_only": True}),
    ("quoted_no_tests", ['"keywordAlpha"'], {"allow_tests": False}),
    ("quoted_or_no_tests", ['"keywordAlpha" OR zetaTerm'], {"allow_tests": False}),
]


def force_distributed(engine: Engine) -> Engine:
    """Send every crossover of ``engine`` to its Ray Data branch."""
    for name in ("LOCAL_DOCS_MAX", "LOCAL_CAND_MAX", "LOCAL_FEATS_MAX"):
        setattr(engine, name, 0)
    return engine


@pytest.fixture()
def distributed_engine(t2_index):
    return force_distributed(Engine(t2_index))


def assert_same_hits(got, expected, label):
    """Engine rows vs oracle hits: ids, ranks, scores at 1e-9, matched terms."""
    assert len(got) == len(expected), f"{label}: {len(got)} vs {len(expected)}"
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g["doc_id"] == e.doc_id, f"{label} row {i}"
        assert g["rank"] == e.rank, f"{label} row {i}"
        assert math.isclose(g["score"], e.score, abs_tol=1e-9), f"{label} row {i}"
        assert math.isclose(g["bm25_score"], e.bm25_score, abs_tol=1e-9), f"{label} row {i}"
        assert list(g["matched_terms"]) == list(e.matched_terms), f"{label} row {i}"


@pytest.mark.parametrize("qid,queries,opts", _SUBSET, ids=[q[0] for q in _SUBSET])
def test_distributed_rank_identity(qid, queries, opts, t2_rows, distributed_engine):
    expected = oracle_search(t2_rows, queries, **opts)
    assert_same_hits(distributed_engine.search(queries, **opts).to_pylist(), expected, qid)


@pytest.mark.parametrize("on_ray", [False, True], ids=["in_process", "distributed"])
@pytest.mark.parametrize("qid,queries,opts", _SPECIAL_OPTION_CASES,
                         ids=[q[0] for q in _SPECIAL_OPTION_CASES])
def test_special_terms_with_options(qid, queries, opts, on_ray, t2_rows, t2_index):
    expected = oracle_search(t2_rows, queries, **opts)
    assert expected, qid
    engine = Engine(t2_index)
    if on_ray:
        force_distributed(engine)
    assert_same_hits(engine.search(queries, **opts).to_pylist(), expected, qid)


def test_special_term_where_python_and_arrow_lowercase_differ(tmp_path, ray_session):
    """U+0130 lowers to two codepoints in Python ("i" + U+0307) and to one
    in Arrow's utf8_lower. A quoted term spelled with it must still match
    the rows whose Python-lowered text contains it, in process and on Ray."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index

    rows = [
        dict(repo="r", path=f"src/m{i}.rs", commit="c", lang="rust", content=c)
        for i, c in enumerate([
            "fn İstanbulHandler() { keywordAlpha(); }\n",
            "// İstanbulHandler keywordBeta\nfn other() {}\n",
            "fn istanbulHandler() { keywordAlpha(); }\n",
            "fn unrelated() { keywordBeta(); }\n",
        ])
    ]
    rows.append(dict(repo="r", path="tests/test_m.rs", commit="c", lang="rust",
                     content="#[test]\nfn t() { İstanbulHandler(); }\n"))
    corpus = tmp_path / "lower.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(corpus))
    index = build_index(str(corpus), str(tmp_path / "idx"))
    by_path = {r["path"]: r["content"] for r in rows}
    engines = [Engine(index), force_distributed(Engine(index))]
    cases = [
        (['"İstanbulHandler"'], {}),
        (['"İstanbulHandler" OR keywordBeta'], {}),
        (['"İstanbulHandler" keywordAlpha'], {"files_only": True}),
        (['"İstanbulHandler" -keywordBeta'], {"allow_tests": False}),
    ]
    for queries, opts in cases:
        expected = oracle_search(rows, queries, **opts)
        assert any("İstanbulHandler" in by_path[h.path] for h in expected)
        for engine in engines:
            assert_same_hits(engine.search(queries, **opts).to_pylist(), expected,
                             f"{queries} {opts}")


def test_plain_term_injection_uses_python_lowercase(tmp_path, ray_session):
    """Exact-literal injection of a plain term checks containment in the
    Python-lowered content, as oracle.py does: "let İfoo = bar;" lowers to
    "let i̇foo = bar;" there (Arrow's utf8_lower gives "ifoo"), so `ifoo` is
    not injected into that row, in process and on Ray."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index

    rows = [
        dict(repo="r", path=f"src/m{i}.rs", commit="c", lang="rust", content=c)
        for i, c in enumerate([
            "let İfoo = bar;\n",
            "let ifoo = baz;\n",
            "fn bar() { qux(); }\n",
        ])
    ]
    corpus = tmp_path / "lower.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(corpus))
    index = build_index(str(corpus), str(tmp_path / "idx"))
    expected = oracle_search(rows, ["ifoo OR bar"])
    assert [list(h.matched_terms) for h in expected if h.path == "src/m0.rs"] == [["bar"]]
    for engine in (Engine(index), force_distributed(Engine(index))):
        assert_same_hits(engine.search(["ifoo OR bar"]).to_pylist(), expected,
                         "ifoo OR bar")


def test_whole_file_dedup_matches_oracle(tmp_path, ray_session):
    """Two commits of one (repo, path) match with different terms. A ranked
    result keeps that file's first row with the sorted union of both rows'
    terms, and single-row files keep their terms in plan-term order;
    files_only keeps both rows. Engine == oracle.py in process and with
    every LOCAL_* crossover at 0."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index

    rows = [
        dict(repo="r", path=p, commit=c, lang="rust", content=text)
        for p, c, text in [
            ("src/a.rs", "c1", "fn gamma() { gamma(); gamma(); }\n"),
            ("src/a.rs", "c2", "fn alpha() { beta(); }\n"),
            ("src/b.rs", "c1", "fn beta() { gamma(); }\n"),
            ("src/c.rs", "c1", "fn delta() { omega(); }\n"),
        ]
    ]
    corpus = tmp_path / "dup.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(corpus))
    index = build_index(str(corpus), str(tmp_path / "idx"))
    distributed = Engine(index)
    for name in dir(Engine):
        if name.startswith("LOCAL_"):
            setattr(distributed, name, 0)
    query = ["gamma OR beta OR alpha"]
    ranked = oracle_search(rows, query)
    assert [(h.path, list(h.matched_terms)) for h in ranked] == [
        ("src/a.rs", ["alpha", "beta", "gamma"]), ("src/b.rs", ["beta", "gamma"]),
    ]
    assert len(oracle_search(rows, query, files_only=True)) == 3
    for opts in ({}, {"files_only": True}):
        expected = oracle_search(rows, query, **opts)
        for engine in (Engine(index), distributed):
            assert_same_hits(engine.search(query, **opts).to_pylist(), expected,
                             f"{query} {opts}")


def _feats_layouts(feats, monkeypatch):
    """One feats set three ways: the in-process table; a materialized
    Dataset of 17-row blocks (one map task per block); and a lazy Dataset
    whose map tasks each read several small blocks, so Ray Data joins the
    outputs of several per-block calls into one output block."""
    import pyarrow as pa
    import ray.data as rd

    from probe_ray import search as S

    sliced = rd.from_arrow(
        [feats.slice(i, 17) for i in range(0, feats.num_rows, 17)]
    ).materialize()
    monkeypatch.setattr(rd.DataContext.get_current(), "target_max_block_size", 2048)
    joined = rd.from_arrow([feats.slice(0, 60), feats.slice(60)]).map_batches(
        lambda b: b, batch_format="pyarrow"
    )
    calls = S._map_feats(joined, lambda t: pa.table({"n": [t.num_rows]}))
    assert max(t.num_rows for t in calls) > 1  # some outputs hold >1 call
    return feats, sliced, joined


def test_flagged_rows_same_in_process_and_on_ray(t2_index, ray_session, monkeypatch):
    """The ranked finish's flagged rows (positional-overwrite quirk): the
    candidates past the k_valid-th in doc-id order, in file order with rank
    None. No query-suite query yields them on t2, so a synthetic feats set
    with a required term missing from some rows drives the finish, on each
    of _feats_layouts' layouts; few histogram buckets make the k_valid-th
    key resolve inside a crowded bucket."""
    import random

    import pyarrow as pa

    from probe_ray import queryparse as qp
    from probe_ray import search as S

    monkeypatch.setattr(Engine, "_HIST_BUCKETS", 4)
    rng = random.Random(5)
    ids = sorted(rng.sample(range(600), 120))
    files = [f"f{rng.randrange(40):02d}.rs" for _ in ids]  # shared paths too
    tf = [[rng.choice([0, 0, 1, 2, 3])] for _ in ids]
    feats = pa.table({
        "doc_id": ids,
        "repo": ["r"] * len(ids),
        "path": files,
        "dl": [rng.randrange(5, 50) for _ in ids],
        "tf": tf,
        "matched_bits": [b"\x80"] * len(ids),
        "kws_bits": [b"\x80" if t[0] else b"" for t in tf],
        "but": [1 if t[0] else 0 for t in tf],
        "n_bytes": [100] * len(ids),
    }, schema=S._FEATS_SCHEMA)
    ast, _ = qp.parse_query("+foo", False)
    engine = Engine(t2_index)

    k_valid = sum(1 for t in tf if t[0])

    def finish(f):
        tables = list(engine._ranked_rows(f, S._DOC_FINISH, ast, ["foo"], 1, cap=None))
        # one ranked table first, then only unranked ones
        assert tables[0].num_rows == k_valid
        assert all(t.column("rank").null_count == t.num_rows for t in tables[1:])
        return [
            (r["doc_id"], r["rank"], r["score"], r["bm25_score"])
            for r in pa.concat_tables(tables).to_pylist()
        ]

    local, *on_ray = (finish(f) for f in _feats_layouts(feats, monkeypatch))
    assert on_ray == [local, local]
    assert [r[1] for r in local] == list(range(1, k_valid + 1)) + [None] * (120 - k_valid)
    tail = sorted(zip(files[k_valid:], ids[k_valid:]))
    assert [r[0] for r in local[k_valid:]] == [d for _, d in tail]


def test_block_finishes_keep_same_start_order(t2_index, ray_session, monkeypatch):
    """Blocks of one file may share a start line. The flagged rows are the
    candidates past the k_valid-th in canonical (doc_id, start, end,
    node_type) order, stably sorted by (file, start); the exact finish is
    the same stable sort over all rows (oracle.oracle_search_blocks). Both
    hold on each of _feats_layouts' layouts, Ray's unstable sort included."""
    import random

    import pyarrow as pa

    from probe_ray import queryparse as qp
    from probe_ray import search as S

    monkeypatch.setattr(Engine, "_HIST_BUCKETS", 4)
    rng = random.Random(7)
    doc_ids = sorted(rng.sample(range(600), 40))
    paths = {d: f"f{i:02d}.ts" for i, d in zip(rng.sample(range(99), 40), doc_ids)}
    rows = []  # canonical order
    for d in doc_ids:
        spans = {(s, s + rng.randrange(4)) for s in rng.sample(range(1, 9), 2)}
        spans |= {(s, e + 5) for s, e in spans}  # same start, longer window
        blocks = sorted((s, e, rng.choice(["function_declaration", "code"]))
                        for s, e in spans)
        for o, (s, e, nt) in enumerate(blocks):
            hit = rng.random() < 0.6
            rows.append(dict(
                doc_id=d, repo="r", path=paths[d], start=s, end=e, node_type=nt,
                ord=o, dl=rng.randrange(5, 50), tf=[rng.randrange(1, 4) if hit else 0],
                but=int(hit), matched_keywords=["foo"] if hit else [],
                matched_lines=[s], n_code_bytes=10 * (e - s + 1),
            ))
    feats = pa.Table.from_pylist(rows, schema=S._BLOCK_FEATS_SCHEMA)
    ast, _ = qp.parse_query("+foo", False)
    engine = Engine(t2_index)

    def span(r):
        return (r["doc_id"], r["start"], r["end"], r["node_type"])

    def in_file_order(rs):
        return [span(r) for r in sorted(rs, key=lambda r: (r["path"], r["start"]))]

    k_valid = sum(1 for r in rows if r["tf"][0])
    ranked = []
    for f in _feats_layouts(feats, monkeypatch):
        got = pa.concat_tables(
            engine._ranked_rows(f, S._BLOCK_FINISH, ast, ["foo"], 1, cap=None)
        ).to_pylist()
        ranked.append([(span(r), r["rank"], r["score"]) for r in got])
        assert [r["rank"] for r in got] == (
            list(range(1, k_valid + 1)) + [None] * (len(rows) - k_valid)
        )
        assert [span(r) for r in got[k_valid:]] == in_file_order(rows[k_valid:])
        exact = pa.concat_tables(S._unranked_rows(
            S._sorted_feats(f, S._BLOCK_FINISH), S._BLOCK_FINISH
        )).to_pylist()
        assert [span(r) for r in exact] == in_file_order(rows)
    assert ranked[1:] == [ranked[0], ranked[0]]
