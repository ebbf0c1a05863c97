"""Block-granularity conformance: engine.search_blocks must equal
oracle.oracle_search_blocks exactly (spans, ranks, scores 1e-9, node types,
matched keywords/lines, code text) — the block-level analogue of
test_conformance. Plus unit goldens for the fallback extractor derived from
file_processing.rs:473-1048 semantics and fixture content ported from
tests/elastic_query_integration_tests.rs:14-88 (as .txt so the reference's
own fallback path applies)."""

import math

import pytest

from probe_ray.corpus import QUERY_SUITE, generate_rows
from probe_ray.oracle import load_docs, oracle_search_blocks
from probe_ray.search import Engine

# files_only has no block-level analogue; universal (filter-only) queries
# run through the "." match-everything plan (search_runner.rs:402-411)
_SKIP = {"q24_files_only"}
_BLOCK_SUITE = [
    (qid, queries, opts)
    for qid, queries, opts in QUERY_SUITE
    if qid not in _SKIP
]


def _assert_blocks_equal(tbl, hits, qid):
    rows = tbl.to_pylist()
    assert len(rows) == len(hits), f"{qid}: {len(rows)} vs {len(hits)}"
    for i, (e, h) in enumerate(zip(rows, hits)):
        assert e["doc_id"] == h.doc_id, f"{qid} row {i} doc_id"
        assert e["start_line"] == h.start, f"{qid} row {i} start"
        assert e["end_line"] == h.end, f"{qid} row {i} end"
        assert e["rank"] == h.rank, f"{qid} row {i} rank {e['rank']} != {h.rank}"
        assert math.isclose(e["score"], h.score, abs_tol=1e-9), f"{qid} row {i} score"
        assert math.isclose(e["bm25_score"], h.bm25_score, abs_tol=1e-9), (
            f"{qid} row {i} bm25"
        )
        assert e["node_type"] == h.node_type, f"{qid} row {i} node_type"
        assert list(e["matched_keywords"]) == h.matched_keywords, (
            f"{qid} row {i} matched_keywords"
        )
        assert list(e["matched_lines"]) == h.matched_lines, (
            f"{qid} row {i} matched_lines"
        )
        assert e["code"] == h.code, f"{qid} row {i} code text"


@pytest.mark.parametrize(
    "qid,queries,opts", _BLOCK_SUITE, ids=[q[0] for q in _BLOCK_SUITE]
)
def test_block_rank_identity(qid, queries, opts, t2_rows, t2_index):
    opts = dict(opts)
    opts.pop("files_only", None)
    expected = oracle_search_blocks(load_docs(t2_rows), queries, **opts)
    got = Engine(t2_index).search_blocks(queries, **opts)
    _assert_blocks_equal(got, expected, qid)


def test_block_no_merge_and_threshold(t2_rows, t2_index):
    docs = load_docs(t2_rows)
    for opts in ({"no_merge": True}, {"merge_threshold": 12}, {"max_results": 10}):
        expected = oracle_search_blocks(docs, ["keywordAlpha OR keywordBeta"], **opts)
        got = Engine(t2_index).search_blocks(["keywordAlpha OR keywordBeta"], **opts)
        _assert_blocks_equal(got, expected, f"opts={opts}")


def test_block_universal_filter_only(t2_rows, t2_index, ray_session, tmp_path):
    """A filter-only query takes the universal plan: every non-empty line
    matches the '.' pattern, yielding near-whole-file merged windows
    (search_runner.rs:402-411) — rank-identical engine vs oracle. On the
    dot-less t2 fixture the reference's contains('.')-pre-filter drops every
    context (faithful empty); a dotted fixture returns whole-file windows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index

    docs = load_docs(t2_rows)
    for queries in (["ext:py"], ["ext:nosuch"]):
        expected = oracle_search_blocks(docs, queries)
        got = Engine(t2_index).search_blocks(queries)
        _assert_blocks_equal(got, expected, f"universal {queries}")

    # dotted-content fixture: blocks come back and stay rank-identical
    rows = [
        dict(
            repo="r", path=f"src/mod{i}.py", commit="0" * 40, lang="python",
            content=(
                f"import os.path\n\nvalue = compute_{i}()\nprint(value.total)\n"
                "\n\nfinal = value.summary()\n"
            ),
        )
        for i in range(4)
    ] + [
        dict(repo="r", path="src/plain.md", commit="0" * 40, lang="md",
             content="no dots here at all\n")
    ]
    corpus = tmp_path / "udots.parquet"
    pq.write_table(
        pa.table({k: [r[k] for r in rows] for k in rows[0]}), str(corpus)
    )
    paths = build_index(str(corpus), str(tmp_path / "uidx"))
    for queries in (["ext:py"], ["ext:md"]):
        expected = oracle_search_blocks(load_docs(rows), queries)
        got = Engine(paths).search_blocks(queries)
        _assert_blocks_equal(got, expected, f"universal dotted {queries}")
    got = Engine(paths).search_blocks(["ext:py"])
    assert got.num_rows > 0
    assert set(got.column("path").to_pylist()) == {f"src/mod{i}.py" for i in range(4)}


def test_block_global_mode(t2_rows, t2_index):
    """mode="global" (engine scale path): MaxScore-pruned candidates. With
    overfetch covering every matching doc the output is IDENTICAL to
    compat; with a small overfetch it returns a ranked prefix-quality
    top-k over far fewer extracted docs."""
    eng = Engine(t2_index)
    q = ["keywordAlpha keywordBeta"]

    def spans(tbl):
        return {
            (r["doc_id"], r["start_line"], r["end_line"])
            for r in tbl.to_pylist()
        }

    compat = eng.search_blocks(q, max_results=10)
    full = eng.search_blocks(q, max_results=10, mode="global",
                             global_overfetch=100_000)
    # scores use pruned-set stats (documented), but at full overfetch the
    # returned top-k SPANS converge to compat's
    assert spans(full) == spans(compat)
    # deterministic
    again = eng.search_blocks(q, max_results=10, mode="global",
                              global_overfetch=100_000)
    assert again.to_pylist() == full.to_pylist()

    pruned = eng.search_blocks(q, max_results=10, mode="global",
                               global_overfetch=4)
    rows = pruned.to_pylist()
    assert 0 < len(rows) <= 10
    ranks = [r["rank"] for r in rows if r["rank"] is not None]
    assert ranks and len(set(ranks)) == len(ranks)  # distinct ranks (merge
    # regroups rows per file and can re-score, so neither rank nor score
    # order is monotone in the output — same as compat). NOTE: top-k
    # overlap with compat is NOT asserted at small overfetch — the
    # synthetic corpus has large exact-score tie plateaus, so near-tie
    # winners legitimately differ between the stats populations.
    # exact / filter-only queries ignore the mode (compat path)
    e1 = eng.search_blocks(['"keywordAlpha"'], mode="global")
    e2 = eng.search_blocks(['"keywordAlpha"'])
    assert e1.to_pylist() == e2.to_pylist()


def test_block_search_leaves_its_own_metrics(t2_index):
    """search_blocks writes a fresh last_metrics record per call: never the
    previous search's dict, and only its own probe blocks."""
    eng = Engine(t2_index)
    q = ["keywordAlpha keywordBeta"]
    eng.search(q, max_results=5, mode="global")
    doc_rec = eng.last_metrics
    doc_probes = list(doc_rec["probe_blocks"])
    got = eng.search_blocks(q, max_results=5, mode="global")
    rec = eng.last_metrics
    assert rec is not doc_rec
    assert doc_rec["probe_blocks"] == doc_probes  # left untouched
    assert rec["mode"] == "global" and rec["unit"] == "blocks"
    assert rec["results"] == got.num_rows
    # the same call on a fresh engine probes exactly the same blocks
    alone = Engine(t2_index)
    alone.search_blocks(q, max_results=5, mode="global")
    assert rec["probe_blocks"] == alone.last_metrics["probe_blocks"]
    assert doc_probes and rec["probe_blocks"]  # both calls probed blocks
    compat = eng.search_blocks(q, max_results=5)
    assert eng.last_metrics is not rec
    assert eng.last_metrics["mode"] == "compat"
    assert eng.last_metrics["results"] == compat.num_rows
    assert eng.last_metrics["probe_blocks"] == []


def test_block_session_granularity(t2_rows, t2_index):
    """cache.rs:36-42: sessions store "file:start-end" BLOCK keys. A repeat
    query suppresses previously returned blocks (not whole files), the
    second page is rank-identical to the oracle primed with the first
    page's spans, and sha invalidation re-admits a changed file's blocks."""
    import json

    engine = Engine(t2_index)
    queries = ["keywordAlpha OR keywordBeta"]
    first = engine.search_blocks(queries, max_results=3, session="bs1")
    frows = first.to_pylist()
    # AST-path blocks (M8) can coalesce in the post-limit adjacent merge
    # (block_merging.rs:131-360), so a 3-row page may shrink
    assert 2 <= len(frows) <= 3
    first_ids = {
        (f"{r['repo']}/{r['path']}", r["start_line"], r["end_line"])
        for r in frows
    }
    second = engine.search_blocks(queries, session="bs1")
    srows = second.to_pylist()
    assert srows, "second page must return the remaining blocks"
    second_ids = {
        (f"{r['repo']}/{r['path']}", r["start_line"], r["end_line"])
        for r in srows
    }
    assert not (first_ids & second_ids)
    # engine's second page == oracle primed with the first page's spans
    seen_blocks: dict[str, list[tuple[int, int]]] = {}
    for f, s, e in first_ids:
        seen_blocks.setdefault(f, []).append((s, e))
    expected = oracle_search_blocks(
        load_docs(t2_rows), queries, seen_blocks=seen_blocks
    )
    _assert_blocks_equal(second, expected, "block session page 2")

    # sha invalidation: corrupt one first-page file's recorded hash -> its
    # blocks become re-eligible on the next call
    key = engine._session_key("bs1", queries)
    victim = frows[0]
    vfile = f"{victim['repo']}/{victim['path']}"
    p = engine._session_path(key)
    with open(p) as f:
        data = json.load(f)
    assert vfile in data["blocks"] and data["blocks"][vfile]
    data["sha"][vfile] = "0" * 64
    with open(p, "w") as f:
        json.dump(data, f)
    third = engine.search_blocks(queries, session="bs1").to_pylist()
    third_files = {f"{r['repo']}/{r['path']}" for r in third}
    assert vfile in third_files


def test_block_session_invalidated_spans_not_resurrected(t2_index):
    """A span invalidated by a content change must be dropped FOR GOOD when
    the session is next written — re-persisting it beside the refreshed sha
    would resurrect a stale suppression for content the user never saw."""
    import json

    engine = Engine(t2_index)
    queries = ["keywordAlpha OR keywordBeta"]
    first = engine.search_blocks(queries, max_results=3, session="bs_stale")
    frows = first.to_pylist()
    victim = frows[0]
    vfile = f"{victim['repo']}/{victim['path']}"
    key = engine._session_key("bs_stale", queries)
    p = engine._session_path(key)
    with open(p) as f:
        data = json.load(f)
    stale_spans = {tuple(r) for r in data["blocks"][vfile]}
    data["sha"][vfile] = "0" * 64  # simulate the file's content changing
    with open(p, "w") as f:
        json.dump(data, f)
    second = engine.search_blocks(queries, session="bs_stale").to_pylist()
    returned_v = {
        (r["start_line"], r["end_line"])
        for r in second
        if f"{r['repo']}/{r['path']}" == vfile
    }
    with open(p) as f:
        after = json.load(f)
    recorded_v = {tuple(r) for r in after["blocks"].get(vfile, [])}
    # exactly what the second query returned is recorded — every
    # invalidated first-page span is gone
    assert recorded_v == returned_v


def test_block_global_mode_respects_exclusions(t2_rows, t2_index):
    """Negated terms must not ATTRACT candidates in global mode: MaxScore
    prunes over the positive terms only, and no returned block may match
    the excluded term (the doc-mode pure_or guard's block analogue)."""
    eng = Engine(t2_index)
    q = ["keywordAlpha -keywordBeta"]
    compat = eng.search_blocks(q, max_results=10)
    glob = eng.search_blocks(q, max_results=10, mode="global",
                             global_overfetch=100_000)
    assert glob.num_rows > 0
    for r in glob.to_pylist():
        assert "keywordbeta" not in [k.lower() for k in r["matched_keywords"]]
    spans = lambda tbl: {
        (x["doc_id"], x["start_line"], x["end_line"]) for x in tbl.to_pylist()
    }
    assert spans(glob) == spans(compat)


def test_block_global_session_pagination_widens(t2_rows, t2_index):
    """global mode + session: MaxScore pruning happens BEFORE the session
    seen-filter, so k_docs must widen by the cached span count — otherwise
    a tight overfetch returns only already-seen docs and the page comes
    back empty while unseen matches exist (compat would return them)."""
    eng = Engine(t2_index)
    q = ["keywordAlpha OR keywordBeta"]
    compat_total = eng.search_blocks(q).num_rows
    first = eng.search_blocks(
        q, max_results=3, mode="global", global_overfetch=1, session="bs_gw"
    )
    frows = first.to_pylist()
    assert 0 < len(frows) <= 3 < compat_total
    first_ids = {
        (f"{r['repo']}/{r['path']}", r["start_line"], r["end_line"])
        for r in frows
    }
    second = eng.search_blocks(
        q, max_results=3, mode="global", global_overfetch=1, session="bs_gw"
    )
    srows = second.to_pylist()
    assert srows, "page 2 must surface unseen blocks past the cached spans"
    second_ids = {
        (f"{r['repo']}/{r['path']}", r["start_line"], r["end_line"])
        for r in srows
    }
    assert not (first_ids & second_ids)


def _block_ids(tbl):
    return [
        (r["repo"], r["path"], r["start_line"], r["end_line"], r["rank"],
         round(r["score"], 9))
        for r in tbl.to_pylist()
    ]


def _hit_ids(hits):
    return [
        (h.repo, h.path, h.start, h.end, h.rank, round(h.score, 9))
        for h in hits
    ]


def test_block_early_termination_identity(t2_rows, t2_index):
    """search_runner.rs:892-1208 early termination: the engine's early-
    ranked batch extraction (posting-presence early scores, estimate /
    2x-max_results stop rules) is rank- and score-identical to the oracle
    running the same semantics — including negation, AND queries, and a
    multi-batch estimate (max_results=200 -> est 120 > batch size 100)."""
    eng = Engine(t2_index)
    docs = load_docs(t2_rows)
    cases = [
        (["keywordAlpha OR keywordBeta"], 3),
        (["keywordAlpha -keywordBeta"], 5),
        (["keywordAlpha keywordGamma"], 2),
        (["keywordAlpha OR keywordBeta"], 200),  # est=120: two batches
        (["migrateEndpointMetaByType"], 5),  # compound identifier keywords
    ]
    for q, mr in cases:
        got = eng.search_blocks(q, max_results=mr, early_termination=True)
        m = eng.LAST_BLOCKS_EARLY
        assert m is not None and m["files_processed"] < m["files_ranked"], q
        exp = oracle_search_blocks(
            docs, q, max_results=mr, early_termination=True
        )
        assert _block_ids(got) == _hit_ids(exp), f"early mismatch for {q}"


def test_block_early_termination_fallback_and_auto(t2_rows, t2_index):
    """Fewer keyword-matched docs than the estimate needs -> early
    termination falls back to full extraction even when forced; and the
    auto default (None) stays on the exact full path below
    EARLY_TERM_AUTO_MIN, so small-corpus results are unchanged."""
    eng = Engine(t2_index)
    # estimate (est = ceil(1.5 * 2000 / 2.5) = 1200) exceeds every matched
    # set at t2 scale -> forced early termination still falls back
    q = ["keywordAlpha OR keywordBeta"]
    full = eng.search_blocks(q, max_results=2000, early_termination=False)
    forced = eng.search_blocks(q, max_results=2000, early_termination=True)
    assert eng.LAST_BLOCKS_EARLY is None  # fell back
    assert _block_ids(forced) == _block_ids(full)
    # auto on a wide query at t2 scale (896 matched docs < 5000 threshold)
    wide = ["keywordAlpha OR keywordBeta"]
    auto = eng.search_blocks(wide, max_results=3)
    assert eng.LAST_BLOCKS_EARLY is None
    assert _block_ids(auto) == _block_ids(
        eng.search_blocks(wide, max_results=3, early_termination=False)
    )
    # unlimited queries never early-terminate
    eng.search_blocks(wide, early_termination=True)
    assert eng.LAST_BLOCKS_EARLY is None


def test_block_early_termination_session(t2_rows, t2_index):
    """Early termination + block session: page 2 widens the estimate by
    the cached span count and stays rank-identical to the oracle primed
    with page 1's spans under the same early semantics."""
    eng = Engine(t2_index)
    docs = load_docs(t2_rows)
    q = ["keywordAlpha OR keywordBeta"]
    first = eng.search_blocks(
        q, max_results=3, session="bs_early", early_termination=True
    )
    frows = first.to_pylist()
    # AST-path blocks (M8) can coalesce in the post-limit adjacent merge
    assert 2 <= len(frows) <= 3
    seen_blocks: dict[str, list[tuple[int, int]]] = {}
    for r in frows:
        seen_blocks.setdefault(f"{r['repo']}/{r['path']}", []).append(
            (r["start_line"], r["end_line"])
        )
    second = eng.search_blocks(
        q, max_results=3, session="bs_early", early_termination=True
    )
    assert eng.LAST_BLOCKS_EARLY["estimated_files_needed"] > 20  # widened
    exp = oracle_search_blocks(
        docs, q, max_results=3, seen_blocks=seen_blocks,
        early_termination=True,
    )
    assert _block_ids(second) == _hit_ids(exp)


def test_block_session_partial_file(t2_rows):
    """A cached block suppresses only ITS lines: other matched lines of the
    same file still produce their blocks (cache.rs:418-505)."""
    rows = [
        dict(
            repo="r", path="src/split.txt", commit="0" * 40, lang="text",
            content=(
                "keywordAlpha first window\n" + "\n" * 20
                + "keywordAlpha second window\n"
            ),
        )
    ]
    docs = load_docs(rows)
    base = oracle_search_blocks(docs, ["keywordAlpha"])
    assert len(base) == 2
    spans = sorted((h.start, h.end) for h in base)
    got = oracle_search_blocks(
        docs, ["keywordAlpha"], seen_blocks={"r/src/split.txt": [spans[0]]}
    )
    assert [(h.start, h.end) for h in got] == [spans[1]]


def test_block_exhaustive_matches_default_on_plain_terms(t2_rows, t2_index):
    """exhaustive=True (full-scan candidates) must not change results for
    in-dictionary terms — the narrowing is complete there."""
    docs = load_docs(t2_rows)
    expected = oracle_search_blocks(docs, ["keywordAlpha"])
    got = Engine(t2_index).search_blocks(["keywordAlpha"], exhaustive=True)
    _assert_blocks_equal(got, expected, "exhaustive")


# ---------------------------------------------------------------------------
# Fallback-extractor unit goldens (file_processing.rs semantics)
# ---------------------------------------------------------------------------

def test_fallback_windows_merge_arithmetic():
    from probe_ray.blocks import fallback_windows

    # single matched line 10 in a 100-line file: window 5..15
    assert fallback_windows({10}, 100) == [([10], 5, 15)]
    # clamping at file start/end
    assert fallback_windows({2}, 100) == [([2], 1, 7)]
    assert fallback_windows({99}, 100) == [([99], 94, 100)]
    # two windows, gap 1 <= threshold(=1 for <=5 windows): lines 10, 22
    # windows (5,15) and (17,27): 17 <= 15+1? no -> separate
    assert fallback_windows({10, 22}, 100) == [([10], 5, 15), ([22], 17, 27)]
    # lines 10, 21 -> (5,15), (16,26): 16 <= 15+1 -> merged
    assert fallback_windows({10, 21}, 100) == [([10, 21], 5, 26)]
    # >5 windows raises the threshold to 6
    lines = {10, 30, 50, 70, 90, 110}
    ws = fallback_windows(lines, 200)
    assert len(ws) == 6  # gaps of 9 > 6 stay separate
    lines = {10, 22, 34, 46, 58, 70}
    ws = fallback_windows(lines, 200)  # gaps: next start 17 vs end 15+6 -> merge
    assert len(ws) == 1


def test_fallback_node_type():
    from probe_ray.blocks import determine_fallback_node_type as nt

    assert nt("// a comment", "rs") == "comment"
    assert nt("# python comment", "py") == "comment"
    assert nt("# not a comment in rust", "rs") != "comment"
    assert nt("fn foo() {", "rs") == "function"
    assert nt("def foo():", "py") == "function"
    assert nt("class Foo:", "py") == "class"
    assert nt("import os", "py") == "import"
    assert nt("let x = 1;", "rs") == "variable_declaration"
    assert nt("if x > 0 {", "rs") == "control_flow"
    assert nt("plain words here", "txt") == "code"


def test_term_patterns_include_stems_and_compounds():
    from probe_ray import queryparse as qp
    from probe_ray.blocks import term_patterns

    plan, _ = qp.plan_query(["keywordAlpha running"], False)
    pats = term_patterns(plan)
    needles = {p for ps in pats.values() for p in ps}
    # the parser already tokenized/stemmed the keywords (reference AST
    # keywords are processed terms): camel parts of keywordAlpha and the
    # stem of 'running' are the needles
    assert {"key", "word", "alpha", "run"} <= needles
    # exact terms keep the literal keyword only (no stem expansion)
    plan2, _ = qp.plan_query(['"cleanupScopeMappings"'], False)
    pats2 = term_patterns(plan2)
    assert pats2 == {0: ["cleanupscopemappings"]}


def test_block_merging_gap_fill_and_placeholder():
    from probe_ray.blocks import merge_ranked_blocks

    lines = [f"line{i}" for i in range(1, 41)]
    b1 = dict(file="f", start=1, end=5, node_type="code", rank=1, score=2.0,
              bm25_score=1.0, code="\n".join(lines[0:5]),
              matched_keywords=["a"], matched_lines=[0], but=1, total=1,
              doc_id=0, repo="r", path="p")
    b2 = dict(file="f", start=9, end=12, node_type="code", rank=2, score=1.0,
              bm25_score=0.5, code="\n".join(lines[8:12]),
              matched_keywords=["b"], matched_lines=[1], but=1, total=1,
              doc_id=0, repo="r", path="p")
    merged = merge_ranked_blocks([b1, b2], 5, {"f": lines})
    assert len(merged) == 1
    m = merged[0]
    assert (m["start"], m["end"]) == (1, 12)
    assert m["code"] == "\n".join(lines[0:12])  # gap 6-8 filled from file
    assert m["score"] == 2.0 and m["bm25_score"] == 1.0
    assert m["matched_keywords"] == ["a", "b"]
    assert m["matched_lines"] == [0, 9]
    # without file content, small gaps get the placeholder
    merged2 = merge_ranked_blocks(
        [dict(b1), dict(b2)], 5, None
    )
    assert "should be included" in merged2[0]["code"]


def test_dedupe_contained():
    from probe_ray.blocks import dedupe_contained_blocks

    outer = dict(file="f", start=1, end=20, node_type="code",
                 matched_keywords=["a"], doc_id=0)
    inner = dict(file="f", start=5, end=10, node_type="code",
                 matched_keywords=["b"], doc_id=0)
    out = dedupe_contained_blocks([outer, inner])
    assert len(out) == 1
    assert out[0]["start"] == 1 and out[0]["matched_keywords"] == ["a", "b"]


# ---------------------------------------------------------------------------
# Fixture ported from tests/elastic_query_integration_tests.rs:14-88
# (as .txt so the reference's own fallback path would apply)
# ---------------------------------------------------------------------------

_INTEGRATION_FILES = {
    "file1.txt": (
        "\n// This file contains keywordAlpha and keywordBeta\n"
        "// Plain markers: alpha beta\nfn test_function() {\n"
        "    // This is keywordAlpha\n    let x = 1;\n\n"
        "    // This is keywordBeta\n    let y = 2;\n\n"
        '    println!("Result: {}", x + y);\n}\n'
    ),
    "file2.txt": (
        "\n// This file contains keywordAlpha and keywordGamma\n"
        "// Plain markers: alpha gamma\nfn another_function() {\n"
        "    // This is keywordAlpha\n    let x = 1;\n\n"
        "    // This is keywordGamma\n    let z = 3;\n\n"
        '    println!("Result: {}", x + z);\n}\n'
    ),
    "file3.txt": (
        "\n// This file contains keywordBeta and keywordGamma\n"
        "// Plain markers: beta gamma\nfn third_function() {\n"
        "    // This is keywordBeta\n    let y = 2;\n\n"
        "    // This is keywordGamma\n    let z = 3;\n\n"
        '    println!("Result: {}", y + z);\n}\n'
    ),
    "file4.txt": (
        "\n// This file contains keywordAlpha, keywordBeta, and keywordGamma\n"
        "// Plain markers: alpha beta gamma\nfn all_keywords_function() {\n"
        "    // This is keywordAlpha\n    let x = 1;\n\n"
        "    // This is keywordBeta\n    let y = 2;\n\n"
        "    // This is keywordGamma\n    let z = 3;\n\n"
        '    println!("Result: {}", x + y + z);\n}\n'
    ),
}


def _integration_docs():
    rows = [
        dict(repo="itest", path=p, commit="c", lang="txt", content=c)
        for p, c in _INTEGRATION_FILES.items()
    ]
    return load_docs(rows)


def test_integration_or_query_block_files():
    """OR over the three keywords must surface blocks from all four files
    (test_required_term_query, elastic_query_integration_tests.rs:89+)."""
    hits = oracle_search_blocks(
        _integration_docs(), ["keywordAlpha OR keywordBeta OR keywordGamma"]
    )
    files = {h.path for h in hits}
    assert files == set(_INTEGRATION_FILES)
    # every block's matched keywords are non-empty and code spans its lines
    for h in hits:
        assert h.matched_keywords
        assert h.code.count("\n") == h.end - h.start


def test_integration_and_query_blocks():
    """alpha AND beta (disjoint plain markers) -> files 1 and 4 only.
    (keywordAlpha AND keywordBeta would match all four files: the camel
    parts 'key'/'word' are shared keywords and probe's Term evaluation
    passes on ANY keyword.)"""
    hits = oracle_search_blocks(_integration_docs(), ["alpha AND beta"])
    assert {h.path for h in hits} == {"file1.txt", "file4.txt"}


def test_integration_exclusion_blocks():
    hits = oracle_search_blocks(_integration_docs(), ["alpha -gamma"])
    assert {h.path for h in hits} == {"file1.txt"}


def test_integration_block_spans_are_windows():
    """Single-file sanity: matched lines produce merged ±5 windows."""
    hits = oracle_search_blocks(_integration_docs(), ["keywordGamma"])
    for h in hits:
        assert h.start >= 1 and h.end >= h.start
        assert h.matched_lines  # every block records its matched lines


# ---------------------------------------------------------------------------
# Distributed path + fuzz at block level
# ---------------------------------------------------------------------------

@pytest.fixture()
def distributed_engine(t2_index, monkeypatch):
    monkeypatch.setattr(Engine, "LOCAL_DOCS_MAX", 0)
    monkeypatch.setattr(Engine, "LOCAL_CAND_MAX", 0)
    return Engine(t2_index)


_DIST_SUBSET = [q for q in _BLOCK_SUITE if q[0] in (
    "q01_single_term", "q04_exclusion", "q09_quoted_exact",
    "q14_filename_only", "q23_max_results",
)]


@pytest.mark.parametrize(
    "qid,queries,opts", _DIST_SUBSET, ids=[q[0] for q in _DIST_SUBSET]
)
def test_distributed_block_identity(qid, queries, opts, t2_rows, distributed_engine):
    expected = oracle_search_blocks(load_docs(t2_rows), queries, **opts)
    got = distributed_engine.search_blocks(queries, **opts)
    _assert_blocks_equal(got, expected, qid)


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_block_identity(seed, t2_rows, t2_index):
    import random

    from tests.test_fuzz_conformance import _gen_query

    rng = random.Random(1000 + seed)
    docs = load_docs(t2_rows)
    engine = Engine(t2_index)
    for _ in range(3):
        q = _gen_query(rng)
        try:
            expected = oracle_search_blocks(docs, [q])
        except NotImplementedError:
            continue  # universal parse — out of block-mode scope
        got = engine.search_blocks([q])
        _assert_blocks_equal(got, expected, f"seed={seed} q={q!r}")


# ---------------------------------------------------------------------------
# Cases ported from src/search/file_processing_tests.rs (fallback path —
# the reference's own tests drive process_file_with_results with explicit
# term_matches, exactly our extract_fallback_blocks surface)
# ---------------------------------------------------------------------------

def _plan(q):
    from probe_ray import queryparse as qp

    plan, _ = qp.plan_query([q], False)
    return plan


def test_fp_ported_single_line():
    """file_processing_tests.rs:78-120: one matched line -> a context block
    spanning it."""
    from probe_ray.blocks import extract_fallback_blocks

    lines = ["line 1", "line 2", "line 3", "line 4", "line 5", ""]
    plan = _plan("line")
    tm = {plan.term_indices["line"]: {3}}
    blocks = extract_fallback_blocks(
        lines, "test.txt", tm, plan, frozenset(), allow_tests=False
    )
    assert blocks
    b = blocks[0]
    assert b["start"] <= 3 <= b["end"]
    assert "line 3" in b["code"]


def test_fp_ported_high_coverage():
    """file_processing_tests.rs:122-229: matches on most lines still yield
    (merged) results covering them."""
    from probe_ray.blocks import extract_fallback_blocks

    lines = ["line 1", "line 2", "line 3", "line 4", "line 5", ""]
    plan = _plan("line")
    tm = {plan.term_indices["line"]: {1, 2, 3, 4}}
    blocks = extract_fallback_blocks(
        lines, "test.txt", tm, plan, frozenset(), allow_tests=False
    )
    assert blocks
    covered = set()
    for b in blocks:
        covered.update(range(b["start"], b["end"] + 1))
    assert {1, 2, 3, 4} <= covered


def test_fp_ported_multi_term_blocks():
    """file_processing_tests.rs:231-321 semantics on an unsupported
    extension: per-term matched lines produce fallback blocks whose
    matched_keywords reflect the terms matching inside each span."""
    from probe_ray.blocks import extract_fallback_blocks

    content = (
        "\nfunction alphafn() {\n  console.log('A');\n}\n\n"
        "function betafn() {\n  console.log('B');\n}\n\n"
        "function gammafn() {\n  console.log('C');\n}\n"
    )
    lines = content.split("\n")
    plan = _plan("alphafn OR betafn OR gammafn")
    ti = plan.term_indices
    tm = {ti["alphafn"]: {2}, ti["betafn"]: {6}, ti["gammafn"]: {10}}
    blocks = extract_fallback_blocks(
        lines, "test.js", tm, plan, frozenset(), allow_tests=True
    )
    assert blocks
    kws = {kw for b in blocks for kw in b["matched_keywords"]}
    assert {"alphafn", "betafn", "gammafn"} <= kws
    for b in blocks:
        for ln in tm[ti["alphafn"]]:
            if b["start"] <= ln <= b["end"]:
                assert "alphafn" in b["matched_keywords"]


def test_fp_ported_long_lines_ignored():
    """file_processing_tests.rs:415-470: >500-char lines are blanked, so
    no block code contains them (oracle pipeline applies the blanking)."""
    from probe_ray.oracle import load_docs, oracle_search_blocks

    normal = "This is a normal line with reasonable length."
    long_line = "x" * 600
    docs = load_docs(
        [dict(repo="r", path="mixed.txt", commit="c", lang="txt",
              content=f"{normal}\n{long_line}\n{normal}")]
    )
    hits = oracle_search_blocks(docs, ["normal"])
    assert hits
    for h in hits:
        assert long_line not in h.code


@pytest.fixture()
def distributed_feats_engine(t2_index, monkeypatch):
    """Forces BOTH distributed extraction and the Ray-side block finishes
    (stats reduce + per-block top-k + histogram flagged rows, and the
    exact sort)."""
    monkeypatch.setattr(Engine, "LOCAL_DOCS_MAX", 0)
    monkeypatch.setattr(Engine, "LOCAL_CAND_MAX", 0)
    monkeypatch.setattr(Engine, "LOCAL_BLOCK_CAND_MAX", 0)
    monkeypatch.setattr(Engine, "LOCAL_FEATS_MAX", 0)
    return Engine(t2_index)


_DIST_FEATS_SUBSET = [q for q in _BLOCK_SUITE if q[0] in (
    "q01_single_term", "q02_or_chain", "q04_exclusion", "q09_quoted_exact",
    "q19_bm25_gradient", "q23_max_results", "q25_max_bytes", "q26_max_tokens",
)]


@pytest.mark.parametrize(
    "qid,queries,opts", _DIST_FEATS_SUBSET, ids=[q[0] for q in _DIST_FEATS_SUBSET]
)
def test_distributed_block_ranking_identity(
    qid, queries, opts, t2_rows, distributed_feats_engine
):
    expected = oracle_search_blocks(load_docs(t2_rows), queries, **opts)
    got = distributed_feats_engine.search_blocks(queries, **opts)
    _assert_blocks_equal(got, expected, qid)


def test_distributed_block_ranking_no_limit(t2_rows, distributed_feats_engine):
    """No-limit distributed block ranking (flagged path with
    need_flagged=None) must equal the oracle end to end."""
    q = ["keywordAlpha OR keywordBeta"]
    expected = oracle_search_blocks(load_docs(t2_rows), q)
    got = distributed_feats_engine.search_blocks(q)
    _assert_blocks_equal(got, expected, "dist_no_limit")


def test_same_start_blocks_in_process_and_on_ray(ray_session, tmp_path):
    """Two blocks of one file can start on the same line (here an AST
    function and the fallback window of a later uncovered match). The
    ranked and the exact finish keep the oracle's candidate order between
    them (the exact sort is stable over (file, start)), in-process and with
    every crossover forced to Ray Data. The extractor's filters leave no
    such pair at the flagged-row boundary in the queries tried, so
    test_distributed_paths covers that rule on synthetic feats."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index

    ts = "\n".join(
        ["function keywordAlpha() {", "  return 1;", "}", "y = keywordBeta;"]
        + ["z = 2;"] * 8
    )
    rows = [
        dict(repo="r", path="a/other.txt", commit="0" * 40, lang="text",
             content="keywordAlpha keywordBeta\nplain\n"),
        dict(repo="r", path="b/same.ts", commit="0" * 40, lang="typescript",
             content=ts),
    ]
    docs = load_docs(rows)
    corpus = tmp_path / "same_start.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(corpus))
    index = build_index(str(corpus), str(tmp_path / "idx"))
    on_ray = Engine(index)
    for name in ("LOCAL_DOCS_MAX", "LOCAL_CAND_MAX", "LOCAL_BLOCK_CAND_MAX",
                 "LOCAL_FEATS_MAX"):
        setattr(on_ray, name, 0)
    cases = [
        (["keywordAlpha OR keywordBeta"], {}),
        (["keywordAlpha OR keywordBeta"], {"no_merge": True}),
        # all-exact: file order, the function before the window
        (['"keywordAlpha" OR "keywordBeta"'], {"max_results": 2}),
        (['"keywordAlpha" OR "keywordBeta"'], {"no_merge": True}),
    ]
    for queries, opts in cases:
        expected = oracle_search_blocks(docs, queries, **opts)
        for label, eng in (("local", Engine(index)), ("ray", on_ray)):
            got = eng.search_blocks(queries, **opts)
            _assert_blocks_equal(got, expected, f"{label} {queries} {opts}")


@pytest.mark.parametrize("qid,queries,opts", [
    ("t1_single", ["keywordAlpha"], {}),
    ("t1_quoted", ['"cleanupScopeMappings"'], {}),
    ("t1_or_limited", ["keywordAlpha OR keywordBeta"], {"max_results": 10}),
])
def test_block_identity_without_ngram_index(qid, queries, opts, t1_index):
    """Block search on an index built WITHOUT the ngram index: candidate
    generation falls back to term-dictionary expansion + static prefilter —
    must still be rank-identical to the oracle."""
    from probe_ray.corpus import generate_rows

    engine = Engine(t1_index)
    assert not engine._has_ngrams()
    expected = oracle_search_blocks(load_docs(generate_rows("t1")), queries, **opts)
    got = engine.search_blocks(queries, **opts)
    _assert_blocks_equal(got, expected, qid)


def test_new_language_ast_blocks_end_to_end(tmp_path):
    """java/c/cpp/c#/ruby corpora route through the language-aware AST
    extractor: matched lines resolve to construct spans with tree-sitter
    kind names (not ±5-line fallback windows), engine ≡ oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index

    files = {
        "src/Svc.java": (
            "java",
            "public class Svc {\n"
            "    public int keywordAlpha(int x) {\n"
            "        return x + 1;\n"
            "    }\n"
            "}\n",
        ),
        "src/util.c": (
            "c",
            "static int total = 0;\n\n"
            "int keywordAlpha(int x) {\n"
            "    return total + x;\n"
            "}\n",
        ),
        "src/geom.cpp": (
            "cpp",
            "namespace geo {\n"
            "double keywordAlpha() {\n"
            "  return 1.0;\n"
            "}\n"
            "}\n",
        ),
        "src/Inv.cs": (
            "csharp",
            "public class Inv\n"
            "{\n"
            "    public int keywordAlpha(int x)\n"
            "    {\n"
            "        return x;\n"
            "    }\n"
            "}\n",
        ),
        "src/bill.rb": (
            "ruby",
            "module Billing\n"
            "  def keyword_alpha(x)\n"
            "    x + 1\n"
            "  end\n"
            "end\n",
        ),
        "src/pay.php": (
            "php",
            "<?php\n"
            "class Pay {\n"
            "    public function keywordAlpha(int $x): int {\n"
            "        return $x + 1;\n"
            "    }\n"
            "}\n",
        ),
        "src/calc.swift": (
            "swift",
            "struct Calc {\n"
            "    func keywordAlpha(_ x: Int) -> Int {\n"
            "        return x + 1\n"
            "    }\n"
            "}\n",
        ),
        "src/tok.sol": (
            "solidity",
            "contract Tok {\n"
            "    function keywordAlpha(uint x) public {\n"
            "    }\n"
            "}\n",
        ),
        "src/calc.cr": (
            "crystal",
            "class Calc\n"
            "  def keyword_alpha(x)\n"
            "    x + 1\n"
            "  end\n"
            "end\n",
        ),
        "src/Calc.hs": (
            "haskell",
            "keywordAlpha :: Int -> Int\n"
            "keywordAlpha x = x + 1\n",
        ),
        "src/index.html": (
            "html",
            "<body>\n"
            "  <section>\n"
            "    <p>keywordAlpha</p>\n"
            "  </section>\n"
            "</body>\n",
        ),
    }
    rows = [
        dict(repo="r", path=p, commit="0" * 40, lang=lang, content=c)
        for p, (lang, c) in files.items()
    ]
    corpus = tmp_path / "newlangs.parquet"
    pq.write_table(pa.Table.from_pylist(rows), str(corpus))
    eng = Engine(build_index(str(corpus), str(tmp_path / "idx")))

    from probe_ray.oracle import load_docs, oracle_search_blocks

    docs = load_docs(rows)
    for queries in (["keywordAlpha"], ["keyword_alpha"]):
        got = eng.search_blocks(queries)
        expected = oracle_search_blocks(docs, queries)
        _assert_blocks_equal(got, expected, f"newlang {queries}")

    got = eng.search_blocks(["keywordAlpha"])
    by_path = dict(zip(got.column("path").to_pylist(),
                       got.column("node_type").to_pylist()))
    assert by_path["src/Svc.java"] == "method_declaration"
    assert by_path["src/util.c"] == "function_definition"
    assert by_path["src/geom.cpp"] == "function_definition"
    assert by_path["src/Inv.cs"] == "method_declaration"
    assert by_path["src/pay.php"] == "method_declaration"
    assert by_path["src/calc.swift"] == "function_declaration"
    assert by_path["src/tok.sol"] == "function_definition"
    assert by_path["src/Calc.hs"] == "function"
    assert by_path["src/index.html"] in ("element",)
    rb = eng.search_blocks(["keyword_alpha"])
    rb_types = dict(zip(rb.column("path").to_pylist(),
                        rb.column("node_type").to_pylist()))
    assert rb_types["src/bill.rb"] == "method"
    assert rb_types["src/calc.cr"] == "method_def"


_LIMIT_CASES = [
    ("doc_ranked", "search", ["keywordAlpha OR keywordBeta"], {"max_results": 2}),
    ("doc_exact", "search", ['"keywordAlpha"'], {"max_results": 2}),
    ("files_only", "search", ["keywordAlpha OR keywordBeta"],
     {"files_only": True, "max_results": 1}),
    ("blocks_max_results", "search_blocks", ["keywordAlpha OR keywordBeta"],
     {"max_results": 3}),
    ("blocks_max_bytes", "search_blocks", ["keywordAlpha"], {"max_bytes": 5000}),
]


@pytest.mark.parametrize(
    "case,method,queries,opts", _LIMIT_CASES, ids=[c[0] for c in _LIMIT_CASES]
)
def test_limited_search_results_parity(case, method, queries, opts, t2_index):
    """The LimitedSearchResults record is the same whether the query runs
    in-process or with every LOCAL_* crossover forced to Ray Data."""
    local = Engine(t2_index)
    getattr(local, method)(queries, **opts)
    want = local.last_search_meta
    dist = Engine(t2_index)
    for name in dir(Engine):
        if name.startswith("LOCAL_"):
            setattr(dist, name, 0)
    getattr(dist, method)(queries, **opts)
    got = dist.last_search_meta
    assert want["limits_applied"] is not None, case
    assert got["limits_applied"] == want["limits_applied"], case
    assert got["n_skipped_by_limits"] == want["n_skipped_by_limits"], case
    assert got["n_results"] == want["n_results"], case


def test_limited_search_results_metadata(t2_rows, t2_index):
    """models.rs:2-9 LimitedSearchResults parity surface (r4 verdict item
    9): engine.last_search_meta records the applied limits + running
    totals, the limit-skip count, cached-block skips (exact on in-process
    extraction), and the early-termination file skip count."""
    engine = Engine(t2_index)
    queries = ["keywordAlpha OR keywordBeta"]

    got = engine.search_blocks(queries, max_results=3)
    m = engine.last_search_meta
    assert m["n_results"] == got.num_rows
    la = m["limits_applied"]
    assert la is not None and la["max_results"] == 3
    assert la["total_bytes"] > 0 and la["total_tokens"] > 0
    assert m["n_skipped_by_limits"] > 0  # many more blocks matched
    assert m["cached_blocks_skipped"] in (0, None)
    assert m["files_skipped_early_termination"] is None

    # unlimited: no limits record, nothing skipped
    engine.search_blocks(queries)
    m = engine.last_search_meta
    assert m["limits_applied"] is None and m["n_skipped_by_limits"] == 0

    # session page 2: previously returned spans are counted as cached
    # skips (extraction runs in-process at this corpus size)
    engine.search_blocks(queries, max_results=3, session="meta_s")
    engine.search_blocks(queries, session="meta_s")
    m = engine.last_search_meta
    assert m["cached_blocks_skipped"] is not None
    assert m["cached_blocks_skipped"] > 0

    # early termination records the skipped-file count
    engine.search_blocks(queries, max_results=3, early_termination=True)
    m = engine.last_search_meta
    assert m["files_skipped_early_termination"] is not None
    assert m["files_skipped_early_termination"] > 0

    # doc-granularity search carries the same record shape
    engine.search(queries, max_results=2)
    m = engine.last_search_meta
    assert m["n_results"] <= 2
    assert m["limits_applied"]["max_results"] == 2
    assert m["n_skipped_by_limits"] > 0
    assert m["cached_blocks_skipped"] is None

    # exact / files_only route through the exact finish — limits recorded
    engine.search(['"keywordAlpha"'], max_results=2)
    m = engine.last_search_meta
    assert m["limits_applied"]["max_results"] == 2
    assert m["n_skipped_by_limits"] > 0
    engine.search(queries, files_only=True, max_results=1)
    m = engine.last_search_meta
    assert m["limits_applied"]["max_results"] == 1
    assert m["n_skipped_by_limits"] > 0

    # global mode gets a FRESH record (never the previous query's)
    engine.search(queries, max_results=3, mode="global")
    m = engine.last_search_meta
    assert m["n_results"] <= 3
    assert m["limits_applied"]["max_results"] == 3
    # nothing is counted in global mode: the totals read "not tracked"
    assert m["limits_applied"]["total_bytes"] is None
    assert m["limits_applied"]["total_tokens"] is None
    assert m["cached_blocks_skipped"] is None


def test_block_search_without_rows_leaves_empty_meta(t2_index):
    """search_blocks calls that return before the limits (no candidate
    docs, no extracted blocks, no MaxScore hits in global mode) write a
    fresh empty LimitedSearchResults record: on a fresh engine, and on an
    engine whose previous call returned rows under limits."""
    empty = dict(n_results=0, limits_applied=None, n_skipped_by_limits=0,
                 cached_blocks_skipped=None, files_skipped_early_termination=None)
    early_returns = [
        (['"zzzznotthere"'], {}),  # no candidate ids
        (["keywordAlpha"], {"language": "haskell"}),  # no extracted blocks
        (["zzzznotthere"], {"mode": "global", "max_results": 3}),  # no MaxScore hits
    ]
    for queries, opts in early_returns:
        engine = Engine(t2_index)
        assert engine.search_blocks(queries, **opts).num_rows == 0
        assert engine.last_search_meta == empty, (queries, opts)
        assert engine.search_blocks(["keywordAlpha"], max_results=2).num_rows == 2
        assert engine.last_search_meta["limits_applied"] is not None
        assert engine.search_blocks(queries, **opts).num_rows == 0
        assert engine.last_search_meta == empty, (queries, opts)
