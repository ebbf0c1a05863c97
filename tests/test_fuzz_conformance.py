"""Randomized (seeded) query fuzzing: engine vs oracle rank identity on
generated boolean queries over corpus-derived terms."""

import math
import random

import pytest

from probe_ray.oracle import oracle_search
from probe_ray.search import Engine

_WORDS = [
    "keywordAlpha", "keywordBeta", "keywordGamma", "zetaTerm", "whitelist",
    "codeblock", "filler", "login", "auth", "migrateEndpointMetaByType",
    "parse", "marker", "session", "payment", "handle", "request", "content",
]


def _gen_query(rng: random.Random) -> str:
    def term():
        w = rng.choice(_WORDS)
        p = rng.random()
        if p < 0.12:
            return f"+{w}"
        if p < 0.24:
            return f"-{w}"
        if p < 0.32:
            return f'"{w}"'
        return w

    n = rng.randint(1, 3)
    parts = [term() for _ in range(n)]
    out = parts[0]
    for t in parts[1:]:
        op = rng.choice([" AND ", " OR ", " "])
        if t.startswith(("+", "-")):
            op = " "
        out += op + t
    if rng.random() < 0.2 and n > 1:
        out = f"({out})"
    return out


_FILTERS = ["ext:py", "ext:rs", "ext:go", "ext:nosuch", "file:core",
            "dir:core", "lang:python"]


def _gen_filter_query(rng: random.Random) -> str:
    """Query with a filter term mixed in; sometimes filter-ONLY, which
    collapses to the universal '.' plan."""
    f = rng.choice(_FILTERS)
    if rng.random() < 0.35:
        return f  # filter-only -> universal plan
    return f"{f} {rng.choice(_WORDS)}"


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_filter_queries_rank_identity(seed, t2_rows, t2_index):
    """Filtered and filter-only (universal-plan) queries: engine ≡ oracle
    at BOTH granularities."""
    from probe_ray.oracle import load_docs, oracle_search_blocks

    rng = random.Random(7000 + seed)
    query = _gen_filter_query(rng)
    engine = Engine(t2_index)

    expected = oracle_search(t2_rows, [query])
    got = engine.search([query]).to_pylist()
    assert len(got) == len(expected), f"{query!r}"
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g["doc_id"] == e.doc_id and g["rank"] == e.rank, f"{query!r} row {i}"
        assert math.isclose(g["score"], e.score, abs_tol=1e-9), f"{query!r} row {i}"

    exp_b = oracle_search_blocks(load_docs(t2_rows), [query])
    got_b = engine.search_blocks([query]).to_pylist()
    assert len(got_b) == len(exp_b), f"blocks {query!r}"
    for i, (g, h) in enumerate(zip(got_b, exp_b)):
        assert (g["doc_id"], g["start_line"], g["end_line"], g["rank"]) == (
            h.doc_id, h.start, h.end, h.rank
        ), f"blocks {query!r} row {i}"
        assert math.isclose(g["score"], h.score, abs_tol=1e-9), f"blocks {query!r} row {i}"


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_block_session_pagination(seed, t2_rows, t2_index, tmp_path):
    """Random query + random first-page size: the second session page must
    be rank-identical to the oracle primed with the first page's spans and
    disjoint from it."""
    from probe_ray.oracle import load_docs, oracle_search_blocks

    rng = random.Random(8000 + seed)
    query = _gen_query(rng)
    k = rng.randint(1, 5)
    engine = Engine(t2_index)
    sess = f"fz{seed}_{k}"
    first = engine.search_blocks([query], max_results=k, session=sess).to_pylist()
    if not first:
        pytest.skip(f"no results for {query!r}")
    seen_blocks: dict[str, list[tuple[int, int]]] = {}
    first_ids = set()
    for r in first:
        fk = f"{r['repo']}/{r['path']}"
        seen_blocks.setdefault(fk, []).append((r["start_line"], r["end_line"]))
        first_ids.add((fk, r["start_line"], r["end_line"]))
    second = engine.search_blocks([query], session=sess).to_pylist()
    second_ids = {
        (f"{r['repo']}/{r['path']}", r["start_line"], r["end_line"])
        for r in second
    }
    assert not (first_ids & second_ids), f"{query!r}"
    expected = oracle_search_blocks(
        load_docs(t2_rows), [query], seen_blocks=seen_blocks
    )
    assert len(second) == len(expected), f"{query!r}"
    for i, (g, h) in enumerate(zip(second, expected)):
        assert (g["doc_id"], g["start_line"], g["end_line"], g["rank"]) == (
            h.doc_id, h.start, h.end, h.rank
        ), f"{query!r} row {i}"


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_rank_identity(seed, t2_rows, t2_index):
    """Random query and one of the admission options, in process and with
    every crossover forced onto Ray Data."""
    rng = random.Random(1000 + seed)
    query = _gen_query(rng)
    opts = rng.choice([{}, {"files_only": True}, {"allow_tests": False}])
    try:
        expected = oracle_search(t2_rows, [query], **opts)
    except Exception:
        pytest.skip(f"oracle rejects query {query!r}")
    on_ray = Engine(t2_index)
    for name in ("LOCAL_DOCS_MAX", "LOCAL_CAND_MAX", "LOCAL_FEATS_MAX"):
        setattr(on_ray, name, 0)
    for engine in (Engine(t2_index), on_ray):
        label = f"{query!r} {opts} on_ray={engine is on_ray}"
        got = engine.search([query], **opts).to_pylist()
        assert len(got) == len(expected), (
            f"{label}: engine {len(got)} vs oracle {len(expected)}"
        )
        for i, (g, e) in enumerate(zip(got, expected)):
            assert g["doc_id"] == e.doc_id, f"{label} row {i}"
            assert g["rank"] == e.rank, f"{label} row {i}"
            assert math.isclose(g["score"], e.score, abs_tol=1e-9), f"{label} row {i}"
            assert tuple(g["matched_terms"]) == tuple(e.matched_terms), f"{label} row {i}"
