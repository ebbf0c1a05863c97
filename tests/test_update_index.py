"""Incremental index update (segment append, generation commit points)."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def _rows(n, start=0, repo="org/app", marker="keywordAlpha"):
    return [
        dict(
            repo=repo,
            path=f"src/file{start + i}.rs",
            commit="0" * 40,
            lang="rust",
            content=(
                f"pub fn loader{start + i}() {{\n"
                f"    let x = {marker};\n"
                f"    respond(x);\n"
                "}\n"
            ),
        )
        for i in range(n)
    ]


def _write(path, rows):
    pq.write_table(pa.Table.from_pylist(rows), str(path))


def _docs_from_index(paths):
    """Oracle Docs built from the UPDATED index's own docs table — the id
    assignment under test is the index's (segment-append order)."""
    import pyarrow.dataset as pads

    from probe_ray.oracle import Doc

    tbl = pads.dataset(
        [pads.dataset(p) for p in paths.docs_paths()]
    ).to_table(
        columns=["doc_id", "repo", "path", "commit", "lang", "content",
                 "content_sha256"]
    ).sort_by("doc_id")
    return [
        Doc(
            doc_id=r["doc_id"], repo=r["repo"], path=r["path"],
            commit=r["commit"], lang=r["lang"], content=r["content"],
            content_sha256=r["content_sha256"],
        )
        for r in tbl.to_pylist()
    ]


def test_update_appends_generation_and_stays_rank_identical(tmp_path):
    from probe_ray.build import build_index, update_index
    from probe_ray.oracle import oracle_search_docs
    from probe_ray.search import Engine

    base_rows = _rows(6)
    c1 = tmp_path / "c1.parquet"
    _write(c1, base_rows)
    paths = build_index(str(c1), str(tmp_path / "idx"))
    n0 = paths.stats()["n_docs"]

    # additions only: same 6 files + 4 new ones (one matching a hot term)
    added = _rows(4, start=100, marker="keywordBeta")
    c2 = tmp_path / "c2.parquet"
    _write(c2, base_rows + added)
    paths2 = update_index(str(c2), str(tmp_path / "idx"))

    gens = paths2.update_gens()
    assert len(gens) == 1 and gens[0].endswith("gen-0")
    st = paths2.stats()
    assert st["n_docs"] == n0 + 4
    assert os.path.exists(os.path.join(gens[0], "doc_lens.npy"))

    eng = Engine(paths2)
    docs = _docs_from_index(paths2)
    for queries in (["keywordAlpha"], ["keywordBeta"],
                    ["keywordAlpha OR keywordBeta"], ["loader102"]):
        got = eng.search(queries, max_results=20)
        want = oracle_search_docs(docs, queries, max_results=20)
        assert got.column("doc_id").to_pylist() == [
            r.doc_id for r in want
        ], queries
        import numpy as np

        assert np.allclose(
            got.column("score").to_pylist(),
            [r.score for r in want], atol=1e-9,
        ), queries

    # added docs are retrievable at block granularity too ("keywordBeta"
    # token-splits to keyword+beta, so base files match the OR-of-parts as
    # well — probe semantics; the new files must all be present)
    blk = eng.search_blocks(["keywordBeta"])
    assert {f"src/file{100 + i}.rs" for i in range(4)} <= set(
        blk.column("path").to_pylist()
    )


def test_update_is_idempotent_and_second_generation_stacks(tmp_path):
    from probe_ray.build import build_index, update_index
    from probe_ray.search import Engine

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(4))
    build_index(str(c1), str(tmp_path / "idx"))

    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(4) + _rows(2, start=50))
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert len(p.update_gens()) == 1
    # same corpus again: no-op (fingerprint short-circuit)
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert len(p.update_gens()) == 1

    c3 = tmp_path / "c3.parquet"
    _write(c3, _rows(4) + _rows(2, start=50) + _rows(3, start=80))
    p = update_index(str(c3), str(tmp_path / "idx"))
    assert len(p.update_gens()) == 2
    assert p.stats()["n_docs"] == 9
    got = Engine(p).search(["keywordAlpha"], max_results=20)
    assert got.num_rows == 9


def test_update_falls_back_to_rebuild_on_change_or_removal(tmp_path):
    from probe_ray.build import build_index, update_index

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(5))
    build_index(str(c1), str(tmp_path / "idx"))

    # change one file's content -> sha mismatch -> full rebuild (no gens)
    rows = _rows(5)
    rows[2]["content"] += "// changed\n"
    c2 = tmp_path / "c2.parquet"
    _write(c2, rows)
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert p.update_gens() == []
    assert p.stats()["n_docs"] == 5

    # remove one file -> full rebuild
    c3 = tmp_path / "c3.parquet"
    _write(c3, rows[:4])
    p = update_index(str(c3), str(tmp_path / "idx"))
    assert p.update_gens() == []
    assert p.stats()["n_docs"] == 4


def test_uncommitted_generation_is_invisible_and_swept(tmp_path):
    """A crash before the gen-K.tmp -> gen-K rename leaves the index
    serving exactly the pre-update corpus; the next update sweeps the
    stale tmp and commits cleanly."""
    from probe_ray.build import build_index, update_index
    from probe_ray.search import Engine

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(4))
    paths = build_index(str(c1), str(tmp_path / "idx"))

    # simulate a crashed update: a half-written tmp generation
    stale = os.path.join(paths.updates_dir, "gen-0.tmp")
    os.makedirs(os.path.join(stale, "docs"))
    with open(os.path.join(stale, "stats.json"), "w") as f:
        json.dump({"n_docs": 999}, f)

    assert paths.update_gens() == []
    assert paths.stats()["n_docs"] == 4
    assert Engine(paths).search(["keywordAlpha"]).num_rows == 4

    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(4) + _rows(2, start=9))
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert not os.path.exists(stale)
    assert len(p.update_gens()) == 1
    assert p.stats()["n_docs"] == 6


def test_update_of_incomplete_or_missing_index_builds_fresh(tmp_path):
    from probe_ray.build import update_index

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(3))
    p = update_index(str(c1), str(tmp_path / "fresh_idx"))
    assert p.stats()["n_docs"] == 3
    assert p.update_gens() == []


def test_compact_index_merges_generations_rank_identically(tmp_path):
    """compact_index folds the generations into one fresh index that
    answers every query identically (same ids, ranks, scores) with zero
    update generations and one segment file per shard."""
    import numpy as np

    from probe_ray.build import build_index, compact_index, update_index
    from probe_ray.search import Engine

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(5))
    build_index(str(c1), str(tmp_path / "idx"))
    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(5) + _rows(3, start=30, marker="keywordBeta"))
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert len(p.update_gens()) == 1

    cp = compact_index(str(tmp_path / "idx"), str(tmp_path / "idx2"))
    assert cp.update_gens() == []
    assert cp.stats()["n_docs"] == 8
    for s in range(cp.stats()["n_shards"]):
        fs = [
            f for f in os.listdir(
                os.path.join(cp.segments_dir, f"shard={s}")
            ) if f.endswith(".parquet")
        ]
        assert len(fs) <= 1

    a = Engine(p)
    b = Engine(cp)
    for queries in (["keywordAlpha OR keywordBeta"], ["loader31"]):
        ra = a.search(queries, max_results=20)
        rb = b.search(queries, max_results=20)
        assert ra.column("doc_id").to_pylist() == rb.column("doc_id").to_pylist()
        assert np.allclose(
            ra.column("score").to_pylist(), rb.column("score").to_pylist()
        )
    with pytest.raises(ValueError, match="out_dir exists"):
        compact_index(str(tmp_path / "idx"), str(tmp_path / "idx2"))


def test_global_mode_identical_on_updated_and_compacted_index(tmp_path):
    """The MaxScore skip-probe read path must merge generation segment
    rows: global-mode results on the updated index == on its compaction."""
    import numpy as np

    from probe_ray.build import build_index, compact_index, update_index
    from probe_ray.search import Engine

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(30))
    build_index(str(c1), str(tmp_path / "idx"))
    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(30) + _rows(10, start=200, marker="keywordBeta"))
    p = update_index(str(c2), str(tmp_path / "idx"))
    cp = compact_index(str(tmp_path / "idx"), str(tmp_path / "idx2"))

    a = Engine(p)
    b = Engine(cp)
    for q in (["keywordAlpha keywordBeta"], ["loader205 respond"]):
        ga = a.search(q, mode="global", max_results=15)
        gb = b.search(q, mode="global", max_results=15)
        assert ga.column("doc_id").to_pylist() == gb.column("doc_id").to_pylist(), q
        assert np.allclose(
            ga.column("score").to_pylist(), gb.column("score").to_pylist()
        ), q
        ba = a.search_blocks(q, mode="global", max_results=10)
        bb = b.search_blocks(q, mode="global", max_results=10)
        assert ba.drop_columns(["code"]).equals(bb.drop_columns(["code"])) or (
            ba.column("path").to_pylist() == bb.column("path").to_pylist()
        ), q


def test_ngram_index_update_appends_gram_generation(tmp_path):
    """Ngram-indexed builds append gram segments per generation: substring
    (quoted) queries on the updated index match a fresh full build of the
    union corpus, and compaction carries the gram index over."""
    from probe_ray.build import build_index, compact_index, update_index
    from probe_ray.search import Engine

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(6))
    build_index(str(c1), str(tmp_path / "idx"), ngram_index=True)
    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(6) + _rows(3, start=70, marker="zetaQualifier"))
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert len(p.update_gens()) == 1
    assert os.path.isdir(os.path.join(p.update_gens()[0], "ngrams"))

    fresh = build_index(str(c2), str(tmp_path / "fresh"), ngram_index=True)
    a = Engine(p)
    b = Engine(fresh)
    # substring fragment that only exists in the ADDED docs and crosses
    # token boundaries (the gram index's job)
    for q in (['"etaqual"'], ['"zetaQualifier"'], ['"loader7"']):
        ra = a.search(q, max_results=20)
        rb = b.search(q, max_results=20)
        assert sorted(ra.column("path").to_pylist()) == sorted(
            rb.column("path").to_pylist()
        ), q
    cp = compact_index(str(tmp_path / "idx"), str(tmp_path / "idx2"))
    c = Engine(cp)
    for q in (['"etaqual"'],):
        assert sorted(c.search(q).column("path").to_pylist()) == sorted(
            a.search(q).column("path").to_pylist()
        )


def test_changed_file_rebuild_preserves_ngram_index(tmp_path):
    """The changed/removed full-rebuild fallback must carry ngram_index
    over — dropping it would silently lose substring retrieval."""
    from probe_ray.build import build_index, update_index

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(4))
    build_index(str(c1), str(tmp_path / "idx"), ngram_index=True)
    # change one file's content -> rebuild path
    rows = _rows(4)
    rows[1]["content"] += "// zetaQualifier trailer\n"
    c2 = tmp_path / "c2.parquet"
    _write(c2, rows)
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert p.update_gens() == []  # rebuilt, not appended
    assert p.stats().get("has_ngrams")
    from probe_ray.search import Engine

    got = Engine(p).search(['"etaqual"'], max_results=10)
    assert "src/file1.rs" in got.column("path").to_pylist()


def test_update_new_commit_of_same_path_is_added_with_unique_doc_id(tmp_path):
    """ADVICE r4 (high): the diff/id assignment must key on the full
    (repo, path, commit) triple. Two commits of one path are two docs with
    DISTINCT doc ids; a new commit with an UNCHANGED content sha is still
    an addition (it used to be classified 'same' and silently skipped)."""
    from probe_ray.build import build_index, update_index
    from probe_ray.oracle import oracle_search_docs
    from probe_ray.search import Engine

    base_rows = _rows(3)
    c1 = tmp_path / "c1.parquet"
    _write(c1, base_rows)
    paths = build_index(str(c1), str(tmp_path / "idx"))
    n0 = paths.stats()["n_docs"]

    # same path re-appears at a NEW commit: once with changed content and
    # once (file1) with byte-identical content (same sha as the base doc)
    new_rows = [
        dict(base_rows[0], commit="1" * 40,
             content=base_rows[0]["content"] + "// keywordGamma\n"),
        dict(base_rows[1], commit="2" * 40),  # identical content, new commit
    ]
    c2 = tmp_path / "c2.parquet"
    _write(c2, base_rows + new_rows)
    p2 = update_index(str(c2), str(tmp_path / "idx"))

    assert len(p2.update_gens()) == 1  # append, not rebuild
    st = p2.stats()
    assert st["n_docs"] == n0 + 2
    docs = _docs_from_index(p2)
    ids = [d.doc_id for d in docs]
    assert sorted(ids) == list(range(n0 + 2))  # dense, no duplicates
    # both commits of file0 / file1 are present as separate docs
    by_key = {(d.path, d.commit) for d in docs}
    assert ("src/file0.rs", "0" * 40) in by_key
    assert ("src/file0.rs", "1" * 40) in by_key
    assert ("src/file1.rs", "2" * 40) in by_key

    eng = Engine(p2)
    for queries in (["keywordGamma"], ["keywordAlpha"], ["loader1"]):
        got = eng.search(queries, max_results=20)
        want = oracle_search_docs(docs, queries, max_results=20)
        assert got.column("doc_id").to_pylist() == [
            r.doc_id for r in want
        ], queries


def test_update_duplicate_triple_conflicting_content_rebuilds(tmp_path):
    """A corpus carrying the same (repo, path, commit) twice with different
    content is routed through the full-rebuild path instead of colliding
    doc ids inside a generation."""
    from probe_ray.build import build_index, update_index

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(3))
    build_index(str(c1), str(tmp_path / "idx"))

    dup_a = _rows(1, start=9)[0]
    dup_b = dict(dup_a, content=dup_a["content"] + "// other\n")
    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(3) + [dup_a, dup_b])
    p = update_index(str(c2), str(tmp_path / "idx"))
    assert p.update_gens() == []  # rebuilt


def test_update_onto_empty_base_index_has_untrimmed_doc_lens(tmp_path):
    """ADVICE r4: a zero-doc base writes a (1,)-padded doc_lens.npy; the
    reader and compact_index must trim each slice to its recorded count or
    every generation doc's length shifts by one."""
    import numpy as np

    from probe_ray.build import build_index, compact_index, update_index
    from probe_ray.oracle import oracle_search_docs
    from probe_ray.search import Engine

    empty = pa.table(
        {c: pa.array([], pa.string())
         for c in ("repo", "path", "commit", "lang", "content")}
    )
    c0 = tmp_path / "c0.parquet"
    pq.write_table(empty, str(c0))
    paths = build_index(str(c0), str(tmp_path / "idx"))
    assert paths.stats()["n_docs"] == 0

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(4))
    p1 = update_index(str(c1), str(tmp_path / "idx"))
    assert len(p1.update_gens()) == 1 and p1.stats()["n_docs"] == 4

    eng = Engine(p1)
    dl = eng._doc_len_array()
    assert dl.shape[0] == 4 and int(dl[0]) > 0
    docs = _docs_from_index(p1)
    got = eng.search(["keywordAlpha"], max_results=10)
    want = oracle_search_docs(docs, ["keywordAlpha"], max_results=10)
    assert got.column("doc_id").to_pylist() == [r.doc_id for r in want]
    assert np.allclose(
        got.column("score").to_pylist(), [r.score for r in want], atol=1e-9
    )

    p2 = compact_index(str(tmp_path / "idx"), str(tmp_path / "idx2"))
    dl2 = np.load(p2.doc_lens_path)
    assert dl2.shape[0] == 4
    assert np.array_equal(np.asarray(dl, dtype=dl2.dtype), dl2)


def test_unicode_normalize_passes_null_text_through(tmp_path):
    """ADVICE r4: a null text row flows through like the oracle's NULL."""
    from probe_ray import textops

    d = tmp_path / "sf"
    d.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["café", None], pa.string()),
        }),
        str(d / "documents.parquet"),
    )
    rows = sorted(
        textops.unicode_normalize(str(d)).take_all(),
        key=lambda r: r["doc_id"],
    )
    assert rows[0]["norm_text"] == "café"
    assert rows[1]["norm_text"] is None


def _dir_corpus(tmp_path, name, files):
    """Write a corpus DIRECTORY: {filename: rows}."""
    d = tmp_path / name
    d.mkdir()
    for fname, rows in files.items():
        _write(d / fname, rows)
    return str(d)


def test_append_only_fast_path_rank_identical(tmp_path):
    """New parquet files appended to an untouched corpus dir are the only
    rows the diff guards (the guarded_docs count proves it); results stay
    rank-identical to the oracle."""
    from probe_ray.build import build_index, update_index
    from probe_ray.oracle import oracle_search_docs
    from probe_ray.search import Engine

    base = {"part0.parquet": _rows(4), "part1.parquet": _rows(3, start=10)}
    cdir = _dir_corpus(tmp_path, "corpus", base)
    build_index(cdir, str(tmp_path / "idx"))

    _write(
        os.path.join(cdir, "part2.parquet"),
        _rows(3, start=50, marker="keywordBeta"),
    )
    p = update_index(cdir, str(tmp_path / "idx"))
    assert len(p.update_gens()) == 1
    st = p.stats()["metrics"]["last_update"]
    assert st["guarded_docs"] == 3
    assert st["added"] == 3

    eng = Engine(p)
    docs = _docs_from_index(p)
    for queries in (["keywordBeta"], ["keywordAlpha OR keywordBeta"]):
        got = eng.search(queries, max_results=20)
        want = oracle_search_docs(docs, queries, max_results=20)
        assert got.column("doc_id").to_pylist() == [
            r.doc_id for r in want
        ], queries

    # a second append stacks a second generation, guarding only its file
    _write(os.path.join(cdir, "part3.parquet"), _rows(2, start=80))
    p = update_index(cdir, str(tmp_path / "idx"))
    assert len(p.update_gens()) == 2
    assert p.stats()["n_docs"] == 12
    assert p.stats()["metrics"]["last_update"]["guarded_docs"] == 2


_DOC_COLS = ["doc_id", "repo", "path", "commit", "content", "content_sha256",
             "doc_len", "tokens", "shadow_tokens", "n_content_tokens",
             "is_test"]


def _docs_rows(paths):
    """Every docs row (all generations) by doc_id."""
    import pyarrow.dataset as pads

    from probe_ray.build import _parquet_files

    return pads.dataset(_parquet_files(paths.docs_paths())).to_table(
        columns=_DOC_COLS).sort_by("doc_id").to_pylist()


def test_append_only_collision_same_sha_matches_fresh_build(tmp_path):
    """A new file re-adding an existing (repo, path, commit) triple with
    byte-identical content leaves the corpus holding that row twice: the
    update must equal a fresh build of the corpus (n_docs, docs rows by
    doc_id), as it does after every other update."""
    from probe_ray.build import build_index, update_index

    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(4)})
    build_index(cdir, str(tmp_path / "idx"))
    _write(
        os.path.join(cdir, "b.parquet"),
        [_rows(4)[1]] + _rows(1, start=30),  # one dup triple + one new
    )
    p = update_index(cdir, str(tmp_path / "idx"))
    assert p.stats()["metrics"]["last_update"]["mode"] == "full"
    fresh = build_index(cdir, str(tmp_path / "fresh"))
    assert p.stats()["n_docs"] == fresh.stats()["n_docs"] == 6
    assert _docs_rows(p) == _docs_rows(fresh)


def test_append_only_collision_conflicting_content_rebuilds(tmp_path):
    """A new file carrying an existing triple with DIFFERENT content is a
    change in disguise — the diff must route it to the full rebuild."""
    from probe_ray.build import build_index, update_index

    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(4)})
    build_index(cdir, str(tmp_path / "idx"))
    conflicted = dict(_rows(4)[2], content="// totally different\n")
    _write(os.path.join(cdir, "b.parquet"), [conflicted])
    p = update_index(cdir, str(tmp_path / "idx"))
    # routed through the full rebuild (never a generation append that
    # would collide doc ids); the rebuild then applies full-build
    # semantics to the duplicate-triple corpus as-is
    assert p.update_gens() == []


def test_modified_corpus_file_leaves_fast_path(tmp_path):
    """Rewriting an existing corpus file (size/mtime change) makes the diff
    guard the whole corpus; it then sees the content change and
    rebuilds."""
    from probe_ray.build import build_index, update_index

    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(4)})
    build_index(cdir, str(tmp_path / "idx"))
    rows = _rows(4)
    rows[0]["content"] += "// changed trailer\n"
    _write(os.path.join(cdir, "a.parquet"), rows)
    p = update_index(cdir, str(tmp_path / "idx"))
    assert p.update_gens() == []  # whole-corpus diff -> rebuild
    st = p.stats()
    assert st["n_docs"] == 4
    from probe_ray.search import Engine

    got = Engine(p).search(["trailer"], max_results=5)
    assert got.num_rows == 1


def test_update_sequence_fuzz_matches_fresh_build(tmp_path):
    """Property fuzz: random add/modify/remove sequences, several
    generations deep, with a stale crash .tmp injected mid-sequence. After
    a modify or remove step (a renumbering rebuild) the updated index must
    return the SAME (doc_id, rank, score) rows as a from-scratch build of
    the same corpus, in compat and global mode. After an add step (an
    append generation) tie ORDER may deviate (documented Lucene-id
    contract), so rows are compared as (path, score) sets."""
    import random
    import shutil

    from probe_ray.build import build_index, update_index
    from probe_ray.search import Engine

    def results_of(paths, queries, mode, exact):
        got = Engine(paths).search(queries, max_results=100, mode=mode)
        scores = [round(s, 9) for s in got.column("score").to_pylist()]
        if exact:
            return list(zip(got.column("doc_id").to_pylist(),
                            got.column("rank").to_pylist(), scores))
        return sorted(zip(got.column("path").to_pylist(), scores))

    queries_list = (["keywordAlpha"], ["keywordBeta"],
                    ["keywordAlpha OR keywordBeta"], ["respond AND loader1"])

    for seed, ngram in ((11, False), (29, True)):
        rng = random.Random(seed)
        cdir = tmp_path / f"corpus{seed}"
        cdir.mkdir()
        state = {}  # filename -> rows
        next_id = 0

        def fresh_rows(n):
            nonlocal next_id
            rows = _rows(
                n, start=next_id,
                marker=rng.choice(["keywordAlpha", "keywordBeta"]),
            )
            next_id += n
            return rows

        state["base.parquet"] = fresh_rows(5)
        _write(cdir / "base.parquet", state["base.parquet"])
        idx = str(tmp_path / f"idx{seed}")
        build_index(str(cdir), idx, ngram_index=ngram)

        for step in range(5):
            op = rng.choice(["add", "add", "modify", "remove"])
            if op == "add" or len(state) == 1:
                op = "add"
                fname = f"add{step}.parquet"
                state[fname] = fresh_rows(rng.randint(1, 4))
                _write(cdir / fname, state[fname])
            elif op == "modify":
                fname = rng.choice(sorted(state))
                rows = [dict(r) for r in state[fname]]
                rows[rng.randrange(len(rows))]["content"] += (
                    f"// fuzz{step}\n"
                )
                state[fname] = rows
                _write(cdir / fname, rows)
            else:  # remove
                fname = rng.choice(sorted(state))
                del state[fname]
                os.unlink(cdir / fname)
            if step == 2:
                # injected crash leftover: must be swept, not served
                stale = os.path.join(idx, "updates", "gen-7.tmp")
                os.makedirs(os.path.join(stale, "docs"), exist_ok=True)

            p = update_index(str(cdir), idx)
            last = p.stats()["metrics"]["last_update"]
            assert last["mode"] == ("append" if op == "add" else "renumber"), (
                seed, step, op, last
            )

            fresh_dir = str(tmp_path / f"fresh{seed}_{step}")
            if os.path.exists(fresh_dir):
                shutil.rmtree(fresh_dir)
            f = build_index(str(cdir), fresh_dir, ngram_index=ngram)
            assert p.stats()["n_docs"] == f.stats()["n_docs"]
            assert p.stats()["sum_dl"] == f.stats()["sum_dl"]
            for mode in ("compat", "global"):
                for queries in queries_list:
                    exact = op != "add"
                    assert results_of(p, queries, mode, exact) == results_of(
                        f, queries, mode, exact
                    ), (seed, step, op, mode, queries)
            if ngram:
                for q in (['"oader1"'], ['"pha;"']):
                    assert results_of(p, q, "compat", op != "add") == \
                        results_of(f, q, "compat", op != "add"), (seed, step, q)


def test_one_changed_file_tokenizes_one_doc(tmp_path):
    """A change to one file re-tokenizes that file only: the renumbering
    rebuild reuses every other stored docs row (all generations) and gives
    every doc its fresh-build id."""
    import numpy as np
    import pyarrow.dataset as pads

    from probe_ray.build import build_index, update_index

    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(6)})
    build_index(cdir, str(tmp_path / "idx"))
    _write(os.path.join(cdir, "b.parquet"), _rows(3, start=40))
    p = update_index(cdir, str(tmp_path / "idx"))
    assert p.stats()["metrics"]["last_update"]["mode"] == "append"

    rows = _rows(6)
    rows[4]["content"] += "// one change\n"
    _write(os.path.join(cdir, "a.parquet"), rows)
    p = update_index(cdir, str(tmp_path / "idx"))
    last = p.stats()["metrics"]["last_update"]
    assert (last["mode"], last["tokenized_docs"], last["reused_docs"]) == (
        "renumber", 1, 8
    )
    assert "diff" in last["stage_sec"] and "docs" in last["stage_sec"]
    assert p.update_gens() == []

    fresh = build_index(cdir, str(tmp_path / "fresh"))
    cols = ["doc_id", "repo", "path", "commit", "content_sha256", "doc_len",
            "tokens", "shadow_tokens", "n_content_tokens", "is_test"]

    def docs(paths):
        return pads.dataset(paths.docs_dir).to_table(columns=cols).sort_by(
            "doc_id").to_pylist()

    assert docs(p) == docs(fresh)
    assert np.array_equal(np.load(p.doc_lens_path), np.load(fresh.doc_lens_path))
    for k in ("n_docs", "sum_dl", "avgdl", "salt_shift"):
        assert p.stats()[k] == fresh.stats()[k], k


def test_renumber_crash_before_rename_keeps_old_index(tmp_path):
    """A failure inside the renumbering rebuild, before its rename, leaves
    the old index serving the pre-update corpus; the next update finishes
    (resuming the crashed stages) with fresh-build results."""
    from probe_ray.build import build_index, update_index
    from probe_ray.search import Engine

    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(5) + _rows(2, start=20, marker="keywordBeta"))
    idx = str(tmp_path / "idx")
    build_index(str(c1), idx)
    before = Engine(idx).search(["keywordAlpha OR keywordBeta"]).to_pylist()

    rows = _rows(5)[1:]  # file0 removed
    rows[0]["content"] += "// keywordBeta\n"  # file1 changed
    c2 = tmp_path / "c2.parquet"
    _write(c2, rows + _rows(2, start=20, marker="keywordBeta"))
    for stage in ("docs", "segments"):
        with pytest.raises(RuntimeError, match="injected failure"):
            update_index(str(c2), idx, _fail_after=stage)
        assert os.path.isdir(idx + ".tmp")
        assert Engine(idx).search(
            ["keywordAlpha OR keywordBeta"]).to_pylist() == before
        assert Engine(idx).paths.stats()["n_docs"] == 7

    p = update_index(str(c2), idx)
    assert not os.path.exists(idx + ".tmp")
    assert p.stats()["metrics"]["last_update"]["mode"] == "renumber"
    fresh = build_index(str(c2), str(tmp_path / "fresh"))
    for q in (["keywordAlpha OR keywordBeta"], ["keywordBeta"]):
        a = Engine(p).search(q).to_pylist()
        b = Engine(fresh).search(q).to_pylist()
        assert [(r["doc_id"], r["rank"], r["score"]) for r in a] == [
            (r["doc_id"], r["rank"], r["score"]) for r in b
        ], q


def test_append_only_all_delta_rows_guarded_is_noop(tmp_path):
    """Code-review r5: a new parquet file whose every row is dropped by
    the guard (NUL content) is a clean no-op append, not a crash."""
    from probe_ray.build import build_index, update_index

    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(3)})
    build_index(cdir, str(tmp_path / "idx"))
    bad = _rows(1, start=50)
    bad[0]["content"] = "has a NUL \x00 byte"
    _write(os.path.join(cdir, "b.parquet"), bad)
    p = update_index(cdir, str(tmp_path / "idx"))
    assert p.update_gens() == []  # nothing indexable added
    assert p.stats()["n_docs"] == 3
    # idempotent: fingerprint stamped, second call is a no-op
    p = update_index(cdir, str(tmp_path / "idx"))
    assert p.stats()["n_docs"] == 3


def test_append_duplicate_identical_rows_rebuild(tmp_path):
    """Code-review r5: byte-identical duplicate ROWS of one new triple
    must not share a doc id inside a generation — the diff routes them
    through the full rebuild whichever corpus rows it guards."""
    from probe_ray.build import build_index, update_index

    # new files only guarded
    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(3)})
    build_index(cdir, str(tmp_path / "idx"))
    dup = _rows(1, start=60)
    _write(os.path.join(cdir, "b.parquet"), dup + dup)  # same row twice
    p = update_index(cdir, str(tmp_path / "idx"))
    assert p.update_gens() == []  # rebuilt, not appended

    # whole corpus guarded (a single-file corpus has no per-file records)
    c1 = tmp_path / "c1.parquet"
    _write(c1, _rows(3))
    build_index(str(c1), str(tmp_path / "idx2"))
    c2 = tmp_path / "c2.parquet"
    _write(c2, _rows(3) + dup + dup)
    p = update_index(str(c2), str(tmp_path / "idx2"))
    assert p.update_gens() == []  # rebuilt, not appended


def test_write_path_runs_each_map_once(tmp_path, monkeypatch):
    """A lazy map's ``to_arrow_refs()`` runs the map again under a limit to
    fetch the schema, then cancels that run: no Ray Data job of a build, an
    append update or a changed-file update may carry such a limit. Each
    update runs one sort, the posting shuffle (its diff runs none), and an
    append runs four Ray Data jobs: the diff's guard and the tail's key
    table, doc lengths and segments."""
    from ray.data._internal.execution import streaming_executor as se

    from probe_ray.build import build_index, update_index

    plans = []
    execute = se.StreamingExecutor.execute

    def record(self, dag, *args, **kwargs):
        plans.append(dag.dag_str)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", record)
    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(6)})
    build_index(cdir, str(tmp_path / "idx"))
    n_build = len(plans)
    _write(os.path.join(cdir, "b.parquet"), _rows(3, start=40))
    assert update_index(cdir, str(tmp_path / "idx")).stats()["metrics"][
        "last_update"]["mode"] == "append"
    append = plans[n_build:]
    rows = _rows(6)
    rows[2]["content"] += "// one change\n"
    _write(os.path.join(cdir, "a.parquet"), rows)
    assert update_index(cdir, str(tmp_path / "idx")).stats()["metrics"][
        "last_update"]["mode"] == "renumber"
    change = plans[n_build + len(append):]
    assert plans
    assert not [p for p in plans if "limit=1" in p], plans
    assert len(append) == 4, append
    for update in (append, change):
        assert sum(p.count("AllToAllOperator[Sort]") for p in update) == 1, \
            update


def test_update_past_driver_key_cap_runs_full_build(tmp_path, monkeypatch):
    """Past DRIVER_KEY_SORT_MAX the diff pulls no keys: the update takes
    the full build and equals a fresh build of the corpus."""
    import probe_ray.build as B

    cdir = _dir_corpus(tmp_path, "corpus", {"a.parquet": _rows(5)})
    B.build_index(cdir, str(tmp_path / "idx"))
    monkeypatch.setattr(B, "DRIVER_KEY_SORT_MAX", 1)
    _write(os.path.join(cdir, "b.parquet"), _rows(2, start=40))
    p = B.update_index(cdir, str(tmp_path / "idx"))
    assert p.stats()["metrics"]["last_update"]["mode"] == "full"
    assert p.update_gens() == []
    fresh = B.build_index(cdir, str(tmp_path / "fresh"))
    assert p.stats()["n_docs"] == fresh.stats()["n_docs"] == 7
    assert _docs_rows(p) == _docs_rows(fresh)


def test_same_size_rewrite_within_a_second_is_indexed(tmp_path):
    """A corpus file rewritten at the same size with an mtime 1 us later
    is a new corpus: update_index and build_index both index the new
    content."""
    from probe_ray.build import build_index, update_index
    from probe_ray.search import Engine

    def write(content):
        pq.write_table(pa.Table.from_pylist([dict(
            repo="org/app", path="src/a.rs", commit="0" * 40, lang="rust",
            content=content,
        )]), str(c), compression="none")

    c = tmp_path / "c.parquet"
    write("fn alpha() {}")
    idx, other = str(tmp_path / "idx"), str(tmp_path / "other")
    build_index(str(c), idx)
    build_index(str(c), other)
    st = os.stat(c)
    write("fn omega() {}")
    os.utime(c, ns=(st.st_atime_ns, st.st_mtime_ns + 1000))
    assert os.stat(c).st_size == st.st_size

    for p in (update_index(str(c), idx), build_index(str(c), other)):
        eng = Engine(p)
        assert eng.search(["omega"]).num_rows == 1
        assert eng.search(["alpha"]).num_rows == 0
