"""Index build: resume manifests, determinism, codec round-trip."""

import glob
import json

import numpy as np
import pyarrow.parquet as pq
import pytest


def test_codec_roundtrip_block_boundaries():
    from probe_ray.codec import decode_postings, encode_postings, merge_encoded

    rng = np.random.default_rng(1)
    for n in [1, 127, 128, 129, 4096]:
        ids = np.sort(rng.choice(np.arange(4 * n, dtype=np.uint64), n, replace=False))
        tfs = rng.integers(1, 4, n).astype(np.uint8)
        blob, skip, bmax = encode_postings(ids, tfs)
        ids2, tfs2 = decode_postings(blob)
        assert np.array_equal(ids, ids2) and np.array_equal(tfs, tfs2)
        nblocks = (n + 127) // 128
        assert len(skip) == nblocks * 16
        assert len(bmax) == nblocks
    a = np.array([3, 10], dtype=np.uint64)
    b = np.array([1, 7, 20], dtype=np.uint64)
    m, _, _ = merge_encoded(
        [encode_postings(a, np.ones(2, np.uint8))[0],
         encode_postings(b, np.ones(3, np.uint8))[0]]
    )
    ids, _ = decode_postings(m)
    assert ids.tolist() == [1, 3, 7, 10, 20]


def test_build_resume_reuses_manifest(ray_session, tmp_path):
    """Second build with an unchanged fingerprint is a no-op reuse;
    overwrite=True rebuilds (write-temp-then-rename atomicity)."""
    import time

    from probe_ray.build import build_index
    from probe_ray.corpus import write_corpus

    corpus = str(tmp_path / "c.parquet")
    write_corpus(corpus, "t1")
    out = str(tmp_path / "idx")
    p1 = build_index(corpus, out)
    manifest1 = json.load(open(p1.manifest_path))
    t0 = time.time()
    p2 = build_index(corpus, out)  # must reuse, not rebuild
    assert time.time() - t0 < 1.0
    assert json.load(open(p2.manifest_path)) == manifest1


def test_build_deterministic_across_runs(ray_session, tmp_path):
    """Two independent builds of the same corpus produce identical doc-id
    assignments and identical per-term postings (SURVEY.md §5 determinism)."""
    from probe_ray import codec
    from probe_ray.build import build_index
    from probe_ray.corpus import write_corpus

    corpus = str(tmp_path / "c.parquet")
    write_corpus(corpus, "t1")

    def snapshot(out):
        paths = build_index(corpus, out, overwrite=True)
        docs = pq.read_table(
            paths.docs_dir, columns=["doc_id", "repo", "path", "content_sha256"]
        ).sort_by("doc_id")
        seg_files = glob.glob(paths.segments_dir + "/**/*.parquet", recursive=True)
        postings = {}
        for f in seg_files:
            t = pq.read_table(f, columns=["term", "salt", "blob"])
            for term, salt, blob in zip(
                t.column("term").to_pylist(),
                t.column("salt").to_pylist(),
                t.column("blob").to_pylist(),
            ):
                ids, tfs = codec.decode_postings(blob)
                cur = postings.setdefault(term, [])
                cur.extend(zip(ids.tolist(), tfs.tolist()))
        postings = {t: sorted(v) for t, v in postings.items()}
        return docs.to_pydict(), postings

    d1, p1 = snapshot(str(tmp_path / "idx1"))
    d2, p2 = snapshot(str(tmp_path / "idx2"))
    assert d1 == d2
    assert p1 == p2


def test_doc_lens_sharded_multi_shard(ray_session, tmp_path, monkeypatch):
    """The doc-length attribute file is written as per-id-range slices from
    Ray tasks and stream-concatenated — with a tiny shard size the multi-
    shard path must still produce the exact dense doc_id -> doc_len array
    (including the trimmed final shard) and the same corpus stats."""
    import numpy as np

    import probe_ray.build as B
    from probe_ray.corpus import write_corpus

    monkeypatch.setattr(B, "DOC_LEN_SHARD", 8)
    corpus = str(tmp_path / "c.parquet")
    write_corpus(corpus, "t2")  # ~tens of docs -> several shards at size 8
    paths = B.build_index(corpus, str(tmp_path / "idx"))
    docs = pq.read_table(paths.docs_dir, columns=["doc_id", "doc_len"])
    n = docs.num_rows
    assert n > 8, "corpus must span multiple shards for this test"
    arr = np.load(paths.doc_lens_path, mmap_mode="r")
    assert arr.shape == (n,) and arr.dtype == np.int32
    expect = np.zeros(n, dtype=np.int32)
    expect[docs.column("doc_id").to_numpy()] = docs.column("doc_len").to_numpy()
    assert np.array_equal(np.asarray(arr), expect)
    stats = paths.stats()
    assert stats["n_docs"] == n
    assert stats["sum_dl"] == int(expect.sum())


def test_doc_ids_follow_sort_order(t1_index):
    docs = pq.read_table(t1_index.docs_dir, columns=["doc_id", "repo", "path", "commit"])
    rows = sorted(
        zip(
            docs.column("doc_id").to_pylist(),
            docs.column("repo").to_pylist(),
            docs.column("path").to_pylist(),
            docs.column("commit").to_pylist(),
        )
    )
    keys = [(r, p, c) for _, r, p, c in rows]
    assert keys == sorted(keys)
    assert [d for d, *_ in rows] == list(range(len(rows)))


def test_stats_consistency(t2_index):
    stats = t2_index.stats()
    docs = pq.read_table(t2_index.docs_dir, columns=["doc_len"])
    assert stats["n_docs"] == docs.num_rows
    assert stats["sum_dl"] == sum(docs.column("doc_len").to_pylist())


def test_mid_build_resume(ray_session, tmp_path):
    """Crash after the docs stage; the rerun reuses the completed docs stage
    (file mtimes unchanged) and finishes an identical index."""
    import os
    import time

    import pytest as _pytest

    from probe_ray.build import build_index
    from probe_ray.corpus import write_corpus

    corpus = str(tmp_path / "c.parquet")
    write_corpus(corpus, "t1")
    out = str(tmp_path / "idx")

    with _pytest.raises(RuntimeError, match="injected failure"):
        build_index(corpus, out, _fail_after="docs")
    tmp_docs = out + ".tmp/docs"
    assert os.path.isdir(tmp_docs)
    mtimes = {
        f: os.path.getmtime(os.path.join(tmp_docs, f))
        for f in os.listdir(tmp_docs)
    }
    time.sleep(0.05)
    paths = build_index(corpus, out)  # resume
    assert os.path.isdir(paths.segments_dir)
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(paths.docs_dir, f)) == m, (
            "docs stage was recomputed on resume"
        )
    # and the resumed index equals a from-scratch one
    ref = build_index(corpus, str(tmp_path / "idx2"))
    assert paths.stats()["sum_dl"] == ref.stats()["sum_dl"]


def test_checkpointed_segment_merge_resume(ray_session, tmp_path):
    """The north rule's checkpointed segment merge: a crash between the
    posting-partials checkpoint and the merge resumes WITHOUT re-encoding
    partials (their file mtimes unchanged), the finished index drops the
    checkpoint dir, and search results equal a from-scratch build."""
    import os
    import time

    import pytest as _pytest

    from probe_ray.build import build_index
    from probe_ray.corpus import write_corpus
    from probe_ray.search import Engine

    corpus = str(tmp_path / "c.parquet")
    write_corpus(corpus, "t1")
    out = str(tmp_path / "idx")

    with _pytest.raises(RuntimeError, match="posting_partials"):
        build_index(
            corpus, out, checkpoint_partials=True,
            _fail_after="posting_partials",
        )
    tmp_partials = out + ".tmp/posting_partials"
    assert os.path.isdir(tmp_partials)
    mtimes = {
        f: os.path.getmtime(os.path.join(tmp_partials, f))
        for f in os.listdir(tmp_partials)
    }
    assert mtimes
    time.sleep(0.05)
    paths = build_index(corpus, out, checkpoint_partials=True)  # merge only
    # checkpoint was consumed and not carried into the final index
    assert not os.path.exists(os.path.join(paths.root, "posting_partials"))
    assert not os.path.exists(out + ".tmp")
    ref = build_index(corpus, str(tmp_path / "idx2"))
    a = Engine(paths).search(["keywordAlpha"], max_results=10).to_pylist()
    b = Engine(ref).search(["keywordAlpha"], max_results=10).to_pylist()
    assert a == b

    # crash AFTER the segments stage (checkpoint already consumed): the
    # resume must NOT try to reopen the deleted partials checkpoint
    out3 = str(tmp_path / "idx3")
    with _pytest.raises(RuntimeError, match="segments"):
        build_index(
            corpus, out3, checkpoint_partials=True, _fail_after="segments"
        )
    assert not os.path.exists(out3 + ".tmp/posting_partials")
    paths3 = build_index(corpus, out3, checkpoint_partials=True)  # resume
    c = Engine(paths3).search(["keywordAlpha"], max_results=10).to_pylist()
    assert c == b


def test_jsonl_and_csv_corpus_sources(ray_session, tmp_path):
    """The same corpus in JSONL or CSV builds an index identical to the
    parquet build (search results equal row-for-row) — the source layer is
    format-agnostic."""
    import csv as _csv
    import json as _json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import build_index
    from probe_ray.search import Engine

    rows = [
        dict(
            repo="r1", path=f"src/alpha{i}.py", commit="0" * 40, lang="python",
            content=f"def handleAlpha{i}():\n    return alphaValue + {i}\n",
        )
        for i in range(6)
    ] + [
        dict(repo="r2", path="src/beta.py", commit="0" * 40, lang="python",
             content="betaValue = computeBeta()\n")
    ]
    pq_path = tmp_path / "c.parquet"
    pq.write_table(pa.table({k: [r[k] for r in rows] for k in rows[0]}), str(pq_path))
    jl_path = tmp_path / "c.jsonl"
    with open(jl_path, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")
    csv_path = tmp_path / "c.csv"
    with open(csv_path, "w", newline="") as f:
        w = _csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    results = {}
    for name, src in (("parquet", pq_path), ("jsonl", jl_path), ("csv", csv_path)):
        paths = build_index(str(src), str(tmp_path / f"idx_{name}"))
        results[name] = Engine(paths).search(["alphaValue"]).to_pylist()
    assert results["jsonl"] == results["parquet"]
    assert results["csv"] == results["parquet"]
    # alphaValue tokenizes to alpha+valu: the 6 alpha files rank first and
    # betaValue's file matches via "valu"
    assert len(results["parquet"]) == 7

    # a standard JSON-array file is rejected with a descriptive error, not
    # a deep pyarrow parse failure
    import pytest

    from probe_ray.build import read_corpus

    arr_path = tmp_path / "c.json"
    with open(arr_path, "w") as f:
        _json.dump(rows, f)
    with pytest.raises(ValueError, match="newline-delimited"):
        read_corpus(str(arr_path))


def test_single_doc_and_tiny_corpus(ray_session, tmp_path):
    """Degenerate corpora: one doc, and a doc with one line — build,
    search (all modes), and block search all behave."""
    import pyarrow as pa

    import ray.data as rd

    from probe_ray.build import build_index
    from probe_ray.search import Engine

    corpus = rd.from_arrow(pa.table({
        "repo": ["r"], "path": ["only.txt"], "commit": ["c"],
        "lang": ["txt"], "content": ["solitary marker line"],
    }))
    paths = build_index(corpus, str(tmp_path / "one"), ngram_index=True)
    eng = Engine(paths)
    # NOTE: a stem-ALTERING query word ("solitary" -> "solitari") would find
    # the doc in document mode (stemmed token membership) but NOT in block
    # mode: the reference's line patterns are the STEMMED keywords, which
    # cannot substring-match the original inflection — a real probe quirk
    # (elastic_query.rs:801 custom_tokenize; query.rs:494 collect_patterns).
    # "marker" is stem-neutral, so both modes agree.
    assert eng.search(["marker"]).num_rows == 1
    assert eng.search(["marker"], mode="global", max_results=5).num_rows == 1
    blk = eng.search_blocks(["marker"])
    assert blk.num_rows == 1
    r = blk.to_pylist()[0]
    assert (r["start_line"], r["end_line"]) == (1, 1)
    assert r["code"] == "solitary marker line"
    # query for something absent
    assert eng.search(["nonexistentzzz"]).num_rows == 0
    assert eng.search_blocks(["nonexistentzzz"]).num_rows == 0


def test_segments_decode_to_reference_postings(t2_index):
    """Every (term, salt) segment row set of the t2 index decodes to the
    postings a per-doc reference combine gives from the stored docs table
    (content tf in bits 0-3, path tf in bits 4-7, tf=0 shadow postings,
    hot terms salted by doc-id range), with df counting tf > 0; a
    single-row run carries exactly one encode of its whole list. The gram
    index likewise holds each doc's set of lowercase 3-grams."""
    import pyarrow.dataset as pads

    from probe_ray import codec

    stats = t2_index.stats()
    hot, shift = set(stats["hot_terms"]), stats["salt_shift"]
    docs = pads.dataset(t2_index.docs_dir).to_table(
        columns=["doc_id", "tokens", "n_content_tokens", "shadow_tokens",
                 "content"]
    ).to_pylist()
    want: dict = {"term": {}, "gram": {}}
    for d in docs:
        did, toks, nc = d["doc_id"], d["tokens"], d["n_content_tokens"]
        counts = dict.fromkeys(toks[:nc], 1)
        for t in toks[nc:]:
            counts[t] = counts.get(t, 0) + 16
        for t in d["shadow_tokens"]:
            counts.setdefault(t, 0)
        for t, tf in counts.items():
            salt = did >> shift if t in hot else 0
            want["term"].setdefault((t, salt), []).append((did, tf))
        cl = d["content"].lower()
        for g in {cl[i:i + 3] for i in range(len(cl) - 2)}:
            want["gram"].setdefault((g, did >> shift), []).append((did, 1))

    for key, root in (("term", t2_index.segments_dir),
                      ("gram", t2_index.ngrams_dir)):
        got: dict = {}
        for r in pads.dataset(root, partitioning="hive").to_table().to_pylist():
            got.setdefault((r[key], r["salt"]), []).append(r)
        assert set(got) == set(want[key]), key
        for k, rows in got.items():
            pairs = []
            for r in rows:
                ids, tfs = codec.decode_postings(r["blob"])
                pairs.extend(zip(ids.tolist(), tfs.tolist()))
            assert sorted(pairs) == sorted(want[key][k]), (key, k)
            assert sum(r["df"] for r in rows) == sum(
                tf > 0 for _, tf in pairs), (key, k)
            if len(rows) == 1 and key == "term":
                ids, tfs = zip(*sorted(pairs))
                blob, skip, bmax = codec.encode_postings(
                    np.array(ids, np.uint64), np.array(tfs, np.uint8))
                assert (rows[0]["blob"], rows[0]["skip"],
                        rows[0]["block_max"]) == (blob, skip, bmax), k


def _decoded_postings(seg_dir):
    from probe_ray import codec

    postings = {}
    for f in glob.glob(seg_dir + "/**/*.parquet", recursive=True):
        t = pq.read_table(f, columns=["term", "blob"])
        for term, blob in zip(t.column("term").to_pylist(),
                              t.column("blob").to_pylist()):
            ids, tfs = codec.decode_postings(blob)
            postings.setdefault(term, []).extend(zip(ids.tolist(), tfs.tolist()))
    return {t: sorted(v) for t, v in postings.items()}


def test_distributed_sort_ids_match_driver_sort(t2_index, tmp_path, monkeypatch):
    """Past DRIVER_KEY_SORT_MAX the ids come from a distributed sort and
    per-block offsets: the docs rows, doc lengths and decoded postings must
    equal those of the default (driver key sort) build."""
    import os

    import probe_ray.build as B

    monkeypatch.setattr(B, "DRIVER_KEY_SORT_MAX", 0)
    corpus = os.path.join(os.path.dirname(t2_index.root), "corpus.parquet")
    paths = B.build_index(corpus, str(tmp_path / "idx"), ngram_index=True)
    assert pq.read_table(paths.docs_dir).sort_by("doc_id").equals(
        pq.read_table(t2_index.docs_dir).sort_by("doc_id"))
    assert np.array_equal(np.load(paths.doc_lens_path),
                          np.load(t2_index.doc_lens_path))
    assert _decoded_postings(paths.segments_dir) == \
        _decoded_postings(t2_index.segments_dir)


def test_docs_written_one_file_per_block(ray_session, tmp_path):
    """The docs stage writes one file per non-empty guarded block (a corpus
    file whose rows are all guarded away writes none), with one schema and
    dense ids; the rows equal guard + tokenize over the whole corpus with
    ids from the sorted keys."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    from probe_ray.build import (_triple_keys, build_index, guard_batch,
                                 tokenize_batch)

    cdir = tmp_path / "corpus"
    cdir.mkdir()
    for f in range(6):
        pq.write_table(pa.table({
            "repo": [f"org/r{f % 2}"] * 40,
            "path": [f"src/m{f}_{i}.rs" for i in range(40)],
            "commit": ["c" * 40] * 40,
            "lang": ["rust"] * 40,
            "content": [
                f"fn load_{f}_{i}() {{ let x = {i}; }}\n"
                + ("\x00" if f == 3 else "")
                for i in range(40)
            ],
        }), str(cdir / f"part-{f}.parquet"))
    paths = build_index(str(cdir), str(tmp_path / "idx"), batch_size=32)

    files = sorted(glob.glob(paths.docs_dir + "/*.parquet"))
    assert len(files) >= 2
    assert len({pq.read_schema(f) for f in files}) == 1
    assert all(pq.read_metadata(f).num_rows > 0 for f in files)
    got = pads.dataset(files).to_table().sort_by("doc_id")
    assert got.column("doc_id").to_pylist() == list(range(200))

    guarded = guard_batch(pa.concat_tables(
        pq.read_table(str(cdir / f"part-{f}.parquet")) for f in range(6)
    ))
    keys = _triple_keys(guarded)
    ids = pa.array(np.searchsorted(np.sort(keys), keys), pa.int64())
    want = tokenize_batch(guarded.append_column("doc_id", ids))
    assert got.equals(want.sort_by("doc_id"))

    # every row guarded away: a well-formed empty index
    nul = tmp_path / "nul.parquet"
    pq.write_table(pq.read_table(str(cdir / "part-3.parquet")), str(nul))
    empty = build_index(str(nul), str(tmp_path / "empty"))
    assert empty.stats()["n_docs"] == 0
    assert glob.glob(empty.docs_dir + "/*.parquet") == []


@pytest.mark.parametrize("driver_key_sort_max", [None, 0])
def test_duplicate_triples_get_distinct_oracle_ids(ray_session, tmp_path,
                                                   monkeypatch,
                                                   driver_key_sort_max):
    """A byte-identical row in two corpus files and one triple with two
    different contents get dense, distinct doc ids in ``oracle.load_docs``
    order (key order, equal keys in file then row order), from the driver
    key sort and from the distributed sort; docs rows and search results
    match the oracle."""
    import pyarrow as pa
    import pyarrow.dataset as pads

    import probe_ray.build as B
    from probe_ray.oracle import load_docs, oracle_search_docs
    from probe_ray.search import Engine

    if driver_key_sort_max is not None:
        monkeypatch.setattr(B, "DRIVER_KEY_SORT_MAX", driver_key_sort_max)

    def row(path, content):
        return dict(repo="org/app", path=path, commit="c" * 40, lang="rust",
                    content=content)

    files = [
        [row("src/a.rs", "fn alpha() { shared_call(); }\n"),
         row("src/x.rs", "fn shared_call() {}\n"),
         row("src/y.rs", "fn first_variant() { shared_call(); }\n")],
        [row("src/y.rs", "fn second_variant() {}\n"),
         row("src/x.rs", "fn shared_call() {}\n"),
         row("src/z.rs", "fn zeta() { second_variant(); }\n")],
    ]
    cdir = tmp_path / "corpus"
    cdir.mkdir()
    for i, rows in enumerate(files):
        pq.write_table(pa.Table.from_pylist(rows),
                       str(cdir / f"part-{i}.parquet"))
    paths = B.build_index(str(cdir), str(tmp_path / "idx"))

    docs = load_docs(files[0] + files[1])
    cols = ["doc_id", "repo", "path", "commit", "content", "content_sha256"]
    got = pads.dataset(paths.docs_dir).to_table(columns=cols).sort_by(
        "doc_id").to_pylist()
    assert [r["doc_id"] for r in got] == list(range(6))
    assert got == [{c: getattr(d, c) for c in cols} for d in docs]

    eng = Engine(paths)
    for queries in (["shared_call"], ["variant"], ["second_variant OR fn"]):
        res = eng.search(queries, max_results=20)
        want = oracle_search_docs(docs, queries, max_results=20)
        assert res.column("doc_id").to_pylist() == [r.doc_id for r in want]
        assert np.allclose(res.column("score").to_pylist(),
                           [r.score for r in want], atol=1e-9), queries
