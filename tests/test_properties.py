"""Property-based tests (hypothesis) — mirrors the reference's proptest
suites (tests/property_tests.rs)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probe_ray.codec import decode_postings, encode_postings, merge_encoded
from probe_ray.stemmer import stem
from probe_ray.tokenizer import split_camel_case, tokenize


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1,
                max_size=512, unique=True),
       st.data())
@settings(max_examples=60, deadline=None)
def test_codec_roundtrip_property(ids, data):
    ids = sorted(ids)
    tfs = [data.draw(st.integers(min_value=0, max_value=255)) for _ in ids]
    blob, skip, bmax = encode_postings(
        np.array(ids, dtype=np.uint64), np.array(tfs, dtype=np.uint8)
    )
    got_ids, got_tfs = decode_postings(blob)
    assert got_ids.tolist() == ids
    assert got_tfs.tolist() == tfs


@given(st.lists(st.lists(st.integers(min_value=0, max_value=10**6),
                         min_size=1, max_size=50, unique=True),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_codec_merge_property(id_lists):
    # make lists disjoint (as the build guarantees per (term, doc))
    seen = set()
    lists = []
    for ids in id_lists:
        ids = sorted(set(ids) - seen)
        if ids:
            seen.update(ids)
            lists.append(ids)
    if not lists:
        return
    blobs = [
        encode_postings(np.array(l, dtype=np.uint64),
                        np.ones(len(l), dtype=np.uint8))[0]
        for l in lists
    ]
    merged_ids, _ = decode_postings(merge_encoded(blobs)[0])
    assert merged_ids.tolist() == sorted(seen)


_word = st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_", min_size=1, max_size=20)


@given(st.lists(_word, min_size=0, max_size=20))
@settings(max_examples=80, deadline=None)
def test_tokenize_deterministic_and_deduped(words):
    text = " ".join(words)
    a = tokenize(text)
    b = tokenize(text)
    assert a == b  # deterministic
    assert len(a) == len(set(a))  # dedup with first-appearance order
    assert all(t == t.lower() for t in a)  # lowercase output


@given(_word)
@settings(max_examples=120, deadline=None)
def test_camel_split_covers_input(word):
    parts = split_camel_case(word)
    # concatenated parts contain exactly the input's characters (lowercased)
    # for the pure state-machine path; cached/exception splits may reorder,
    # so only assert non-emptiness + lowercase
    assert parts == [] or all(p == p.lower() for p in parts)


@given(_word.map(str.lower))
@settings(max_examples=120, deadline=None)
def test_stemmer_total_and_idempotent_on_short(word):
    s = stem(word)
    assert isinstance(s, str) and s
    assert len(s) <= len(word) + 1  # step 1b may append an 'e'


@given(st.text(max_size=300))
@settings(max_examples=60, deadline=None)
def test_tokenize_never_crashes(text):
    tokens = tokenize(text)
    assert isinstance(tokens, list)


def test_decode_postings_selective_matches_full():
    """Skip-pointer selective decode returns exactly the blocks containing
    wanted ids, with values identical to the full decode (block-boundary
    cases: 1, 127, 128, 129, 1000 postings; salted-style sublists)."""
    import numpy as np

    from probe_ray import codec

    rng = np.random.default_rng(11)
    for n in (1, 2, 127, 128, 129, 300, 1000):
        ids = np.unique(rng.integers(0, n * 37, size=n).astype(np.uint64))
        tfs = rng.integers(1, 16, size=ids.size).astype(np.uint8)
        blob, skip, _ = codec.encode_postings(ids, tfs)
        full_ids, full_tfs = codec.decode_postings(blob)
        assert np.array_equal(full_ids, ids)
        # wanted: a few present ids + a few absent
        want = np.unique(
            np.concatenate(
                [ids[:: max(1, ids.size // 7)].astype(np.int64),
                 np.array([0, int(ids.max()) + 5], dtype=np.int64)]
            )
        )
        sel_ids, sel_tfs = codec.decode_postings_selective(blob, skip, want)
        # every wanted id that exists must be present with the right tf
        tf_by_id = dict(zip(full_ids.tolist(), full_tfs.tolist()))
        sel_map = dict(zip(sel_ids.tolist(), sel_tfs.tolist()))
        for w in want.tolist():
            if w in tf_by_id:
                assert sel_map[w] == tf_by_id[w], (n, w)
        # selected ids are a SUBSET of the full list (no corruption)
        assert set(sel_ids.tolist()) <= set(full_ids.tolist())
        # and the selection reads fewer (or equal) blocks than the total
        assert sel_ids.size <= full_ids.size


def test_fallback_windows_properties():
    """Invariants of the fallback window merger for random inputs:
    windows sorted, non-overlapping after merge, every matched line inside
    exactly one window, spans clamped to the file."""
    import random

    from probe_ray.blocks import fallback_windows

    rng = random.Random(5)
    for _ in range(200):
        n_lines = rng.randint(1, 120)
        matched = {
            rng.randint(1, n_lines) for _ in range(rng.randint(1, 12))
        }
        ws = fallback_windows(matched, n_lines)
        assert ws == sorted(ws, key=lambda w: w[1])
        prev_end = 0
        covered = set()
        for lines, start, end in ws:
            assert 1 <= start <= end <= n_lines
            assert start > prev_end  # merged windows never overlap
            prev_end = end
            for l in lines:
                assert start <= l <= end
            covered.update(lines)
        assert covered == {l for l in matched if l <= n_lines}


def test_line_term_matches_matches_naive_property():
    import random

    from probe_ray.blocks import line_term_matches

    rng = random.Random(9)
    alphabet = "abcx _()"
    for _ in range(150):
        lines = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
                 for _ in range(rng.randint(1, 10))]
        pats = {
            i: ["".join(rng.choice("abc") for _ in range(rng.randint(1, 3)))]
            for i in range(rng.randint(1, 4))
        }
        fast = line_term_matches(lines, pats)
        low = [l.lower() for l in lines]
        slow = {}
        for idx, needles in pats.items():
            hit = {n + 1 for n, ll in enumerate(low) if any(p in ll for p in needles)}
            if hit:
                slow[idx] = hit
        assert fast == slow


# code-ish text generator: lines drawn from keywords, braces, quotes,
# comments and identifiers — hostile to a regex/brace scanner without
# being pure noise
_code_line = st.text(
    alphabet=(
        "abcdefXYZ0129_ \t(){}[];:,.\"'`#/\\*=<>-+!?@$&|~\n"
        "defclassfnpubfuncifelseendmodulereturn"
    ),
    max_size=60,
)


@given(st.lists(_code_line, min_size=0, max_size=30),
       st.sampled_from(["rs", "py", "go", "js", "ts", "java", "c", "cpp",
                        "cs", "rb"]))
@settings(max_examples=120, deadline=None)
def test_structparse_never_crashes_and_spans_in_bounds(lines, ext):
    """structparse invariants on ARBITRARY text for all ten languages:
    never raises, scan preserves line count and lengths, every span is a
    well-formed 1-based range inside the file, and analysis is
    deterministic."""
    from probe_ray import structparse as sp

    flat = [l.replace("\n", " ") for l in lines]  # lines are single lines
    code, comment_only, in_str = sp.scan_lines(flat, ext)
    assert len(code) == len(flat)
    assert all(len(c) == len(l) for c, l in zip(code, flat))
    spans = sp.structural_spans(flat, ext)
    for s in spans:
        assert 1 <= s.start <= s.end <= max(len(flat), 1), (s, ext)
    assert spans == sp.structural_spans(flat, ext)


_limit = st.one_of(st.none(), st.just(0), st.integers(1, 400), st.integers(5_000, 10**6))


@given(st.lists(st.integers(0, 300), max_size=40), _limit, _limit, _limit,
       st.one_of(st.none(), st.integers(0, 30)), st.data())
@settings(max_examples=300, deadline=None)
def test_table_limiter_matches_oracle_limits(sizes, max_results, max_bytes,
                                             max_tokens, max_iter, data):
    """search._apply_limits over a stream of 1-4 finished tables equals
    oracle.apply_limits: the admitted rows, the running totals and the
    limit-skip count; a limiter that stops on a limit reads no table past
    the one holding the last row it examines."""
    from types import SimpleNamespace

    import pyarrow as pa

    from probe_ray import oracle
    from probe_ray import search as S

    spec = S._DOC_FINISH
    n = len(sizes)
    table = pa.Table.from_pydict({
        "doc_id": list(range(n)), "repo": ["r"] * n,
        "path": [f"f{i}" for i in range(n)], "kws_bits": [b""] * n,
        "matched_bits": [b""] * n, "n_bytes": sizes,
        "rank": list(range(1, n + 1)), "score": [1.0] * n, "bm25_score": [1.0] * n,
    }, schema=spec.empty.schema)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    bounds = [0, *cuts, n]
    tables = [table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    pulled = []

    def stream():
        for t in tables:
            pulled.append(t)
            yield t

    got, meta = S._apply_limits(stream(), spec, n, max_results, max_bytes,
                                max_tokens, max_iter=max_iter)

    limited = not (max_results is None and max_bytes is None and max_tokens is None)
    examined = n if max_results is not None or max_iter is None else min(n, max_iter)
    hits = [oracle.SearchHit(i, "r", f"f{i}", i + 1, 1.0, 1.0, [])
            for i in range(examined if limited else n)]
    docs = {i: SimpleNamespace(content="x" * s) for i, s in enumerate(sizes)}
    want = oracle.apply_limits(hits, docs, max_results, max_bytes, max_tokens)
    assert got.column("doc_id").to_pylist() == [h.doc_id for h in want]
    if not limited:
        assert meta == S._NO_LIMITS
        return
    kept = [sizes[h.doc_id] for h in want]
    assert meta == dict(
        limits_applied=dict(
            max_results=max_results, max_bytes=max_bytes, max_tokens=max_tokens,
            total_bytes=sum(kept), total_tokens=sum(s // 4 for s in kept),
        ),
        n_skipped_by_limits=n - len(want),
    )
    # rows examined: the admitted ones, plus the one a limit refused
    if max_results is not None:
        examined = min(examined, max_results)
    seen = min(len(want) + 1, examined)
    if seen < n:
        assert len(pulled) == next(j for j, b in enumerate(bounds) if b >= seen)


def _hot_terms_loop(rows, threshold_frac, sample_rows):
    """Reference: doc frequency of each term over the first ``sample_rows``
    rows, counted per row over the set of its tokens and shadow tokens."""
    sample = rows[:sample_rows]
    df = {}
    for toks, shadows in sample:
        for t in set(toks) | set(shadows):
            df[t] = df.get(t, 0) + 1
    cutoff = max(2, int(threshold_frac * len(sample)))
    return {t: c for t, c in df.items() if c >= cutoff}


_terms = st.lists(st.sampled_from(["fn", "let", "x", "load", "ok", "é"]),
                  max_size=6)


@given(st.lists(st.lists(st.tuples(_terms, _terms), max_size=12),
                min_size=1, max_size=3),
       st.sampled_from([0.05, 0.3, 0.6]), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_hot_term_sample_matches_reference_loop(files, frac, sample_rows):
    """sample_hot_terms' Arrow count equals the per-row set loop: repeated
    tokens in a row, a term in both tokens and shadow_tokens, empty rows,
    several docs files and fewer rows than ``sample_rows``."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from probe_ray.build import sample_hot_terms

    with tempfile.TemporaryDirectory() as d:
        for i, rows in enumerate(files):
            pq.write_table(pa.table({
                "tokens": pa.array([r[0] for r in rows],
                                   pa.list_(pa.string())),
                "shadow_tokens": pa.array([r[1] for r in rows],
                                          pa.list_(pa.string())),
            }), os.path.join(d, f"docs-{i:06d}.parquet"))
        got = sample_hot_terms(d, frac, sample_rows)
    want = _hot_terms_loop([r for rows in files for r in rows], frac,
                           sample_rows)
    assert got == want


# (repo, path, commit, sha) rows over a tiny alphabet, so re-adds, new
# commits of one path and duplicate rows all come up; about one row in 32
# has a null repo or commit, so most examples hold no null key
_key_row = st.tuples(
    st.sampled_from(["r", "q"]), st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["1", "2"]), st.sampled_from(["x", "y"]),
    st.integers(0, 63),
).map(lambda r: (None if r[4] == 0 else r[0], r[1],
                 None if r[4] == 1 else r[2], r[3]))


def _row_key(row):
    return None if None in row[:3] else "\x00".join(row[:3])


def _reference_verdict(old, new):
    """Per key: full (several rows on a side), added, removed, same or
    changed; a null key anywhere makes the verdict {None: "full"}."""
    if any(_row_key(r) is None for r in old + new):
        return {None: "full"}
    shas = {}
    for side, rows in ((0, old), (1, new)):
        for r in rows:
            shas.setdefault(_row_key(r), ([], []))[side].append(r[3])
    out = {}
    for k, (o, n) in shas.items():
        out[k] = ("full" if len(o) > 1 or len(n) > 1 else "added" if not o
                  else "removed" if not n else "same" if o == n
                  else "changed")
    return out


def _verdict(old, new):
    from probe_ray.build import classify_keys

    def side(rows):
        return (np.array([_row_key(r) for r in rows], object),
                np.array([r[3] for r in rows], object))

    keys, status = classify_keys(*side(old), *side(new))
    return dict(zip(keys.tolist(), status.tolist()))


@given(st.lists(_key_row, max_size=8), st.lists(_key_row, max_size=8))
@settings(max_examples=200, deadline=None)
def test_classify_keys_matches_reference(old, new):
    """The update diff's classifier on any stored and corpus rows."""
    assert _verdict(old, new) == _reference_verdict(old, new)


@given(st.lists(_key_row.filter(lambda r: None not in r), max_size=8),
       st.lists(_key_row, max_size=6))
@settings(max_examples=200, deadline=None)
def test_classify_keys_append_selection(stored, new_files):
    """With every stored row's file unchanged, the diff reads only the
    stored rows whose path occurs among the new rows and counts them on
    both sides. On every key of those paths its verdict equals the
    whole-corpus diff's; any other key is the same, or full in the
    whole-corpus diff only because the stored rows already carry it twice
    (an append leaves those rows and their distinct ids alone)."""
    paths = {r[1] for r in new_files}
    read = [r for r in stored if r[1] in paths]
    got = _verdict(read, new_files + read)
    want = _reference_verdict(stored, stored + new_files)
    if None in want:
        assert got == want
        return
    assert {k: s for k, s in got.items() if s != "same"} == {
        k: s for k, s in want.items()
        if s != "same" and k.split("\x00")[1] in paths
    }
    stored_twice = {k for k in want
                    if sum(_row_key(r) == k for r in stored) > 1}
    assert all(s == "same" or k in stored_twice for k, s in want.items()
               if k.split("\x00")[1] not in paths)
