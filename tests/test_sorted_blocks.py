"""The grouped dedup stages resolve whole groups per block of a key sort
(``textops._key_blocks``). Their outputs must not depend on how the input
is split into blocks, a hot key must never be split across blocks, and
the ``_LSH_BUCKET_CAP`` replay must hold for buckets over the cap."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from test_textops import SF
HOT = " alpha bravo charlie delta echo foxtrot golf hotel"  # one 8-gram
N_TWINS = 80  # > _LSH_BUCKET_CAP: every band bucket of the twins overflows

OPS = ("dup_ngram_fraction", "minhash_lsh_dedup", "simhash_near_dup",
       "near_dup_word_jaccard", "dedup_clusters")


@pytest.fixture(autouse=True)
def _ray(ray_session):
    yield


def _hot_docs() -> pa.Table:
    """sf0.001's documents with the HOT 8-gram appended to every doc and
    the first N_TWINS docs given one identical text."""
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    texts = t.column("text").to_pylist()
    twin = texts[0]
    texts = [(twin if i < N_TWINS else x) + HOT for i, x in enumerate(texts)]
    return pa.table({"doc_id": t.column("doc_id"),
                     "text": pa.array(texts, pa.string())})


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    """The same documents table as one parquet file and as seven files of
    unequal size (so the sort sees seven input blocks)."""
    docs = _hot_docs()
    one = tmp_path_factory.mktemp("one")
    pq.write_table(docs, str(one / "documents.parquet"))
    seven = tmp_path_factory.mktemp("seven")
    (seven / "documents.parquet").mkdir()
    cuts = [0, 3, 40, 41, 150, 260, 400, docs.num_rows]
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        pq.write_table(docs.slice(a, b - a),
                       str(seven / "documents.parquet" / f"p{i}.parquet"))
    return docs, str(one), str(seven)


def _table(out) -> pa.Table:
    if isinstance(out, pa.Table):
        return out
    return pa.Table.from_pylist(out.take_all())


@pytest.mark.parametrize("op", OPS)
def test_block_layout_does_not_change_output(layouts, op):
    from probe_ray import textops as T

    _, one, seven = layouts
    a = _table(getattr(T, op)(one))
    dropped = T.LAST_MINHASH_METRICS.get("dropped_ids")
    b = _table(getattr(T, op)(seven))
    assert a.num_rows > 0
    assert a.equals(b)
    if op == "minhash_lsh_dedup":
        # each of the 16 band buckets the twins share overflows the cap
        assert dropped >= 16 * (N_TWINS - T._LSH_BUCKET_CAP)
        assert T.LAST_MINHASH_METRICS["dropped_ids"] == dropped


def test_hot_gram_is_never_split(layouts):
    """Every doc holds the HOT gram, so a block that saw only part of its
    rows would undercount n_dup: compare with a driver-side count."""
    from probe_ray import textops as T

    docs, _, seven = layouts
    grams = {
        d: T._word_ngrams(T.simple_tokens(t), 8)
        for d, t in zip(docs.column("doc_id").to_pylist(),
                        docs.column("text").to_pylist())
    }
    n_docs: dict[str, int] = {}
    for gs in grams.values():
        for g in set(gs):
            n_docs[g] = n_docs.get(g, 0) + 1
    assert n_docs[HOT.strip()] == docs.num_rows
    want = sorted(
        (d, len(gs), sum(1 for g in gs if n_docs[g] >= 2))
        for d, gs in grams.items()
    )
    got = T.dup_ngram_fraction(seven).take_all()
    assert sorted((r["doc_id"], r["n_grams"], r["n_dup"]) for r in got) == want


def test_simhash_cap_replay_over_cap(layouts):
    """The twins fill every (band, key) bucket past the cap: only pairs
    among a bucket's _LSH_BUCKET_CAP smallest ids may be emitted."""
    from probe_ray import textops as T

    _, _, seven = layouts
    sims = T.simhash64(seven).to_pandas().sort_values("doc_id")
    ids = sims["doc_id"].to_numpy()
    u = sims["simhash"].to_numpy().view(np.uint64)
    want = set()
    for band in range(4):
        keys = (u >> np.uint64(16 * band)) & np.uint64(0xFFFF)
        for k in np.unique(keys):
            members = ids[keys == k][: T._LSH_BUCKET_CAP]  # ids ascending
            mu = u[keys == k][: T._LSH_BUCKET_CAP]
            for i in range(members.size):
                for j in range(i + 1, members.size):
                    h = bin(int(mu[i] ^ mu[j])).count("1")
                    if h <= 3:
                        want.add((int(members[i]), int(members[j]), h))
    got = T.simhash_near_dup(seven).take_all()
    assert sorted((r["doc_id_a"], r["doc_id_b"], r["hamming"])
                  for r in got) == sorted(want)
    # the twins are docs 0..N_TWINS-1: only their first cap ids pair up
    cap = T._LSH_BUCKET_CAP
    twin_pairs = {(a, b) for a, b, _ in want if b < N_TWINS}
    assert twin_pairs == {(a, b) for a in range(cap) for b in range(a + 1, cap)}
