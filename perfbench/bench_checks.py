"""Correctness checks, each computed apart from the engine. Every function
returns a list of problems (empty when the output is right); none of them
runs inside a timed interval.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TOL = 1e-9


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=0, abs_tol=TOL)


# ---------------------------------------------------------------------------
# code search

def referee_docs(table: pa.Table, docs, queries, opts) -> list[str]:
    """Same doc ids, ranks and scores (1e-9) as probe_ray.oracle."""
    from probe_ray.oracle import oracle_search_docs

    hits = oracle_search_docs(docs, queries, **opts)
    rows = table.to_pylist()
    if len(rows) != len(hits):
        return [f"referee {queries} {opts}: {len(rows)} rows, oracle {len(hits)}"]
    for i, (r, h) in enumerate(zip(rows, hits)):
        if r["doc_id"] != h.doc_id or r["rank"] != h.rank or not _close(r["score"], h.score):
            return [f"referee {queries} {opts} row {i}: engine "
                    f"({r['doc_id']}, {r['rank']}, {r['score']}) oracle "
                    f"({h.doc_id}, {h.rank}, {h.score})"]
    return []


def referee_blocks(table: pa.Table, docs, queries, opts) -> list[str]:
    from probe_ray.oracle import oracle_search_blocks

    hits = oracle_search_blocks(docs, queries, **opts)
    rows = table.to_pylist()
    if len(rows) != len(hits):
        return [f"referee blocks {queries} {opts}: {len(rows)} rows, oracle {len(hits)}"]
    for i, (r, h) in enumerate(zip(rows, hits)):
        same = (r["doc_id"], r["start_line"], r["end_line"], r["rank"]) == \
            (h.doc_id, h.start, h.end, h.rank)
        if not same or not _close(r["score"], h.score):
            return [f"referee blocks {queries} {opts} row {i}: engine "
                    f"({r['doc_id']}, {r['start_line']}, {r['rank']}, {r['score']}) "
                    f"oracle ({h.doc_id}, {h.start}, {h.rank}, {h.score})"]
    return []


def result_properties(table: pa.Table, opts: dict, doc_bytes) -> list[str]:
    """Ranked doc results: ranks are 1..n and scores never rise with rank.
    Blocks come back in file order, and merging adjacent blocks rescores
    them, so their ranks need only be distinct. Limits hold for both."""
    n = table.num_rows
    what = f"properties {opts}"
    if opts.get("max_results") is not None and n > opts["max_results"]:
        return [f"{what}: {n} results over max_results"]
    ranks = table.column("rank").to_pylist() if n and "rank" in table.column_names else []
    if not ranks or None in ranks:  # exact and files_only results are unranked
        return []
    if "start_line" in table.column_names:
        if len(set(ranks)) != n or min(ranks) < 1:
            return [f"{what}: block ranks are not distinct and positive"]
        return []
    if ranks != list(range(1, n + 1)):
        return [f"{what}: ranks are not 1..{n}"]
    if np.any(np.diff(np.asarray(table.column("score").to_pylist(), dtype=float)) > TOL):
        return [f"{what}: score rises with rank"]
    sizes = [doc_bytes[d] for d in table.column("doc_id").to_pylist()]
    if n > 1 and opts.get("max_bytes") is not None and sum(sizes) > opts["max_bytes"]:
        return [f"{what}: {sum(sizes)} bytes over max_bytes"]
    if n > 1 and opts.get("max_tokens") is not None and sum(s // 4 for s in sizes) > opts["max_tokens"]:
        return [f"{what}: tokens over max_tokens"]
    return []


def doc_term_counts(docs) -> list[Counter]:
    """Per-doc term frequencies over content and path, the way the index
    counts them, from probe_ray.tokenizer."""
    from probe_ray import tokenizer as tok

    return [Counter(tok.tokenize(d.content) + tok.tokenize(d.path)) for d in docs]


def global_scores(table: pa.Table, docs, tfs: list[Counter], queries: list[str],
                  k: int) -> list[str]:
    """Global mode against a corpus-global BM25 over every document,
    computed with oracle.py's idf/bm25_tf_part for a pure-OR query."""
    from probe_ray import queryparse as qp
    from probe_ray.oracle import bm25_tf_part, idf

    ast, _ = qp.parse_query(" ".join(queries), False)
    weight = Counter(kw for t in qp.walk_terms(ast) for kw in t.lowercase_keywords)
    dls = [sum(c.values()) for c in tfs]
    n = len(docs)
    avgdl = sum(dls) / n
    idfs = {t: idf(n, sum(1 for c in tfs if c.get(t, 0) > 0)) for t in weight}
    scored = []
    for d, c, dl in zip(docs, tfs, dls):
        s = sum(w * idfs[t] * bm25_tf_part(c[t], dl, avgdl)
                for t, w in weight.items() if c.get(t, 0) > 0)
        if s > 0:
            scored.append((-s, d.doc_id))
    scored.sort()
    want = scored[:k]
    got = list(zip(table.column("doc_id").to_pylist(), table.column("score").to_pylist()))
    if len(got) != len(want):
        return [f"global {queries}: {len(got)} rows, expected {len(want)}"]
    for i, ((gd, gs), (ws, wd)) in enumerate(zip(got, want)):
        if gd != wd or not _close(gs, -ws):
            return [f"global {queries} row {i}: engine ({gd}, {gs}) expected ({wd}, {-ws})"]
    return []


def guard_passing_rows(paths: list[str]) -> int:
    """Rows the build must keep: no NUL byte and at most 1 MiB, counted with
    pyarrow straight from the corpus files."""
    from probe_ray.oracle import MAX_FILE_SIZE

    n = 0
    for p in paths:
        col = pq.read_table(p, columns=["content"]).column("content")
        ok = pc.and_(pc.invert(pc.match_substring(col, "\x00")),
                     pc.less_equal(pc.binary_length(col), MAX_FILE_SIZE))
        n += pc.sum(pc.cast(ok, pa.int64())).as_py() or 0
    return n


# ---------------------------------------------------------------------------
# textops

def sql_match(got, sql: str, con) -> list[str]:
    """Row count, column names and order-insensitive values against a
    DuckDB oracle, the way scripts/check_oracles.py compares them."""
    import pandas as pd

    def norm(df):
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if df[c].dtype == object:
                df[c] = df[c].astype(str)
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    g, x = norm(got.to_pandas()), norm(con.sql(sql).df())
    if list(g.columns) != list(x.columns):
        return [f"columns {list(g.columns)} != {list(x.columns)}"]
    if len(g) != len(x):
        return [f"{len(g)} rows, oracle {len(x)}"]
    for c in g.columns:
        if np.issubdtype(g[c].dtype, np.floating):
            if not np.allclose(g[c].values.astype(float), x[c].values.astype(float),
                               atol=1e-12, rtol=1e-12, equal_nan=True):
                return [f"column {c} differs"]
        elif not (pd.Series(g[c].values).astype(str) == pd.Series(x[c].values).astype(str)).all():
            return [f"column {c} differs"]
    return []


_SPLIT = re.compile(r"[^a-z0-9]+")


def _tokens(text: str) -> list[str]:
    return [t for t in _SPLIT.split(text.lower()) if t]


def _partition_problems(ids: np.ndarray, labels: np.ndarray, linked) -> list[str]:
    """Labels form a partition labelled by its smallest member, and each
    part is connected by pairs for which ``linked(a, b)`` holds."""
    if len(np.unique(ids)) != len(ids):
        return ["a doc appears twice"]
    members: dict[int, list[int]] = {}
    for d, c in zip(ids.tolist(), labels.tolist()):
        members.setdefault(c, []).append(d)
    for c, ms in members.items():
        if min(ms) != c:
            return [f"cluster {c} is not labelled by its smallest member {min(ms)}"]
        if len(ms) < 2:
            continue
        ms = sorted(ms)
        reached, frontier = {ms[0]}, [ms[0]]
        while frontier:
            a = frontier.pop()
            for b in ms:
                if b not in reached and linked(a, b):
                    reached.add(b)
                    frontier.append(b)
        if len(reached) != len(ms):
            return [f"cluster {c} is not connected by pairs over the threshold"]
    return []


def dedup_cluster_labels(texts: list[str], window: int = 5,
                         threshold: float = 0.5) -> np.ndarray:
    """The exact dedup_clusters answer: union-find over every doc pair at
    most ``window`` ids apart whose word-set Jaccard is at least
    ``threshold``, each doc labelled by its component's smallest id."""
    sets = [set(_tokens(t)) for t in texts]
    parent = np.arange(len(texts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(texts)):
        for b in range(a + 1, min(len(texts), a + window + 1)):
            u = len(sets[a] | sets[b])
            if u and len(sets[a] & sets[b]) / u >= threshold:
                ra, rb = find(a), find(b)
                parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(len(texts))])


def dedup_clusters_ok(got: pa.Table, texts: list[str]) -> list[str]:
    """Every doc's label equals the exact union-find label."""
    ids = got.column("doc_id").to_numpy()
    if not np.array_equal(np.sort(ids), np.arange(len(texts))):
        return [f"{len(ids)} labelled docs, expected each of the {len(texts)} docs once"]
    want = dedup_cluster_labels(texts)[ids]
    wrong = np.flatnonzero(got.column("cluster_id").to_numpy() != want)
    if wrong.size:
        d = int(ids[wrong[0]])
        return [f"{wrong.size} docs mislabelled, e.g. doc {d}: cluster "
                f"{int(got.column('cluster_id').to_numpy()[wrong[0]])}, expected {int(want[wrong[0]])}"]
    return []


def minhash_clusters_ok(got: pa.Table, texts: list[str], k: int = 3,
                        threshold: float = 0.5) -> list[str]:
    def shingles(t):
        toks = _tokens(t)
        if len(toks) < k:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)}

    ids = got.column("doc_id").to_numpy()
    labels = got.column("cluster_id").to_numpy()
    if any(np.sum(labels == c) < 2 for c in np.unique(labels)):
        return ["a singleton cluster is reported"]
    sh = {d: shingles(texts[d]) for d in ids.tolist()}

    def linked(a, b):
        u = len(sh[a] | sh[b])
        return u > 0 and len(sh[a] & sh[b]) / u >= threshold

    return _partition_problems(ids, labels, linked)


def _simhash(text: str) -> int:
    counts = Counter(_tokens(text))
    acc = np.zeros(64, dtype=np.int64)
    bits = np.arange(64, dtype=np.uint64)
    for t, c in counts.items():
        h = np.uint64(int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little"))
        acc += np.where(((h >> bits) & np.uint64(1)) == 1, c, -c)
    return int(((acc > 0).astype(np.uint64) << bits).sum())


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.unpackbits(x.astype("<u8").view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)


def simhash_pairs(texts: list[str], max_hamming: int = 3, n_bands: int = 4,
                  bucket_cap: int = 64) -> tuple[dict, int]:
    """The exact simhash_near_dup answer from independent md5 SimHashes:
    ``({(a, b): hamming}, pairs the op's bucket cap drops)``. Every pair
    within ``max_hamming`` shares one of the ``n_bands`` 16-bit bands
    (pigeonhole); the op keeps a pair only when, in such a band, both ids
    are among the ``bucket_cap`` smallest of that band key."""
    sig = np.array([_simhash(t) for t in texts], dtype=np.uint64)
    ia, ja = np.triu_indices(len(sig), k=1)
    ham = np.empty(ia.size, dtype=np.int64)
    for lo in range(0, ia.size, 1 << 20):  # bounded memory
        sl = slice(lo, lo + (1 << 20))
        ham[sl] = _popcount(sig[ia[sl]] ^ sig[ja[sl]])
    hit = ham <= max_hamming
    ia, ja, ham = ia[hit], ja[hit], ham[hit]
    width = 64 // n_bands
    kept = np.zeros(ia.size, dtype=bool)
    for b in range(n_bands):
        key = (sig >> np.uint64(width * b)) & np.uint64((1 << width) - 1)
        order = np.lexsort((np.arange(len(sig)), key))  # by key, then id
        first = np.searchsorted(key[order], key[order], side="left")
        rank = np.empty(len(sig), dtype=np.int64)
        rank[order] = np.arange(len(sig)) - first
        kept |= (key[ia] == key[ja]) & (rank[ia] < bucket_cap) & (rank[ja] < bucket_cap)
    pairs = {(int(a), int(b)): int(h) for a, b, h in zip(ia[kept], ja[kept], ham[kept])}
    return pairs, int((~kept).sum())


def simhash_pairs_ok(got: pa.Table, texts: list[str]) -> list[str]:
    """The reported pairs and distances equal the exact pair set."""
    a = got.column("doc_id_a").to_pylist()
    b = got.column("doc_id_b").to_pylist()
    reported = dict(zip(zip(a, b), got.column("hamming").to_pylist()))
    if len(reported) != len(a):
        return ["a pair is reported twice"]
    want, _ = simhash_pairs(texts)
    if reported != want:
        extra = sorted(set(reported) - set(want))[:3]
        missing = sorted(set(want) - set(reported))[:3]
        wrong = [p for p in set(want) & set(reported) if want[p] != reported[p]][:3]
        return [f"{len(reported)} pairs, expected {len(want)}: extra {extra}, "
                f"missing {missing}, wrong distance {wrong}"]
    return []
