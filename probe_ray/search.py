"""Distributed query path over the inverted index.

Two modes sharing one index (SURVEY.md §7.4):

- **compat** (default; rank-identical to probe_ray.oracle, which encodes the
  reference's semantics at document granularity): candidate retrieval from
  postings + filename scan + substring-prefilter for exact/excluded terms,
  then a verification ``map_batches`` over the candidates only that
  recomputes the exact token vector (with query-scoped special terms),
  applies the exact-literal injection rule and boolean admission, then
  candidate-set BM25 statistics (N, df, avgdl over the CANDIDATE set —
  ranking.rs:326-349) and boolean bool-query scoring with coverage boosts.

- **global**: corpus-global statistics frozen at build time; index-only
  retrieval + scoring (no substring verification), vectorized numpy scoring
  over decoded postings with top-k. This is the 10^12-scale throughput path;
  it is validated for self-consistency, not reference-identity.

Candidate-generation narrowing vs the reference's full regex scan is
documented in oracle.py and SURVEY.md §7.4: a doc can only be retrieved via
token membership, the filename rule, or (for special terms) the tokenized
prefilter + substring verification. The oracle implements the identical
rule, and conformance tests assert engine == oracle exactly.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from probe_ray import codec
from probe_ray import queryparse as qp
from probe_ray import tokenizer as tok
from probe_ray.build import IndexPaths
from probe_ray.oracle import BM25_B, BM25_K1, idf, score_expr

RESULT_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("rank", pa.int64()),
        ("score", pa.float64()),
        ("bm25_score", pa.float64()),
        ("matched_terms", pa.list_(pa.string())),
    ]
)


def _empty_result() -> pa.Table:
    return RESULT_SCHEMA.empty_table()


@dataclass
class _QueryContext:
    plan: qp.QueryPlan
    filters: qp.SearchFilters
    specials: frozenset[str]
    filenames_enabled: bool
    ast_all_exact: bool
    language: str | None


def _records_block_metrics(search_blocks):
    """Each ``Engine.search_blocks`` call (it has many return points) gets
    its own ``last_metrics`` record and probe-block stats, and starts from
    an empty LimitedSearchResults record that only a call returning rows
    replaces."""

    @functools.wraps(search_blocks)
    def run(self, queries, **kwargs):
        t0, self._probe_block_stats = time.time(), []
        self.last_search_meta = dict(
            n_results=0, **_NO_LIMITS, cached_blocks_skipped=None,
            files_skipped_early_termination=None,
        )
        result = search_blocks(self, queries, **kwargs)
        self.last_metrics = dict(
            mode=kwargs.get("mode", "compat"), unit="blocks",
            results=result.num_rows, wall_sec=round(time.time() - t0, 4),
            probe_blocks=self._probe_block_stats,
        )
        return result

    return run


class Engine:
    """A built index, ready to serve queries."""

    def __init__(self, index: IndexPaths | str):
        self.paths = index if isinstance(index, IndexPaths) else IndexPaths(index)
        self._stats = self.paths.stats()
        self._term_dict: np.ndarray | None = None
        #: per-query observability (LimitedSearchResults-style counters:
        #: models.rs:2-9): a fresh record from every search() and
        #: search_blocks() call
        self.last_metrics: dict = {}
        self._probe_block_stats: list[dict] = []  # skip blocks read, per term

    def _term_dictionary(self) -> np.ndarray:
        """All indexed terms (cached). Used for substring-candidate
        generation: probe's scan matches terms as case-insensitive
        substrings of content (query.rs:363-393), so a doc whose token
        'oauth2' contains the query term 'auth' must be retrievable. Tokens
        are (near-always) literal substrings of the content they came from,
        so scanning the TERM DICTIONARY for containment and unioning those
        postings reproduces substring retrieval without touching content —
        the candidates are then exactly re-verified against content. At
        10^12 scale this dictionary scan is the piece an n-gram term index
        would accelerate."""
        if self._term_dict is None:
            tbl = self._seg_handle().to_table(columns=["term"])
            self._term_dict = np.unique(
                np.asarray(tbl.column("term").to_pylist(), dtype=object)
            )
        return self._term_dict

    def _expand_substring_terms(self, needles: list[str]) -> dict[str, list[str]]:
        """For each needle, the indexed terms containing it as a substring
        (Arrow match_substring over the cached dictionary — C-speed)."""
        if not needles:
            return {}
        terms = self._term_dictionary()
        if getattr(self, "_term_dict_arrow", None) is None:
            self._term_dict_arrow = pa.array(terms.tolist(), pa.string())
        arr = self._term_dict_arrow
        out: dict[str, list[str]] = {}
        for t in needles:
            mask = pc.match_substring(arr, t).to_numpy(zero_copy_only=False)
            out[t] = terms[mask].tolist()
        return out

    # -- char-n-gram substring index ----------------------------------------

    def _has_ngrams(self) -> bool:
        import os

        return bool(self._stats.get("has_ngrams")) and os.path.isdir(
            self.paths.ngrams_dir
        )

    def _gram_doc_ids(self, needles: list[str]) -> dict[str, np.ndarray]:
        """Substring-candidate doc ids from the content char-3-gram index:
        for each needle (len >= 3), intersect the posting lists of its
        3-grams — a SUPERSET of docs containing the needle as a substring
        (grams can match non-contiguously); exact verification happens in
        the normal verify stage. Replaces the O(vocab) per-query dictionary
        scan AND closes the cross-token-boundary narrowing (VERDICT item 3)."""
        from probe_ray.build import NGRAM_N, _term_shard

        per_needle: dict[str, list[str]] = {}
        wanted: set[str] = set()
        for nd in needles:
            if len(nd) < NGRAM_N:
                continue
            gs = sorted({nd[i : i + NGRAM_N] for i in range(len(nd) - NGRAM_N + 1)})
            per_needle[nd] = gs
            wanted.update(gs)
        if not per_needle:
            return {}
        n_shards = self._stats["n_shards"]
        shards = sorted({_term_shard(g, n_shards) for g in wanted})
        # metadata-first: read per-gram df only, probe the RAREST grams per
        # needle (any subset intersection stays a superset of true matches;
        # common grams add read+intersect cost without narrowing)
        meta = self._ngram_read(shards, sorted(wanted), ["gram", "df"])
        df_by_gram: dict[str, int] = {}
        for g, d in zip(meta.column("gram").to_pylist(), meta.column("df").to_pylist()):
            df_by_gram[g] = df_by_gram.get(g, 0) + int(d)
        MAX_PROBE_GRAMS = 6
        probe: dict[str, list[str]] = {}
        out: dict[str, np.ndarray] = {}
        fetch: set[str] = set()
        for nd, gs in per_needle.items():
            if any(g not in df_by_gram for g in gs):
                out[nd] = np.empty(0, dtype=np.int64)  # absent gram: no match
                continue
            sel = sorted(gs, key=df_by_gram.__getitem__)[:MAX_PROBE_GRAMS]
            probe[nd] = sel
            fetch.update(sel)
        if not probe:
            return out
        shards_f = sorted({_term_shard(g, n_shards) for g in fetch})
        tbl = self._ngram_read(shards_f, sorted(fetch), ["gram", "blob"])
        by_gram: dict[str, list[np.ndarray]] = {}
        for g, b in zip(tbl.column("gram").to_pylist(), tbl.column("blob").to_pylist()):
            ids, _ = codec.decode_postings(b)
            by_gram.setdefault(g, []).append(ids.astype(np.int64))
        gram_ids = {g: np.unique(np.concatenate(v)) for g, v in by_gram.items()}
        for nd, sel in probe.items():
            sets = sorted((gram_ids[g] for g in sel), key=len)
            inter = sets[0]
            for s in sets[1:]:
                if inter.size == 0:
                    break
                inter = np.intersect1d(inter, s, assume_unique=True)
            out[nd] = inter
        return out

    # -- segment access -----------------------------------------------------

    def _ngram_read(self, shards: list[int], grams: list[str], columns: list[str]) -> pa.Table:
        import pyarrow.dataset as pads

        if getattr(self, "_ngram_ds_handle", None) is None:
            dirs = self.paths.ngrams_dirs()
            sets = [pads.dataset(d, partitioning="hive") for d in dirs]
            self._ngram_ds_handle = (
                sets[0] if len(sets) == 1 else pads.dataset(sets)
            )
        return self._ngram_ds_handle.to_table(
            columns=columns,
            filter=pads.field("shard").isin(shards)
            & pads.field("gram").isin(grams),
        )

    def _seg_handle(self):
        """Cached pyarrow dataset handle over the hive-partitioned segments
        dir: per-query reads reuse the discovered fragments instead of
        re-walking the directory + footers on every probe (the dominant cost
        of warm global-mode queries)."""
        if getattr(self, "_seg_ds_handle", None) is None:
            import pyarrow.dataset as pads

            dirs = self.paths.segments_dirs()
            sets = [pads.dataset(d, partitioning="hive") for d in dirs]
            # base + committed update generations as one union dataset —
            # appended segment rows merge in every read path exactly like
            # salted blobs (update_index)
            self._seg_ds_handle = sets[0] if len(sets) == 1 else pads.dataset(sets)
        return self._seg_ds_handle

    def _docs_read_table(self, columns=None, filters=None) -> pa.Table:
        """Local (driver-side) docs read across base + committed update
        generations, with optional predicate pushdown."""
        ps = self.paths.docs_paths()
        if len(ps) == 1:
            if filters is not None:
                return pq.read_table(ps[0], columns=columns, filters=filters)
            return pq.read_table(ps[0], columns=columns)
        import pyarrow.dataset as pads

        ds = pads.dataset([pads.dataset(p) for p in ps])
        filt = pq.filters_to_expression(filters) if filters is not None else None
        return ds.to_table(columns=columns, filter=filt)

    def _seg_read(self, shards: list[int], terms: list[str], columns: list[str]) -> pa.Table:
        import pyarrow.dataset as pads

        return self._seg_handle().to_table(
            columns=columns,
            filter=pads.field("shard").isin(shards)
            & pads.field("term").isin(terms),
        )

    def _read_postings(self, terms: list[str]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Read + decode postings for the given terms. Pruned at the read:
        shard partition filter + parquet predicate pushdown on term."""
        if not terms:
            return {}
        n_shards = self._stats["n_shards"]
        from probe_ray.build import _term_shard

        shards = sorted({_term_shard(t, n_shards) for t in terms})
        table = self._seg_read(shards, terms, ["term", "salt", "blob"])
        out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        term_col = table.column("term").to_pylist()
        salt_col = table.column("salt").to_pylist()
        blob_col = table.column("blob").to_pylist()
        by_term: dict[str, list[tuple[int, bytes]]] = {}
        for t, s, b in zip(term_col, salt_col, blob_col):
            by_term.setdefault(t, []).append((s, b))
        for t, salted in by_term.items():
            salted.sort()
            ids_parts, tf_parts = [], []
            for _, blob in salted:
                ids, tfs = codec.decode_postings(blob)
                ids_parts.append(ids)
                tf_parts.append(tfs)
            ids = np.concatenate(ids_parts)
            tfs = np.concatenate(tf_parts)
            order = np.argsort(ids, kind="stable")  # doc-id order across
            out[t] = (ids[order], tfs[order])       # salted/split blobs
        return out

    def _probe_postings(
        self, term: str, want: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Skip-pointer probe: decode only the posting BLOCKS that can hold
        ids in ``want`` (sorted), via the stored per-128-entry skip pairs —
        the Block-Max read path of MaxScore's update-only phase. Returns
        (ids, tfs) covering a superset of the wanted ids present."""
        if not term or want.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.uint8)
        n_shards = self._stats["n_shards"]
        from probe_ray.build import _term_shard

        tbl = self._seg_read(
            [_term_shard(term, n_shards)], [term], ["salt", "blob", "skip"]
        )
        rows = sorted(
            zip(
                tbl.column("salt").to_pylist(),
                tbl.column("blob").to_pylist(),
                tbl.column("skip").to_pylist(),
            )
        )
        want_u = np.asarray(np.sort(want), dtype=np.uint64)
        ids_parts, tf_parts = [], []
        blocks_total = 0
        blocks_read = 0
        for _, blob, skip in rows:
            blocks_total += max(1, len(skip) // 16)
            ids, tfs = codec.decode_postings_selective(blob, skip, want_u)
            blocks_read += (ids.size + codec.BLOCK - 1) // codec.BLOCK
            if ids.size:
                ids_parts.append(ids)
                tf_parts.append(tfs)
        self._probe_block_stats.append(
            dict(term=term, read=blocks_read, total=blocks_total)
        )
        if not ids_parts:
            return np.empty(0, np.int64), np.empty(0, np.uint8)
        ids = np.concatenate(ids_parts).astype(np.int64)
        tfs = np.concatenate(tf_parts)
        order = np.argsort(ids, kind="stable")
        return ids[order], tfs[order]

    def _docs_ds(self, columns: list[str]) -> rd.Dataset:
        return rd.read_parquet(self.paths.docs_read_paths(), columns=columns)

    def _read_term_bounds(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """(df, max unpacked tf) per term from segment metadata only (df +
        block_max columns; posting blobs are NOT read). Feeds the MaxScore
        upper bounds."""
        if not terms:
            return {}
        n_shards = self._stats["n_shards"]
        from probe_ray.build import _term_shard

        shards = sorted({_term_shard(t, n_shards) for t in terms})
        tbl = self._seg_read(shards, terms, ["term", "df", "block_max"])
        out: dict[str, tuple[int, int]] = {}
        for t, df, bm in zip(
            tbl.column("term").to_pylist(),
            tbl.column("df").to_pylist(),
            tbl.column("block_max").to_pylist(),
        ):
            prev = out.get(t, (0, 0))
            out[t] = (prev[0] + int(df), max(prev[1], max(bm) if bm else 0))
        return out

    def _doc_len_array(self) -> np.ndarray:
        """Dense doc_id -> doc_len array (doc ids are dense by
        construction). Served MEMORY-MAPPED from the build's attribute file
        when present — pages in on demand, so the driver never pins
        4 B x n_docs of heap (the doc-attribute store pattern a cluster
        deployment puts on shared storage). Falls back to an in-memory
        array built from the docs table for pre-attribute-file indexes."""
        if getattr(self, "_dl_arr", None) is None:
            import os

            slices = [
                (q, n) for q, n in self.paths.doc_lens_slices()
                if os.path.exists(q)
            ]
            if slices and os.path.exists(self.paths.doc_lens_path):
                # each slice is trimmed to its RECORDED doc count: the
                # writer pads an empty corpus's npy to shape (1,), so an
                # untrimmed concat after a zero-doc base build would shift
                # every generation doc's length by one
                arrs = [
                    a if n < 0 else a[:n]
                    for q, n in slices
                    for a in (np.load(q, mmap_mode="r"),)
                ]
                # generation slices are doc-id ranges in commit order, so a
                # plain concat is the dense array (single-file case stays a
                # pure mmap; multi-gen concat materializes — acceptable at
                # 4 B/doc, and a cluster deployment would serve the slices
                # from shared storage without the concat)
                self._dl_arr = arrs[0] if len(arrs) == 1 else np.concatenate(arrs)
            else:
                tbl = self._docs_read_table(
                    columns=["doc_id", "doc_len"]
                )
                arr = np.zeros(self._stats["n_docs"], dtype=np.float64)
                arr[tbl.column("doc_id").to_numpy()] = tbl.column(
                    "doc_len"
                ).to_numpy()
                self._dl_arr = arr
        return self._dl_arr

    def _maxscore_topk(self, kw_terms: list[str], k: int,
                       weights: dict[str, int] | None = None):
        """MaxScore pruned top-k over an OR-of-terms query (the Block-Max
        scale path): terms are processed in descending impact-upper-bound
        order (bounds from the stored per-block max tf); once the summed
        bound of the remaining terms cannot beat the current k-th score, no
        NEW doc can enter the top-k, so the remaining (typically hottest)
        posting lists are only probed at the already-accumulated candidates
        instead of being traversed."""
        n_docs = self._stats["n_docs"]
        avgdl = self._stats["avgdl"]
        bounds = self._read_term_bounds(kw_terms)
        terms = [t for t in kw_terms if t in bounds and bounds[t][0] > 0]
        if not terms:
            return np.empty(0, np.int64), np.empty(0), {}
        weights = weights or {}
        idfs = {t: idf(n_docs, bounds[t][0]) for t in terms}
        # keyword multiplicity across Term nodes: score_term_bm25 sums each
        # Term's keywords, so a keyword shared by several Terms contributes
        # once PER TERM (ranking.rs:213-220 + 252-276)
        wt = {t: weights.get(t, 1) for t in terms}
        ubs = {
            t: wt[t] * idfs[t]
            * ((bounds[t][1] * (BM25_K1 + 1.0))
               / (bounds[t][1] + BM25_K1 * (1.0 - BM25_B)))
            for t in terms
        }
        order = sorted(terms, key=lambda t: -ubs[t])
        dl = self._doc_len_array()
        norm_cache: np.ndarray | None = None

        acc_ids = np.empty(0, dtype=np.int64)
        acc_sc = np.empty(0, dtype=np.float64)
        matched: dict[str, np.ndarray] = {}
        update_only = False
        for i, t in enumerate(order):
            remaining_ub = sum(ubs[x] for x in order[i:])
            if acc_ids.size >= k:
                theta = np.partition(acc_sc, -k)[-k]
                if remaining_ub <= theta:
                    update_only = True
                    # accumulator pruning: a doc whose current score plus
                    # the remaining upper bound cannot reach theta can never
                    # enter the top-k — drop it so the skip-pointer probe
                    # touches only viable candidates' blocks (>= keeps
                    # exact ties, which can still win on doc-id order)
                    keep = acc_sc + remaining_ub >= theta
                    if not keep.all():
                        acc_ids = acc_ids[keep]
                        acc_sc = acc_sc[keep]
            if update_only:
                # skip-pointer probe: decode ONLY the blocks containing
                # accumulated candidates (true Block-Max read path)
                ids_u, tfb = self._probe_postings(t, acc_ids)
            else:
                ids_u, tfb = self._read_postings([t]).get(t, (None, None))
            if ids_u is None:
                continue
            ids_t = ids_u.astype(np.int64)
            tf = ((tfb & 0xF) + (tfb >> 4)).astype(np.float64)
            real = tf > 0  # drop shadow postings
            ids_t, tf = ids_t[real], tf[real]
            if ids_t.size == 0:
                continue
            if update_only:
                # probe only at accumulated candidates
                pos = np.searchsorted(ids_t, acc_ids)
                pos_c = np.minimum(pos, ids_t.size - 1)
                hit = ids_t[pos_c] == acc_ids
                tf_at = np.where(hit, tf[pos_c], 0.0)
                nz = tf_at > 0
                normv = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl[acc_ids] / avgdl))
                acc_sc = acc_sc + np.where(
                    nz,
                    wt[t] * idfs[t] * ((tf_at * (BM25_K1 + 1.0)) / (tf_at + normv)),
                    0.0,
                )
                matched[t] = acc_ids[hit]
                continue
            normv = BM25_K1 * (1.0 - BM25_B + BM25_B * (dl[ids_t] / avgdl))
            imp = wt[t] * idfs[t] * ((tf * (BM25_K1 + 1.0)) / (tf + normv))
            matched[t] = ids_t
            # merge impacts into the accumulator
            all_ids = np.union1d(acc_ids, ids_t)
            new_sc = np.zeros(all_ids.size)
            new_sc[np.searchsorted(all_ids, acc_ids)] += acc_sc
            new_sc[np.searchsorted(all_ids, ids_t)] += imp
            acc_ids, acc_sc = all_ids, new_sc
        return acc_ids, acc_sc, matched

    # Small-corpus fast path: below this doc count the per-query work is
    # dominated by Ray execution round-trips, so the engine pins the docs
    # table driver-side (content + lowered content, ~2x corpus bytes) and
    # runs the SAME batch closures locally. Above it, every stage goes
    # through Ray Data (the 10^12-scale path; conformance-tested by
    # tests/test_distributed_paths.py). 1M docs ~ a few GB on this node.
    LOCAL_DOCS_MAX = 1_000_000
    # candidate sets up to this size are verified on the driver (the doc
    # verifier is vectorized, C-speed there); larger sets fan out across
    # the cluster via map_batches
    LOCAL_CAND_MAX = 100_000
    # block extraction is per-row Python (line matching + window tokenize):
    # fan out beyond a small candidate count even with a pinned docs table
    LOCAL_BLOCK_CAND_MAX = 2048
    # block early termination auto-engages (limits set, ranked query) above
    # this many keyword-matched docs; below it, full extraction is cheap
    # and exact. early_termination=True/False overrides.
    EARLY_TERM_AUTO_MIN = 5000
    # where the finishes (ranked and exact, docs and blocks) run: feats
    # materialized by a Ray verify or extract job of up to this many rows
    # finish on the driver — a Ray Sort job costs ~1 s of fixed overhead
    # regardless of size (count() of materialized feats is metadata-only);
    # larger sets finish as Ray jobs, so driver memory stays bounded.
    # 0 sends every Ray-side feats set to the Ray finish (tests force it).
    LOCAL_FEATS_MAX = 100_000

    def _has_is_test(self) -> bool:
        """Docs built at schema version >= 3 carry the static is_test flag
        (computed once at build; saves the per-query content regex)."""
        if getattr(self, "_is_test_avail", None) is None:
            import pyarrow.dataset as pads

            self._is_test_avail = (
                "is_test" in pads.dataset(self.paths.docs_dir).schema.names
            )
        return self._is_test_avail

    def _local_docs_table(self) -> pa.Table | None:
        if self._stats["n_docs"] > self.LOCAL_DOCS_MAX:
            return None
        if getattr(self, "_docs_cache", None) is None:
            tbl = self._docs_read_table(
                columns=["doc_id", "repo", "path", "content", "doc_len"]
                + (["is_test"] if self._has_is_test() else []),
            ).sort_by("doc_id")
            # per-engine precomputations shared by every query: lowered
            # content (injection substring checks) and byte sizes (limits)
            tbl = tbl.append_column(
                "content_lower", _str_lower(tbl.column("content"))
            )
            tbl = tbl.append_column(
                "n_bytes_pre",
                pc.binary_length(tbl.column("content").cast(pa.binary())),
            )
            self._docs_cache = tbl
        return self._docs_cache

    # -- filename matching --------------------------------------------------

    def _path_token_index(self):
        """Inverted index over path tokens (token -> doc_id array), built
        lazily from the narrow (doc_id, path_tokens) projection. The
        filename-match rule then runs against the tiny path-token VOCABULARY
        instead of every doc — the scalable form of probe's filename
        matching (file_list_cache.rs:441-550)."""
        if getattr(self, "_path_idx", None) is None:
            tbl = self._docs_read_table(
                columns=["doc_id", "path_tokens"]
            )
            ids = tbl.column("doc_id").to_pylist()
            ptoks = tbl.column("path_tokens").to_pylist()
            flat_tok: list[str] = []
            flat_id: list[int] = []
            for did, ts in zip(ids, ptoks):
                for t in set(ts):
                    flat_tok.append(t)
                    flat_id.append(did)
            tok_arr = np.asarray(flat_tok, dtype=object)
            id_arr = np.asarray(flat_id, dtype=np.int64)
            order = np.argsort(tok_arr, kind="stable")
            tok_arr, id_arr = tok_arr[order], id_arr[order]
            vocab, starts = np.unique(tok_arr.astype(str), return_index=True)
            bounds = np.append(starts, len(tok_arr))
            self._path_idx = (vocab, bounds, id_arr)
        return self._path_idx

    def _filename_match_term_ids(
        self, ctx: _QueryContext, local_ok: bool
    ) -> dict[str, np.ndarray]:
        """file_list_cache.rs:505-531: for each plan term, the doc ids whose
        path tokens match it (equality / substring either way, the reverse
        direction requiring a >=3-char path token)."""
        term_tokens = {
            t: tok.tokenize(t, ctx.specials) for t in ctx.plan.term_indices
        }
        term_tokens = {t: tt for t, tt in term_tokens.items() if tt}
        if not term_tokens:
            return {}
        if local_ok:
            vocab, bounds, id_arr = self._path_token_index()
            vocab_list = vocab.tolist()
            out: dict[str, np.ndarray] = {}
            for term, tts in term_tokens.items():
                hit_idx = [
                    i
                    for i, v in enumerate(vocab_list)
                    if any(
                        v == tt or tt in v or (len(v) >= 3 and v in tt)
                        for tt in tts
                    )
                ]
                if hit_idx:
                    out[term] = np.unique(
                        np.concatenate(
                            [id_arr[bounds[i]:bounds[i + 1]] for i in hit_idx]
                        )
                    )
            return out
        pairs = self._filename_scan_distributed(term_tokens)
        out2: dict[str, list[int]] = {}
        for did, term in pairs:
            out2.setdefault(term, []).append(did)
        return {t: np.unique(np.array(v, dtype=np.int64)) for t, v in out2.items()}

    def _filename_scan_distributed(self, term_tokens) -> list[tuple[int, str]]:
        """Fallback per-query scan of (doc_id, path_tokens) for corpora too
        large to pin the path-token index driver-side."""

        def scan(batch: pa.Table, tts) -> list[tuple[int, str]]:
            ids = batch.column("doc_id").to_pylist()
            ptoks = batch.column("path_tokens").to_pylist()
            hits = []
            for did, fts in zip(ids, ptoks):
                if not fts:
                    continue
                ft_set = set(fts)
                for term, tts_list in tts.items():
                    hit = any(t in ft_set for t in tts_list) or any(
                        tt in ft or (len(ft) >= 3 and ft in tt)
                        for tt in tts_list
                        for ft in fts
                    )
                    if hit:
                        hits.append((did, term))
            return hits

        tt_ref = ray.put(term_tokens)

        def scan_batch(batch: pa.Table) -> pa.Table:
            hits = scan(batch, ray.get(tt_ref))
            return pa.table(
                {
                    "doc_id": pa.array([h[0] for h in hits], pa.int64()),
                    "term": pa.array([h[1] for h in hits], pa.string()),
                }
            )

        return [
            (r["doc_id"], r["term"])
            for r in self._docs_ds(["doc_id", "path_tokens"])
            .map_batches(scan_batch, batch_format="pyarrow")
            .take_all()
        ]

    # -- candidate generation ----------------------------------------------

    def _candidate_ids(
        self,
        ctx: _QueryContext,
        fname_matches: dict[str, np.ndarray],
        extra_lookup: list[str] = (),
    ) -> tuple[np.ndarray, dict]:
        ti = ctx.plan.term_indices
        plain = [t for t in ti if t not in ctx.specials]
        special = [t for t in ti if t in ctx.specials]
        # original-case keywords for special terms: the static-tokenization
        # prefilter must see the original casing (camelCase splits) so its
        # parts line up with the index built WITHOUT query-scoped specials
        originals: dict[str, str] = {}
        for term in qp.walk_terms(ctx.plan.ast):
            if term.exact or term.excluded:
                for kw in term.keywords:
                    originals.setdefault(kw.lower(), kw)
        use_ngrams = self._has_ngrams()
        gram_ids = self._gram_doc_ids(list(ti)) if use_ngrams else {}
        # dictionary-expansion fallback only for terms the gram index does
        # not cover (needles shorter than NGRAM_N, or no ngram index built)
        expand_terms = [t for t in ti if t not in gram_ids]
        lookup = set(plain)
        special_parts: dict[str, list[str]] = {}
        scan_terms: list[str] = []
        for t in special:
            if t in gram_ids:
                continue  # gram index subsumes the substring prefilter
            parts = tok.tokenize(originals.get(t, t))  # STATIC prefilter
            if parts:
                special_parts[t] = parts
                lookup.update(parts)
            else:
                scan_terms.append(t)
        # substring-candidate expansion over the term dictionary (probe's
        # scan is substring-based; see _term_dictionary)
        expansion = self._expand_substring_terms(expand_terms)
        for exp in expansion.values():
            lookup.update(exp)
        lookup.update(extra_lookup)
        postings = self._read_postings(sorted(lookup))
        id_sets: list[np.ndarray] = [gram_ids[t] for t in ti if t in gram_ids]
        for t in plain:
            for w in expansion.get(t, []) or [t]:
                if w in postings:
                    id_sets.append(postings[w][0].astype(np.int64))
        for t in special:
            for w in expansion.get(t, []):
                if w in postings:
                    id_sets.append(postings[w][0].astype(np.int64))
        for t, parts in special_parts.items():
            sets = [postings[p][0].astype(np.int64) for p in parts if p in postings]
            if len(sets) != len(parts):
                continue  # some part matches nothing -> prefilter empty
            inter = sets[0]
            for s in sets[1:]:
                inter = np.intersect1d(inter, s, assume_unique=True)
            id_sets.append(inter)
        if scan_terms:
            id_sets.append(self._substring_scan(scan_terms))
        for arr in fname_matches.values():
            id_sets.append(arr)
        if not id_sets:
            return np.empty(0, dtype=np.int64), postings
        return np.unique(np.concatenate(id_sets)), postings

    def _substring_scan(self, terms: list[str]) -> np.ndarray:
        """Fallback full substring scan, needed only for special terms whose
        static tokenization is empty (e.g. all-stop-word quoted phrases)."""
        local = self._local_docs_table()
        if local is not None:
            ts = [t.lower() for t in terms]
            ids = local.column("doc_id").to_pylist()
            contents = local.column("content").to_pylist()
            return np.array(
                [d for d, c in zip(ids, contents) if any(t in c.lower() for t in ts)],
                dtype=np.int64,
            )
        terms_ref = ray.put([t.lower() for t in terms])

        def scan(batch: pa.Table) -> pa.Table:
            ts = ray.get(terms_ref)
            ids = batch.column("doc_id").to_pylist()
            contents = batch.column("content").to_pylist()
            hit = [
                did
                for did, c in zip(ids, contents)
                if any(t in c.lower() for t in ts)
            ]
            return pa.table({"doc_id": pa.array(hit, pa.int64())})

        rows = (
            self._docs_ds(["doc_id", "content"])
            .map_batches(scan, batch_format="pyarrow")
            .take_all()
        )
        return np.array([r["doc_id"] for r in rows], dtype=np.int64)

    # above this candidate count the isin read-filter expression gets heavy
    # (it serializes ~7 B/id with every read task — 3.5 MB at 470k ids) and
    # row-group pruning stops helping (wide candidate sets touch every row
    # group anyway); fall back to the broadcast-mask semi-join scan.
    # Measured @524k files / 470k candidates: mask 7.6 s vs predicate 9.2 s.
    FETCH_FILTER_MAX_IDS = 200_000

    def _fetch_candidates(self, ids: np.ndarray, columns: list[str]) -> rd.Dataset:
        if ids.size == 0:
            return rd.from_arrow(
                pa.table({c: pa.array([], pa.int64() if c == "doc_id" else pa.string())
                          for c in ["doc_id"]})
            )
        if ids.size >= self._stats["n_docs"]:
            return self._docs_ds(columns)  # every doc (ids are unique)
        if ids.size <= self.FETCH_FILTER_MAX_IDS:
            # predicate applied DURING the Arrow scan (row-group pruning +
            # no Python mask stage) — 2-7x faster than scan+mask. Ray's
            # read-task sizing underestimates the post-filter work and
            # coalesces to a handful of tasks, starving the downstream
            # Python-heavy stages — force one read task per CPU.
            import pyarrow.dataset as pads

            try:
                n_cpus = int(ray.cluster_resources().get("CPU", 8))
            except Exception:
                n_cpus = 8
            return rd.read_parquet(
                self.paths.docs_read_paths(),
                columns=columns,
                filter=pads.field("doc_id").isin([int(i) for i in ids]),
                override_num_blocks=max(16, n_cpus),
            )
        ids_ref = ray.put(ids)

        def pick(batch: pa.Table) -> pa.Table:
            want = ray.get(ids_ref)
            mask = np.isin(batch.column("doc_id").to_numpy(), want)
            return batch.filter(pa.array(mask))

        return self._docs_ds(columns).map_batches(pick, batch_format="pyarrow")

    def _rerank_result(
        self,
        result: pa.Table,
        queries: list[str],
        question: str | None,
        model: str,
    ) -> pa.Table:
        """Cross-encoder rerank of the ADMITTED rows (probe_ray.rerank):
        content is fetched for only the result's doc ids (pruned candidate
        read — the 100-TB shape: rerank depth bounds the content read),
        attached as a text column, scored by the actor-pool stage, dropped
        again. Flagged rank=None rows pass through unscored."""
        from probe_ray import rerank as _rr

        if result.num_rows == 0:
            return result
        ids = np.unique(
            result.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        fetched = pa.concat_tables(
            ray.get(
                self._fetch_candidates(ids, ["doc_id", "content"]).to_arrow_refs()
            )
        )
        content = dict(
            zip(
                fetched.column("doc_id").to_pylist(),
                fetched.column("content").to_pylist(),
            )
        )
        text = pa.array(
            [content.get(d, "") for d in result.column("doc_id").to_pylist()],
            pa.string(),
        )
        tbl = result.append_column("text", text)
        out = _rr.rerank_table(tbl, question or " ".join(queries), model=model)
        return out.select([n for n in out.schema.names if n != "text"])

    # -- main entry ---------------------------------------------------------

    def search(
        self,
        queries: list[str] | str,
        *,
        exact: bool = False,
        max_results: int | None = None,
        max_bytes: int | None = None,
        max_tokens: int | None = None,
        language: str | None = None,
        include_filenames: bool = True,
        files_only: bool = False,
        session: str | None = None,
        seen: set[str] | None = None,
        allow_tests: bool = True,
        exhaustive: bool = False,
        mode: str = "compat",
        reranker: str = "bm25",
        question: str | None = None,
    ) -> pa.Table:
        """Search the index.

        Knobs mirror the reference CLI (SURVEY.md Appendix A): ``exact``,
        ``max_results``/``max_bytes``/``max_tokens`` (running-total limits,
        search_limiter.rs), ``language``, ``include_filenames``
        (--exclude-filenames inverse), ``files_only``, and session-based
        dedup: pass ``session`` to persist seen docs per (session,
        query-hash) next to the index (cache.rs:14-42 semantics at document
        granularity), or pass an explicit ``seen`` set of "repo/path" keys.

        ``reranker`` takes the reference CLI's values (cli.rs:35-37):
        bm25/hybrid/hybrid2/tfidf all run the standard BM25 path (as in the
        reference, where the tfidf/hybrid fields are vestigial), and the
        ms-marco-* models dispatch a cross-encoder actor-pool rerank of the
        admitted ranked rows (result_ranking.rs:139-145; model execution
        stubbed — see probe_ray.rerank). ``question`` replaces the keyword
        string as the scored query (cli.rs:92). Deviation: the reference
        reranks pre-limit; this engine reranks the admitted top-N (content
        is only fetched for those ids — the scale-correct shape)."""
        if isinstance(queries, str):
            queries = [queries]
        plan, filters = qp.plan_query(queries, exact)
        ast_all_exact = (not plan.is_universal) and qp.is_exact_search(plan.ast)
        ctx = _QueryContext(
            plan=plan,
            filters=filters,
            specials=plan.specials,
            filenames_enabled=include_filenames and not exact and not ast_all_exact,
            ast_all_exact=ast_all_exact,
            language=language,
        )
        session_key = None
        if session is not None:
            session_key = self._session_key(session, queries)
            seen = (seen or set()) | self._session_seen(session_key)
        import time as _time

        t0 = _time.time()
        from probe_ray import rerank as _rr

        if reranker not in _rr.RERANKER_BM25_ALIASES and (
            reranker not in _rr.RERANKER_MODELS
        ):
            raise ValueError(
                f"unknown reranker {reranker!r}; expected one of "
                f"{_rr.RERANKER_BM25_ALIASES + tuple(_rr.RERANKER_MODELS)}"
            )
        if mode == "global":
            self._probe_block_stats = []
            result = self._search_global(ctx, queries, max_results)
            if reranker in _rr.RERANKER_MODELS:
                result = self._rerank_result(result, queries, question, reranker)
            self.last_metrics = dict(
                mode="global", results=result.num_rows,
                wall_sec=round(_time.time() - t0, 4),
                probe_blocks=self._probe_block_stats,
            )
            # fresh LimitedSearchResults record (global mode applies only
            # max_results, inside the MaxScore top-k itself, and never
            # reads content, so the byte and token totals are not tracked)
            self.last_search_meta = dict(
                n_results=result.num_rows,
                limits_applied=(
                    dict(max_results=max_results, max_bytes=None,
                         max_tokens=None, total_bytes=None, total_tokens=None)
                    if max_results is not None else None
                ),
                n_skipped_by_limits=0,
                cached_blocks_skipped=None,
                files_skipped_early_termination=None,
            )
            return result
        result, lm = self._search_compat(
            ctx, queries, exact, max_results, max_bytes, max_tokens,
            files_only, seen, allow_tests, exhaustive,
        )
        if reranker in _rr.RERANKER_MODELS and not files_only:
            result = self._rerank_result(result, queries, question, reranker)
        # LimitedSearchResults metadata (models.rs:2-9) at doc granularity
        self.last_search_meta = dict(
            n_results=result.num_rows,
            **lm,
            cached_blocks_skipped=None,
            files_skipped_early_termination=None,
        )
        ranks = result.column("rank").to_pylist()
        self.last_metrics = dict(
            mode="compat",
            results=result.num_rows,
            ranked=sum(1 for r in ranks if r is not None),
            flagged=sum(1 for r in ranks if r is None),
            specials=len(ctx.specials),
            wall_sec=round(_time.time() - t0, 4),
        )
        if session_key is not None and not files_only:
            returned = {
                f"{r}/{p}": int(d)
                for r, p, d in zip(
                    result.column("repo").to_pylist(),
                    result.column("path").to_pylist(),
                    result.column("doc_id").to_pylist(),
                )
            }
            self._session_add(session_key, returned)
        return result

    # -- block-granularity search (the reference's real output unit) --------

    @_records_block_metrics
    def search_blocks(
        self,
        queries: list[str] | str,
        *,
        exact: bool = False,
        max_results: int | None = None,
        max_bytes: int | None = None,
        max_tokens: int | None = None,
        language: str | None = None,
        include_filenames: bool = True,
        allow_tests: bool = True,
        session: str | None = None,
        seen: set[str] | None = None,
        no_merge: bool = False,
        merge_threshold: int | None = None,
        exhaustive: bool = False,
        mode: str = "compat",
        global_overfetch: int = 8,
        early_termination: bool | None = None,
        reranker: str = "bm25",
        question: str | None = None,
    ) -> pa.Table:
        """Ranked code BLOCKS (fallback-extractor granularity), rank- and
        score-identical to oracle.oracle_search_blocks on the full
        compat extraction path. CAVEAT: with limits set, early termination
        auto-engages above EARLY_TERM_AUTO_MIN (5000) keyword-matched docs
        (search_runner.rs:892-1208 parity) and is then APPROXIMATE vs the
        full extraction (measured span overlap in BASELINE.md's recall
        table); pass ``early_termination=False`` to force the identical
        path at any scale.

        ``reranker``/``question`` mirror Engine.search: ms-marco-* values
        cross-encoder-rerank the admitted blocks by their CODE text (the
        reference reranks SearchResults, which are blocks —
        result_ranking.rs:139-145); bm25/hybrid/hybrid2/tfidf are the
        standard path. Candidates come from
        the index (dictionary substring expansion over the generated pattern
        needles + filename matches + shadow postings); per-candidate line
        matching, window extraction, block stats and code text are computed
        in a ``map_batches`` over candidate docs only. Ranking is the
        candidate-set BM25 with per-block coverage and node-type boosts;
        then limits -> contained dedup -> adjacent merge (block_merging.rs).

        ``mode="global"`` is the SCALE path (engine extension, like doc-mode
        global): instead of extracting/ranking every candidate's blocks,
        MaxScore prunes to the top max_results x global_overfetch docs by
        corpus-global BM25 and only THOSE are block-extracted and ranked.
        APPROXIMATE vs compat: block stats (n/df/avgdl) are computed over
        the pruned OR-match candidate set, not compat's needle-expansion
        set, so scores shift even at full overfetch — the returned SPANS
        converge to compat's top-k as overfetch grows. Requires a
        ranking-term query (exact/filter-only queries ignore the mode)."""
        from probe_ray import blocks as blk
        from probe_ray import rerank as _rr

        if reranker not in _rr.RERANKER_BM25_ALIASES and (
            reranker not in _rr.RERANKER_MODELS
        ):
            raise ValueError(
                f"unknown reranker {reranker!r}; expected one of "
                f"{_rr.RERANKER_BM25_ALIASES + tuple(_rr.RERANKER_MODELS)}"
            )
        if isinstance(queries, str):
            queries = [queries]
        plan, filters = qp.plan_query(queries, exact)
        specials = plan.specials
        ast_all_exact = qp.is_exact_search(plan.ast)
        ctx = _QueryContext(
            plan=plan, filters=filters, specials=specials,
            filenames_enabled=include_filenames and not exact and not ast_all_exact,
            ast_all_exact=ast_all_exact, language=language,
        )
        seen_blocks: dict[str, list[tuple[int, int]]] | None = None
        if session is not None:
            key = self._session_key(session, queries)
            # block-granularity session (cache.rs:36-42): previously
            # returned block spans per file; legacy file-level entries (doc
            # searches / old sessions) still suppress whole files
            seen = (seen or set()) | self._session_seen(key)
            seen_blocks = self._session_seen_blocks(key)

        patterns = blk.term_patterns(plan)
        all_needles = sorted({p for ps in patterns.values() for p in ps})
        fname_matches = (
            self._filename_match_term_ids(
                ctx, local_ok=self._stats["n_docs"] <= self.LOCAL_DOCS_MAX
            )
            if ctx.filenames_enabled
            else {}
        )

        # Ranking terms, plus the POSITIVE subset in the same walk: MaxScore
        # ranks by OR-of-terms, so the global-mode pruning set must exclude
        # NEGATED terms' keywords (they'd ATTRACT the docs the query bans —
        # the doc-mode global path enforces the same via its pure_or
        # guard); the extractor's boolean eval still enforces exclusions on
        # the pruned candidates.
        ranking_terms: list[str] = []
        positive_terms: list[str] = []
        ranking_ast = None
        if not (exact or ast_all_exact):
            try:
                ranking_ast, _ = qp.parse_query(" ".join(queries), False)
                all_kw: set[str] = set()
                pos_kw: set[str] = set()
                for t in qp.walk_terms(ranking_ast):
                    for kw in t.lowercase_keywords:
                        all_kw.add(kw)
                        if not t.excluded:
                            pos_kw.add(kw)
                ranking_terms = sorted(all_kw)
                positive_terms = sorted(pos_kw)
                if len(ranking_terms) > 256:
                    ranking_ast, ranking_terms, positive_terms = None, [], []
            except qp.ParseError:
                ranking_ast = None

        lang_exts = None
        if ctx.language:
            lang_exts = qp._LANG_EXTENSIONS.get(qp.normalize_language(ctx.language))
        self._cached_skip_counter = {"n": 0, "calls": 0}
        extract = _make_block_extractor(
            ctx, patterns, fname_matches, ranking_terms, lang_exts,
            allow_tests=allow_tests, exact=exact, seen=seen,
            seen_blocks=seen_blocks, counter=self._cached_skip_counter,
        )
        cols = ["doc_id", "repo", "path", "content"] + (
            ["is_test"] if self._has_is_test() else []
        )
        n_cached = len(seen or ()) + sum(
            len(v) for v in (seen_blocks or {}).values()
        )

        # early termination (search_runner.rs:892-1208): with limits set the
        # reference never extracts blocks from every matched file — it ranks
        # files by a cheap early score and stops after
        # estimate_files_needed(...) files (or 2x max_results blocks). The
        # final ranking's candidate-set stats then cover the extracted
        # subset only, exactly as in the reference. Auto-on for large
        # keyword-matched sets (EARLY_TERM_AUTO_MIN); force with
        # early_termination=True/False. Falls back to full extraction when
        # fewer keyword-matched docs exist than the estimate needs.
        self.LAST_BLOCKS_EARLY = None
        limited = (
            max_results is not None or max_bytes is not None
            or max_tokens is not None
        )
        early_feats = None
        if (
            mode != "global" and limited and early_termination is not False
            and ranking_ast is not None and positive_terms
            and not (exact or ast_all_exact or plan.is_universal or exhaustive)
        ):
            early_feats = self._early_terminated_extract(
                ranking_terms, positive_terms, len(queries),
                max_results, max_tokens, n_cached, extract, cols,
                forced=early_termination is True,
            )

        # candidate doc ids: the document-level candidate machinery (plain
        # terms, exact/excluded static-tokenization prefilter, dictionary
        # substring expansion, filename matches) UNION the expansion over
        # the extra line-pattern needles (stems / compound parts, which
        # match as substrings at line level)
        use_global = (
            mode == "global"
            and bool(positive_terms)
            and not (exact or ast_all_exact or plan.is_universal or exhaustive)
        )
        if early_feats is not None:
            cand_ids = None  # extraction already done in early-ranked order
        elif use_global:
            # scale path: MaxScore top docs by corpus-global BM25; only
            # their blocks are extracted and ranked. With an active session
            # the top of the pruned set may be entirely cached spans — widen
            # k_docs by the cached file/span count so pagination keeps
            # surfacing unseen matches past them (compat mode ranks all
            # candidates and needs no widening).
            k_docs = max((max_results or 10) * max(global_overfetch, 1), 1) + n_cached
            ids_g, sc_g, _ = self._maxscore_topk(positive_terms, k_docs)
            if ids_g.size == 0:
                return _BLOCK_SCHEMA.empty_table()
            top = np.argsort(-sc_g, kind="stable")[:k_docs]
            cand_ids = np.sort(ids_g[top])
        elif exhaustive or plan.is_universal:
            # universal (filter-only) plans match every doc: no index probe
            # (search_runner.rs:402-411)
            cand_ids = np.arange(self._stats["n_docs"], dtype=np.int64)
        else:
            cand_ids, _ = self._candidate_ids(ctx, fname_matches)
            extra = sorted(set(all_needles) - set(plan.term_indices))
            if extra:
                id_sets = [cand_ids]
                if self._has_ngrams():
                    gram_ids = self._gram_doc_ids(extra)
                    id_sets.extend(gram_ids.values())
                    extra = [t for t in extra if t not in gram_ids]
                if extra:
                    expansion = self._expand_substring_terms(extra)
                    lookup = sorted({w for ws in expansion.values() for w in ws})
                    postings = self._read_postings(lookup)
                    id_sets.extend(p[0].astype(np.int64) for p in postings.values())
                cand_ids = np.unique(np.concatenate(id_sets))
        if cand_ids is not None and cand_ids.size == 0:
            return _BLOCK_SCHEMA.empty_table()

        # block extraction is a Python-heavy per-doc stage (line matching +
        # window tokenization) — unlike the vectorized doc verifier it pays
        # to fan out even when the docs table fits driver-side
        local_tbl = (
            self._local_docs_table()
            if cand_ids is not None and cand_ids.size <= self.LOCAL_BLOCK_CAND_MAX
            else None
        )
        if early_feats is not None:
            feats, n = early_feats, early_feats.num_rows
        elif local_tbl is not None:
            mask = np.isin(local_tbl.column("doc_id").to_numpy(), cand_ids)
            feats = extract(local_tbl.filter(pa.array(mask)))
            n = feats.num_rows
        else:
            feats, n = self._place_feats(
                self._fetch_candidates(cand_ids, cols)
                .map_batches(extract, batch_format="pyarrow")
                .materialize(),
                _BLOCK_FINISH,
            )
        if n == 0:
            return _BLOCK_SCHEMA.empty_table()
        if exact or ast_all_exact or ranking_ast is None:
            tables = _unranked_rows(_sorted_feats(feats, _BLOCK_FINISH), _BLOCK_FINISH)
        else:
            tables = self._ranked_rows(
                feats, _BLOCK_FINISH, ranking_ast, ranking_terms, len(queries),
                cap=max_results if max_results is not None
                else _BLOCK_SCAN_MAX if limited else None,
            )
        # limits over block code bytes (search_limiter.rs:22-226); only the
        # admitted rows become dicts for the row-wise dedup and merge
        admitted, limits_meta = _apply_limits(
            tables, _BLOCK_FINISH, n, max_results, max_bytes, max_tokens,
            max_iter=_BLOCK_SCAN_MAX,
        )
        return self._assemble_block_results(
            admitted.to_pylist(), limits_meta, queries, no_merge=no_merge,
            merge_threshold=merge_threshold, session=session,
            reranker=reranker, question=question,
        )

    def _assemble_block_results(
        self, rows, limits_meta, queries, *, no_merge, merge_threshold,
        session, reranker="bm25", question=None,
    ) -> pa.Table:
        """Block finish after the limits: code attach -> contained dedup ->
        adjacent merge -> session record -> optional cross-encoder rerank
        of the admitted blocks -> table."""
        from probe_ray import rerank as _rr
        from probe_ray import blocks as blk

        # attach code text for the surviving rows (content only for the
        # final files — small), then contained dedup + adjacent merge
        file_lines = self._file_lines_for(sorted({r["doc_id"] for r in rows}))
        for r in rows:
            r["file"] = f"{r['repo']}/{r['path']}"
            lines = file_lines[r["doc_id"]]
            r["code"] = "\n".join(lines[r["start"] - 1 : r["end"]])
        rows = blk.dedupe_contained_blocks(rows)
        if not no_merge:
            rows = blk.merge_ranked_blocks(
                rows,
                merge_threshold or blk.MERGE_THRESHOLD_DEFAULT,
                {r["file"]: file_lines[r["doc_id"]] for r in rows},
            )
        if session is not None:
            self._session_add_blocks(
                self._session_key(session, queries),
                [(r["file"], int(r["start"]), int(r["end"]), int(r["doc_id"]))
                 for r in rows],
            )
        key = {"start_line": "start", "end_line": "end"}
        out = pa.Table.from_arrays([
            pa.array([r[key.get(f.name, f.name)] for r in rows], f.type)
            for f in _BLOCK_SCHEMA
        ], schema=_BLOCK_SCHEMA)
        if reranker in _rr.RERANKER_MODELS:
            out = _rr.rerank_table(
                out, question or " ".join(queries), model=reranker,
                text_col="code",
            )
        # LimitedSearchResults metadata (models.rs:2-9): applied limits +
        # totals, limit-skip count, cached-block skips (exact when the
        # extractor ran in-process; None on the distributed fan-out), and
        # the early-termination file skip count
        counter = getattr(self, "_cached_skip_counter", None) or {}
        early = self.LAST_BLOCKS_EARLY or {}
        self.last_search_meta = dict(
            n_results=out.num_rows,
            limits_applied=limits_meta["limits_applied"],
            n_skipped_by_limits=limits_meta["n_skipped_by_limits"],
            cached_blocks_skipped=(
                counter.get("n") if counter.get("calls") else None
            ),
            files_skipped_early_termination=early.get(
                "files_skipped_early_termination"
            ),
        )
        return out

    def _docs_rows_for(self, ids: np.ndarray, cols: list[str]) -> pa.Table:
        """Doc rows for the given sorted ids (early-termination chunks are
        <= EARLY_BATCH_SIZE docs — a doc-id predicate read prunes row
        groups; the pinned local table is reused when present)."""
        local = (
            self._local_docs_table()
            if self._stats["n_docs"] <= self.LOCAL_DOCS_MAX
            else None
        )
        if local is not None:
            mask = np.isin(local.column("doc_id").to_numpy(), ids)
            return local.filter(pa.array(mask))
        return self._docs_read_table(
            columns=cols,
            filters=[("doc_id", "in", [int(i) for i in ids])],
        )

    def _early_terminated_extract(
        self,
        ranking_terms: list[str],
        positive_terms: list[str],
        n_queries: int,
        max_results: int | None,
        max_tokens: int | None,
        n_cached: int,
        extract,
        cols: list[str],
        *,
        forced: bool,
    ) -> pa.Table | None:
        """Early-ranked batch extraction (search_runner.rs:892-1208 +
        early_ranker.rs:22-77, index-adapted — see blocks.py): rank the
        keyword-matched docs by the early BM25-like score over posting
        presence nibbles, extract blocks in batches of min(100, est) docs
        in that order, and stop once est files are processed or extracted
        blocks exceed 2x max_results. Returns the feats table, or None to
        fall back to full extraction (fewer matched docs than the estimate
        needs, or below the auto threshold). The session's cached file/span
        count widens the estimate so pagination keeps surfacing unseen
        blocks (the reference removes cached files before ranking instead —
        cache filtering here happens inside the extractor)."""
        from probe_ray import blocks as blk

        postings = self._read_postings(ranking_terms)
        empty = (
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
        )
        stats: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for t in ranking_terms:
            got = postings.get(t)
            if got is None or got[0].size == 0:
                stats[t] = empty
                continue
            ids_t, tfs_t = got
            ctf = (tfs_t & 0xF).astype(np.int64)
            ptf = (tfs_t >> 4).astype(np.int64)
            m = (ctf + ptf) > 0  # tf=0 shadow postings are not matches
            stats[t] = (ids_t[m].astype(np.int64), ctf[m], ptf[m])
        pos_sets = [stats[t][0] for t in positive_terms if stats[t][0].size]
        if not pos_sets:
            return None
        eids = np.unique(np.concatenate(pos_sets))
        est = blk.estimate_files_needed(max_results, max_tokens) + n_cached
        if eids.size < est:
            return None  # full extraction touches fewer files than est
        if not forced and eids.size < self.EARLY_TERM_AUTO_MIN:
            return None
        dls = np.asarray(self._doc_len_array()[eids], dtype=np.float64)
        score = blk.early_rank_scores(
            eids, dls, [stats[t] for t in ranking_terms], n_queries
        )
        ordered = eids[np.lexsort((eids, -score))]
        eff = min(blk.EARLY_BATCH_SIZE, est)
        tables: list[pa.Table] = []
        processed = 0
        n_blocks = 0
        for start in range(0, int(ordered.size), eff):
            chunk = np.sort(ordered[start : start + eff])
            f = extract(self._docs_rows_for(chunk, cols))
            if f.num_rows:
                tables.append(f)
                n_blocks += f.num_rows
            processed += int(chunk.size)
            if processed >= est:
                break
            if max_results is not None and n_blocks > 2 * max_results:
                break
        self.LAST_BLOCKS_EARLY = {
            "files_ranked": int(eids.size),
            "files_processed": processed,
            "files_skipped_early_termination": int(eids.size) - processed,
            "estimated_files_needed": est,
        }
        if not tables:
            return _BLOCK_FEATS_SCHEMA.empty_table()
        return pa.concat_tables(tables)

    def _file_lines_for(self, doc_ids: list[int]) -> dict[int, list[str]]:
        """Effective content lines for the given docs (final-result files
        only — pruned read)."""
        if not doc_ids:
            return {}
        local = getattr(self, "_docs_cache", None)  # reuse if already pinned
        if local is not None:
            ids = local.column("doc_id").to_numpy()
            mask = np.isin(ids, np.asarray(doc_ids, dtype=np.int64))
            sub = local.filter(pa.array(mask))
        else:
            sub = self._docs_read_table(
                columns=["doc_id", "content"],
                filters=[("doc_id", "in", [int(i) for i in doc_ids])],
            )
        return {
            int(i): c.split("\n")
            for i, c in zip(
                sub.column("doc_id").to_pylist(), sub.column("content").to_pylist()
            )
        }

    # -- session cache (cache.rs: block-granularity "file:start-end" keys
    # for block searches; document granularity retained for doc-mode
    # search(); both share the content-sha invalidation scheme) ------------

    def _session_key(self, session: str, queries: list[str]) -> str:
        import hashlib as _h

        qhash = _h.sha256(" AND ".join(queries).encode()).hexdigest()[:16]
        return f"{session}_{qhash}"

    def _session_path(self, key: str) -> str:
        import os

        d = os.path.join(self.paths.root, "sessions")
        os.makedirs(d, exist_ok=True)
        return os.path.join(d, f"{key}.json")

    def _file_shas(self, ids_by_file: dict[str, int]) -> dict[str, str]:
        """file-key -> stored content_sha256 for the given docs (doc-id
        predicate read prunes row groups; session sets are small)."""
        if not ids_by_file:
            return {}
        tbl = self._docs_read_table(
            columns=["doc_id", "repo", "path", "content_sha256"],
            filters=[("doc_id", "in", sorted(set(ids_by_file.values())))],
        )
        by_key = {
            f"{r}/{p}": s
            for r, p, s in zip(
                tbl.column("repo").to_pylist(),
                tbl.column("path").to_pylist(),
                tbl.column("content_sha256").to_pylist(),
            )
        }
        return {fk: by_key[fk] for fk in ids_by_file if fk in by_key}

    def _session_seen(self, key: str) -> set[str]:
        """Load the session's seen set, invalidating entries whose file
        content hash changed or whose file vanished (cache.rs:197-240 —
        the reference stores per-file MD5; this engine uses the stored
        content_sha256 invariant, same semantics)."""
        import json
        import os

        p = self._session_path(key)
        if not os.path.exists(p):
            return set()
        with open(p) as f:
            data = json.load(f)
        if isinstance(data, list):  # pre-invalidation format
            return set(data)
        seen = set(data.get("seen", []))
        recorded = data.get("sha", {})
        ids = data.get("ids", {})
        if not recorded or not ids:
            return seen
        current = self._file_shas({fk: ids[fk] for fk in recorded if fk in ids})
        stale = {fk for fk, sha in recorded.items() if current.get(fk) != sha}
        return seen - stale

    def _session_ids(self, key: str) -> dict[str, int]:
        import json
        import os

        p = self._session_path(key)
        if not os.path.exists(p):
            return {}
        with open(p) as f:
            data = json.load(f)
        return data.get("ids", {}) if isinstance(data, dict) else {}

    def _session_add(self, key: str, files: dict[str, int]) -> None:
        """Record returned files (file-key -> doc_id) with their content
        hashes for later invalidation."""
        import json

        ids = self._session_ids(key)
        ids.update(files)
        current = self._session_seen(key) | set(files)
        # VALIDATED spans only (session keys are mode-agnostic, so a
        # doc-mode write must not re-persist block spans a content change
        # invalidated — same rule as _session_add_blocks)
        blocks = self._session_seen_blocks(key)
        ids = {
            fk: did
            for fk, did in ids.items()
            if fk in current or fk in blocks
        }
        shas = self._file_shas(ids)
        with open(self._session_path(key), "w") as f:
            json.dump(
                dict(seen=sorted(current), sha=shas, ids=ids,
                     blocks={f: sorted(map(list, rs)) for f, rs in blocks.items()}),
                f,
            )

    # -- block-granularity session entries (cache.rs:36-42: identifiers are
    # "file:start-end" block spans; invalidation reuses the per-file
    # content-sha scheme above) --

    def _session_blocks_raw(self, key: str) -> dict[str, list[tuple[int, int]]]:
        import json
        import os

        p = self._session_path(key)
        if not os.path.exists(p):
            return {}
        with open(p) as f:
            data = json.load(f)
        if not isinstance(data, dict):
            return {}
        return {
            f: [tuple(r) for r in rs]
            for f, rs in data.get("blocks", {}).items()
        }

    def _session_seen_blocks(self, key: str) -> dict[str, list[tuple[int, int]]]:
        """Previously returned block spans per file key, dropping every span
        of a file whose content sha changed (cache.rs:197-240 semantics at
        block granularity)."""
        blocks = self._session_blocks_raw(key)
        if not blocks:
            return {}
        ids = self._session_ids(key)
        import json

        with open(self._session_path(key)) as f:
            data = json.load(f)
        recorded = data.get("sha", {}) if isinstance(data, dict) else {}
        tracked = {fk: ids[fk] for fk in blocks if fk in ids and fk in recorded}
        current = self._file_shas(tracked)
        return {
            fk: rs
            for fk, rs in blocks.items()
            if fk not in tracked or current.get(fk) == recorded.get(fk)
        }

    def _session_add_blocks(
        self, key: str, new_blocks: list[tuple[str, int, int, int]]
    ) -> None:
        """Record returned blocks as (file, start, end, doc_id); per-file
        shas ride along for invalidation. Seeds from the VALIDATED span set
        (not the raw file) so spans invalidated by a content change are
        dropped for good — re-persisting them next to the refreshed sha
        would resurrect stale suppressions."""
        import json

        blocks = self._session_seen_blocks(key)
        ids = self._session_ids(key)
        for fk, s, e, did in new_blocks:
            rs = blocks.setdefault(fk, [])
            if (s, e) not in rs:
                rs.append((s, e))
            ids[fk] = did
        seen = self._session_seen(key)
        ids = {fk: did for fk, did in ids.items() if fk in seen or fk in blocks}
        shas = self._file_shas(ids)
        with open(self._session_path(key), "w") as f:
            json.dump(
                dict(seen=sorted(seen), sha=shas, ids=ids,
                     blocks={f2: sorted(map(list, rs)) for f2, rs in blocks.items()}),
                f,
            )

    # -- compat mode --------------------------------------------------------

    def _search_compat(
        self,
        ctx: _QueryContext,
        queries: list[str],
        exact: bool,
        max_results: int | None = None,
        max_bytes: int | None = None,
        max_tokens: int | None = None,
        files_only: bool = False,
        seen: set[str] | None = None,
        allow_tests: bool = True,
        exhaustive: bool = False,
    ) -> tuple[pa.Table, dict]:
        """Doc results and their LimitedSearchResults limits record."""
        plan = ctx.plan
        local_tbl = self._local_docs_table()
        fname_matches = self._filename_match_term_ids(
            ctx, local_ok=self._stats["n_docs"] <= self.LOCAL_DOCS_MAX
        ) if (ctx.filenames_enabled and not plan.is_universal) else {}

        lang_exts = None
        if ctx.language:
            lang_exts = qp._LANG_EXTENSIONS.get(qp.normalize_language(ctx.language))

        # ranking AST (re-parsed from the space-joined original queries —
        # result_ranking.rs:149, ranking.rs:288)
        ranking_ast = None
        ranking_terms: list[str] = []
        if not (exact or ctx.ast_all_exact):
            try:
                ranking_ast, _ = qp.parse_query(" ".join(queries), False)
                ranking_terms = sorted(
                    {kw for t in qp.walk_terms(ranking_ast)
                     for kw in t.lowercase_keywords}
                )
                if len(ranking_terms) > 256:
                    ranking_ast, ranking_terms = None, []
            except qp.ParseError:
                ranking_ast = None

        compound_parts = {
            t: parts
            for t in plan.term_indices
            if len(parts := tok.split_compound_word_for_filtering(
                t, ctx.specials)) > 1
        }
        # the verifier reads token membership from postings: ranking terms,
        # compound parts, and the special plan terms (not in _candidate_ids'
        # plain lookup set) for rows that contain no special's text
        in_plan = set(plan.term_indices)
        extra_lookup = sorted(
            ((set(ranking_terms) | {p for ps in compound_parts.values() for p in ps})
             - in_plan)
            | (set(ctx.specials) & in_plan)
        )

        if plan.is_universal:
            postings = self._read_postings(extra_lookup)
        else:
            cand_ids, postings = self._candidate_ids(ctx, fname_matches, extra_lookup)
        if plan.is_universal or exhaustive:
            # every doc is a candidate (universal plans match every doc,
            # search_runner.rs:402-411; exhaustive is probe's full scan);
            # verification decides
            cand_ids = np.arange(self._stats["n_docs"], dtype=np.int64)
        if cand_ids.size == 0:
            return _empty_result(), _NO_LIMITS

        go_local = local_tbl is not None and cand_ids.size <= self.LOCAL_CAND_MAX
        verify = _make_vector_verifier(
            ctx, lang_exts, fname_matches, ranking_terms, compound_parts,
            postings, seen=seen, files_only=files_only, allow_tests=allow_tests,
            fanout=go_local,
        )
        if go_local:
            mask = np.isin(local_tbl.column("doc_id").to_numpy(), cand_ids)
            if cand_ids.size > 0.5 * self._stats["n_docs"]:
                # majority of the corpus: skip the table copy, verify the
                # full cached table under the candidate mask
                feats = verify(local_tbl, mask)
            else:
                feats = verify(local_tbl.filter(pa.array(mask)))
            n = feats.num_rows
        else:
            cols = ["doc_id", "repo", "path", "content", "doc_len"] + (
                ["is_test"] if not allow_tests and self._has_is_test() else []
            )
            feats, n = self._place_feats(
                self._fetch_candidates(cand_ids, cols)
                .map_batches(verify, batch_format="pyarrow").materialize(),
                _DOC_FINISH,
            )

        ranked = not (files_only or exact or ctx.ast_all_exact)
        if not ranked:
            tables = _unranked_rows(_sorted_feats(feats, _DOC_FINISH), _DOC_FINISH)
        elif n == 0 or ranking_ast is None:
            return _empty_result(), _NO_LIMITS
        else:
            tables = self._ranked_rows(
                feats, _DOC_FINISH, ranking_ast, ranking_terms, len(queries),
                cap=max_results,
            )
        admitted, limits_meta = _apply_limits(
            tables, _DOC_FINISH, n, max_results, max_bytes, max_tokens
        )
        plan_terms = sorted(plan.term_indices, key=plan.term_indices.__getitem__)
        return _doc_result(admitted, plan_terms, ranked), limits_meta

    # -- shared finishes (docs and blocks; in-process or as Ray jobs) --------

    _HIST_BUCKETS = 4096

    def _place_feats(
        self, feats_ds: rd.Dataset, spec: _FinishSpec
    ) -> tuple[pa.Table | rd.Dataset, int]:
        """Where the finish runs: materialized feats of up to LOCAL_FEATS_MAX
        rows come to the driver as one table, larger sets stay a Dataset
        and finish as Ray jobs. Returns the feats and their row count."""
        n = feats_ds.count()
        if n > self.LOCAL_FEATS_MAX:
            return feats_ds, n
        # zero-row blocks keep their upstream schema (Ray forwards them
        # without calling the UDF): drop them before the concat
        tables = [
            t for t in (ray.get(r) for r in feats_ds.to_arrow_refs())
            if t.num_rows > 0
        ]
        return (pa.concat_tables(tables) if tables else spec.schema.empty_table()), n

    def _ranked_rows(
        self, feats, spec: _FinishSpec, ranking_ast, ranking_terms,
        n_queries: int, cap: int | None,
    ):
        """The ranked finish, a scatter-gather top-k (REPOSE): per-block
        stats partials reduce to candidate-set BM25 statistics (N, avgdl,
        df — SURVEY.md §7.4); each block scores its rows and keeps its top
        ``cap``; the driver merges them in (-score, -bm25_score, cand_key)
        order, the reference's stable boosted sort over the bm25 order
        (oracle.py). Yields those rows as one finished table with rank
        1.., then the flagged rows of the positional-overwrite quirk
        (result_ranking.rs:337-358) as sorted tables with a null rank and
        zero scores: the candidates past the k_valid-th in cand_key order,
        in file order. The k_valid-th key is located by a key histogram
        and one read of the keys in its bucket, so no O(candidates) state
        reaches the driver; flagged rows are only located once the
        consumer reads past the ranked table."""
        hb = self._HIST_BUCKETS
        key_max = (self._stats["n_docs"] + 1) << spec.shift
        # divide before multiply: key * hb would wrap int64 on big corpora
        bucket_w = max(1, -(-key_max // hb))
        rt = list(ranking_terms)

        def buckets(keys: np.ndarray) -> np.ndarray:
            return np.minimum(keys // bucket_w, hb - 1)

        def partials(tbl: pa.Table) -> pa.Table:
            # one summable vector per block: [sum_dl, df per term, key hist]
            df = (
                (_tf_matrix(tbl.column("tf"), tbl.num_rows, np.int64) > 0).sum(axis=0)
                if rt else np.zeros(0, np.int64)
            )
            hist = np.bincount(buckets(_cand_keys(tbl, spec.shift)), minlength=hb)
            vec = np.concatenate([[tbl.column("dl").to_numpy().sum()], df, hist])
            return pa.table({"stats": pa.FixedSizeListArray.from_arrays(
                pa.array(vec, pa.int64()), vec.size
            )})

        parts = pa.concat_tables(_map_feats(feats, partials)).column("stats")
        stats = (
            parts.combine_chunks().flatten().to_numpy()
            .reshape(len(parts), -1).sum(axis=0)
        )
        sum_dl, df_vec, hist = stats[0], stats[1 : 1 + len(rt)], stats[1 + len(rt) :]
        n_cand = int(hist.sum())
        avgdl = int(sum_dl) / n_cand
        idfs = {t: idf(n_cand, int(df)) for t, df in zip(rt, df_vec) if df > 0}
        top_schema = pa.schema(
            [spec.schema.field(c) for c in spec.row_cols]
            + [("cand_key", pa.int64()), ("score", pa.float64()),
               ("bm25_score", pa.float64()), ("n_valid", pa.int64())]
        )

        def score_topk(tbl: pa.Table) -> pa.Table:
            bm25, boosted, valid = _score_feats_vectorized(
                tbl, ranking_ast, rt, idfs, avgdl, n_queries
            )
            if spec.boost is not None:
                boosted = boosted * spec.boost(tbl)
            keys = _cand_keys(tbl, spec.shift)
            vi = np.flatnonzero(valid)
            order = vi[np.lexsort((keys[vi], -bm25[vi], -boosted[vi]))][:cap]
            out = tbl.select(list(spec.row_cols)).take(pa.array(order, pa.int64()))
            # the block's valid-row count rides on its first kept row (0 on
            # the others), so the driver's sum over all rows stays right
            # however Ray Data joins or splits the per-call outputs
            n_valid = np.zeros(order.size, np.int64)
            n_valid[:1] = vi.size
            for name, col in (
                ("cand_key", keys[order]), ("score", boosted[order]),
                ("bm25_score", bm25[order]), ("n_valid", n_valid),
            ):
                out = out.append_column(name, pa.array(col))
            return out.cast(top_schema)

        tops = _map_feats(feats, score_topk)
        k_valid = sum(pc.sum(t.column("n_valid")).as_py() for t in tops)
        if tops:
            top = pa.concat_tables(tops)
            order = np.lexsort((
                top.column("cand_key").to_numpy(),
                -top.column("bm25_score").to_numpy(),
                -top.column("score").to_numpy(),
            ))[:cap]
            top = top.take(pa.array(order))
            yield _finished(
                top, spec, pa.array(np.arange(1, order.size + 1)),
                top.column("score"), top.column("bm25_score"),
            )
        if k_valid == n_cand:
            return
        d_star = 0
        if k_valid:
            cum = np.cumsum(hist)
            b0 = int(np.searchsorted(cum, k_valid, side="right"))
            prior = int(cum[b0 - 1]) if b0 > 0 else 0

            def pick_bucket(tbl: pa.Table) -> pa.Table:
                keys = _cand_keys(tbl, spec.shift)
                return pa.table({"k": keys[buckets(keys) == b0]})

            in_bucket = np.sort(np.concatenate(
                [t.column("k").to_numpy() for t in _map_feats(feats, pick_bucket)]
            ))
            d_star = int(in_bucket[k_valid - prior])
        yield from _unranked_rows(_sorted_feats(feats, spec, d_star), spec)

    # -- global mode --------------------------------------------------------

    def _search_global(
        self, ctx: _QueryContext, queries: list[str], max_results: int | None
    ) -> pa.Table:
        """Corpus-global statistics, index-only scoring (the scale path)."""
        try:
            ranking_ast, _ = qp.parse_query(" ".join(queries), False)
        except qp.ParseError:
            return _empty_result()
        terms = sorted(
            {kw for t in qp.walk_terms(ranking_ast) for kw in t.lowercase_keywords}
        )
        if not terms or len(terms) > 256:
            return _empty_result()

        # pure OR-of-terms + top-k -> MaxScore pruned path (block-max bounds)
        pure_or = all(
            not t.required and not t.excluded for t in qp.walk_terms(ranking_ast)
        )
        if pure_or and max_results is not None:
            mult: dict[str, int] = {}
            for tnode in qp.walk_terms(ranking_ast):
                for kw in tnode.lowercase_keywords:
                    mult[kw] = mult.get(kw, 0) + 1
            acc_ids, acc_sc, matched = self._maxscore_topk(
                terms, max_results, weights=mult
            )
            pos_order = np.lexsort((acc_ids, -acc_sc))[:max_results]
            hit_ids = acc_ids[pos_order]
            hit_sc = acc_sc[pos_order]
            mask = np.stack(
                [np.isin(hit_ids, matched.get(t, ())) for t in terms], axis=1
            )
            return self._global_result(hit_ids, hit_sc, mask, terms)

        postings = self._read_postings(terms)
        if not postings:
            return _empty_result()
        n_docs = self._stats["n_docs"]
        avgdl = self._stats["avgdl"]

        all_ids = np.unique(
            np.concatenate([p[0] for p in postings.values()]).astype(np.int64)
        )
        idfs = {
            t: idf(
                n_docs,
                int((((postings[t][1] & 0xF) + (postings[t][1] >> 4)) > 0).sum()),
            )
            for t in postings
        }
        tf_mat = np.zeros((len(terms), all_ids.size), dtype=np.float64)
        for ti_, t in enumerate(terms):
            if t not in postings:
                continue
            ids, tfb = postings[t]
            tf = (tfb & 0xF) + (tfb >> 4)
            idxs = np.searchsorted(all_ids, ids.astype(np.int64))
            tf_mat[ti_, idxs] = tf
        # doc lengths for the involved docs only
        dls = self._doc_lens(all_ids).astype(np.float64)
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * dls / avgdl)

        def term_scores(ti_: int, t: str) -> np.ndarray:
            tf = tf_mat[ti_]
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.where(tf > 0, idfs.get(t, 0.0) * tf * (BM25_K1 + 1.0) / (tf + norm), 0.0)
            return s

        score_vecs = {t: term_scores(i, t) for i, t in enumerate(terms)}

        def eval_expr(expr: qp.Expr) -> tuple[np.ndarray, np.ndarray]:
            """Returns (score, valid_mask) arrays implementing
            score_expr_bm25_optimized vectorized."""
            if isinstance(expr, qp.Term):
                s = np.zeros(all_ids.size)
                for kw in expr.lowercase_keywords:
                    if kw in score_vecs:
                        s = s + score_vecs[kw]
                if expr.excluded:
                    return np.zeros_like(s), s <= 0
                if expr.required:
                    return s, s > 0
                return s, np.ones_like(s, dtype=bool)
            ls, lv = eval_expr(expr.left)
            rs, rv = eval_expr(expr.right)
            if isinstance(expr, qp.And):
                return ls + rs, lv & rv
            both = lv & rv
            s = np.where(both, ls + rs, np.where(lv, ls, rs))
            return s, lv | rv

        scores, valid = eval_expr(ranking_ast)
        # a doc must have at least one positive contribution to be a hit
        valid = valid & (scores > 0)
        hit_idx = np.flatnonzero(valid)
        order = hit_idx[np.lexsort((all_ids[hit_idx], -scores[hit_idx]))]
        if max_results is not None:
            order = order[:max_results]
        return self._global_result(
            all_ids[order], scores[order], tf_mat[:, order].T > 0, terms
        )

    def _global_result(self, ids: np.ndarray, scores: np.ndarray,
                       mask: np.ndarray, terms: list[str]) -> pa.Table:
        """Global-mode result table, ranked in ``ids`` order; ``mask`` marks
        each row's matched ``terms``."""
        repos, paths = self._doc_meta(ids)
        return pa.table({
            "doc_id": ids, "repo": repos, "path": paths,
            "rank": np.arange(1, ids.size + 1), "score": scores,
            "bm25_score": scores,
            "matched_terms": _terms_column(mask, terms),
        }, schema=RESULT_SCHEMA)

    def _doc_lens(self, ids: np.ndarray) -> np.ndarray:
        """doc_len of the given doc ids, in ids order. Served from the
        engine's cached dense array below LOCAL_DOCS_MAX (no per-query table
        read); read with _docs_at above it."""
        if self._stats["n_docs"] <= self.LOCAL_DOCS_MAX:
            return self._doc_len_array()[ids]
        return self._docs_at(ids, ["doc_len"])[0].to_numpy()

    def _doc_meta(self, ids: np.ndarray) -> list[pa.Array]:
        """(repo, path) columns of the given doc ids, in ids order.
        Engine-cached object arrays below LOCAL_DOCS_MAX (read once per
        engine, not per query); read with _docs_at above it (final-result
        ids only — small)."""
        if self._stats["n_docs"] <= self.LOCAL_DOCS_MAX:
            if getattr(self, "_meta_cache", None) is None:
                tbl = self._docs_read_table(
                    columns=["doc_id", "repo", "path"]
                )
                d = tbl.column("doc_id").to_numpy()
                repo = np.empty(self._stats["n_docs"], dtype=object)
                path = np.empty(self._stats["n_docs"], dtype=object)
                repo[d] = tbl.column("repo").to_pylist()
                path[d] = tbl.column("path").to_pylist()
                self._meta_cache = (repo, path)
            return [pa.array(c[ids], pa.string()) for c in self._meta_cache]
        return self._docs_at(ids, ["repo", "path"])

    def _docs_at(self, ids: np.ndarray, columns: list[str]) -> list[pa.Array]:
        """``columns`` of the given doc ids' docs rows, in ids order; a
        doc_id parquet predicate prunes row groups (doc files are
        doc_id-sorted by construction)."""
        tbl = self._docs_read_table(
            columns=["doc_id", *columns],
            filters=[("doc_id", "in", [int(i) for i in ids])],
        )
        at = pc.index_in(pa.array(ids, pa.int64()), value_set=tbl.column("doc_id"))
        return [tbl.column(c).take(at) for c in columns]


# ---------------------------------------------------------------------------
# Block-granularity schemas + closures
# ---------------------------------------------------------------------------

_BLOCK_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("start_line", pa.int64()),
        ("end_line", pa.int64()),
        ("node_type", pa.string()),
        ("rank", pa.int64()),
        ("score", pa.float64()),
        ("bm25_score", pa.float64()),
        ("matched_keywords", pa.list_(pa.string())),
        ("matched_lines", pa.list_(pa.int64())),
        ("code", pa.string()),
    ]
)

_BLOCK_FEATS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("start", pa.int64()),
        ("end", pa.int64()),
        ("node_type", pa.string()),
        # position among its file's extracted blocks, which come in
        # (start, end, node_type) order: blocks of one file may share a start
        ("ord", pa.int32()),
        ("dl", pa.int32()),
        ("tf", pa.list_(pa.int32())),
        ("but", pa.int32()),
        ("matched_keywords", pa.list_(pa.string())),
        ("matched_lines", pa.list_(pa.int64())),
        ("n_code_bytes", pa.int64()),
    ]
)


def _make_block_extractor(ctx, patterns, fname_matches, ranking_terms, lang_exts,
                          *, allow_tests, exact, seen, seen_blocks=None,
                          counter=None):
    """Per-batch closure: candidate docs -> block feature rows (no code
    text; narrow columns only). Line matching, window extraction and block
    stats are blocks.py pure functions — identical to the oracle's."""
    from probe_ray import blocks as blk
    from probe_ray.tools import is_test_file

    plan = ctx.plan
    filters = ctx.filters
    specials = ctx.specials
    no_filters = filters.is_empty()
    term_indices = plan.term_indices
    pat_ref = ray.put(patterns)
    fname_ref = ray.put(fname_matches)  # term -> sorted doc_id array
    seen = seen or set()
    seen_blocks = {
        f: [tuple(r) for r in ranges] for f, ranges in (seen_blocks or {}).items()
    }
    rt = list(ranking_terms)
    rt_set = frozenset(rt)

    def extract(batch: pa.Table) -> pa.Table:
        # the cached-skip counter only survives when this closure runs in
        # the driver process (the local / early paths); Ray tasks mutate a
        # pickled copy, so callers treat calls == 0 as "count unknown"
        if counter is not None:
            counter["calls"] += 1
        pats = ray.get(pat_ref)
        fnames = ray.get(fname_ref)
        ids = batch.column("doc_id").to_pylist()
        repos = batch.column("repo").to_pylist()
        paths = batch.column("path").to_pylist()
        contents = batch.column("content").to_pylist()
        test_flags = (
            batch.column("is_test").to_pylist()
            if not allow_tests and "is_test" in batch.schema.names
            else None
        )
        ids_np = np.asarray(ids, dtype=np.int64)
        fname_mask = {
            t: np.isin(ids_np, arr) for t, arr in fnames.items()
        }
        out: dict[str, list] = {k: [] for k in (
            "doc_id", "repo", "path", "start", "end", "node_type", "ord",
            "dl", "tf", "but", "matched_keywords", "matched_lines",
            "n_code_bytes")}
        for row_i, (did, repo, path, content) in enumerate(
            zip(ids, repos, paths, contents)
        ):
            if not allow_tests and (
                test_flags[row_i]
                if test_flags is not None
                else is_test_file(path, content)
            ):
                continue
            if lang_exts is not None:
                ext = path.rsplit(".", 1)[-1].lower() if "." in path else None
                if ext is None or ext not in lang_exts:
                    continue
            if not no_filters and not filters.matches_path(path):
                continue
            lines = content.split("\n")
            term_map = blk.line_term_matches(lines, pats)
            if plan.is_universal:
                # "." pattern: every non-empty line matches term 0
                term_map = blk.universal_term_matches(lines)
            for t, mask in fname_mask.items():
                if mask[row_i]:
                    term_map.setdefault(term_indices[t], set()).update(
                        range(1, len(lines) + 1)
                    )
            if not term_map:
                continue
            if not qp.evaluate(plan.ast, set(term_map), term_indices, True):
                continue
            if seen and f"{repo}/{path}" in seen:
                continue
            cached_ranges = seen_blocks.get(f"{repo}/{path}", [])
            if cached_ranges:
                # block-granularity session: drop lines inside previously
                # returned blocks pre-extraction (cache.rs:418-505); each
                # cached span of an admitted file counts as a skipped block
                if counter is not None:
                    counter["n"] += len(cached_ranges)
                term_map = blk.remove_cached_lines(term_map, cached_ranges)
                if not term_map:
                    continue
            for ord_, b in enumerate(blk.extract_blocks(
                lines, path, term_map, plan, specials,
                allow_tests=allow_tests, exact=exact,
            )):
                if (b["start"], b["end"]) in cached_ranges:
                    continue  # exact-id post-filter (cache.rs:318-360;
                    # span already counted with its file's cached ranges)
                if rt:
                    cnt: dict[str, int] = {}
                    for tok_ in b["tokenized"]:
                        if tok_ in rt_set:
                            cnt[tok_] = cnt.get(tok_, 0) + 1
                    tf = [cnt.get(t, 0) for t in rt]
                else:
                    tf = []
                out["doc_id"].append(did)
                out["repo"].append(repo)
                out["path"].append(path)
                out["start"].append(b["start"])
                out["end"].append(b["end"])
                out["node_type"].append(b["node_type"])
                out["ord"].append(ord_)
                out["dl"].append(len(b["tokenized"]))
                out["tf"].append(tf)
                out["but"].append(b["but"])
                out["matched_keywords"].append(b["matched_keywords"])
                out["matched_lines"].append(b["matched_lines"])
                out["n_code_bytes"].append(
                    len(b["code"].encode("utf-8", "surrogatepass"))
                )
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "repo": pa.array(out["repo"], pa.string()),
                "path": pa.array(out["path"], pa.string()),
                "start": pa.array(out["start"], pa.int64()),
                "end": pa.array(out["end"], pa.int64()),
                "node_type": pa.array(out["node_type"], pa.string()),
                "ord": pa.array(out["ord"], pa.int32()),
                "dl": pa.array(out["dl"], pa.int32()),
                "tf": pa.array(out["tf"], pa.list_(pa.int32())),
                "but": pa.array(out["but"], pa.int32()),
                "matched_keywords": pa.array(
                    out["matched_keywords"], pa.list_(pa.string())
                ),
                "matched_lines": pa.array(
                    out["matched_lines"], pa.list_(pa.int64())
                ),
                "n_code_bytes": pa.array(out["n_code_bytes"], pa.int64()),
            }
        )

    return extract


# ---------------------------------------------------------------------------
# Batch closures (pure functions over broadcast query state)
# ---------------------------------------------------------------------------

_FEATS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("dl", pa.int32()),
        ("tf", pa.list_(pa.int32())),
        # packed per-plan-term bitmasks (np.packbits over the alphabetical
        # plan-term order); decoded to term lists only for FINAL output rows
        ("matched_bits", pa.binary()),
        ("kws_bits", pa.binary()),
        ("but", pa.int32()),
        ("n_bytes", pa.int64()),
    ]
)


def _retokenize(tbl: pa.Table, specials, needed_terms, plan_terms):
    """Fresh tokens for rows whose content or path contains a special term's
    text: (doc_len, tf over needed_terms, str.lower() containment of each
    plan term) — the row's token vector and injection inputs exactly as
    oracle.doc_token_vector builds them."""
    contents = tbl.column("content").to_pylist()
    paths = tbl.column("path").to_pylist()
    col = {t: j for j, t in enumerate(needed_terms)}
    dl = np.zeros(len(contents), dtype=np.int32)
    tf = np.zeros((len(contents), len(needed_terms)), dtype=np.int32)
    sub = np.zeros((len(contents), len(plan_terms)), dtype=bool)
    for i, (c, p) in enumerate(zip(contents, paths)):
        vector = tok.tokenize(c, specials) + tok.tokenize(p, specials)
        dl[i] = len(vector)
        for v in vector:
            j = col.get(v)
            if j is not None:
                tf[i, j] += 1
        cl = c.lower()
        sub[i] = [t in cl for t in plan_terms]
    return dl, tf, sub


_retokenize_task = ray.remote(num_cpus=1)(_retokenize)

# driver-local verify: above this many special-hit rows the Python
# re-tokenize fans out as plain Ray tasks (the table is already in driver
# memory — a Dataset job's fixed overhead would dominate)
_HIT_FANOUT_MIN = 384
_HIT_FANOUT_TASKS = 32


def _str_lower(col) -> pa.Array:
    """Python ``str.lower()`` of a string column, oracle.py's lowercase.
    Arrow ``utf8_lower`` differs on a few codepoints (U+0130 lowers to two
    chars in Python), so non-ASCII rows are lowered in Python."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    low = pc.utf8_lower(col)
    non_ascii = pc.invert(pc.string_is_ascii(col)).fill_null(False)
    idx = np.flatnonzero(non_ascii.to_numpy(zero_copy_only=False))
    if not idx.size:
        return low
    fixed = [s.lower() for s in col.take(pa.array(idx)).to_pylist()]
    return pc.replace_with_mask(low, non_ascii, pa.array(fixed, pa.string()))


def _special_hits(batch: pa.Table, specials, keep: np.ndarray) -> np.ndarray:
    """Rows (among ``keep``) whose lowered content or path contains a
    special term's text. Only these can tokenize differently from their
    stored tokens (is_special_case compares words and parts that are
    substrings of the text; file_processing.rs:1353-1358)."""
    n = batch.num_rows
    hit = np.zeros(n, dtype=bool)
    if not specials:
        return hit
    if "content_lower" in batch.schema.names:
        cl = batch.column("content_lower")
    else:
        cl = _str_lower(batch.column("content"))
    pl = _str_lower(batch.column("path"))
    for s in specials:
        hit |= pc.match_substring(cl, s).to_numpy(zero_copy_only=False)
        hit |= pc.match_substring(pl, s).to_numpy(zero_copy_only=False)
    return hit & keep


def _make_vector_verifier(ctx, lang_exts, fname_matches, ranking_terms,
                          compound_parts, postings, seen=None, files_only=False,
                          allow_tests=True, fanout=False):
    """Candidate verification (J2 in SURVEY.md §3.5): per-doc term bitmaps
    from decoded postings (token membership), Arrow match_substring for the
    exact-literal injection rule (file_processing.rs:1353-1358), numpy
    boolean evaluation. Rows containing a special (quoted/exact/excluded)
    term's text are re-tokenized in Python and their membership, tf and
    doc_len replaced by the fresh counts; everything after that is the same
    numpy code for every row. ``files_only`` admits with negatives ignored
    and no session anti-join (search_runner.rs:637-686, 699-744). Used both
    driver-side (with a candidate mask; ``fanout`` lets a large re-tokenize
    run as Ray tasks) and as a map_batches function."""
    from probe_ray.tools import is_test_file

    plan = ctx.plan
    term_indices = plan.term_indices
    plan_terms = sorted(term_indices, key=term_indices.__getitem__)
    filters = ctx.filters
    no_filters = filters.is_empty()
    is_universal = plan.is_universal
    vec_eval = None if is_universal else qp.make_vector_evaluator(
        plan.ast, term_indices, ignore_negatives=files_only
    )
    seen = (seen or set()) if not files_only else set()
    specials = ctx.specials
    n_queries_terms = len(plan_terms)

    needed_terms = sorted(
        set(plan_terms)
        | set(ranking_terms)
        | {p for ps in compound_parts.values() for p in ps}
    )
    post_small = {}
    for t in needed_terms:
        if t in postings:
            ids, tfb = postings[t]
            post_small[t] = (
                ids.astype(np.int64),
                ((tfb & 0xF) + (tfb >> 4)).astype(np.int16),
            )
    post_ref = ray.put(post_small)
    fname_ref = ray.put(fname_matches)  # term -> sorted doc_id array
    rt_in_plan = {t for t in ranking_terms if t in term_indices}

    def verify(batch: pa.Table, cand_mask=None) -> pa.Table:
        posts = ray.get(post_ref)
        fnames = ray.get(fname_ref)
        n = batch.num_rows
        if n == 0:
            return _FEATS_SCHEMA.empty_table()
        ids = batch.column("doc_id").to_numpy()
        keep = np.ones(n, dtype=bool) if cand_mask is None else cand_mask.copy()
        if not allow_tests:
            # --allow-tests off: test files excluded (file_list_cache.rs);
            # indexes built before the static is_test column re-detect
            if "is_test" in batch.schema.names:
                keep &= ~batch.column("is_test").to_numpy(zero_copy_only=False)
            else:
                take = pa.array(np.flatnonzero(keep))
                for i, p, c in zip(
                    take.to_pylist(),
                    batch.column("path").take(take).to_pylist(),
                    batch.column("content").take(take).to_pylist(),
                ):
                    keep[i] = not is_test_file(p, c)
        paths = None
        if lang_exts is not None or not no_filters:
            paths = batch.column("path").to_pylist()
            for i, p in enumerate(paths):
                if lang_exts is not None:
                    ext = p.rsplit(".", 1)[-1].lower() if "." in p else None
                    if ext is None or ext not in lang_exts:
                        keep[i] = False
                        continue
                if not no_filters and not filters.matches_path(p):
                    keep[i] = False

        def member_tf(t):
            pt = posts.get(t)
            if pt is None:
                return np.zeros(n, dtype=np.int32)
            pid, ptf = pt
            idx = np.searchsorted(pid, ids)
            idx_c = np.minimum(idx, len(pid) - 1)
            return np.where(pid[idx_c] == ids, ptf[idx_c], 0).astype(np.int32)

        tfvals = {t: member_tf(t) for t in needed_terms}
        dl = batch.column("doc_len").to_numpy().astype(np.int32)

        # rows a special term touches: fresh tokens replace the stored ones
        hit_idx = np.flatnonzero(_special_hits(batch, specials, keep))
        sub_hit = None
        if hit_idx.size:
            sub = batch.select(["content", "path"]).take(pa.array(hit_idx))
            args = (specials, needed_terms, plan_terms)
            if fanout and hit_idx.size >= _HIT_FANOUT_MIN:
                step = -(-hit_idx.size // _HIT_FANOUT_TASKS)
                parts = ray.get([
                    _retokenize_task.remote(sub.slice(i, step), *args)
                    for i in range(0, hit_idx.size, step)
                ])
                dl_hit, tf_hit, sub_hit = (
                    np.concatenate([p[k] for p in parts]) for k in range(3)
                )
            else:
                dl_hit, tf_hit, sub_hit = _retokenize(sub, *args)
            dl[hit_idx] = dl_hit
            for j, t in enumerate(needed_terms):
                tfvals[t][hit_idx] = tf_hit[:, j]
        # token membership requires a REAL posting (tf > 0); tf=0 rows are
        # shadow postings used only for substring candidate gen
        member = {t: v > 0 for t, v in tfvals.items()}

        # exact-literal injection (file_processing.rs:1353-1358), vectorized
        content_lower = None
        if "content_lower" in batch.schema.names:  # engine-cached
            content_lower = batch.column("content_lower")
        inj = {}
        inj_count = np.zeros(n, dtype=np.int32)
        for k, t in enumerate(plan_terms):
            missing = ~member[t]
            if missing.any():
                if content_lower is None:
                    content_lower = _str_lower(batch.column("content"))
                contained = pc.match_substring(content_lower, t).to_numpy(
                    zero_copy_only=False
                )
                if sub_hit is not None:
                    contained[hit_idx] = sub_hit[:, k]
                inj[t] = contained & missing
            else:
                inj[t] = np.zeros(n, dtype=bool)
            inj_count += inj[t]

        full = {}
        for t in plan_terms:
            f = member[t] | inj[t]
            fn_ids = fnames.get(t)
            if fn_ids is not None and ctx.filenames_enabled:
                f = f | np.isin(ids, fn_ids)
            full[t] = f

        if is_universal:
            admit = keep
        else:
            # a doc matching no plan term is never a candidate, even for an
            # all-excluded query (search_runner.rs; oracle_search_docs)
            admit = keep & vec_eval(full, n) & np.logical_or.reduce(
                [full[t] for t in plan_terms]
            )
        if seen:
            if paths is None:
                paths = batch.column("path").to_pylist()
            repos_l = batch.column("repo").to_pylist()
            seen_mask = np.array(
                [f"{r}/{p}" in seen for r, p in zip(repos_l, paths)], dtype=bool
            )
            admit &= ~seen_mask
        if not admit.any():
            return _FEATS_SCHEMA.empty_table()

        dl += inj_count
        tf_mat = np.zeros((n, len(ranking_terms)), dtype=np.int32)
        for j, t in enumerate(ranking_terms):
            col = tfvals[t]
            if t in rt_in_plan:
                col = col + inj[t]
            tf_mat[:, j] = col

        # block stats (file_processing.rs:1426-1469): direct = plan-term
        # presence in the (injected) vector; compound = all parts present
        but = np.zeros(n, dtype=np.int32)
        kws_mask = np.zeros((n, n_queries_terms), dtype=bool)
        for j, t in enumerate(plan_terms):
            direct = member[t] | inj[t]
            comp = np.zeros(n, dtype=bool)
            parts = compound_parts.get(t)
            if parts:
                comp = np.ones(n, dtype=bool)
                for p in parts:
                    pm = member[p] | inj.get(p, False)
                    comp &= pm
                comp &= ~direct
            kws_mask[:, j] = direct | comp
            but += (direct | comp).astype(np.int32)

        sel = np.flatnonzero(admit)
        repos_l = batch.column("repo").to_pylist()
        if paths is None:
            paths = batch.column("path").to_pylist()
        if "n_bytes_pre" in batch.schema.names:
            n_bytes = batch.column("n_bytes_pre").to_numpy()
        else:
            n_bytes = pc.binary_length(
                batch.column("content").cast(pa.binary())
            ).to_numpy(zero_copy_only=False)
        if n_queries_terms:
            kb_list = [b.tobytes() for b in np.packbits(kws_mask[sel], axis=1)]
        else:
            kb_list = [b""] * sel.size
        if n_queries_terms and not (files_only or is_universal):
            matched_mat = np.stack([full[t] for t in plan_terms], axis=1)
            mb_list = [b.tobytes() for b in np.packbits(matched_mat[sel], axis=1)]
        else:
            # files_only and universal rows report no matched terms
            mb_list = [b""] * sel.size
        return pa.table(
            {
                "doc_id": pa.array(ids[sel], pa.int64()),
                "repo": pa.array([repos_l[i] for i in sel], pa.string()),
                "path": pa.array([paths[i] for i in sel], pa.string()),
                "dl": pa.array(dl[sel], pa.int32()),
                "tf": pa.array(tf_mat[sel].tolist(), pa.list_(pa.int32())),
                "matched_bits": pa.array(mb_list, pa.binary()),
                "kws_bits": pa.array(kb_list, pa.binary()),
                "but": pa.array(but[sel], pa.int32()),
                "n_bytes": pa.array(n_bytes[sel].astype(np.int64), pa.int64()),
            }
        )

    return verify


# ---------------------------------------------------------------------------
# Shared finish: the per-block functions run on one in-process feats table
# or as Ray Data jobs over a materialized feats Dataset; only _map_feats and
# _sorted_feats tell the two apart
# ---------------------------------------------------------------------------

_KEY_SHIFT = 21  # block cand_key = doc_id << 21 | ord: unique, in canonical
#                  (doc_id, start, end, node_type) order (files are <= 1 MiB,
#                  so a file's block count stays well under 2^21)
# with limits but no max_results, block limits examine at most this many
# rows (search_limiter.rs; oracle.oracle_search_blocks' max_iter)
_BLOCK_SCAN_MAX = 1000
_NO_LIMITS = dict(limits_applied=None, n_skipped_by_limits=0)


@dataclass(frozen=True)
class _FinishSpec:
    """How the shared finishes read one kind of feats row."""

    shift: int  # canonical candidate key: doc_id << shift | ord
    sort_cols: tuple[str, ...]  # file order of unranked rows (cand_key last)
    row_cols: tuple[str, ...]  # feats columns a finished row carries
    size_col: str  # the bytes the limits count
    schema: pa.Schema  # the feats schema
    boost: Callable[[pa.Table], np.ndarray] | None = None  # per-row factor

    @functools.cached_property
    def empty(self) -> pa.Table:
        """An empty finished table: the row columns, rank (null when
        unranked) and the two scores."""
        return pa.schema(
            [self.schema.field(c) for c in self.row_cols]
            + [("rank", pa.int64()), ("score", pa.float64()),
               ("bm25_score", pa.float64())]
        ).empty_table()


def _cand_keys(tbl: pa.Table, shift: int) -> np.ndarray:
    ids = tbl.column("doc_id").to_numpy().astype(np.int64)
    if not shift:
        return ids
    return (ids << shift) + tbl.column("ord").to_numpy().astype(np.int64)


def _map_feats(feats: pa.Table | rd.Dataset, fn) -> list[pa.Table]:
    """``fn`` over every block of the feats: one in-process call on a
    table, one Ray Data map_batches job over a Dataset. Returns the
    non-empty outputs (Ray forwards zero-row blocks without calling ``fn``,
    keeping their upstream schema). The job is materialized first: on a lazy
    Dataset ``to_arrow_refs`` fetches the schema by running the map again
    under a limit and cancelling it, and those cancellations can crash the
    Ray 2.49 driver (a reference_count.cc / task_manager.cc check)."""
    if isinstance(feats, pa.Table):
        outs = [fn(feats)] if feats.num_rows else []
    else:
        outs = ray.get(
            feats.map_batches(fn, batch_format="pyarrow").materialize().to_arrow_refs()
        )
    return [t for t in outs if t.num_rows > 0]


def _sorted_feats(feats: pa.Table | rd.Dataset, spec: _FinishSpec, min_key: int = 0):
    """Batches of the feats rows with cand_key >= ``min_key``, narrowed to
    ``spec.row_cols`` plus file_key and cand_key, in (sort_cols, cand_key)
    order: the unique cand_key keeps the candidate order among rows of one
    file, as the oracle's stable sort does, also under Ray's unstable sort.
    An Arrow sort in-process; a Ray Data sort streamed back batch by batch
    over a Dataset."""

    def prep(tbl: pa.Table) -> pa.Table:
        keys = _cand_keys(tbl, spec.shift)
        out = tbl.select(list(spec.row_cols))
        out = out.append_column("file_key", pc.binary_join_element_wise(
            out.column("repo"), out.column("path"), "/"
        )).append_column("cand_key", pa.array(keys, pa.int64()))
        return out.filter(pa.array(keys >= min_key)) if min_key else out

    cols = [*spec.sort_cols, "cand_key"]
    if isinstance(feats, pa.Table):
        return prep(feats).sort_by([(c, "ascending") for c in cols]).to_batches()
    return (
        feats.map_batches(prep, batch_format="pyarrow")
        .sort(cols)
        .iter_batches(batch_format="pyarrow")
    )


def _finished(tbl, spec: _FinishSpec, rank, score, bm25) -> pa.Table:
    """A finished table: ``tbl``'s row columns, the rank and the scores."""
    return pa.Table.from_arrays(
        [*tbl.select(list(spec.row_cols)).columns, rank, score, bm25],
        schema=spec.empty.schema,
    )


def _unranked_rows(batches, spec: _FinishSpec):
    """Unranked finished tables (null rank, zero scores) of sorted batches."""
    for b in batches:
        zeros = pa.array(np.zeros(b.num_rows))
        yield _finished(b, spec, pa.nulls(b.num_rows, pa.int64()), zeros, zeros)


def _apply_limits(tables, spec: _FinishSpec, n_matched, max_results,
                  max_bytes, max_tokens, max_iter=None):
    """Running-total limits in result order (search_limiter.rs:22-226): each
    finished table of the stream is cut with cumulative sums of its size
    column and of the bytes/4 token estimate (search_limiter.rs:151;
    tiktoken is unavailable, see oracle.estimate_tokens), reading no table
    past the limits. Without max_results at most ``max_iter`` rows are
    examined. Returns the admitted rows and the LimitedSearchResults record
    (models.rs:2-22): the limits with their running totals, and how many of
    the ``n_matched`` rows they cut."""
    if max_results is None and max_bytes is None and max_tokens is None:
        return pa.concat_tables([spec.empty, *tables]), _NO_LIMITS
    cap = max_results if max_results is not None else max_iter
    out, n_out, total_bytes, total_tokens = [spec.empty], 0, 0, 0
    for tbl in tables if cap != 0 else ():  # a zero cap reads no table
        if cap is not None:
            tbl = tbl.slice(0, cap - n_out)
        size = tbl.column(spec.size_col).to_numpy()
        cum_bytes = total_bytes + np.cumsum(size)
        cum_tokens = total_tokens + np.cumsum(size // 4)
        ok = np.ones(size.size, dtype=bool)
        if max_bytes is not None:
            ok &= cum_bytes <= max_bytes
        if max_tokens is not None:
            ok &= cum_tokens <= max_tokens
        ok[:1] |= n_out == 0  # the first row is always admitted
        k = int(np.argmin(ok)) if not ok.all() else ok.size
        if k:
            out.append(tbl.slice(0, k))
            n_out += k
            total_bytes, total_tokens = int(cum_bytes[k - 1]), int(cum_tokens[k - 1])
        if k < ok.size or n_out == cap:
            break
    return pa.concat_tables(out), dict(
        limits_applied=dict(
            max_results=max_results, max_bytes=max_bytes, max_tokens=max_tokens,
            total_bytes=total_bytes, total_tokens=total_tokens,
        ),
        n_skipped_by_limits=max(n_matched - n_out, 0),
    )


def _unpack_bits(bits: pa.ChunkedArray, n_terms: int) -> np.ndarray:
    """Packed per-plan-term bitmasks -> (rows, n_terms) bool matrix with one
    np.unpackbits. A row's bits are np.packbits of its plan-term mask
    (fixed width) or empty (no terms reported)."""
    bits = bits.combine_chunks()
    offsets = np.frombuffer(bits.buffers()[1], np.int32, len(bits) + 1, bits.offset * 4)
    has = np.diff(offsets) > 0
    mask = np.zeros((len(bits), n_terms), dtype=bool)
    if has.any():
        data = np.frombuffer(bits.buffers()[2], np.uint8)[offsets[0] : offsets[-1]]
        mask[has] = np.unpackbits(data.reshape(int(has.sum()), -1), axis=1)[:, :n_terms]
    return mask


def _terms_column(mask: np.ndarray, terms: list[str]) -> pa.Array:
    """list<string> column of each row's ``terms`` where the (rows, terms)
    ``mask`` is True, in terms order."""
    _, c = np.nonzero(mask)
    offsets = np.zeros(mask.shape[0] + 1, dtype=np.int32)
    np.cumsum(mask.sum(axis=1), out=offsets[1:])
    return pa.ListArray.from_arrays(
        pa.array(offsets), pa.array(np.asarray(terms, dtype=object)[c], pa.string())
    )


def _doc_result(tbl: pa.Table, plan_terms: list[str], ranked: bool) -> pa.Table:
    """Finished doc rows -> RESULT_SCHEMA, column by column. matched_terms
    unpack from kws_bits on ranked rows and from matched_bits on the others,
    in plan-term order, which is alphabetical (query.rs:139-144). A ranked
    result then gets the whole-file contained dedup (block_merging.rs:17-118;
    oracle.py): the first row of each (repo, path) stays and lists the
    sorted union of that file's terms."""
    bits = pc.if_else(pc.is_null(tbl["rank"]), tbl["matched_bits"], tbl["kws_bits"])
    mask = _unpack_bits(bits, len(plan_terms))
    if ranked and tbl.num_rows > 1:
        key = pc.binary_join_element_wise(tbl.column("repo"), tbl.column("path"), "/")
        files = pc.unique(key)  # first-appearance order
        if len(files) < tbl.num_rows:
            code = pc.index_in(key, value_set=files).to_numpy()
            union = np.zeros((len(files), len(plan_terms)), dtype=bool)
            np.logical_or.at(union, code, mask)
            mask = union
            tbl = tbl.take(pa.array(np.unique(code, return_index=True)[1]))
    return pa.Table.from_arrays(
        [tbl.column(c) for c in RESULT_SCHEMA.names[:-1]]
        + [_terms_column(mask, plan_terms)],
        schema=RESULT_SCHEMA,
    )


def _node_type_boost(tbl: pa.Table) -> np.ndarray:
    from probe_ray import blocks as blk

    return blk.node_type_boost_vec(
        tbl.column("node_type").to_pylist(),
        tbl.column("start").to_numpy(),
        tbl.column("end").to_numpy(),
    )


_DOC_FINISH = _FinishSpec(
    shift=0,
    sort_cols=("file_key",),
    row_cols=("doc_id", "repo", "path", "kws_bits", "matched_bits", "n_bytes"),
    size_col="n_bytes",
    schema=_FEATS_SCHEMA,
)
_BLOCK_FINISH = _FinishSpec(
    shift=_KEY_SHIFT,
    sort_cols=("file_key", "start"),
    row_cols=("doc_id", "repo", "path", "start", "end", "node_type",
              "matched_keywords", "matched_lines", "n_code_bytes"),
    size_col="n_code_bytes",
    schema=_BLOCK_FEATS_SCHEMA,
    boost=_node_type_boost,
)


def _tf_matrix(col, n: int, dtype=np.float64) -> np.ndarray:
    """Fixed-width list<int> column -> (n, w) matrix via the Arrow values
    buffer — no Python-object round trip (every tf list has len(ranking
    terms) by construction)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(n, -1).astype(dtype)


def _score_feats_vectorized(feats_tbl, ranking_ast, ranking_terms, idfs, avgdl,
                            n_queries):
    """Vectorized boolean BM25 over the feats table. Mirrors
    score_expr_bm25_optimized (ranking.rs:228-276) with numpy arrays; the
    expression structure (term order, left-to-right sums) matches the scalar
    oracle exactly, so doubles are bit-identical."""
    n = feats_tbl.num_rows
    tf_mat = (
        _tf_matrix(feats_tbl.column("tf"), n)
        if ranking_terms
        else np.zeros((n, 0))
    )
    dls = feats_tbl.column("dl").to_numpy().astype(np.float64)
    # parenthesization mirrors oracle.bm25_tf_part exactly (double parity)
    norm = BM25_K1 * (1.0 - BM25_B + BM25_B * (dls / avgdl))
    col = {t: j for j, t in enumerate(ranking_terms)}
    zero = np.zeros(n)

    def term_vec(kw):
        j = col.get(kw)
        if j is None or kw not in idfs:
            return zero
        tf = tf_mat[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                tf > 0, idfs[kw] * ((tf * (BM25_K1 + 1.0)) / (tf + norm)), 0.0
            )

    def eval_node(e):
        if isinstance(e, qp.Term):
            s = zero
            for kw in e.lowercase_keywords:
                s = s + term_vec(kw)
            if e.excluded:
                return np.zeros(n), s <= 0.0
            if e.required:
                return s, s > 0.0
            return s, np.ones(n, dtype=bool)
        ls, lv = eval_node(e.left)
        rs, rv = eval_node(e.right)
        if isinstance(e, qp.And):
            return ls + rs, lv & rv
        both = lv & rv
        s = np.where(both, ls + rs, np.where(lv, ls, rs))
        return s, lv | rv

    bm25, valid = eval_node(ranking_ast)
    but = feats_tbl.column("but").to_numpy().astype(np.float64)
    cov = np.minimum(but / n_queries, 1.0) if n_queries > 0 else np.zeros(n)
    boosted = bm25 * (1.0 + cov**1.5 * 2.0)
    return np.asarray(bm25, dtype=np.float64), boosted, valid


def search(index_dir: str, queries, **kwargs) -> pa.Table:
    return Engine(index_dir).search(queries, **kwargs)
