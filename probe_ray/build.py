"""Distributed inverted-index build — Ray Data native.

Pipeline (SURVEY.md §7.1, all stages streaming Arrow batches):

  read_parquet(corpus)
    -> map_batches(guard + blank long lines)          [file_guard semantics]
    -> sort(repo, path, commit)                        [deterministic doc_id]
    -> per-block id assignment (prefix-sum offsets)
    -> map_batches(tokenize)                           [the hot stage]
    -> docs table (parquet, partitioned)
    -> map_batches(postings partial-encode)            [per-batch combine]
    -> groupby(term [, salt for hot terms]).map_groups(merge+encode)
    -> segments table (parquet, partitioned by shard)
  + stats.json (n_docs, sum_dl, avgdl) + manifest.json (lineage, resume)

Scale notes:
- The ONLY all-to-all shuffles are the doc-id sort and the groupby(term)
  posting shuffle (SURVEY.md §7.3). Postings are pre-combined per batch into
  delta+varint sub-blobs BEFORE the shuffle, so the exchange moves ~2
  bytes/posting instead of (term string + int64) rows.
- Hot-term skew ('fn', 'import'-class terms have df ≈ N): terms whose
  sampled df exceeds ``hot_df_threshold`` are salted into
  ``salt_buckets`` doc-id-range groups; their salted blobs are stored
  side-by-side and concatenated at read time (doc-id ranges are ordered by
  salt, so no re-sort is needed). SURVEY.md §5 "Skew".
- doc_id assignment needs a global order the Dataset API cannot express
  directly; after the sort we use the public ``to_arrow_refs`` + per-block
  Ray tasks to add ids with driver-side prefix sums (only block COUNTS touch
  the driver).
- Resumability: every stage writes a manifest with an input fingerprint;
  rebuilding with the same fingerprint skips completed stages
  (write-temp-then-rename for atomicity).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from probe_ray import codec
from probe_ray import tokenizer as tok
from probe_ray.oracle import MAX_FILE_SIZE

DOCS_SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# Stage functions (all pure, batch-level)
# ---------------------------------------------------------------------------

def guard_batch(batch: pa.Table) -> pa.Table:
    """file_guard.rs: drop NUL / oversized rows; blank >500-char lines
    (file_processing.rs:1117-1134). Computes content_sha256 of the ORIGINAL
    content (the per-row invariant vs the corpus)."""
    contents = batch.column("content").to_pylist()
    keep, eff, shas = [], [], []
    for c in contents:
        if c is None or "\x00" in c:
            keep.append(False)
            eff.append("")
            shas.append("")
            continue
        raw = c.encode("utf-8", errors="surrogatepass")
        if len(raw) > MAX_FILE_SIZE:
            keep.append(False)
            eff.append("")
            shas.append("")
            continue
        keep.append(True)
        shas.append(hashlib.sha256(raw).hexdigest())
        lines = c.split("\n")
        if any(len(l) > 500 for l in lines):
            c = "\n".join("" if len(l) > 500 else l for l in lines)
        eff.append(c)
    out = batch.set_column(
        batch.schema.get_field_index("content"), "content", pa.array(eff, pa.string())
    )
    out = out.append_column("content_sha256", pa.array(shas, pa.string()))
    return out.filter(pa.array(keep, pa.bool_()))


def tokenize_batch(batch: pa.Table) -> pa.Table:
    """The hot map: content+path -> dedup token vector (ranking.rs:56-61).
    Emits tokens (list<string>), n_content_tokens, doc_len, plus the static
    is_test flag (test_detection.rs is a pure (path, content) function —
    computed ONCE here so allow_tests=False queries never re-run the content
    regex over candidates)."""
    from probe_ray.tools import is_test_file

    contents = batch.column("content").to_pylist()
    paths = batch.column("path").to_pylist()
    tokens_out, n_content, doc_lens, shadows_out, is_test = [], [], [], [], []
    for content, path in zip(contents, paths):
        ct, sh = tok.tokenize_with_shadows(content)
        pt = tok.tokenize(path)
        tokens_out.append(ct + pt)
        n_content.append(len(ct))
        doc_lens.append(len(ct) + len(pt))
        shadows_out.append(sh)
        is_test.append(is_test_file(path, content))
    out = batch.append_column("tokens", pa.array(tokens_out, pa.list_(pa.string())))
    # shadow forms (stop words / unstemmed originals): indexed as tf=0
    # postings so substring retrieval via term-dictionary expansion is
    # complete (SURVEY.md §7.4); never part of the ranking vector
    out = out.append_column(
        "shadow_tokens", pa.array(shadows_out, pa.list_(pa.string()))
    )
    out = out.append_column("n_content_tokens", pa.array(n_content, pa.int32()))
    out = out.append_column("doc_len", pa.array(doc_lens, pa.int32()))
    # narrow column for the per-query filename-match scan (query path reads
    # ONLY (doc_id, path_tokens) for it — column pruning at the read)
    out = out.append_column(
        "path_tokens",
        pa.array([t[n:] for t, n in zip(tokens_out, n_content)], pa.list_(pa.string())),
    )
    out = out.append_column("is_test", pa.array(is_test, pa.bool_()))
    return out


def _posting_rows(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a docs batch into (term, doc_id, tfbyte) arrays.
    tfbyte packs content-tf in bits 0-3 and path-tf in bits 4-7."""
    doc_ids = batch.column("doc_id").to_numpy()
    tokens_col = batch.column("tokens").to_pylist()
    n_content = batch.column("n_content_tokens").to_numpy()
    shadows_col = batch.column("shadow_tokens").to_pylist()
    terms, ids, tfb = [], [], []
    for did, toks, nc, shadows in zip(doc_ids, tokens_col, n_content, shadows_col):
        nc = int(nc)
        # content and path token runs are each already deduplicated by
        # tokenize(), so only the cross-run overlap needs merging
        counts: dict[str, int] = dict.fromkeys(toks[:nc], 1)
        for t in toks[nc:]:
            counts[t] = counts.get(t, 0) + 16  # path bit
        for t in shadows:  # tf=0 shadow postings (substring retrieval)
            counts.setdefault(t, 0)
        terms.extend(counts.keys())
        ids.extend([did] * len(counts))
        tfb.extend(counts.values())
    return (
        np.array(terms, dtype=object),
        np.array(ids, dtype=np.uint64),
        np.array(tfb, dtype=np.uint8),
    )


def make_partial_segments(hot_terms: dict[str, int], salt_shift: int):
    """Returns the per-batch partial posting encoder. Pre-combines each
    batch's postings into one encoded sub-blob per (term, salt) BEFORE the
    shuffle."""

    def partial(batch: pa.Table) -> pa.Table:
        terms, ids, tfb = _posting_rows(batch)
        if terms.size == 0:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "salt": pa.array([], pa.int32()),
                    "df": pa.array([], pa.int64()),
                    "blob": pa.array([], pa.binary()),
                }
            )
        order = np.lexsort((ids, terms))
        terms, ids, tfb = terms[order], ids[order], tfb[order]
        out_t, out_s, out_df, out_blob = [], [], [], []
        # run boundaries per term
        change = np.flatnonzero(terms[1:] != terms[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [terms.size]])
        for s, e in zip(starts, ends):
            term = terms[s]
            salt = (
                int(ids[s]) >> salt_shift if term in hot_terms else 0
            )  # ids within a batch share a range; refine per-row below
            if term in hot_terms:
                salts = ids[s:e] >> np.uint64(salt_shift)
                for sv in np.unique(salts):
                    m = salts == sv
                    blob, _, _ = codec.encode_postings(ids[s:e][m], tfb[s:e][m])
                    out_t.append(term)
                    out_s.append(int(sv))
                    # df counts REAL (tf>0) postings only; shadows excluded
                    out_df.append(int((tfb[s:e][m] > 0).sum()))
                    out_blob.append(blob)
            else:
                blob, _, _ = codec.encode_postings(ids[s:e], tfb[s:e])
                out_t.append(term)
                out_s.append(0)
                out_df.append(int((tfb[s:e] > 0).sum()))
                out_blob.append(blob)
        return pa.table(
            {
                "term": pa.array(out_t, pa.string()),
                "salt": pa.array(out_s, pa.int32()),
                "df": pa.array(out_df, pa.int64()),
                "blob": pa.array(out_blob, pa.binary()),
            }
        )

    return partial


def make_segment_merger(n_shards: int):
    """Merge sub-blob runs within a (term, salt)-sorted batch into final
    segment rows with skip blocks and block-max.

    Applied via sort(term, salt) -> map_batches (NOT groupby.map_groups:
    per-group dispatch overhead dominates with vocabulary-sized group
    counts). A (term, salt) run straddling a batch boundary simply yields
    two segment rows; the query path already concatenates multiple rows per
    term (same mechanism as salted blobs)."""

    def merge_batch(batch: pa.Table) -> pa.Table:
        terms = batch.column("term").to_pylist()
        salts = batch.column("salt").to_pylist()
        dfs = batch.column("df").to_pylist()
        blobs = batch.column("blob").to_pylist()
        out = {k: [] for k in
               ("term", "salt", "shard", "df", "blob", "skip", "block_max")}
        i, n = 0, len(terms)
        while i < n:
            j = i
            while j < n and terms[j] == terms[i] and salts[j] == salts[i]:
                j += 1
            blob, skip, bmax = codec.merge_encoded(blobs[i:j])
            out["term"].append(terms[i])
            out["salt"].append(salts[i])
            out["shard"].append(_term_shard(terms[i], n_shards))
            out["df"].append(int(sum(dfs[i:j])))
            out["blob"].append(blob)
            out["skip"].append(skip)
            out["block_max"].append(bmax)
            i = j
        return pa.table(
            {
                "term": pa.array(out["term"], pa.string()),
                "salt": pa.array(out["salt"], pa.int32()),
                "shard": pa.array(out["shard"], pa.int32()),
                "df": pa.array(out["df"], pa.int64()),
                "blob": pa.array(out["blob"], pa.binary()),
                "skip": pa.array(out["skip"], pa.binary()),
                "block_max": pa.array(out["block_max"], pa.binary()),
            }
        )

    return merge_batch


# doc ids per doc-length attribute shard (16 MiB of int32 per slice; at
# 1e9 docs that is ~256 bounded-size write tasks)
DOC_LEN_SHARD = 1 << 22


def _write_doc_lens_sharded(ds_len: "rd.Dataset", out_path: str) -> tuple[int, int]:
    """Write the dense doc_id -> doc_len attribute file WITHOUT driver-side
    materialization: each DOC_LEN_SHARD id range writes its raw int32 slice
    from a Ray task (doc ids are dense by construction, so range == slice),
    and the driver stream-concatenates the slices under one npy header —
    peak driver memory is a single slice buffer regardless of corpus size,
    and the query side still mmaps one plain .npy. Returns
    (n_docs, sum_doc_len) computed from the same scan."""
    shard_dir = f"{out_path}.shards.{os.getpid()}"
    if os.path.exists(shard_dir):
        shutil.rmtree(shard_dir)
    os.makedirs(shard_dir)

    def add_shard(batch: pa.Table) -> pa.Table:
        sh = (batch.column("doc_id").to_numpy() // DOC_LEN_SHARD).astype(np.int32)
        return batch.append_column("shard", pa.array(sh, pa.int32()))

    def write_shard(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "shard": pa.array([], pa.int32()),
                "n": pa.array([], pa.int64()),
                "dl_sum": pa.array([], pa.int64()),
            }
        )
        if group.num_rows == 0:
            return empty
        ids = group.column("doc_id").to_numpy()
        lens = group.column("doc_len").to_numpy()
        shard = int(ids[0]) // DOC_LEN_SHARD
        arr = np.zeros(DOC_LEN_SHARD, dtype="<i4")
        arr[ids - shard * DOC_LEN_SHARD] = lens
        path = os.path.join(shard_dir, f"part-{shard:08d}.bin")
        with open(path + ".tmp", "wb") as f:
            f.write(arr.tobytes())
        os.replace(path + ".tmp", path)
        return pa.table(
            {
                "shard": pa.array([shard], pa.int32()),
                "n": pa.array([len(ids)], pa.int64()),
                "dl_sum": pa.array([int(lens.sum())], pa.int64()),
            }
        )

    parts = (
        ds_len.map_batches(add_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(write_shard, batch_format="pyarrow")
        .take_all()
    )  # one tiny row per shard
    n_docs = int(sum(r["n"] for r in parts))
    sum_dl = int(sum(r["dl_sum"] for r in parts))

    import numpy.lib.format as _npf

    tmp_path = out_path + ".tmp"
    with open(tmp_path, "wb") as out:
        _npf.write_array_header_1_0(
            out,
            {"descr": "<i4", "fortran_order": False, "shape": (max(n_docs, 1),)},
        )
        if n_docs == 0:
            out.write(np.zeros(1, dtype="<i4").tobytes())
        for shard in range((n_docs + DOC_LEN_SHARD - 1) // DOC_LEN_SHARD):
            # the final shard is trimmed to n_docs
            want = (min(DOC_LEN_SHARD, n_docs - shard * DOC_LEN_SHARD)) * 4
            p = os.path.join(shard_dir, f"part-{shard:08d}.bin")
            if os.path.exists(p):
                with open(p, "rb") as f:
                    out.write(f.read(want))
            else:  # unreachable with dense ids; keep the file well-formed
                out.write(np.zeros(want // 4, dtype="<i4").tobytes())
    os.replace(tmp_path, out_path)
    shutil.rmtree(shard_dir)
    return n_docs, sum_dl


def _term_shard(term: str, n_shards: int) -> int:
    return int.from_bytes(hashlib.md5(term.encode()).digest()[:4], "little") % n_shards


def read_corpus(path: str) -> "rd.Dataset":
    """Corpus source reader: the same (repo, path, commit, lang, content)
    table in parquet (default), JSONL, or CSV — format picked from the file
    extension. All three stream through Ray Data's native readers, so the
    downstream build is format-agnostic."""
    low = path.lower()
    if low.endswith((".jsonl", ".json", ".ndjson")):
        # Ray's read_json parses newline-delimited JSON only. A standard
        # JSON-array file (leading '[') would die deep in pyarrow with an
        # opaque parse error — detect it up front and say so.
        if low.endswith(".json") and os.path.isfile(path):
            with open(path, "rb") as fh:
                head = fh.read(64).lstrip()
            if head.startswith(b"["):
                raise ValueError(
                    f"{path}: JSON-array files are not supported; the JSON "
                    "corpus source reads newline-delimited JSON (one object "
                    "per line — rename to .jsonl/.ndjson once converted)"
                )
        return rd.read_json(path)
    if low.endswith(".csv"):
        from pyarrow import csv as _pacsv

        # code content embeds newlines: enable quoted-newline parsing; pin
        # the corpus columns to string so inference can't turn an all-digit
        # commit sha into int64
        return rd.read_csv(
            path,
            parse_options=_pacsv.ParseOptions(newlines_in_values=True),
            convert_options=_pacsv.ConvertOptions(
                column_types={
                    c: pa.string()
                    for c in ("repo", "path", "commit", "lang", "content")
                }
            ),
        )
    return rd.read_parquet(path)


def _compact_shard_dir(root: str, sort_keys: list[str]) -> None:
    """Segment-merge finish: rewrite each hive shard partition as ONE
    key-sorted parquet file (small row groups keep min/max stat pruning
    effective). The per-partition write above leaves one file per (write
    task x shard) — hundreds of tiny fragments whose footer walks dominate
    per-query term-probe latency. One Ray task per shard."""
    import pyarrow.parquet as _pq

    shard_dirs = sorted(d for d in os.listdir(root) if d.startswith("shard="))

    @ray.remote
    def compact(d: str) -> int:
        p = os.path.join(root, d)
        files = [f for f in os.listdir(p) if f.endswith(".parquet")]
        if len(files) <= 1:
            return 0
        tbl = _pq.read_table(p)
        tbl = tbl.sort_by([(k, "ascending") for k in sort_keys])
        tmp_f = os.path.join(p, "_compact.tmp")
        _pq.write_table(tbl, tmp_f, row_group_size=2048)
        for f in files:
            os.remove(os.path.join(p, f))
        os.rename(tmp_f, os.path.join(p, "segment-0.parquet"))
        return tbl.num_rows

    ray.get([compact.remote(d) for d in shard_dirs])


# ---------------------------------------------------------------------------
# doc id assignment
# ---------------------------------------------------------------------------

@ray.remote
def _count_rows(table: pa.Table) -> int:
    return table.num_rows


@ray.remote
def _add_ids(table: pa.Table, offset: int) -> pa.Table:
    ids = pa.array(np.arange(offset, offset + table.num_rows, dtype=np.int64))
    return table.append_column("doc_id", ids)


# keys-on-driver id assignment is used below this row count; above it, the
# distributed full sort assigns ids (the keys no longer fit one machine)
DRIVER_KEY_SORT_MAX = 5_000_000


def assign_doc_ids(ds: rd.Dataset) -> rd.Dataset:
    """Deterministic dense doc ids by (repo, path, commit) order.

    Two strategies:
    - small/medium corpora: the (repo, path, commit) KEY table is tiny
      relative to content, so sort the keys on the driver and broadcast a
      key->id dict (no content moves through a shuffle at all);
    - huge corpora: distributed sort of the full rows, then per-block offset
      ids via small Ray tasks (only block COUNTS touch the driver). The
      Dataset API has no order-aware global index, hence to_arrow_refs.
    """
    ds = ds.materialize()
    n = ds.count()
    if n == 0:
        # zero-row corpus: nothing to order — just keep the schema stable
        # (the doc-length writer and stats handle n_docs == 0 downstream)
        return ds.map_batches(
            lambda b: b.append_column(
                "doc_id", pa.array([0] * len(b), pa.int64())
            ),
            batch_format="pyarrow",
        )
    if n <= DRIVER_KEY_SORT_MAX:
        keys_tbl = pa.concat_tables(
            [
                ray.get(r)
                for r in ds.map_batches(
                    lambda b: b.select(["repo", "path", "commit"]),
                    batch_format="pyarrow",
                ).to_arrow_refs()
            ]
        )
        # one composite key per row; a SORTED numpy array broadcasts with
        # near-zero deserialization cost (vs a python dict, which every task
        # would re-deserialize) and doc_id = searchsorted position
        sep = pa.scalar("\x00")
        keys = pc.binary_join_element_wise(
            keys_tbl.column("repo").combine_chunks(),
            keys_tbl.column("path").combine_chunks(),
            keys_tbl.column("commit").combine_chunks(),
            sep,
        ).to_numpy(zero_copy_only=False)
        keys_sorted = np.sort(keys)
        keys_ref = ray.put(keys_sorted)

        def add_ids(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            bk = pc.binary_join_element_wise(
                batch.column("repo").combine_chunks(),
                batch.column("path").combine_chunks(),
                batch.column("commit").combine_chunks(),
                sep,
            ).to_numpy(zero_copy_only=False)
            ids = np.searchsorted(ks, bk)
            return batch.append_column("doc_id", pa.array(ids, pa.int64()))

        return ds.map_batches(add_ids, batch_format="pyarrow")

    sorted_ds = ds.sort(["repo", "path", "commit"]).materialize()
    refs = sorted_ds.to_arrow_refs()
    counts = ray.get([_count_rows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) if counts else []
    out_refs = [
        _add_ids.remote(r, int(off)) for r, off in zip(refs, offsets)
    ]
    return rd.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# Hot-term detection (sample-based df sketch)
# ---------------------------------------------------------------------------

def sample_hot_terms(
    docs: rd.Dataset, threshold_frac: float = 0.05, sample_rows: int = 2000
) -> dict[str, int]:
    """Estimate hot terms from a deterministic prefix sample of the ALREADY
    tokenized docs table (reads the tokens columns of ``sample_rows`` rows
    only — ``limit`` stops the read early, unlike a random_sample that
    scans everything): terms present in more than ``threshold_frac`` of
    sampled docs get salted in the shuffle. Hot terms ('fn'/'import'-class)
    are corpus-wide by nature, so a prefix sample finds them; salting is a
    layout choice and never affects results."""
    sample = (
        docs.limit(sample_rows)
        .map_batches(
            lambda b: b.select(["tokens", "shadow_tokens"]), batch_format="pyarrow"
        )
        .take_all()
    )
    df: dict[str, int] = {}
    for row in sample:
        for t in set(row["tokens"]) | set(row["shadow_tokens"]):
            df[t] = df.get(t, 0) + 1
    cutoff = max(2, int(threshold_frac * len(sample)))
    return {t: c for t, c in df.items() if c >= cutoff}


# ---------------------------------------------------------------------------
# Build driver
# ---------------------------------------------------------------------------

@dataclass
class IndexPaths:
    root: str

    @property
    def docs_dir(self) -> str:
        return os.path.join(self.root, "docs")

    @property
    def segments_dir(self) -> str:
        return os.path.join(self.root, "segments")

    @property
    def ngrams_dir(self) -> str:
        return os.path.join(self.root, "ngrams")

    @property
    def partials_dir(self) -> str:
        # checkpointed pre-merge posting partials (exists only inside the
        # .tmp build root; removed once the segments stage completes)
        return os.path.join(self.root, "posting_partials")

    @property
    def doc_lens_path(self) -> str:
        return os.path.join(self.root, "doc_lens.npy")

    @property
    def stats_path(self) -> str:
        return os.path.join(self.root, "stats.json")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, "manifest.json")

    # -- incremental update generations (update_index) --------------------
    # Each committed update lives in updates/gen-K/ with its own docs/,
    # segments/, doc_lens.npy slice and a FULL stats.json snapshot; the
    # atomic rename of gen-K.tmp -> gen-K is the commit point (the Lucene
    # commit-point model). Readers take base + all committed generations.

    @property
    def updates_dir(self) -> str:
        return os.path.join(self.root, "updates")

    def update_gens(self) -> list[str]:
        d = self.updates_dir
        if not os.path.isdir(d):
            return []
        import re as _re

        gens = [g for g in os.listdir(d) if _re.fullmatch(r"gen-\d+", g)]
        return [
            os.path.join(d, g)
            for g in sorted(gens, key=lambda g: int(g.split("-")[1]))
        ]

    def docs_paths(self) -> list[str]:
        return [self.docs_dir] + [
            os.path.join(g, "docs") for g in self.update_gens()
        ]

    def docs_read_paths(self) -> str | list[str]:
        """Input for ray.data.read_parquet: the bare docs dir when no
        update generations exist, else the expanded parquet FILE list
        (Ray accepts a list of files, not a list of directories)."""
        ps = self.docs_paths()
        if len(ps) == 1:
            return ps[0]
        out: list[str] = []
        for d in ps:
            out.extend(
                sorted(
                    os.path.join(d, f)
                    for f in os.listdir(d)
                    if f.endswith(".parquet")
                )
            )
        return out

    def segments_dirs(self) -> list[str]:
        return [self.segments_dir] + [
            os.path.join(g, "segments") for g in self.update_gens()
        ]

    def ngrams_dirs(self) -> list[str]:
        return [self.ngrams_dir] + [
            d for g in self.update_gens()
            if os.path.isdir(d := os.path.join(g, "ngrams"))
        ]

    def doc_lens_paths(self) -> list[str]:
        return [self.doc_lens_path] + [
            os.path.join(g, "doc_lens.npy") for g in self.update_gens()
        ]

    @property
    def keys_dir(self) -> str:
        # narrow (repo, path, commit, content_sha256) side table written
        # at build/update time so update_index's change diff never
        # re-opens the wide docs parquet (item: cheap diffs)
        return os.path.join(self.root, "keys")

    def keys_dirs(self) -> list[str]:
        return [self.keys_dir] + [
            os.path.join(g, "keys") for g in self.update_gens()
        ]

    def doc_lens_slices(self) -> list[tuple[str, int]]:
        """(path, true_length) per doc-length slice. The sharded writer
        pads an EMPTY corpus's .npy to shape (1,) so the file stays a
        well-formed npy; readers concatenating base + generation slices
        must trim each slice to its recorded doc count or a zero-doc base
        shifts every generation doc's length by one. Length -1 means
        "unknown — take the file as written" (pre-attribute-file indexes
        whose stats are missing fields)."""
        out: list[tuple[str, int]] = []
        try:
            with open(self.stats_path) as f:
                base_n = int(json.load(f).get("n_docs", -1))
        except (OSError, json.JSONDecodeError, TypeError, ValueError):
            base_n = -1
        out.append((self.doc_lens_path, base_n))
        for g in self.update_gens():
            try:
                with open(os.path.join(g, "stats.json")) as f:
                    n = int(
                        json.load(f)["metrics"]["last_update"]["added"]
                    )
            except (OSError, json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                n = -1
            out.append((os.path.join(g, "doc_lens.npy"), n))
        return out

    def stats(self) -> dict:
        gens = self.update_gens()
        if gens:
            # the latest generation carries the post-update corpus totals
            with open(os.path.join(gens[-1], "stats.json")) as f:
                return json.load(f)
        with open(self.stats_path) as f:
            return json.load(f)


def _file_sig(path: str) -> str:
    """Per-file identity for the append-only corpus diff: size + mtime_ns
    (the same signals the corpus fingerprint hashes, finer-grained)."""
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def _corpus_listing(corpus) -> dict[str, str] | None:
    """{basename: file_sig} for a parquet corpus DIRECTORY, else None."""
    if not (isinstance(corpus, str) and os.path.isdir(corpus)):
        return None
    return {
        f: _file_sig(os.path.join(corpus, f))
        for f in os.listdir(corpus) if f.endswith(".parquet")
    }


def _fingerprint(corpus, params: dict) -> str:
    h = hashlib.sha256()
    if isinstance(corpus, str):
        paths = [corpus]
        if os.path.isdir(corpus):
            paths = sorted(
                os.path.join(corpus, p) for p in os.listdir(corpus)
                if p.endswith(".parquet")
            )
        for p in paths:
            st = os.stat(p)
            h.update(f"{p}:{st.st_size}:{int(st.st_mtime)}".encode())
    else:
        # Dataset corpora: CONTENT fingerprint (row count + schema + sampled
        # row hashes) — a constant marker would silently reuse a stale index
        # built from a different Dataset via the manifest resume check
        h.update(str(corpus.count()).encode())
        h.update(str(corpus.schema()).encode())
        for row in corpus.limit(64).take_all():
            h.update(repr(sorted(row.items())).encode())
    h.update(json.dumps(params, sort_keys=True).encode())
    return h.hexdigest()


NGRAM_N = 3  # char n-gram width for the substring-candidate index


def make_ngram_partials(salt_shift: int):
    """Per-batch encoder for the content char-n-gram index: per doc, the
    SET of lowercase 3-grams of content -> pre-encoded (gram, salt) posting
    sub-blobs (doc ids only; tf byte fixed at 1). Every gram is salted by
    doc-id range (gram df is uniformly skewed — 'the'-class grams hit most
    docs), which bounds single-blob size; read-time concatenation is the
    same mechanism as the term index."""

    def partial(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        contents = batch.column("content").to_pylist()
        grams_l: list[str] = []
        ids_l: list[int] = []
        for did, content in zip(doc_ids, contents):
            cl = content.lower()
            gs = {cl[i : i + NGRAM_N] for i in range(len(cl) - NGRAM_N + 1)}
            gs.discard("")
            grams_l.extend(gs)
            ids_l.extend([int(did)] * len(gs))
        if not grams_l:
            return pa.table(
                {"gram": pa.array([], pa.string()),
                 "salt": pa.array([], pa.int32()),
                 "df": pa.array([], pa.int64()),
                 "blob": pa.array([], pa.binary())}
            )
        grams = np.array(grams_l, dtype=object)
        ids = np.array(ids_l, dtype=np.uint64)
        salts = ids >> np.uint64(salt_shift)
        order = np.lexsort((ids, salts, grams))
        grams, ids, salts = grams[order], ids[order], salts[order]
        keys = np.array(
            [f"{g}\x00{s}" for g, s in zip(grams, salts)], dtype=object
        )
        change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [keys.size]])
        tf_ones = np.ones(ids.size, dtype=np.uint8)
        out_g, out_s, out_df, out_blob = [], [], [], []
        for s, e in zip(starts, ends):
            blob, _, _ = codec.encode_postings(ids[s:e], tf_ones[s:e])
            out_g.append(grams[s])
            out_s.append(int(salts[s]))
            out_df.append(int(e - s))
            out_blob.append(blob)
        return pa.table(
            {
                "gram": pa.array(out_g, pa.string()),
                "salt": pa.array(out_s, pa.int32()),
                "df": pa.array(out_df, pa.int64()),
                "blob": pa.array(out_blob, pa.binary()),
            }
        )

    return partial


def make_ngram_merger(n_shards: int):
    """sort(gram, salt) -> map_batches run merge, mirroring the term-segment
    merger (runs straddling batch bounds yield extra rows; readers concat)."""

    def merge_batch(batch: pa.Table) -> pa.Table:
        grams = batch.column("gram").to_pylist()
        salts = batch.column("salt").to_pylist()
        dfs = batch.column("df").to_pylist()
        blobs = batch.column("blob").to_pylist()
        out = {k: [] for k in ("gram", "salt", "shard", "df", "blob")}
        i, n = 0, len(grams)
        while i < n:
            j = i
            while j < n and grams[j] == grams[i] and salts[j] == salts[i]:
                j += 1
            blob, _, _ = codec.merge_encoded(blobs[i:j])
            out["gram"].append(grams[i])
            out["salt"].append(salts[i])
            out["shard"].append(_term_shard(grams[i], n_shards))
            out["df"].append(int(sum(dfs[i:j])))
            out["blob"].append(blob)
            i = j
        return pa.table(
            {
                "gram": pa.array(out["gram"], pa.string()),
                "salt": pa.array(out["salt"], pa.int32()),
                "shard": pa.array(out["shard"], pa.int32()),
                "df": pa.array(out["df"], pa.int64()),
                "blob": pa.array(out["blob"], pa.binary()),
            }
        )

    return merge_batch


def build_index(
    corpus,
    out_dir: str,
    *,
    n_shards: int = 16,
    salt_buckets: int = 8,
    hot_threshold_frac: float = 0.05,
    batch_size: int = 256,
    ngram_index: bool = False,
    overwrite: bool = False,
    checkpoint_partials: bool | None = None,
    _fail_after: str | None = None,  # test hook: crash between stages
) -> IndexPaths:
    """Build the index from a corpus (parquet path/dir or a Dataset).

    Resumable: if out_dir holds a manifest with a matching input
    fingerprint, the completed build is reused. ``ngram_index=True``
    additionally builds the content char-3-gram index that makes substring
    candidate generation complete (closes the cross-token-boundary
    narrowing) and replaces the per-query term-dictionary scan.
    """
    paths = IndexPaths(out_dir)
    params = dict(
        n_shards=n_shards,
        salt_buckets=salt_buckets,
        hot_threshold_frac=hot_threshold_frac,
        ngram_index=ngram_index,
        schema_version=DOCS_SCHEMA_VERSION,
    )
    fp = _fingerprint(corpus, params)
    # the per-file corpus listing must be captured at the SAME moment as
    # the fingerprint (BEFORE the corpus is read): a file dropped into the
    # dir mid-build would otherwise be recorded as already-indexed and a
    # later append-only update would silently skip it forever
    listing = _corpus_listing(corpus)
    if not overwrite and os.path.exists(paths.manifest_path):
        try:
            with open(paths.manifest_path) as f:
                manifest = json.load(f)
            if manifest.get("fingerprint") == fp and manifest.get("complete"):
                return paths
        except (json.JSONDecodeError, OSError):
            pass
    # --- stage-level resume: a crashed build leaves out_dir.tmp with a
    # stage ledger; a rerun with the same fingerprint skips completed
    # stages (stage outputs are written to .part dirs then renamed, so a
    # completed stage is always whole) ---
    tmp_root = out_dir + ".tmp"
    stages_path = os.path.join(tmp_root, "stages.json")
    done: set[str] = set()
    if os.path.exists(tmp_root):
        try:
            with open(stages_path) as f:
                ledger = json.load(f)
            if ledger.get("fingerprint") == fp:
                done = set(ledger.get("done", []))
            else:
                shutil.rmtree(tmp_root)
        except (OSError, json.JSONDecodeError):
            shutil.rmtree(tmp_root)
    os.makedirs(tmp_root, exist_ok=True)
    tmp = IndexPaths(tmp_root)

    def mark(stage: str) -> None:
        done.add(stage)
        with open(stages_path, "w") as f:
            json.dump(dict(fingerprint=fp, done=sorted(done)), f)

    stage_sec: dict[str, float] = {}

    def staged_write(pipeline_writer, final_dir: str) -> None:
        part = final_dir + ".part"
        if os.path.exists(part):
            shutil.rmtree(part)
        pipeline_writer(part)
        # a zero-row pipeline writes no directory at all — an empty corpus
        # must still produce a well-formed (empty) index
        os.makedirs(part, exist_ok=True)
        os.rename(part, final_dir)

    def timed(stage: str):
        import contextlib
        import time as _t

        @contextlib.contextmanager
        def cm():
            t0 = _t.time()
            yield
            stage_sec[stage] = round(_t.time() - t0, 3)

        return cm()

    if "docs" not in done:
        ds = read_corpus(corpus) if isinstance(corpus, str) else corpus
        ds = ds.map_batches(guard_batch, batch_format="pyarrow", batch_size=batch_size)
        with timed("guard_ids"):  # guard + id-assignment materialize
            ds = assign_doc_ids(ds)

        # docs table: ONE streaming consume of the tokenize pipeline straight
        # to parquet (no full materialization in the object store);
        # downstream stages re-read it with column pruning (tokens only —
        # content never moves again)
        docs_pipe = ds.map_batches(
            tokenize_batch, batch_format="pyarrow", batch_size=batch_size
        )
        if os.path.exists(tmp.docs_dir):
            shutil.rmtree(tmp.docs_dir)
        with timed("docs"):
            staged_write(
                lambda p: docs_pipe.write_parquet(p, min_rows_per_file=8192),
                tmp.docs_dir,
            )
        mark("docs")

    if _fail_after == "docs":
        raise RuntimeError("injected failure after docs stage (test hook)")

    # EMPTY corpus: a zero-row docs stage writes no parquet files. Finish
    # a well-formed empty index directly (padded doc_lens, empty shard
    # dirs, n_docs=0 stats) — every downstream read_parquet would otherwise
    # choke on the file-less docs dir.
    if not any(
        f.endswith(".parquet") for f in os.listdir(tmp.docs_dir)
    ):
        np.save(tmp.doc_lens_path, np.zeros(1, dtype="<i4"))
        os.makedirs(tmp.keys_dir, exist_ok=True)
        for d in [tmp.segments_dir] + ([tmp.ngrams_dir] if ngram_index else []):
            for s in range(n_shards):
                os.makedirs(os.path.join(d, f"shard={s}"), exist_ok=True)
        with open(tmp.stats_path, "w") as f:
            json.dump(
                dict(n_docs=0, sum_dl=0, avgdl=0.0, n_shards=n_shards,
                     salt_shift=63, hot_terms=[],
                     has_ngrams=bool(ngram_index),
                     metrics={"stage_sec": stage_sec}),
                f,
            )
        with open(tmp.manifest_path, "w") as f:
            json.dump(dict(fingerprint=fp, params=params, complete=True,
                      corpus_files=listing), f)
        if os.path.exists(stages_path):
            os.remove(stages_path)
        if os.path.exists(out_dir):
            shutil.rmtree(out_dir)
        os.rename(tmp_root, out_dir)
        return paths

    # narrow key/sha side table: update_index's change diff reads THIS
    # instead of re-opening every (wide) docs parquet file
    if "keys" not in done:
        keys_pipe = rd.read_parquet(
            tmp.docs_dir,
            columns=["repo", "path", "commit", "content_sha256"],
        )
        if os.path.exists(tmp.keys_dir):
            shutil.rmtree(tmp.keys_dir)
        with timed("keys"):
            staged_write(
                lambda p: keys_pipe.write_parquet(
                    p, min_rows_per_file=131072
                ),
                tmp.keys_dir,
            )
        mark("keys")

    # ONE narrow (doc_id, doc_len) scan feeds BOTH the corpus stats and the
    # dense doc-length attribute file (memory-mapped at query time: doc-len
    # lookups page in on demand instead of pinning 4 B/doc of driver heap —
    # the doc-attribute store a cluster deployment puts on shared storage).
    # The array is built SHARDED: Ray tasks write one raw slice per doc-id
    # range and the driver stream-concatenates bytes under a single npy
    # header, so neither np.zeros(n_docs) nor a (doc_id, doc_len) pull ever
    # lands on the driver — the build side now scales past 1e9 docs like
    # the query side.
    ds_len = rd.read_parquet(tmp.docs_dir, columns=["doc_id", "doc_len"])
    if os.path.exists(tmp.doc_lens_path):
        # resume with the attribute file already finalized: only the two
        # scalars are needed
        n_docs = int(ds_len.count())
        sum_dl = int(ds_len.sum("doc_len") or 0)
    else:
        n_docs, sum_dl = _write_doc_lens_sharded(ds_len, tmp.doc_lens_path)
    avgdl = (sum_dl / n_docs) if n_docs else 0.0

    tok_ds = rd.read_parquet(
        tmp.docs_dir,
        columns=["doc_id", "tokens", "n_content_tokens", "shadow_tokens"],
    )

    # hot terms for the salted shuffle (sampled from the tokens column)
    hot = sample_hot_terms(tok_ds, hot_threshold_frac)
    salt_shift = 63
    if n_docs > 0 and salt_buckets > 1:
        salt_shift = max(0, int(n_docs).bit_length() - int(salt_buckets).bit_length())

    # segments — optionally as TWO checkpointed stages (the north rule's
    # "checkpointed segment merges"): (a) the tokenized-docs re-read +
    # per-batch partial posting encode streams to a partials parquet
    # checkpoint; (b) the (term, salt) sort + sorted-run merge + sharded
    # write reads ONLY the partials, so a crash in the merge resumes
    # without re-encoding postings. The checkpoint costs one extra
    # write+read of the partials (~+25% build wall at bench scale), which
    # only pays for itself when a stage retry is expensive — default: auto
    # ON past 2M docs (the hour-scale builds that actually crash), OFF
    # below (the partial encode streams fused into the sort).
    if checkpoint_partials is None:
        checkpoint_partials = n_docs >= 2_000_000
    partial = make_partial_segments(hot, salt_shift)
    if checkpoint_partials:
        if "posting_partials" not in done:
            partials_pipe = tok_ds.map_batches(
                partial, batch_format="pyarrow", batch_size=max(batch_size, 1024)
            )
            if os.path.exists(tmp.partials_dir):
                shutil.rmtree(tmp.partials_dir)
            with timed("posting_partials"):
                staged_write(
                    lambda p: partials_pipe.write_parquet(
                        p, min_rows_per_file=16384
                    ),
                    tmp.partials_dir,
                )
            mark("posting_partials")

        if _fail_after == "posting_partials":
            raise RuntimeError(
                "injected failure after posting_partials stage (test hook)"
            )
        # the checkpoint dir is deleted once the segments stage completes:
        # only open it when the merge still has to run (a resume AFTER the
        # segments stage must not touch it)
        partials_ds = (
            rd.read_parquet(tmp.partials_dir)
            if "segments" not in done
            else None
        )
    else:
        partials_ds = tok_ds.map_batches(
            partial, batch_format="pyarrow", batch_size=max(batch_size, 1024)
        )

    if "segments" not in done:
        merger = make_segment_merger(n_shards)
        segments = partials_ds.sort(["term", "salt"]).map_batches(
            merger, batch_format="pyarrow"
        )
        if os.path.exists(tmp.segments_dir):
            shutil.rmtree(tmp.segments_dir)
        def write_segments(p):
            segments.write_parquet(p, partition_cols=["shard"])
            _compact_shard_dir(p, ["term", "salt"])

        with timed("segments"):
            staged_write(write_segments, tmp.segments_dir)
        mark("segments")

    # once the segments stage is done the checkpoint has served its
    # purpose; delete it UNCONDITIONALLY (a crash between mark() and this
    # cleanup must not ship the partials into the final index on resume)
    if "segments" in done and os.path.exists(tmp.partials_dir):
        shutil.rmtree(tmp.partials_dir)

    if _fail_after == "segments":
        raise RuntimeError("injected failure after segments stage (test hook)")

    # optional content n-gram index: same partial-encode -> (gram, salt)
    # shuffle -> merge shape as the term segments; doc ids only
    if ngram_index and "ngrams" not in done:
        gram_partials = rd.read_parquet(
            tmp.docs_dir, columns=["doc_id", "content"]
        ).map_batches(
            make_ngram_partials(salt_shift),
            batch_format="pyarrow",
            batch_size=batch_size,
        )
        ngrams = gram_partials.sort(["gram", "salt"]).map_batches(
            make_ngram_merger(n_shards), batch_format="pyarrow"
        )
        if os.path.exists(tmp.ngrams_dir):
            shutil.rmtree(tmp.ngrams_dir)
        def write_ngrams(p):
            ngrams.write_parquet(p, partition_cols=["shard"])
            _compact_shard_dir(p, ["gram", "salt"])

        with timed("ngrams"):
            staged_write(write_ngrams, tmp.ngrams_dir)
        mark("ngrams")

    # build metrics: skew / partition-size evidence (SURVEY.md §5 "Skew":
    # log()-style metrics on max partition size) + per-shard layout
    metrics: dict = {}
    try:
        # ONE narrow pass over (shard, df) computes every skew metric —
        # no groupby shuffle, no second max() job
        seg_refs = rd.read_parquet(
            tmp.segments_dir, columns=["shard", "df"]
        ).to_arrow_refs()
        n_terms = 0
        max_df = 0
        shard_counts = np.zeros(n_shards, dtype=np.int64)
        for r in seg_refs:
            t = ray.get(r)
            if not t.num_rows:
                continue
            n_terms += t.num_rows
            max_df = max(max_df, int(t.column("df").to_numpy().max()))
            shard_counts += np.bincount(
                t.column("shard").to_numpy().astype(np.int64),
                minlength=n_shards,
            )
        metrics = dict(
            n_terms=n_terms,
            max_shard_rows=int(shard_counts.max()) if n_terms else 0,
            min_shard_rows=int(shard_counts.min()) if n_terms else 0,
            max_df=max_df,
            n_hot_terms=len(hot),
        )
    except Exception:  # metrics are best-effort observability
        pass
    metrics["stage_sec"] = stage_sec  # per-stage wall (scaling evidence)

    with open(tmp.stats_path, "w") as f:
        json.dump(
            dict(
                n_docs=int(n_docs),
                sum_dl=int(sum_dl),
                avgdl=float(avgdl),
                n_shards=n_shards,
                salt_shift=salt_shift,
                hot_terms=sorted(hot),
                has_ngrams=bool(ngram_index),
                metrics=metrics,
            ),
            f,
        )
    with open(tmp.manifest_path, "w") as f:
        json.dump(dict(fingerprint=fp, params=params, complete=True,
                      corpus_files=listing), f)
    if os.path.exists(stages_path):
        os.remove(stages_path)

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.rename(tmp_root, out_dir)
    return paths


# ---------------------------------------------------------------------------
# Incremental update (segment append — the Lucene commit-point model)
# ---------------------------------------------------------------------------

#: append-only fast path: max delta keys pulled to the driver. Above it
#: (a >2M-file drop in one update) the generic shuffle diff takes over —
#: it is the corpus-scale path anyway.
_APPEND_DRIVER_KEYS_MAX = 2_000_000


def _append_only_added(
    paths: "IndexPaths", new_files: list[str]
) -> tuple[str, list[tuple[str, str, str]] | None]:
    """Resolve the added-doc set when every previously-indexed corpus file
    is proven byte-identical (append-only update): guard ONLY the new
    parquet files, pull their narrow keys to the driver (bounded by the
    delta, capped at _APPEND_DRIVER_KEYS_MAX), and probe the stored key
    side table for triple collisions with ONE broadcast map over it.

    Returns (mode, added): mode "ok" with the sorted added triples,
    "rebuild" when a collision carries conflicting content (a changed doc
    in disguise, or a duplicate triple), or "fallback" when the fast path
    cannot decide (no key side table yet, or the delta exceeds the driver
    cap) and the generic shuffle diff must run."""
    if not new_files:
        return "ok", []
    # delta-size guard from parquet FOOTERS (no data read)
    import pyarrow.parquet as _pq

    n_delta = 0
    for f in new_files:
        try:
            n_delta += _pq.ParquetFile(f).metadata.num_rows
        except Exception:
            return "fallback", None
    if n_delta > _APPEND_DRIVER_KEYS_MAX:
        return "fallback", None
    key_files = [
        os.path.join(d, f)
        for d in paths.keys_dirs()
        for f in (sorted(os.listdir(d)) if os.path.isdir(d) else [])
        if f.endswith(".parquet")
    ]
    if not all(os.path.isdir(d) for d in paths.keys_dirs()):
        return "fallback", None  # pre-side-table index (or older gen)

    def narrow(batch: pa.Table) -> pa.Table:
        return pa.table({
            "repo": pc.cast(batch.column("repo"), pa.string()),
            "path": pc.cast(batch.column("path"), pa.string()),
            "commit": pc.cast(batch.column("commit"), pa.string()),
            "sha": pc.cast(batch.column("content_sha256"), pa.string()),
        })

    _empty_keys = pa.table(
        {c: pa.array([], pa.string())
         for c in ("repo", "path", "commit", "sha")}
    )
    if n_delta:
        parts = [
            t for t in (
                ray.get(r)
                for r in rd.read_parquet(new_files)
                .map_batches(guard_batch, batch_format="pyarrow",
                             batch_size=4096)
                .map_batches(narrow, batch_format="pyarrow")
                .to_arrow_refs()
            )
            if t.num_rows > 0
        ]
        # guard_batch may drop EVERY delta row (NUL / oversized content):
        # that is a clean no-op append, not an error
        c_tbl = pa.concat_tables(parts) if parts else _empty_keys
    else:
        c_tbl = _empty_keys
    if any(
        c_tbl.column(c).null_count for c in ("repo", "path", "commit")
    ):
        return "rebuild", None  # null keys: let the full path reject them
    repo = c_tbl.column("repo").to_numpy(zero_copy_only=False)
    path_ = c_tbl.column("path").to_numpy(zero_copy_only=False)
    com = c_tbl.column("commit").to_numpy(zero_copy_only=False)
    sha = c_tbl.column("sha").to_numpy(zero_copy_only=False)
    k3 = np.array(
        [f"{r}\x00{p}\x00{c}" for r, p, c in zip(repo, path_, com)],
        dtype=object,
    )
    k4 = np.array([f"{a}\x00{s}" for a, s in zip(k3, sha)], dtype=object)
    uniq4, first4, c4_counts = np.unique(
        k4, return_index=True, return_counts=True
    )
    if (c4_counts > 1).any():
        # byte-identical duplicate ROWS of one triple: pick() would keep
        # both physical rows and assign them the same doc id, corrupting
        # the generation's doc_lens slice — route through the rebuild,
        # same as the conflicting-content duplicate
        return "rebuild", None
    k3_of4 = k3[first4]
    uniq3, c3_counts = np.unique(k3_of4, return_counts=True)
    if (c3_counts > 1).any():
        # one triple, several distinct contents: duplicate primary keys —
        # the generic path routes this through a full rebuild too
        return "rebuild", None
    sha_of3 = {k: s for k, s in zip(k3_of4, sha[first4])}
    if uniq3.size == 0:
        # every delta row was guarded away (NUL / oversized content):
        # a clean no-op append
        return "ok", []

    # collision probe: ONE broadcast map over the key side table (sorted
    # searchsorted against the delta's triples; only matches come back)
    probe_ref = ray.put(np.sort(uniq3))

    def collide(batch: pa.Table) -> pa.Table:
        ks = ray.get(probe_ref)
        bk = pc.binary_join_element_wise(
            pc.cast(batch.column("repo"), pa.string()).combine_chunks(),
            pc.cast(batch.column("path"), pa.string()).combine_chunks(),
            pc.cast(batch.column("commit"), pa.string()).combine_chunks(),
            pa.scalar("\x00"),
        ).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, bk)
        mask = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == bk)
        return pa.table({
            "k3": pa.array(bk[mask], pa.string()),
            "sha": pc.cast(
                batch.column("content_sha256"), pa.string()
            ).filter(pa.array(mask)),
        })

    coll_parts = [
        t for t in (
            ray.get(r)
            for r in rd.read_parquet(
                key_files,
                columns=["repo", "path", "commit", "content_sha256"],
            ).map_batches(collide, batch_format="pyarrow").to_arrow_refs()
        )
        if t.num_rows > 0
    ] if key_files else []
    collided: set[str] = set()
    for t in coll_parts:
        for k, s in zip(
            t.column("k3").to_pylist(), t.column("sha").to_pylist()
        ):
            if sha_of3.get(k) != s:
                # the triple exists with DIFFERENT content: a change
                return "rebuild", None
            collided.add(k)  # identical re-add: 'same', skip
    added = sorted(
        tuple(k.split("\x00", 2)) for k in uniq3 if k not in collided
    )
    return "ok", added

def update_index(corpus, out_dir: str, *, batch_size: int = 256,
                 _retries: int = 4) -> IndexPaths:
    """Incrementally update an existing index to match ``corpus``.

    The reference has no persistent index (probe re-scans per query); this
    is the engine's own index-maintenance path, following the standard
    segment-append design:

    - **additions only** (new (repo, path, commit) keys — the full doc
      identity triple, so a new commit of an existing path is an addition
      even when its content sha is unchanged; every existing doc's sha256
      unchanged): the new docs are tokenized and committed as a new
      GENERATION ``updates/gen-K/`` holding their docs files, one
      compacted posting-segment file per shard (same term-hash shards and
      hot-term salt scheme as the base build), a doc_lens slice, and a
      full stats.json snapshot. The atomic ``gen-K.tmp -> gen-K`` rename
      is the commit point — a crash before it leaves the index exactly as
      it was (the stale .tmp is swept on the next update), a crash after
      it is a completed update (the base manifest fingerprint is repaired
      idempotently on the next call). Every query-path reader (postings,
      term bounds, skip-probe, candidate fetch, doc-length attribute)
      already merges multiple segment rows per (term, salt), so appended
      generations need no read-side migration.
    - **any change or removal** (sha mismatch or key gone): falls back to
      a full rebuild. Probe's semantics are a corpus snapshot; serving
      tombstones would tax every query for a rare event.
    - **ngram-indexed builds** append a gram-segment generation the same
      way (the gram reader already merges multi-row grams).

    Doc ids for added files continue from n_docs in (repo, path, commit)
    order WITHIN the update batch — segment-append order, exactly like
    Lucene doc ids. DEVIATION (documented): a fresh full build of the
    same corpus would interleave ids globally, so score-TIE ordering can
    differ between an updated index and a from-scratch build; scores and
    result sets are identical.

    The change diff runs at two speeds:

    - **append-only fast path**: when the manifest's per-corpus-file
      (size, mtime_ns) records prove every previously-indexed parquet
      file untouched, only the NEW files are guarded and their keys are
      collision-probed against the stored key side table with one
      broadcast map — diff cost scales with the delta (no full-corpus
      guard, no key shuffle). Driver state is the delta's keys, capped at
      ``_APPEND_DRIVER_KEYS_MAX``.
    - **generic diff**: a narrow tagged-union groupby over
      (repo, path, commit) keys from the key side table (or the pruned
      docs parquet for pre-side-table indexes) vs the freshly guarded
      corpus — only the CHANGED key lists ever reach the driver.
    """
    paths = IndexPaths(out_dir)
    if not os.path.exists(paths.manifest_path):
        return build_index(corpus, out_dir, overwrite=True)
    try:
        with open(paths.manifest_path) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError):
        manifest = {}
    if not manifest.get("complete"):
        return build_index(corpus, out_dir, overwrite=True)
    stats = paths.stats()
    n_shards = int(stats["n_shards"])
    params = manifest.get("params", {})
    fp = _fingerprint(corpus, params)
    if manifest.get("fingerprint") == fp:
        return paths  # already at this corpus

    # sweep stale uncommitted generations (crash leftovers)
    if os.path.isdir(paths.updates_dir):
        for g in os.listdir(paths.updates_dir):
            if g.endswith(".tmp"):
                shutil.rmtree(os.path.join(paths.updates_dir, g))

    import time as _time

    stage_sec: dict[str, float] = {}
    _t0 = _time.time()

    def _mark_stage(name: str) -> None:
        nonlocal _t0
        stage_sec[name] = round(_time.time() - _t0, 3)
        _t0 = _time.time()

    listing = _corpus_listing(corpus)

    # ---- append-only fast path ------------------------------------------
    # The dominant incremental shape is "new parquet files appended to an
    # otherwise untouched corpus dir". The manifest's per-file
    # (size, mtime_ns) records prove every previously-indexed corpus file
    # is byte-identical, so no old key can be removed or changed except by
    # key COLLISION from a new file — the whole diff reduces to guarding
    # only the NEW files and one broadcast collision probe against the
    # stored key side table. No full-corpus guard, no key shuffle: the
    # diff cost scales with the DELTA, which is the point of an update.
    added: list[tuple[str, str, str]] | None = None
    new_files_only: list[str] | None = None
    recorded = manifest.get("corpus_files")
    if listing is not None and recorded is not None and all(
        listing.get(f) == sig for f, sig in recorded.items()
    ):
        fresh = sorted(set(listing) - set(recorded))
        new_files_only = [os.path.join(corpus, f) for f in fresh]
        mode, fast_added = _append_only_added(paths, new_files_only)
        if mode == "rebuild":
            return build_index(
                corpus, out_dir, overwrite=True,
                n_shards=int(params.get("n_shards", n_shards)),
                salt_buckets=int(params.get("salt_buckets", 8)),
                hot_threshold_frac=float(
                    params.get("hot_threshold_frac", 0.05)
                ),
                ngram_index=bool(params.get("ngram_index",
                                            stats.get("has_ngrams"))),
            )
        if mode == "ok":
            added = fast_added
            _mark_stage("diff_append_only")
        else:  # "fallback": no key side table / delta too large
            new_files_only = None

    if added is None:
        # -- generic narrow diff: (repo, path, commit, sha, src) tagged union --
        # Runs when the append-only fast path above could not decide. The
        # corpus/doc-id identity is the FULL (repo, path, commit) triple
        # (assign_doc_ids sorts all three); keying the diff on (repo, path)
        # alone would give two commits of one path the same doc id and would
        # classify a new commit with an unchanged sha as 'same' (never
        # indexed). The sha still decides same-vs-changed PER triple.
        def tag(src):
            def run(batch: pa.Table) -> pa.Table:
                return pa.table({
                    "repo": pc.cast(batch.column("repo"), pa.string()),
                    "path": pc.cast(batch.column("path"), pa.string()),
                    "commit": pc.cast(batch.column("commit"), pa.string()),
                    "sha": pc.cast(batch.column("content_sha256"), pa.string()),
                    "src": pa.array([src] * len(batch), pa.string()),
                })
            return run

        # old-side keys come from the NARROW key/sha side table written at
        # build/update time (base keys/ + one per generation) — the wide docs
        # parquet is never re-opened for the diff; pre-side-table indexes
        # (or a gen written by an older version) fall back to the pruned docs
        # read
        def _parquet_files(dirs: list[str]) -> list[str]:
            return [
                os.path.join(d, f)
                for d in dirs if os.path.isdir(d)
                for f in sorted(os.listdir(d)) if f.endswith(".parquet")
            ]

        have_all_keys = all(
            os.path.isdir(d) for d in paths.keys_dirs()
        )
        old_files = (
            _parquet_files(paths.keys_dirs()) if have_all_keys
            else _parquet_files(paths.docs_paths())
        )
        new_ds = read_corpus(corpus) if isinstance(corpus, str) else corpus
        # the diff's guard pass only feeds narrow key rows (the delta re-guards
        # separately), so large batches are safe and cut task-dispatch overhead
        new_guarded = new_ds.map_batches(
            guard_batch, batch_format="pyarrow",
            batch_size=max(batch_size, 4096),
        )
        new_keys = new_guarded.map_batches(tag("new"), batch_format="pyarrow")
        if old_files:
            old_keys = rd.read_parquet(
                old_files,
                columns=["repo", "path", "commit", "content_sha256"],
            ).map_batches(tag("old"), batch_format="pyarrow")
            tagged_keys = old_keys.union(new_keys)
        else:
            # base built from an empty corpus: no docs files exist; every new
            # triple is an addition
            tagged_keys = new_keys

        # classify keys VECTORIZED once per block of the key-hash sort: the
        # sort range-partitions, so every (repo, path, commit) key's rows
        # share one block, and each block resolves all its keys with one
        # np.unique pass (a per-key map_groups would make one Python call
        # PER FILE — O(corpus) driver-style Python at 10^12-file scale)
        def add_key_hash(batch: pa.Table) -> pa.Table:
            # the hashed key must be NUL-FREE: pandas' siphash truncates object
            # strings at \x00 on the multi-element path but not the 1-element
            # path, so the same key can get different hashes depending on
            # batch shape (observed; classify would then see one side only
            # and report phantom added+removed pairs). \x1f keeps (repo, path)
            # joined unambiguously for dispersion; exactness lives in classify.
            key = pd.Series(
                pc.replace_substring(
                    pc.binary_join_element_wise(
                        batch.column("repo").combine_chunks(),
                        batch.column("path").combine_chunks(),
                        batch.column("commit").combine_chunks(),
                        pa.scalar("\x1f"),
                    ),
                    pattern="\x00", replacement="\x1f",
                ).to_pandas()
            )
            kh = pd.util.hash_pandas_object(key, index=False).to_numpy()
            return batch.append_column(
                "kh", pa.array(kh.view(np.int64), pa.int64())
            )

        def classify_part(g: pd.DataFrame) -> pd.DataFrame:
            # per (key, sha): which sides carry it -> per key: same iff every
            # pair is on both sides (set equality); added iff no old pairs;
            # removed iff no new pairs; changed otherwise. Fully VECTORIZED
            # (np.unique composite keys + bincount side flags).
            empty = pd.DataFrame({
                "repo": pd.Series([], dtype="string"),
                "path": pd.Series([], dtype="string"),
                "commit": pd.Series([], dtype="string"),
                "status": pd.Series([], dtype="string"),
            })
            if not len(g):
                return empty
            # null-keyed rows must not vanish from the diff (the update would
            # stamp the new fingerprint without ever seeing them) — surface
            # them as "changed" so the full-rebuild path handles them
            nul = g["repo"].isna() | g["path"].isna() | g["commit"].isna()
            extra = None
            if nul.any():
                extra = pd.DataFrame({
                    "repo": [""], "path": [""], "commit": [""],
                    "status": ["changed"],
                })
                g = g[~nul]
                if not len(g):
                    return extra
            sep = "\x00"
            k3 = (
                g["repo"].astype(str) + sep + g["path"].astype(str) + sep
                + g["commit"].astype(str)
            ).to_numpy()
            k4 = k3 + sep + g["sha"].astype(str).to_numpy()
            uniq4, first4, inv4 = np.unique(
                k4, return_index=True, return_inverse=True
            )
            is_new = (g["src"].to_numpy() == "new")
            has_old = np.bincount(
                inv4[~is_new], minlength=len(uniq4)
            ).astype(bool)
            new_counts = np.bincount(inv4[is_new], minlength=len(uniq4))
            has_new = new_counts.astype(bool)
            _, first3, inv3 = np.unique(
                k3[first4], return_index=True, return_inverse=True
            )
            k = first3.size
            left_only = np.bincount(inv3[has_old & ~has_new], minlength=k)
            right_only = np.bincount(inv3[~has_old & has_new], minlength=k)
            both = np.bincount(inv3[has_old & has_new], minlength=k)
            # byte-identical duplicate PHYSICAL rows of a NEW triple would
            # all pass pick() and share one doc id — force such keys through
            # the rebuild path instead of 'added'
            dup_new = np.bincount(inv3[new_counts > 1], minlength=k) > 0
            same = (left_only == 0) & (right_only == 0)
            keep = ~same
            if not keep.any():
                return empty if extra is None else extra
            # a triple with >1 distinct NEW sha is a corpus carrying duplicate
            # primary keys with conflicting content — route it through the
            # full-rebuild path rather than colliding doc ids in a generation
            status = np.where(
                (both == 0) & (left_only == 0) & (right_only == 1)
                & ~dup_new, "added",
                np.where((both == 0) & (right_only == 0), "removed", "changed"),
            )[keep]
            rows = g.iloc[first4[first3[keep]]]
            out = pd.DataFrame({
                "repo": rows["repo"].to_numpy(),
                "path": rows["path"].to_numpy(),
                "commit": rows["commit"].to_numpy(),
                "status": status,
            })
            return out if extra is None else pd.concat(
                [out, extra], ignore_index=True
            )

        delta_rows = (
            tagged_keys
            .map_batches(add_key_hash, batch_format="pyarrow")
            .sort("kh")
            .map_batches(classify_part, batch_format="pandas", batch_size=None)
            .take_all()
        )
        _mark_stage("diff")
        statuses = {r["status"] for r in delta_rows}
        if "removed" in statuses or "changed" in statuses:
            # the rebuild must preserve every knob of the original build (from
            # the manifest's params record) — dropping ngram_index here would
            # silently lose the substring index, and a different salt/shard
            # layout would be a surprise reshape
            return build_index(
                corpus, out_dir, overwrite=True,
                n_shards=int(params.get("n_shards", n_shards)),
                salt_buckets=int(params.get("salt_buckets", 8)),
                hot_threshold_frac=float(params.get("hot_threshold_frac", 0.05)),
                ngram_index=bool(params.get("ngram_index",
                                            stats.get("has_ngrams"))),
            )
        added = sorted(
            (r["repo"], r["path"], r["commit"])
            for r in delta_rows if r["status"] == "added"
        )

    def commit_manifest() -> None:
        # the updates history is DERIVED from the committed generations on
        # disk (each gen's stats snapshot records its own added count), so
        # a crash between the gen rename and this write, or a no-op repair
        # call, can never record a phantom or miss a real generation
        manifest["fingerprint"] = fp
        # per-file corpus records keep the NEXT update on the append-only
        # fast path
        manifest["corpus_files"] = listing
        hist = []
        for g in paths.update_gens():
            try:
                with open(os.path.join(g, "stats.json")) as f:
                    lu = json.load(f).get("metrics", {}).get("last_update", {})
            except (OSError, json.JSONDecodeError):
                lu = {}
            hist.append(dict(gen=int(g.rsplit("-", 1)[1]),
                             added=lu.get("added")))
        manifest["updates"] = hist
        tmp_m = paths.manifest_path + ".tmp"
        with open(tmp_m, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp_m, paths.manifest_path)

    gen_k = len(paths.update_gens())
    if not added:
        # pure fingerprint repair (e.g. crash between gen commit and
        # manifest write, or a no-op corpus touch)
        commit_manifest()
        return paths

    # -- build the generation under updates/gen-K.tmp ---------------------
    os.makedirs(paths.updates_dir, exist_ok=True)
    gen_final = os.path.join(paths.updates_dir, f"gen-{gen_k}")
    gen_tmp = gen_final + ".tmp"
    if os.path.exists(gen_tmp):
        shutil.rmtree(gen_tmp)
    os.makedirs(gen_tmp)

    offset = int(stats["n_docs"])
    salt_shift = int(stats["salt_shift"])
    hot = set(stats.get("hot_terms", []))
    added_keys = np.array(
        ["\x00".join(k) for k in added], dtype=object
    )
    added_ref = ray.put(np.sort(added_keys))

    def _keys_of(batch: pa.Table) -> np.ndarray:
        # the full (repo, path, commit) triple, \x00-joined exactly like
        # assign_doc_ids — ids must be unique PER COMMIT of a path
        return pc.binary_join_element_wise(
            batch.column("repo").combine_chunks(),
            batch.column("path").combine_chunks(),
            pc.cast(batch.column("commit").combine_chunks(), pa.string()),
            pa.scalar("\x00"),
        ).to_numpy(zero_copy_only=False)

    def pick(batch: pa.Table) -> pa.Table:
        # key filter on the RAW corpus rows, BEFORE guard: the delta pass
        # must not re-pay the full-corpus guard (sha over every content
        # string) a second time — only added files flow past this point
        ks = ray.get(added_ref)
        bk = _keys_of(batch)
        pos = np.searchsorted(ks, bk)
        mask = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == bk)
        return batch.filter(pa.array(mask))

    def add_ids(batch: pa.Table) -> pa.Table:
        ks = ray.get(added_ref)
        ids = offset + np.searchsorted(ks, _keys_of(batch))
        return batch.append_column("doc_id", pa.array(ids, pa.int64()))

    # append-only fast path: the delta can only live in the new files —
    # never re-read (or re-stream) the rest of the corpus
    if new_files_only is not None:
        src_ds = rd.read_parquet(new_files_only)
    elif isinstance(corpus, str):
        src_ds = read_corpus(corpus)
    else:
        src_ds = corpus
    docs_pipe = (
        src_ds
        .map_batches(pick, batch_format="pyarrow")
        .map_batches(guard_batch, batch_format="pyarrow", batch_size=batch_size)
        .map_batches(add_ids, batch_format="pyarrow")
        .map_batches(tokenize_batch, batch_format="pyarrow", batch_size=batch_size)
    )
    gen_docs = os.path.join(gen_tmp, "docs")
    docs_pipe.write_parquet(gen_docs, min_rows_per_file=8192)
    _mark_stage("docs")

    # the four remaining artifacts (doc_lens slice, posting segments, gram
    # segments, key side table) all derive from gen_docs and are mutually
    # independent — run them as CONCURRENT Ray jobs from driver threads
    # instead of a serial tail of per-job fixed latencies (this tail used
    # to dominate small deltas; the cleaning pipeline uses the same
    # ThreadPoolExecutor-over-Ray-jobs pattern)
    from concurrent.futures import ThreadPoolExecutor

    def job_doc_lens() -> tuple[int, int]:
        ds_len = rd.read_parquet(gen_docs, columns=["doc_id", "doc_len"])

        def rebase(batch: pa.Table) -> pa.Table:
            return pa.table({
                "doc_id": pc.subtract(
                    batch.column("doc_id"), pa.scalar(offset)
                ),
                "doc_len": batch.column("doc_len"),
            })

        return _write_doc_lens_sharded(
            ds_len.map_batches(rebase, batch_format="pyarrow"),
            os.path.join(gen_tmp, "doc_lens.npy"),
        )

    def job_segments() -> None:
        tok_ds = rd.read_parquet(
            gen_docs,
            columns=["doc_id", "tokens", "n_content_tokens",
                     "shadow_tokens"],
        )
        partial = make_partial_segments(hot, salt_shift)
        merger = make_segment_merger(n_shards)
        segments = (
            tok_ds.map_batches(
                partial, batch_format="pyarrow",
                batch_size=max(batch_size, 1024),
            )
            .sort(["term", "salt"])
            .map_batches(merger, batch_format="pyarrow")
        )
        gen_segs = os.path.join(gen_tmp, "segments")
        segments.write_parquet(gen_segs, partition_cols=["shard"])
        _compact_shard_dir(gen_segs, ["term", "salt"])
        # every shard dir must exist even if no term of it was touched
        for s in range(n_shards):
            os.makedirs(os.path.join(gen_segs, f"shard={s}"), exist_ok=True)

    def job_ngrams() -> None:
        # the gram index appends exactly like the term index (same
        # multi-row read-time merge)
        gen_ngrams = os.path.join(gen_tmp, "ngrams")
        (
            rd.read_parquet(gen_docs, columns=["doc_id", "content"])
            .map_batches(
                make_ngram_partials(salt_shift),
                batch_format="pyarrow", batch_size=batch_size,
            )
            .sort(["gram", "salt"])
            .map_batches(make_ngram_merger(n_shards), batch_format="pyarrow")
            .write_parquet(gen_ngrams, partition_cols=["shard"])
        )
        _compact_shard_dir(gen_ngrams, ["gram", "salt"])
        for s in range(n_shards):
            os.makedirs(
                os.path.join(gen_ngrams, f"shard={s}"), exist_ok=True
            )

    def job_keys() -> None:
        # this generation's slice of the key/sha side table, so the NEXT
        # update's diff stays off the wide docs parquet
        rd.read_parquet(
            gen_docs,
            columns=["repo", "path", "commit", "content_sha256"],
        ).write_parquet(
            os.path.join(gen_tmp, "keys"), min_rows_per_file=131072
        )

    jobs = [job_segments, job_keys]
    if stats.get("has_ngrams"):
        jobs.append(job_ngrams)
    with ThreadPoolExecutor(max_workers=1 + len(jobs)) as ex:
        fut_lens = ex.submit(job_doc_lens)
        futs = [ex.submit(j) for j in jobs]
        m_docs, m_sum_dl = fut_lens.result()
        for f in futs:
            f.result()
    _mark_stage("tail_concurrent")

    n_docs = offset + m_docs
    sum_dl = int(stats["sum_dl"]) + m_sum_dl
    gen_stats = dict(
        stats,
        n_docs=int(n_docs),
        sum_dl=int(sum_dl),
        avgdl=(sum_dl / n_docs) if n_docs else 0.0,
        metrics=dict(
            stats.get("metrics", {}),
            last_update=dict(gen=gen_k, added=m_docs,
                             stage_sec=stage_sec),
        ),
    )
    with open(os.path.join(gen_tmp, "stats.json"), "w") as f:
        json.dump(gen_stats, f)

    # COMMIT — the rename itself is the race arbiter (first-rename-wins,
    # the documented /tmp-store pattern): a concurrent updater that
    # committed the same generation number first makes this rename fail,
    # and our generation is stale by definition (it diffed against a
    # pre-commit corpus), so discard it and re-run against the new state.
    # The retry is BOUNDED: a rename failure where gen_final does NOT
    # exist is not a lost race but a real filesystem error (EACCES, EXDEV,
    # ...) and must surface, not loop; repeated genuine races are capped.
    try:
        os.rename(gen_tmp, gen_final)
    except OSError:
        shutil.rmtree(gen_tmp, ignore_errors=True)
        if not os.path.exists(gen_final):
            raise
        if _retries <= 0:
            raise RuntimeError(
                f"update_index: lost the gen-{gen_k} commit race too many "
                f"times on {out_dir}; a concurrent updater is racing this "
                "one — retry when it settles"
            )
        return update_index(
            corpus, out_dir, batch_size=batch_size, _retries=_retries - 1
        )
    commit_manifest()
    return paths


def compact_index(index_dir: str, out_dir: str, *, batch_size: int = 1024) -> IndexPaths:
    """Merge an index's update generations back into a single-generation
    index at ``out_dir`` (the background segment-merge step of the Lucene
    model, run when accumulated generations make shard fragment counts
    noticeable).

    Much cheaper than a rebuild from the corpus: the stored docs tables
    (tokens included — the expensive tokenize stage is NOT re-run) stream
    straight into the postings partial -> sort -> merge pipeline; doc ids,
    stats and the doc-length slices are carried over as-is. ``out_dir``
    must be a fresh directory — the caller swaps it over the old index
    (one directory rename), which keeps the commit trivially atomic and
    lets the old index serve queries during the compaction.
    """
    src = IndexPaths(index_dir)
    stats = src.stats()
    n_shards = int(stats["n_shards"])
    if os.path.exists(out_dir):
        raise ValueError(f"out_dir exists: {out_dir} (pass a fresh path)")
    tmp_root = out_dir + ".tmp"
    if os.path.exists(tmp_root):
        shutil.rmtree(tmp_root)
    dst = IndexPaths(tmp_root)
    os.makedirs(dst.docs_dir)

    # docs: copy the base + generation files under collision-free names
    k = 0
    for d in src.docs_paths():
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                shutil.copy2(
                    os.path.join(d, f),
                    os.path.join(dst.docs_dir, f"compact-{k:06d}.parquet"),
                )
                k += 1

    # doc-length attribute: generation slices are consecutive doc-id
    # ranges, so the merged array is their concatenation — each trimmed to
    # its recorded doc count (an empty base's npy is padded to shape (1,))
    arrs = [
        a if n < 0 else a[:n]
        for p, n in src.doc_lens_slices()
        if os.path.exists(p)
        for a in (np.load(p, mmap_mode="r"),)
    ]
    if arrs:
        merged = np.concatenate(arrs) if len(arrs) > 1 else np.asarray(arrs[0])
        if merged.shape[0] == 0:
            merged = np.zeros(1, dtype="<i4")  # keep the writer's pad shape
        np.save(dst.doc_lens_path, merged)

    # key/sha side table: regenerate from the merged docs (one narrow job;
    # robust even when the source index predates the side table)
    if any(f.endswith(".parquet") for f in os.listdir(dst.docs_dir)):
        rd.read_parquet(
            dst.docs_dir,
            columns=["repo", "path", "commit", "content_sha256"],
        ).write_parquet(dst.keys_dir, min_rows_per_file=131072)
    else:
        os.makedirs(dst.keys_dir, exist_ok=True)

    # segments: re-derive from the stored tokens (no tokenize stage)
    tok_ds = rd.read_parquet(
        dst.docs_dir,
        columns=["doc_id", "tokens", "n_content_tokens", "shadow_tokens"],
    )
    hot = set(stats.get("hot_terms", []))
    salt_shift = int(stats["salt_shift"])
    segments = (
        tok_ds.map_batches(
            make_partial_segments(hot, salt_shift),
            batch_format="pyarrow", batch_size=batch_size,
        )
        .sort(["term", "salt"])
        .map_batches(make_segment_merger(n_shards), batch_format="pyarrow")
    )
    segments.write_parquet(dst.segments_dir, partition_cols=["shard"])
    _compact_shard_dir(dst.segments_dir, ["term", "salt"])
    for s in range(n_shards):
        os.makedirs(os.path.join(dst.segments_dir, f"shard={s}"), exist_ok=True)

    if stats.get("has_ngrams"):
        (
            rd.read_parquet(dst.docs_dir, columns=["doc_id", "content"])
            .map_batches(
                make_ngram_partials(salt_shift),
                batch_format="pyarrow", batch_size=batch_size,
            )
            .sort(["gram", "salt"])
            .map_batches(make_ngram_merger(n_shards), batch_format="pyarrow")
            .write_parquet(dst.ngrams_dir, partition_cols=["shard"])
        )
        _compact_shard_dir(dst.ngrams_dir, ["gram", "salt"])
        for s in range(n_shards):
            os.makedirs(os.path.join(dst.ngrams_dir, f"shard={s}"), exist_ok=True)

    with open(dst.stats_path, "w") as f:
        json.dump(
            dict(
                stats,
                metrics=dict(
                    stats.get("metrics", {}),
                    compacted_gens=len(src.update_gens()),
                ),
            ),
            f,
        )
    try:
        with open(src.manifest_path) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError):
        manifest = {"complete": True}
    with open(dst.manifest_path, "w") as f:
        json.dump(manifest, f)
    os.rename(tmp_root, out_dir)
    return IndexPaths(out_dir)
