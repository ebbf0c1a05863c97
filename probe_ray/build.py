"""Distributed inverted-index build — Ray Data native.

Pipeline (SURVEY.md §7.1, Arrow batches throughout):

  read_parquet(corpus)
    -> map_batches(guard + blank long lines)          [file_guard semantics]
    -> materialize, driver sort of the pulled keys     [deterministic doc_id]
    -> one Ray task per block: ids, tokenize, write    [the hot stage]
    -> docs table (parquet, one file per block)
    -> map_batches(postings partials)                  [per-batch combine]
    -> sort(term, salt).map_batches(run merge, encode once)
    -> segments table (parquet, partitioned by shard)
  + stats.json (n_docs, sum_dl, avgdl) + manifest.json (lineage, resume)

Scale notes:
- The ONLY all-to-all shuffles are the (term, salt) posting sort and, past
  DRIVER_KEY_SORT_MAX rows, a doc-id sort (SURVEY.md §7.3). Postings are
  pre-combined per batch into one row per (term, salt) run — list<uint64>
  ids, list<uint8> tfs — BEFORE the shuffle, so the term string moves once
  per run instead of once per posting, and the merger encodes each list
  once (no per-batch encode, decode and re-encode).
- Hot-term skew ('fn', 'import'-class terms have df ≈ N): terms whose
  sampled df exceeds ``hot_df_threshold`` are salted into
  ``salt_buckets`` doc-id-range groups; their salted blobs are stored
  side-by-side and concatenated at read time (doc-id ranges are ordered by
  salt, so no re-sort is needed). SURVEY.md §5 "Skew".
- doc_id assignment needs a global order the Dataset API cannot express
  directly; the docs stage runs plain Ray tasks over the materialized
  blocks (``to_arrow_refs``), past DRIVER_KEY_SORT_MAX with driver-side
  prefix sums of the sorted blocks' row counts.
- Resumability: every stage writes a manifest with an input fingerprint;
  rebuilding with the same fingerprint skips completed stages
  (write-temp-then-rename for atomicity).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
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


def _posting_runs(key: str, terms: pa.Array, ids: np.ndarray,
                  in_content: np.ndarray, in_path: np.ndarray,
                  salt_shift: int, hot: pa.Array | None = None) -> pa.Table:
    """Group a batch's (term, doc_id) postings into one row per (term, salt)
    run: ``key``, salt, df (postings with tf > 0) and the run's ascending
    doc ids (list<uint64>) with their tf bytes (list<uint8>). A (term, doc)
    pair listed several times is one posting whose tf byte packs content
    presence in bits 0-3 and the path count in bits 4-7. Terms in ``hot``
    (every term when ``hot`` is None) are salted by doc-id range."""
    enc = pc.dictionary_encode(terms)
    codes = enc.indices.to_numpy()
    salts = ids >> np.uint64(salt_shift)
    if hot is not None:
        is_hot = pc.is_in(enc.dictionary, value_set=hot).to_numpy(
            zero_copy_only=False
        )
        salts = np.where(is_hot[codes], salts, np.uint64(0))
    order = np.lexsort((ids, codes))  # salt rises with the id
    codes, ids, salts = codes[order], ids[order], salts[order]
    first = np.ones(codes.size, dtype=bool)
    first[1:] = (codes[1:] != codes[:-1]) | (ids[1:] != ids[:-1])
    pairs = np.flatnonzero(first)
    tfs = (
        np.maximum.reduceat(in_content[order], pairs)
        + 16 * np.add.reduceat(in_path[order], pairs)
    ).astype(np.uint8)
    codes, ids, salts = codes[pairs], ids[pairs], salts[pairs]
    first = np.ones(codes.size, dtype=bool)
    first[1:] = (codes[1:] != codes[:-1]) | (salts[1:] != salts[:-1])
    runs = np.flatnonzero(first)
    offsets = pa.array(np.append(runs, codes.size).astype(np.int32))
    return pa.table({
        key: enc.dictionary.take(pa.array(codes[runs])),
        "salt": pa.array(salts[runs].astype(np.int32)),
        "df": pa.array(np.add.reduceat((tfs > 0).astype(np.int64), runs)),
        "ids": pa.ListArray.from_arrays(offsets, pa.array(ids, pa.uint64())),
        "tfs": pa.ListArray.from_arrays(offsets, pa.array(tfs, pa.uint8())),
    })


def make_partial_segments(hot_terms, salt_shift: int):
    """Returns the per-batch posting combiner: each batch's postings grouped
    into one (term, salt) run row BEFORE the shuffle, built vectorized from
    the flattened ``tokens`` (content run, then path run) and
    ``shadow_tokens`` (tf=0 postings for substring retrieval) lists."""
    hot = pa.array(sorted(hot_terms), pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy().astype(np.uint64)
        toks = batch.column("tokens").combine_chunks()
        shadows = batch.column("shadow_tokens").combine_chunks()
        n_tok = pc.list_value_length(toks).fill_null(0).to_numpy()
        n_sh = pc.list_value_length(shadows).fill_null(0).to_numpy()
        # position of each token in its doc's list: the first
        # n_content_tokens are content tokens, the rest path tokens
        pos = np.arange(int(n_tok.sum())) - np.repeat(
            np.cumsum(n_tok) - n_tok, n_tok
        )
        in_content = pos < np.repeat(
            batch.column("n_content_tokens").to_numpy(), n_tok
        )
        no_tf = np.zeros(int(n_sh.sum()), dtype=np.uint8)
        return _posting_runs(
            "term",
            pa.concat_arrays(
                [pc.list_flatten(toks), pc.list_flatten(shadows)]
            ),
            np.concatenate(
                [np.repeat(doc_ids, n_tok), np.repeat(doc_ids, n_sh)]
            ),
            np.concatenate([in_content.astype(np.uint8), no_tf]),
            np.concatenate([(~in_content).astype(np.uint8), no_tf]),
            salt_shift, hot,
        )

    return partial


def _merge_runs(batch: pa.Table, key: str, n_shards: int,
                skips: bool) -> pa.Table:
    """Merge the run rows of a (key, salt)-sorted batch: each (key, salt)
    run's id and tf lists are concatenated, put in id order and encoded
    ONCE into the segment row (blob, plus skip pairs and block-max when
    ``skips``). A run straddling a batch boundary simply yields two segment
    rows; readers already concatenate several rows per (key, salt)."""
    terms = batch.column(key).to_numpy(zero_copy_only=False)
    salts = batch.column("salt").to_numpy()
    first = np.ones(terms.size, dtype=bool)
    first[1:] = (terms[1:] != terms[:-1]) | (salts[1:] != salts[:-1])
    runs = np.flatnonzero(first)
    ids_col = batch.column("ids").combine_chunks()
    tfs_col = batch.column("tfs").combine_chunks()
    ids = pc.list_flatten(ids_col).to_numpy()
    tfs = pc.list_flatten(tfs_col).to_numpy()
    offs = np.concatenate(
        [[0], np.cumsum(pc.list_value_length(ids_col).to_numpy())]
    )
    bounds = np.append(runs, terms.size)
    encoded = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        r_ids, r_tfs = ids[offs[s]:offs[e]], tfs[offs[s]:offs[e]]
        if e - s > 1:  # sub-lists of several batches: disjoint, unordered
            order = np.argsort(r_ids, kind="stable")
            r_ids, r_tfs = r_ids[order], r_tfs[order]
        encoded.append(codec.encode_postings(r_ids, r_tfs))
    out = {
        key: pa.array(terms[runs], pa.string()),
        "salt": pa.array(salts[runs], pa.int32()),
        "shard": pa.array(
            [_term_shard(t, n_shards) for t in terms[runs]], pa.int32()
        ),
        "df": pa.array(
            np.add.reduceat(batch.column("df").to_numpy(), runs), pa.int64()
        ),
    }
    for i, c in enumerate(["blob", "skip", "block_max"][: 3 if skips else 1]):
        out[c] = pa.array([enc[i] for enc in encoded], pa.binary())
    return pa.table(out)


def make_segment_merger(n_shards: int):
    """Merge the (term, salt) runs of a sorted batch into final segment
    rows with skip blocks and block-max.

    Applied via sort(term, salt) -> map_batches (NOT groupby.map_groups:
    per-group dispatch overhead dominates with vocabulary-sized group
    counts)."""

    def merge_batch(batch: pa.Table) -> pa.Table:
        return _merge_runs(batch, "term", n_shards, skips=True)

    return merge_batch


# doc ids per doc-length attribute shard (16 MiB of int32 per slice; at
# 1e9 docs that is ~256 bounded-size write tasks)
DOC_LEN_SHARD = 1 << 22


def _write_doc_lens_sharded(ds_len: "rd.Dataset", out_path: str) -> tuple[int, int]:
    """Write the dense doc_id -> doc_len attribute file WITHOUT driver-side
    materialization: each map task saves its rows' (id, len) pairs per
    DOC_LEN_SHARD id range, one Ray task per range scatters them into the
    range's raw int32 slice (doc ids are dense by construction, so range ==
    slice), and the driver stream-concatenates the slices under one npy
    header — peak driver memory is a single slice buffer regardless of
    corpus size, no shuffle runs, and the query side still mmaps one plain
    .npy. Returns (n_docs, sum_doc_len) computed from the same scan."""
    shard_dir = f"{out_path}.shards.{os.getpid()}"
    if os.path.exists(shard_dir):
        shutil.rmtree(shard_dir)
    os.makedirs(shard_dir)

    def save_pieces(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        lens = batch.column("doc_len").to_numpy()
        shards = ids // DOC_LEN_SHARD
        out = {"shard": [], "n": [], "dl_sum": []}
        for sh in np.unique(shards).tolist():
            m = shards == sh
            d = os.path.join(shard_dir, f"{sh:08d}")
            os.makedirs(d, exist_ok=True)
            np.save(os.path.join(d, f"{uuid.uuid4().hex}.npy"),
                    np.stack([ids[m] - sh * DOC_LEN_SHARD, lens[m]]))
            out["shard"].append(sh)
            out["n"].append(int(m.sum()))
            out["dl_sum"].append(int(lens[m].sum()))
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    @ray.remote
    def write_shard(shard: int) -> None:
        arr = np.zeros(DOC_LEN_SHARD, dtype="<i4")
        d = os.path.join(shard_dir, f"{shard:08d}")
        for f in os.listdir(d):
            ids, lens = np.load(os.path.join(d, f))
            arr[ids] = lens
        path = os.path.join(shard_dir, f"part-{shard:08d}.bin")
        with open(path + ".tmp", "wb") as f:
            f.write(arr.tobytes())
        os.replace(path + ".tmp", path)

    parts = ds_len.map_batches(
        save_pieces, batch_format="pyarrow", batch_size=None
    ).take_all()  # one tiny row per (block, shard)
    ray.get([write_shard.remote(sh) for sh in {int(r["shard"]) for r in parts}])
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


def _as_dataset(corpus) -> "rd.Dataset":
    return read_corpus(corpus) if isinstance(corpus, str) else corpus


def _compact_shard_dir(root: str, sort_keys: list[str]) -> dict[int, tuple[int, int]]:
    """Segment-merge finish: rewrite each hive shard partition as ONE
    key-sorted parquet file (small row groups keep min/max stat pruning
    effective). The per-partition write leaves one file per (write task x
    shard) — hundreds of tiny fragments whose footer walks dominate
    per-query term-probe latency. One Ray task per shard; each returns its
    shard's (rows, max df), the skew metrics' inputs, so a shard already
    in one file is read (df column only) but not rewritten."""
    shard_dirs = sorted(d for d in os.listdir(root) if d.startswith("shard="))

    @ray.remote
    def compact(d: str) -> tuple[int, int]:
        p = os.path.join(root, d)
        files = [f for f in os.listdir(p) if f.endswith(".parquet")]
        if len(files) <= 1:
            tbl = pa.concat_tables(
                [pq.read_table(os.path.join(p, f), columns=["df"])
                 for f in files]
            ) if files else pa.table({"df": pa.array([], pa.int64())})
        else:
            tbl = pq.read_table(p).sort_by(
                [(k, "ascending") for k in sort_keys]
            )
            tmp_f = os.path.join(p, "_compact.tmp")
            pq.write_table(tbl, tmp_f, row_group_size=2048)
            for f in files:
                os.remove(os.path.join(p, f))
            os.rename(tmp_f, os.path.join(p, "segment-0.parquet"))
        return tbl.num_rows, int(pc.max(tbl.column("df")).as_py() or 0)

    sizes = ray.get([compact.remote(d) for d in shard_dirs])
    return {int(d.split("=", 1)[1]): sz for d, sz in zip(shard_dirs, sizes)}


def _triple_keys(batch: pa.Table) -> np.ndarray:
    """The (repo, path, commit) doc identity of each row, \x00-joined:
    doc ids follow the sort order of these keys."""
    return pc.binary_join_element_wise(
        *(pc.cast(batch.column(c), pa.string())
          for c in ("repo", "path", "commit")),
        pa.scalar("\x00"),
    ).to_numpy(zero_copy_only=False)


def _member(ks: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """Which of ``bk`` occur in the sorted key array ``ks``."""
    if not len(ks):
        return np.zeros(len(bk), dtype=bool)
    pos = np.searchsorted(ks, bk)
    return (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)] == bk)


def _filter_keys(keys_ref, keep_members: bool = True):
    """Map fn: the rows whose key is (or, with keep_members=False, is not)
    in the broadcast sorted key array."""

    def run(batch: pa.Table) -> pa.Table:
        m = _member(ray.get(keys_ref), _triple_keys(batch))
        return batch.filter(pa.array(m if keep_members else ~m))

    return run


def _set_doc_ids(keys_ref):
    """Map fn: doc_id = the row key's position in the broadcast sorted key
    array (replacing a stored doc_id column)."""

    def run(batch: pa.Table) -> pa.Table:
        ids = pa.array(
            np.searchsorted(ray.get(keys_ref), _triple_keys(batch)),
            pa.int64(),
        )
        i = batch.schema.get_field_index("doc_id")
        if i >= 0:
            return batch.set_column(i, "doc_id", ids)
        return batch.append_column("doc_id", ids)

    return run


# ---------------------------------------------------------------------------
# doc id assignment
# ---------------------------------------------------------------------------

@ray.remote
def _count_rows(table: pa.Table) -> int:
    return table.num_rows


@ray.remote
def _block_keys(table: pa.Table) -> np.ndarray:
    # an empty block may carry no columns at all
    return _triple_keys(table) if table.num_rows else np.array([], object)


# keys-on-driver id assignment is used below this row count; above it, the
# distributed full sort assigns ids (the keys no longer fit one machine)
DRIVER_KEY_SORT_MAX = 5_000_000


def _dense_ids(keys: list[np.ndarray], keep: np.ndarray | None = None,
               first: int = 0) -> list[np.ndarray]:
    """Per block of ``keys`` (triple keys in block order): each kept row's
    id, dense from ``first`` in key order with equal keys in block then
    row order (the order ``oracle.load_docs`` numbers them in), and -1 for
    a row not kept (every row is kept without ``keep``)."""
    flat = np.concatenate([np.array([], object), *keys])
    rows = np.arange(flat.size) if keep is None else np.flatnonzero(keep)
    ids = np.full(flat.size, -1, np.int64)
    ids[rows[np.argsort(flat[rows], kind="stable")]] = np.arange(
        first, first + rows.size)
    return np.split(ids, np.cumsum([k.size for k in keys])[:-1])


def assign_doc_ids(ds: rd.Dataset) -> list:
    """Deterministic dense doc ids in (repo, path, commit) order, equal
    triples in corpus read order, as the materialized guarded blocks of
    ``ds``, each with its ids: one id per row, or the block's first id
    when its rows are numbered in order (``_write_docs``).

    Two strategies:
    - small/medium corpora: the (repo, path, commit) KEY table is tiny
      relative to content, so pull the keys and stable-sort them on the
      driver (no content moves through a shuffle at all);
    - huge corpora: distributed sort of the full rows; only the block row
      COUNTS touch the driver.
    """
    # equal keys take block order, so the blocks must keep read order
    ds.context.execution_options.preserve_order = True
    ds = ds.materialize()
    if ds.count() > DRIVER_KEY_SORT_MAX:
        refs = ds.sort(["repo", "path", "commit"]).materialize().to_arrow_refs()
        counts = ray.get([_count_rows.remote(r) for r in refs])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        return [(r, int(off)) for r, off in zip(refs, offsets)]
    refs = ds.to_arrow_refs()
    return list(zip(refs, _dense_ids(ray.get([_block_keys.remote(r)
                                              for r in refs]))))


@ray.remote
def _write_docs_block(block: pa.Table, ids, batch_size: int,
                      path: str) -> None:
    if isinstance(ids, int):
        ids = np.arange(ids, ids + block.num_rows)
    elif block.num_rows and (ids < 0).any():
        block, ids = block.filter(pa.array(ids >= 0)), ids[ids >= 0]
    if not block.num_rows:
        return
    block = block.append_column("doc_id", pa.array(ids, pa.int64()))
    pq.write_table(pa.concat_tables([
        tokenize_batch(block.slice(s, batch_size))
        for s in range(0, block.num_rows, batch_size)
    ]), path)


def _write_docs(blocks, batch_size: int, part: str) -> None:
    """The docs table from guarded (ref, ids) blocks (``assign_doc_ids``;
    a row with id -1 is left out): one Ray task per block sets its doc ids,
    tokenizes it in ``batch_size`` slices and writes it as one parquet file
    (file order = block order)."""
    os.makedirs(part, exist_ok=True)
    ray.get([
        _write_docs_block.remote(ref, ids, batch_size,
                                 os.path.join(part, f"docs-{i:06d}.parquet"))
        for i, (ref, ids) in enumerate(blocks)
    ])


# ---------------------------------------------------------------------------
# Hot-term detection (sample-based df sketch)
# ---------------------------------------------------------------------------

def sample_hot_terms(
    docs_dir: str, threshold_frac: float = 0.05, sample_rows: int = 2000
) -> dict[str, int]:
    """Estimate hot terms from a deterministic prefix sample of the ALREADY
    tokenized docs table: the tokens columns of its first ``sample_rows``
    rows in file order, read on the driver (``head`` stops reading early,
    unlike a random_sample that scans everything). Terms present in more
    than ``threshold_frac`` of sampled docs get salted in the shuffle. Hot
    terms ('fn'/'import'-class) are corpus-wide by nature, so a prefix
    sample finds them; salting is a layout choice and never affects
    results."""
    sample = pads.dataset(docs_dir).head(
        sample_rows, columns=["tokens", "shadow_tokens"]
    )
    cols = [sample.column(c) for c in ("tokens", "shadow_tokens")]
    terms = pc.dictionary_encode(pa.concat_arrays(
        [pc.list_flatten(c).combine_chunks() for c in cols]
    ))
    rows = np.concatenate([pc.list_parent_indices(c).to_numpy() for c in cols])
    # df = the number of distinct rows per term: unique (row, term) pairs
    # as int codes (numpy holds less than an Arrow group_by here)
    n = len(terms.dictionary)
    pairs = np.unique(rows * n + terms.indices.to_numpy())
    df = np.bincount(pairs % max(n, 1), minlength=n)
    hot = np.flatnonzero(df >= max(2, int(threshold_frac * sample.num_rows)))
    return dict(zip(terms.dictionary.take(pa.array(hot)).to_pylist(),
                    df[hot].tolist()))


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
        return ps[0] if len(ps) == 1 else _parquet_files(ps)

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
    """Per-file identity: size + mtime_ns. The corpus fingerprint hashes it
    and the manifest records it per file for the update diff."""
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
            h.update(f"{p}:{_file_sig(p)}".encode())
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
    SET of lowercase 3-grams of content -> (gram, salt) run rows of doc ids
    (tf byte fixed at 1). Every gram is salted by doc-id range (gram df is
    uniformly skewed — 'the'-class grams hit most docs), which bounds
    single-blob size; read-time concatenation is the same mechanism as the
    term index."""

    def partial(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        counts: list[int] = []
        for content in batch.column("content").to_pylist():
            cl = content.lower()
            gs = {cl[i : i + NGRAM_N] for i in range(len(cl) - NGRAM_N + 1)}
            gs.discard("")
            grams.extend(gs)
            counts.append(len(gs))
        ids = np.repeat(
            batch.column("doc_id").to_numpy().astype(np.uint64), counts
        )
        return _posting_runs(
            "gram", pa.array(grams, pa.string()), ids,
            np.ones(ids.size, dtype=np.uint8),
            np.zeros(ids.size, dtype=np.uint8), salt_shift,
        )

    return partial


def make_ngram_merger(n_shards: int):
    """sort(gram, salt) -> map_batches run merge, mirroring the term-segment
    merger (doc-id blobs only, no skip blocks)."""

    def merge_batch(batch: pa.Table) -> pa.Table:
        return _merge_runs(batch, "gram", n_shards, skips=False)

    return merge_batch


class _Stages:
    """Stage record of one index write: wall time per stage and, with a
    ledger file, the completed stages, so a rerun with the same input
    fingerprint skips them. A stage output is written to a ``.part`` dir
    and renamed into place, so a completed stage is always whole."""

    def __init__(self, ledger: str | None = None, fp: str | None = None,
                 done=()):
        self.ledger, self.fp, self.done = ledger, fp, set(done)
        self.sec: dict[str, float] = {}
        self._lock = threading.Lock()

    def __contains__(self, stage: str) -> bool:
        return stage in self.done

    @contextlib.contextmanager
    def timed(self, stage: str):
        t0 = time.time()
        yield
        self.sec[stage] = round(time.time() - t0, 3)

    def write_dir(self, stage: str, final_dir: str, writer) -> None:
        """Run ``writer(part_dir)`` unless ``stage`` is done."""
        if stage in self.done:
            return
        part = final_dir + ".part"
        for d in (part, final_dir):
            if os.path.exists(d):
                shutil.rmtree(d)
        with self.timed(stage):
            writer(part)
        # a zero-row pipeline writes no directory at all
        os.makedirs(part, exist_ok=True)
        os.rename(part, final_dir)
        with self._lock:
            self.done.add(stage)
            if self.ledger:
                with open(self.ledger, "w") as f:
                    json.dump(dict(fingerprint=self.fp,
                                   done=sorted(self.done)), f)


def _concurrently(*jobs):
    """Run independent Ray Data jobs from driver threads, so their fixed
    per-job latencies overlap; results in job order. Every thread is joined
    before this returns, also when a job raises."""
    if len(jobs) == 1:
        return [jobs[0]()]
    with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
        futs = [ex.submit(j) for j in jobs]
        return [f.result() for f in futs]


def _write_tail(root: IndexPaths, st: _Stages, *, n_shards: int,
                ngram_index: bool, batch_size: int, hot=None,
                salt_shift: int | None = None, salt_buckets: int = 8,
                hot_threshold_frac: float = 0.05, id_offset: int = 0,
                checkpoint_partials: bool | None = None,
                _fail_after: str | None = None) -> dict:
    """Everything an index directory derives from its docs table
    (``root.docs_dir``): the key/sha side table, the doc-length attribute
    file, the hot terms, the posting segments, the optional gram segments
    and the skew metrics. Builds, renumbering rebuilds, update generations
    and compactions all finish here.

    ``hot`` and ``salt_shift`` come together: a generation or a compaction
    keeps its base's layout, a build samples the hot terms from the docs
    table and derives the salt shift from its doc count. ``id_offset`` is
    the first doc id of the table (a generation's doc-length slice starts
    at 0). Returns n_docs, sum_dl, hot, salt_shift and the skew metrics."""
    stage_dirs = [root.segments_dir] + ([root.ngrams_dir] if ngram_index else [])
    if not any(f.endswith(".parquet") for f in os.listdir(root.docs_dir)):
        # EMPTY docs table: every read_parquet below would choke on the
        # file-less dir, so finish a well-formed empty index directly
        np.save(root.doc_lens_path, np.zeros(1, dtype="<i4"))
        for d in [root.keys_dir] + [
            os.path.join(d, f"shard={s}")
            for d in stage_dirs for s in range(n_shards)
        ]:
            os.makedirs(d, exist_ok=True)
        return dict(n_docs=0, sum_dl=0, hot=set(hot or ()),
                    salt_shift=63 if salt_shift is None else salt_shift,
                    metrics={})

    def keys() -> None:
        # narrow key/sha side table: update_index's change diff reads
        # THIS instead of re-opening every (wide) docs parquet file
        st.write_dir("keys", root.keys_dir, lambda p: rd.read_parquet(
            root.docs_dir, columns=["repo", "path", "commit", "content_sha256"]
        ).write_parquet(p, min_rows_per_file=131072))

    def doc_lens() -> tuple[int, int]:
        # ONE narrow (doc_id, doc_len) scan feeds both the corpus stats and
        # the dense doc-length attribute file (mmapped at query time),
        # written sharded so no (doc_id, doc_len) pull lands on the driver
        ds_len = rd.read_parquet(root.docs_dir, columns=["doc_id", "doc_len"])
        if id_offset:
            ds_len = ds_len.map_batches(lambda b: b.set_column(
                0, "doc_id", pc.subtract(b.column("doc_id"), id_offset)
            ), batch_format="pyarrow")
        if os.path.exists(root.doc_lens_path):
            # resume with the attribute file already final: scalars only
            return int(ds_len.count()), int(ds_len.sum("doc_len") or 0)
        with st.timed("doc_lens"):
            return _write_doc_lens_sharded(ds_len, root.doc_lens_path)

    tok_ds = rd.read_parquet(
        root.docs_dir,
        columns=["doc_id", "tokens", "n_content_tokens", "shadow_tokens"],
    )
    first = [doc_lens, keys]
    if hot is None:  # the layout needs the hot terms and the doc count
        (n_docs, sum_dl), _, hot = _concurrently(
            *first, lambda: sample_hot_terms(root.docs_dir, hot_threshold_frac)
        )
        first = []
        salt_shift = 63
        if n_docs > 0 and salt_buckets > 1:
            salt_shift = max(
                0, int(n_docs).bit_length() - int(salt_buckets).bit_length()
            )
    # checkpointing the partials pays only when a stage retry is expensive
    ckpt = (checkpoint_partials if checkpoint_partials is not None
            else not first and n_docs >= 2_000_000)

    def finish(p: str, sort_keys: list[str]) -> dict:
        sizes = _compact_shard_dir(p, sort_keys)
        for s in range(n_shards):  # every shard dir exists, touched or not
            os.makedirs(os.path.join(p, f"shard={s}"), exist_ok=True)
        return sizes

    sizes: dict = {}

    def segments() -> None:
        # optionally as TWO checkpointed stages: (a) the partial posting
        # runs stream to a parquet checkpoint; (b) the (term, salt) sort +
        # run merge + sharded write reads ONLY the partials, so a crash in
        # the merge resumes without re-reading the docs. The checkpoint
        # costs one extra write+read — by default ON past 2M docs in a
        # build, OFF below and in generations and compactions.
        if "segments" in st:  # resume: the shard sizes only
            sizes.update(finish(root.segments_dir, ["term", "salt"]))
            return
        partials = tok_ds.map_batches(
            make_partial_segments(hot, salt_shift), batch_format="pyarrow",
            batch_size=max(batch_size, 1024),
        )
        if ckpt:
            st.write_dir("posting_partials", root.partials_dir,
                         lambda p: partials.write_parquet(
                             p, min_rows_per_file=16384))
            if _fail_after == "posting_partials":
                raise RuntimeError(
                    "injected failure after posting_partials stage (test hook)"
                )
            partials = rd.read_parquet(root.partials_dir)

        def write(p: str) -> None:
            partials.sort(["term", "salt"]).map_batches(
                make_segment_merger(n_shards), batch_format="pyarrow"
            ).write_parquet(p, partition_cols=["shard"])
            sizes.update(finish(p, ["term", "salt"]))

        st.write_dir("segments", root.segments_dir, write)

    def ngrams() -> None:
        # content n-gram index: the same partial -> (gram, salt) shuffle ->
        # merge shape as the term segments; doc ids only
        def write(p: str) -> None:
            rd.read_parquet(root.docs_dir, columns=["doc_id", "content"]) \
                .map_batches(make_ngram_partials(salt_shift),
                             batch_format="pyarrow", batch_size=batch_size) \
                .sort(["gram", "salt"]) \
                .map_batches(make_ngram_merger(n_shards),
                             batch_format="pyarrow") \
                .write_parquet(p, partition_cols=["shard"])
            finish(p, ["gram", "salt"])

        st.write_dir("ngrams", root.ngrams_dir, write)

    # a given layout (generation, compaction) runs every job at once
    res = _concurrently(*first, segments, *([ngrams] if ngram_index else []))
    if first:
        n_docs, sum_dl = res[0]
    # once the segments stage is done the checkpoint has served its
    # purpose; a resume after it must not ship it into the final index
    if os.path.exists(root.partials_dir):
        shutil.rmtree(root.partials_dir)
    if _fail_after == "segments":
        raise RuntimeError("injected failure after segments stage (test hook)")

    # skew / partition-size evidence (SURVEY.md §5 "Skew")
    rows = [sizes.get(s, (0, 0))[0] for s in range(n_shards)]
    return dict(
        n_docs=n_docs, sum_dl=sum_dl, hot=hot, salt_shift=salt_shift,
        metrics=dict(
            n_terms=sum(rows), max_shard_rows=max(rows),
            min_shard_rows=min(rows) if sum(rows) else 0,
            max_df=max((df for _, df in sizes.values()), default=0),
            n_hot_terms=len(hot),
        ),
    )


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _corpus_docs(corpus, batch_size: int):
    """Docs writer of a full build: guard, then dense ids in key order and
    tokenize in one Ray task per guarded block, each writing its own docs
    file (downstream stages re-read them with column pruning — content
    never moves again)."""

    def write(st: _Stages, part: str) -> None:
        ds = _as_dataset(corpus).map_batches(
            guard_batch, batch_format="pyarrow", batch_size=batch_size
        )
        with st.timed("guard_ids"):  # guard + id-assignment materialize
            blocks = assign_doc_ids(ds)
        _write_docs(blocks, batch_size, part)

    return write


def _build(out_dir: str, params: dict, fp: str, listing, write_docs, *,
           batch_size: int = 256, checkpoint_partials: bool | None = None,
           last_update: dict | None = None,
           _fail_after: str | None = None) -> IndexPaths:
    """Write a one-generation index under ``out_dir.tmp`` and rename it
    over ``out_dir``: ``write_docs(stages, part_dir)`` writes the docs
    table, the tail derives the rest. A crashed write leaves the tmp dir
    with its stage ledger; a rerun with the same fingerprint skips the
    completed stages."""
    tmp_root = out_dir + ".tmp"
    ledger = os.path.join(tmp_root, "stages.json")
    done: list[str] = []
    if os.path.exists(tmp_root):
        try:
            with open(ledger) as f:
                rec = json.load(f)
            done = rec.get("done", []) if rec.get("fingerprint") == fp else None
        except (OSError, json.JSONDecodeError):
            done = None
        if done is None:
            shutil.rmtree(tmp_root)
            done = []
    os.makedirs(tmp_root, exist_ok=True)
    tmp = IndexPaths(tmp_root)
    st = _Stages(ledger, fp, done)
    st.write_dir("docs", tmp.docs_dir, lambda p: write_docs(st, p))
    if _fail_after == "docs":
        raise RuntimeError("injected failure after docs stage (test hook)")
    tail = _write_tail(
        tmp, st, n_shards=params["n_shards"],
        ngram_index=params["ngram_index"], batch_size=batch_size,
        salt_buckets=params["salt_buckets"],
        hot_threshold_frac=params["hot_threshold_frac"],
        checkpoint_partials=checkpoint_partials, _fail_after=_fail_after,
    )
    n_docs, sum_dl = tail["n_docs"], tail["sum_dl"]
    metrics = dict(tail["metrics"], stage_sec=st.sec)
    if last_update is not None:
        metrics["last_update"] = {
            "tokenized_docs": n_docs, **last_update,
            "stage_sec": dict(last_update["stage_sec"], **st.sec),
        }
    _write_json(tmp.stats_path, dict(
        n_docs=int(n_docs), sum_dl=int(sum_dl),
        avgdl=(sum_dl / n_docs) if n_docs else 0.0,
        n_shards=params["n_shards"], salt_shift=tail["salt_shift"],
        hot_terms=sorted(tail["hot"]), has_ngrams=bool(params["ngram_index"]),
        metrics=metrics,
    ))
    _write_json(tmp.manifest_path, dict(
        fingerprint=fp, params=params, complete=True, corpus_files=listing
    ))
    if os.path.exists(ledger):
        os.remove(ledger)
    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.rename(tmp_root, out_dir)
    return IndexPaths(out_dir)


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
    fingerprint, the completed build is reused, and a crashed build resumes
    after its last completed stage. ``ngram_index=True`` additionally
    builds the content char-3-gram index that makes substring candidate
    generation complete (closes the cross-token-boundary narrowing) and
    replaces the per-query term-dictionary scan. ``checkpoint_partials``
    checkpoints the posting partials before the merge shuffle (default:
    past 2M docs).
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
    manifest = _read_manifest(paths)
    if not overwrite and manifest.get("complete") \
            and manifest.get("fingerprint") == fp:
        return paths
    return _build(out_dir, params, fp, listing,
                  _corpus_docs(corpus, batch_size), batch_size=batch_size,
                  checkpoint_partials=checkpoint_partials,
                  _fail_after=_fail_after)


def _read_manifest(paths: IndexPaths) -> dict:
    try:
        with open(paths.manifest_path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}


# ---------------------------------------------------------------------------
# Incremental update (segment append — the Lucene commit-point model)
# ---------------------------------------------------------------------------

def _parquet_files(dirs: list[str]) -> list[str]:
    return [
        os.path.join(d, f)
        for d in dirs if os.path.isdir(d)
        for f in sorted(os.listdir(d)) if f.endswith(".parquet")
    ]


#: columns tokenize_batch and the id stage add to the corpus columns, in
#: docs-table order
_DERIVED_COLS = ["content_sha256", "doc_id", "tokens", "shadow_tokens",
                 "n_content_tokens", "doc_len", "path_tokens", "is_test"]


def classify_keys(old_keys: np.ndarray, old_shas: np.ndarray,
                  new_keys: np.ndarray, new_shas: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The change diff's verdict on every (repo, path, commit) key
    (\\x00-joined, ``_triple_keys``) of the stored rows (``old_*``) and the
    guarded corpus rows (``new_*``), from the rows' content shas: same,
    added, removed or changed, or full for a key carried by several rows
    on either side (the rows would share one doc id). Returns the sorted
    keys and their statuses; a null key anywhere makes the whole verdict
    one (None, "full") pair."""
    keys = np.concatenate([old_keys, new_keys]).astype(object)
    if np.equal(keys, None).any():
        return np.array([None], object), np.array(["full"], object)
    uniq, inv = np.unique(keys, return_inverse=True)
    sides = (inv[:len(old_keys)], inv[len(old_keys):])
    n_old, n_new = (np.bincount(s, minlength=uniq.size) for s in sides)
    sha_old, sha_new = (np.full(uniq.size, None, object) for _ in sides)
    sha_old[sides[0]], sha_new[sides[1]] = old_shas, new_shas
    return uniq, np.select(
        [(n_old > 1) | (n_new > 1), n_old == 0, n_new == 0,
         sha_old == sha_new],
        ["full", "added", "removed", "same"], "changed",
    )


@ray.remote
def _block_diff_keys(table: pa.Table) -> tuple:
    """A guarded block's triple keys, their content shas and the block's
    distinct paths."""
    if not table.num_rows:
        return (np.array([], object),) * 3
    return (
        _triple_keys(table),
        table.column("content_sha256").to_numpy(zero_copy_only=False),
        pc.unique(pc.cast(table.column("path"), pa.string()))
        .to_numpy(zero_copy_only=False),
    )


def _diff(paths: IndexPaths, corpus, recorded: dict | None,
          listing: dict | None, n_docs: int, batch_size: int):
    """The update's change diff: guard the corpus rows that can have
    changed, pull their narrow keys with one Ray task per guarded block,
    and classify them against the stored key side table on the driver
    (``classify_keys``).

    When the manifest's per-file (size, mtime_ns) records show every
    recorded corpus file unchanged, only the new files are guarded and
    every stored key survives: only the stored key rows whose path occurs
    among the new rows are read, and they count on the corpus side too
    (their unchanged files still hold them), so a new row of a stored
    triple is a duplicate. Otherwise the whole corpus is guarded and the
    whole key table is read.

    Returns the sorted keys of each status but same, the stored keys read,
    the guarded blocks as (ref, triple keys) pairs and the number of corpus
    rows guarded. When the keys to pull would exceed DRIVER_KEY_SORT_MAX,
    nothing is guarded or read and the verdict is full.
    """
    append = listing is not None and recorded is not None and all(
        listing.get(f) == sig for f, sig in recorded.items()
    )
    if append:
        files = sorted(set(listing) - set(recorded))
        src = rd.read_parquet([os.path.join(corpus, f) for f in files]) \
            if files else None
    else:
        src = _as_dataset(corpus)
    # a parquet source counts its rows from the footers, reading no data
    n_new = src.count() if src is not None else 0
    if n_new + (0 if append else n_docs) > DRIVER_KEY_SORT_MAX:
        return {"full": np.array([], object)}, np.array([], object), [], 0
    refs = src.map_batches(
        guard_batch, batch_format="pyarrow", batch_size=max(batch_size, 4096)
    ).materialize().to_arrow_refs() if n_new else []
    pulled = ray.get([_block_diff_keys.remote(r) for r in refs])

    def cat(i: int) -> np.ndarray:
        return np.concatenate([np.array([], object), *(p[i] for p in pulled)])

    new_keys, new_shas = cat(0), cat(1)
    old_keys = old_shas = np.array([], object)
    key_files = _parquet_files(paths.keys_dirs())
    if key_files and (new_keys.size or not append):
        old = pads.dataset(key_files).to_table(
            columns=["repo", "path", "commit", "content_sha256"],
            filter=(pc.field("path").isin(pa.array(cat(2), pa.string()))
                    if append else None),
        )
        old_keys = _triple_keys(old)
        old_shas = old.column("content_sha256").to_numpy(zero_copy_only=False)
    if append:
        new_keys = np.concatenate([new_keys, old_keys])
        new_shas = np.concatenate([new_shas, old_shas])
    keys, status = classify_keys(old_keys, old_shas, new_keys, new_shas)
    by_status = {s: keys[status == s] for s in set(status) - {"same"}}
    return (by_status, old_keys, [(r, p[0]) for r, p in zip(refs, pulled)],
            n_new)


def update_index(corpus, out_dir: str, *, batch_size: int = 256,
                 _retries: int = 4,
                 _fail_after: str | None = None) -> IndexPaths:
    """Incrementally update an existing index to match ``corpus``.

    The reference has no persistent index (probe re-scans per query); this
    is the engine's own index-maintenance path. A change diff (``_diff``)
    classifies every (repo, path, commit) key as same, added, changed or
    removed, and the update takes one of three paths, recorded as ``mode``
    in ``stats.json["metrics"]["last_update"]`` with ``reused_docs``,
    ``tokenized_docs``, ``guarded_docs`` (the corpus rows the diff guarded)
    and ``stage_sec`` (diff included):

    - **append** (added keys only — the full doc identity triple, so a new
      commit of an existing path is an addition even when its content sha
      is unchanged): the new docs are tokenized from the diff's guarded
      blocks and committed as a new GENERATION ``updates/gen-K/`` holding
      their docs files, one
      compacted posting-segment file per shard (same term-hash shards and
      hot-term salt scheme as the base build), a doc_lens slice, a key
      side table and a full stats.json snapshot; ngram-indexed builds
      append a gram-segment generation the same way. The atomic
      ``gen-K.tmp -> gen-K`` rename is the commit point — a crash before
      it leaves the index exactly as it was (the stale .tmp is swept on
      the next update), a crash after it is a completed update (the base
      manifest fingerprint is repaired idempotently on the next call).
      Every query-path reader already merges multiple segment rows per
      (term, salt), so generations need no read-side migration.
      Doc ids of the added files continue from n_docs in key order WITHIN
      the generation — segment-append order, like Lucene doc ids.
      DEVIATION (documented, append generations only): a fresh build of
      the same corpus interleaves ids globally, so score-TIE ordering can
      differ from it; scores and result sets are identical.
    - **renumber** (any changed or removed key): a one-generation rebuild
      whose docs table is the stored rows of every unchanged key (all
      generations) plus the corpus rows of the changed and added keys,
      which alone are guarded and tokenized. Doc ids are reassigned from
      the sorted key list exactly as ``assign_doc_ids`` does, so ids,
      stats and every score equal a fresh build's. It commits like
      ``build_index`` (``out_dir.tmp -> out_dir`` rename, resumable stage
      ledger): a crash before the rename leaves the old index serving.
    - **full** ``build_index`` from the corpus: no or incomplete manifest,
      a docs schema version mismatch, no key side table, null keys, a
      triple carried by several rows, corpus columns that differ from the
      stored docs', or more keys than the driver sorts
      (``DRIVER_KEY_SORT_MAX``).
    """
    paths = IndexPaths(out_dir)
    manifest = _read_manifest(paths)
    complete = bool(manifest.get("complete"))
    stats = paths.stats() if complete else {}
    old = manifest.get("params", {})
    # every knob of the original build carries over (dropping ngram_index
    # would silently lose the substring index)
    params = dict(
        n_shards=int(old.get("n_shards", stats.get("n_shards", 16))),
        salt_buckets=int(old.get("salt_buckets", 8)),
        hot_threshold_frac=float(old.get("hot_threshold_frac", 0.05)),
        ngram_index=bool(old.get("ngram_index", stats.get("has_ngrams"))),
        schema_version=DOCS_SCHEMA_VERSION,
    )
    fp = _fingerprint(corpus, params)
    listing = _corpus_listing(corpus)  # same moment as the fingerprint
    if complete and manifest.get("fingerprint") == fp:
        return paths  # already at this corpus

    st = _Stages()  # this update's stage times, the diff's included
    guarded = 0  # corpus rows the diff guarded

    def rebuild(write_docs, **last_update) -> IndexPaths:
        return _build(out_dir, params, fp, listing, write_docs,
                      batch_size=batch_size, _fail_after=_fail_after,
                      last_update=dict(last_update, guarded_docs=guarded,
                                       stage_sec=st.sec))

    def full() -> IndexPaths:
        return rebuild(_corpus_docs(corpus, batch_size), mode="full",
                       reused_docs=0)

    if not complete or old.get("schema_version") != DOCS_SCHEMA_VERSION \
            or not all(os.path.isdir(d) for d in paths.keys_dirs()):
        return full()

    # sweep stale uncommitted generations (crash leftovers)
    if os.path.isdir(paths.updates_dir):
        for g in os.listdir(paths.updates_dir):
            if g.endswith(".tmp"):
                shutil.rmtree(os.path.join(paths.updates_dir, g))

    with st.timed("diff"):
        by_status, old_keys, blocks, guarded = _diff(
            paths, corpus, manifest.get("corpus_files"), listing,
            int(stats["n_docs"]), batch_size,
        )
    if set(by_status) - {"added"}:
        del blocks  # only an append writes from the guarded blocks
        if "full" in by_status:
            return full()
        return _renumber(paths, _as_dataset(corpus), old_keys, by_status,
                         rebuild, full, batch_size)

    def commit_manifest() -> None:
        # the updates history is DERIVED from the committed generations on
        # disk (each gen's stats snapshot records its own added count), so
        # a crash between the gen rename and this write, or a no-op repair
        # call, can never record a phantom or miss a real generation
        manifest["fingerprint"] = fp
        # per-file corpus records let the NEXT update guard only new files
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
        _write_json(tmp_m, manifest)
        os.replace(tmp_m, paths.manifest_path)

    gen_k = len(paths.update_gens())
    if "added" not in by_status:
        # pure fingerprint repair (e.g. crash between gen commit and
        # manifest write, or a no-op corpus touch)
        commit_manifest()
        return paths

    # -- build the generation under updates/gen-K.tmp ---------------------
    gen_final = os.path.join(paths.updates_dir, f"gen-{gen_k}")
    gen_tmp = IndexPaths(gen_final + ".tmp")
    os.makedirs(gen_tmp.root)
    offset = int(stats["n_docs"])
    # the added rows of the guarded blocks, numbered from n_docs in key
    # order; a block without one writes no file
    keys = [k for _, k in blocks]
    ids = _dense_ids(keys, _member(by_status["added"], np.concatenate(
        [np.array([], object), *keys])), first=offset)
    st.write_dir("docs", gen_tmp.docs_dir, lambda p: _write_docs(
        [(r, i) for (r, _), i in zip(blocks, ids) if (i >= 0).any()],
        batch_size, p,
    ))
    tail = _write_tail(
        gen_tmp, st, n_shards=int(stats["n_shards"]),
        ngram_index=bool(stats.get("has_ngrams")), batch_size=batch_size,
        hot=set(stats.get("hot_terms", [])),
        salt_shift=int(stats["salt_shift"]), id_offset=offset,
    )
    m_docs = tail["n_docs"]
    n_docs = offset + m_docs
    sum_dl = int(stats["sum_dl"]) + tail["sum_dl"]
    _write_json(os.path.join(gen_tmp.root, "stats.json"), dict(
        stats,
        n_docs=int(n_docs),
        sum_dl=int(sum_dl),
        avgdl=(sum_dl / n_docs) if n_docs else 0.0,
        metrics=dict(
            stats.get("metrics", {}),
            last_update=dict(gen=gen_k, added=m_docs, mode="append",
                             reused_docs=offset, tokenized_docs=m_docs,
                             guarded_docs=guarded, stage_sec=st.sec),
        ),
    ))

    # COMMIT — the rename itself is the race arbiter (first-rename-wins,
    # the documented /tmp-store pattern): a concurrent updater that
    # committed the same generation number first makes this rename fail,
    # and our generation is stale by definition (it diffed against a
    # pre-commit corpus), so discard it and re-run against the new state.
    # The retry is BOUNDED: a rename failure where gen_final does NOT
    # exist is not a lost race but a real filesystem error (EACCES, EXDEV,
    # ...) and must surface, not loop; repeated genuine races are capped.
    try:
        os.rename(gen_tmp.root, gen_final)
    except OSError:
        shutil.rmtree(gen_tmp.root, ignore_errors=True)
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


def _renumber(paths: IndexPaths, src_ds, old_keys: np.ndarray,
              by_status: dict[str, np.ndarray], rebuild, full,
              batch_size: int) -> IndexPaths:
    """The renumbering rebuild of ``update_index``: the stored docs rows of
    unchanged keys plus the guarded, tokenized corpus rows of changed and
    added keys, with doc ids reassigned from the sorted key list. Only
    keys reach the driver: the diff's stored keys and its statuses."""
    none = np.array([], object)
    dropped = np.sort(np.concatenate(
        [by_status.get("changed", none), by_status.get("removed", none)]
    ))
    picked = np.sort(np.concatenate(
        [by_status.get("changed", none), by_status.get("added", none)]
    ))
    docs_files = _parquet_files(paths.docs_paths())
    if docs_files:
        # the reused rows and the fresh rows go into one docs table: a
        # corpus whose columns changed needs the full build
        docs_schema = pq.read_schema(docs_files[0])
        want = list(src_ds.schema().names) + _DERIVED_COLS
        if any(pq.read_schema(f).names != want for f in docs_files):
            return full()
    kept = ~_member(dropped, old_keys)
    keys_ref = ray.put(np.sort(np.concatenate([old_keys[kept], picked])))
    dropped_ref, picked_ref = ray.put(dropped), ray.put(picked)

    def write_docs(st: _Stages, part: str) -> None:
        parts = []
        if kept.any():
            parts.append(
                rd.read_parquet(docs_files)
                .map_batches(_filter_keys(dropped_ref, keep_members=False),
                             batch_format="pyarrow")
                .map_batches(_set_doc_ids(keys_ref), batch_format="pyarrow")
            )
        if picked.size:
            parts.append(
                src_ds
                .map_batches(_filter_keys(picked_ref), batch_format="pyarrow")
                .map_batches(guard_batch, batch_format="pyarrow",
                             batch_size=batch_size)
                .map_batches(_set_doc_ids(keys_ref), batch_format="pyarrow")
                .map_batches(tokenize_batch, batch_format="pyarrow",
                             batch_size=batch_size)
            )
        if not parts:
            return
        ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
        if docs_files:  # one schema for every written file
            ds = ds.map_batches(lambda b: b.cast(docs_schema),
                                batch_format="pyarrow")
        ds.write_parquet(part, min_rows_per_file=8192)

    return rebuild(write_docs, mode="renumber", reused_docs=int(kept.sum()),
                   tokenized_docs=int(picked.size))


def compact_index(index_dir: str, out_dir: str, *, batch_size: int = 1024) -> IndexPaths:
    """Merge an index's update generations back into a single-generation
    index at ``out_dir`` (the background segment-merge step of the Lucene
    model, run when accumulated generations make shard fragment counts
    noticeable).

    Much cheaper than a rebuild from the corpus: the stored docs tables
    (tokens included — the expensive tokenize stage is NOT re-run) go
    through the same docs -> index tail as a build; doc ids and stats are
    carried over as-is. ``out_dir`` must be a fresh directory — the caller
    swaps it over the old index (one directory rename), which keeps the
    commit trivially atomic and lets the old index serve queries during
    the compaction.
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
    for k, f in enumerate(_parquet_files(src.docs_paths())):
        shutil.copy2(f, os.path.join(dst.docs_dir, f"compact-{k:06d}.parquet"))

    # everything else re-derives from the stored docs (tokens included —
    # the expensive tokenize stage is NOT re-run) in the base's layout
    _write_tail(
        dst, _Stages(), n_shards=n_shards,
        ngram_index=bool(stats.get("has_ngrams")), batch_size=batch_size,
        hot=set(stats.get("hot_terms", [])),
        salt_shift=int(stats["salt_shift"]),
    )
    _write_json(dst.stats_path, dict(
        stats,
        metrics=dict(
            stats.get("metrics", {}), compacted_gens=len(src.update_gens())
        ),
    ))
    _write_json(dst.manifest_path, _read_manifest(src) or {"complete": True})
    os.rename(tmp_root, out_dir)
    return IndexPaths(out_dir)
