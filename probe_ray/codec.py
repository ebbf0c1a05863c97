"""Posting-list codec: delta + varint encoded doc-id gaps with skip blocks
and per-block max-impact scores.

The reference has no persistent index (probe is scan-based); this codec is
the engine's own scale path (SURVEY.md §7.1 step 5 / BASELINE.json
north_star: "delta-encoded, varint-compressed posting lists with skip blocks
and per-block max-impact scores").

Layout per term:
  blob:        varint stream of doc-id gaps (first value = first doc_id,
               then deltas), one tf byte after each gap (tf fits u8: probe's
               deduplicated token vectors make tf ∈ {1, 2, 3}).
  skip:        one (last_doc_id: uint64, byte_offset: uint64) pair per
               128-entry block, little-endian, enabling block skipping.
  block_max:   float32 per block = max over the block of
               tf/(tf+k1) * idf-free upper bound is query-dependent, so we
               store max tf-normalized impact proxy (max tf) and compute the
               true bound at query time with the global idf.

All functions are numpy-vectorized; encode/decode round-trip is tested on
block-boundary cases (1, 127, 128, 129, 10^6 ids).
"""

from __future__ import annotations

import numpy as np

BLOCK = 128


def _varint_encode_fast(values: np.ndarray) -> bytes:
    """Vectorized varint encode: compute per-value byte width, fill a byte
    matrix, mask, and compact."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    widths = np.ones(v.size, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        widths += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    maxw = int(widths.max())
    mat = np.zeros((v.size, maxw), dtype=np.uint8)
    work = v.copy()
    for col in range(maxw):
        mat[:, col] = (work & np.uint64(0x7F)).astype(np.uint8)
        work >>= np.uint64(7)
    # set continuation bits for all but the last byte of each value
    cols = np.arange(maxw)
    cont = cols[None, :] < (widths[:, None] - 1)
    mat[cont] |= 0x80
    keep = cols[None, :] < widths[:, None]
    return mat[keep].tobytes()


def _varint_decode_fast(buf: bytes) -> np.ndarray:
    """Vectorized varint decode of the whole stream."""
    if not buf:
        return np.empty(0, dtype=np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    is_end = (raw & 0x80) == 0
    ends = np.flatnonzero(is_end)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    payload = (raw & 0x7F).astype(np.uint64)
    values = np.zeros(ends.size, dtype=np.uint64)
    widths = ends - starts + 1
    maxw = int(widths.max())
    for col in range(maxw):
        mask = widths > col
        values[mask] |= payload[starts[mask] + col] << np.uint64(7 * col)
    return values


def _encode_small(doc_ids, tfs) -> tuple[bytes, bytes, bytes]:
    """Pure-python path for short lists (numpy call overhead dominates
    below ~32 postings — and most per-batch partial runs are short)."""
    ids = [int(x) for x in doc_ids]
    gaps = [ids[0]] + [ids[i] - ids[i - 1] for i in range(1, len(ids))]
    out = bytearray()
    for v in gaps:
        while True:
            b = v & 0x7F
            v >>= 7
            if v:
                out.append(b | 0x80)
            else:
                out.append(b)
                break
    gap_stream = bytes(out)
    tf_list = [int(t) for t in tfs]
    blob = len(gap_stream).to_bytes(8, "little") + gap_stream + bytes(tf_list)
    skip = ids[-1].to_bytes(8, "little") + (0).to_bytes(8, "little")
    # block_max stores the max UNPACKED tf (content nibble + path nibble):
    # the impact upper bound for MaxScore/Block-Max pruning
    bmax = bytes([max((t & 0xF) + (t >> 4) for t in tf_list)])
    return blob, skip, bmax


def encode_postings(doc_ids: np.ndarray, tfs: np.ndarray) -> tuple[bytes, bytes, bytes]:
    """Encode a doc-id-sorted posting list.

    Returns (blob, skip, block_max_tf):
      blob  = varint(gaps) stream followed by the tf byte array
              (layout: 8-byte little-endian gap-stream length prefix,
              gap stream, tf bytes)
      skip  = per-block (last_doc_id u64, gap_byte_offset u64) pairs
      block_max_tf = uint8 per block (max tf in block)
    """
    if len(doc_ids) and len(doc_ids) <= 32:
        return _encode_small(doc_ids, tfs)
    doc_ids = np.asarray(doc_ids, dtype=np.uint64)
    tfs = np.asarray(tfs, dtype=np.uint8)
    assert doc_ids.size == tfs.size
    gaps = np.empty_like(doc_ids)
    if doc_ids.size:
        gaps[0] = doc_ids[0]
        np.subtract(doc_ids[1:], doc_ids[:-1], out=gaps[1:])
    gap_stream = _varint_encode_fast(gaps)
    blob = len(gap_stream).to_bytes(8, "little") + gap_stream + tfs.tobytes()

    n = doc_ids.size
    nblocks = (n + BLOCK - 1) // BLOCK
    skip = np.empty(nblocks * 2, dtype=np.uint64)
    bmax = np.empty(nblocks, dtype=np.uint8)
    # byte offset of each block start within the gap stream: recompute widths
    v = gaps
    widths = np.ones(n, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        widths += (tmp > 0).astype(np.int64)
        tmp >>= np.uint64(7)
    cum = np.concatenate([[0], np.cumsum(widths)])
    unpacked = (tfs & 0xF) + (tfs >> 4)  # max UNPACKED tf per block
    for b in range(nblocks):
        lo, hi = b * BLOCK, min((b + 1) * BLOCK, n)
        skip[2 * b] = doc_ids[hi - 1]
        skip[2 * b + 1] = np.uint64(cum[lo])
        bmax[b] = unpacked[lo:hi].max(initial=0)
    return blob, skip.tobytes(), bmax.tobytes()


def decode_postings(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode a blob back to (doc_ids, tfs)."""
    glen = int.from_bytes(blob[:8], "little")
    if glen <= 64:  # short-list fast path (python beats numpy setup here)
        ids, acc, i = [], 0, 8
        end = 8 + glen
        while i < end:
            v, shift = 0, 0
            while True:
                b = blob[i]
                i += 1
                v |= (b & 0x7F) << shift
                if not (b & 0x80):
                    break
                shift += 7
            acc += v
            ids.append(acc)
        return (
            np.array(ids, dtype=np.uint64),
            np.frombuffer(blob[end:], dtype=np.uint8),
        )
    gaps = _varint_decode_fast(blob[8 : 8 + glen])
    tfs = np.frombuffer(blob[8 + glen :], dtype=np.uint8)
    doc_ids = np.cumsum(gaps, dtype=np.uint64)
    return doc_ids, tfs


def decode_postings_selective(
    blob: bytes, skip: bytes, want: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode ONLY the 128-entry blocks that can contain ids in ``want``
    (sorted), using the skip pairs (last_doc_id, gap_byte_offset). The
    delta chain restarts cleanly at block boundaries because block b's
    first gap is a delta from block b-1's last id — which the skip stores.

    Returns (doc_ids, tfs) for the selected blocks (a superset of the
    wanted ids actually present). This is the skip-pointer read path of
    MaxScore's probe phase: for k accumulated candidates at most k blocks
    decode instead of the whole (possibly corpus-sized) posting list.
    """
    if not blob or want.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8)
    glen = int.from_bytes(blob[:8], "little")
    sk = np.frombuffer(skip, dtype=np.uint64).reshape(-1, 2)
    last_ids = sk[:, 0]
    offs = sk[:, 1]
    nb = last_ids.size
    # block index per wanted id: first block whose last_id >= id
    bidx = np.searchsorted(last_ids, np.asarray(want, dtype=np.uint64))
    bsel = np.unique(bidx[bidx < nb])
    if bsel.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint8)
    ids_parts, tf_parts = [], []
    tf_base = 8 + glen
    for b in bsel:
        start = 8 + int(offs[b])
        end = 8 + (int(offs[b + 1]) if b + 1 < nb else glen)
        gaps = _varint_decode_fast(blob[start:end])
        base = last_ids[b - 1] if b > 0 else np.uint64(0)
        ids = base + np.cumsum(gaps, dtype=np.uint64)
        tfs = np.frombuffer(
            blob[tf_base + int(b) * BLOCK : tf_base + int(b) * BLOCK + ids.size],
            dtype=np.uint8,
        )
        ids_parts.append(ids)
        tf_parts.append(tfs)
    return np.concatenate(ids_parts), np.concatenate(tf_parts)


def merge_encoded(blobs: list[bytes]) -> tuple[bytes, bytes, bytes]:
    """Merge several encoded doc-id-sorted sub-blobs of the SAME term into
    one list (decode, sort, one encode). Sub-lists must be disjoint. The
    index build merges raw id lists before its one encode instead
    (build._merge_runs)."""
    ids_list, tf_list = zip(*(decode_postings(b) for b in blobs))
    ids = np.concatenate(ids_list)
    tfs = np.concatenate(tf_list)
    order = np.argsort(ids, kind="stable")
    return encode_postings(ids[order], tfs[order])
