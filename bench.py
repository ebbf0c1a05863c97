"""Benchmark harness.

Default: runs the headline pipelines over $GRAFT_SF_DIR (default: SF_DIR
below) with ray.init(num_cpus=$RAY_GRAFT_CPUS or the host's CPU count) and
prints ONE JSON line:
  {"metric": ..., "value": total_sec, "unit": "sec", "queries": {...},
   "sf": ..., "num_cpus": N}

--scaling: runs the same headline build twice in FRESH processes at
num_cpus=8 and num_cpus=32 on identical input and reports both throughputs
plus scaling efficiency = (T_8 / T_32) / 4 (1.0 = linear).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count())
BENCH_CORPUS = os.path.join(tempfile.gettempdir(), "probe_ray_bench_corpus")
BENCH_SIZE = os.environ.get("PROBE_RAY_BENCH_SIZE", "bench")  # 32,768 files
BENCH_SEED = 42
BENCH_INDEX = os.path.join(tempfile.gettempdir(), "probe_ray_bench_index")


def _quiet_ray():
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _marker(d: str) -> str:
    """Path of the marker that says ``d`` holds a complete bench corpus. Its
    name hashes the generator's source, the size and the seed, so a change
    to any of them regenerates the corpus."""
    from probe_ray import corpus

    with open(corpus.__file__, "rb") as f:
        h = hashlib.md5(f.read() + f":{BENCH_SIZE}:{BENCH_SEED}".encode())
    return os.path.join(d, f".complete_{h.hexdigest()[:16]}")


def _ensure_bench_corpus() -> tuple[str, int]:
    """Deterministic synthetic code corpus (probe_ray.corpus at BENCH_SEED),
    written once as multi-file parquet so the read parallelizes."""
    from probe_ray.corpus import SIZES, write_corpus

    n_repos, fpr = SIZES[BENCH_SIZE]
    n_files = n_repos * fpr
    if not os.path.exists(_marker(BENCH_CORPUS)):
        import shutil

        if os.path.exists(BENCH_CORPUS):
            shutil.rmtree(BENCH_CORPUS)
        write_corpus(BENCH_CORPUS, BENCH_SIZE, seed=BENCH_SEED, num_files=64)
        open(_marker(BENCH_CORPUS), "w").close()
    return BENCH_CORPUS, n_files


def run_bench() -> dict:
    _quiet_ray()
    import ray

    from probe_ray.build import build_index
    from probe_ray.search import Engine

    results: dict[str, float] = {}
    t_total = time.time()

    # 1) headline: index build over the synthetic code corpus
    corpus_dir, n_files = _ensure_bench_corpus()
    # warm-up: spin up worker processes + page cache so the timed run
    # measures compute + shuffle, not process startup / first disk read
    import ray.data as rd

    rd.read_parquet(corpus_dir).map_batches(
        lambda b: b.slice(0, 1), batch_format="pyarrow"
    ).count()
    t0 = time.time()
    paths = build_index(corpus_dir, BENCH_INDEX, overwrite=True)
    build_sec = time.time() - t0
    results["index_build_sec"] = round(build_sec, 3)
    results["index_build_files_per_sec"] = round(n_files / build_sec, 1)
    # per-stage wall: separates the map-dominated stages (guard/ids,
    # tokenize+write) from the shuffle-dominated segments stage — the
    # scaling-efficiency evidence (BASELINE.md)
    results["stage_sec"] = paths.stats().get("metrics", {}).get("stage_sec", {})

    if os.environ.get("PROBE_RAY_BENCH_ONLY") == "build":
        ray.shutdown()
        return {
            "metric": "index-build throughput (files/sec)",
            "value": round(build_sec, 3),
            "unit": "sec",
            "queries": results,
            "sf": SF_DIR,
            "num_cpus": NUM_CPUS,
        }

    # 2) query latency per class (compat = rank-identical path; repeated for
    #    a stable median)
    engine = Engine(paths)
    query_classes = {
        "q_exact_term": (["keywordAlpha"], {}),
        "q_and_or": (["(keywordAlpha OR keywordBeta) AND keywordGamma"], {}),
        "q_identifier": (["migrateEndpointMetaByType"], {}),
        "q_quoted_exact": (['"cleanupScopeMappings"'], {}),
    }
    for name, (qs, opts) in query_classes.items():
        times = []
        for _ in range(3):
            t0 = time.time()
            engine.search(qs, max_results=10, **opts)
            times.append(time.time() - t0)
        results[name + "_p50"] = round(sorted(times)[1], 3)
    t0 = time.time()
    engine.search(["keywordAlpha keywordBeta"], mode="global", max_results=10)
    results["q_global_topk"] = round(time.time() - t0, 3)

    # block-granularity search (the reference's real output unit); p50 of 3
    # like the other classes (first call also pays worker import). Since
    # round 4 the default limited path early-terminates above 5000 matched
    # docs (search_runner.rs:892-1208 parity) — the full-extraction compat
    # number is kept as its own series below.
    times = []
    for _ in range(3):
        t0 = time.time()
        engine.search_blocks(["keywordAlpha OR keywordBeta"], max_results=10)
        times.append(time.time() - t0)
    results["q_blocks_topk_p50"] = round(sorted(times)[1], 3)

    times = []
    for _ in range(3):
        t0 = time.time()
        engine.search_blocks(
            ["keywordAlpha OR keywordBeta"], max_results=10,
            early_termination=False,
        )
        times.append(time.time() - t0)
    results["q_blocks_full_topk_p50"] = round(sorted(times)[1], 3)

    # block GLOBAL mode (the scale path: MaxScore-pruned candidate docs,
    # only those block-extracted — approximate vs compat's candidate-set
    # statistics)
    times = []
    for _ in range(3):
        t0 = time.time()
        engine.search_blocks(
            ["keywordAlpha OR keywordBeta"], max_results=10, mode="global"
        )
        times.append(time.time() - t0)
    results["q_blocks_global_topk_p50"] = round(sorted(times)[1], 3)

    # forced-distributed compat ranking (the >LOCAL_DOCS_MAX branch a
    # 10^12-doc corpus takes): wide-OR latency through the scale path
    eng_dist = Engine(paths)
    eng_dist.LOCAL_DOCS_MAX = 0
    eng_dist.LOCAL_CAND_MAX = 0
    eng_dist.LOCAL_FEATS_MAX = 0
    # p50 of 3 like the other query classes (single-shot measured mostly
    # worker-import cold-start: 4.8s cold vs 2.4s warm on the round-4 host)
    times = []
    for _ in range(3):
        t0 = time.time()
        eng_dist.search(
            ["keywordAlpha OR keywordBeta OR keywordGamma"], max_results=10
        )
        times.append(time.time() - t0)
    results["q_wide_or_forced_distributed"] = round(sorted(times)[1], 3)

    # ngram-index engine: substring/quoted candidate generation vs the
    # dictionary-scan path (VERDICT item 3 comparison)
    t0 = time.time()
    paths_ng = build_index(
        corpus_dir, BENCH_INDEX + "_ng", overwrite=True,
        ngram_index=True,
    )
    results["index_build_with_ngram_sec"] = round(time.time() - t0, 3)
    eng_ng = Engine(paths_ng)
    for label, q in (
        ("q_quoted_exact", '"cleanupScopeMappings"'),
        ("q_substring_fragment", "dalpha"),
    ):
        for eng_v, suffix in ((engine, "_dictscan"), (eng_ng, "_ngram")):
            times = []
            for _ in range(3):
                t0 = time.time()
                eng_v.search([q], max_results=10)
                times.append(time.time() - t0)
            results[label + suffix + "_p50"] = round(sorted(times)[1], 3)

    # incremental update: +5% new files over the built index (segment
    # append) vs the full-rebuild figure in index_build_sec
    import hashlib as _hl

    import pyarrow as _pa
    import pyarrow.parquet as _pq

    aug_dir = BENCH_CORPUS + "_aug"
    if not os.path.exists(_marker(aug_dir)):
        import shutil

        if os.path.exists(aug_dir):
            shutil.rmtree(aug_dir)
        os.makedirs(aug_dir)
        for f in os.listdir(BENCH_CORPUS):
            if f.endswith(".parquet"):
                os.symlink(
                    os.path.join(BENCH_CORPUS, f), os.path.join(aug_dir, f)
                )
        n_new = max(64, n_files // 20)
        commit = _hl.sha1(b"bench-update").hexdigest()
        _pq.write_table(
            _pa.Table.from_pylist([
                dict(
                    repo="org9/updates", path=f"src/new{i}.rs",
                    commit=commit, lang="rust",
                    content=(
                        f"pub fn added{i}() {{\n"
                        "    let v = keywordAlpha;\n"
                        "    respond(v);\n"
                        "}\n"
                    ),
                )
                for i in range(n_new)
            ]),
            os.path.join(aug_dir, "zz_update.parquet"),
        )
        open(_marker(aug_dir), "w").close()
    from probe_ray.build import update_index

    t0 = time.time()
    update_index(aug_dir, BENCH_INDEX)
    results["index_update_5pct_sec"] = round(time.time() - t0, 3)

    # changed-file update: ~1% of the files edited in place (a renumbering
    # rebuild: only the edited files are re-tokenized) on top of the above
    chg_dir = BENCH_CORPUS + "_chg"
    if not os.path.exists(_marker(chg_dir)):
        import shutil

        if os.path.exists(chg_dir):
            shutil.rmtree(chg_dir)
        os.makedirs(chg_dir)
        parts = sorted(f for f in os.listdir(aug_dir) if f.endswith(".parquet"))
        for f in parts[1:]:
            os.symlink(os.path.realpath(os.path.join(aug_dir, f)),
                       os.path.join(chg_dir, f))
        tbl = _pq.read_table(os.path.join(aug_dir, parts[0]))
        content = tbl.column("content").to_pylist()
        for i in range(min(max(1, n_files // 100), len(content))):
            content[i] += "// changed\n"
        _pq.write_table(
            tbl.set_column(tbl.schema.get_field_index("content"), "content",
                           _pa.array(content, _pa.string())),
            os.path.join(chg_dir, parts[0]),
        )
        open(_marker(chg_dir), "w").close()
    t0 = time.time()
    update_index(chg_dir, BENCH_INDEX)
    results["index_update_change_1pct_sec"] = round(time.time() - t0, 3)

    # 3) documents-table pipelines at $GRAFT_SF_DIR
    from probe_ray import textops as T

    t0 = time.time()
    T.bm25_topk(SF_DIR)
    results["docs_bm25_topk"] = round(time.time() - t0, 3)
    t0 = time.time()
    T.minhash_lsh_dedup(SF_DIR)
    results["docs_minhash_dedup"] = round(time.time() - t0, 3)
    t0 = time.time()
    T.knn_cosine(SF_DIR)
    results["docs_knn_cosine"] = round(time.time() - t0, 3)
    t0 = time.time()
    T.dup_ngram_fraction(SF_DIR).count()
    results["docs_dup_ngram_fraction"] = round(time.time() - t0, 3)
    # cleaning-stage throughput (round-4 ops): fully-vectorized RE2
    # redaction and the C4 line filter over the documents table
    t0 = time.time()
    T.pii_redact(SF_DIR).count()
    results["docs_pii_redact"] = round(time.time() - t0, 3)
    t0 = time.time()
    T.c4_line_filter(SF_DIR).count()
    results["docs_c4_line_filter"] = round(time.time() - t0, 3)
    # round-5 headline ops: connected-components cluster assignment and
    # the banded-Hamming simhash near-dup sweep
    t0 = time.time()
    T.dedup_clusters(SF_DIR).count()
    results["docs_dedup_clusters"] = round(time.time() - t0, 3)
    t0 = time.time()
    T.simhash_near_dup(SF_DIR).count()
    results["docs_simhash_near_dup"] = round(time.time() - t0, 3)

    total = time.time() - t_total
    ray.shutdown()
    return {
        "metric": "index-build throughput (files/sec) + query latency (sec)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": results,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
    }


def run_scaling():
    def run(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            # bigger corpus for the scaling criterion so per-file compute
            # dominates fixed overheads at both parallelism levels
            PROBE_RAY_BENCH_SIZE=os.environ.get("PROBE_RAY_SCALING_SIZE", "bench16x"),
            PROBE_RAY_BENCH_ONLY="build",
        )
        out = subprocess.run(
            [sys.executable, "bench.py"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # each subprocess generates/warms the corpus itself before its timed
    # build (generation + first disk read are outside the timer).
    # Default levels 4 -> 16 CPUs (N and 4N): at 32 CPUs a single node's
    # shared memory bandwidth caps the shuffle stages, which a multi-node
    # cluster (each node bringing its own bandwidth/disks) does not —
    # both pairs are reported in BASELINE.md.
    lo = int(os.environ.get("PROBE_RAY_SCALING_LO", "4"))
    hi = int(os.environ.get("PROBE_RAY_SCALING_HI", "16"))
    r_lo, r_hi = run(lo), run(hi)
    t_lo = r_lo["queries"]["index_build_sec"]
    t_hi = r_hi["queries"]["index_build_sec"]
    eff = (t_lo / t_hi) / (hi / lo)
    print(
        json.dumps(
            {
                "metric": f"index-build scaling efficiency ({lo} -> {hi} cpus)",
                "value": round(eff, 3),
                "unit": "efficiency",
                f"sec_{lo}": t_lo,
                f"sec_{hi}": t_hi,
                f"files_per_sec_{lo}": r_lo["queries"]["index_build_files_per_sec"],
                f"files_per_sec_{hi}": r_hi["queries"]["index_build_files_per_sec"],
                f"stage_sec_{lo}": r_lo["queries"].get("stage_sec", {}),
                f"stage_sec_{hi}": r_hi["queries"].get("stage_sec", {}),
                "scaling_levels": [lo, hi],
                "sf": SF_DIR,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
