"""probe-ray benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md): index_write, query, docs_pipelines. Every run
starts from nothing in a fresh work directory under the checkout, starts
Ray once with a fixed CPU count, times whole
rounds of the workload's operations for at least ``--seconds``, checks
every output against a computation made apart from the engine, and prints
one JSON result line last. With ``--trace 1`` the same work runs with span
wrappers installed (bench_trace.py) and the per-layer metrics are printed
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RAY_CPUS = 2  # below the host's 4 cores: the client and Ray's own daemons need the rest
RUN_MARK = "PERFBENCH_RUN_ID"
OBJECT_STORE_BYTES = 512 << 20
# Ray's longest socket path is <temp dir>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, and AF_UNIX paths end at 107 bytes
RAY_TEMP_DIR_MAX = 107 - len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")
# Ray's settings the run depends on, whatever the caller's environment holds
RAY_ENV = {
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
    "RAY_DISABLE_IMPORT_WARNING": "1",
    "RAY_DEDUP_LOGS": "0",
    # the memory monitor would kill tasks by the whole host's memory use
    "RAY_memory_monitor_refresh_ms": "0",
    "OMP_NUM_THREADS": "1",
}
TEXTOPS = ["bm25_topk", "minhash_lsh_dedup", "dedup_clusters", "simhash_near_dup",
           "dup_ngram_fraction", "knn_cosine", "pii_redact", "c4_line_filter"]
SQL_CHECKED = ["bm25_topk", "dup_ngram_fraction", "knn_cosine", "pii_redact", "c4_line_filter"]
REFEREE_QUERIES = 2  # per checked index state; oracle.py scans every doc in Python


def process_start_time() -> float:
    """Wall-clock start of this process, from /proc (10 ms resolution)."""
    with open("/proc/self/stat") as f:
        ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/stat") as f:
        btime = next(int(l.split()[1]) for l in f if l.startswith("btime"))
    return btime + ticks / os.sysconf("SC_CLK_TCK")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def geomean(values: list[float]) -> float:
    """Geometric mean: every operation of a mixed round weighs the same
    relative amount, where a median would jump between query templates."""
    return math.exp(statistics.fmean(map(math.log, values))) if values else 0.0


def percentile_tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    return s[max(0, len(s) - 11)]


class Bench:
    def __init__(self, args, work: str, short_work: str | None):
        self.args = args
        self.work = work
        self.short_work = short_work
        self.seed = args.seed
        self.trace = bool(args.trace)
        self.trace_dir = os.path.join(work, "trace")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lat: dict[str, list[float]] = {}
        self.ops: list[tuple[str, str, float, float]] = []  # (kind, template, t0, t1)
        self.extra: dict[str, float] = {}
        self.aside_s = 0.0  # time spent between the timed steps of a round
        self.ray_session_dir: str | None = None  # set when outside the work dir

    # -- bookkeeping -------------------------------------------------------

    def op(self, name: str, fn, *args, kind: str, **kwargs):
        """One timed operation; an exception counts it failed."""
        self.attempted += 1
        w0, t0 = time.time(), time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            log(f"operation {name} failed: {traceback.format_exc(limit=-1).strip()}")
            return None, None
        dt = time.perf_counter() - t0
        self.lat.setdefault(name, []).append(dt)
        self.ops.append((kind, name, w0, time.time()))
        return out, dt

    def warm(self, fn, *args, **kwargs) -> None:
        """An untimed warm-up call; if it raises, the timed operations that
        follow show the failure."""
        try:
            fn(*args, **kwargs)
        except Exception:
            log(f"warm-up failed: {traceback.format_exc(limit=-1).strip()}")

    def skip(self, n: int = 1) -> None:
        """Operations of a round that cannot run because an earlier one
        failed: attempted and failed, so every round has the same size."""
        self.attempted += n
        self.failed += n

    def check(self, what: str, fn, *args) -> None:
        """Run one correctness check; a check that raises is a problem."""
        try:
            found = fn(*args)
        except Exception:
            found = [f"{what} raised:\n{traceback.format_exc()}"]
        for p in found:
            self.problems.append(f"{what}: {p}")
            log(f"CHECK FAILED {what}: {p}")

    # -- Ray ---------------------------------------------------------------

    def start_ray(self) -> None:
        import logging

        import ray

        env = {"PYTHONPATH": os.pathsep.join([ROOT, HERE]), RUN_MARK: os.environ[RUN_MARK]}
        runtime_env = {"env_vars": env}
        if self.trace:
            import bench_trace

            os.makedirs(self.trace_dir, exist_ok=True)
            env[bench_trace.TRACE_DIR_ENV] = self.trace_dir
            runtime_env["worker_process_setup_hook"] = "bench_trace.worker_setup"
        # Ray's session, temp files and (if /dev/shm is not writable) object
        # store go under the work dir, through a path short enough for its
        # sockets (see short_work_path). If that start fails, or no such path
        # exists, Ray starts once more with its own defaults, and the session
        # dir it makes outside the work dir is removed after shutdown.
        in_work = {}
        if self.short_work:
            in_work["_temp_dir"] = self.short_work
            if not os.access("/dev/shm", os.W_OK):
                in_work["_plasma_directory"] = self.work
        for where in ([in_work, None] if in_work else [None]):
            saved = {k: os.environ.get(k) for k in ("TMPDIR", "RAY_TMPDIR")}
            if where:  # temp files of the run, Ray's and the program's
                os.environ["TMPDIR"] = os.environ["RAY_TMPDIR"] = self.short_work
            try:
                ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                         _node_ip_address="127.0.0.1", logging_level="ERROR",
                         log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
                         runtime_env=runtime_env, **(where or {}))
                break
            except Exception:
                if where is None:
                    raise
                log(f"Ray did not start in the work dir:\n{traceback.format_exc()}")
                stop_everything(deadline_s=5)
                for k, v in saved.items():
                    if v is None:
                        os.environ.pop(k, None)
                    else:
                        os.environ[k] = v
                tempfile.tempdir = None
        # ray.init replaces the SIGTERM handler with one that ends the process
        # at once; put back the one that unwinds through main's cleanup
        signal.signal(signal.SIGTERM, exit_on_sigterm)
        if where is None:
            self.ray_session_dir = ray._private.worker._global_node.get_session_dir_path()
            log(f"Ray's session is in {self.ray_session_dir}")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        if self.trace:
            bench_trace.install()

    # -- workloads ---------------------------------------------------------

    def run(self, t_start: float) -> dict:
        w = self.args.workload
        setup = getattr(self, f"setup_{w}")
        rnd = getattr(self, f"round_{w}")
        self.start_ray()
        setup()
        self.setup_s = time.time() - t_start
        self.t_measure = time.time()
        steal0 = cpu_ticks()
        t0 = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - t0 - self.aside_s < self.args.seconds:
            rnd(rounds)
            rounds += 1
        self.measured_s = time.perf_counter() - t0 - self.aside_s
        self.t_measure_end = time.time()
        log_steal(steal0, cpu_ticks())
        self.rounds = rounds
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.trace:
            self.measure_empty_job()
        t_checks = time.perf_counter()
        getattr(self, f"checks_{w}")()
        log(f"set-up {self.setup_s:.1f} s, measured {self.measured_s:.1f} s, "
            f"checks {time.perf_counter() - t_checks:.1f} s")
        return self.result()

    # code corpus shared by the index and query workloads

    def write_corpus(self) -> None:
        import bench_inputs as bi

        self.corpus = os.path.join(self.work, "corpus")
        self.index = os.path.join(self.work, "index")
        self.rows = bi.corpus_rows(self.seed)
        self.added = bi.appended_rows(self.seed)
        self.changes = bi.changed_rows(self.seed, self.rows)
        bi.write_parts(self.corpus, self.rows)
        self.source_bytes = sum(len(r["content"].encode("utf-8", "surrogatepass"))
                                for r in self.rows)

    def write_appended(self) -> None:
        import bench_inputs as bi

        bi.write_parts(self.corpus, self.added, n_parts=1, first_part=bi.N_PARTS)

    def write_changed(self, changed: bool) -> None:
        """Rewrite the parts holding the changed rows (edited or original)."""
        import bench_inputs as bi

        rows = [self.changes.get(k, r) if changed else r for k, r in enumerate(self.rows)]
        step = -(-len(rows) // bi.N_PARTS)
        for p in sorted({bi.part_of_row(k, len(rows)) for k in self.changes}):
            bi.write_parts(self.corpus, rows[p * step:(p + 1) * step], n_parts=1, first_part=p)

    def oracle_docs(self, state: str):
        """Docs in the engine's doc-id order: a build numbers the sorted
        corpus; an append-only generation numbers its new files from n_docs
        in sorted order; a changed-file update rebuilds from scratch."""
        from probe_ray.oracle import load_docs

        if state == "built":
            return load_docs(self.rows)
        if state == "appended":
            base = load_docs(self.rows)
            new = load_docs(self.added)
            for d in new:
                d.doc_id += len(base)
            return base + new
        current = [self.changes.get(k, r) for k, r in enumerate(self.rows)]
        return load_docs(current + self.added)

    def n_docs_problems(self, engine, corpus: str) -> list[str]:
        import bench_checks as bc

        n_docs = engine.paths.stats()["n_docs"]
        want = bc.guard_passing_rows(sorted(os.path.join(corpus, f) for f in os.listdir(corpus)))
        return [] if n_docs == want else [f"n_docs {n_docs}, corpus has {want} guard-passing rows"]

    def snapshot(self, state: str) -> None:
        """Keep the corpus and index of one state of the first write cycle,
        for the checks after the measured interval."""
        t0 = time.perf_counter()
        for what in ("corpus", "index"):
            shutil.copytree(getattr(self, what), os.path.join(self.work, "snap", state, what))
        self.snapshots.append(state)
        self.aside_s += time.perf_counter() - t0

    def check_index_state(self, state: str) -> None:
        """n_docs against the corpus files, then a seeded referee sample."""
        import bench_checks as bc
        import bench_inputs as bi
        from probe_ray.search import Engine

        snap = os.path.join(self.work, "snap", state)
        engine = Engine(os.path.join(snap, "index"))
        self.check(f"{state} n_docs", self.n_docs_problems, engine, os.path.join(snap, "corpus"))
        docs = self.oracle_docs(state)
        mix = [q for q in bi.local_query_mix(self.seed, len(self.rows), 1) if q[0] != "global"]
        rot = (self.seed * 7 + len(state)) % len(mix)
        for tpl, method, queries, opts in (mix[rot:] + mix[:rot])[:REFEREE_QUERIES]:
            ref = bc.referee_blocks if method == "search_blocks" else bc.referee_docs
            self.check(f"{state} {tpl}", lambda: ref(getattr(engine, method)(queries, **opts),
                                                     docs, queries, opts))

    # index_write: build, append-only update, changed-file update

    def setup_index_write(self) -> None:
        import bench_inputs as bi
        from probe_ray.build import build_index

        self.write_corpus()
        self.snapshots: list[str] = []
        # warm the workers (imports, first Ray Data job) on a tiny corpus
        bi.write_parts(os.path.join(self.work, "warm"), self.rows[:64], 1)
        self.warm(build_index, os.path.join(self.work, "warm"),
                  os.path.join(self.work, "warm_index"))

    def round_index_write(self, r: int) -> None:
        import bench_inputs as bi
        from probe_ray.build import build_index, update_index

        first = r == 0
        if not first:  # back to the base corpus, outside the timed steps
            os.remove(bi.part_path(self.corpus, bi.N_PARTS))
            self.write_changed(False)
        shutil.rmtree(self.index, ignore_errors=True)
        paths, t_build = self.op("build", build_index, self.corpus, self.index,
                                 overwrite=True, kind="write")
        if paths is None:
            self.skip(2)
            return
        if first:
            self.extra["index_bytes"] = du(self.index)
            self.snapshot("built")
        self.write_appended()
        _, t_append = self.op("update_append", update_index, self.corpus, self.index,
                              kind="write")
        if first and t_append is not None:
            self.snapshot("appended")
        self.write_changed(True)
        _, t_change = self.op("update_change", update_index, self.corpus, self.index,
                              kind="write")
        if first and t_change is not None:
            self.snapshot("changed")
        if None not in (t_build, t_append, t_change):
            self.lat.setdefault("cycle", []).append(t_build + t_append + t_change)

    def checks_index_write(self) -> None:
        for state in self.snapshots:
            self.check_index_state(state)

    # query: local and fan-out queries on one index with two generations

    def setup_query(self) -> None:
        import bench_inputs as bi
        from probe_ray.build import build_index, update_index
        from probe_ray.search import Engine

        self.write_corpus()
        build_index(self.corpus, self.index)
        self.write_appended()
        update_index(self.corpus, self.index)
        self.engine = Engine(self.index)
        self.results = []  # (template, method, queries, opts, table) of the first round
        self.local_mix = bi.local_query_mix(self.seed, len(self.rows))
        self.fanout_mix = bi.fanout_query_mix(self.seed)
        for tpl, method, queries, opts in bi.local_query_mix(self.seed + 1, len(self.rows), 1):
            self.warm(getattr(self.engine, method), queries, **opts)  # fill the engine's caches
        self.fault_rows: list[int] = []  # rows of the known-fault query, per round

    def round_query(self, r: int) -> None:
        import bench_inputs as bi

        for tpl, method, queries, opts in self.local_mix + self.fanout_mix:
            res, _ = self.op(tpl, getattr(self.engine, method), queries, kind="query", **opts)
            if r == 0 and res is not None:
                self.results.append((tpl, method, queries, opts, res))
        tpl, _, queries, opts = bi.KNOWN_FAULT
        res, _ = self.op(tpl, self.engine.search, queries, kind="query", **opts)
        if res is not None:
            self.fault_rows.append(res.num_rows)

    def checks_query(self) -> None:
        import bench_checks as bc
        import bench_inputs as bi
        from probe_ray.oracle import oracle_search_docs

        docs = self.oracle_docs("appended")
        # the known fault counts as failed in each round where its row count
        # differs from oracle.py's
        _, _, queries, opts = bi.KNOWN_FAULT
        want = len(oracle_search_docs(docs, queries, **opts))
        wrong = [n for n in self.fault_rows if n != want]
        self.failed += len(wrong)
        if wrong:
            log(f"operation {queries} failed in {len(wrong)} rounds: {wrong[0]} rows, oracle.py {want}")
        doc_bytes = {d.doc_id: len(d.content.encode("utf-8", "surrogatepass")) for d in docs}
        self.check("n_docs", self.n_docs_problems, self.engine, self.corpus)
        for tpl, method, queries, opts, res in self.results:
            self.check(f"{tpl} properties", bc.result_properties, res, opts, doc_bytes)
        distinct = {}
        tfs = bc.doc_term_counts(docs)
        for tpl, method, queries, opts, res in self.results:
            if opts.get("mode") == "global":
                self.check(f"{tpl} {queries}", bc.global_scores, res, docs, tfs, queries,
                           opts["max_results"])
            else:
                distinct.setdefault(json.dumps([queries, opts], sort_keys=True),
                                    (tpl, method, queries, opts, res))
        sample = list(distinct.values())
        fanout = {q[0] for q in self.fanout_mix}
        for n, group in ((REFEREE_QUERIES, [q for q in sample if q[0] not in fanout]),
                         (1, [q for q in sample if q[0] in fanout])):
            rot = (self.seed * 7) % len(group)
            for tpl, method, queries, opts, res in (group[rot:] + group[:rot])[:n]:
                ref = bc.referee_blocks if method == "search_blocks" else bc.referee_docs
                self.check(f"referee {tpl}", ref, res, docs, queries, opts)

    # docs_pipelines: the eight textops ops over seeded documents/embeddings

    def setup_docs_pipelines(self) -> None:
        import bench_inputs as bi
        import __ray_entry__ as E

        self.docs_dir = os.path.join(self.work, "docs")
        bi.write_docs_tables(self.docs_dir, self.seed)
        entries = E.queries()
        self.textops = {name: entries[name] for name in TEXTOPS}
        self.docs_out: dict[str, object] = {}
        warm = os.path.join(self.work, "docs_warm")  # workers import textops, first jobs run
        bi.write_docs_tables(warm, self.seed + 1)
        for name in ("bm25_topk", "pii_redact"):
            self.warm(lambda f=self.textops[name]: materialize(f(warm)))

    def round_docs_pipelines(self, r: int) -> None:
        total, ok = 0.0, True
        for name in TEXTOPS:
            out, dt = self.op(name, lambda f=self.textops[name]: materialize(f(self.docs_dir)),
                              kind="textops")
            if dt is None:
                ok = False
                continue
            total += dt
            if r == 0:
                self.docs_out[name] = out
        if ok:
            self.lat.setdefault("pass", []).append(total)

    def checks_docs_pipelines(self) -> None:
        import duckdb
        import pyarrow.parquet as pq

        import __ray_entry__ as E
        import bench_checks as bc

        sql = E.oracle_sql()
        con = duckdb.connect()
        for t in ("documents", "embeddings"):
            path = os.path.join(self.docs_dir, f"{t}.parquet").replace("'", "''")
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        texts = pq.read_table(os.path.join(self.docs_dir, "documents.parquet"),
                              columns=["text"]).column("text").to_pylist()
        for name, out in self.docs_out.items():
            if name in SQL_CHECKED:
                self.check(name, bc.sql_match, out, sql[name], con)
            elif name == "dedup_clusters":
                self.check(name, bc.dedup_clusters_ok, out, texts)
            elif name == "minhash_lsh_dedup":
                self.check(name, bc.minhash_clusters_ok, out, texts)
            elif name == "simhash_near_dup":
                self.check(name, bc.simhash_pairs_ok, out, texts)
        con.close()

    # -- results -----------------------------------------------------------

    def main_latencies(self) -> list[float]:
        """Per-operation latencies behind op_geomean_ms: a write cycle, a
        query, or a pass over the eight textops ops."""
        w = self.args.workload
        if w == "index_write":
            return self.lat.get("cycle", [])
        if w == "docs_pipelines":
            return self.lat.get("pass", [])
        return [v for vs in self.lat.values() for v in vs]

    def result(self) -> dict:
        lat = self.main_latencies()
        if self.trace:
            metrics = self.layer_metrics(lat)
        else:
            metrics = {
                "setup_s": (self.setup_s, "s"),
                "peak_rss_mb": (self.peak_rss_mb, "MB"),
                "op_geomean_ms": (geomean(lat) * 1e3, "ms"),
                "ops_per_s": (len(lat) / self.measured_s, "1/s"),
            }
        for name, vals in sorted(self.lat.items()):
            log(f"latency {name:24s} median {statistics.median(vals) * 1e3:10.1f} ms  n={len(vals)}")
        log(f"{self.args.workload}: {self.rounds} rounds, {self.attempted} operations, "
            f"{self.failed} failed, {len(self.problems)} check problems")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }

    def measure_empty_job(self) -> None:
        import ray.data as rd

        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            rd.range(1, override_num_blocks=1).map_batches(lambda b: b).materialize()
            times.append(time.perf_counter() - t0)
        self.extra["empty_job_s"] = statistics.median(times)

    def layer_metrics(self, lat: list[float]) -> dict:
        import bench_trace

        time.sleep(0.5)  # let the workers' flush threads write their last spans
        bench_trace.flush(self.trace_dir)
        spans = [s for s in bench_trace.load_spans(self.trace_dir)
                 if self.t_measure <= s[2] <= self.t_measure_end]
        ops = len(lat) or 1
        queries = [(t0, t1) for kind, _, t0, t1 in self.ops if kind == "query"]
        writes = [(t0, t1) for kind, _, t0, t1 in self.ops if kind == "write"]
        nq = len(queries)

        def busy(layer, name=None):
            return sum(s[3] - s[2] for s in spans if s[0] == layer and (name is None or s[1] == name))

        def total(layer, idx, name=None):
            return sum(s[idx] for s in spans if s[0] == layer and (name is None or s[1] == name))

        jobs = [(s[2], s[3]) for s in spans if s[0] == "ray.job"]

        def jobs_in(windows):
            return sum(1 for j0, _ in jobs if any(w0 <= j0 <= w1 for w0, w1 in windows))

        ray_exec = union_within(jobs, queries)
        tok_busy = busy("tokenizer")
        enc_items = total("codec.encode", 5, "encode_postings")
        m = {
            "tokenizer.busy_s": (tok_busy / ops, "s"),
            "tokenizer.mb_per_s": (total("tokenizer", 6) / 1e6 / tok_busy if tok_busy else 0.0, "MB/s"),
            "build.guard_busy_s": (busy("build.guard") / ops, "s"),
            "build.tokenize_busy_s": (busy("build.tokenize") / ops, "s"),
            "build.partials_busy_s": (busy("build.partials") / ops, "s"),
            "build.merge_busy_s": (busy("build.merge") / ops, "s"),
            "build.ray_jobs": (jobs_in(writes) / ops if writes else 0.0, "count"),
            "codec.encode_busy_s": (busy("codec.encode") / ops, "s"),
            "codec.decode_busy_s": (busy("codec.decode") / ops, "s"),
            "codec.postings_decoded": (total("codec.decode", 5) / ops, "count"),
            "codec.bytes_per_posting": (total("codec.encode", 6, "encode_postings") / enc_items
                                        if enc_items else 0.0, "B"),
            "queryparse.plan_ms_per_query": (busy("queryparse") * 1e3 / nq if nq else 0.0, "ms"),
            "search.ray_jobs_per_query": (jobs_in(queries) / nq if nq else 0.0, "count"),
            "search.ray_exec_ms_per_query": (ray_exec * 1e3 / nq if nq else 0.0, "ms"),
            "search.inprocess_ms_per_query": (
                (sum(t1 - t0 for t0, t1 in queries) - ray_exec) * 1e3 / nq if nq else 0.0, "ms"),
            "blocks.extract_busy_ms": (busy("blocks") * 1e3 / nq if nq else 0.0, "ms"),
            "blocks.files_extracted_per_query": (
                total("blocks", 5, "extract_blocks") / nq if nq else 0.0, "count"),
            "ray.empty_job_ms": (self.extra["empty_job_s"] * 1e3, "ms"),
            "trace.op_geomean_ms": (geomean(lat) * 1e3, "ms"),
            "query.p95_ms": (percentile_tail(
                [t1 - t0 for t0, t1 in queries]) * 1e3 if nq >= 11 else 0.0, "ms"),
            "write.build_files_per_s": (
                len(self.rows) / statistics.median(self.lat["build"])
                if self.lat.get("build") else 0.0, "1/s"),
            "write.update_append_s": (statistics.median(self.lat["update_append"])
                                      if self.lat.get("update_append") else 0.0, "s"),
            "write.update_change_s": (statistics.median(self.lat["update_change"])
                                      if self.lat.get("update_change") else 0.0, "s"),
            "write.index_bytes_per_source_byte": (
                self.extra["index_bytes"] / self.source_bytes
                if "index_bytes" in self.extra else 0.0, "B/B"),
        }
        for name in TEXTOPS:
            vals = self.lat.get(name)
            m[f"textops.{name}_s"] = (statistics.median(vals) if vals else 0.0, "s")
        per_tpl: dict[str, list[int]] = {}
        for kind, tpl, t0, t1 in self.ops:
            if kind == "query":
                per_tpl.setdefault(tpl, []).append(jobs_in([(t0, t1)]))
        for tpl, n in sorted(per_tpl.items()):
            log(f"ray jobs per query  {tpl:24s} {statistics.mean(n):.2f}")
        return m


def union_within(intervals, windows) -> float:
    """Length of the union of ``intervals`` clipped to ``windows``."""
    clipped = sorted((max(a, w0), min(b, w1)) for a, b in intervals for w0, w1 in windows
                     if min(b, w1) > max(a, w0))
    length, end = 0.0, float("-inf")
    for a, b in clipped:
        if b > end:
            length += b - max(a, end)
            end = b
    return length


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of the host's CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])


def log_steal(before: tuple[int, int], after: tuple[int, int]) -> None:
    """Log the share of CPU time the hypervisor stole while the run
    measured, so that a set of runs taken in a noisy period shows as one."""
    steal, total = after[0] - before[0], after[1] - before[1]
    if total > 0:
        log(f"host steal over the measured interval: {steal} ticks, "
            f"{100 * steal / total:.1f}% of CPU time")


def du(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def materialize(out):
    """Consume an op's output inside the timed region."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    if isinstance(out, rd.Dataset):
        refs = out.to_arrow_refs()
        return pa.concat_tables(ray.get(refs)) if refs else pa.table({})
    return out


# ---------------------------------------------------------------------------
# process hygiene

def run_pids() -> list[int]:
    """Live processes of this run: children of this process, and every
    process that carries the run's marker in its environment (Ray's daemons
    and workers inherit it, even once re-parented)."""
    mark = f"{RUN_MARK}={os.environ[RUN_MARK]}".encode()
    me = os.getpid()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            if fields[0] == "Z":
                continue
            if int(fields[1]) == me:
                pids.append(int(name))
                continue
            with open(f"/proc/{name}/environ", "rb") as f:
                if mark in f.read().split(b"\0"):
                    pids.append(int(name))
        except OSError:
            continue
    return pids


def reap_children() -> None:
    """Reap this process's exited children; Ray's re-parented workers are
    not its children and are found by their marker instead."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_everything(deadline_s: float = 30.0) -> None:
    """Shut Ray down, then wait until none of the run's processes lives;
    signal what is left after the deadline."""
    try:
        import ray

        if ray.is_initialized():
            ray.shutdown()
    except Exception:
        log(f"ray.shutdown failed:\n{traceback.format_exc()}")
    end = time.time() + deadline_s
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in run_pids():
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass
            end = time.time() + 5
        while time.time() < end:
            reap_children()
            if not run_pids():
                return
            time.sleep(0.1)
    log(f"processes still alive: {run_pids()}")


def exit_on_sigterm(*_) -> None:
    sys.exit(143)


def short_work_path(work: str) -> str | None:
    """A path to the work dir that leaves room for Ray's socket paths: the
    work dir itself, or else /proc/<pid>/cwd with this process's cwd in the
    work dir; None if neither fits."""
    if len(work) <= RAY_TEMP_DIR_MAX:
        return work
    alias = f"/proc/{os.getpid()}/cwd"
    try:
        return alias if os.path.samefile(alias, work) else None
    except OSError:
        return None


def remove_ray_session(session_dir: str) -> None:
    """Remove a session dir Ray made outside the work dir, and its
    ``session_latest`` link when the link points to it."""
    shutil.rmtree(session_dir, ignore_errors=True)
    latest = os.path.join(os.path.dirname(session_dir), "session_latest")
    if os.path.islink(latest) and os.path.realpath(latest) == os.path.realpath(session_dir):
        os.remove(latest)


def main() -> int:
    t_start = process_start_time()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["index_write", "query", "docs_pipelines"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "probe_ray", "__init__.py")):
        log(f"the program (probe_ray/) is not in {ROOT}")
        return 2
    sys.path[:0] = [ROOT, HERE]
    # a SIGTERM unwinds through the finally below, which stops Ray
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    os.environ[RUN_MARK] = uuid.uuid4().hex
    os.environ.update(RAY_ENV)
    # ROOT is already on the workers' PYTHONPATH; this keeps child processes
    # that import before the runtime env applies from depending on the cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    work = tempfile.mkdtemp(prefix=".pb-", dir=ROOT)  # short: Ray's sockets go under it
    os.chdir(work)  # until Ray has stopped: the /proc/<pid>/cwd path leads here
    bench = Bench(args, work, short_work_path(work))
    try:
        result = bench.run(t_start)
    except Exception:
        log(f"run aborted:\n{traceback.format_exc()}")
        bench.problems.append("run aborted")
        result = None
    finally:
        stop_everything()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        if bench.ray_session_dir:
            remove_ray_session(bench.ray_session_dir)
    if result is None:
        result = {"correct": False, "attempted": max(bench.attempted, 1),
                  "failed": max(bench.attempted, 1), "metrics": {}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
