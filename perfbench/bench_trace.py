"""Span recording for the traced run, kept outside the program.

``install()`` wraps each layer's public entry points in place, on the
module objects callers reach them through (``codec.encode_postings``,
``tok.tokenize_with_shadows``, ...), and wraps Ray Data's streaming
executor. Ray workers install the same wrappers through the worker setup
hook ``bench_trace.worker_setup``. Each process keeps its spans in memory
and a daemon thread appends them to ``spans-<pid>.jsonl`` in the trace
directory; ``load_spans`` merges the files.

A span is ``[layer, name, t0, t1, pid, items, nbytes]``. Only the
outermost call of a layer on a thread is recorded, so a layer's busy time
never counts its own nested calls twice.
"""

from __future__ import annotations

import functools
import glob
import importlib
import inspect
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_spans: list[list] = []
_lock = threading.Lock()
_local = threading.local()
_installed = False


def _items_tokenizer(args, kwargs, out):
    text = args[0] if args else kwargs.get("text", "")
    return 1, len(text.encode("utf-8", "surrogatepass")) if isinstance(text, str) else 0


def _items_batch(args, kwargs, out):
    return (getattr(args[0], "num_rows", 0) if args else 0), 0


def _items_encode(args, kwargs, out):
    n = len(args[0]) if args and hasattr(args[0], "__len__") else 0
    return n, sum(len(b) for b in out if isinstance(b, (bytes, bytearray)))


def _items_merge(args, kwargs, out):
    return 0, sum(len(b) for b in out if isinstance(b, (bytes, bytearray)))


def _items_decode(args, kwargs, out):
    return len(out[0]), 0


def _items_one(args, kwargs, out):
    return 1, 0


def _items_none(args, kwargs, out):
    return 0, 0


def _record(layer: str, name: str, count, fn, args, kwargs):
    stack = getattr(_local, "layers", None)
    if stack is None:
        stack = _local.layers = set()
    if layer in stack:
        return fn(*args, **kwargs)
    stack.add(layer)
    t0 = time.time()
    try:
        out = fn(*args, **kwargs)
    finally:
        t1 = time.time()
        stack.discard(layer)
    try:
        items, nbytes = count(args, kwargs, out)
    except Exception:  # a counter must never change the traced call
        items, nbytes = 0, 0
    with _lock:
        _spans.append([layer, name, t0, t1, os.getpid(), items, nbytes])
    return out


def _wrap(layer: str, name: str, fn, count=_items_none):
    if getattr(fn, "__perfbench_wrapped__", False):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _record(layer, name, count, fn, args, kwargs)

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _wrap_factory(layer: str, name: str, factory):
    """Wrap a function that returns a batch closure, so the closure it
    returns is traced wherever it runs."""
    if getattr(factory, "__perfbench_wrapped__", False):
        return factory

    @functools.wraps(factory)
    def make(*args, **kwargs):
        return _wrap(layer, name, factory(*args, **kwargs), _items_batch)

    make.__perfbench_wrapped__ = True
    return make


def install() -> None:
    """Wrap the program's layer entry points in this process."""
    global _installed
    if _installed:
        return
    _installed = True
    tok = importlib.import_module("probe_ray.tokenizer")
    build = importlib.import_module("probe_ray.build")
    codec = importlib.import_module("probe_ray.codec")
    qp = importlib.import_module("probe_ray.queryparse")
    blocks = importlib.import_module("probe_ray.blocks")

    for attr in ("tokenize", "tokenize_with_shadows"):
        setattr(tok, attr, _wrap("tokenizer", attr, getattr(tok, attr), _items_tokenizer))
    build.guard_batch = _wrap("build.guard", "guard_batch", build.guard_batch, _items_batch)
    build.tokenize_batch = _wrap("build.tokenize", "tokenize_batch", build.tokenize_batch,
                                 _items_batch)
    for attr in ("make_partial_segments", "make_ngram_partials"):
        setattr(build, attr, _wrap_factory("build.partials", attr, getattr(build, attr)))
    for attr in ("make_segment_merger", "make_ngram_merger"):
        setattr(build, attr, _wrap_factory("build.merge", attr, getattr(build, attr)))
    codec.encode_postings = _wrap("codec.encode", "encode_postings", codec.encode_postings,
                                  _items_encode)
    codec.merge_encoded = _wrap("codec.encode", "merge_encoded", codec.merge_encoded,
                                _items_merge)
    for attr in ("decode_postings", "decode_postings_selective"):
        setattr(codec, attr, _wrap("codec.decode", attr, getattr(codec, attr), _items_decode))
    qp.plan_query = _wrap("queryparse", "plan_query", qp.plan_query, _items_one)
    for attr, fn in list(vars(blocks).items()):
        if (not attr.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == blocks.__name__):
            count = _items_one if attr == "extract_blocks" else _items_none
            setattr(blocks, attr, _wrap("blocks", attr, fn, count))
    _install_executor()


def _install_executor() -> None:
    """Ray Data job boundaries: one span per streaming execution, from
    ``execute`` to ``shutdown``."""
    from ray.data._internal.execution import streaming_executor as se

    cls = se.StreamingExecutor
    if getattr(cls.execute, "__perfbench_wrapped__", False):
        return
    execute, shutdown = cls.execute, cls.shutdown

    @functools.wraps(execute)
    def traced_execute(self, *args, **kwargs):
        self._perfbench_t0 = time.time()
        return execute(self, *args, **kwargs)

    @functools.wraps(shutdown)
    def traced_shutdown(self, *args, **kwargs):
        try:
            return shutdown(self, *args, **kwargs)
        finally:
            t0 = self.__dict__.pop("_perfbench_t0", None)
            if t0 is not None:
                with _lock:
                    _spans.append(["ray.job", "execute", t0, time.time(), os.getpid(), 1, 0])

    traced_execute.__perfbench_wrapped__ = True
    cls.execute, cls.shutdown = traced_execute, traced_shutdown


def flush(trace_dir: str) -> None:
    with _lock:
        batch = _spans[:]
        del _spans[:]
    if batch:
        with open(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl"), "a") as f:
            for s in batch:
                f.write(json.dumps(s) + "\n")


def _flush_loop(trace_dir: str) -> None:
    while True:
        time.sleep(0.2)
        try:
            flush(trace_dir)
        except OSError:
            return  # the run's work dir is gone: the run has ended


def worker_setup() -> None:
    """Ray worker setup hook: wrap, then flush spans in the background."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    install()
    threading.Thread(target=_flush_loop, args=(trace_dir,), daemon=True).start()


def load_spans(trace_dir: str) -> list[list]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans
