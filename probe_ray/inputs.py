"""Input-source layer: file references parsed out of free text, git
diffs, and CLI arguments (probe's stdin / --diff / positional-argument
extract inputs — src/extract/file_paths.rs).

The reference resolves references against the local filesystem; this
engine resolves them against the CORPUS (the docs Dataset), which is the
cluster-shape analog: parsing is a pure driver-side function over one
small text (compiler output, a diff, an agent message — KBs, not data),
and resolution is one broadcast semi-join over the corpus
(`extract_from_text`), so the corpus is never pulled to the driver.

A parsed reference is a dict:
    path        str   as written (may be a glob pattern)
    start_line  int|None
    end_line    int|None
    symbol      str|None
    lines       list[int]|None   exact changed lines (git diff only)
    bare        bool  True when the path has no separator — the
                      reference admits such names only if they exist on
                      disk (file_paths.rs:668-676); the corpus analog is
                      basename membership, applied at resolution time.
"""
from __future__ import annotations

import fnmatch
import re

import pyarrow as pa
import ray.data as rd

from probe_ray.tools import _TEST_PATH_RE, file_symbol_rows

# ---------------------------------------------------------------------------
# git diff input (file_paths.rs:76-258)
# ---------------------------------------------------------------------------

_DIFF_HEADER_RE = re.compile(r"^diff --git a/(.*) b/(.*)$")
_HUNK_HEADER_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")


def is_git_diff_format(text: str) -> bool:
    """file_paths.rs:76-78: content starting with "diff --git"."""
    return text.lstrip().startswith("diff --git")


def parse_git_diff(text: str, *, allow_tests: bool = True) -> list[dict]:
    """file_paths.rs:94-258: one reference per changed file — the 'b'
    (new) path, the set of ADDED/MODIFIED line numbers ('+' lines walked
    with the new-side counter), start/end = min/max of that set. The
    first diff header for a path wins; files with no '+' lines are
    dropped; test files are dropped unless allow_tests."""
    refs: list[dict] = []
    seen: set[str] = set()
    cur_path: str | None = None
    cur_lines: set[int] = set()

    def finalize() -> None:
        if cur_path is None or not cur_lines or cur_path in seen:
            return
        if not allow_tests and _TEST_PATH_RE.search(cur_path):
            return
        seen.add(cur_path)
        refs.append(dict(
            path=cur_path, start_line=min(cur_lines), end_line=max(cur_lines),
            symbol=None, lines=sorted(cur_lines), bare=False,
        ))

    lines = text.split("\n")
    i = 0
    while i < len(lines):
        line = lines[i]
        m = _DIFF_HEADER_RE.match(line)
        if m:
            finalize()
            cur_path = m.group(2)
            cur_lines = set()
            i += 1
            continue
        h = _HUNK_HEADER_RE.match(line)
        if h and cur_path is not None:
            at = int(h.group(3))
            i += 1
            while i < len(lines):
                hl = lines[i]
                if hl.startswith("@@") or hl.startswith("diff --git"):
                    break
                if hl.startswith("+") and not hl.startswith("+++"):
                    cur_lines.add(at)
                if not hl.startswith("-") and not hl.startswith("\\"):
                    # '\ No newline at end of file' markers are not
                    # content lines — they must not advance the counter
                    at += 1
                i += 1
            continue
        i += 1
    finalize()
    return refs


# ---------------------------------------------------------------------------
# free-text input (file_paths.rs:275-727)
# ---------------------------------------------------------------------------

# the reference's word-boundary class: start-of-text or whitespace /
# punctuation that may directly precede a path (file_paths.rs:362)
_BOUND = r"(?:^|[\s\r\n\*\(\)\[\]\{\}<>:;,!?])"
_PATH = r"[a-zA-Z0-9_\-./\*\{\}]+\.[a-zA-Z0-9]+"
_FILE_SYMBOL_RE = re.compile(rf"{_BOUND}(?P<p>{_PATH})#(?P<sym>[a-zA-Z0-9_]+)")
_FILE_RANGE_RE = re.compile(rf"{_BOUND}(?P<p>{_PATH}):(?P<a>\d+)-(?P<b>\d+)")
_FILE_LINE_RE = re.compile(rf"{_BOUND}(?P<p>{_PATH}):(?P<a>\d+)(?::\d+)?")
_SIMPLE_FILE_RE = re.compile(rf"{_BOUND}(?P<p>{_PATH})")

# code-construct filtering (file_paths.rs:16-56)
_CODE_PREFIXES = {
    "local", "locals", "var", "each", "self", "this", "super", "parent",
    "config", "data", "resource", "output", "input", "params", "args",
    "props", "state", "context",
}
_COMMON_PROPERTIES = {
    "length", "size", "count", "value", "key", "name", "type", "id",
    "index", "push", "pop", "shift", "map", "filter", "reduce", "forEach",
    "toString", "valueOf", "nodes",
}
_COMMON_EXTENSIONS = {
    "tf", "js", "ts", "rs", "go", "py", "rb", "php", "java", "cs", "cpp",
    "c", "h", "hpp",
}


def is_likely_file_path(path: str) -> bool:
    """file_paths.rs:16-56: filter code constructs (``self.value``,
    ``array.length``) from single-word dotted names; anything with a
    path separator passes."""
    if "/" in path or "\\" in path:
        return True
    parts = path.split(".")
    if len(parts) == 2:
        prefix, suffix = parts
        if prefix in _CODE_PREFIXES and suffix in _COMMON_PROPERTIES:
            return False
        if suffix in _COMMON_PROPERTIES and suffix not in _COMMON_EXTENSIONS:
            return False
    return True


def _preprocess(text: str) -> str:
    """file_paths.rs:285-349: replace markdown formatting (** * ~~ ```)
    and quoting (backticks, single/double quotes) with spaces so quoted
    paths hit the word-boundary regexes; apostrophes INSIDE words
    ("Here's") are kept."""
    out: list[str] = []
    in_quote = False
    quote_char = ""
    prev = " "
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else " "
        nxt2 = text[i + 2] if i + 2 < n else " "
        apostrophe_in_word = c == "'" and prev.isalnum() and nxt.isalnum()
        if not in_quote and c == "*":
            out.append(" ")
            i += 2 if nxt == "*" else 1
            prev = c
            continue
        if not in_quote and c == "~" and nxt == "~":
            out.append(" ")
            i += 2
            prev = c
            continue
        if not in_quote and c == "`" and nxt == "`" and nxt2 == "`":
            out.append(" ")
            i += 3
            prev = c
            continue
        if not in_quote and (c == "`" or c == '"'
                             or (c == "'" and not apostrophe_in_word)):
            in_quote = True
            quote_char = c
            out.append(" ")
        elif in_quote and c == quote_char:
            in_quote = False
            out.append(" ")
        else:
            out.append(c)
        prev = c
        i += 1
    return "".join(out)


def parse_file_references(text: str, *, allow_tests: bool = True) -> list[dict]:
    """file_paths.rs:275-727: extract file references from free text in
    precedence order symbol > range > single line(:col) > bare path;
    a path consumed by an earlier pass is skipped by later ones. Glob
    patterns (* or {) are kept as written and resolved against the
    corpus at extraction time."""
    text = _preprocess(text)
    refs: list[dict] = []
    processed: set[str] = set()

    def admit(path: str, start, end, symbol, *, dedupe: bool = True) -> None:
        if dedupe and path in processed:
            return
        if not is_likely_file_path(path):
            return
        if not allow_tests and _TEST_PATH_RE.search(path):
            return
        processed.add(path)
        refs.append(dict(
            path=path, start_line=start, end_line=end, symbol=symbol,
            lines=None, bare="/" not in path and "\\" not in path,
        ))

    # multiple symbols from the same file are all kept (file_paths.rs:369-371)
    for m in _FILE_SYMBOL_RE.finditer(text):
        admit(m.group("p"), None, None, m.group("sym"), dedupe=False)
        processed.add(m.group("p"))
    for m in _FILE_RANGE_RE.finditer(text):
        admit(m.group("p"), int(m.group("a")), int(m.group("b")), None)
    for m in _FILE_LINE_RE.finditer(text):
        admit(m.group("p"), int(m.group("a")), None, None)
    for m in _SIMPLE_FILE_RE.finditer(text):
        admit(m.group("p"), None, None, None)
    return refs


def parse_file_with_line(arg: str, *, allow_tests: bool = True) -> list[dict]:
    """file_paths.rs:732-1090: the CLI positional-argument form — exactly
    one of "file.rs", "file.rs:10", "file.rs:1-60", "file.rs:10:5",
    "file.rs#symbol" (globs allowed). Unlike the free-text scan this
    trusts the argument as a path (no likely-file filtering)."""
    if not allow_tests and _TEST_PATH_RE.search(arg):
        return []
    m = re.match(r"^(?P<p>.+?)#(?P<sym>[A-Za-z0-9_]+)$", arg)
    if m:
        return [dict(path=m.group("p"), start_line=None, end_line=None,
                     symbol=m.group("sym"), lines=None, bare=False)]
    m = re.match(r"^(?P<p>.+?):(?P<a>\d+)-(?P<b>\d+)$", arg)
    if m:
        return [dict(path=m.group("p"), start_line=int(m.group("a")),
                     end_line=int(m.group("b")), symbol=None, lines=None,
                     bare=False)]
    m = re.match(r"^(?P<p>.+?):(?P<a>\d+)(?::\d+)?$", arg)
    if m:
        return [dict(path=m.group("p"), start_line=int(m.group("a")),
                     end_line=None, symbol=None, lines=None, bare=False)]
    return [dict(path=arg, start_line=None, end_line=None, symbol=None,
                 lines=None, bare=False)]


# ---------------------------------------------------------------------------
# dependency-path resolver (src/path_resolver/mod.rs:81-200)
# ---------------------------------------------------------------------------

_DEP_HOSTS = {"github.com", "gitlab.com", "bitbucket.org"}


def split_dep_reference(ref: str) -> dict | None:
    """M16 path resolver: parse ``go:...``, ``js:...``, ``rust:...`` and
    ``/dep/<lang>/...`` dependency references into (lang, module,
    subpath) with each language's module-boundary rules (go.rs:29-75:
    external-host modules are host/user/repo, stdlib paths split a
    trailing file; javascript.rs:109-150: scoped @scope/pkg keeps two
    segments, else one; rust.rs:156-167: the whole identifier is the
    crate). The reference resolves modules against GOPATH/node_modules/
    the cargo registry; the cluster analog of "installed dependencies"
    is the CORPUS's repo column (resolve_dep_refs). Returns None for
    non-dependency paths."""
    if ref.startswith("/dep/"):
        parts = ref[len("/dep/"):].split("/", 1)
        lang = {"go": "go", "js": "js", "rust": "rust"}.get(parts[0])
        if lang is None or len(parts) < 2 or not parts[1]:
            return None
        ref = f"{lang}:{parts[1]}"
    for prefix in ("go:", "js:", "rust:"):
        if not ref.startswith(prefix):
            continue
        lang = prefix[:-1]
        rest = ref[len(prefix):].rstrip("/")
        if not rest or ".." in rest:
            return None
        if lang == "go":
            parts = rest.split("/")
            external = len(parts) >= 3 and (
                parts[0] in _DEP_HOSTS
                or (parts[0] == "golang.org" and parts[1] == "x")
            )
            if external:
                return dict(lang="go", module="/".join(parts[:3]),
                            subpath="/".join(parts[3:]) or None)
            if len(parts) > 1 and "." in parts[-1]:
                return dict(lang="go", module="/".join(parts[:-1]),
                            subpath=parts[-1])
            return dict(lang="go", module=rest, subpath=None)
        if lang == "js":
            if rest.startswith("@"):
                parts = rest.split("/", 2)
                if len(parts) < 2 or len(parts[0]) <= 1 or not parts[1]:
                    return None
                return dict(lang="js", module=f"{parts[0]}/{parts[1]}",
                            subpath=parts[2] if len(parts) > 2 else None)
            parts = rest.split("/", 1)
            return dict(lang="js", module=parts[0],
                        subpath=parts[1] if len(parts) > 1 else None)
        return dict(lang="rust", module=rest, subpath=None)
    return None


def resolve_dep_refs(docs: rd.Dataset, ref: str) -> rd.Dataset:
    """Resolve a dependency reference against the corpus: rows whose
    ``repo`` is the module (exact, or its last path segments) and, with
    a subpath, whose ``path`` is that file or lies under that
    directory. One vectorized filter pass — the corpus-native analog of
    the reference's filesystem lookup."""
    import pyarrow.compute as pc

    parsed = split_dep_reference(ref)
    if parsed is None:
        raise ValueError(f"not a dependency reference: {ref!r}")
    module, subpath = parsed["module"], parsed["subpath"]

    def pick(batch: pa.Table) -> pa.Table:
        repo = batch.column("repo")
        m = pc.or_(
            pc.equal(repo, module),
            pc.ends_with(repo, pattern="/" + module),
        )
        if subpath:
            path = batch.column("path")
            m = pc.and_(m, pc.or_(
                pc.equal(path, subpath),
                pc.starts_with(path, pattern=subpath + "/"),
            ))
        return batch.filter(m)

    return docs.map_batches(pick, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# corpus resolution (one broadcast semi-join pass)
# ---------------------------------------------------------------------------

_EXTRACT_SCHEMA = pa.schema([
    ("repo", pa.string()), ("path", pa.string()),
    ("start_line", pa.int64()), ("end_line", pa.int64()),
    ("symbol", pa.string()), ("kind", pa.string()), ("code", pa.string()),
])


def _expand_braces(pattern: str) -> list[str]:
    """Expand one level of {a,b,c} alternation into plain fnmatch
    patterns (the reference's glob crate supports braces; fnmatch does
    not). NOTE: a comma-separated brace glob survives only the CLI form
    (parse_file_with_line) — the free-text path regex excludes ',' like
    the reference's (file_paths.rs:362), so brace alternation in prose
    splits at the comma there too."""
    m = re.search(r"\{([^{}]*)\}", pattern)
    if not m:
        return [pattern]
    head, tail = pattern[: m.start()], pattern[m.end():]
    out: list[str] = []
    for alt in m.group(1).split(","):
        out.extend(_expand_braces(head + alt + tail))
    return out


def _ref_matches(ref: dict, path: str) -> bool:
    rp = ref["path"]
    if "*" in rp or "{" in rp:
        return any(
            fnmatch.fnmatchcase(path, p) for p in _expand_braces(rp)
        )
    if ref["bare"]:
        # reference requires FS existence for separator-less names
        # (file_paths.rs:668-676); corpus analog: basename match
        return path.rsplit("/", 1)[-1] == rp
    return path == rp


def _extract_rows(ref: dict, repo: str, path: str, lang: str,
                  content: str) -> list[dict]:
    lines = content.split("\n")
    n = len(lines)
    if ref["symbol"] is not None:
        return [
            dict(repo=repo, path=path, start_line=r["line_no"],
                 end_line=r["end_line"], symbol=ref["symbol"], kind=r["kind"],
                 code="\n".join(lines[r["line_no"] - 1 : r["end_line"]]))
            for r in file_symbol_rows(lang, content)
            if r["name"] == ref["symbol"]
        ]
    start, end = ref["start_line"], ref["end_line"]
    if start is None:
        return [dict(repo=repo, path=path, start_line=1, end_line=n,
                     symbol=None, kind="file", code=content)]
    if end is None:
        # single line: the fallback context block around it (the same
        # windows the search path extracts — processor.rs extracts the
        # enclosing AST block; unsupported languages fall back to ±5)
        from probe_ray.blocks import fallback_windows

        windows = fallback_windows({start}, n)
        if windows:
            _, lo, hi = windows[0]
        else:
            lo = hi = min(max(1, start), n)
        return [dict(repo=repo, path=path, start_line=lo, end_line=hi,
                     symbol=None, kind="context",
                     code="\n".join(lines[lo - 1 : hi]))]
    lo, hi = max(1, start), min(n, end)
    if lo > hi:
        return []
    return [dict(repo=repo, path=path, start_line=lo, end_line=hi,
                 symbol=None, kind="range",
                 code="\n".join(lines[lo - 1 : hi]))]


def extract_from_text(docs: rd.Dataset, text: str, *,
                      allow_tests: bool = True) -> pa.Table:
    """probe extract with stdin / --diff input (src/extract/
    file_paths.rs + processor.rs): parse the references out of ``text``
    (git-diff format auto-detected), then resolve them against the
    corpus in ONE broadcast map_batches pass — the ref list is tiny
    driver state shipped once; no corpus rows move to the driver until
    the final (small) result. Output ordered by (path, start_line,
    ref order) for determinism."""
    refs = (parse_git_diff(text, allow_tests=allow_tests)
            if is_git_diff_format(text)
            else parse_file_references(text, allow_tests=allow_tests))
    if not refs:
        return _EXTRACT_SCHEMA.empty_table()

    def scan(batch: pa.Table) -> pa.Table:
        out: list[dict] = []
        for repo, path, lang, content in zip(
            batch.column("repo").to_pylist(),
            batch.column("path").to_pylist(),
            (batch.column("lang").to_pylist() if "lang" in batch.column_names
             else [""] * batch.num_rows),
            batch.column("content").to_pylist(),
        ):
            for ri, ref in enumerate(refs):
                if _ref_matches(ref, path):
                    for row in _extract_rows(ref, repo, path, lang, content):
                        row["_ref"] = ri
                        out.append(row)
        if not out:
            return _EXTRACT_SCHEMA.append(pa.field("_ref", pa.int64())) \
                .empty_table()
        cols = {
            name: [r[name] for r in out]
            for name in (*_EXTRACT_SCHEMA.names, "_ref")
        }
        return pa.table(cols, schema=_EXTRACT_SCHEMA.append(
            pa.field("_ref", pa.int64())))

    import ray

    parts = [
        ray.get(r)
        for r in docs.map_batches(scan, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ]
    parts = [t for t in parts if t.num_rows]
    if not parts:
        return _EXTRACT_SCHEMA.empty_table()
    tbl = pa.concat_tables(parts).combine_chunks()
    if tbl.num_rows:
        import pyarrow.compute as pc

        idx = pc.sort_indices(tbl, sort_keys=[
            ("path", "ascending"), ("start_line", "ascending"),
            ("_ref", "ascending"),
        ])
        tbl = tbl.take(idx)
    return tbl.drop_columns(["_ref"])
