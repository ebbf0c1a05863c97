"""Elasticsearch-flavored boolean query language: lexer, parser, AST,
evaluation, query plan and filter extraction.

Faithful Python port of the semantics in
/root/reference/src/search/elastic_query.rs (lexer :542-644, parser
:652-908, evaluate :108-446), src/search/query.rs (QueryPlan :33-227,
collect_all_terms :284-358) and src/search/filters.rs (SearchFilters
:5-202, extract/simplify :205-372, is_filename_like :375-440).

Differences from the reference, by design:
- Dynamic special terms are not global state: parsing returns the set of
  quoted-exact/excluded keywords (``specials``) that the reference would have
  registered via add_special_term (elastic_query.rs:791-796); callers thread
  it through tokenization explicitly.
- Glob matching uses fnmatch translated patterns (same ``*``/``?``/``[]``
  semantics as the reference's glob crate for the patterns we support).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field

from probe_ray import tokenizer as tok


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Term:
    keywords: list[str]
    field: str | None = None
    required: bool = False
    excluded: bool = False
    exact: bool = False

    @property
    def lowercase_keywords(self) -> list[str]:
        return [k.lower() for k in self.keywords]

    def __str__(self) -> str:
        prefix = "+" if self.required else ("-" if self.excluded else "")
        fp = f"{self.field}:" if self.field else ""
        if len(self.keywords) == 1 and self.exact:
            return f'{prefix}{fp}"{self.keywords[0]}"'
        if len(self.keywords) == 1:
            return f"{prefix}{fp}{self.keywords[0]}"
        return f'{prefix}{fp}"{" ".join(self.keywords)}"'


@dataclass
class And:
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass
class Or:
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


Expr = Term | And | Or


def walk_terms(expr: Expr):
    if isinstance(expr, Term):
        yield expr
    else:
        yield from walk_terms(expr.left)
        yield from walk_terms(expr.right)


def has_required_term(expr: Expr) -> bool:
    return any(t.required for t in walk_terms(expr))


def is_only_excluded_terms(expr: Expr) -> bool:
    return all(t.excluded for t in walk_terms(expr))


def is_exact_search(expr: Expr) -> bool:
    """query.rs:276-282 — true when every term is exact."""
    return all(t.exact for t in walk_terms(expr))


# ---------------------------------------------------------------------------
# Evaluation (elastic_query.rs:108-446)
# ---------------------------------------------------------------------------

def _check_all_required_present(expr: Expr, matched: set[int], term_indices) -> bool:
    if isinstance(expr, Term):
        if expr.required and not expr.excluded:
            return all(
                term_indices.get(kw) in matched for kw in expr.lowercase_keywords
            )
        return True
    return _check_all_required_present(
        expr.left, matched, term_indices
    ) and _check_all_required_present(expr.right, matched, term_indices)


def _eval_inner(expr: Expr, matched, term_indices, ignore_negatives, has_req) -> bool:
    if not matched and not is_only_excluded_terms(expr):
        return False
    if has_req and not ignore_negatives:
        if not _check_all_required_present(expr, matched, term_indices):
            return False
    if isinstance(expr, Term):
        if not expr.keywords:
            return expr.excluded
        lk = expr.lowercase_keywords
        if expr.excluded:
            if ignore_negatives:
                return True
            return not any(term_indices.get(kw) in matched for kw in lk)
        if expr.required and ignore_negatives:
            return True
        if expr.required:
            return all(term_indices.get(kw) in matched for kw in lk)
        if has_req:
            return True
        return any(term_indices.get(kw) in matched for kw in lk)
    l = _eval_inner(expr.left, matched, term_indices, ignore_negatives, has_req)
    r = _eval_inner(expr.right, matched, term_indices, ignore_negatives, has_req)
    return (l and r) if isinstance(expr, And) else (l or r)


def make_vector_evaluator(expr: Expr, term_indices: dict[str, int],
                          ignore_negatives: bool = False):
    """Vectorized evaluation over per-doc term bitmaps (J2 in SURVEY.md
    §3.5): given {term -> bool ndarray over docs}, returns the admission
    bool ndarray. Semantics identical to
    evaluate(..., ignore_negatives) applied per doc."""
    import numpy as np

    has_req = has_required_term(expr)
    only_excl = is_only_excluded_terms(expr)
    all_terms = list(term_indices)

    def run(members: dict[str, "np.ndarray"], n: int) -> "np.ndarray":
        def get(kw):
            m = members.get(kw)
            return m if m is not None else np.zeros(n, dtype=bool)

        def node(e: Expr) -> "np.ndarray":
            if isinstance(e, Term):
                if not e.keywords:
                    return np.full(n, e.excluded, dtype=bool)
                kws = e.lowercase_keywords
                if e.excluded:
                    if ignore_negatives:
                        return np.ones(n, dtype=bool)
                    any_p = np.zeros(n, dtype=bool)
                    for kw in kws:
                        any_p |= get(kw)
                    return ~any_p
                if e.required:
                    all_p = np.ones(n, dtype=bool)
                    for kw in kws:
                        all_p &= get(kw)
                    return all_p
                if has_req:
                    return np.ones(n, dtype=bool)
                any_p = np.zeros(n, dtype=bool)
                for kw in kws:
                    any_p |= get(kw)
                return any_p
            l, r = node(e.left), node(e.right)
            return (l & r) if isinstance(e, And) else (l | r)

        result = node(expr)
        if has_req:
            for t in walk_terms(expr):
                if t.required and not t.excluded:
                    for kw in t.lowercase_keywords:
                        result &= get(kw)
        if not only_excl:
            any_matched = np.zeros(n, dtype=bool)
            for t in all_terms:
                any_matched |= get(t)
            result &= any_matched
        return result

    return run


def evaluate(expr: Expr, matched: set[int], term_indices: dict[str, int],
             ignore_negatives: bool = False) -> bool:
    """elastic_query.rs:356-446."""
    if not matched and not is_only_excluded_terms(expr):
        return False
    if ignore_negatives:
        for t in walk_terms(expr):
            if t.required and not t.excluded:
                for kw in t.lowercase_keywords:
                    idx = term_indices.get(kw)
                    if idx is None or idx not in matched:
                        return False
    has_req = has_required_term(expr)
    return _eval_inner(expr, matched, term_indices, ignore_negatives, has_req)


# ---------------------------------------------------------------------------
# Lexer (elastic_query.rs:542-644)
# ---------------------------------------------------------------------------

class ParseError(Exception):
    pass


PLUS, MINUS, AND, OR, LPAREN, RPAREN, COLON = range(7)


def _lex(input_str: str) -> list[tuple[int | str, str | None]]:
    """Tokens are (kind, value): kind in {PLUS..COLON, 'ident', 'quoted'}."""
    tokens: list[tuple[int | str, str | None]] = []
    i, n = 0, len(input_str)
    while i < n:
        ch = input_str[i]
        if ch.isspace():
            i += 1
        elif ch == "+":
            tokens.append((PLUS, None)); i += 1
        elif ch == "-":
            tokens.append((MINUS, None)); i += 1
        elif ch == "(":
            tokens.append((LPAREN, None)); i += 1
        elif ch == ")":
            tokens.append((RPAREN, None)); i += 1
        elif ch == ":":
            tokens.append((COLON, None)); i += 1
        elif ch == '"':
            i += 1
            buf, escaped, closed = [], False, False
            while i < n:
                c = input_str[i]
                if escaped:
                    buf.append(c); escaped = False; i += 1
                elif c == "\\":
                    escaped = True; i += 1
                elif c == '"':
                    i += 1; closed = True
                    break
                else:
                    buf.append(c); i += 1
            if not closed:
                raise ParseError("Unexpected end of input in quoted string")
            tokens.append(("quoted", "".join(buf)))
        elif ch.isalnum() or ch in "_.":
            buf = []
            while i < n and (input_str[i].isalnum() or input_str[i] in "_.-"):
                buf.append(input_str[i]); i += 1
            ident = "".join(buf)
            up = ident.upper()
            if up == "AND":
                tokens.append((AND, None))
            elif up == "OR":
                tokens.append((OR, None))
            else:
                tokens.append(("ident", ident))
        else:
            i += 1  # skip unknown characters
    if not tokens:
        raise ParseError("No valid tokens found in input")
    return tokens


# ---------------------------------------------------------------------------
# Parser (elastic_query.rs:652-908)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens, specials: set[str]):
        self.tokens = tokens
        self.pos = 0
        self.specials = specials  # collected instead of add_special_term()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def parse_expr(self) -> Expr:
        return self.parse_or_expr()

    def parse_or_expr(self) -> Expr:
        left = self.parse_and_expr()
        while (t := self.peek()) and t[0] == OR:
            self.next()
            left = Or(left, self.parse_and_expr())
        return left

    def parse_and_expr(self) -> Expr:
        left = self.parse_factor()
        while (t := self.peek()) is not None:
            kind = t[0]
            if kind == AND:
                self.next()
                left = And(left, self.parse_factor())
            elif kind == OR:
                break
            elif kind in (PLUS, MINUS):
                left = And(left, self.parse_factor())
            elif kind in ("ident", "quoted", LPAREN):
                # implicit adjacency is OR (elastic_query.rs:734-742)
                left = Or(left, self.parse_factor())
            else:
                break
        return left

    def parse_factor(self) -> Expr:
        t = self.peek()
        if t and t[0] == LPAREN:
            self.next()
            expr = self.parse_expr()
            nxt = self.next()
            if nxt is None or nxt[0] != RPAREN:
                raise ParseError("Expected ')'")
            return expr
        return self.parse_prefixed_term()

    def parse_prefixed_term(self) -> Expr:
        required = excluded = False
        t = self.peek()
        if t and t[0] == PLUS:
            required = True; self.next()
        elif t and t[0] == MINUS:
            excluded = True; self.next()
        primary = self.parse_primary()
        if isinstance(primary, Term):
            if primary.exact or excluded:
                # registered as dynamic special terms (elastic_query.rs:791-796)
                for kw in primary.keywords:
                    self.specials.add(kw.lower())
                final_keywords = primary.keywords
            else:
                final_keywords = []
                for kw in primary.keywords:
                    final_keywords.extend(
                        s for s in tok.tokenize(kw, frozenset(self.specials)) if s
                    )
            return Term(final_keywords, primary.field, required, excluded, primary.exact)
        return primary

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t is None:
            raise ParseError("Unexpected end of input")
        kind, val = t
        if kind == "quoted":
            self.next()
            return Term([val], None, False, False, True)
        if kind == "ident":
            self.next()
            first = val
            nxt = self.peek()
            if nxt and nxt[0] == COLON:
                self.next()
                nxt = self.peek()
                if nxt and nxt[0] == COLON:
                    # namespace separator a::b::c (elastic_query.rs:845-864)
                    self.next()
                    nid = self.next()
                    if nid is None or nid[0] != "ident":
                        return Term([first], None, False, False, False)
                    qualified = f"{first}::{nid[1]}"
                    while (
                        self.peek() and self.peek()[0] == COLON
                        and self.pos + 1 < len(self.tokens)
                        and self.tokens[self.pos + 1][0] == COLON
                    ):
                        self.next(); self.next()
                        part = self.next()
                        if part is None or part[0] != "ident":
                            break
                        qualified += f"::{part[1]}"
                    return Term([qualified], None, False, False, False)
                nxt = self.peek()
                if nxt and nxt[0] == "ident":
                    self.next()
                    return Term([nxt[1]], first, False, False, False)
                if nxt and nxt[0] == "quoted":
                    self.next()
                    return Term([nxt[1]], first, False, False, True)
                return Term([], first, False, False, False)
            return Term([first], None, False, False, False)
        raise ParseError(f"Unexpected token {t!r}")


def parse_query(input_str: str, exact: bool = False) -> tuple[Expr, frozenset[str]]:
    """Parse a query; returns (AST, dynamic-special-term set).

    elastic_query.rs:895-959, including both fallback paths.
    """
    if exact:
        return Term([input_str], None, False, False, True), frozenset({input_str.lower()})
    specials: set[str] = set()
    try:
        tokens = _lex(input_str)
    except ParseError:
        cleaned = "".join(
            c for c in input_str if c.isalnum() or c.isspace() or c in "_."
        )
        if not cleaned.strip():
            raise ParseError("No valid tokens found")
        keywords = [s.lower() for s in cleaned.split()]
        return Term(keywords, None, False, False, False), frozenset()
    parser = _Parser(tokens, specials)
    try:
        ast = parser.parse_expr()
    except ParseError:
        idents = [v for k, v in tokens if k == "ident"]
        if not idents:
            raise ParseError("No valid identifiers found")
        return Term(idents, None, False, False, False), frozenset()
    return ast, frozenset(specials)


# ---------------------------------------------------------------------------
# Filters (filters.rs)
# ---------------------------------------------------------------------------

_FILTER_FIELDS = {"file", "path", "filename", "ext", "extension", "type",
                  "dir", "directory", "lang", "language"}

_LANG_EXTENSIONS = {
    # file_list_cache.rs:553-581 / filters.rs get_extensions_for_language
    "rust": ["rs"],
    "javascript": ["js", "jsx", "mjs"],
    "typescript": ["ts", "tsx"],
    "python": ["py", "pyw", "pyi"],
    "go": ["go"],
    "c": ["c", "h"],
    "cpp": ["cpp", "cc", "cxx", "hpp", "hxx"],
    "java": ["java"],
    "ruby": ["rb"],
    "php": ["php"],
    "swift": ["swift"],
    "csharp": ["cs"],
    "kotlin": ["kt"],
    "scala": ["scala"],
    "markdown": ["md", "markdown"],
    "html": ["html", "htm"],
    "css": ["css", "scss", "sass"],
    "solidity": ["sol"],
    "crystal": ["cr"],
    "haskell": ["hs", "lhs"],
    "yaml": ["yaml", "yml"],
}

_LANG_ALIASES = {
    # search_runner.rs:1906-1921
    "rs": "rust", "js": "javascript", "ts": "typescript", "py": "python",
    "golang": "go", "c++": "cpp", "cs": "csharp", "c#": "csharp",
    "rb": "ruby", "kt": "kotlin", "md": "markdown",
}

_FILENAME_EXTENSIONS = (
    ".txt", ".md", ".rs", ".js", ".ts", ".py", ".java", ".c", ".cpp", ".h",
    ".go", ".json", ".yaml", ".yml", ".toml", ".xml", ".html", ".css",
    ".scss", ".sass", ".sh", ".bash", ".zsh", ".fish", ".rb", ".php",
    ".swift", ".kt", ".scala", ".sql", ".csv", ".log", ".conf", ".config",
    ".env", ".gitignore", ".dockerfile", ".makefile", ".cmake", ".gradle",
    ".properties", ".ini", ".cfg",
)


def normalize_language(lang: str) -> str:
    lower = lang.lower()
    return _LANG_ALIASES.get(lower, lower)


def is_filename_like(term: str) -> bool:
    """filters.rs:375-440 (extension-based detection)."""
    if not term.strip():
        return False
    term_lower = term.lower()
    return any(term_lower.endswith(ext) for ext in _FILENAME_EXTENSIONS)


@dataclass
class SearchFilters:
    file_patterns: list[str] = field(default_factory=list)
    extensions: list[str] = field(default_factory=list)
    file_types: list[str] = field(default_factory=list)
    dir_patterns: list[str] = field(default_factory=list)
    languages: list[str] = field(default_factory=list)
    exact_filenames: list[str] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.file_patterns or self.extensions or self.file_types
                    or self.dir_patterns or self.languages or self.exact_filenames)

    def add_filter(self, field_name: str, values: list[str]) -> None:
        f = field_name.lower()
        if f in ("file", "path"):
            self.file_patterns.extend(values)
        elif f == "filename":
            self.exact_filenames.extend(values)
        elif f in ("ext", "extension"):
            for value in values:
                for ext in value.split(","):
                    ext = ext.strip().lstrip(".")
                    if ext:
                        self.extensions.append(ext.lower())
        elif f == "type":
            for value in values:
                for ft in value.split(","):
                    if ft.strip():
                        self.file_types.append(ft.strip().lower())
        elif f in ("dir", "directory"):
            self.dir_patterns.extend(values)
        elif f in ("lang", "language"):
            for value in values:
                for lang in value.split(","):
                    if lang.strip():
                        self.languages.append(normalize_language(lang.strip()))

    def matches_path(self, path: str) -> bool:
        """filters.rs:97-202 (matches_file)."""
        filename = path.rsplit("/", 1)[-1]
        ext = filename.rsplit(".", 1)[-1].lower() if "." in filename else None
        if self.exact_filenames:
            return any(
                filename == f or filename.lower() == f.lower()
                for f in self.exact_filenames
            )
        if self.extensions:
            if ext is None or ext not in self.extensions:
                return False
        if self.file_patterns:
            if not any(
                fnmatch.fnmatchcase(path, p) or p in path
                for p in self.file_patterns
            ):
                return False
        if self.dir_patterns:
            parent = path.rsplit("/", 1)[0] if "/" in path else ""
            if not parent:
                return False
            if not any(
                fnmatch.fnmatchcase(parent, p) or p in parent
                for p in self.dir_patterns
            ):
                return False
        if self.file_types:
            if ext is None:
                return False
            if not any(ext in _LANG_EXTENSIONS.get(t, []) for t in self.file_types):
                return False
        if self.languages:
            if ext is None:
                return False
            if not any(ext in _LANG_EXTENSIONS.get(l, []) for l in self.languages):
                return False
        return True


def extract_and_simplify_with_autodetect(
    expr: Expr,
) -> tuple[SearchFilters, Expr | None]:
    """filters.rs:214-372 (autodetect variant)."""
    filters = SearchFilters()

    def simplify(e: Expr) -> Expr | None:
        if isinstance(e, Term):
            if e.field is not None:
                if e.field.lower() in _FILTER_FIELDS:
                    filters.add_filter(e.field, e.keywords)
                    return None
                return e
            all_filename_like = bool(e.keywords) and all(
                is_filename_like(kw) for kw in e.keywords
            )
            if all_filename_like and not e.excluded and not e.required:
                filters.add_filter("filename", e.keywords)
                return None
            return e
        l, r = simplify(e.left), simplify(e.right)
        if l is not None and r is not None:
            return And(l, r) if isinstance(e, And) else Or(l, r)
        return l if l is not None else r

    return filters, simplify(expr)


# ---------------------------------------------------------------------------
# Query plan (query.rs:33-227)
# ---------------------------------------------------------------------------

@dataclass
class QueryPlan:
    ast: Expr
    term_indices: dict[str, int]
    excluded_terms: set[str]
    exact: bool
    is_universal: bool = False
    specials: frozenset[str] = frozenset()

    @property
    def has_required_anywhere(self) -> bool:
        return has_required_term(self.ast)

    @property
    def has_only_excluded_terms(self) -> bool:
        return is_only_excluded_terms(self.ast)


def _collect_all_terms(expr: Expr, all_terms: list[str], excluded: set[str]) -> None:
    if isinstance(expr, Term):
        all_terms.extend(expr.lowercase_keywords)
        if expr.excluded:
            excluded.update(expr.lowercase_keywords)
        return
    if isinstance(expr, And) and isinstance(expr.right, Term) and expr.right.excluded:
        excluded.update(expr.right.lowercase_keywords)
    _collect_all_terms(expr.left, all_terms, excluded)
    _collect_all_terms(expr.right, all_terms, excluded)


def create_query_plan_from_ast(
    ast: Expr, exact: bool, specials: frozenset[str] = frozenset()
) -> QueryPlan:
    if exact:
        for t in walk_terms(ast):
            t.exact = True
    all_terms: list[str] = []
    excluded: set[str] = set()
    _collect_all_terms(ast, all_terms, excluded)
    all_terms = sorted(set(all_terms))  # sort+dedup: query.rs:139-144
    term_indices = {t: i for i, t in enumerate(all_terms)}
    return QueryPlan(ast, term_indices, excluded, exact, False, specials)


def create_universal_query_plan() -> QueryPlan:
    """query.rs:858-889 — used when every query term was a filter. The
    reference's universal plan carries the single keyword "." (the
    match-any-character pattern) at term index 0; block extraction and the
    substring-injection paths see it like any other plan term."""
    return QueryPlan(
        Term(["."], None, False, False, False), {".": 0}, set(), False, True
    )


def plan_query(
    queries: list[str], exact: bool = False
) -> tuple[QueryPlan, SearchFilters]:
    """search_runner.rs:364-411: join multiple queries with AND, parse,
    extract filters, build the plan (universal plan if everything was a
    filter)."""
    combined = " AND ".join(queries) if len(queries) > 1 else queries[0]
    ast, specials = parse_query(combined, exact)
    filters, simplified = extract_and_simplify_with_autodetect(ast)
    if simplified is not None:
        plan = create_query_plan_from_ast(simplified, exact, specials)
    else:
        plan = create_universal_query_plan()
        plan.specials = specials
    return plan, filters
