"""Lightweight structural parser for language-aware block extraction (M8).

The reference extracts code blocks for matched lines by walking a
tree-sitter AST: each matched line resolves to its nearest enclosing
"acceptable parent" node (parser.rs:898-1160 process_sparse_line_map over
the sparse line map built in parser.rs:521-740), comments merge with their
context node (parser.rs:366-470 find_comment_context_node), and the
resulting blocks are deduplicated with an important-type/priority table
(parser.rs:14-25, 1165-1260).  tree-sitter grammar wheels are not
available in this environment, so this module reproduces those span
semantics with a deterministic regex + brace/indent scanner for the
corpus languages.  It is NOT a parser clone; the approximations are:

- node spans are derived from declaration-line regexes plus balanced-brace
  (or indentation) scanning over string/comment-stripped text, not from a
  grammar;
- the per-line "smallest node" is modeled directly as the innermost
  acceptable span containing the line (the observable outcome of the
  reference's smallest-token + nearest-acceptable-ancestor walk);
- python module-level non-definition lines map to one-logical-line
  statement spans rather than the whole `module` node (the reference's
  acceptable set at python.rs:28-39 would cover them with `module`,
  i.e. the entire file — deliberately truncated here: whole-file blocks
  defeat byte/token limits at corpus scale);
- compound-statement headers (`if`/`for`/…) also resolve to
  one-logical-line statement spans instead of the enclosing suite.

Acceptable-parent sets ported per language:
  rust.rs:28-43   function/struct/impl/trait/enum/mod/macro_rules
  go.rs:28-43     func/method/type declarations (struct/interface types)
  python.rs:28-39 def/class/decorated + statement-level acceptance
  javascript.rs:28-49  functions/classes/methods/arrows + statement-level
  typescript.rs:36-57  functions/classes/interfaces/types/enums — NO
                       statement-level acceptance (asymmetry vs js kept)
  java.rs:28-40   methods/classes/interfaces/enums/constructors/fields/
                  static initializers ("block"/"variable_declaration"
                  unmodeled — see _JAVA_HEADERS note)
  c.rs:40-44      function_definition/declaration/struct/enum
  cpp.rs:36-45    c set + class_specifier + namespace_definition
  csharp.rs:30-43 methods/classes/structs/interfaces/enums/namespaces/
                  properties/constructors/delegates/events
  ruby.rs         method/singleton_method/class/module (end-matched via
                  keyword-depth scan, not braces)
  php.rs:28-37    function_definition/method_declaration/class/interface/
                  trait (methods distinguished from functions by leading
                  visibility/static/abstract/final modifiers; `#` line
                  comments unmodeled — // and /* */ are)
  swift.rs:28-41  func/class/struct/enum/protocol/extension/typealias/
                  variable/constant declarations (var/let/typealias spans
                  end at the bracket-balanced logical line, so a plain
                  `let x = 5` never swallows a later block)
  markdown.rs:102-121  structural blocks: atx/setext headings, fenced code
                  blocks, block quotes, lists + list items, thematic
                  breaks, paragraphs (approximations: setext headings are
                  single-line; `document` deliberately truncated like
                  python's module node)
  yaml.rs:96-111  block_mapping_pair / block_sequence item spans by
                  indentation (stream/document whole-file parents
                  deliberately truncated)
  solidity.rs:55-72  contract/interface/library/function/constructor/
                  modifier/fallback-receive/struct/enum/event/error/
                  state-variable/user-defined-type (brace language)
  crystal.rs:70-87  class/module/struct/enum/method/macro/lib/fun/alias/
                  annotation/type/union defs (ruby-shaped end matching;
                  lib-body fun/alias/type declarations are single-line)
  haskell.rs:77-99  top-level data/newtype/type/class/instance/foreign/
                  pattern decls + function (signature grouped with its
                  binding equations) and standalone binds, spans by
                  indentation; where-locals resolve to their enclosing
                  span
  html.rs:240-255  every element is acceptable; container/semantic
                  elements span to their matching close tag, leaves are
                  single-line
Test-node detection mirrors each language's is_test_node
(rust #[test] attributes, python/ruby test_ prefix, go Test prefix,
js/ts test-name functions and describe/it/test/expect calls, java @Test
annotations, c# [Test]/[Fact]/[TestMethod]/[Theory] attributes, c/cpp
test-named functions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

# extension -> language key (factory.rs get_language_impl routing for the
# languages this module models)
SUPPORTED_EXTS = {
    "rs": "rust",
    "py": "python",
    "go": "go",
    "js": "javascript",
    "jsx": "javascript",
    "ts": "typescript",
    "tsx": "typescript",
    "java": "java",
    "c": "c",
    "h": "c",
    "cc": "cpp",
    "cpp": "cpp",
    "cxx": "cpp",
    "hpp": "cpp",
    "hh": "cpp",
    "cs": "csharp",
    "rb": "ruby",
    "php": "php",
    "swift": "swift",
    "md": "markdown",
    "markdown": "markdown",
    "yaml": "yaml",
    "yml": "yaml",
    "sol": "solidity",
    "cr": "crystal",
    "hs": "haskell",
    "lhs": "haskell",
    "html": "html",
    "htm": "html",
}


@dataclass(frozen=True)
class Span:
    start: int  # 1-based inclusive
    end: int    # 1-based inclusive
    node_type: str
    is_test: bool = False
    statement: bool = False  # statement-level acceptance (py/js)


# ---------------------------------------------------------------------------
# Line scanner: strings/comments stripped per line + comment-only flags
# ---------------------------------------------------------------------------

_PY_TRIPLE = ("'''", '"""')
_PY_SPECIAL_RE = re.compile(r"[#'\"\\]")
_BRACE_SPECIAL_RE = re.compile(r"[/'\"`\\]")


def _scan_haskell(
    lines: list[str],
) -> tuple[list[str], list[bool], list[bool]]:
    """haskell scanner: ``--`` line comments (not when part of an operator
    like ``-->``; the plain prefix case covers real code), ``{- -}`` block
    comments (nesting approximated as non-nesting), ``"`` strings."""
    code_lines: list[str] = []
    comment_only: list[bool] = []
    in_str_line: list[bool] = []
    in_block = False
    for raw in lines:
        out: list[str] = []
        i, n = 0, len(raw)
        saw_code = False
        saw_comment = in_block
        while i < n:
            if in_block:
                j = raw.find("-}", i)
                if j < 0:
                    out.append(" " * (n - i))
                    i = n
                else:
                    out.append(" " * (j + 2 - i))
                    i = j + 2
                    in_block = False
                continue
            if raw.startswith("{-", i):
                # blank the opener before scanning for "-}", so "{-}"
                # opens a comment instead of closing it at once
                saw_comment = True
                in_block = True
                out.append("  ")
                i += 2
                continue
            if raw.startswith("--", i) and (
                i + 2 >= n or not raw[i + 2] in "->:#$%&*+./<=>?@\\^|~"
            ):
                saw_comment = True
                out.append(" " * (n - i))
                break
            c = raw[i]
            if c == '"':
                j = i + 1
                while j < n:
                    if raw[j] == "\\":
                        j += 2
                        continue
                    if raw[j] == '"':
                        break
                    j += 1
                out.append('"' + " " * (max(j, i + 1) - i - 1) + ('"' if j < n else ""))
                i = min(j + 1, n)
                saw_code = True
                continue
            if not c.isspace():
                saw_code = True
            out.append(c)
            i += 1
        code_lines.append("".join(out))
        comment_only.append(saw_comment and not saw_code)
        in_str_line.append(False)
    return code_lines, comment_only, in_str_line


def scan_lines(lines: list[str], ext: str) -> tuple[list[str], list[bool], list[bool]]:
    """Per line: (code with string/comment text blanked, comment_only flag,
    in_string flag for lines fully inside a multi-line string).

    Handles // and /* */ comments plus ' " ` strings for brace languages,
    # comments plus ' " and triple-quoted strings for python.  Escapes are
    honored; raw-string edge cases degrade to treating the line as code,
    which only widens spans (never drops a matched line)."""
    # markdown/html have NO //-style comment/string syntax: prose
    # apostrophes and slashes must never toggle scanner state — raw
    # passthrough, except html comment-only lines (<!-- ... -->)
    if ext in ("md", "markdown"):
        return list(lines), [False] * len(lines), [False] * len(lines)
    if ext in ("html", "htm"):
        comment_only = [
            bool(re.match(r"^\s*<!--.*-->\s*$", ln)) for ln in lines
        ]
        return list(lines), comment_only, [False] * len(lines)
    if ext in ("hs", "lhs"):
        # haskell: -- line comments, {- -} block comments, " strings
        return _scan_haskell(lines)
    # ruby/crystal/yaml share python's comment/string shape (# comments,
    # '/" strings; the triple-quote branch is harmless noise there)
    python = ext in ("py", "rb", "yaml", "yml", "cr")
    code_lines: list[str] = []
    comment_only: list[bool] = []
    in_str_line: list[bool] = []
    in_block_comment = False
    str_delim: str | None = None  # multi-line string delimiter (py triple / js `)
    # fast path: a line with no quote/comment/escape characters needs no
    # character scan (the overwhelming majority of code lines)
    special = _PY_SPECIAL_RE if python else _BRACE_SPECIAL_RE
    for raw in lines:
        if (
            not in_block_comment
            and str_delim is None
            and special.search(raw) is None
        ):
            code_lines.append(raw)
            comment_only.append(False)
            in_str_line.append(False)
            continue
        out = []
        i = 0
        n = len(raw)
        saw_code = False
        saw_comment = in_block_comment
        fully_in_string = str_delim is not None
        while i < n:
            if str_delim is not None:
                # inside a multi-line string: look for the closing delimiter
                j = raw.find(str_delim, i)
                if j < 0:
                    out.append(" " * (n - i))
                    i = n
                else:
                    out.append(" " * (j + len(str_delim) - i))
                    i = j + len(str_delim)
                    str_delim = None
                    fully_in_string = False
                continue
            if in_block_comment:
                j = raw.find("*/", i)
                if j < 0:
                    out.append(" " * (n - i))
                    i = n
                else:
                    out.append(" " * (j + 2 - i))
                    i = j + 2
                    in_block_comment = False
                continue
            c = raw[i]
            if python:
                if c == "#":
                    saw_comment = True
                    out.append(" " * (n - i))
                    break
                if raw.startswith(("'''", '"""'), i):
                    delim = raw[i : i + 3]
                    j = raw.find(delim, i + 3)
                    if j < 0:
                        str_delim = delim
                        out.append(" " * (n - i))
                        i = n
                    else:
                        out.append(" " * (j + 3 - i))
                        i = j + 3
                    saw_code = True  # a docstring is an expression_statement
                    continue
            else:
                if raw.startswith("//", i):
                    saw_comment = True
                    out.append(" " * (n - i))
                    break
                if raw.startswith("/*", i):
                    saw_comment = True
                    j = raw.find("*/", i + 2)
                    if j < 0:
                        in_block_comment = True
                        out.append(" " * (n - i))
                        i = n
                    else:
                        out.append(" " * (j + 2 - i))
                        i = j + 2
                    continue
            if c in "'\"" or (not python and c == "`"):
                # single-line (or template) string; scan to the close
                j = i + 1
                while j < n:
                    if raw[j] == "\\":
                        j += 2
                        continue
                    if raw[j] == c:
                        break
                    j += 1
                if j >= n:
                    if c == "`" or python is False and c in "'\"":
                        # unterminated on this line: js template literals
                        # span lines; ' / " in rust&co shouldn't, but treat
                        # uniformly as multi-line to stay safe
                        str_delim = c
                    out.append(c + " " * (n - i - 1))
                    i = n
                else:
                    out.append(c + " " * (j - i - 1) + c)
                    i = j + 1
                saw_code = True
                continue
            if not c.isspace():
                saw_code = True
            out.append(c)
            i += 1
        code_lines.append("".join(out))
        comment_only.append(saw_comment and not saw_code)
        in_str_line.append(fully_in_string and not saw_code and not saw_comment)
    return code_lines, comment_only, in_str_line


def comment_runs(
    lines: list[str], ext: str,
    scanned: tuple[list[str], list[bool], list[bool]] | None = None,
) -> list[tuple[int, int]]:
    """Maximal runs of comment-only lines (1-based inclusive)."""
    _, comment_only, _ = scanned if scanned is not None else scan_lines(lines, ext)
    runs = []
    start = None
    for i, flag in enumerate(comment_only):
        if flag and start is None:
            start = i + 1
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(lines)))
    return runs


# ---------------------------------------------------------------------------
# Construct headers per language (node_type = tree-sitter kind names the
# ranking boost table understands, result_ranking.rs:21-104)
# ---------------------------------------------------------------------------

_RUST_HEADERS = [
    ("function_item", re.compile(
        r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:default\s+)?(?:const\s+)?"
        r"(?:async\s+)?(?:unsafe\s+)?(?:extern\s+\"[^\"]*\"\s+)?fn\s+\w+")),
    ("struct_item", re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?struct\s+\w+")),
    ("enum_item", re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?enum\s+\w+")),
    ("trait_item", re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?(?:unsafe\s+)?trait\s+\w+")),
    ("impl_item", re.compile(r"^\s*(?:unsafe\s+)?impl\b")),
    ("mod_item", re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?mod\s+\w+")),
    ("macro_definition", re.compile(r"^\s*macro_rules!\s*\w+")),
]

_GO_HEADERS = [
    ("method_declaration", re.compile(r"^\s*func\s+\(")),
    ("function_declaration", re.compile(r"^\s*func\s+\w+")),
    ("type_declaration", re.compile(r"^\s*type\s+\w+")),
]

_PY_DEF = re.compile(r"^\s*(?:async\s+)?def\s+\w+")
_PY_CLASS = re.compile(r"^\s*class\s+\w+")
_PY_DECOR = re.compile(r"^\s*@\w")

_JS_HEADERS = [
    ("function_declaration", re.compile(
        r"^\s*(?:export\s+)?(?:default\s+)?(?:async\s+)?function[\s*]+\w+")),
    ("class_declaration", re.compile(r"^\s*(?:export\s+)?(?:default\s+)?(?:abstract\s+)?class\s+\w+")),
    ("arrow_function", re.compile(
        r"^\s*(?:export\s+)?(?:const|let|var)\s+\w+(?:\s*:[^=]*)?\s*=\s*"
        r"(?:async\s*)?(?:\([^)]*\)|\w+)\s*(?::[^=]*)?=>")),
    ("function_expression", re.compile(
        r"^\s*(?:export\s+)?(?:const|let|var)\s+\w+\s*=\s*(?:async\s+)?function\b")),
]

_TS_EXTRA = [
    ("interface_declaration", re.compile(r"^\s*(?:export\s+)?(?:declare\s+)?interface\s+\w+")),
    ("type_alias_declaration", re.compile(r"^\s*(?:export\s+)?(?:declare\s+)?type\s+\w+\s*=")),
    ("enum_declaration", re.compile(r"^\s*(?:export\s+)?(?:declare\s+)?(?:const\s+)?enum\s+\w+")),
    ("namespace_declaration", re.compile(r"^\s*(?:export\s+)?(?:declare\s+)?namespace\s+\w+")),
]

_JS_METHOD = re.compile(
    r"^\s*(?:public\s+|private\s+|protected\s+)?(?:static\s+)?(?:async\s+)?"
    r"(?:get\s+|set\s+)?"
    r"(?!if\b|for\b|while\b|switch\b|catch\b|return\b|else\b|do\b|new\b|function\b|const\b|let\b|var\b)"
    r"(?P<name>\w+)\s*\([^)]*\)?\s*(?::[^;{]*)?\{\s*$")

_RUST_TEST_ATTR = re.compile(r"^\s*#\[\s*(?:\w+(?:::\w+)*\s*::\s*)?(?:tokio::)?test\b")
_RUST_CFG_TEST = re.compile(r"^\s*#\[\s*cfg\s*\(\s*test\s*\)")
_JS_TEST_CALL = re.compile(r"^\s*(?:describe|it|test|expect)\s*\(")

# -- java (java.rs:28-40 acceptable set; "block"/"variable_declaration"
#    deliberately unmodeled: any-brace-block parents defeat the regex
#    approximation, and "variable_declaration" is not a java grammar kind) --
_JAVA_MODS = (
    r"(?:(?:public|private|protected|abstract|final|static|sealed|"
    r"strictfp|synchronized|native|default)\s+)*"
)
_STMT_KEYWORD_BLOCK = (
    r"(?!if\b|for\b|while\b|switch\b|catch\b|return\b|new\b|throw\b|else\b"
    r"|do\b|case\b|assert\b|super\b|this\b|try\b|finally\b|break\b"
    r"|continue\b|using\b|lock\b|foreach\b|yield\b|await\b|throws\b)"
)
_JAVA_HEADERS = [
    ("class_declaration", re.compile(rf"^\s*{_JAVA_MODS}class\s+\w+")),
    ("interface_declaration", re.compile(rf"^\s*{_JAVA_MODS}@?interface\s+\w+")),
    ("enum_declaration", re.compile(rf"^\s*{_JAVA_MODS}enum\s+\w+")),
    ("static_initializer", re.compile(r"^\s*static\s*\{\s*$")),
    ("field_declaration", re.compile(
        r"^\s*(?:(?:public|private|protected|static|final|transient|"
        r"volatile)\s+)+[\w<>\[\],.?\s]+?\s+\w+(?:\s*=[^=].*)?;\s*$")),
    # constructor BEFORE method: the method form would otherwise re-read
    # the modifiers as the return type ("public Foo(..." -> type "public")
    ("constructor_declaration", re.compile(
        rf"^\s*{_JAVA_MODS}{_STMT_KEYWORD_BLOCK}[A-Z]\w*\s*\([^;]*\)\s*"
        r"(?:throws\s[\w.,\s]+)?(?:\{|$)")),
    ("method_declaration", re.compile(
        rf"^\s*{_JAVA_MODS}{_STMT_KEYWORD_BLOCK}(?:<[^>]*>\s+)?"
        # the return-type chunk must start AND end on a non-space (a
        # whitespace-only chunk would turn every `name(...)` call into a
        # declaration)
        r"[\w<>\[\],.?](?:[\w<>\[\],.?\s]*?[\w<>\[\],.?])?\s+\w+\s*\(")),
]
_JAVA_TEST_ANNOT = re.compile(r"^\s*@\s*(?:\w+\.)*Test\b")

# -- c (c.rs:40-44: function_definition/declaration/struct/enum) --
_C_KEYWORD_BLOCK = (
    r"(?!if\b|for\b|while\b|switch\b|return\b|else\b|do\b|case\b|goto\b"
    r"|sizeof\b|typedef\b|struct\b|enum\b|union\b|static_assert\b)"
)
_C_HEADERS = [
    ("struct_specifier", re.compile(r"^\s*(?:typedef\s+)?struct\b")),
    ("enum_specifier", re.compile(r"^\s*(?:typedef\s+)?enum\b")),
    ("function_definition", re.compile(
        rf"^\s*{_C_KEYWORD_BLOCK}(?:[\w*]+[\s*]+)+\w+\s*"
        r"(?:\([^;]*$|\([^;]*\)\s*\{?\s*$)")),
    ("declaration", re.compile(
        rf"^\s*{_C_KEYWORD_BLOCK}(?:[\w*]+[\s*]+)+[\w*]+[\w\[\]]*"
        r"(?:\s*=[^=].*|\s*\([^;{]*\))?;\s*$")),
]
# K&R / split-signature support: a type-only line followed by a
# `name(args...)` line opens a function_definition at the type line
_C_TYPE_LINE = re.compile(rf"^\s*{_C_KEYWORD_BLOCK}[\w*]+(?:[\s*]+[\w*]+)*[\s*]*$")
_C_KNR_NAME = re.compile(
    r"^\s*(?!if\b|for\b|while\b|switch\b|return\b|else\b|do\b)"
    r"[\w:~]+\s*\([^;]*(?:\)|$)\s*$")

# -- cpp (cpp.rs:36-45: c set + class_specifier + namespace_definition);
#    qualified names (Foo::bar, ~Foo) allowed in the function form --
_CPP_HEADERS = [
    ("class_specifier", re.compile(
        r"^\s*(?:template\s*<[^>]*>\s*)?class\s+\w+")),
    ("namespace_definition", re.compile(r"^\s*(?:inline\s+)?namespace\b")),
    ("function_definition", re.compile(
        rf"^\s*{_C_KEYWORD_BLOCK}(?:[\w*&<>:]+[\s*&]+)+[\w:~]+\s*"
        r"(?:\([^;]*$|\([^;]*\)\s*(?:const\s*)?(?:noexcept\s*)?(?:override\s*)?\{?\s*$)")),
] + _C_HEADERS[:2] + [_C_HEADERS[3]]

# -- csharp (csharp.rs:30-43 acceptable set) --
_CS_MODS = (
    r"(?:(?:public|private|protected|internal|static|sealed|abstract|"
    r"virtual|override|async|partial|readonly|extern|unsafe|new)\s+)*"
)
_CS_HEADERS = [
    ("class_declaration", re.compile(rf"^\s*{_CS_MODS}class\s+\w+")),
    ("struct_declaration", re.compile(rf"^\s*{_CS_MODS}struct\s+\w+")),
    ("interface_declaration", re.compile(rf"^\s*{_CS_MODS}interface\s+\w+")),
    ("enum_declaration", re.compile(rf"^\s*{_CS_MODS}enum\s+\w+")),
    ("namespace_declaration", re.compile(rf"^\s*{_CS_MODS}namespace\s+[\w.]+")),
    ("delegate_declaration", re.compile(rf"^\s*{_CS_MODS}delegate\b")),
    ("event_declaration", re.compile(rf"^\s*{_CS_MODS}event\b")),
    ("property_declaration", re.compile(
        rf"^\s*{_CS_MODS}[\w<>\[\],.?](?:[\w<>\[\],.?\s]*?[\w<>\[\],.?])?"
        r"\s+\w+\s*(?:\{\s*(?:get|set|init)\b|=>)")),
    ("constructor_declaration", re.compile(
        rf"^\s*{_CS_MODS}{_STMT_KEYWORD_BLOCK}[A-Z]\w*\s*\([^;]*\)\s*"
        r"(?::\s*(?:base|this)\s*\([^)]*\)\s*)?(?:\{|$)")),
    ("method_declaration", re.compile(
        rf"^\s*{_CS_MODS}{_STMT_KEYWORD_BLOCK}(?:<[^>]*>\s+)?"
        r"[\w<>\[\],.?](?:[\w<>\[\],.?\s]*?[\w<>\[\],.?])?\s+\w+\s*\(")),
]
_CS_TEST_ATTR = re.compile(
    r"^\s*\[\s*(?:\w+\.)*(?:Test|Fact|TestMethod|Theory)\b")

# -- php (php.rs:28-37 acceptable set: function_definition /
#    method_declaration / class / interface / trait). tree-sitter labels a
#    class-body function `method_declaration`; without a grammar the
#    distinction is drawn from leading modifiers (visibility/static/
#    abstract/final), so an unmodified `function f()` inside a class is
#    labeled function_definition — both kinds are acceptable parents, so
#    spans are unaffected; only is_test naming differs (documented) --
_PHP_MODS = (
    r"(?:(?:public|private|protected|static|abstract|final|readonly)\s+)+"
)
_PHP_HEADERS = [
    ("class_declaration", re.compile(
        r"^\s*(?:(?:final|abstract|readonly)\s+)*class\s+\w+")),
    ("interface_declaration", re.compile(r"^\s*interface\s+\w+")),
    ("trait_declaration", re.compile(r"^\s*trait\s+\w+")),
    ("method_declaration", re.compile(
        rf"^\s*{_PHP_MODS}function\s+&?\w+\s*\(")),
    ("function_definition", re.compile(r"^\s*function\s+&?\w+\s*\(")),
]
_PHP_TEST_DOC = re.compile(r"@test\b")

# -- swift (swift.rs:28-41 acceptable set). `class func`/`class var` are
#    method modifiers, not class declarations (negative lookahead); var/
#    let/typealias spans end at the bracket-balanced logical line (a
#    computed property's `{ ... }` balances; a plain `let x = 5` is one
#    line), because swift has no `;` terminator for _brace_end to stop at --
_SWIFT_MODS = (
    r"(?:(?:@\w+(?:\([^)]*\))?|public|private|fileprivate|internal|open|"
    r"final|static|class|override|mutating|nonmutating|convenience|"
    r"required|lazy|weak|unowned|dynamic|indirect|optional|package)\s+)*"
)
_SWIFT_HEADERS = [
    ("function_declaration", re.compile(
        rf"^\s*{_SWIFT_MODS}func\s+\S+")),
    ("class_declaration", re.compile(
        rf"^\s*{_SWIFT_MODS}class\s+(?!func\b|var\b|let\b)\w+")),
    ("struct_declaration", re.compile(rf"^\s*{_SWIFT_MODS}struct\s+\w+")),
    ("enum_declaration", re.compile(rf"^\s*{_SWIFT_MODS}enum\s+\w+")),
    ("protocol_declaration", re.compile(
        rf"^\s*{_SWIFT_MODS}protocol\s+\w+")),
    ("extension_declaration", re.compile(
        rf"^\s*{_SWIFT_MODS}extension\s+[\w.]+")),
    ("typealias_declaration", re.compile(
        rf"^\s*{_SWIFT_MODS}typealias\s+\w+")),
    ("variable_declaration", re.compile(rf"^\s*{_SWIFT_MODS}var\s+\w+")),
    ("constant_declaration", re.compile(rf"^\s*{_SWIFT_MODS}let\s+\w+")),
]
#: swift kinds whose span is the logical line, not a brace scan
_SWIFT_LINE_KINDS = frozenset({
    "variable_declaration", "constant_declaration", "typealias_declaration",
})

# -- solidity (solidity.rs:55-72 acceptable set; brace language — event/
#    error/state-variable declarations end at their `;` via _brace_end) --
_SOL_HEADERS = [
    ("contract_declaration", re.compile(
        r"^\s*(?:abstract\s+)?contract\s+\w+")),
    ("interface_declaration", re.compile(r"^\s*interface\s+\w+")),
    ("library_declaration", re.compile(r"^\s*library\s+\w+")),
    ("struct_declaration", re.compile(r"^\s*struct\s+\w+")),
    ("enum_declaration", re.compile(r"^\s*enum\s+\w+")),
    ("event_definition", re.compile(r"^\s*event\s+\w+")),
    ("error_declaration", re.compile(r"^\s*error\s+\w+")),
    ("modifier_definition", re.compile(r"^\s*modifier\s+\w+")),
    ("constructor_definition", re.compile(r"^\s*constructor\s*\(")),
    ("fallback_receive_definition", re.compile(
        r"^\s*(?:fallback|receive)\s*\(")),
    ("function_definition", re.compile(r"^\s*function\s+\w+")),
    ("user_defined_type_definition", re.compile(
        r"^\s*type\s+\w+\s+is\b")),
    ("state_variable_declaration", re.compile(
        r"^\s*(?:mapping\s*\([^;]*\)|uint\d*|int\d*|address|bool"
        r"|string|bytes\d*)\s+(?:(?:public|private|internal|constant"
        r"|immutable|override)\s+)*\w+\s*(?:=[^=>]|;)")),
]

# per-language header tables for the shared brace-block branch
_BRACE_HEADERS = {
    "rust": _RUST_HEADERS,
    "go": _GO_HEADERS,
    "java": _JAVA_HEADERS,
    "c": _C_HEADERS,
    "cpp": _CPP_HEADERS,
    "csharp": _CS_HEADERS,
    "php": _PHP_HEADERS,
    "swift": _SWIFT_HEADERS,
    "solidity": _SOL_HEADERS,
}

# -- ruby (ruby.rs is_symbol_like: method/class/module + singletons);
#    end-matched rather than brace-matched --
_RB_HEADERS = [
    ("singleton_method", re.compile(r"^\s*def\s+self\.")),
    ("method", re.compile(r"^\s*def\s+")),
    ("class", re.compile(r"^\s*class\s+[A-Z<]")),
    ("module", re.compile(r"^\s*module\s+[A-Z]")),
]
_RB_OPENER = re.compile(
    r"^\s*(?:def|class|module|if|unless|case|while|until|begin|for)\b")
_RB_DO_TAIL = re.compile(r"\bdo\s*(?:\|[^|]*\|)?\s*$")
_RB_END = re.compile(r"(?:^|;)\s*end\b")
_RB_ENDLESS_DEF = re.compile(r"^\s*def\s+[\w.?!=\[\]]+(?:\([^)]*\))?\s*=")

# -- crystal (crystal.rs:70-87 acceptable set) — ruby-shaped end matching;
#    fun/alias/type declarations inside lib bodies are single-line forms --
_CR_HEADERS = [
    ("abstract_method_def", re.compile(r"^\s*abstract\s+def\s+")),
    ("method_def", re.compile(r"^\s*def\s+")),
    ("class_def", re.compile(r"^\s*(?:abstract\s+)?class\s+[A-Z]")),
    ("module_def", re.compile(r"^\s*module\s+[A-Z]")),
    ("struct_def", re.compile(r"^\s*(?:abstract\s+)?struct\s+[A-Z]")),
    ("enum_def", re.compile(r"^\s*enum\s+[A-Z]")),
    ("macro_def", re.compile(r"^\s*macro\s+\w+")),
    ("lib_def", re.compile(r"^\s*lib\s+[A-Z]")),
    ("annotation_def", re.compile(r"^\s*annotation\s+[A-Z]")),
    ("union_def", re.compile(r"^\s*union\s+\w+")),
    ("fun_def", re.compile(r"^\s*fun\s+\w+")),
    ("alias", re.compile(r"^\s*alias\s+[A-Z]")),
    ("type_def", re.compile(r"^\s*type\s+[A-Z]")),
]
#: crystal kinds with no `end` terminator (lib-body declaration forms)
_CR_SINGLE_LINE = frozenset({
    "abstract_method_def", "fun_def", "alias", "type_def",
})
_CR_OPENER = re.compile(
    r"^\s*(?:def|class|module|struct|enum|macro|lib|annotation|union"
    r"|if|unless|case|while|until|begin|for)\b")


def _ruby_end(code_lines: list[str], start_i: int,
              opener_re=None) -> int:
    """0-based end line of a ruby/crystal def/class/module: keyword-depth
    scan over line-leading openers, trailing do-blocks and line-leading
    ``end``s. Modifier forms (``x if y``) never open because they are not
    line-leading; an endless def (``def x = expr``) is its own line."""
    opener_re = opener_re or _RB_OPENER
    if _RB_ENDLESS_DEF.match(code_lines[start_i]):
        return start_i
    depth = 0
    for j in range(start_i, len(code_lines)):
        line = code_lines[j]
        if opener_re.match(line) and not _RB_ENDLESS_DEF.match(line):
            depth += 1
        elif _RB_DO_TAIL.search(line):
            depth += 1
        depth -= len(_RB_END.findall(line))
        if depth <= 0:
            return j
    return len(code_lines) - 1


def _brace_is_test(
    lang: str, kind: str, code_lines: list[str], i: int,
    raw_lines: list[str] | None = None,
) -> bool:
    """Per-language test-node detection for the brace languages, mirroring
    each language's is_test_node: rust #[test]/#[cfg(test)] attributes,
    go Test-prefixed funcs, java @Test annotations, c# [Test]/[Fact]/...
    attributes, c/cpp test-named functions (c.rs/cpp.rs name check), php
    test-prefixed methods / @test docblocks (php.rs:39-67 — the docblock
    needs RAW lines, comments are blanked in code_lines), swift test-
    prefixed funcs / @Test attributes / XCTestCase classes
    (swift.rs:43-99)."""
    if lang == "rust":
        k = i - 1
        while k >= 0 and code_lines[k].lstrip().startswith("#["):
            if _RUST_TEST_ATTR.match(code_lines[k]) or (
                kind == "mod_item" and _RUST_CFG_TEST.match(code_lines[k])
            ):
                return True
            k -= 1
        return False
    if lang == "go":
        if kind != "function_declaration":
            return False
        name = re.search(r"func\s+(\w+)", code_lines[i])
        return bool(name and re.match(r"Test[A-Z0-9_]", name.group(1)))
    if lang == "java":
        if kind not in ("method_declaration", "constructor_declaration"):
            return False
        k = i - 1
        while k >= 0 and code_lines[k].lstrip().startswith("@"):
            if _JAVA_TEST_ANNOT.match(code_lines[k]):
                return True
            k -= 1
        return False
    if lang == "csharp":
        if kind not in ("method_declaration", "constructor_declaration"):
            return False
        k = i - 1
        while k >= 0 and code_lines[k].lstrip().startswith("["):
            if _CS_TEST_ATTR.match(code_lines[k]):
                return True
            k -= 1
        return False
    if lang in ("c", "cpp") and kind == "function_definition":
        name = re.search(r"([\w:~]+)\s*\(", code_lines[i])
        return bool(name and "test" in name.group(1).lower())
    if lang == "solidity":
        # solidity.rs:78-97: *Test/*Tests contracts; setUp / test* /
        # invariant_* functions
        if kind == "contract_declaration":
            name = re.search(r"contract\s+(\w+)", code_lines[i])
            return bool(
                name and (name.group(1).endswith("Test")
                          or name.group(1).endswith("Tests"))
            )
        if kind == "function_definition":
            name = re.search(r"function\s+(\w+)", code_lines[i])
            return bool(name and (
                name.group(1) == "setUp"
                or name.group(1).startswith("test")
                or name.group(1).startswith("invariant_")
            ))
        return False
    if lang == "php":
        if kind != "method_declaration":
            return False
        name = re.search(r"function\s+&?(\w+)", code_lines[i])
        if name and name.group(1).startswith("test"):
            return True
        # @test docblock annotation directly above (php.rs:54-62)
        if raw_lines is not None:
            k = i - 1
            while k >= 0 and raw_lines[k].lstrip().startswith(
                ("*", "/*", "//", "#")
            ):
                if _PHP_TEST_DOC.search(raw_lines[k]):
                    return True
                k -= 1
        return False
    if lang == "swift":
        if kind == "function_declaration":
            name = re.search(r"func\s+([\w`]+)", code_lines[i])
            if name and name.group(1).lstrip("`").startswith("test"):
                return True
            # @Test attribute on the header or the lines directly above
            if "@Test" in code_lines[i]:
                return True
            k = i - 1
            while k >= 0 and code_lines[k].lstrip().startswith("@"):
                if re.match(r"^\s*@Test\b", code_lines[k]):
                    return True
                k -= 1
            return False
        if kind == "class_declaration":
            return "XCTestCase" in code_lines[i]
        return False
    return False


def _brace_end(code_lines: list[str], start_i: int) -> int:
    """0-based end line of the brace block opening at/after line start_i,
    scanning string/comment-stripped text.  Declarations that hit a `;`
    before any `{` end at that line (trait method decls, `struct S;`,
    `type T = ...;`)."""
    depth = 0
    opened = False
    n = len(code_lines)
    for j in range(start_i, n):
        for c in code_lines[j]:
            if c == "{":
                depth += 1
                opened = True
            elif c == "}":
                depth -= 1
                if opened and depth <= 0:
                    return j
                if not opened and depth < 0:
                    return start_i  # enclosing close hit first: single line
        if not opened and ";" in code_lines[j]:
            return j
        if not opened and j - start_i > 11:
            return start_i  # no block near the declaration: header only
    return n - 1 if opened else start_i


def _indent_end(lines: list[str], in_str: list[bool], start_i: int) -> int:
    """0-based end line of a python suite: last line more-indented than the
    header, skipping blanks and lines inside multi-line strings."""
    indent = len(lines[start_i]) - len(lines[start_i].lstrip())
    end = start_i
    for j in range(start_i + 1, len(lines)):
        if not lines[j].strip():
            continue
        if in_str[j]:
            end = j
            continue
        if len(lines[j]) - len(lines[j].lstrip()) <= indent:
            break
        end = j
    return end


def _logical_lines(code_lines: list[str], comment_only: list[bool],
                   in_str: list[bool], candidates: list[int]) -> list[tuple[int, int]]:
    """Group candidate 0-based line indices into bracket-balanced logical
    statements (trailing-\\ and open-bracket continuation)."""
    out = []
    taken = set()
    for i in candidates:
        if i in taken:
            continue
        depth = 0
        j = i
        while j < len(code_lines):
            taken.add(j)
            for c in code_lines[j]:
                if c in "([{":
                    depth += 1
                elif c in ")]}":
                    depth -= 1
            cont = (
                depth > 0
                or code_lines[j].rstrip().endswith("\\")
                or (j + 1 < len(code_lines) and in_str[j + 1])
            )
            if not cont:
                break
            j += 1
        out.append((i, min(j, len(code_lines) - 1)))
    return out


def structural_spans(
    lines: list[str], ext: str,
    scanned: tuple[list[str], list[bool], list[bool]] | None = None,
) -> list[Span]:
    """All acceptable-parent spans for the file, sorted by (start, -end)."""
    lang = SUPPORTED_EXTS.get(ext)
    if lang is None:
        return []
    code_lines, comment_only, in_str = (
        scanned if scanned is not None else scan_lines(lines, ext)
    )
    spans: list[Span] = []
    n = len(lines)

    if lang == "python":
        # defs/classes with decorator absorption (decorated_definition)
        construct_lines: set[int] = set()
        for i in range(n):
            if in_str[i] or comment_only[i]:
                continue
            line = code_lines[i]
            kind = None
            if _PY_DEF.match(line):
                kind = "function_definition"
            elif _PY_CLASS.match(line):
                kind = "class_definition"
            if kind is None:
                continue
            end = _indent_end(lines, in_str, i)
            start = i
            # decorators directly above join the span (decorated_definition)
            k = i - 1
            while k >= 0 and _PY_DECOR.match(code_lines[k]):
                start = k
                construct_lines.add(k)
                k -= 1
            name = re.search(r"(?:def|class)\s+(\w+)", line)
            is_test = kind == "function_definition" and bool(
                name and name.group(1).startswith("test_")
            )
            spans.append(Span(start + 1, end + 1, kind, is_test))
            construct_lines.update(range(i, i + 1))
        # statement-level acceptance (python.rs:28-39): every other logical
        # line is an expression_statement / assignment span
        cands = [
            i for i in range(n)
            if code_lines[i].strip()
            and not comment_only[i]
            and not in_str[i]
            and i not in construct_lines
            and not _PY_DEF.match(code_lines[i])
            and not _PY_CLASS.match(code_lines[i])
            and not _PY_DECOR.match(code_lines[i])
        ]
        for s, e in _logical_lines(code_lines, comment_only, in_str, cands):
            stripped = code_lines[s]
            node = "assignment" if re.search(r"[^=<>!]=(?!=)", stripped) else "expression_statement"
            spans.append(Span(s + 1, e + 1, node, False, statement=True))

    elif lang in _BRACE_HEADERS:
        headers = _BRACE_HEADERS[lang]
        knr = lang in ("c", "cpp")
        for i in range(n):
            if comment_only[i] or in_str[i]:
                continue
            if (
                knr
                and i + 1 < n
                and _C_TYPE_LINE.match(code_lines[i])
                and not comment_only[i + 1]
                and _C_KNR_NAME.match(code_lines[i + 1])
            ):
                # K&R / split signature: return type on its own line, then
                # `name(args...)` — tree-sitter's function_definition node
                # starts at the type line
                end = _brace_end(code_lines, i + 1)
                spans.append(Span(
                    i + 1, end + 1, "function_definition",
                    _brace_is_test(lang, "function_definition",
                                   code_lines, i + 1),
                ))
                continue
            for kind, rx in headers:
                if rx.match(code_lines[i]):
                    if lang == "swift" and kind in _SWIFT_LINE_KINDS:
                        # no `;` terminator exists for _brace_end to stop
                        # at — the span is the bracket-balanced logical
                        # line (a computed property's { } balances inside)
                        end = _logical_lines(
                            code_lines, comment_only, in_str, [i]
                        )[0][1]
                    else:
                        end = _brace_end(code_lines, i)
                    is_test = _brace_is_test(
                        lang, kind, code_lines, i, raw_lines=lines
                    )
                    spans.append(Span(i + 1, end + 1, kind, is_test))
                    break

    elif lang in ("ruby", "crystal"):
        headers = _RB_HEADERS if lang == "ruby" else _CR_HEADERS
        opener = _RB_OPENER if lang == "ruby" else _CR_OPENER
        for i in range(n):
            if comment_only[i] or in_str[i]:
                continue
            for kind, rx in headers:
                if rx.match(code_lines[i]):
                    if kind in _CR_SINGLE_LINE:
                        end = i  # lib-body declaration form: no `end`
                    else:
                        end = _ruby_end(code_lines, i, opener)
                    name = re.search(
                        r"def\s+(?:self\.)?([\w?!]+)", code_lines[i]
                    )
                    is_test = bool(
                        kind in ("method", "singleton_method",
                                 "method_def", "abstract_method_def",
                                 "macro_def")
                        and name and name.group(1).startswith("test_")
                    )
                    if kind == "macro_def":
                        mname = re.search(r"macro\s+(\w+)", code_lines[i])
                        is_test = bool(
                            mname and mname.group(1).startswith("test_")
                        )
                    spans.append(Span(i + 1, end + 1, kind, is_test))
                    break

    elif lang == "markdown":
        # markdown.rs:102-121 structural blocks over RAW lines (no
        # comment/string stripping applies to prose)
        fence_re = re.compile(r"^ {0,3}(```|~~~)")
        heading_re = re.compile(r"^ {0,3}#{1,6}\s")
        break_re = re.compile(r"^ {0,3}(?:-{3,}|\*{3,}|_{3,})\s*$")
        quote_re = re.compile(r"^ {0,3}>")
        item_re = re.compile(r"^(\s*)(?:[-*+]|\d{1,9}[.)])\s+")
        setext_re = re.compile(r"^ {0,3}(?:=+|-+)\s*$")
        i = 0
        while i < n:
            line = lines[i]
            if not line.strip():
                i += 1
                continue
            m = fence_re.match(line)
            if m:
                fence = m.group(1)
                j = i + 1
                while j < n and not re.match(
                    rf"^ {{0,3}}{re.escape(fence)}", lines[j]
                ):
                    j += 1
                end = min(j, n - 1)
                spans.append(Span(i + 1, end + 1, "fenced_code_block"))
                i = end + 1
                continue
            if heading_re.match(line):
                spans.append(Span(i + 1, i + 1, "atx_heading"))
                i += 1
                continue
            if break_re.match(line):
                spans.append(Span(i + 1, i + 1, "thematic_break"))
                i += 1
                continue
            if quote_re.match(line):
                j = i
                while j + 1 < n and quote_re.match(lines[j + 1]):
                    j += 1
                spans.append(Span(i + 1, j + 1, "block_quote"))
                i = j + 1
                continue
            if item_re.match(line):
                start = i
                j = i
                items: list[tuple[int, int]] = []
                while j < n:
                    mi = item_re.match(lines[j]) if lines[j].strip() else None
                    if mi:
                        k = j
                        ind = len(mi.group(1))
                        while (
                            k + 1 < n and lines[k + 1].strip()
                            and item_re.match(lines[k + 1]) is None
                            and len(lines[k + 1])
                            - len(lines[k + 1].lstrip()) > ind
                        ):
                            k += 1
                        items.append((j, k))
                        j = k + 1
                    elif not lines[j].strip():
                        if j + 1 < n and item_re.match(lines[j + 1]):
                            j += 1
                        else:
                            break
                    else:
                        break
                end = items[-1][1]
                spans.append(Span(start + 1, end + 1, "list"))
                for s_, e_ in items:
                    spans.append(Span(s_ + 1, e_ + 1, "list_item"))
                i = end + 1
                continue
            # single-line setext heading (text + ===/--- underline);
            # multi-line setext degrades to paragraph + thematic_break
            # (documented approximation)
            if i + 1 < n and setext_re.match(lines[i + 1]):
                spans.append(Span(i + 1, i + 2, "setext_heading"))
                i += 2
                continue
            j = i
            while (
                j + 1 < n and lines[j + 1].strip()
                and not heading_re.match(lines[j + 1])
                and not fence_re.match(lines[j + 1])
                and not quote_re.match(lines[j + 1])
                and not item_re.match(lines[j + 1])
                and not break_re.match(lines[j + 1])
                and not setext_re.match(lines[j + 1])
            ):
                j += 1
            spans.append(Span(i + 1, j + 1, "paragraph"))
            i = j + 1

    elif lang == "yaml":
        # yaml.rs:96-111: mapping pairs and sequence items, spans by
        # indentation (stream/document whole-file parents truncated)
        key_re = re.compile(r"^(\s*)[^\s#-][^:#]*:(?:\s|$)")
        item_re = re.compile(r"^(\s*)-(?:\s|$)")
        for i in range(n):
            if comment_only[i] or in_str[i] or not code_lines[i].strip():
                continue
            kind = None
            if key_re.match(code_lines[i]):
                kind = "block_mapping_pair"
            elif item_re.match(code_lines[i]):
                kind = "block_sequence"
            if kind:
                end = _indent_end(lines, in_str, i)
                spans.append(Span(i + 1, end + 1, kind))

    elif lang == "haskell":
        # haskell.rs:77-99 acceptable parents at the TOP LEVEL (^-anchored:
        # where-locals and class members are indented and resolve to their
        # enclosing span); a function span = its type signature plus the
        # following same-name binding equations (the grammar's "bind"
        # nodes; standalone binds get their own span)
        hs_heads = [
            ("data_type", re.compile(
                r"^data\s+(?:family\s+|instance\s+)?[A-Z(]")),
            ("newtype", re.compile(r"^newtype\s+[A-Z]")),
            ("type_synomym", re.compile(
                r"^type\s+(?:family\s+|instance\s+)?[A-Z(]")),
            ("class", re.compile(r"^class\s+")),
            ("instance", re.compile(r"^instance\s+")),
            ("foreign_import", re.compile(r"^foreign\s+import\b")),
            ("foreign_export", re.compile(r"^foreign\s+export\b")),
            ("pattern_synonym", re.compile(r"^pattern\s+[A-Z]")),
        ]
        sig_re = re.compile(r"^([a-z_][\w']*)\s*(?:,\s*[a-z_][\w']*\s*)*::")
        bind_re = re.compile(r"^([a-z_][\w']*)\b")
        consumed: set[int] = set()
        i = 0
        while i < n:
            if i in consumed or comment_only[i] or not code_lines[i].strip():
                i += 1
                continue
            line = code_lines[i]
            head = next(
                ((k, rx) for k, rx in hs_heads if rx.match(line)), None
            )
            if head is not None:
                end = _indent_end(lines, in_str, i)
                spans.append(Span(i + 1, end + 1, head[0]))
                i += 1
                continue
            m = sig_re.match(line)
            if m is not None:
                nm = m.group(1)
                end = _indent_end(lines, in_str, i)
                j = end
                bind_nm = re.compile(rf"^{re.escape(nm)}\b")
                while j + 1 < n:
                    nxt = j + 1
                    if not code_lines[nxt].strip() or comment_only[nxt]:
                        # blank/comment joins only if a same-name bind
                        # follows directly
                        if nxt + 1 < n and bind_nm.match(code_lines[nxt + 1]):
                            j = nxt
                            continue
                        break
                    if bind_nm.match(code_lines[nxt]):
                        j = _indent_end(lines, in_str, nxt)
                        continue
                    break
                consumed.update(range(i, j + 1))
                is_test = nm.startswith(("prop_", "test_", "spec_"))
                spans.append(Span(i + 1, j + 1, "function", is_test))
                i = j + 1
                continue
            m = bind_re.match(line)
            if m is not None and "=" in line:
                nm = m.group(1)
                end = _indent_end(lines, in_str, i)
                is_test = nm.startswith(("prop_", "test_", "spec_"))
                spans.append(Span(i + 1, end + 1, "bind", is_test))
                consumed.update(range(i, end + 1))
                i = end + 1
                continue
            i += 1

    elif lang == "html":
        # html.rs:240-255: every element is acceptable; container/semantic
        # elements span to their matching close tag (same-tag nesting
        # count), leaf elements are single-line spans
        open_tag = re.compile(r"^\s*<(?P<tag>[A-Za-z][\w-]*)")
        containers = {
            "html", "head", "body", "header", "footer", "nav", "main",
            "section", "article", "aside", "div", "form", "table", "ul",
            "ol", "script", "style", "blockquote",
        }
        for i in range(n):
            if comment_only[i]:
                continue
            m = open_tag.match(lines[i])
            if m is None:
                continue
            tag = m.group("tag").lower()
            kind = (
                "script_element" if tag == "script"
                else "style_element" if tag == "style"
                else "element"
            )
            if tag not in containers or re.search(
                rf"<{tag}\b[^>]*/>", lines[i], re.I
            ):
                spans.append(Span(i + 1, i + 1, "element"))
                continue
            o_rx = re.compile(rf"<{tag}\b(?![^>]*/>)", re.I)
            c_rx = re.compile(rf"</{tag}\s*>", re.I)
            depth = 0
            end = n - 1
            for j in range(i, n):
                depth += len(o_rx.findall(lines[j]))
                depth -= len(c_rx.findall(lines[j]))
                if depth <= 0:
                    end = j
                    break
            spans.append(Span(i + 1, end + 1, kind))

    else:  # javascript / typescript
        headers = list(_JS_HEADERS) + (_TS_EXTRA if lang == "typescript" else [])
        construct_lines: set[int] = set()
        class_spans: list[tuple[int, int]] = []
        for i in range(n):
            if comment_only[i] or in_str[i]:
                continue
            for kind, rx in headers:
                if rx.match(code_lines[i]):
                    end = _brace_end(code_lines, i)
                    name = re.search(r"(?:function[\s*]+|class\s+|interface\s+|enum\s+|namespace\s+|type\s+|(?:const|let|var)\s+)(\w+)", code_lines[i])
                    is_test = bool(
                        name and kind in ("function_declaration", "arrow_function",
                                          "function_expression")
                        and ("test" in name.group(1) or "Test" in name.group(1))
                    )
                    spans.append(Span(i + 1, end + 1, kind, is_test))
                    construct_lines.add(i)
                    if kind in ("class_declaration", "interface_declaration"):
                        class_spans.append((i, end))
                    break
        # method_definition inside class bodies
        for cs, ce in class_spans:
            for i in range(cs + 1, ce):
                if i in construct_lines or comment_only[i] or in_str[i]:
                    continue
                m = _JS_METHOD.match(code_lines[i])
                if m:
                    end = _brace_end(code_lines, i)
                    nm = m.group("name")
                    spans.append(Span(
                        i + 1, end + 1, "method_definition",
                        "test" in nm or "Test" in nm))
                    construct_lines.add(i)
        if lang == "javascript":
            # statement-level acceptance (javascript.rs:28-49); typescript
            # deliberately has none (typescript.rs:36-57)
            closer = re.compile(r"^\s*[}\])]+[;,]?\s*$")
            cands = [
                i for i in range(n)
                if code_lines[i].strip()
                and not comment_only[i]
                and not in_str[i]
                and i not in construct_lines
                and not closer.match(code_lines[i])
                and not any(rx.match(code_lines[i]) for _, rx in headers)
            ]
            # only lines at bracket depth 0 relative to file start START a
            # statement; deeper lines are continuations picked up by the
            # logical grouping below
            depth = 0
            depth_at: list[int] = []
            for i in range(n):
                depth_at.append(depth)
                for c in code_lines[i]:
                    if c in "([{":
                        depth += 1
                    elif c in ")]}":
                        depth -= 1
            enclosing = _span_index(spans)
            starters = []
            for i in cands:
                base = 0
                sp = _innermost(enclosing, i + 1)
                if sp is not None and not sp.statement:
                    # body lines of a construct sit one brace deeper per
                    # nesting level; compute the construct's own depth
                    base = depth_at[sp.start - 1] + 1
                if depth_at[i] <= base:
                    starters.append(i)
            for s, e in _logical_lines(code_lines, comment_only, in_str, starters):
                stripped = code_lines[s].strip()
                is_test = bool(_JS_TEST_CALL.match(stripped))
                spans.append(Span(s + 1, e + 1, "expression_statement", is_test,
                                  statement=True))

    spans.sort(key=lambda s: (s.start, -s.end))
    return spans


def _span_index(spans: list[Span]) -> list[Span]:
    return sorted(spans, key=lambda s: (s.end - s.start, -s.start))


def _innermost(ordered: list[Span], line: int) -> Span | None:
    """Innermost (smallest, then latest-starting) span containing line —
    the observable result of the reference's smallest-node +
    nearest-acceptable-ancestor resolution (parser.rs:640-655)."""
    for sp in ordered:
        if sp.start <= line <= sp.end:
            return sp
    return None


_IMPORTANT_BLOCK_TYPES = frozenset({
    "function_declaration", "method_declaration", "function_item",
    "impl_item", "type_declaration", "struct_item", "block_comment",
    "compilation_unit", "global_attribute",
})  # parser.rs:1183-1193

_NODE_TYPE_PRIORITY = [
    "compilation_unit", "function_declaration", "method_declaration",
    "function_item", "impl_item", "type_declaration", "struct_item",
    "class", "class_declaration", "global_attribute",
]  # parser.rs:14-25

_FUNCTION_LIKE = frozenset({
    "function_item", "function_declaration", "method_declaration",
    "function_definition", "method_definition", "arrow_function",
    "function_expression",
})


def _comment_context(run: tuple[int, int], spans: list[Span]) -> Span | None:
    """find_comment_context_node (parser.rs:366-470): next acceptable
    sibling after the comment (outermost span starting after the run inside
    the same enclosing construct), else the previous sibling, else the
    enclosing construct."""
    cs, ce = run
    ordered = _span_index(spans)
    enclosing = None
    for sp in ordered:
        if sp.start <= cs and ce <= sp.end and not sp.statement:
            enclosing = sp
            break
    lo = enclosing.start if enclosing else 1
    hi = enclosing.end if enclosing else 10 ** 12
    following = [
        sp for sp in spans
        if sp.start > ce and lo <= sp.start and sp.end <= hi
        and (enclosing is None or sp != enclosing)
    ]
    if following:
        # outermost at the earliest position (sibling; an unacceptable
        # sibling's acceptable child collapses to the same span here)
        first = min(sp.start for sp in following)
        at = [sp for sp in following if sp.start == first]
        return max(at, key=lambda s: s.end)
    preceding = [
        sp for sp in spans
        if sp.end < cs and lo <= sp.start and sp.end <= hi
        and (enclosing is None or sp != enclosing)
    ]
    if preceding:
        last = max(sp.end for sp in preceding)
        at = [sp for sp in preceding if sp.end == last]
        return max(at, key=lambda s: s.end - s.start)
    return enclosing


class FileStructure:
    """Per-file structural analysis, independent of the query: spans,
    comment runs, and the painted per-line innermost-span array.  The
    reference caches the analog (sparse line map) per content hash
    (parser.rs LINE_MAP_CACHE, cache key ext_contenthash_allowtests);
    blocks.extract_blocks keeps a worker-local cache of these."""

    __slots__ = ("spans", "runs", "run_of", "line_span")

    def __init__(self, lines: list[str], ext: str):
        scanned = scan_lines(lines, ext)  # ONE scan shared by both passes
        self.spans = structural_spans(lines, ext, scanned)
        self.runs = comment_runs(lines, ext, scanned)
        self.run_of: dict[int, tuple[int, int]] = {}
        for r in self.runs:
            for ln in range(r[0], r[1] + 1):
                self.run_of[ln] = r
        # paint outermost -> innermost so the final owner of each line is
        # the smallest (then latest-starting) span — the observable result
        # of the reference's smallest-node + nearest-acceptable-ancestor
        # resolution (parser.rs:640-655)
        n = len(lines)
        owner: list[Span | None] = [None] * (n + 2)
        for sp in sorted(
            self.spans, key=lambda s: (-(s.end - s.start), s.start)
        ):
            hi = min(sp.end, n)
            for ln in range(sp.start, hi + 1):
                owner[ln] = sp
        self.line_span = owner


def analyze(lines: list[str], ext: str) -> FileStructure:
    return FileStructure(lines, ext)


def resolve_blocks(
    lines: list[str],
    ext: str,
    matched_lines: set[int],
    *,
    allow_tests: bool = True,
    struct: FileStructure | None = None,
) -> tuple[list[tuple[int, int, str]], set[int]]:
    """Matched lines -> deduplicated (start, end, node_type) blocks plus the
    set of covered line numbers (process_sparse_line_map,
    parser.rs:898-1160; final dedup parser.rs:1165-1260).  Lines that
    resolve to no span are left uncovered for the fallback extractor
    (file_processing.rs:1675-1700)."""
    if struct is None:
        struct = analyze(lines, ext)
    spans = struct.spans
    if not spans and not matched_lines:
        return [], set()
    run_of = struct.run_of
    line_span = struct.line_span
    seen: set[tuple[int, int]] = set()
    blocks: list[tuple[int, int, str]] = []
    ctx_memo: dict[tuple[int, int], Span | None] = {}
    for ln in sorted(matched_lines):
        if ln > len(lines):
            continue
        run = run_of.get(ln)
        if run is not None:
            if run in ctx_memo:
                ctx = ctx_memo[run]
            else:
                ctx = ctx_memo[run] = _comment_context(run, spans)
            if ctx is None:
                key = run
                if key not in seen:
                    seen.add(key)
                    blocks.append((run[0], run[1], "comment"))
                continue
            merged = (min(run[0], ctx.start), max(run[1], ctx.end))
            if merged in seen:
                continue
            seen.add(merged)
            seen.add(run)
            # complete-test-function filter (parser.rs:1005-1023): drop
            # only large merged blocks that ARE the test function
            if (
                not allow_tests
                and ctx.is_test
                and ctx.node_type in _FUNCTION_LIKE
                and merged[0] <= ctx.start
                and merged[1] == ctx.end
                and ctx.end - ctx.start > 10
            ):
                continue
            blocks.append((merged[0], merged[1], ctx.node_type))
            continue
        sp = line_span[ln]
        if sp is None:
            continue  # uncovered -> fallback path
        if not allow_tests and sp.is_test:
            continue  # parser.rs:1052-1066 skip test nodes
        key = (sp.start, sp.end)
        if key not in seen:
            seen.add(key)
            blocks.append((sp.start, sp.end, sp.node_type))

    # final containment/priority dedup (parser.rs:1165-1260): comments
    # first, then non-comments checked against the accepted list
    blocks.sort(key=lambda b: b[0])
    final: list[tuple[int, int, str]] = [
        b for b in blocks if "comment" in b[2] or b[2] in ("/*", "*/")
    ]
    for b in blocks:
        if "comment" in b[2] or b[2] in ("/*", "*/"):
            continue
        should_add = True
        remove: list[int] = []
        b_imp = b[2] in _IMPORTANT_BLOCK_TYPES
        for idx, prev in enumerate(final):
            if "comment" in prev[2] or prev[2] in ("/*", "*/"):
                continue
            if not (b[0] <= prev[1] and b[1] >= prev[0]):
                continue  # no overlap
            p_imp = prev[2] in _IMPORTANT_BLOCK_TYPES
            contained = b[0] >= prev[0] and b[1] <= prev[1]
            contains = prev[0] >= b[0] and prev[1] <= b[1]
            if contained or contains:
                if b_imp and not p_imp:
                    continue  # keep both
                if not b_imp and p_imp:
                    should_add = False
                    break
                cur_pri = (
                    _NODE_TYPE_PRIORITY.index(b[2])
                    if b[2] in _NODE_TYPE_PRIORITY else None
                )
                prev_pri = (
                    _NODE_TYPE_PRIORITY.index(prev[2])
                    if prev[2] in _NODE_TYPE_PRIORITY else None
                )
                if cur_pri is not None and prev_pri is not None:
                    if cur_pri > prev_pri:
                        remove.append(idx)
                    else:
                        should_add = False
                        break
                elif contained:
                    remove.append(idx)
                else:
                    should_add = False
                    break
            else:
                should_add = False  # partial overlap: skip current
                break
        for idx in reversed(remove):
            final.pop(idx)
        if should_add:
            final.append(b)
    final.sort(key=lambda b: b[0])
    covered = set()
    for s, e, _ in final:
        covered.update(range(s, e + 1))
    return final, covered
