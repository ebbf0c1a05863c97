"""Structural-span parser + AST block extraction (M8).

Goldens model the reference's tree-sitter block semantics:
parser.rs:898-1160 (line -> nearest acceptable parent), parser.rs:366-470
(comment context attachment), parser.rs:1165-1260 (containment/priority
dedup), file_processing.rs:1272-1590 (AST result building) and
file_processing.rs:1675-1700 (uncovered lines -> fallback)."""

from probe_ray import blocks as blk
from probe_ray import queryparse as qp
from probe_ray import structparse as sp

RUST = """\
// doc comment for the loader
pub fn load_config(path: &str) -> Config {
    let raw = read(path);
    parse(raw)
}

pub struct Config {
    pub name: String,
}

impl Config {
    pub fn merge(&mut self, other: Config) {
        self.name = other.name;
    }
}

#[test]
fn test_merge() {
    let mut a = Config::default();
    a.merge(Config::default());
    assert!(true);
    // filler to exceed the 10-line filter threshold
    let b = 1;
    let c = 2;
    let d = 3;
    let e = 4;
    let f = 5;
    assert_eq!(b + c + d + e + f, 15);
}
"""

GO = """\
// Package util does things
func UseAlpha() {
    // alpha marker
}

type Server struct {
    Addr string
}

func (s *Server) Handle(req Request) {
    route(req)
}

func TestHandle(t *testing.T) {
    check(t)
}
"""

PY = """\
# module comment
import os

CONSTANT = 42

def handle_request(req):
    body = parse(req)
    return respond(body)

@retry
def flaky_call():
    return attempt()

class Worker:
    def run(self):
        return handle_request(self.req)
"""

JS = """\
// entry point
function parseJSONToHTML5(input) {
  const out = convert(input);
  return out;
}

const handler = async (req) => {
  return respond(req);
};

class Api {
  fetch(id) {
    return this.get(id);
  }
}

describe("api", () => {});
"""

TS = """\
export interface Shape {
  area(): number;
}

type Alias = Shape | null;

export function computeArea(s: Shape): number {
  const a = s.area();
  return a;
}
"""


def _lines(src):
    return src.split("\n")


def _spans(src, ext):
    return {
        (s.start, s.end, s.node_type): s
        for s in sp.structural_spans(_lines(src), ext)
    }


def test_rust_spans():
    spans = _spans(RUST, "rs")
    assert (2, 5, "function_item") in spans
    assert (7, 9, "struct_item") in spans
    assert (11, 15, "impl_item") in spans
    assert (12, 14, "function_item") in spans
    # #[test] attribute marks the fn as a test node (rust is_test_node)
    test_fns = [s for s in spans.values() if s.is_test]
    assert len(test_fns) == 1 and test_fns[0].node_type == "function_item"


def test_go_spans_and_test_prefix():
    spans = _spans(GO, "go")
    assert (2, 4, "function_declaration") in spans
    assert (6, 8, "type_declaration") in spans
    assert (10, 12, "method_declaration") in spans
    tests = [s for s in spans.values() if s.is_test]
    assert [(s.start, s.end) for s in tests] == [(14, 16)]


def test_python_spans_statements_and_decorators():
    spans = _spans(PY, "py")
    assert (6, 8, "function_definition") in spans
    # decorated_definition absorbs the decorator line
    assert (10, 12, "function_definition") in spans
    assert (14, 16, "class_definition") in spans
    assert (15, 16, "function_definition") in spans
    # statement-level acceptance: imports and assignments are spans
    assert (2, 2, "expression_statement") in spans
    assert (4, 4, "assignment") in spans


def test_js_spans_constructs_and_statements():
    spans = _spans(JS, "js")
    assert (2, 5, "function_declaration") in spans
    assert (7, 9, "arrow_function") in spans
    assert (11, 15, "class_declaration") in spans
    assert (12, 14, "method_definition") in spans
    # describe(...) call is a test statement (javascript is_test_node)
    assert any(
        s.is_test and s.statement for s in spans.values() if s.start == 17
    )


def test_ts_no_statement_acceptance():
    spans = _spans(TS, "ts")
    assert (1, 3, "interface_declaration") in spans
    assert (5, 5, "type_alias_declaration") in spans
    assert (7, 10, "function_declaration") in spans
    # typescript.rs:36-57 has NO statement-level acceptance: body lines
    # resolve to the enclosing function, never to a statement span
    assert not any(s.statement for s in spans.values())
    blocks, covered = sp.resolve_blocks(_lines(TS), "ts", {8})
    assert blocks == [(7, 10, "function_declaration")]


def test_comment_merges_with_following_construct():
    # parser.rs:366-470 strategy 1: next acceptable sibling
    blocks, covered = sp.resolve_blocks(_lines(RUST), "rs", {1})
    assert blocks == [(1, 5, "function_item")]
    assert covered == set(range(1, 6))


def test_inner_comment_resolves_to_enclosing_function():
    blocks, _ = sp.resolve_blocks(_lines(GO), "go", {3})
    assert blocks == [(2, 4, "function_declaration")]


def test_innermost_span_wins():
    # line 13 is inside both impl_item (11-15) and function_item (12-14)
    blocks, _ = sp.resolve_blocks(_lines(RUST), "rs", {13})
    assert blocks == [(12, 14, "function_item")]


def test_containment_dedup_priority():
    # both the merged comment+fn (1-5) and the inner fn body line resolve;
    # the contained duplicate is dropped (parser.rs:1165-1260)
    blocks, _ = sp.resolve_blocks(_lines(RUST), "rs", {1, 3})
    assert blocks == [(1, 5, "function_item")]


def test_allow_tests_false_skips_test_spans():
    blocks, _ = sp.resolve_blocks(
        _lines(GO), "go", {15}, allow_tests=False
    )
    assert blocks == []  # parser.rs:1052-1066: test node skipped
    blocks, _ = sp.resolve_blocks(_lines(GO), "go", {15}, allow_tests=True)
    assert blocks == [(14, 16, "function_declaration")]


def test_uncovered_lines_fall_back():
    # rust top-level `use` lines resolve to no acceptable span
    src = "use std::fs;\n\npub fn read_all() {\n    body();\n}\n"
    lines = src.split("\n")
    blocks, covered = sp.resolve_blocks(lines, "rs", {1})
    assert blocks == [] and covered == set()
    plan, _ = qp.plan_query(["std"])
    out = blk.extract_blocks(
        lines, "src/io.rs", {0: {1}}, plan, plan.specials
    )
    # the fallback context-window extractor produced the block
    assert len(out) == 1 and out[0]["node_type"] == "import"


def test_extract_blocks_ast_tokenizes_with_filename():
    # file_processing.rs:1337-1344: AST-path tokenization always includes
    # the filename (the fallback adds it only in exact mode)
    lines = _lines(RUST)
    plan, _ = qp.plan_query(["merge"])
    out = blk.extract_blocks(
        lines, "src/special_marker_name.rs", {0: {13}}, plan, plan.specials
    )
    assert len(out) == 1
    assert out[0]["node_type"] == "function_item"
    assert "special" in out[0]["tokenized"]  # filename tokens present


def test_extract_blocks_substring_injection():
    # file_processing.rs:1165-1173: a query term substring-contained in the
    # block code joins the block terms even if tokenization missed it
    lines = _lines(JS)
    plan, _ = qp.plan_query(["respond"])
    out = blk.extract_blocks(lines, "app.js", {0: {8}}, plan, plan.specials)
    assert len(out) == 1
    assert "respond" in out[0]["tokenized"]
    assert out[0]["but"] >= 1


def test_multiline_string_does_not_open_span():
    src = 'MSG = """\ndef not_a_function():\n    pass\n"""\n\ndef real():\n    return MSG\n'
    lines = src.split("\n")
    spans = sp.structural_spans(lines, "py")
    fns = [s for s in spans if s.node_type == "function_definition"]
    assert [(s.start, s.end) for s in fns] == [(6, 7)]


def test_block_comment_not_code():
    src = "/*\nfn fake_in_comment() {\n}\n*/\npub fn real_one() {\n    body();\n}\n"
    lines = src.split("\n")
    spans = sp.structural_spans(lines, "rs")
    assert [(s.start, s.end) for s in spans] == [(5, 7)]
    # the block comment run attaches to the following real function
    blocks, _ = sp.resolve_blocks(lines, "rs", {2})
    assert blocks == [(1, 7, "function_item")]


JAVA = """\
public class OrderService {
    private final Repo repo;

    public OrderService(Repo repo) {
        this.repo = repo;
    }

    @Override
    public List<Order> findAll(String userId) {
        return repo.query(userId);
    }

    @Test
    public void testFindAllEmpty() {
        assertEquals(0, findAll("x").size());
    }

    static {
        init();
    }
}
"""


def test_java_spans_and_test_annotation():
    spans = _spans(JAVA, "java")
    assert (1, 21, "class_declaration") in spans
    assert (2, 2, "field_declaration") in spans
    assert (4, 6, "constructor_declaration") in spans
    assert (9, 11, "method_declaration") in spans
    assert (18, 20, "static_initializer") in spans
    tests = [s for s in spans.values() if s.is_test]
    assert [(s.start, s.end) for s in tests] == [(14, 16)]
    # statement lines inside methods are NOT declarations (the
    # whitespace-chunk false positive this table guards against)
    assert not any(s.start == 15 for s in spans.values())
    assert not any(s.start == 19 for s in spans.values())


C = """\
static int counter = 0;

struct point {
    int x;
    int y;
};

static int
add_points(struct point a, struct point b)
{
    return a.x + b.x;
}

int test_add(void) {
    return add_points(p, q);
}
"""


def test_c_spans_and_test_name():
    spans = _spans(C, "c")
    assert (1, 1, "declaration") in spans
    assert (3, 6, "struct_specifier") in spans
    # K&R-style return type on its own line: the definition starts at the
    # type line (tree-sitter function_definition span)
    assert (8, 12, "function_definition") in spans
    tests = [s for s in spans.values() if s.is_test]
    assert [(s.start, s.end) for s in tests] == [(14, 16)]


CPP = """\
namespace geo {

class Point {
 public:
  double x, y;
};

double Point::norm() const {
  return x * x + y * y;
}

}  // namespace geo
"""


def test_cpp_spans():
    spans = _spans(CPP, "cpp")
    assert (1, 12, "namespace_definition") in spans
    assert (3, 6, "class_specifier") in spans
    # qualified method definition outside the class
    assert (8, 10, "function_definition") in spans


CSHARP = """\
namespace Acme.Billing
{
    public class Invoice
    {
        public int Total { get; set; }

        public Invoice(int total) : base(total)
        {
            Total = total;
        }

        public decimal Sum(decimal rate) =>
            Total * rate;

        [Fact]
        public void SumHandlesZero()
        {
            Assert.Equal(0, Sum(0));
        }
    }
}
"""


def test_csharp_spans_and_fact_attribute():
    spans = _spans(CSHARP, "cs")
    assert (1, 21, "namespace_declaration") in spans
    assert (3, 20, "class_declaration") in spans
    assert (5, 5, "property_declaration") in spans
    assert (7, 10, "constructor_declaration") in spans
    # expression-bodied method ends at the terminating semicolon
    assert (12, 13, "method_declaration") in spans
    tests = [s for s in spans.values() if s.is_test]
    assert [(s.start, s.end) for s in tests] == [(16, 19)]


RUBY = """\
module Billing
  class Invoice
    def initialize(total)
      @total = total
    end

    def self.from_json(json)
      new(json[:total])
    end

    def test_total_parses
      lines.each do |l|
        check(l)
      end
    end

    def short = @total
  end
end
"""


def test_ruby_spans_end_matching():
    spans = _spans(RUBY, "rb")
    assert (1, 19, "module") in spans
    assert (2, 18, "class") in spans
    assert (3, 5, "method") in spans
    assert (7, 9, "singleton_method") in spans
    # do-block nesting inside the method body is depth-counted
    assert (11, 15, "method") in spans
    # ruby 3 endless def is a single-line span (no `end` consumed)
    assert (17, 17, "method") in spans
    tests = [s for s in spans.values() if s.is_test]
    assert [(s.start, s.end) for s in tests] == [(11, 15)]


PHP = """\
<?php
final class Invoice {
    public function addLine(int $amount): void {
        $this->total += $amount;
    }

    /**
     * @test
     */
    public function checksTotals(): void {
        assert($this->total >= 0);
    }

    public function testAdds(): void {
        $this->addLine(1);
    }
}

interface Payable {
    public function pay(): bool;
}

trait Logging {
    public function log(string $m): void {
    }
}

function format_total(int $t): string {
    return "total: $t";
}
"""


def test_php_spans_and_test_detection():
    spans = _spans(PHP, "php")
    assert (2, 17, "class_declaration") in spans
    assert (3, 5, "method_declaration") in spans
    assert (19, 21, "interface_declaration") in spans
    # bodyless interface method decl ends at its `;`
    assert (20, 20, "method_declaration") in spans
    assert (23, 26, "trait_declaration") in spans
    assert (28, 30, "function_definition") in spans
    # test methods: testAdds by name prefix, checksTotals by @test docblock
    tests = sorted((s.start, s.end) for s in spans.values() if s.is_test)
    assert tests == [(10, 12), (14, 16)]
    # top-level function named format_total is NOT a test (php.rs tests
    # method_declaration only)
    assert not spans[(28, 30, "function_definition")].is_test


SWIFT = """\
import Foundation

public struct Point {
    var x: Double
    let origin = 0.0

    func norm() -> Double {
        return x * x
    }
}

final class Calculator: BaseCalc {
    class func shared() -> Calculator {
        return Calculator()
    }
}

extension Point: CustomStringConvertible {
    public var description: String {
        return "p"
    }
}

protocol Shape {
    func area() -> Double
}

enum Direction {
    case north
}

typealias Distance = Double

func testNorm() {
    assert(Point(x: 1).norm() == 1)
}

class PointTests: XCTestCase {
    func helper() {}
}
"""


def test_swift_spans_and_test_detection():
    spans = _spans(SWIFT, "swift")
    assert (3, 10, "struct_declaration") in spans
    assert (4, 4, "variable_declaration") in spans
    assert (5, 5, "constant_declaration") in spans
    assert (7, 9, "function_declaration") in spans
    # `class func` is a method modifier, not a class declaration
    assert (12, 16, "class_declaration") in spans
    assert (13, 15, "function_declaration") in spans
    assert not any(
        s.node_type == "class_declaration" and s.start == 13
        for s in spans.values()
    )
    assert (18, 22, "extension_declaration") in spans
    # computed property spans its balanced braces (logical line), and a
    # plain var/let never swallows a later block
    assert (19, 21, "variable_declaration") in spans
    assert (24, 26, "protocol_declaration") in spans
    assert (25, 25, "function_declaration") in spans
    assert (28, 30, "enum_declaration") in spans
    assert (32, 32, "typealias_declaration") in spans
    # test detection: func test* prefix and XCTestCase subclass
    tests = sorted((s.start, s.end, s.node_type)
                   for s in spans.values() if s.is_test)
    assert (34, 36, "function_declaration") in tests
    assert (38, 40, "class_declaration") in tests
    assert len(tests) == 2


MARKDOWN = """\
# Title

Intro paragraph line one
continues on line two.

## Usage

- first item
  with a continuation
- second item

> quoted wisdom
> second quote line

```python
print("fenced")
```

---

Setext heading
==============
"""


def test_markdown_spans():
    spans = _spans(MARKDOWN, "md")
    assert (1, 1, "atx_heading") in spans
    assert (3, 4, "paragraph") in spans
    assert (6, 6, "atx_heading") in spans
    assert (8, 10, "list") in spans
    assert (8, 9, "list_item") in spans
    assert (10, 10, "list_item") in spans
    assert (12, 13, "block_quote") in spans
    assert (15, 17, "fenced_code_block") in spans
    assert (19, 19, "thematic_break") in spans
    assert (21, 22, "setext_heading") in spans
    # prose apostrophes/slashes never toggle scanner state: every span
    # above is derived from raw lines
    assert not any(s.is_test for s in spans.values())


YAML = """\
server:
  host: localhost
  ports:
    - 8080
    - 9090
logging:
  level: info
# trailing comment
single: value
"""


def test_yaml_spans():
    spans = _spans(YAML, "yaml")
    assert (1, 5, "block_mapping_pair") in spans  # server block
    assert (2, 2, "block_mapping_pair") in spans
    assert (3, 5, "block_mapping_pair") in spans  # ports block
    assert (4, 4, "block_sequence") in spans
    assert (5, 5, "block_sequence") in spans
    assert (6, 7, "block_mapping_pair") in spans
    assert (9, 9, "block_mapping_pair") in spans
    # comment line opens no span
    assert not any(s.start == 8 for s in spans.values())


SOLIDITY = """\
contract Token {
    mapping(address => uint256) public balances;
    event Transfer(address a, address b);
    modifier onlyOwner() {
        _;
    }
    constructor(uint256 supply) {
    }
    function transfer(address to) public {
        balances[to] += 1;
    }
    function testTransfer() public {
    }
}

contract TokenTest {
}

interface IToken {
    function total() external;
}
"""


def test_solidity_spans_and_test_detection():
    spans = _spans(SOLIDITY, "sol")
    assert (1, 14, "contract_declaration") in spans
    assert (2, 2, "state_variable_declaration") in spans
    assert (3, 3, "event_definition") in spans
    assert (4, 6, "modifier_definition") in spans
    assert (7, 8, "constructor_definition") in spans
    assert (9, 11, "function_definition") in spans
    assert (19, 21, "interface_declaration") in spans
    assert (20, 20, "function_definition") in spans
    tests = sorted(
        (s.start, s.end, s.node_type)
        for s in spans.values() if s.is_test
    )
    assert (12, 13, "function_definition") in tests   # test* name
    assert (16, 17, "contract_declaration") in tests  # *Test contract
    assert len(tests) == 2


CRYSTAL = """\
module Billing
  class Calc
    def add(x, y)
      x + y
    end

    def test_add
      add(1, 2)
    end
  end

  enum Mode
    A
  end

  alias Num = Int32
end

lib LibC
  fun strlen(s : UInt8*) : Int32
  type FileDesc = Int32
end

macro define_getter(name)
end
"""


def test_crystal_spans_end_matching():
    spans = _spans(CRYSTAL, "cr")
    assert (1, 17, "module_def") in spans
    assert (2, 10, "class_def") in spans
    assert (3, 5, "method_def") in spans
    assert (12, 14, "enum_def") in spans
    assert (16, 16, "alias") in spans
    assert (19, 22, "lib_def") in spans
    assert (20, 20, "fun_def") in spans      # lib declaration: no `end`
    assert (21, 21, "type_def") in spans
    assert (24, 25, "macro_def") in spans
    tests = [(s.start, s.end) for s in spans.values() if s.is_test]
    assert tests == [(7, 9)]


HASKELL = """\
module Calc where

-- | shapes
data Shape = Circle Double
           | Square Double

newtype Total = Total Double

class Area a where
  area :: a -> Double

instance Area Shape where
  area (Circle r) = r * r
  area (Square s) = s * s

addOne :: Int -> Int
addOne 0 = 1
addOne x = x + 1

limit = 42

prop_addOne :: Int -> Bool
prop_addOne x = addOne x > x
"""


def test_haskell_spans_function_grouping():
    spans = _spans(HASKELL, "hs")
    assert (4, 5, "data_type") in spans
    assert (7, 7, "newtype") in spans
    assert (9, 10, "class") in spans
    assert (12, 14, "instance") in spans
    # the function span groups the signature with BOTH binding equations
    assert (16, 18, "function") in spans
    # a standalone top-level bind gets its own span
    assert (20, 20, "bind") in spans
    tests = [(s.start, s.end) for s in spans.values() if s.is_test]
    assert tests == [(22, 23)]  # prop_ prefix (haskell.rs:112-119)
    # indented class members never open top-level spans
    assert not any(s.start == 10 for s in spans.values())


def test_haskell_brace_dash_brace_opens_block_comment():
    """``{-}`` opens a block comment: its ``-}`` shares the opener's dash,
    so the comment runs on to the next ``-}``."""
    lines = ["{-}", "f x = x", "-}", "g y = y"]
    code, comment_only, _ = sp.scan_lines(lines, "hs")
    assert code[1].strip() == "" and code[2].strip() == ""
    assert comment_only[:3] == [True, True, True]
    assert code[3] == "g y = y" and not comment_only[3]


HTML = """\
<html>
<head>
  <title>T</title>
</head>
<body>
  <!-- navigation -->
  <nav>
    <div>menu</div>
  </nav>
  <section>
    <p>text</p>
    <img src="x.png"/>
  </section>
  <script>
    run();
  </script>
</body>
</html>
"""


def test_html_spans_tag_matching():
    spans = _spans(HTML, "html")
    assert (1, 18, "element") in spans          # <html>
    assert (2, 4, "element") in spans           # <head>
    assert (3, 3, "element") in spans           # <title> leaf
    assert (5, 17, "element") in spans          # <body>
    assert (7, 9, "element") in spans           # <nav>
    assert (8, 8, "element") in spans           # <div>menu</div> same line
    assert (10, 13, "element") in spans         # <section>
    assert (12, 12, "element") in spans         # self-closing <img/>
    assert (14, 16, "script_element") in spans
    # the comment line opens no span
    assert not any(s.start == 6 for s in spans.values())
