"""A small textual language for index-notation tensor expressions.

Surface syntax: tensor references subscripted with index names and ``~``
complement marks (``a(i)``, ``y(~j,i)``), the operator set
``* \\ / .* ./ .\\ .^ + - ' .' == ~= < > <= >= & |``, bracket concatenation
(``[x y]``, ``[x; y]``), and the functions ``cat``, ``trace``, ``diag``,
``isequal``, ``abs``, ``log``, ``exp``, ``conj``, ``step``, ``round``,
``ones``, ``zeros``, ``rand``.  ``~`` complements an index inside subscripts
and is logical NOT on a tensor.  Index names intern to one identity per
session.

Precedence, loosest first; every binary level is left-associative:

1. ``&`` ``|``
2. ``==`` ``~=`` ``<`` ``>`` ``<=`` ``>=``
3. ``+`` ``-``
4. ``*`` ``\\`` ``/`` ``.*`` ``./`` ``.\\`` ``.^``
5. prefix ``-`` ``+`` ``~``
6. postfix ``'`` ``.'``

Prefix binds looser than postfix, so ``-a'`` is ``-(a')``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from . import ewise, lattice, pagewise
from .errors import (
    BoundsError, DataFileError, EngineError, ExprSyntaxError, IndexArityError, SubscriptKindError,
    UnknownNameError,
)
from .indices import IndexHandle, fresh
from .tensor import _MAX_DEGREE, Tensor, _operand, assign, from_array

__all__ = [
    "parse",
    "print_ast",
    "Environment",
    "evaluate",
    "run_script",
    "ScriptReport",
]

# -- tokens ------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<skip>[ \t\r]+|#[^\n]*)"
    r"|(?P<num>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d*)?)"
    r"|(?P<name>[^\W\d]\w*)"
    r"|(?P<op>\.[*/\\^']|[=~<>]=|[-+*/\\<>=&|~'(),;:\[\]])"
    r"|(?P<bad>.)"
)


class _Tok(NamedTuple):
    kind: str  # 'name' | 'num' | 'op' | 'end'
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", line, col)
        elif kind != "skip":
            toks.append(_Tok(kind, m.group(), line, col))
    toks.append(_Tok("end", "", line, len(text) - line_start + 1))
    return toks


# -- syntax tree ---------------------------------------------------------------


@dataclass(frozen=True)
class IndexSub:
    name: str
    complemented: bool = False


@dataclass(frozen=True)
class NumSub:
    value: float


@dataclass(frozen=True)
class ColonSub:
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class TensorRef:
    name: str
    subs: tuple | None = None


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' | 'pos' | 'not'
    operand: Any


@dataclass(frozen=True)
class Postfix:
    op: str  # "'" | ".'"
    operand: Any


@dataclass(frozen=True)
class Binary:
    op: str
    lhs: Any
    rhs: Any


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


@dataclass(frozen=True)
class Bracket:
    rows: tuple  # tuple of tuples of expressions


@dataclass(frozen=True)
class Assign:
    target: TensorRef
    value: Any


# every function of the language, with the fewest and the most arguments it
# takes; a call always has one, and cat's first is the index or dimension
_FUNCTIONS = {
    "cat": (2, math.inf), "trace": (1, 1), "diag": (1, 1), "isequal": (1, math.inf),
    "abs": (1, 1), "log": (1, 1), "exp": (1, 1), "conj": (1, 1), "step": (1, 1), "round": (1, 2),
    "ones": (1, 2 + _MAX_DEGREE), "zeros": (1, 2 + _MAX_DEGREE), "rand": (1, 2 + _MAX_DEGREE),
}
# the precedence table of the module docstring, shared by the parser and the printer
_PREC = {
    "&": 1, "|": 1,
    "==": 2, "~=": 2, "<": 2, ">": 2, "<=": 2, ">=": 2,
    "+": 3, "-": 3,
    "*": 4, "\\": 4, "/": 4, ".*": 4, "./": 4, ".\\": 4, ".^": 4,
}
_PREFIX_PREC, _POSTFIX_PREC = 5, 6
_PREFIX = {"-": "neg", "+": "pos", "~": "not"}


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ExprSyntaxError(msg, t.line, t.col)

    # statement := 'assert' expr | lhs '=' expr | expr
    def statement(self):
        if self.peek().kind == "name" and self.peek().text == "assert":
            self.next()
            return ("assert", self.expr())
        node = self.expr()
        if self.peek().text == "=":
            if not isinstance(node, TensorRef):
                self.fail("assignment target must be a tensor reference")
            self.next()
            return ("assign", Assign(node, self.expr()))
        return ("expr", node)

    def expr(self, level: int = 1):
        """An operand followed by every binary operator of precedence at least
        ``level``; each right operand only takes operators that bind tighter."""
        node = self.prefix()
        while _PREC.get(self.peek().text, 0) >= level:
            op = self.next().text
            node = Binary(op, node, self.expr(_PREC[op] + 1))
        return node

    def prefix(self):
        op = _PREFIX.get(self.peek().text)
        if op is None:
            return self.postfix()
        self.next()
        return Unary(op, self.prefix())

    def postfix(self):
        node = self.primary()
        while self.peek().text in ("'", ".'"):
            node = Postfix(self.next().text, node)
        return node

    def primary(self):
        t = self.peek()
        if t.kind == "num":
            return Num(self.number())
        if t.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if t.text == "[":
            return self.bracket()
        if t.kind == "name":
            self.next()
            if self.peek().text == "(":
                if t.text in _FUNCTIONS:  # cat's first argument is a subscript
                    first = self.sub_item if t.text == "cat" else self.expr
                    return Call(t.text, self.arglist(first, self.expr))
                return TensorRef(t.text, self.arglist(self.sub_item, self.sub_item))
            return TensorRef(t.text, None)
        self.fail(f"unexpected token {t.text!r}")

    def number(self) -> float:
        t = self.next()
        try:
            value = float(t.text)
        except ValueError:
            raise ExprSyntaxError(f"malformed number {t.text!r}", t.line, t.col) from None
        if not math.isfinite(value):
            raise ExprSyntaxError(f"number {t.text!r} is too large", t.line, t.col)
        return value

    def arglist(self, first, rest) -> tuple:
        """'(' first (',' rest)* ')'"""
        self.expect("(")
        items = [first()]
        while self.peek().text == ",":
            self.next()
            items.append(rest())
        self.expect(")")
        return tuple(items)

    def sub_item(self):
        t = self.peek()
        if t.text == ":":
            self.next()
            return ColonSub()
        if t.text == "~":
            self.next()
            name = self.next()
            if name.kind != "name":
                raise ExprSyntaxError("expected an index name after '~'", name.line, name.col)
            return IndexSub(name.text, True)
        if t.kind == "name":
            self.next()
            return IndexSub(t.text, False)
        if t.kind == "num":
            return NumSub(self.number())
        self.fail("subscripts must be index names, numbers, or ':'")

    def bracket(self) -> Bracket:
        # items split where the next token cannot continue an expression, so
        # `[a - b]` reads as one item a-b while `[a b]` reads as two items
        start = self.expect("[")
        rows: list[list] = [[]]
        while True:
            t = self.peek()
            if t.kind == "end":
                raise ExprSyntaxError("unterminated bracket", start.line, start.col)
            if t.text == "]":
                self.next()
                break
            if t.text == ";":
                self.next()
                rows.append([])
                continue
            rows[-1].append(self.expr())
        if all(not r for r in rows):
            raise ExprSyntaxError("empty brackets", start.line, start.col)
        return Bracket(tuple(tuple(r) for r in rows if r))


def parse(text: str):
    """Parse one statement; returns ('expr'|'assign'|'assert', node)."""
    p = _Parser(_lex(text))
    kind, node = p.statement()
    if p.peek().text == ";":
        p.next()
    trailing = p.peek()
    if trailing.kind != "end":
        raise ExprSyntaxError(
            f"unexpected trailing token {trailing.text!r}", trailing.line, trailing.col
        )
    return kind, node


# -- printing ------------------------------------------------------------------

_PREFIX_MARK = {op: mark for mark, op in _PREFIX.items()}


def print_ast(node) -> str:
    """Render a parsed expression back to source text."""
    return _fmt(node, 0)


def _fmt(node, outer: int) -> str:
    """``node`` as text, in parentheses when it binds looser than ``outer``."""
    if isinstance(node, Num):
        return _num_text(node.value)
    if isinstance(node, TensorRef):
        if node.subs is None:
            return node.name
        return f"{node.name}({','.join(_fmt_sub(s) for s in node.subs)})"
    if isinstance(node, Call):
        return f"{node.fn}({','.join(_fmt_sub(a) for a in node.args)})"
    if isinstance(node, Bracket):
        return f"[{'; '.join(_fmt_row(row) for row in node.rows)}]"
    if isinstance(node, Assign):
        return f"{_fmt(node.target, 0)} = {_fmt(node.value, 0)}"
    if isinstance(node, Unary):
        level, text = _PREFIX_PREC, _PREFIX_MARK[node.op] + _fmt(node.operand, _PREFIX_PREC)
    elif isinstance(node, Postfix):
        level, text = _POSTFIX_PREC, _before_op(_fmt(node.operand, _POSTFIX_PREC), node.op)
    elif isinstance(node, Binary):
        level = _PREC[node.op]
        text = _before_op(_fmt(node.lhs, level), node.op) + _fmt(node.rhs, level + 1)
    else:
        raise TypeError(f"cannot print {node!r}")
    return f"({text})" if level < outer else text


def _before_op(text: str, op: str) -> str:
    # "1.*b" would lex as the number "1." times b
    return f"{text} {op}" if op[0] == "." and text[-1].isdigit() else text + op


def _fmt_row(row) -> str:
    items = [_fmt(item, 0) for item in row]
    if any(text[0] in "+-(" for text in items[1:]):
        # "[a -b]" reads as one item a-b and "[a (b)]" as a subscripted a;
        # once every item is in parentheses, none can continue the one before
        items = [f"({text})" for text in items]
    return " ".join(items)


def _fmt_sub(s) -> str:
    if isinstance(s, IndexSub):
        return f"~{s.name}" if s.complemented else s.name
    if isinstance(s, NumSub):
        return _num_text(s.value)
    if isinstance(s, ColonSub):
        return ":"
    return _fmt(s, 0)


def _num_text(v: float) -> str:
    """The shortest text that lexes back to ``v``: ``2``, ``0.5``, ``1e+300``."""
    return repr(v).removesuffix(".0")


# -- environment and evaluation ------------------------------------------------


@dataclass
class Environment:
    """Named tensors, session-scoped index names, and the random source."""

    tensors: dict[str, Tensor] = field(default_factory=dict)
    index_table: dict[str, IndexHandle] = field(default_factory=dict)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    @classmethod
    def with_seed(cls, seed: int) -> "Environment":
        if seed < 0:
            raise BoundsError(f"seed must be non-negative, got {seed}")
        return cls(rng=np.random.default_rng(seed))

    def index(self, name: str) -> IndexHandle:
        h = self.index_table.get(name)
        if h is None:
            h = fresh()
            self.index_table[name] = h
        return h

    def index_name(self, handle_id: int) -> str | None:
        for name, h in self.index_table.items():
            if h.id == handle_id:
                return name
        return None


def _integer(node, what: str) -> int:
    """The one rule for numeric subscripts, ``cat``'s dimension number and
    dimension sizes: a numeric literal with an integer value is that integer;
    anything else, a fractional literal included, raises ``SubscriptKindError``."""
    if not isinstance(node, (Num, NumSub)) or node.value != int(node.value):
        raise SubscriptKindError(f"{what} must be an integer literal")
    return int(node.value)


def _handle(sub: IndexSub, env: Environment) -> IndexHandle:
    h = env.index(sub.name)
    return ~h if sub.complemented else h


# function names, looked up per call, so a rebound ``lattice.product`` takes effect
_LATTICE_OPS = {"*": "product", "\\": "solve_left", "/": "solve_right"}
_EWISE_NAMES = {"&": "and", "|": "or"}  # every other operator is its own ewise name


def evaluate(node, env: Environment):
    """Evaluate a parsed expression against an environment."""
    if isinstance(node, Num):
        return _operand(node.value)
    if isinstance(node, TensorRef):
        if node.name not in env.tensors:
            raise UnknownNameError(f"unknown name {node.name!r}")
        t = env.tensors[node.name]
        if node.subs is None:
            return t
        if all(isinstance(s, IndexSub) for s in node.subs):
            return t.reindex([_handle(s, env) for s in node.subs])
        if any(isinstance(s, IndexSub) for s in node.subs):
            raise SubscriptKindError("subscripts mix index names with numbers")
        subs = [":" if isinstance(s, ColonSub) else _integer(s, "a numeric subscript")
                for s in node.subs]
        return _fresh_tensor(t.slice(subs))
    if isinstance(node, Unary):
        val = evaluate(node.operand, env)
        return val if node.op == "pos" else ewise.ewise_unary(node.op, val)
    if isinstance(node, Postfix):
        val = evaluate(node.operand, env)
        if node.op == "'":
            return pagewise.page_ctranspose(val)
        return pagewise.page_transpose(val)
    if isinstance(node, Binary):
        lhs = evaluate(node.lhs, env)
        rhs = evaluate(node.rhs, env)
        if node.op in _LATTICE_OPS:
            return getattr(lattice, _LATTICE_OPS[node.op])(lhs, rhs)
        return ewise.ewise_binary(_EWISE_NAMES.get(node.op, node.op), lhs, rhs)
    if isinstance(node, Call):
        return _call(node, env)
    if isinstance(node, Bracket):
        return pagewise.concat(
            0, [pagewise.concat(1, [evaluate(item, env) for item in row]) for row in node.rows])
    if isinstance(node, Assign):
        value = evaluate(node.value, env)
        target = node.target
        if target.subs is None:
            env.tensors[target.name] = _operand(value)
            return env.tensors[target.name]
        if not all(isinstance(s, IndexSub) for s in target.subs):
            raise SubscriptKindError("assignment subscripts must be index names")
        handles = [_handle(s, env) for s in target.subs]
        result = assign(handles, _operand(value))
        env.tensors[target.name] = result
        return result
    raise TypeError(f"cannot evaluate {node!r}")


def _fresh_tensor(arr: np.ndarray) -> Tensor:
    """``arr`` as a tensor with a fresh true-variant index per dimension past
    the second; one dimension reads as degree one (1x1xn), as ``ones(n)``."""
    return from_array(arr.reshape(1, 1, -1) if arr.ndim == 1 else arr)[0]


def _call(node: Call, env: Environment):
    fn, args = node.fn, node.args
    fewest, most = _FUNCTIONS[fn]
    if not fewest <= len(args) <= most:
        bound, n = ("at most", most) if len(args) > most else ("at least", fewest)
        raise IndexArityError(f"{fn} takes {bound} {n} argument{'s' * (n != 1)}, got {len(args)}")
    if fn == "cat":
        where = args[0]
        operands = [evaluate(a, env) for a in args[1:]]
        if isinstance(where, IndexSub):
            return pagewise.concat(_handle(where, env), operands)
        if isinstance(where, NumSub):
            return pagewise.concat(_integer(where, "cat's dimension number") - 1, operands)
        raise SubscriptKindError("cat needs an index name or dimension number first")
    if fn == "isequal":
        return ewise.equal_all([evaluate(a, env) for a in args])
    if fn in ("ones", "zeros", "rand"):
        dims = tuple(_integer(a, "a dimension size") for a in args)
        try:
            if fn == "ones":
                arr = np.ones(dims)
            elif fn == "zeros":
                arr = np.zeros(dims)
            else:
                arr = env.rng.uniform(size=dims)
        except (MemoryError, ValueError):  # too large to allocate, or to address
            raise BoundsError(
                f"{fn}({', '.join(map(str, dims))}) is too large to allocate") from None
        return _fresh_tensor(arr)
    first, *rest = [evaluate(a, env) for a in args]
    if fn == "trace":
        return pagewise.page_trace(first)
    if fn == "diag":
        return pagewise.page_diag(first)
    return ewise.ewise_unary(fn, first, *(_operand(p).entries for p in rest))


# -- scripts ---------------------------------------------------------------------


@dataclass
class ScriptReport:
    path: str
    statements: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _truthy(value) -> bool:
    entries = _operand(value).entries
    return entries.size > 0 and bool(np.all(entries != 0))


def _index_name(h: IndexHandle, env: Environment | None) -> str | None:
    """The name a script gave ``h``'s identity, or None for one it never named."""
    return env.index_name(h.id) if env else None


def _label(h: IndexHandle, env: Environment | None, unnamed: str | None = None) -> str:
    """``h`` as a script writes it; an identity it never named reads as
    ``unnamed``, or as ``i<id>`` when that is None."""
    name = _index_name(h, env) or unnamed
    return repr(h) if name is None else name if h.variant else "~" + name


def _error_text(exc: EngineError, env: Environment | None) -> str:
    """``exc``'s message with every index it names labelled as in :func:`summarize`,
    except that one the script never named reads as ``(unnamed)``: the user
    can neither see nor write its ``i<id>``."""
    return exc.render(lambda v: _label(v, env, "(unnamed)") if isinstance(v, IndexHandle) else str(v))


def summarize(value, env: Environment | None = None) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    t = value
    dims = "x".join(str(d) for d in t.entries.shape)
    flat = t.entries.ravel()
    head = ", ".join(_fmt_num(v) for v in flat[:4])
    if flat.size > 4:
        head += ", ..."
    idx = f" [{' '.join(_label(h, env) for h in t.indices)}]" if t.indices else ""
    return f"degree {t.degree}, {dims}{idx}, {t.kind}: [{head}]"


def _fmt_num(v) -> str:
    if isinstance(v, (np.bool_, bool)):
        return "1" if v else "0"
    if isinstance(v, complex):
        return f"{v.real:.6g}{v.imag:+.6g}j"
    return f"{float(v):.6g}"


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_entries(x: np.ndarray) -> list:
    """``x.tolist()`` with each non-finite entry as the string ``float()``
    reads back, since JSON has no token for NaN or the infinities."""
    out = x.astype(object)
    bad = ~np.isfinite(x)
    out[bad] = [_NON_FINITE[str(v)] for v in x[bad]]
    return out.tolist()


def to_json_record(value, env: Environment | None = None) -> dict:
    """JSON-friendly {value, dims, indices} record for one result; non-finite
    entries are the strings ``"NaN"``, ``"Infinity"`` and ``"-Infinity"``."""
    if isinstance(value, (bool, np.bool_)):
        return {"value": bool(value), "dims": [], "indices": []}
    arr = value.entries
    if np.iscomplexobj(arr):
        payload = {"real": _json_entries(arr.real), "imag": _json_entries(arr.imag)}
    else:
        payload = _json_entries(arr)
    indices = [{"name": _index_name(h, env), "variant": bool(h.variant)} for h in value.indices]
    return {"value": payload, "dims": list(arr.shape), "indices": indices}


def run_script(path, env: Environment | None = None, emit=print, json_records=False) -> ScriptReport:
    """Execute a script of statements, one per line; stops at the first failure.

    Lines are statements; ``#`` starts a comment; ``assert <expr>`` fails the
    run when the expression is not all-true.  With ``json_records`` each
    result emits a {value, dims, indices} record instead of a summary.
    """
    import json as _json

    env = env or Environment()
    report = ScriptReport(path=str(path))
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise DataFileError(f"cannot read: {exc.strerror}", path) from exc
    except UnicodeDecodeError as exc:
        raise DataFileError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path) from exc
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("#", 1)[0].rstrip()  # indentation kept: error columns are the file's
        if not code.strip():
            continue
        report.statements += 1
        try:
            kind, node = parse(code)
            value = evaluate(node, env)
        except EngineError as exc:
            report.failures.append(f"{path}:{lineno}: error: {_error_text(exc, env)}")
            emit(report.failures[-1])
            break
        if kind == "assert":
            if _truthy(value):
                emit(f"{path}:{lineno}: assert ok")
            else:
                report.failures.append(f"{path}:{lineno}: assert failed: {code.strip()}")
                emit(report.failures[-1])
                break
        elif json_records:
            emit(_json.dumps({"line": lineno, **to_json_record(value, env)}, allow_nan=False))
        else:
            emit(f"{path}:{lineno}: {summarize(value, env)}")
    return report
