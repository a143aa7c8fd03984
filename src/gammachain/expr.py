"""Scalar expression trees: parsing, evaluation, symbolic differentiation,
printing and compilation.

The grammar covers decimal literals, named variables, the binary operators
``+ - * / ^``, unary minus, the functions ``sin cos exp abs`` and the
constant ``pi``.  Precedence is ``^`` above unary minus above ``* /`` above
``+ -``; ``^`` is right-associative, everything else left-associative.
Trees are immutable, hashable, and evaluate with plain IEEE double
arithmetic (identical results for identical inputs).
"""
from __future__ import annotations

import math
import re
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "ParseError", "UnknownIdentifierError", "EvalError", "DifferentiationError",
    "parse", "evaluate", "diff", "free_vars", "depth", "to_string", "compile_expr",
]

FUNCTION_NAMES = ("sin", "cos", "exp", "abs")
# The deepest tree a problem takes (``chain.ProblemSpec``).  The walks of a
# tree (``free_vars``, ``evaluate``, ``diff``, the writers of Python and C
# code) recurse once per level, the deepest of them about 20 frames below a
# command's entry: 800 levels leave them 200 frames of Python's default
# recursion limit of 1000.
MAX_DEPTH = 800
# The deepest parenthesis nesting of a problem's Python source: CPython
# stops at 200, and the float stages' ``rhs`` tuple holds phi's and f's
# inside the chain's ``a * (phi - w2)`` and ``lam * (f)``, two more pairs.
# Its C nests no deeper (``_code``), below clang's default of 256.
MAX_NESTING = 198

_SCALAR_NS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
              "abs": abs, "pow": math.pow}
_VECTOR_NS = {"sin": np.sin, "cos": np.cos, "exp": np.exp,
              "abs": np.abs, "pow": np.power}


class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte position in the source text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """An identifier outside the allowed variable list."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class EvalError(ArithmeticError):
    """Unbound variable or non-finite intermediate/final value."""


class DifferentiationError(ValueError):
    """Derivative not representable in the expression grammar."""


class Expr:
    """Base class for expression nodes: immutable, equal and hashed by
    value.  Each node takes its hash from its children's at construction,
    and equality compares two trees node by node without recursion, so no
    hash or comparison walks a tree recursively."""

    __slots__ = ("_hash",)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((type(self), *values)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: expression trees are immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for name in a.__slots__:
                u, v = getattr(a, name), getattr(b, name)
                if isinstance(u, Expr):
                    pairs.append((u, v))
                elif u != v:
                    return False
        return True

    def __str__(self) -> str:
        return to_string(self)


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        if not math.isfinite(value):
            raise ValueError("numeric literals must be finite")
        super().__init__(value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__(name)


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        super().__init__(operand)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        super().__init__(op, left, right)


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        super().__init__(func, arg)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # only whitespace may remain
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ParseError(f"unexpected character {text[bad]!r}", bad)
        start = m.start(m.lastgroup)
        tokens.append((m.lastgroup, m.group(m.lastgroup), start))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, allowed: frozenset[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.allowed = allowed
        self.i = 0

    def _peek(self) -> tuple[str, str, int]:
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return ("eof", "", len(self.text))

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        self.i += 1
        return tok

    def expression(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._next()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._next()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self._peek()
        if kind == "op" and text == "^":
            self._next()
            # exponent parsed at unary level: right-associative, -n allowed
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self._next()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"non-finite literal {text!r}", pos)
            return Num(value)
        if kind == "name":
            if text in FUNCTION_NAMES:
                k, t, p = self._peek()
                if not (k == "op" and t == "("):
                    raise ParseError(f"expected '(' after function {text!r}", p)
                self._next()
                arg = self.expression()
                self._expect(")")
                return Call(text, arg)
            if text == "pi":
                return Num(math.pi)
            if text not in self.allowed:
                raise UnknownIdentifierError(text, pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.expression()
            self._expect(")")
            return node
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input", pos)

    def _expect(self, op: str):
        kind, text, pos = self._next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", pos)


def parse(text: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse ``text`` into an expression tree over ``allowed_vars``."""
    if not text or text.strip() == "":
        raise ParseError("empty expression", 0)
    parser = _Parser(text, frozenset(allowed_vars))
    node = parser.expression()
    kind, text_, pos = parser._peek()
    if kind != "eof":
        raise ParseError(f"unexpected {text_!r}", pos)
    return node


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, Call):
        return free_vars(e.arg)
    if isinstance(e, BinOp):
        return free_vars(e.left) | free_vars(e.right)
    raise TypeError(f"not an expression node: {e!r}")


def depth(e: Expr) -> int:
    """The number of levels of the tree, 1 for a leaf; without recursion."""
    deepest = 0
    stack = [(e, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for name in node.__slots__:
            child = getattr(node, name)
            if isinstance(child, Expr):
                stack.append((child, level + 1))
    return deepest


def _finite(v: float) -> float:
    if not math.isfinite(v):
        raise EvalError("non-finite value")
    return v


def evaluate(e: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate the tree with the given variable bindings.

    Raises :class:`EvalError` for unbound variables and whenever any
    intermediate value is non-finite (pole, overflow, domain error).
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return _finite(float(bindings[e.name]))
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -evaluate(e.operand, bindings)
    if isinstance(e, Call):
        x = evaluate(e.arg, bindings)
        try:
            return _finite(_SCALAR_NS[e.func](x))
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{e.func}: {exc}") from exc
    if isinstance(e, BinOp):
        lhs = evaluate(e.left, bindings)
        rhs = evaluate(e.right, bindings)
        try:
            if e.op == "+":
                return _finite(lhs + rhs)
            if e.op == "-":
                return _finite(lhs - rhs)
            if e.op == "*":
                return _finite(lhs * rhs)
            if e.op == "/":
                return _finite(lhs / rhs)
            if e.op == "^":
                return _finite(math.pow(lhs, rhs))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalError(f"{e.op}: {exc}") from exc
        raise TypeError(f"unknown operator {e.op!r}")
    raise TypeError(f"not an expression node: {e!r}")


# -- differentiation ---------------------------------------------------------

def _num(e: Expr) -> float | None:
    return e.value if isinstance(e, Num) else None


def _add(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if lv == 0.0:
        return r
    if rv == 0.0:
        return l
    if lv is not None and rv is not None:
        return Num(lv + rv)
    return BinOp("+", l, r)


def _sub(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if rv == 0.0:
        return l
    if lv is not None and rv is not None:
        return Num(lv - rv)
    if lv == 0.0:
        return _neg(r)
    return BinOp("-", l, r)


def _mul(l: Expr, r: Expr) -> Expr:
    lv, rv = _num(l), _num(r)
    if lv == 0.0 or rv == 0.0:
        return Num(0.0)
    if lv == 1.0:
        return r
    if rv == 1.0:
        return l
    if lv is not None and rv is not None:
        return Num(lv * rv)
    return BinOp("*", l, r)


def _neg(e: Expr) -> Expr:
    v = _num(e)
    if v == 0.0:
        return Num(0.0)
    return Neg(e)


def diff(e: Expr, var: str) -> Expr:
    """Exact symbolic derivative with respect to ``var``.

    Light constant folding only; no simplification guarantees.  Powers with
    the differentiation variable in the exponent are rejected (the grammar
    has no logarithm to express them).
    """
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if e.name == var else 0.0)
    if isinstance(e, Neg):
        return _neg(diff(e.operand, var))
    if isinstance(e, BinOp):
        if e.op in "+-":
            dl, dr = diff(e.left, var), diff(e.right, var)
            return _add(dl, dr) if e.op == "+" else _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(diff(e.left, var), e.right),
                        _mul(e.left, diff(e.right, var)))
        if e.op == "/":
            num = _sub(_mul(diff(e.left, var), e.right),
                       _mul(e.left, diff(e.right, var)))
            return BinOp("/", num, BinOp("^", e.right, Num(2.0)))
        if e.op == "^":
            if var in free_vars(e.right):
                raise DifferentiationError(
                    "cannot differentiate a power with the variable in the exponent")
            new_exp = _sub(e.right, Num(1.0))
            return _mul(_mul(e.right, BinOp("^", e.left, new_exp)),
                        diff(e.left, var))
    if isinstance(e, Call):
        da = diff(e.arg, var)
        if e.func == "sin":
            return _mul(Call("cos", e.arg), da)
        if e.func == "cos":
            return _mul(_neg(Call("sin", e.arg)), da)
        if e.func == "exp":
            return _mul(Call("exp", e.arg), da)
        if e.func == "abs":
            # sign(arg) written as arg/abs(arg); errors at the kink
            return _mul(BinOp("/", e.arg, Call("abs", e.arg)), da)
    raise TypeError(f"not an expression node: {e!r}")


# -- printing and code generation --------------------------------------------

def to_string(e: Expr) -> str:
    """Render a tree as grammar text; re-parsing it evaluates identically."""
    return _code(e, grammar=True)


_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1}  # operators that chain left to right
_C_FUNCTIONS = {"sin": "SIN", "cos": "COS", "exp": "EXP", "abs": "fabs"}


def _code(e: Expr, names: Mapping[str, str] = {}, grammar: bool = False,
          c: bool = False) -> str:
    """The one writer of a tree, parenthesized around every operation: the
    Python source that ``compile_expr`` and the chain's float stages
    compile, with ``grammar`` set grammar text (``^`` infix, not ``pow``),
    and with ``c`` set the C of the compiled float stages.  A chain of ``+
    -`` or of ``* /`` operations takes one pair, as all three read it left
    to right, so the nesting of parentheses does not grow with the chain;
    other operations nest one pair per level, which ``MAX_NESTING`` bounds
    below CPython's limit of 200 (``chain._nesting``).  A variable reads
    ``names.get(name, name)``; a negative literal is parenthesized, as the
    grammar has no signed literals.  C spells ``^`` ``POW(a, b)``, sin,
    cos and exp ``SIN``, ``COS`` and ``EXP``, abs ``fabs`` and a divisor
    ``DIVISOR(b)``, the checks of ``rk45._c_source``, and drops the pair
    around the whole tree and around each argument of a call, so that it
    nests no deeper than the Python source though a divisor that is a
    call or a leaf takes a pair of its own."""
    text = _write(e, names, grammar, c)
    return _bare(text) if c else text


def _bare(text: str) -> str:
    """``text`` of ``_write`` without the pair of parentheses around the
    whole of it, if any: one that starts with one ends with its match."""
    return text[1:-1] if text[:1] == "(" else text


def _write(e: Expr, names: Mapping[str, str], grammar: bool, c: bool) -> str:
    """``_code`` of an operand, one pair around every operation."""
    if isinstance(e, Num):
        text = repr(e.value)
        return f"({text})" if text.startswith("-") else text
    if isinstance(e, Var):
        return names.get(e.name, e.name)
    if isinstance(e, Neg):
        return f"(-{_write(e.operand, names, grammar, c)})"
    if isinstance(e, Call):
        arg = _write(e.arg, names, grammar, c)
        return f"{_C_FUNCTIONS[e.func]}({_bare(arg)})" if c else f"{e.func}({arg})"
    if isinstance(e, BinOp):
        left, right = _write(e.left, names, grammar, c), _write(e.right, names, grammar, c)
        if e.op == "^" and not grammar:
            return f"POW({_bare(left)}, {_bare(right)})" if c else f"pow({left}, {right})"
        if isinstance(e.left, BinOp) and _LEVEL.get(e.left.op, -1) == _LEVEL.get(e.op):
            left = left[1:-1]
        if e.op == "/" and c:
            right = f"DIVISOR{right}" if right[:1] == "(" else f"DIVISOR({right})"
        return f"({left} {e.op} {right})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_expr(e: Expr, var_order: tuple[str, ...],
                 vectorized: bool = False) -> Callable[..., float]:
    """Compile a tree into a positional-argument callable.

    The scalar backend performs exactly the same arithmetic as
    :func:`evaluate` (bit-identical results where evaluation succeeds) but
    defers finiteness handling to the caller.  The vectorized backend maps
    the tree onto numpy ufuncs and accepts array arguments.
    """
    missing = free_vars(e) - set(var_order)
    if missing:
        raise ValueError(f"expression uses variables outside {var_order}: {sorted(missing)}")
    ns = dict(_VECTOR_NS if vectorized else _SCALAR_NS)
    ns["__builtins__"] = {}
    src = f"lambda {', '.join(var_order)}: {_code(e)}"
    return eval(src, ns)  # codegen from our own AST only
