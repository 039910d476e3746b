"""A small expression language for defining g(x).

Grammar (EBNF):
    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"
    IDENT  in {x, pi, e, euler_gamma, ln_glaisher, ln, exp, sin, cos, sqrt}

"^" is right-associative and binds tighter than unary minus. The
exponent of "^" must be a constant expression (no x); write
exp(b*ln(a)) for a genuinely variable exponent.

Evaluation is Taylor-mode: eval_jet returns the truncated power-series
coefficients c_k = g^(k)(x)/k! in one pass over the tree, which is what
the derivative-hungry callers (Sigma derivatives, asymptotic
expansions) consume.  Trees are parsed and evaluated here, never printed;
the round-trip printer the tests use is in tests/reference.py.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from .numerics import NAMED_CONSTANTS

__all__ = [
    "Expr",
    "Literal",
    "Constant",
    "Variable",
    "Unary",
    "Binary",
    "Jet",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "ArityError",
    "ExprDomainError",
    "parse",
    "evaluate",
    "eval_jet",
]


class ExprError(ValueError):
    """Base class for every expression-language failure."""


class ExprSyntaxError(ExprError):
    """Malformed source text; `offset` is the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprSyntaxError):
    """Identifier outside the fixed IDENT vocabulary."""


class ArityError(ExprSyntaxError):
    """A function used without arguments, or a non-function called."""


class ExprDomainError(ExprError):
    """Evaluation failure: domain violation, overflow, division by zero."""


@dataclass(frozen=True)
class Literal:
    value: float


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Unary:
    op: str  # neg | ln | exp | sin | cos | sqrt
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # add | sub | mul | div | pow
    left: "Expr"
    right: "Expr"


Expr = Union[Literal, Constant, Variable, Unary, Binary]


_CONSTANTS = {
    "pi": math.pi,
    "e": math.e,
    "euler_gamma": NAMED_CONSTANTS["euler_gamma"],
    "ln_glaisher": NAMED_CONSTANTS["ln_glaisher"],
}

_FUNCTIONS = ("ln", "exp", "sin", "cos", "sqrt")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            # skip leading whitespace manually to report the right offset
            while pos < n and src[pos].isspace():
                pos += 1
            if pos >= n:
                break
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos)
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


def _contains_variable(e: Expr) -> bool:
    if isinstance(e, Variable):
        return True
    if isinstance(e, Unary):
        return _contains_variable(e.child)
    if isinstance(e, Binary):
        return _contains_variable(e.left) or _contains_variable(e.right)
    return False


class _Parser:
    def __init__(self, src: str):
        if not src or not src.strip():
            raise ExprSyntaxError("empty expression", 0)
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            self.advance()
            return
        raise ExprSyntaxError(f"expected {text!r}", tok.offset)

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    def expr(self) -> Expr:
        left = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                right = self.term()
                left = Binary("add" if tok.text == "+" else "sub", left, right)
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                right = self.factor()
                left = Binary("mul" if tok.text == "*" else "div", left, right)
            else:
                return left

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.power())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_offset = self.peek().offset
            exponent = self.factor()
            if _contains_variable(exponent):
                raise ExprSyntaxError(
                    "exponent of '^' must be a constant expression; "
                    "write exp(b*ln(a)) instead",
                    exp_offset,
                )
            return Binary("pow", base, exponent)
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Literal(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            nxt = self.peek()
            called = nxt.kind == "op" and nxt.text == "("
            if called:
                if name not in _FUNCTIONS:
                    if name == "x" or name in _CONSTANTS:
                        raise ArityError(f"{name!r} is not a function", tok.offset)
                    raise UnknownIdentifierError(
                        f"unknown identifier {name!r}", tok.offset
                    )
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(name, arg)
            if name == "x":
                return Variable()
            if name in _CONSTANTS:
                return Constant(name)
            if name in _FUNCTIONS:
                raise ArityError(
                    f"function {name!r} requires a parenthesized argument",
                    tok.offset,
                )
            raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError("expected a number, identifier or '('", tok.offset)


def parse(src: str) -> Expr:
    """Parse source text into an immutable Expr tree.

    Raises ExprSyntaxError (with byte offset), UnknownIdentifierError,
    or ArityError.
    """
    return _Parser(src).parse()


def _eval_scalar(e: Expr, x: float) -> float:
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Constant):
        return _CONSTANTS[e.name]
    if isinstance(e, Variable):
        return x
    if isinstance(e, Unary):
        v = _eval_scalar(e.child, x)
        if e.op == "neg":
            return -v
        if e.op == "ln":
            if v <= 0.0:
                raise ExprDomainError(f"ln of nonpositive value {v!r}")
            return math.log(v)
        if e.op == "exp":
            try:
                return math.exp(v)
            except OverflowError:
                raise ExprDomainError(f"exp overflow at argument {v!r}") from None
        if e.op == "sin":
            return math.sin(v)
        if e.op == "cos":
            return math.cos(v)
        if e.op == "sqrt":
            if v <= 0.0:
                raise ExprDomainError(f"sqrt of nonpositive value {v!r}")
            return math.sqrt(v)
        raise AssertionError(e.op)
    if isinstance(e, Binary):
        a = _eval_scalar(e.left, x)
        b = _eval_scalar(e.right, x)
        if e.op == "add":
            return a + b
        if e.op == "sub":
            return a - b
        if e.op == "mul":
            return a * b
        if e.op == "div":
            if b == 0.0:
                raise ExprDomainError("division by zero")
            return a / b
        if e.op == "pow":
            return _scalar_pow(a, b)
        raise AssertionError(e.op)
    raise AssertionError(type(e))


def _scalar_pow(a: float, q: float) -> float:
    qi = round(q)
    if abs(q - qi) < 1e-12:
        if a == 0.0 and qi < 0:
            raise ExprDomainError("zero raised to a negative power")
        try:
            return float(a) ** int(qi)
        except OverflowError:
            raise ExprDomainError("overflow in power") from None
    if a <= 0.0:
        raise ExprDomainError(
            f"non-integer power of nonpositive base {a!r}"
        )
    try:
        return a**q
    except OverflowError:
        raise ExprDomainError("overflow in power") from None


def evaluate(e: Expr, x: float) -> float:
    """Plain evaluation; identical to eval_jet(e, x, 0).coeffs[0]."""
    v = _eval_scalar(e, x)
    if not math.isfinite(v):
        raise ExprDomainError(f"non-finite result {v!r}")
    return v


@dataclass(frozen=True)
class Jet:
    """Truncated Taylor data: coeffs[k] = g^(k)(center)/k!."""

    center: float
    coeffs: tuple[float, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def derivative(self, k: int) -> float:
        """g^(k)(center), recovered as k! * c_k."""
        return self.coeffs[k] * math.factorial(k)


def _jet_mul(u: list[float], v: list[float]) -> list[float]:
    r = len(u)
    return [
        math.fsum(u[j] * v[k - j] for j in range(k + 1)) for k in range(r)
    ]


def _jet_div(u: list[float], v: list[float]) -> list[float]:
    if v[0] == 0.0:
        raise ExprDomainError("division by zero")
    r = len(u)
    w = [0.0] * r
    for k in range(r):
        acc = u[k] - math.fsum(w[j] * v[k - j] for j in range(k))
        w[k] = acc / v[0]
    return w


def _jet_ln(u: list[float]) -> list[float]:
    if u[0] <= 0.0:
        raise ExprDomainError(f"ln of nonpositive value {u[0]!r}")
    r = len(u)
    v = [0.0] * r
    v[0] = math.log(u[0])
    for k in range(1, r):
        acc = u[k] - math.fsum(j * v[j] * u[k - j] for j in range(1, k)) / k
        v[k] = acc / u[0]
    return v


def _jet_exp(u: list[float]) -> list[float]:
    r = len(u)
    v = [0.0] * r
    try:
        v[0] = math.exp(u[0])
    except OverflowError:
        raise ExprDomainError(f"exp overflow at argument {u[0]!r}") from None
    for k in range(1, r):
        v[k] = math.fsum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k
    return v


def _jet_sqrt(u: list[float]) -> list[float]:
    if u[0] <= 0.0:
        raise ExprDomainError(f"sqrt of nonpositive value {u[0]!r}")
    r = len(u)
    v = [0.0] * r
    v[0] = math.sqrt(u[0])
    for k in range(1, r):
        acc = u[k] - math.fsum(v[j] * v[k - j] for j in range(1, k))
        v[k] = acc / (2.0 * v[0])
    return v


def _jet_sincos(u: list[float]) -> tuple[list[float], list[float]]:
    r = len(u)
    s = [0.0] * r
    c = [0.0] * r
    s[0] = math.sin(u[0])
    c[0] = math.cos(u[0])
    for k in range(1, r):
        s[k] = math.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = -math.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
    return s, c


def _jet_int_pow(u: list[float], n: int) -> list[float]:
    r = len(u)
    if n == 0:
        return [1.0] + [0.0] * (r - 1)
    if n < 0:
        one = [1.0] + [0.0] * (r - 1)
        return _jet_div(one, _jet_int_pow(u, -n))
    acc = [1.0] + [0.0] * (r - 1)
    base = list(u)
    m = n
    while m:
        if m & 1:
            acc = _jet_mul(acc, base)
        m >>= 1
        if m:
            base = _jet_mul(base, base)
    return acc


def _jet_pow(u: list[float], q: float) -> list[float]:
    qi = round(q)
    if abs(q - qi) < 1e-12:
        return _jet_int_pow(u, int(qi))
    if u[0] <= 0.0:
        raise ExprDomainError(
            f"non-integer power of nonpositive base {u[0]!r}"
        )
    # u w' = q u' w  =>  k u_0 w_k = sum_j ((q+1) j - k) u_j w_{k-j}
    r = len(u)
    w = [0.0] * r
    w[0] = u[0] ** q
    for k in range(1, r):
        acc = math.fsum(
            ((q + 1.0) * j - k) * u[j] * w[k - j] for j in range(1, k + 1)
        )
        w[k] = acc / (k * u[0])
    return w


def _eval_jet_node(e: Expr, x: float, r: int) -> list[float]:
    if isinstance(e, Literal):
        return [e.value] + [0.0] * r
    if isinstance(e, Constant):
        return [_CONSTANTS[e.name]] + [0.0] * r
    if isinstance(e, Variable):
        out = [x] + [0.0] * r
        if r >= 1:
            out[1] = 1.0
        return out
    if isinstance(e, Unary):
        u = _eval_jet_node(e.child, x, r)
        if e.op == "neg":
            v = [-t for t in u]
        elif e.op == "ln":
            v = _jet_ln(u)
        elif e.op == "exp":
            v = _jet_exp(u)
        elif e.op == "sin":
            v = _jet_sincos(u)[0]
        elif e.op == "cos":
            v = _jet_sincos(u)[1]
        elif e.op == "sqrt":
            v = _jet_sqrt(u)
        else:
            raise AssertionError(e.op)
    elif isinstance(e, Binary):
        if e.op == "pow":
            u = _eval_jet_node(e.left, x, r)
            q = _eval_scalar(e.right, 0.0)  # exponent is constant by parse
            v = _jet_pow(u, q)
        else:
            u = _eval_jet_node(e.left, x, r)
            w = _eval_jet_node(e.right, x, r)
            if e.op == "add":
                v = [a + b for a, b in zip(u, w)]
            elif e.op == "sub":
                v = [a - b for a, b in zip(u, w)]
            elif e.op == "mul":
                v = _jet_mul(u, w)
            elif e.op == "div":
                v = _jet_div(u, w)
            else:
                raise AssertionError(e.op)
    else:
        raise AssertionError(type(e))
    for t in v:
        if not math.isfinite(t):
            raise ExprDomainError("non-finite intermediate value (overflow?)")
    return v


def eval_jet(e: Expr, x: float, r: int) -> Jet:
    """Taylor coefficients c_0..c_r of the expression at center x > 0."""
    if not x > 0.0:
        raise ExprDomainError(f"jet center must be positive, got {x!r}")
    if r < 0 or r > 8:
        raise ValueError("jet order r must be in 0..8")
    return Jet(center=x, coeffs=tuple(_eval_jet_node(e, x, r)))
