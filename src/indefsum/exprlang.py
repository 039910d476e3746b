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

Every operator is written once, in one table per evaluator: _SCALAR[op]
is its scalar form and carries the op's domain check, and _JET[op] is its
Taylor-mode form, which takes its constant term, check included, from
_SCALAR[op].  evaluate walks the tree through _SCALAR; eval_jet walks it
through _JET and returns the truncated power-series coefficients
c_k = g^(k)(x)/k! in one pass, which is what the derivative-hungry callers
(Sigma derivatives, asymptotic expansions) consume.  "pow" is the jet
walker's one special case: its exponent is a constant, evaluated as a
scalar, and _jet_pow takes its constant term from _scalar_pow.  parse
refuses a tree or a nesting deeper than _MAX_DEPTH levels, so no walk of
what it returns meets the recursion limit.  Trees are parsed and
evaluated here, never printed; the round-trip printer the tests use is in
tests/reference.py.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import NamedTuple, Union

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
    """Evaluation failure: domain violation, overflow, a zero divisor."""


class Literal(NamedTuple):
    value: float


class Constant(NamedTuple):
    name: str


class Variable(NamedTuple):
    name: str = "x"  # a field, because a tuple without one is false


class Unary(NamedTuple):
    op: str  # neg | ln | exp | sin | cos | sqrt
    child: "Expr"


class Binary(NamedTuple):
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

# whitespace matches no group and is skipped; any other unmatched character is "bad"
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)


class _Token(NamedTuple):
    kind: str  # num | ident | op | end
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(src):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("end", "", len(src)))
    return tokens


def _contains_variable(e: Expr) -> bool:
    if isinstance(e, Variable):
        return True
    if isinstance(e, Unary):
        return _contains_variable(e.child)
    if isinstance(e, Binary):
        return _contains_variable(e.left) or _contains_variable(e.right)
    return False


# parse refuses a tree more than _MAX_DEPTH nodes deep and "(", calls or "^"
# nested more than _MAX_DEPTH deep: the tree walkers recurse about once per
# node and the parser six times per nesting, so from any caller with a few
# hundred frames to spare neither meets Python's default recursion limit
_MAX_DEPTH = 100


class _Parser:
    # each rule returns (tree, depth of the tree in nodes); self.nesting counts
    # the "(", calls and "^" around the token being read
    def __init__(self, src: str):
        if not src or not src.strip():
            raise ExprSyntaxError("empty expression", 0)
        self.tokens = _tokenize(src)
        self.i = 0
        self.nesting = 0
        # partials, not methods: a partial adds no Python frame
        self.term = functools.partial(self._chain, self.factor, {"*": "mul", "/": "div"})
        self.expr = functools.partial(self._chain, self.term, {"+": "add", "-": "sub"})

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
        e, _ = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return e

    @staticmethod
    def _check_depth(depth: int, tok: _Token) -> int:
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels",
                                  tok.offset)
        return depth

    def _nested(self, rule, tok: _Token) -> tuple[Expr, int]:
        # rule() read one "(", call or "^" further in, the one opened at tok
        self.nesting = self._check_depth(self.nesting + 1, tok)
        result = rule()
        self.nesting -= 1
        return result

    def _chain(self, operand, ops: dict[str, str]) -> tuple[Expr, int]:
        # operand (symbol operand)*, left-associative; ops maps symbol -> Binary op
        left, depth = operand()
        while (tok := self.peek()).kind == "op" and tok.text in ops:
            self.advance()
            right, d = operand()
            depth = self._check_depth(max(depth, d) + 1, tok)
            left = Binary(ops[tok.text], left, right)
        return left, depth

    def factor(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            child, depth = self.power()
            return Unary("neg", child), self._check_depth(depth + 1, tok)
        return self.power()

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_offset = self.peek().offset
            exponent, d = self._nested(self.factor, tok)
            if _contains_variable(exponent):
                raise ExprSyntaxError(
                    "exponent of '^' must be a constant expression; "
                    "write exp(b*ln(a)) instead",
                    exp_offset,
                )
            return Binary("pow", base, exponent), self._check_depth(max(depth, d) + 1, tok)
        return base, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Literal(float(tok.text)), 1
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
                arg, depth = self._nested(self.expr, nxt)
                self.expect_op(")")
                return Unary(name, arg), self._check_depth(depth + 1, tok)
            if name == "x":
                return Variable(), 1
            if name in _CONSTANTS:
                return Constant(name), 1
            if name in _FUNCTIONS:
                raise ArityError(
                    f"function {name!r} requires a parenthesized argument",
                    tok.offset,
                )
            raise UnknownIdentifierError(f"unknown identifier {name!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            result = self._nested(self.expr, tok)
            self.expect_op(")")
            return result
        raise ExprSyntaxError("expected a number, identifier or '('", tok.offset)


def parse(src: str) -> Expr:
    """Parse source text into an immutable Expr tree.

    Raises ExprSyntaxError (with byte offset), UnknownIdentifierError,
    or ArityError.
    """
    return _Parser(src).parse()


def _ln(v: float) -> float:
    if v <= 0.0:
        raise ExprDomainError(f"ln of nonpositive value {v!r}")
    return math.log(v)


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        raise ExprDomainError(f"exp overflow at argument {v!r}") from None


def _sqrt(v: float) -> float:
    if v <= 0.0:
        raise ExprDomainError(f"sqrt of nonpositive value {v!r}")
    return math.sqrt(v)


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise ExprDomainError("division by zero")
    return a / b


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
        raise ExprDomainError(f"non-integer power of nonpositive base {a!r}")
    try:
        return a**q
    except OverflowError:
        raise ExprDomainError("overflow in power") from None


def _periodic(fn):
    # sin or cos raising ExprDomainError at an infinite argument, where math
    # raises a bare ValueError
    def scalar(v: float) -> float:
        if math.isinf(v):
            raise ExprDomainError(f"{fn.__name__} of non-finite value {v!r}")
        return fn(v)
    return scalar


_SCALAR = {
    "neg": operator.neg, "ln": _ln, "exp": _exp,
    "sin": _periodic(math.sin), "cos": _periodic(math.cos),
    "sqrt": _sqrt, "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": _div, "pow": _scalar_pow,
}


def _eval_scalar(e: Expr, x: float) -> float:
    if isinstance(e, Binary):
        return _SCALAR[e.op](_eval_scalar(e.left, x), _eval_scalar(e.right, x))
    if isinstance(e, Unary):
        return _SCALAR[e.op](_eval_scalar(e.child, x))
    if isinstance(e, Literal):
        return e.value
    if isinstance(e, Constant):
        return _CONSTANTS[e.name]
    if isinstance(e, Variable):
        return x
    raise AssertionError(type(e))


def evaluate(e: Expr, x: float) -> float:
    """g(x) by one scalar walk of the tree; ExprDomainError outside g's domain.

    Without "^" this equals eval_jet(e, x, 0).coeffs[0] whenever eval_jet
    returns, and raises ExprDomainError whenever that does.  An integer
    power is float ** int here and repeated jet products there, so the two
    may differ in the last bit, and 0^(-n) is a negative power of zero here
    but a zero divisor there.
    """
    v = _eval_scalar(e, x)
    if not math.isfinite(v):
        raise ExprDomainError(f"non-finite result {v!r}")
    return v


class Jet(NamedTuple):
    """Truncated Taylor data: coeffs[k] = g^(k)(center)/k!."""

    center: float
    coeffs: tuple[float, ...]

    def derivative(self, k: int) -> float:
        """g^(k)(center), recovered as k! * c_k."""
        return self.coeffs[k] * math.factorial(k)


def _jet_mul(u: list[float], v: list[float]) -> list[float]:
    r = len(u)
    return [
        math.fsum(u[j] * v[k - j] for j in range(k + 1)) for k in range(r)
    ]


def _jet_div(u: list[float], v: list[float]) -> list[float]:
    w = [_div(u[0], v[0])] + [0.0] * (len(u) - 1)
    for k in range(1, len(u)):
        acc = u[k] - math.fsum(w[j] * v[k - j] for j in range(k))
        w[k] = acc / v[0]
    return w


def _jet_ln(u: list[float]) -> list[float]:
    v = [_ln(u[0])] + [0.0] * (len(u) - 1)
    for k in range(1, len(u)):
        acc = u[k] - math.fsum(j * v[j] * u[k - j] for j in range(1, k)) / k
        v[k] = acc / u[0]
    return v


def _jet_exp(u: list[float]) -> list[float]:
    v = [_exp(u[0])] + [0.0] * (len(u) - 1)
    for k in range(1, len(u)):
        v[k] = math.fsum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k
    return v


def _jet_sqrt(u: list[float]) -> list[float]:
    v = [_sqrt(u[0])] + [0.0] * (len(u) - 1)
    for k in range(1, len(u)):
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
    acc = [1.0] + [0.0] * (len(u) - 1)
    if n < 0:
        return _jet_div(acc, _jet_int_pow(u, -n))
    base = list(u)
    while n:
        if n & 1:
            acc = _jet_mul(acc, base)
        n >>= 1
        if n:
            base = _jet_mul(base, base)
    return acc


def _jet_pow(u: list[float], q: float) -> list[float]:
    qi = round(q)
    if abs(q - qi) < 1e-12:
        return _jet_int_pow(u, int(qi))
    # u w' = q u' w  =>  k u_0 w_k = sum_j ((q+1) j - k) u_j w_{k-j}
    r = len(u)
    w = [_scalar_pow(u[0], q)] + [0.0] * (r - 1)
    for k in range(1, r):
        acc = math.fsum(
            ((q + 1.0) * j - k) * u[j] * w[k - j] for j in range(1, k + 1)
        )
        w[k] = acc / (k * u[0])
    return w


_JET = {
    "neg": lambda u: [-t for t in u], "ln": _jet_ln, "exp": _jet_exp,
    "sin": lambda u: _jet_sincos(u)[0], "cos": lambda u: _jet_sincos(u)[1],
    "sqrt": _jet_sqrt, "add": lambda u, w: [a + b for a, b in zip(u, w)],
    "sub": lambda u, w: [a - b for a, b in zip(u, w)], "mul": _jet_mul, "div": _jet_div,
}


def _eval_jet_node(e: Expr, x: float, r: int) -> list[float]:
    if isinstance(e, Binary):
        u = _eval_jet_node(e.left, x, r)
        if e.op == "pow":  # the exponent is constant by parse
            v = _jet_pow(u, _eval_scalar(e.right, 0.0))
        else:
            v = _JET[e.op](u, _eval_jet_node(e.right, x, r))
    elif isinstance(e, Unary):
        v = _JET[e.op](_eval_jet_node(e.child, x, r))
    else:  # a leaf: its value, and dx/dx = 1 for the variable
        v = [_eval_scalar(e, x)] + [0.0] * r
        if isinstance(e, Variable) and r:
            v[1] = 1.0
        return v
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
