"""Small symbolic expression trees for piecewise-analytic coefficients.

The grammar is deliberately tiny: floating literals, ``x`` (and ``u`` for
nonlinear right-hand sides), ``pi``, ``+ - * / ^``, ``sin``, ``cos`` and
parentheses.  Trees support vectorized evaluation, exact differentiation
(needed to build coefficients of the form -u''/u from a closed-form u),
substitution of the variable by another expression, and round-trip
printing/parsing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError

MAX_DEPTH = 64


class Expression:
    """Base node.  Concrete nodes are the dataclasses below."""

    def eval(self, **env):
        raise NotImplementedError

    def diff(self, var: str = "x") -> "Expression":
        raise NotImplementedError

    def compiled(self):
        """This tree as a scalar Python function ``f(x, u=None)`` returning
        a float equal bit for bit to ``float(self.eval(x=x, u=u))``.

        The code is compiled on the first call and kept on the node; each
        call returns a new function over it that holds the tree for its
        fallback to ``eval``.  The node does not hold that function, so no
        reference cycle keeps a tree alive.  For Sin and Cos the bit equality is a
        property of the platform: it needs numpy's float64 sin and cos to
        round like the C library's ``math.sin`` and ``math.cos``, as they
        did on 600 k points with numpy 2.4 on x86-64 Linux.  A numpy build
        with its own vectorised float64 sin and cos may differ there from
        ``eval`` by one ulp.
        """
        make = self.__dict__.get("_compiled")
        if make is None:
            make = _compile(self)
            object.__setattr__(self, "_compiled", make)
        return make(self.eval)

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_string(self)!r})"


@dataclass(frozen=True, repr=False)
class Const(Expression):
    value: float

    def eval(self, **env):
        return self.value

    def diff(self, var="x"):
        return Const(0.0)


@dataclass(frozen=True, repr=False)
class Var(Expression):
    name: str = "x"

    def eval(self, **env):
        try:
            return env[self.name]
        except KeyError:
            raise ParseError(f"unbound variable {self.name!r}") from None

    def diff(self, var="x"):
        return Const(1.0 if self.name == var else 0.0)


@dataclass(frozen=True, repr=False)
class _Binary(Expression):
    left: Expression
    right: Expression


class Add(_Binary):
    def eval(self, **env):
        return self.left.eval(**env) + self.right.eval(**env)

    def diff(self, var="x"):
        return add(self.left.diff(var), self.right.diff(var))


class Sub(_Binary):
    def eval(self, **env):
        return self.left.eval(**env) - self.right.eval(**env)

    def diff(self, var="x"):
        return sub(self.left.diff(var), self.right.diff(var))


class Mul(_Binary):
    def eval(self, **env):
        return self.left.eval(**env) * self.right.eval(**env)

    def diff(self, var="x"):
        return add(mul(self.left.diff(var), self.right),
                   mul(self.left, self.right.diff(var)))


class Div(_Binary):
    def eval(self, **env):
        num = self.left.eval(**env)
        den = self.right.eval(**env)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(num, den)

    def diff(self, var="x"):
        # (f/g)' = (f'g - fg') / g^2
        num = sub(mul(self.left.diff(var), self.right),
                  mul(self.left, self.right.diff(var)))
        return Div(num, Pow(self.right, 2))


@dataclass(frozen=True, repr=False)
class _Unary(Expression):
    arg: Expression


class Neg(_Unary):
    def eval(self, **env):
        return -self.arg.eval(**env)

    def diff(self, var="x"):
        return Neg(self.arg.diff(var))


class Sin(_Unary):
    def eval(self, **env):
        return np.sin(self.arg.eval(**env))

    def diff(self, var="x"):
        return mul(Cos(self.arg), self.arg.diff(var))


class Cos(_Unary):
    def eval(self, **env):
        return np.cos(self.arg.eval(**env))

    def diff(self, var="x"):
        return mul(Neg(Sin(self.arg)), self.arg.diff(var))


class Clamp(_Unary):
    """max(arg, 0); used for the positive part of a coefficient."""

    def eval(self, **env):
        return np.maximum(self.arg.eval(**env), 0.0)

    def diff(self, var="x"):
        raise ParseError("clamp node is not differentiable")


@dataclass(frozen=True, repr=False)
class Pow(Expression):
    base: Expression
    exponent: int

    def eval(self, **env):
        b = self.base.eval(**env)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.power(b, self.exponent) if self.exponent >= 0 else \
                1.0 / np.power(b, -self.exponent)

    def diff(self, var="x"):
        k = self.exponent
        if k == 0:
            return Const(0.0)
        return mul(mul(Const(float(k)), Pow(self.base, k - 1)),
                   self.base.diff(var))


# -- smart constructors with trivial constant folding -------------------------

def add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    return Mul(a, b)


def constant_value(e: Expression) -> float | None:
    """Value of a variable-free tree, or None if it references a variable."""
    try:
        return e.eval()
    except ParseError:  # an unbound Var
        return None


def _substitute_x(e: Expression, repl: Expression) -> Expression:
    """e with each x replaced by repl; Add, Sub and Mul nodes are rebuilt by
    add, sub and mul, so their constant folding applies."""
    if isinstance(e, Var):
        return repl if e.name == "x" else e
    if isinstance(e, _Binary):
        make = {Add: add, Sub: sub, Mul: mul}.get(type(e), type(e))
        return make(_substitute_x(e.left, repl), _substitute_x(e.right, repl))
    if isinstance(e, _Unary):
        return type(e)(_substitute_x(e.arg, repl))
    if isinstance(e, Pow):
        return Pow(_substitute_x(e.base, repl), e.exponent)
    return e


def shift_var(e: Expression, offset: float) -> Expression:
    """Substitute x -> x + offset."""
    if offset == 0.0:
        return e
    return _substitute_x(e, Add(Var("x"), Const(offset)))


def reflect_var(e: Expression, center2: float) -> Expression:
    """Substitute x -> center2 - x."""
    return _substitute_x(e, Sub(Const(center2), Var("x")))


# -- printing -----------------------------------------------------------------

#: infix operators, for printing and for compiled code
_SYMBOLS = {Add: "+", Sub: "-", Mul: "*", Div: "/"}


def to_string(e: Expression) -> str:
    """Print in the parseable grammar (floats, x, u, pi, + - * / ^, sin, cos)."""
    if isinstance(e, Const):
        if e.value == math.pi:
            return "pi"
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, _Binary):
        return f"({to_string(e.left)} {_SYMBOLS[type(e)]} {to_string(e.right)})"
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, (Sin, Cos, Clamp)):
        return f"{type(e).__name__.lower()}({to_string(e.arg)})"
    if isinstance(e, Pow):
        return f"({to_string(e.base)} ^ {e.exponent})"
    raise TypeError(f"unknown node {e!r}")


# -- compilation --------------------------------------------------------------

#: A compiled function runs on Python floats with math.sin, math.cos and `/`,
#: which agree with eval's numpy operations bit for bit (see
#: Expression.compiled) but raise ValueError or ZeroDivisionError where
#: numpy returns nan or inf; it then calls eval.  A power of exponent 0, 1
#: or 2 is 1.0, b or b * b, as np.power gives them; a larger one stays
#: np.power, from which Python's `**` and math.pow differ in the last bit.
_OPS = {"sin": "_sin({})", "cos": "_cos({})",
        "pow": "_float(_power({}, {}))", "clamp": "_float(_maximum({}, 0.0))"}
_NAMESPACE = {"_float": float, "_sin": math.sin, "_cos": math.cos,
              "_power": np.power, "_maximum": np.maximum,
              "_errstate": np.errstate}


def _body(e: Expression, consts: dict, names: set):
    """Straight-line code for e: (lines, name or literal of the result).
    Repeated subexpressions are computed once."""
    lines, temps = [], {}

    def value(e):
        if isinstance(e, Const):
            v = float(e.value)
            if math.isfinite(v):
                return f"({v!r})"
            name = f"_k{len(consts)}"
            consts[name] = v
            return name
        if isinstance(e, Var):
            if e.name not in ("x", "u"):
                raise ParseError(f"cannot compile variable {e.name!r}")
            names.add(e.name)
            return e.name
        if isinstance(e, _Binary):
            rhs = f"{value(e.left)} {_SYMBOLS[type(e)]} {value(e.right)}"
        elif isinstance(e, Neg):
            rhs = f"-{value(e.arg)}"
        elif isinstance(e, (Sin, Cos, Clamp)):
            rhs = _OPS[type(e).__name__.lower()].format(value(e.arg))
        elif isinstance(e, Pow):
            k = e.exponent
            if k == 0:
                return "(1.0)"
            b = value(e.base)
            if k == 1:
                return b
            if k == -1:
                rhs = b
            elif abs(k) == 2:
                rhs = f"{b} * {b}"
            else:
                rhs = _OPS["pow"].format(b, abs(k))
            if k < 0:
                rhs = f"1.0 / ({rhs})"
        else:
            raise TypeError(f"unknown node {e!r}")
        if rhs not in temps:
            temps[rhs] = f"t{len(temps)}"
            lines.append(f"{temps[rhs]} = {rhs}")
        return temps[rhs]

    return lines, value(e)


def _compile(e: Expression):
    """make(eval) -> f(x, u=None), f calling eval where the float code
    raises."""
    consts, names = {}, set()
    body, out = _body(e, consts, names)
    src = "\n".join(
        ["def make(_eval):", "  def f(x, u=None):"]
        + [f"    {v} = _float({v})" for v in sorted(names)]
        + ["    try:"]
        + [f"        {line}" for line in body]
        + [f"        return {out}",
           "    except (ValueError, ZeroDivisionError):",
           '        with _errstate(divide="ignore", invalid="ignore"):',
           "            return _float(_eval(x=x, u=u))",
           "  return f"])
    namespace = {**_NAMESPACE, **consts}
    exec(compile(src, "<expression>", "exec"), namespace)
    return namespace["make"]


# -- parsing ------------------------------------------------------------------

_FUNCTIONS = {"sin": Sin, "cos": Cos, "clamp": Clamp}


class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.pos = 0
        self.variables = variables
        self.groups = 0

    def error(self, msg: str):
        raise ParseError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            self.error(f"expected {ch!r}")

    def parse(self) -> Expression:
        e, _ = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    # Each rule returns (tree, depth).  A tree deeper than MAX_DEPTH is
    # refused while it is built, and so are groups nested deeper, so that
    # neither the parser nor any later walk of a tree recurses past it.

    def over(self, d: int) -> int:
        """The depth of a node over children at most d deep."""
        if d >= MAX_DEPTH:
            self.error(f"expression deeper than {MAX_DEPTH}")
        return d + 1

    def chain(self, operand, ops: dict):
        """operand (op operand)*, grouped to the left, with op in ops."""
        e, d = operand()
        while (ch := self.peek()) in ops:
            self.pos += 1
            r, dr = operand()
            e, d = ops[ch](e, r), self.over(max(d, dr))
        return e, d

    def expr(self):
        return self.chain(self.term, {"+": Add, "-": Sub})

    def term(self):
        return self.chain(self.factor, {"*": Mul, "/": Div})

    def factor(self):
        e, d = self.unary()
        if self.accept("^"):
            e, d = Pow(e, self.integer()), self.over(d)
        return e, d

    def unary(self):
        negs = 0
        while self.accept("-"):
            negs += 1
        e, d = self.atom()
        for _ in range(negs):
            e, d = Neg(e), self.over(d)
        return e, d

    def integer(self) -> int:
        self.skip_ws()
        sign = -1 if self.accept("-") else 1
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer exponent")
        return sign * int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "(":
            return self.group()
        if ch.isdigit() or ch == ".":
            return Const(self.number()), 1
        if ch.isalpha() or ch == "_":
            name = self.identifier()
            if name == "pi":
                return Const(math.pi), 1
            if name in _FUNCTIONS:
                e, d = self.group()
                return _FUNCTIONS[name](e), self.over(d)
            if name in self.variables:
                return Var(name), 1
            self.error(f"unknown identifier {name!r}")
        self.error("expected expression")

    def group(self):
        """'(' expr ')', at most MAX_DEPTH groups open at once."""
        self.expect("(")
        self.groups += 1
        if self.groups > MAX_DEPTH:
            self.error(f"parentheses nested deeper than {MAX_DEPTH}")
        e = self.expr()
        self.expect(")")
        self.groups -= 1
        return e

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        seen_dot = seen_exp = False
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isdigit():
                self.pos += 1
            elif c == "." and not seen_dot and not seen_exp:
                seen_dot = True
                self.pos += 1
            elif c in "eE" and not seen_exp and self.pos > start:
                seen_exp = True
                self.pos += 1
                if self.pos < len(self.text) and self.text[self.pos] in "+-":
                    self.pos += 1
            else:
                break
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            self.error("bad numeric literal")


def parse(text: str, variables: tuple[str, ...] = ("x",)) -> Expression:
    """Parse an expression string in the coefficient-file grammar."""
    return _Parser(text, variables).parse()
