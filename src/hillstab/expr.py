"""Small symbolic expression trees for piecewise-analytic coefficients.

Trees support vectorized evaluation, exact differentiation (needed to build
coefficients of the form -u''/u from a closed-form u), substitution of the
variable by another expression, and printing in the grammar `parse` reads:

    expr  := term (("+" | "-") term)*
    term  := power (("*" | "/") power)*
    power := "-"* atom ["^" ["-"]digits]
    atom  := number | "pi" | variable | [function] "(" expr ")"

with the variable ``x`` (and ``u`` in nonlinear right-hand sides) and the
functions ``sin``, ``cos`` and ``clamp``.  Binary operators group to the
left; unary minus binds tighter than ``^``, so ``-x^2`` is ``(-x)^2``.  An
exponent is an integer whose optional ``-`` touches its digits: ``x^ -2`` is
read, ``x^- 2`` refused.  Trees more than MAX_DEPTH = 64 nodes deep and
parentheses nested deeper are refused, so that neither the parser nor any
later walk of a tree recurses past that depth.
"""

from __future__ import annotations

import math
import re
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

#: one token after optional whitespace: a number, a name, an operator or
#: parenthesis, the end of the text, or any other character, which no rule
#: accepts; with that last branch the matches of finditer tile the text
_TOKEN = re.compile(r"""\s*(?:
      (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<name>[^\W\d]\w*)
    | (?P<op>[-+*/^()])
    | (?P<end>\Z)
    | (?P<bad>.))""", re.VERBOSE | re.DOTALL)

#: the binary operators by level, loosest first; each level groups to the left
_LEVELS = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})
_FUNCTIONS = {"sin": Sin, "cos": Cos, "clamp": Clamp}


def parse(text: str, variables: tuple[str, ...] = ("x",)) -> Expression:
    """Parse an expression string in the grammar of this module's docstring;
    whatever the grammar refuses raises ParseError."""
    if not isinstance(text, str):
        raise ParseError(f"an expression is a string, not {type(text).__name__}")
    tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
              for m in _TOKEN.finditer(text)]  # (kind, token, position)
    at = groups = 0  # the next token; the parentheses open

    def fail(msg: str):
        raise ParseError(f"{msg} at position {tokens[at][2]} in {text!r}")

    def take(op: str) -> bool:
        nonlocal at
        found = tokens[at][1] == op
        at += found
        return found

    # Each rule returns (tree, depth).

    def deeper(d: int) -> int:
        """The depth of a node over children at most d deep."""
        if d >= MAX_DEPTH:
            fail(f"expression deeper than {MAX_DEPTH}")
        return d + 1

    def binary(level: int):
        nonlocal at
        if level == len(_LEVELS):
            return power()
        e, d = binary(level + 1)
        while (make := _LEVELS[level].get(tokens[at][1])) is not None:
            at += 1
            r, dr = binary(level + 1)
            e, d = make(e, r), deeper(max(d, dr))
        return e, d

    def power():
        nonlocal at
        negs = 0
        while take("-"):
            negs += 1
        e, d = atom()
        for _ in range(negs):
            e, d = Neg(e), deeper(d)
        if not take("^"):
            return e, d
        sign = -1 if take("-") else 1
        kind, digits, start = tokens[at]
        if kind != "number" or not digits.isdecimal() or \
                sign < 0 and start > tokens[at - 1][2] + 1:
            fail("expected integer exponent")
        try:
            k = int(digits)
        except ValueError:  # more digits than int() converts
            fail("integer exponent too long")
        at += 1
        return Pow(e, sign * k), deeper(d)

    def atom():
        nonlocal at
        kind, name, _ = tokens[at]
        if name == "(":
            return group()
        if kind == "number":
            at += 1
            return Const(float(name)), 1
        if kind != "name":
            fail("expected expression")
        if name in _FUNCTIONS:
            at += 1
            e, d = group()
            return _FUNCTIONS[name](e), deeper(d)
        if name != "pi" and name not in variables:
            fail(f"unknown identifier {name!r}")
        at += 1
        return (Const(math.pi) if name == "pi" else Var(name)), 1

    def group():
        """'(' expr ')', at most MAX_DEPTH groups open at once."""
        nonlocal groups
        if not take("("):
            fail("expected '('")
        groups += 1
        if groups > MAX_DEPTH:
            fail(f"parentheses nested deeper than {MAX_DEPTH}")
        e, d = binary(0)
        if not take(")"):
            fail("expected ')'")
        groups -= 1
        return e, d

    e, _ = binary(0)
    if tokens[at][0] != "end":
        fail("trailing input")
    return e
