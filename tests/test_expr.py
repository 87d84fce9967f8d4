import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillstab import expr as ex
from hillstab.errors import ParseError


def test_parse_basic_arithmetic():
    e = ex.parse("2*x + 3")
    assert e.eval(x=1.0) == pytest.approx(5.0)
    assert e.eval(x=-2.0) == pytest.approx(-1.0)


def test_parse_pi_and_functions():
    e = ex.parse("sin(pi*x) + cos(x)")
    assert e.eval(x=1.0) == pytest.approx(math.sin(math.pi) + math.cos(1.0))


def test_parse_power_integer_only():
    e = ex.parse("(x - 1)^3")
    assert e.eval(x=3.0) == pytest.approx(8.0)
    with pytest.raises(ParseError):
        ex.parse("x^1.5")


def test_parse_precedence():
    assert ex.parse("2 + 3*4").eval(x=0.0) == pytest.approx(14.0)
    assert ex.parse("(2 + 3)*4").eval(x=0.0) == pytest.approx(20.0)
    assert ex.parse("2 - 3 - 4").eval(x=0.0) == pytest.approx(-5.0)
    assert ex.parse("12/3/2").eval(x=0.0) == pytest.approx(2.0)


def test_parse_unary_minus():
    assert ex.parse("-x + 1").eval(x=2.0) == pytest.approx(-1.0)
    assert ex.parse("--x").eval(x=2.0) == pytest.approx(2.0)


def test_parse_rejects_garbage():
    for bad in ("", "2 +", "sin()", "x y", "unknown(x)", "(((", "1..2",
                "x^- 2", "x^2^3", "x^2.5", 5, None):
        with pytest.raises(ParseError):
            ex.parse(bad)


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        ex.parse("u + 1", variables=("x",))
    # but fine when declared
    assert ex.parse("u + 1", variables=("x", "u")).eval(x=0.0, u=2.0) == 3.0


def test_clamp():
    e = ex.parse("clamp(x)")
    assert e.eval(x=-3.0) == 0.0
    assert e.eval(x=2.5) == 2.5


def test_vectorized_eval():
    e = ex.parse("sin(x) + 1")
    xs = np.linspace(0, 1, 7)
    np.testing.assert_allclose(e.eval(x=xs), np.sin(xs) + 1)


def test_diff_product_chain():
    e = ex.parse("x^2 * sin(3*x)")
    d = e.diff("x")
    xs = np.linspace(0.1, 2.0, 11)
    expected = 2 * xs * np.sin(3 * xs) + 3 * xs ** 2 * np.cos(3 * xs)
    np.testing.assert_allclose(d.eval(x=xs), expected, atol=1e-12)


def test_diff_quotient():
    e = ex.parse("sin(x)/x")
    d = e.diff("x")
    x = 1.3
    h = 1e-6
    fd = (e.eval(x=x + h) - e.eval(x=x - h)) / (2 * h)
    assert d.eval(x=x) == pytest.approx(fd, abs=1e-8)


def test_shift_and_reflect():
    e = ex.parse("x^2 + sin(x)")
    s = ex.shift_var(e, 0.7)
    assert s.eval(x=1.0) == pytest.approx(e.eval(x=1.7))
    r = ex.reflect_var(e, 3.0)
    assert r.eval(x=1.0) == pytest.approx(e.eval(x=2.0))


def test_shift_and_reflect_every_node_kind():
    """The substitution walk on a tree holding every node kind: x is
    replaced throughout, u is left alone, and the printed trees are the
    ones the per-node substitution built."""
    e = ex.parse("-(x + 2.5) * sin(x / 3) - cos(pi * x) ^ -2"
                 " + clamp(x - 1) * u", variables=("x", "u"))
    assert str(ex.shift_var(e, 0.5)) == (
        "((((-((x + 0.5) + 2.5)) * sin(((x + 0.5) / 3.0))) - "
        "(cos((pi * (x + 0.5))) ^ -2)) + (clamp(((x + 0.5) - 1.0)) * u))")
    assert str(ex.reflect_var(e, 2.0)) == (
        "((((-((2.0 - x) + 2.5)) * sin(((2.0 - x) / 3.0))) - "
        "(cos((pi * (2.0 - x))) ^ -2)) + (clamp(((2.0 - x) - 1.0)) * u))")


def test_roundtrip_through_string():
    texts = ["2*x + 3", "sin(pi*x)", "(x - 0.5)^3/(x + 1)", "clamp(x - 2)",
             "-sin(x)*cos(2*x)"]
    xs = np.linspace(0.0, 3.0, 17)
    for t in texts:
        e = ex.parse(t)
        e2 = ex.parse(str(e))
        np.testing.assert_allclose(e2.eval(x=xs), e.eval(x=xs), atol=1e-12)


def test_parse_rules_of_the_grammar():
    x = ex.Var("x")
    assert ex.parse("-x^2") == ex.Pow(ex.Neg(x), 2)
    assert ex.parse("x ^ -2") == ex.parse("x^-2") == ex.Pow(x, -2)
    assert ex.parse("1 - 2 - x") == ex.Sub(ex.Sub(ex.Const(1.0), ex.Const(2.0)), x)
    assert ex.parse("x/2*3") == ex.Mul(ex.Div(x, ex.Const(2.0)), ex.Const(3.0))
    assert ex.parse("1.5e+2 + .5") == ex.Add(ex.Const(150.0), ex.Const(0.5))


def test_exponent_beyond_a_float_refused():
    """eval takes the exponent as a float: one that overflows a float is
    refused, however many digits int() would take."""
    assert ex.parse("x^" + "9" * 308) == ex.Pow(ex.Var("x"), int("9" * 308))
    for digits in ("2" + "0" * 308, "1" + "0" * 400, "9" * 5000):
        for sign in ("", "-"):
            with pytest.raises(ParseError, match="too large for a float"):
                ex.parse(f"1 + 0.5*cos(x)^{sign}{digits}")


def test_depth_limit():
    deep = "sin(" * 70 + "x" + ")" * 70
    with pytest.raises(ParseError):
        ex.parse(deep)
    # MAX_DEPTH bounds the tree's depth and the nesting of parentheses
    for shallow, too_deep in (("-" * 63 + "x", "-" * 64 + "x"),
                              ("(" * 64 + "x" + ")" * 64,
                               "(" * 65 + "x" + ")" * 65)):
        ex.parse(shallow)
        with pytest.raises(ParseError):
            ex.parse(too_deep)


# the grammar's characters and words, characters str.isdigit accepts but
# int() does not, another script's digit, a character outside the grammar,
# and a digit run longer than int() converts
_PIECES = st.sampled_from(list("xu0123456789.eE+-*/^() \t") + [
    "sin", "cos", "clamp", "pi", "\u00b2", "\u0663", "$", "9" * 5000])


@example("x^\u00b2")
@example("x^" + "9" * 5000)
@given(st.lists(_PIECES, max_size=24).map("".join))
@settings(max_examples=400, derandomize=True, deadline=None)
def test_parse_gives_a_tree_or_a_parse_error(text):
    try:
        e = ex.parse(text, variables=("x", "u"))
    except ParseError:
        return
    assert isinstance(e, ex.Expression)


_LEAVES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False).map(lambda v: ex.Const(abs(v))),
    st.sampled_from([ex.Const(math.pi), ex.Var("x"), ex.Var("u")]))


def _nodes(children):
    return st.one_of(
        st.builds(lambda make, l, r: make(l, r),
                  st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div]),
                  children, children),
        st.builds(lambda make, arg: make(arg),
                  st.sampled_from([ex.Neg, ex.Sin, ex.Cos, ex.Clamp]), children),
        st.builds(ex.Pow, children, st.integers(-5, 5)))


@given(st.recursive(_LEAVES, _nodes, max_leaves=10))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_parse_reads_back_what_str_prints(e):
    assert ex.parse(str(e), variables=("x", "u")) == e


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-5, max_value=5, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_constant_folding_matches_eval(a, b):
    e = ex.add(ex.Const(a), ex.mul(ex.Const(b), ex.Const(2.0)))
    assert ex.constant_value(e) == pytest.approx(a + 2 * b, nan_ok=True)


@given(st.integers(min_value=0, max_value=4),
       st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_pow_diff_property(k, x):
    e = ex.Pow(ex.Var("x"), k)
    d = e.diff("x")
    expected = 0.0 if k == 0 else k * x ** (k - 1)
    assert d.eval(x=x) == pytest.approx(expected, rel=1e-12)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("text", [
    "2.5", "x", "u", "x + u", "x - 0.5", "-3.0*x", "x/u", "1/x", "0/x",
    "-1/x", "-x", "sin(7*x)", "cos(x - u)", "clamp(x)", "clamp(-x)",
    "(x - 1)^3", "x^0", "x^-2", "(x - u)^-3", "sin(1e999*x)",
    "(1 + x)/(x - x) + cos(u)^2",
])
def test_compiled_matches_eval_bit_for_bit(text):
    e = ex.parse(text, variables=("x", "u"))
    f = e.compiled()
    assert e.compiled().__code__ is f.__code__  # compiled once
    grid = [0.0, -0.0, 1.0, -1.0, 0.3, 2.0, 1e-300, 1e300, -7.25]
    for x in grid:
        for u in grid:
            with np.errstate(all="ignore"):
                want, got = e.eval(x=x, u=u), f(x, u)
            assert _bits(got) == _bits(want), (text, x, u)


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2, 3])
def test_compiled_small_powers_bit_for_bit(k):
    # ^0, ^1 and ^2 compile to 1.0, b and b * b, which equal np.power
    grid = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-160, math.inf,
         -math.inf, math.nan, 1e155, -1e155, 1.5e154, 1e-155],
        np.random.default_rng(k + 2).normal(0.0, 10.0, 2000)])
    for text in (f"x^{k}", f"(x - 0.1)^{k}"):
        e = ex.parse(text)
        f = e.compiled()
        with np.errstate(all="ignore"):
            want = e.eval(x=grid)
            got = [f(x) for x in grid.tolist()]
        np.testing.assert_array_equal(_bits(got), _bits(want), text)


def test_compiled_function_is_freed_with_its_tree():
    import gc
    import weakref
    e = ex.parse("1/x")
    f = e.compiled()
    ref = weakref.ref(e)
    del e
    assert f(0.0) == math.inf  # the fallback still reaches the tree
    gc.disable()
    try:
        del f
        assert ref() is None  # freed without the cyclic collector
    finally:
        gc.enable()


def test_compiled_matches_eval_on_witness_pieces():
    from hillstab import witness as wt
    a = wt.make_a_eps(3, 2 * math.pi, 0.01)
    rng = np.random.default_rng(5)
    for s, e, piece in a.pieces:
        xs = np.concatenate([[s, e, 0.5 * (s + e)], rng.uniform(s, e, 200)])
        want = np.broadcast_to(piece.eval(x=xs), xs.shape)
        f = piece.compiled()
        got = [f(x) for x in xs.tolist()]
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_trees_of_one_shape_share_code():
    # constants are names of the function's namespace, so the code depends
    # only on the shape, and each function still reads its own constants
    e1, e2 = ex.parse("0.5+0.3*cos(x)"), ex.parse("1.2+0.4*cos(x)")
    f1, f2 = e1.compiled(), e2.compiled()
    assert f1.__code__ is f2.__code__
    xs = np.linspace(-7.0, 7.0, 301)
    for e, f in ((e1, f1), (e2, f2)):
        np.testing.assert_array_equal(_bits([f(x) for x in xs.tolist()]),
                                      _bits(e.eval(x=xs)))


def test_compiled_keeps_the_sign_of_zero():
    x = ex.Var("x")
    neg, pos = ex.Mul(ex.Const(-0.0), x), ex.Mul(ex.Const(0.0), x)
    assert neg.compiled().__code__ is pos.compiled().__code__
    assert _bits(neg.compiled()(1.0)) == _bits(-0.0)
    assert _bits(pos.compiled()(1.0)) == _bits(0.0)
    # one tree holding both: -0.0 x - 0.0 x is -0.0, not 0.0 x - 0.0 x
    both = ex.Sub(neg, pos)
    assert _bits(both.compiled()(1.0)) == _bits(both.eval(x=1.0)) == _bits(-0.0)


def test_compiled_non_finite_constants_match_eval():
    # inf and nan constants are bound like any other; where the float code
    # raises (sin(inf)), the function falls back to eval
    x, inf = ex.Var("x"), math.inf
    nan, neg_nan = math.nan, inf - inf  # the default nan has its sign bit set
    assert _bits(nan) != _bits(neg_nan)
    trees = [ex.Add(x, ex.Const(inf)), ex.Mul(ex.Const(-inf), x),
             ex.Sin(ex.Mul(ex.Const(inf), x)), ex.Cos(ex.Add(x, ex.Const(nan))),
             ex.Mul(ex.Const(nan), x), ex.Mul(ex.Const(neg_nan), x)]
    for e in trees:
        f = e.compiled()
        for v in (0.0, -0.0, 1.0, -2.5, inf, -inf):
            with np.errstate(all="ignore"):
                want = e.eval(x=v)
            assert _bits(f(v)) == _bits(want), (e, v)
    # two nans, equal to no other value, keep a name each (which of two
    # nans a sum returns is up to the interpreter, so their sum is not read)
    both = ex.Add(ex.Mul(ex.Const(nan), x), ex.Mul(ex.Const(neg_nan), x))
    assert {n for n in both.compiled().__code__.co_names
            if n.startswith("_k")} == {"_k0", "_k1"}


def test_a_eps_file_compiles_once_per_shape(monkeypatch):
    # the 16 ODE pieces of a loaded a_eps(3) are of three shapes
    import builtins
    from hillstab import coeff as cf
    from hillstab import witness as wt
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(ex, "_CODE", {})
    monkeypatch.setattr(ex, "compile", counted, raising=False)
    text = wt.make_a_eps(3, 2 * math.pi, 0.01).to_json()
    a = cf.PeriodicCoefficient.from_json(text)
    ode = [p for (_, _, p), c in zip(a.pieces, a.constants) if c is None]
    assert len(ode) == 16
    codes = {p.compiled().__code__ for p in ode}
    assert len(calls) == len(codes) == 3
    again = cf.PeriodicCoefficient.from_json(text)
    for (_, _, p), c in zip(again.pieces, again.constants):
        if c is None:
            p.compiled()  # the same file again compiles nothing
    assert len(calls) == 3
