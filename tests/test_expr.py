from __future__ import annotations

import math

import numpy as np
import pytest

import helpers
from gammachain import chain, expr
from gammachain.expr import (BinOp, Call, DifferentiationError, EvalError, Neg,
                             Num, ParseError, UnknownIdentifierError, Var,
                             compile_expr, diff, evaluate, parse, to_string)


def ev(text, allowed, **bindings):
    return evaluate(parse(text, allowed), bindings)


class TestParse:
    def test_logistic(self):
        assert ev("u*(1-u)", ["u"], u=0.5) == 0.25

    def test_example_g(self):
        tree = parse("-x0*(1+x2)", ["x0", "x1", "x2"])
        for x0, x2 in [(0.0, 0.0), (1.0, -1.0), (0.3, 0.7), (-2.0, 1.5)]:
            got = evaluate(tree, {"x0": x0, "x2": x2})
            assert got == (-x0) * (1.0 + x2)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("u +* 2", ["u"])
        assert err.value.offset == 3

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("", ["u"])
        with pytest.raises(ParseError):
            parse("   ", ["u"])

    def test_unknown_identifier_named(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("u + bogus", ["u"])
        assert err.value.name == "bogus"

    def test_precedence(self):
        assert ev("2^3^2", []) == 512.0          # right-associative power
        assert ev("-2^2", []) == -4.0            # power binds above unary minus
        assert ev("2^-3", []) == 0.125           # unary minus in the exponent
        assert ev("6/3/2", []) == 1.0            # left-associative division
        assert ev("1-2-3", []) == -4.0
        assert ev("2+3*4", []) == 14.0
        assert ev("-3^2+1", []) == -8.0

    def test_pi_and_functions(self):
        assert ev("cos(pi)", []) == -1.0
        assert ev("abs(-3)+exp(0)", []) == 4.0
        with pytest.raises(ParseError):
            parse("sin + 1", [])

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+2)", [])
        with pytest.raises(ParseError):
            parse("1.2.3", [])


class TestEvaluate:
    def test_forcing_at_origin(self):
        assert ev("1+x*sin(2*pi*t)", ["x", "t"], x=0.0, t=0.3) == 1.0

    def test_phi_at_lifted_zero(self):
        assert ev("q-p", ["p", "q"], p=1.0, q=0.0) == -1.0

    def test_pole_is_error(self):
        with pytest.raises(EvalError):
            ev("1/u", ["u"], u=0.0)

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            ev("u+v", ["u", "v"], u=1.0)

    def test_bad_power(self):
        with pytest.raises(EvalError):
            ev("(0-2)^0.5", [])
        with pytest.raises(EvalError):
            ev("0^-1", [])

    def test_overflow_is_error(self):
        with pytest.raises(EvalError):
            ev("exp(u)*exp(u)", ["u"], u=500.0)


class TestDiff:
    def test_logistic_slope_against_fd(self):
        tree = parse("u*(1-u)", ["u"])
        d = diff(tree, "u")
        fd = helpers.central_fd(lambda x: evaluate(tree, {"u": x}), 0.0)
        got = evaluate(d, {"u": 0.0})
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(fd, abs=1e-8)

    def test_sine_chain_rule(self):
        d = diff(parse("sin(2*pi*t)", ["t"]), "t")
        assert evaluate(d, {"t": 0.0}) == pytest.approx(2 * math.pi, abs=1e-12)

    def test_linear_map_constant_derivative(self):
        d = diff(parse("q-p", ["p", "q"]), "p")
        for p, q in [(0.0, 0.0), (3.0, -2.0), (0.5, 0.25)]:
            assert evaluate(d, {"p": p, "q": q}) == -1.0

    def test_abs_kink_errors_off_zero_ok(self):
        d = diff(parse("abs(u)", ["u"]), "u")
        assert evaluate(d, {"u": 2.0}) == 1.0
        assert evaluate(d, {"u": -2.0}) == -1.0
        with pytest.raises(EvalError):
            evaluate(d, {"u": 0.0})

    def test_variable_exponent_rejected(self):
        with pytest.raises(DifferentiationError):
            diff(parse("u^u", ["u"]), "u")

    def test_quotient_rule(self):
        tree = parse("u/(1+u^2)", ["u"])
        d = diff(tree, "u")
        for x in (0.0, 0.7, -1.3):
            fd = helpers.central_fd(lambda y: evaluate(tree, {"u": y}), x)
            assert evaluate(d, {"u": x}) == pytest.approx(fd, rel=1e-7, abs=1e-8)


def test_fd_property_random_expressions():
    rng = np.random.default_rng(1234)
    variables = ("u", "v")
    checked = 0
    for _ in range(100):
        tree = helpers.random_expr(rng, variables)
        for var in variables:
            if var not in expr.free_vars(tree):
                continue
            try:
                d = diff(tree, var)
            except DifferentiationError:
                continue
            for bindings, fd in helpers.smooth_sample_points(tree, variables, rng, var):
                try:
                    sym = evaluate(d, bindings)
                except EvalError:
                    continue
                assert abs(sym - fd) <= 1e-5 * (1.0 + abs(fd)), \
                    f"{to_string(tree)} d/d{var} at {bindings}"
                checked += 1
    assert checked > 200


def test_print_parse_round_trip():
    rng = np.random.default_rng(987)
    variables = ("u", "v")
    done = 0
    while done < 100:
        tree = helpers.random_expr(rng, variables)
        text = to_string(tree)
        reparsed = parse(text, variables)
        agreed = 0
        for _ in range(20):
            bindings = {v: float(rng.uniform(-2, 2)) for v in variables}
            try:
                a = evaluate(tree, bindings)
            except EvalError:
                continue
            assert evaluate(reparsed, bindings) == a, text
            agreed += 1
        if agreed:
            done += 1


def test_printing_is_fully_parenthesized():
    assert str(parse("-u*(1+v)", ("u", "v"))) == "((-u) * (1.0 + v))"
    # the grammar has no signed literals: (-2)^u is not -(2^u)
    tree = BinOp("^", Num(-2.0), Var("u"))
    assert to_string(tree) == "((-2.0) ^ u)"
    assert evaluate(parse(to_string(tree), ("u",)), {"u": 2.0}) == 4.0


def test_long_chains_compile():
    # a left-to-right chain of + - or * / takes one pair of parentheses, so
    # 300 terms stay below the 200 nesting levels of CPython's tokenizer
    variables = ("x0", "x1", "x2")
    tree = parse("-x0*(1+x2)" + "+0.001*x0" * 300 + "-0.3*x0", variables)
    text = to_string(tree)
    assert text.startswith("(((-x0) * (1.0 + x2)) + (0.001 * x0) + (0.001 * x0) + ")
    assert to_string(parse(text, variables)) == text
    assert str(parse("u/v/u*v", ("u", "v"))) == "(u / v / u * v)"
    fn = compile_expr(tree, variables)
    rng = np.random.default_rng(3)
    for x in rng.uniform(-2, 2, (20, 3)):
        assert fn(*x) == evaluate(tree, dict(zip(variables, x)))


def c_nesting(e):
    """The deepest parenthesis nesting of e's C, ``expr._code(e, c=True)``."""
    level = deepest = 0
    for c in expr._code(e, c=True):
        level += (c == "(") - (c == ")")
        deepest = max(deepest, level)
    return deepest


def test_source_nests_at_most_one_pair_per_level():
    # ProblemSpec and Phi' measure a tree's nesting only when it is more
    # than expr.MAX_NESTING levels deep; the C of a tree nests no deeper
    # than its Python source, which keeps the compiled float stages below
    # clang's default bracket depth of 256
    variables = ("u", "v")
    texts = ("u", "-u*(1+v)", "-(-(-u))", "u^v^u", "sin(u)+v+v", "u/v/u", "u/v*u/sin(v)",
             "u/sin(v/cos(u/v))", "-(u/v)", "exp(u/v)/v")
    trees = [parse(text, variables) for text in texts]
    assert [chain._nesting(t) for t in trees] == [0, 2, 3, 2, 2, 1, 2, 5, 2, 3]
    assert [c_nesting(t) for t in trees] == [0, 1, 2, 2, 1, 1, 2, 5, 2, 2]
    assert chain._nesting(Num(-2.0)) == 1
    rng = np.random.default_rng(55)
    for _ in range(200):
        tree = helpers.random_expr(rng, variables)
        for t in (tree, *(diff(tree, var) for var in variables
                          if var in expr.free_vars(tree))):
            assert chain._nesting(t) <= expr.depth(t), to_string(t)
            assert c_nesting(t) <= chain._nesting(t), to_string(t)


def test_c_spelling():
    # the C of the compiled float stages: a check around each divisor and
    # each sin, cos, exp and pow, C's fabs for abs, no pair around the
    # whole or around an argument, and the names given for the variables
    tree = parse("u/v/2 - u^v + exp(-u)*abs(v)/sin(u+v) - (-1.5)", ("u", "v"))
    assert expr._code(tree, {"u": "w[0]"}, c=True) == (
        "(w[0] / DIVISOR(v) / DIVISOR(2.0)) - POW(w[0], v)"
        " + (EXP(-w[0]) * fabs(v) / DIVISOR(SIN(w[0] + v))) - (-1.5)")
    assert expr._code(parse("cos(u/(v - 1))", ("u", "v")), c=True) == "COS(u / DIVISOR(v - 1.0))"


def test_trees_are_immutable_and_hashable():
    tree = parse("u*(1-u)", ["u"])
    with pytest.raises(Exception):
        tree.op = "+"
    assert hash(tree) == hash(parse("u*(1-u)", ["u"]))
    assert tree == parse("u*(1-u)", ["u"])


@pytest.mark.parametrize("make, other", [
    (lambda: Num(2.0), lambda: Num(3.0)),
    (lambda: Var("u"), lambda: Var("v")),
    (lambda: Neg(Var("u")), lambda: Neg(Num(1.0))),
    (lambda: BinOp("+", Var("u"), Num(1.0)), lambda: BinOp("-", Var("u"), Num(1.0))),
    (lambda: Call("sin", Var("u")), lambda: Call("cos", Var("u"))),
], ids=["Num", "Var", "Neg", "BinOp", "Call"])
def test_each_node_compares_and_hashes_by_value(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other() and not a == Var("w") and a != "u"
    assert {a: 1}[b] == 1
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))


def test_deep_trees_hash_and_compare_without_recursion():
    # a sum of 3000 terms is deeper than the recursion limit
    text = "u" + "+0.001*u" * 3000
    a, b = parse(text, ["u"]), parse(text, ["u"])
    assert a == b and hash(a) == hash(b)
    assert a != parse(text + "+u", ["u"]) and a != parse(text[:-1] + "2", ["u"])
    assert expr.depth(a) == 3002 and expr.depth(Var("u")) == 1
    assert expr.depth(parse("-(u*sin(u))", ["u"])) == 4


def test_compiled_matches_tree_walker_bitwise():
    rng = np.random.default_rng(55)
    variables = ("u", "v")
    for _ in range(60):
        tree = helpers.random_expr(rng, variables)
        fn = compile_expr(tree, variables)
        for _ in range(5):
            u, v = rng.uniform(-2, 2), rng.uniform(-2, 2)
            try:
                want = evaluate(tree, {"u": u, "v": v})
            except EvalError:
                continue
            assert fn(u, v) == want


def test_compiled_vectorized_matches_scalar():
    tree = parse("sin(u)*exp(0-u^2)+v", ["u", "v"])
    fs = compile_expr(tree, ("u", "v"))
    fv = compile_expr(tree, ("u", "v"), vectorized=True)
    us = np.linspace(-2, 2, 11)
    vs = np.linspace(0, 1, 11)
    got = fv(us, vs)
    want = np.array([fs(u, v) for u, v in zip(us, vs)])
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_compile_rejects_unlisted_variables():
    with pytest.raises(ValueError):
        compile_expr(parse("u+v", ["u", "v"]), ("u",))


def test_nonfinite_literal_rejected():
    with pytest.raises(ParseError):
        parse("1e999", [])
    with pytest.raises(ValueError):
        Num(math.inf)
