"""Tests for the embedded expression language.

Covers the interpreter, the Python compiler, and — crucially — their
agreement on randomly generated expressions (the code generator relies on
the two implementations being semantically identical).
"""

import pytest
from hypothesis import given, strategies as st

from repro.expr import ast as E
from repro.expr.pycompile import compile_expr, compile_function
from repro.expr.runtime import BUILTINS, cdiv, cmod, member
from repro.dsl.parser import parse_description

from .reference_eval import Env, EvalError, call_function, eval_expr


def parse_expr(text):
    desc = parse_description(f"Pstruct p {{ Puint8 x : {text}; }};")
    return desc.decls[0].items[0].constraint


def ev(text, **vars):
    return eval_expr(parse_expr(text), Env(dict(vars)))


class TestInterpreter:
    def test_arithmetic(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("10 - 4 - 3") == 3

    def test_c_division_truncates_toward_zero(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3
        assert ev("7 / -2") == -3

    def test_c_modulo_sign_follows_dividend(self):
        assert ev("7 % 3") == 1
        assert ev("-7 % 3") == -1

    def test_division_by_zero_is_eval_error(self):
        with pytest.raises(EvalError):
            ev("1 / 0")
        with pytest.raises(EvalError):
            ev("1 % 0")

    def test_comparisons(self):
        assert ev("100 <= x && x < 600", x=200) is True
        assert ev("100 <= x && x < 600", x=600) is False

    def test_short_circuit(self):
        # The right operand would divide by zero; && must not evaluate it.
        assert ev("false && (1 / 0 == 1)") is False
        assert ev("true || (1 / 0 == 1)") is True

    def test_ternary(self):
        assert ev("x > 0 ? 1 : -1", x=5) == 1
        assert ev("x > 0 ? 1 : -1", x=-5) == -1

    def test_bitwise(self):
        assert ev("(5 & 3) | (1 << 4)") == 17
        assert ev("~0") == -1
        assert ev("6 ^ 3") == 5

    def test_char_is_string(self):
        assert ev("x == '-'", x="-") is True

    def test_member_on_dict(self):
        assert ev("x.a + x.b", x={"a": 1, "b": 2}) == 3

    def test_length_member_on_list(self):
        assert ev("x.length", x=[1, 2, 3]) == 3

    def test_index(self):
        assert ev("x[1]", x=[10, 20]) == 20

    def test_unbound_name(self):
        with pytest.raises(EvalError):
            ev("nosuch + 1")

    def test_forall(self):
        assert ev("Pforall (i Pin [0..2] : x[i] <= x[i+1])", x=[1, 2, 3, 4]) is True
        assert ev("Pforall (i Pin [0..2] : x[i] <= x[i+1])", x=[1, 5, 3, 4]) is False

    def test_forall_empty_range_is_true(self):
        assert ev("Pforall (i Pin [0..-1] : false)") is True

    def test_exists(self):
        assert ev("Pexists (i Pin [0..3] : x[i] == 9)", x=[1, 9, 3, 4]) is True
        assert ev("Pexists (i Pin [0..3] : x[i] == 9)", x=[1, 2, 3, 4]) is False

    def test_builtins(self):
        assert ev("strlen(x)", x="hello") == 5
        assert ev("substr(x, 1, 3)", x="hello") == "ell"
        assert ev("tolower(x)", x="ABC") == "abc"
        assert ev("startswith(x, \"no_ii\")", x="no_ii123") is True


class TestFunctions:
    def make(self, text):
        desc = parse_description(text)
        return desc.functions()

    def test_chk_version_shape(self):
        fns = self.make("""
          bool chkVersion(int major, int minor, string m) {
            if ((major == 1) && (minor == 1)) return true;
            if ((m == "LINK") || (m == "UNLINK")) return false;
            return true;
          };
        """)
        env = Env({}, funcs=fns)
        fn = fns["chkVersion"]
        assert call_function(fn, [1, 1, "LINK"], env) is True
        assert call_function(fn, [1, 0, "LINK"], env) is False
        assert call_function(fn, [1, 0, "GET"], env) is True

    def test_recursion(self):
        fns = self.make("""
          int fact(int n) {
            if (n <= 1) return 1;
            return n * fact(n - 1);
          };
        """)
        env = Env({}, funcs=fns)
        assert call_function(fns["fact"], [5], env) == 120

    def test_loops_and_locals(self):
        fns = self.make("""
          int sumTo(int n) {
            int acc = 0;
            int i = 0;
            while (i <= n) { acc += i; i += 1; }
            return acc;
          };
        """)
        env = Env({}, funcs=fns)
        assert call_function(fns["sumTo"], [10], env) == 55

    def test_for_loop(self):
        fns = self.make("""
          int squares(int n) {
            int acc = 0;
            for (int i = 1; i <= n; i += 1) acc += i * i;
            return acc;
          };
        """)
        env = Env({}, funcs=fns)
        assert call_function(fns["squares"], [3], env) == 14

    def test_wrong_arity(self):
        fns = self.make("bool f(int a) { return true; };")
        with pytest.raises(EvalError):
            call_function(fns["f"], [1, 2], Env({}, funcs=fns))

    def test_globals_visible_not_caller_locals(self):
        fns = self.make("int f() { return g + 1; };")
        root = Env({"g": 41}, funcs=fns)
        caller = root.child({"local_only": 5})
        assert call_function(fns["f"], [], caller) == 42
        fns2 = self.make("int f() { return local_only; };")
        caller2 = Env({"g": 1}, funcs=fns2).child({"local_only": 5})
        with pytest.raises(EvalError):
            call_function(fns2["f"], [], caller2)


class TestCompiler:
    def run_compiled(self, text, **vars):
        expr = parse_expr(text)
        code = compile_expr(expr)
        ns = {"_cdiv": cdiv, "_cmod": cmod, "_member": member, **BUILTINS, **vars}
        return eval(code, ns)  # noqa: S307 - test-controlled input

    @pytest.mark.parametrize("text,vars,expected", [
        ("1 + 2 * 3", {}, 7),
        ("-7 / 2", {}, -3),
        ("-7 % 3", {}, -1),
        ("x > 0 ? 1 : -1", {"x": 3}, 1),
        ("100 <= x && x < 600", {"x": 42}, False),
        ("x == '-'", {"x": "-"}, True),
        ("x[0] + x.length", {"x": [5, 6]}, 7),
        ("Pforall (i Pin [0..2] : x[i] < x[i+1])", {"x": [1, 2, 3, 4]}, True),
        ("Pexists (i Pin [0..2] : x[i] == 2)", {"x": [1, 2, 3]}, True),
        ("strlen(x)", {"x": "abcd"}, 4),
    ])
    def test_compiled_matches_expected(self, text, vars, expected):
        assert self.run_compiled(text, **vars) == expected

    def test_compiled_function(self):
        desc = parse_description("""
          int clamp(int x, int lo, int hi) {
            if (x < lo) return lo;
            if (x > hi) return hi;
            return x;
          };
        """)
        fn = desc.functions()["clamp"]
        src = compile_function(fn)
        ns = {"_cdiv": cdiv, "_cmod": cmod, "_member": member}
        exec(src, ns)  # noqa: S102 - test-controlled input
        assert ns["clamp"](5, 0, 3) == 3
        assert ns["clamp"](-5, 0, 3) == 0
        assert ns["clamp"](2, 0, 3) == 2

    def test_resolver_maps_names(self):
        expr = parse_expr("FOO == x")
        code = compile_expr(expr, lambda n: {"FOO": "'foo'"}.get(n, n))
        assert eval(code, {"x": "foo"}) is True  # noqa: S307


# ---------------------------------------------------------------------------
# Property: interpreter and compiler agree on random integer expressions.
# ---------------------------------------------------------------------------

_int_expr = st.deferred(lambda: st.one_of(
    st.integers(-50, 50).map(E.IntLit),
    st.sampled_from(["a", "b"]).map(E.Name),
    st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]), _int_expr, _int_expr)
      .map(lambda t: E.Binary(t[0], t[1], t[2])),
    st.tuples(_bool_expr, _int_expr, _int_expr)
      .map(lambda t: E.Ternary(t[0], t[1], t[2])),
))

_bool_expr = st.deferred(lambda: st.one_of(
    st.booleans().map(E.BoolLit),
    st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              _int_expr, _int_expr).map(lambda t: E.Binary(t[0], t[1], t[2])),
    st.tuples(st.sampled_from(["&&", "||"]), _bool_expr, _bool_expr)
      .map(lambda t: E.Binary(t[0], t[1], t[2])),
    _bool_expr.map(lambda e: E.Unary("!", e)),
))


@given(expr=_int_expr | _bool_expr, a=st.integers(-20, 20), b=st.integers(-20, 20))
def test_interpreter_and_compiler_agree(expr, a, b):
    env = Env({"a": a, "b": b})
    try:
        interpreted = eval_expr(expr, env)
        interp_err = None
    except EvalError:
        interpreted = None
        interp_err = True

    code = compile_expr(expr)
    ns = {"_cdiv": cdiv, "_cmod": cmod, "_member": member, "a": a, "b": b}
    try:
        compiled = eval(code, ns)  # noqa: S307
        comp_err = None
    except (EvalError, ZeroDivisionError):
        compiled = None
        comp_err = True

    assert interp_err == comp_err
    if interp_err is None:
        assert interpreted == compiled


# ---------------------------------------------------------------------------
# Property: the statement-level check form (a top-level quantifier as a
# `for` loop) agrees with the interpreter, errors and short-circuit order
# included.
# ---------------------------------------------------------------------------

_i_int_expr = st.deferred(lambda: st.one_of(
    st.integers(-5, 5).map(E.IntLit),
    st.sampled_from(["a", "b", "i"]).map(E.Name),
    st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]), _i_int_expr,
              _i_int_expr).map(lambda t: E.Binary(t[0], t[1], t[2])),
))

_i_bool_expr = st.deferred(lambda: st.one_of(
    st.booleans().map(E.BoolLit),
    st.tuples(st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
              _i_int_expr, _i_int_expr).map(lambda t: E.Binary(*t)),
    st.tuples(st.sampled_from(["&&", "||"]), _i_bool_expr, _i_bool_expr)
      .map(lambda t: E.Binary(t[0], t[1], t[2])),
))

_bound = st.one_of(st.integers(-2, 6).map(E.IntLit),
                   st.sampled_from(["a", "b"]).map(E.Name))


@given(quant=st.sampled_from([E.Forall, E.Exists]), lo=_bound, hi=_bound,
       body=_i_bool_expr, a=st.integers(-4, 4), b=st.integers(-4, 4))
def test_check_form_agrees_with_interpreter(quant, lo, hi, body, a, b):
    from repro.expr.pycompile import compile_check
    expr = quant("i", lo, hi, body)
    try:
        interpreted = bool(eval_expr(expr, Env({"a": a, "b": b})))
    except EvalError:
        interpreted = None
    lines = compile_check(expr, lambda n: n, "return False")
    ns = {"_cdiv": cdiv, "_cmod": cmod}
    exec("def check(a, b):\n" + "".join(f"    {line}\n" for line in lines)
         + "    return True\n", ns)  # noqa: S102 - test-built source
    try:
        compiled = ns["check"](a, b)
    except ZeroDivisionError:
        compiled = None
    assert compiled == interpreted
