"""Cross-checks: user helper functions evaluated by the interpreter and
as compiled Python must agree — including statements, loops, recursion
and C division semantics (the compiled form is what generated parser
modules embed)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsl.parser import parse_description
from repro.expr.pycompile import compile_function
from repro.expr.runtime import BUILTINS, cdiv, cmod, member

from .reference_eval import Env, call_function

FUNCTIONS = """
    int clamp(int x, int lo, int hi) {
      if (x < lo) return lo;
      if (x > hi) return hi;
      return x;
    };

    int gcd(int a, int b) {
      while (b != 0) {
        int t = b;
        b = a % b;
        a = t;
      }
      return a;
    };

    int tri(int n) {
      int acc = 0;
      for (int i = 1; i <= n; i += 1) acc += i;
      return acc;
    };

    int collatz(int n) {
      int steps = 0;
      while (n > 1) {
        if (n % 2 == 0) n /= 2; else n = 3 * n + 1;
        steps += 1;
      }
      return steps;
    };

    int fib(int n) {
      if (n <= 1) return n;
      return fib(n - 1) + fib(n - 2);
    };

    int sign_div(int a, int b) {
      return a / b + a % b;
    };

    bool in_band(int x, int mid, int radius) {
      int lo = mid - radius;
      int hi = mid + radius;
      return lo <= x && x <= hi;
    };

    int poly(int x) {
      return ((3 * x + 1) * x - 7) * x + 2;
    };
"""


@pytest.fixture(scope="module")
def both():
    desc = parse_description(FUNCTIONS)
    fns = desc.functions()
    env = Env({}, funcs=fns)

    compiled_ns = {"_cdiv": cdiv, "_cmod": cmod, "_member": member}
    resolver = (lambda n: f"fn_{n}" if n in fns else
                (f"_B[{n!r}]" if n in BUILTINS else n))
    compiled_ns["_B"] = BUILTINS
    for fn in fns.values():
        exec(compile_function(fn, resolver, name_prefix="fn_"),  # noqa: S102
             compiled_ns)

    def interp(name, *args):
        return call_function(fns[name], list(args), env)

    def compiled(name, *args):
        return compiled_ns[f"fn_{name}"](*args)

    return interp, compiled


CASES = [
    ("clamp", [(-5, 0, 10), (5, 0, 10), (50, 0, 10), (0, 0, 0)]),
    ("gcd", [(12, 18), (17, 5), (0, 9), (100, 100)]),
    ("tri", [(0,), (1,), (10,), (100,)]),
    ("collatz", [(1,), (6,), (27,)]),
    ("fib", [(0,), (1,), (10,)]),
    ("sign_div", [(7, 2), (-7, 2), (7, -2), (-7, -2)]),
    ("in_band", [(5, 10, 3), (8, 10, 3), (13, 10, 3), (14, 10, 3)]),
    ("poly", [(0,), (3,), (-4,)]),
]


@pytest.mark.parametrize("name,arg_sets", CASES)
def test_interpreter_and_compiled_agree(both, name, arg_sets):
    interp, compiled = both
    for args in arg_sets:
        assert interp(name, *args) == compiled(name, *args), (name, args)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(-50, 50), b=st.integers(-50, 50), c=st.integers(-50, 50))
def test_property_agreement_on_random_inputs(both, a, b, c):
    interp, compiled = both
    lo, hi = sorted((b, c))
    assert interp("clamp", a, lo, hi) == compiled("clamp", a, lo, hi)
    assert interp("in_band", a, b, abs(c)) == compiled("in_band", a, b, abs(c))
    assert interp("poly", a) == compiled("poly", a)
    if b != 0:
        assert interp("sign_div", a, b) == compiled("sign_div", a, b)
    assert interp("gcd", abs(a), abs(b)) == compiled("gcd", abs(a), abs(b))


def test_known_values(both):
    interp, _ = both
    assert interp("gcd", 12, 18) == 6
    assert interp("tri", 100) == 5050
    assert interp("collatz", 27) == 111
    assert interp("fib", 10) == 55
    # C semantics: -7/2 == -3 (trunc), -7%2 == -1.
    assert interp("sign_div", -7, 2) == -4
