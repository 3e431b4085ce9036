"""One expression evaluator at run time.

Both engines run expressions compiled by :mod:`repro.expr.pycompile`.
The tree-walking interpreter the tests check the compiler against lives
in ``tests/reference_eval.py``: the package ships no ``repro.expr.eval``,
and nothing under ``src/repro`` names it.
"""

import ast
import importlib.util
import time
from pathlib import Path

import pytest

import repro
from repro import compile_description
from repro.codegen import compile_generated

SRC = Path(repro.__file__).parent


def _imports_eval(text: str, package: str) -> bool:
    """Whether module source ``text`` in ``package`` imports
    ``repro.expr.eval`` (absolutely or relatively)."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1]
                                + ([base] if base else []))
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if "repro.expr.eval" in names:
            return True
    return False


def test_only_the_reference_module_is_the_interpreter():
    assert importlib.util.find_spec("repro.expr.eval") is None
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        package = ".".join(path.relative_to(SRC.parent).parts[:-1])
        if _imports_eval(path.read_text(), package):
            importers.append(str(path.relative_to(SRC)))
    assert importers == []


@pytest.mark.parametrize("text", ["from ..expr.eval import eval_expr\n",
                                  "from ..expr import eval\n",
                                  "import repro.expr.eval\n",
                                  "from repro.expr.eval import Env\n"])
def test_the_guard_sees_relative_and_absolute_imports(text):
    assert _imports_eval(text, "repro.core")
    assert not _imports_eval("from ..expr import runtime\n", "repro.core")


SPIN = """
    bool spin(int a) { while (a > 0) { a = a + 1; } return true; };
    Precord Pstruct spin_t { Puint32 x : spin(x); };
"""


@pytest.mark.parametrize("make", [compile_description, compile_generated],
                         ids=["interp", "gen"])
def test_a_runaway_helper_loop_is_an_evaluation_failure(make):
    """Compiled loops stop after the reference interpreter's bound, so a
    helper that never terminates fails its constraint instead of
    holding the parse (or a parse-service worker) forever."""
    desc = make(SPIN)
    t0 = time.perf_counter()
    (rep, pd), = desc.records(b"1\n", "spin_t")
    assert pd.nerr == 1
    assert pd.err_code.name == "USER_CONSTRAINT_VIOLATION"
    assert rep.x == 1
    assert time.perf_counter() - t0 < 120
