"""Helpers imported by code compiled from PADS expressions.

A bound description's runtime namespace (:mod:`repro.plan.runtime`)
and a generated module's helper functions run expressions compiled by
:mod:`repro.expr.pycompile`; the few places where C semantics and Python
semantics differ are routed through these helpers, and the builtin
functions descriptions may call live here.
"""

from __future__ import annotations

from typing import Any, Callable, Dict


def cdiv(a: Any, b: Any) -> Any:
    """C-style division: truncates toward zero on integers."""
    if isinstance(a, int) and isinstance(b, int):
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def cmod(a: Any, b: Any) -> Any:
    """C-style remainder: sign follows the dividend."""
    if isinstance(a, int) and isinstance(b, int):
        return a - cdiv(a, b) * b
    return a % b


def member(obj: Any, name: str) -> Any:
    """Field access over runtime representations.

    Works for struct reps (attribute access), union reps (``tag``/value
    projection), arrays (``length``) and plain dicts; a missing field
    raises ``KeyError``/``AttributeError``.
    """
    if isinstance(obj, dict):
        return obj[name]
    if isinstance(obj, (list, tuple)) and name == "length":
        return len(obj)
    return getattr(obj, name)


BUILTINS: Dict[str, Callable] = {
    "strlen": len,
    "substr": lambda s, start, length: s[start:start + length],
    "abs": abs,
    "min": min,
    "max": max,
    "length": len,
    "tolower": lambda s: s.lower(),
    "toupper": lambda s: s.upper(),
    "startswith": lambda s, p: s.startswith(p),
    "endswith": lambda s, p: s.endswith(p),
    "contains": lambda s, p: p in s,
}
