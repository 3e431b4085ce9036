"""The line writer every generator of Python source shares.

The plan's compilers (:mod:`repro.plan.fastpath`, :mod:`repro.plan.split`),
the accumulator adder (:mod:`repro.tools.adder`) and the delimited
formatter (:mod:`repro.tools.fmt`) all partially evaluate one general
routine into straight-line source.  They emit it through :class:`Lines`,
number their temporaries with :class:`Fresh`, and load a template with
:func:`template`.

A writer carries its *fail statement*, the one statement that gives up on
the current value: ``return None`` in record and member fast functions
and writers, ``raise _BT_MISS`` in batch kernels, ``return (False, None)``
in tail-element converters.  Code that fails emits it through the writer
(:meth:`Lines.fail`), so a fragment compiled for one function kind is
never rewritten for another.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TypeVar

#: Deepest nesting a generator inlines; a subtree below it is handed to
#: the general routine.  This keeps generated source within CPython's
#: limits on nested indentation (100 levels) and blocks (20) for any
#: description.
MAX_DEPTH = 16

_R = TypeVar("_R")


class Fresh:
    """Numbered names, ``prefix1``, ``prefix2``, ... in request order; a
    call may name another prefix, which shares the numbering."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.n = 0

    def __call__(self, prefix: Optional[str] = None) -> str:
        self.n += 1
        return f"{self.prefix if prefix is None else prefix}{self.n}"


class Lines:
    """Indented lines of Python source, written at the current depth;
    ``with w.block(header):`` writes ``header`` and indents what the
    body writes."""

    def __init__(self, depth: int = 0, fail: str = "return None"):
        self.lines: List[str] = []
        self.depth = depth
        self.fail_stmt = fail

    def w(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def block(self, header: str) -> "Lines":
        self.w(header)
        return self

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, *exc) -> None:
        self.depth -= 1

    def fail(self, cond: Optional[str] = None) -> None:
        """The fail statement, run when ``cond`` holds (always without)."""
        if cond is None:
            self.w(self.fail_stmt)
        else:
            with self.block(f"if {cond}:"):
                self.w(self.fail_stmt)

    def extend(self, lines: List[str]) -> None:
        """Lines emitted elsewhere (at depth 0), indented to this depth."""
        pad = "    " * self.depth
        self.lines.extend(pad + line for line in lines)

    def apart(self, emit: Callable[..., _R], *args) -> Tuple[List[str], _R]:
        """``(lines, result)`` of ``emit(*args)`` one level deeper, its
        lines kept apart, to be placed under a header chosen after."""
        saved, self.lines = self.lines, []
        self.depth += 1
        try:
            result = emit(*args)
        finally:
            self.depth -= 1
            lines, self.lines = self.lines, saved
        return lines, result


def template(source: str, filename: str, namespace: Dict[str, object]):
    """Compile and run ``source`` in ``namespace``; its ``_make``."""
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_make"]
