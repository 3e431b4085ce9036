"""The PADS compiler: descriptions -> Python library modules.

Mirrors the paper's compile-don't-interpret design decision ("we compile
the PADS description rather than simply interpret it to reduce run-time
overhead", Section 1): every expression site, record parser, record
writer and batch kernel is compiled to Python when the description is
bound (:mod:`repro.plan.runtime`).  This package emits the paper's
Figure 6 surface over that bound description as one importable module.

Typical use::

    from repro.codegen import compile_generated
    gen = compile_generated(description_text)
    rep, pd = gen.parse(data, "entry_t")
    gen.module.entry_t_verify(rep)

``generate_source`` returns the module source (what ``padsc compile``
writes to disk); ``compile_generated`` binds the description once and
returns it as a :class:`GeneratedDescription`, whose ``module`` is that
source loaded, on first access, with the description preset as the one
its functions run on.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from ..core.api import CompiledDescription, bind_text
from ..core.io import RecordDiscipline
from ..core.limits import ParseLimits
from ..dsl.parser import parse_description
from ..dsl.typecheck import check_description
from .emitter import generate_source as _emit
from .emitter import load_source

__all__ = ["generate_source", "compile_generated", "GeneratedDescription"]


def generate_source(text: str, *, ambient: str = "ascii",
                    filename: str = "<description>",
                    check: bool = True, fastpath: bool = True) -> str:
    """Compile description source to Python module source.

    ``fastpath=False`` makes the module's ``_interp()`` compile its
    description in reference mode (differential testing).
    """
    desc = parse_description(text, filename)
    if check:
        check_description(desc, ambient)
    return _emit(desc, ambient, source_text=text, fastpath=fastpath)


def compile_generated(text: str, *, ambient: str = "ascii",
                      discipline: Optional[RecordDiscipline] = None,
                      filename: str = "<description>",
                      check: bool = True,
                      fastpath: bool = True,
                      limits: Optional[ParseLimits] = None) -> "GeneratedDescription":
    """Bind ``text`` once and load its generated module over it."""
    bound = bind_text(text, ambient=ambient, filename=filename, check=check,
                      fastpath=fastpath)
    py_source = _emit(bound.desc, ambient, source_text=text, plan=bound.plan,
                      fastpath=fastpath)
    return GeneratedDescription(bound, discipline, text, limits, py_source)


class GeneratedDescription(CompiledDescription):
    """A compiled description plus its generated module, whose per-type
    functions run on this description (the module's ``_interp()``)."""

    def __init__(self, bound, discipline: Optional[RecordDiscipline] = None,
                 source_text: Optional[str] = None,
                 limits: Optional[ParseLimits] = None, py_source: str = ""):
        super().__init__(bound, discipline, source_text, limits)
        #: The module source that is ``exec``'d to build ``module``.
        self.py_source = py_source

    @cached_property
    def module(self):
        """The generated module over this description, loaded on first
        access, so a description used only through ``parse``/``records``
        /``write`` never execs its source."""
        module = load_source(self.py_source)
        module._INTERP = self
        return module

    def dump(self) -> str:
        return self.py_source
