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
writes to disk).  ``compile_generated`` is ``compile_description``: every
:class:`~repro.core.api.CompiledDescription` emits its ``py_source`` and
loads its ``module`` on first access, with itself preset as the
description the module's functions run on.
"""

from __future__ import annotations

from ..core.api import compile_description as compile_generated
from ..dsl.parser import parse_description
from ..dsl.typecheck import check_description

__all__ = ["generate_source", "compile_generated"]


def generate_source(text: str, *, ambient: str = "ascii",
                    filename: str = "<description>",
                    check: bool = True, fastpath: bool = True) -> str:
    """Compile description source to Python module source.

    ``fastpath=False`` makes the module's ``_interp()`` compile its
    description in reference mode (differential testing).
    """
    from .emitter import generate_source as emit
    desc = parse_description(text, filename)
    if check:
        check_description(desc, ambient)
    return emit(desc, ambient, source_text=text, fastpath=fastpath)
