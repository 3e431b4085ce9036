"""The PADS compiler: descriptions -> Python parser modules.

Mirrors the paper's compile-don't-interpret design decision ("we compile
the PADS description rather than simply interpret it to reduce run-time
overhead", Section 1).  The ablation benchmark compares the two paths.

Typical use::

    from repro.codegen import compile_generated
    gen = compile_generated(description_text)
    rep, pd = gen.parse(data, "entry_t")

``generate_source`` returns the module source (what ``padsc compile``
writes to disk); ``compile_generated`` generates, ``exec``s and wraps it
in a :class:`GeneratedDescription` with the same API surface as the
interpreted :class:`~repro.core.api.CompiledDescription`.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from ..core.api import DescriptionBase
from ..core.errors import PadsError
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

    ``fastpath`` disables the plan-compiled record fast functions and
    fused literal runs (reference mode for differential testing).
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
    """Generate, load and wrap a parser module for ``text``."""
    py_source = generate_source(text, ambient=ambient, filename=filename,
                                check=check, fastpath=fastpath)
    return GeneratedDescription(load_source(py_source), discipline,
                                py_source, limits=limits, fastpath=fastpath)


class GeneratedDescription(DescriptionBase):
    """Wrapper giving a generated module the same API as the interpreted
    :class:`~repro.core.api.CompiledDescription` (parse / records / write /
    verify), so clients and tests can swap the two freely."""

    #: The engine tag ``--stats`` and the parse service report; the
    #: interpreted engine reports ``interp``.
    backend = "source"

    def __init__(self, module, discipline: Optional[RecordDiscipline] = None,
                 py_source: str = "", limits: Optional[ParseLimits] = None,
                 fastpath: bool = True):
        self.module = module
        #: The module source that was ``exec``'d to build ``module``.
        self.py_source = py_source
        #: Whether the module carries the plan-compiled fast functions;
        #: parallel workers rebuild with the same setting.
        self.fastpath = fastpath
        from ..core.io import NewlineRecords
        self.discipline = discipline or NewlineRecords()
        #: Resource budget attached to every source this description opens.
        self.limits = limits
        module.DISCIPLINE = self.discipline

    def dump(self) -> str:
        return self.py_source

    # -- introspection ------------------------------------------------------

    @property
    def type_names(self):
        return list(self.module.TYPES)

    @property
    def source_type(self) -> Optional[str]:
        return self.module.SOURCE_TYPE

    def _gen(self, type_name: Optional[str]):
        name = type_name or self.module.SOURCE_TYPE
        if name is None or name not in self.module.TYPES:
            raise PadsError(f"no type named {name!r} in generated module")
        return self.module.TYPES[name]

    def node(self, name: Optional[str] = None):
        """Interpreted node twin (used by the structural tools)."""
        return self.module._interp().node(name)

    # -- API -----------------------------------------------------------------------

    def _parser(self, type_name: Optional[str]):
        return self._gen(type_name).parse

    def _record_parts(self, type_name: str):
        """``(fast function or None, general body, default)`` for the
        shared record loop: a ``Precord`` type's body runs inside the
        record the loop opened, as its parse wrapper would."""
        gen = self._gen(type_name)
        if not gen.is_record:
            return None, gen.parse, gen.default
        module = self.module
        name = type_name or module.SOURCE_TYPE
        return (module.FAST.get(name),
                getattr(module, f"_{name}_body"),
                partial(module._safe_default, gen.default))

    # -- batch kernels ------------------------------------------------------------
    #
    # The generated module carries the columnar kernels (:mod:`repro.batch`)
    # in its ``BATCH`` table — the codegen twin of the interpreter's
    # materialised plan fragments.

    @property
    def plan(self):
        """The analyzed plan IR (via the cached interpreted twin)."""
        return self.module._interp().plan

    def batch_kernel(self, type_name: str):
        """``(static width, batch kernel)`` for a batch-eligible record
        type, or None."""
        return getattr(self.module, "BATCH", {}).get(type_name)

    # -- worker rebuild -----------------------------------------------------------
    #
    # Parallel workers (:mod:`repro.parallel`) rebuild this generated
    # module from its embedded SOURCE text, so the fast path runs in
    # every worker.

    @property
    def source_text(self) -> str:
        return self.module.SOURCE

    @property
    def ambient(self) -> str:
        return self.module.AMBIENT

    def write(self, rep, type_name: Optional[str] = None, *params) -> bytes:
        gen = self._gen(type_name)
        out = []
        gen.write(rep, out, *params)
        return b"".join(out)

    def verify(self, rep, type_name: Optional[str] = None, *params) -> bool:
        return self._gen(type_name).verify(rep, *params)

    def default(self, type_name: Optional[str] = None, *params):
        return self._gen(type_name).default(*params)
