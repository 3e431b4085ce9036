"""Emit the Figure 6 library module for an analyzed plan.

The paper's compiler turns a description into ``.h``/``.c`` files; this
emitter turns one into a single importable Python module.  Parsing,
writing, verification and defaults have one implementation, the bound
description (:mod:`repro.core.binding`); the module is its library
surface.  Per declared type it defines the paper's Figure 6 functions —
``<name>_m_init``, ``<name>_read``, ``<name>_write2io``,
``<name>_verify``, ``<name>_fmt2io``, ``<name>_write_xml_2io``,
``<name>_acc_init`` / ``_acc_add`` / ``_acc_report``, ``<name>_node_new``
/ ``<name>_node_kthChild`` — each a call into the description its
``_interp()`` returns: the one the loader preset, or one compiled from
the embedded ``SOURCE`` on first use.

The module also carries the enum constants (``E_*``) and the helper
functions (``fn_*``).  The plan-compiled record parsers, writers and
batch kernels are not written into it: the bound description loads them
into its runtime namespace (:mod:`repro.plan.runtime`), and ``padsc
plan`` shows which records have them.
"""

from __future__ import annotations

import types as _types
from typing import List, Optional

from ..dsl import ast as D
from ..expr.pycompile import compile_function
from ..plan import lower
from ..plan.ir import DeclPlan, Plan

#: The imports a generated module runs on: the mask constructor, the
#: enum constant class and the names compiled helper functions use.
_IMPORTS = '''\
from repro.core.masks import Mask, P_CheckAndSet
from repro.core.values import EnumVal
from repro.expr.runtime import (BUILTINS as _B, cdiv as _cdiv,
                                cmod as _cmod, member as _member)
'''

#: ``_interp()``: the bound description every per-type function runs on.
_INTERP = '''\
_INTERP = None


def _interp():
    """The bound description the functions below run on: the one the
    loader preset, else SOURCE compiled on first use."""
    global _INTERP
    if _INTERP is None:
        from repro.core.api import compile_description
        _INTERP = compile_description(SOURCE, ambient=AMBIENT,
                                      discipline=DISCIPLINE,
                                      fastpath={fastpath})
    return _INTERP
'''

#: The Figure 6 functions of one type; ``{sig}``/``{sig}`` carry its
#: parameters, ``{mask}`` the read function's mask parameter.
_SURFACE = '''\
def {n}_m_init(flag=P_CheckAndSet):
    """Fresh mask tree (Figure 6: <type>_m_init)."""
    return Mask(flag)


def {n}_read(pads_src, {mask}{sig}):
    """Parse one {n} at the cursor (Figure 6: <type>_read)."""
    return _interp().parse(pads_src, {n!r}, mask{sig})


def {n}_write2io(io, rep{sig}):
    """Write the physical form to a binary file object."""
    data = _interp().write(rep, {n!r}{sig})
    io.write(data)
    return len(data)


def {n}_verify(rep{sig}):
    """Re-check semantic constraints (Figure 7: entry_t_verify)."""
    return _interp().verify(rep, {n!r}{sig})


def {n}_fmt2io(io, rep, delims=('|',), date_format=None, mask=None):
    """Delimited formatting (Figure 6: <type>_fmt2io)."""
    from repro.core.io import transparent_encode
    from repro.tools.fmt import format_value
    text = format_value(_interp().node({n!r}), rep, delims=delims,
                        date_format=date_format, mask=mask)
    io.write(transparent_encode(text))
    return len(text)


def {n}_write_xml_2io(io, rep, pd=None, tag={n!r}, indent=0):
    """Canonical XML output (Figure 6: <type>_write_xml_2io)."""
    from repro.core.io import transparent_encode
    from repro.tools.xml_out import to_xml
    text = to_xml(_interp().node({n!r}), rep, pd, tag, indent)
    io.write(transparent_encode(text))
    return len(text)


def {n}_acc_init(tracked=1000):
    """Fresh accumulator (Figure 6: <type>_acc_init)."""
    from repro.tools.accum import Accumulator
    return Accumulator(_interp().node({n!r}), '<top>', tracked)


def {n}_acc_add(acc, pd, rep):
    acc.add(rep, pd)


def {n}_acc_report(acc, prefix='<top>'):
    return acc.full_report()


def {n}_node_new(rep, pd=None, name={n!r}):
    """Data-API root (Figure 6: <type>_node_new)."""
    from repro.tools.dataapi import PNode
    return PNode(_interp().node({n!r}), rep, pd, name)


def {n}_node_kthChild(node, idx):
    """Data-API child access (Figure 6: node_kthChild)."""
    return node.kth_child(idx)
'''


def _surface(dp: DeclPlan) -> str:
    sig = "".join(f", p_{p}" for p in dp.param_names)
    # A required mask: value parameters follow it positionally.
    mask = "mask" if dp.params else "mask=None"
    return _SURFACE.format(n=dp.name, sig=sig, mask=mask)


def generate_source(desc: D.Description, ambient: str = "ascii",
                    source_text: str = "", plan: Optional[Plan] = None,
                    fastpath: bool = True) -> str:
    """The module source for a checked description; with
    ``fastpath=False`` its ``_interp()`` compiles ``SOURCE`` in reference
    mode."""
    plan = plan if plan is not None else lower(desc, ambient)
    out: List[str] = [
        '"""Generated by padsc (repro PADS compiler) — do not edit.\n\n'
        f"Source description: {desc.filename}\n"
        f"Ambient coding: {ambient}\n"
        '"""\n',
        _IMPORTS,
        f"AMBIENT = {ambient!r}",
        "DISCIPLINE = None  # None means newline records",
        f"SOURCE = {source_text!r}",
        _INTERP.format(fastpath=fastpath),
    ]
    out += [f"E_{name} = EnumVal({lit!r}, {code}, {phys!r})"
            for name, (lit, code, phys) in plan.enum_literals.items()]
    types: List[str] = []
    for kind, entry in plan.order:
        out.append("\n")
        if kind == "func":
            out.append(compile_function(entry.func, plan.resolver({}),
                                        name_prefix="fn_"))
            continue
        out.append(_surface(entry))
        types.append(f"    {entry.name!r}: {tuple(entry.param_names)!r},")
    out += ["",
            "# Declared types: name -> parameter names.",
            "TYPES = {", *types, "}",
            f"SOURCE_TYPE = {plan.source_name!r}"]
    return "\n".join(out) + "\n"


_counter = 0


def load_source(py_source: str,
                module_name: Optional[str] = None) -> _types.ModuleType:
    """``exec`` a generated module's source and return the module object."""
    global _counter
    if module_name is None:
        _counter += 1
        module_name = f"_pads_generated_{_counter}"
    module = _types.ModuleType(module_name)
    code = compile(py_source, f"<{module_name}>", "exec")
    exec(code, module.__dict__)  # noqa: S102 - code we just generated
    return module
