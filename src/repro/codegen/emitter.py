"""Compile an analyzed plan to Python source.

The paper's compiler turns a description into ``.h``/``.c`` files; this
emitter turns one into a single importable Python module.  It consumes
the plan IR (:mod:`repro.plan`) — the same analyzed middle layer the
interpreter binds from — so encodings, resolved base types, literal
byte forms, fused literal runs and fastpath verdicts are derived once,
not re-computed here.  Per declared type it generates:

* ``<name>_parse(src, mask, *params)`` — a specialised parser with the
  struct/union/array control flow, constraint checks, masks and error
  recovery *inlined* (constraints are compiled to Python expressions via
  :mod:`repro.expr.pycompile`),
* ``<name>_write(rep, out, *params)``, ``<name>_verify(rep, *params)``
  and ``<name>_default(*params)``,
* the Figure 6 tool surface: ``<name>_m_init``, ``<name>_read``,
  ``<name>_write2io``, ``<name>_fmt2io``, ``<name>_write_xml_2io``,
  ``<name>_acc_init`` / ``_acc_add`` / ``_acc_report``,
  ``<name>_node_new`` / ``<name>_node_kthChild``.

Generated parsers must be observationally identical to the interpreted
combinators in :mod:`repro.core.types`; ``tests/test_codegen.py`` holds
property tests pinning the two against each other.
"""

from __future__ import annotations

import types as _types
from typing import Dict, List, Optional, Tuple

from ..dsl import ast as D
from ..expr import ast as E
from ..expr.pycompile import compile_function
from ..plan import analyze
from ..plan.fastpath import rec_names
from ..plan.ir import (
    ArrayPlan,
    BaseUse,
    ComputeItem,
    DataItem,
    DeclPlan,
    EnumPlan,
    LitItem,
    OptUse,
    Plan,
    RefUse,
    RegexUse,
    StructPlan,
    SwitchPlan,
    TypedefPlan,
    UnionPlan,
    Use,
)


class _W:
    """Indented source writer."""

    def __init__(self):
        self.lines: List[str] = []
        self.depth = 0

    def w(self, text: str = "") -> None:
        if not text:
            self.lines.append("")
        else:
            self.lines.append("    " * self.depth + text)

    def block(self, header: str) -> "_Indent":
        self.w(header)
        return _Indent(self)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Indent:
    def __init__(self, w: _W):
        self.w = w

    def __enter__(self):
        self.w.depth += 1

    def __exit__(self, *exc):
        self.w.depth -= 1


class Emitter:
    def __init__(self, desc: D.Description, ambient: str = "ascii",
                 module_name: str = "pads_generated",
                 source_text: str = "", plan: Optional[Plan] = None,
                 fastpath: bool = True):
        self.desc = desc
        self.ambient = ambient
        self.plan = plan if plan is not None else analyze(desc, ambient)
        self.encoding = self.plan.encoding
        self.module_name = module_name
        self.source_text = source_text
        self.fastpath = fastpath
        self.functions = self.plan.functions
        self.enum_literals = self.plan.enum_literals
        self._const_count = 0
        self._consts: List[str] = []  # module-level constant definitions
        self._tmp = 0
        self._fastpaths: Dict[str, str] = {}  # type name -> fast fn name
        self._writers: Dict[str, str] = {}  # type name -> writer fn name
        #: type name -> (static width, batch kernel name); the BATCH table.
        self._batchpaths: Dict[str, Tuple[int, str]] = {}

    # -- small helpers ------------------------------------------------------

    def tmp(self, stem: str) -> str:
        self._tmp += 1
        return f"_{stem}{self._tmp}"

    def const(self, expr: str) -> str:
        name = f"_c{self._const_count}"
        self._const_count += 1
        self._consts.append(f"{name} = {expr}")
        return name

    def rec_class(self, decl: StructPlan) -> str:
        """The module constant bound to ``decl``'s rep class."""
        return self.const(f"_rec_class({rec_names(decl)!r})")

    def resolver(self, scope: Dict[str, str]):
        return self.plan.resolver(scope)

    def cexpr(self, expr: E.Expr, scope: Dict[str, str]) -> str:
        return self.plan.cexpr(expr, scope)

    # -- type uses -------------------------------------------------------------

    def static_const(self, use: BaseUse) -> Optional[str]:
        """Module-level constant for a statically resolved base-type use."""
        if use.static is None:
            return None
        return self.const(f"_resolve({use.name!r}, {use.static_args!r}, "
                          "AMBIENT)")

    def emit_use_parse(self, w: _W, use: Use, mask_expr: str,
                       val: str, pd: str, scope: Dict[str, str]) -> None:
        """Emit code assigning ``val`` (value) and ``pd`` (child Pd) for a
        parse of the type-use ``use`` at the cursor."""
        if isinstance(use, OptUse):
            inner_val = self.tmp("ov")
            inner_pd = self.tmp("opd")
            state = self.tmp("st")
            w.w(f"{state} = src.mark()")
            self.emit_use_parse(w, use.inner, mask_expr, inner_val, inner_pd, scope)
            with w.block(f"if {inner_pd}.nerr == 0:"):
                w.w(f"src.commit({state})")
                w.w(f"{pd} = Pd()")
                w.w(f"{pd}.tag = 'some'")
                w.w(f"{val} = {inner_val}")
            with w.block("else:"):
                w.w(f"src.restore({state})")
                w.w(f"{pd} = Pd()")
                w.w(f"{pd}.tag = 'none'")
                w.w(f"{val} = None")
            return

        if isinstance(use, RegexUse):
            inst = self.const(f"_RegexME({use.pattern!r})")
            self._emit_base_parse(w, inst, mask_expr, val, pd)
            return

        if isinstance(use, RefUse):
            name, args = use.name, use.args
            arg_code = ", ".join(self.cexpr(a, scope) for a in args)
            call = f"{name}_parse(src, {mask_expr}" + (f", {arg_code}" if arg_code else "") + ")"
            if args:
                with w.block("try:"):
                    w.w(f"{val}, {pd} = {call}")
                with w.block("except Exception:"):
                    w.w(f"{val} = None")
                    w.w(f"{pd} = Pd()")
                    w.w(f"{pd}.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, "
                        "src.here(), panic=True)")
            else:
                w.w(f"{val}, {pd} = {call}")
            return

        assert isinstance(use, BaseUse)
        static = self.static_const(use)
        if static is not None:
            self._emit_base_parse(w, static, mask_expr, val, pd)
            return

        # Dynamic base-type parameters.
        inst = self.tmp("bt")
        arg_code = ", ".join(self.cexpr(a, scope) for a in use.args)
        w.w(f"{pd} = Pd()")
        with w.block("try:"):
            w.w(f"{inst} = _resolve({use.name!r}, ({arg_code},), AMBIENT)")
        with w.block("except Exception:"):
            w.w(f"{inst} = None")
            w.w(f"{pd}.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, "
                "src.here(), panic=True)")
            w.w(f"{val} = None")
        with w.block(f"if {inst} is not None:"):
            start = self.tmp("sp")
            code = self.tmp("cd")
            w.w(f"{start} = src.pos")
            w.w(f"{val}, {code} = {inst}.parse(src, bool({mask_expr}.bits & 4))")
            with w.block(f"if {code}:"):
                w.w(f"{pd}.record_error({code}, src.loc_from({start}))")

    def _emit_base_parse(self, w: _W, inst: str, mask_expr: str,
                         val: str, pd: str) -> None:
        start = self.tmp("sp")
        code = self.tmp("cd")
        w.w(f"{start} = src.pos")
        w.w(f"{val}, {code} = {inst}.parse(src, bool({mask_expr}.bits & 4))")
        w.w(f"{pd} = Pd()")
        with w.block(f"if {code}:"):
            w.w(f"{pd}.record_error({code}, src.loc_from({start}))")

    def emit_use_write(self, w: _W, use: Use, val: str,
                       scope: Dict[str, str]) -> None:
        if isinstance(use, OptUse):
            with w.block(f"if {val} is not None:"):
                self.emit_use_write(w, use.inner, val, scope)
            return
        if isinstance(use, RegexUse):
            inst = self.const(f"_RegexME({use.pattern!r})")
            w.w(f"out.append({inst}.write({val}))")
            return
        if isinstance(use, RefUse):
            arg_code = ", ".join(self.cexpr(a, scope) for a in use.args)
            w.w(f"{use.name}_write({val}, out" + (f", {arg_code}" if arg_code else "") + ")")
            return
        assert isinstance(use, BaseUse)
        static = self.static_const(use)
        if static is not None:
            w.w(f"out.append({static}.write({val}))")
            return
        arg_code = ", ".join(self.cexpr(a, scope) for a in use.args)
        w.w(f"out.append(_resolve({use.name!r}, ({arg_code},), AMBIENT).write({val}))")

    def emit_use_verify(self, w: _W, use: Use, val: str,
                        scope: Dict[str, str]) -> None:
        """Emit ``return False`` paths for a nested verification."""
        if isinstance(use, OptUse):
            sub = _W()
            sub.depth = w.depth + 1
            self.emit_use_verify(sub, use.inner, val, scope)
            if sub.lines:
                w.w(f"if {val} is not None:")
                w.lines.extend(sub.lines)
            return
        if isinstance(use, RefUse):
            arg_code = ", ".join(self.cexpr(a, scope) for a in use.args)
            call = f"{use.name}_verify({val}" + (f", {arg_code}" if arg_code else "") + ")"
            with w.block(f"if not {call}:"):
                w.w("return False")

    def use_default_expr(self, use: Use, scope: Dict[str, str]) -> str:
        if isinstance(use, OptUse):
            return "None"
        if isinstance(use, RegexUse):
            return "''"
        if isinstance(use, RefUse):
            arg_code = ", ".join(self.cexpr(a, scope) for a in use.args)
            return f"_safe_default(lambda: {use.name}_default({arg_code}))"
        assert isinstance(use, BaseUse)
        static = self.static_const(use)
        if static is not None:
            return f"{static}.default()"
        arg_code = ", ".join(self.cexpr(a, scope) for a in use.args)
        return (f"_safe_default(lambda: _resolve({use.name!r}, ({arg_code},), "
                "AMBIENT).default())")

    # -- declarations -----------------------------------------------------------

    def emit_module(self) -> str:
        w = _W()
        body = _W()
        for kind, entry in self.plan.order:
            body.w()
            body.w()
            if kind == "func":
                self.emit_function(body, entry)
                continue
            dp = entry
            if self.fastpath and dp.verdict.eligible and dp.fast_fn is not None:
                fn_name, lines = dp.fast_fn
                self._fastpaths[dp.name] = fn_name
                body.lines.extend(lines)
                body.w()
                if dp.write_fn is not None:
                    fw_name, fw_lines = dp.write_fn
                    self._writers[dp.name] = fw_name
                    body.lines.extend(fw_lines)
                    body.w()
            if self.fastpath and dp.batch_verdict.eligible \
                    and dp.batch_fn is not None:
                bt_name, bt_lines = dp.batch_fn
                self._batchpaths[dp.name] = (dp.width, bt_name)
                body.lines.extend(bt_lines)
                body.w()
            if isinstance(dp, StructPlan):
                self.emit_struct(body, dp)
            elif isinstance(dp, SwitchPlan):
                self.emit_switch_union(body, dp)
            elif isinstance(dp, UnionPlan):
                self.emit_union(body, dp)
            elif isinstance(dp, ArrayPlan):
                self.emit_array(body, dp)
            elif isinstance(dp, EnumPlan):
                self.emit_enum(body, dp)
            elif isinstance(dp, TypedefPlan):
                self.emit_typedef(body, dp)
            self.emit_tool_surface(body, dp)

        self._emit_preamble(w)
        for line in self._consts:
            w.w(line)
        w.lines.extend(body.lines)
        self._emit_registry(w)
        return w.source()

    def _emit_preamble(self, w: _W) -> None:
        w.w('"""Generated by padsc (repro PADS compiler) — do not edit.')
        w.w("")
        w.w(f"Source description: {self.desc.filename}")
        w.w(f"Ambient coding: {self.ambient}")
        w.w('"""')
        w.w("")
        w.w("from repro.core.errors import ErrCode, Loc, Pd, Pstate")
        w.w("from repro.core.io import Source")
        w.w("from repro.core.masks import Mask, MaskFlag, P_CheckAndSet")
        w.w("from repro.core.values import (DateVal, EnumVal, FloatVal, "
            "UnionVal, rec_class as _rec_class)")
        w.w("_onew = object.__new__")
        w.w("from repro.plan import resolve_base as _resolve")
        w.w("from repro.core.basetypes.strings import RegexMatchString as _RegexME")
        w.w("from repro.expr.runtime import cdiv as _cdiv, cmod as _cmod, "
            "member as _member, BUILTINS as _B")
        w.w("from repro.codegen.runtime import (lit_resync as _lit_resync, "
            "skip_to_literal as _skip_to_lit, array_resync as _array_resync, "
            "convert_packed as _fp_packed, convert_zoned as _fp_zoned, "
            "record_guard as _record_guard, note_limit as _note_limit, "
            "fastpath_applies as _fastpath_applies)")
        w.w("from repro.core.basetypes.temporal import parse_date_value "
            "as _fp_parse_date")
        w.w("")
        w.w(f"AMBIENT = {self.ambient!r}")
        w.w("DISCIPLINE = None  # set by the loader; None means newline records")
        w.w(f"SOURCE = {self.source_text!r}")
        w.w("_INTERP = None")
        w.w("")
        with w.block("def _interp():"):
            w.w('"""Interpreted twin used by the structural tools '
                '(fmt/xml/acc/query)."""')
            w.w("global _INTERP")
            with w.block("if _INTERP is None:"):
                w.w("from repro.core.api import compile_description")
                w.w("_INTERP = compile_description(SOURCE, ambient=AMBIENT, "
                    "discipline=DISCIPLINE)")
            w.w("return _INTERP")
        w.w("")
        with w.block("def _safe_default(thunk):"):
            with w.block("try:"):
                w.w("return thunk()")
            with w.block("except Exception:"):
                w.w("return None")
        w.w("")
        for name, (lit, code, phys) in self.enum_literals.items():
            w.w(f"E_{name} = EnumVal({lit!r}, {code}, {phys!r})")
        w.w("")

    def emit_function(self, w: _W, decl: D.FuncDecl) -> None:
        src = compile_function(decl.func, self.resolver({}), name_prefix="fn_")
        for line in src.split("\n"):
            w.w(line)

    def params_sig(self, decl: DeclPlan) -> str:
        return "".join(f", p_{p}" for _, p in decl.params)

    def params_scope(self, decl: DeclPlan) -> Dict[str, str]:
        return {p: f"p_{p}" for _, p in decl.params}

    def _mask_param(self, decl: DeclPlan) -> str:
        # A required `mask` cannot be defaulted when value parameters
        # follow it positionally.
        return "mask" if decl.params else "mask=None"

    def _default_call(self, decl: DeclPlan) -> str:
        args = ", ".join(f"p_{p}" for _, p in decl.params)
        return f"_safe_default(lambda: {decl.name}_default({args}))"

    def _begin_depth_guard(self, w: _W, decl: DeclPlan) -> "_Indent":
        """Open a compound parse body: fresh pd, ``max_depth`` entry check,
        and a ``try:`` whose matching ``finally:`` (written by
        :meth:`_end_depth_guard`) releases the nesting level on every exit
        path.  Mirrors the interpreter's ``_depth_guarded`` wrapper."""
        w.w("pd = Pd()")
        with w.block("if src.limits is not None and not src.push_depth(pd):"):
            w.w(f"return {self._default_call(decl)}, pd")
        cm = w.block("try:")
        cm.__enter__()
        return cm

    def _end_depth_guard(self, w: _W, cm: "_Indent") -> None:
        cm.__exit__(None, None, None)
        with w.block("finally:"):
            w.w("if src.limits is not None: src.pop_depth()")

    def _emit_record_wrapper(self, w: _W, decl: DeclPlan) -> str:
        """For Precord types, the public parse wraps an inner body."""
        name = decl.name
        sig = self.params_sig(decl)
        args = "".join(f", p_{p}" for _, p in decl.params)
        fast = self._fastpaths.get(name)
        with w.block(f"def {name}_parse(src, {self._mask_param(decl)}{sig}):"):
            w.w(f'"""Parse one {name} (Precord: occupies a whole record)."""')
            w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            with w.block("if src.in_record:"):
                w.w(f"return _{name}_body(src, mask{args})")
            with w.block("if not src.begin_record():"):
                w.w("pd = Pd()")
                w.w("pd.record_error(ErrCode.AT_EOF, src.here(), panic=True)")
                w.w(f"return _safe_default(lambda: {name}_default({args.lstrip(', ')})), pd")
            with w.block("if src.limits is not None:"):
                w.w("pd = Pd()")
                with w.block("if not _record_guard(src, pd):"):
                    w.w("src.note_errors(pd.nerr)")
                    w.w(f"return _safe_default(lambda: {name}_default({args.lstrip(', ')})), pd")
            if fast is not None:
                # Uniform, value-materialising masks take the compiled
                # one-regex route; None means "let the general parser decide".
                with w.block("if _fastpath_applies(mask, src.limits):"):
                    w.w(f"_rep = {fast}(src.record_bytes(), "
                        "(mask.bits & 4) != 0)")
                    with w.block("if _rep is not None:"):
                        w.w("src.pos = src.rec_end")
                        w.w("src.end_record()")
                        w.w("return _rep, Pd()")
            w.w(f"rep, pd = _{name}_body(src, mask{args})")
            with w.block("if not src.at_eor() and (mask.bits & 2) and pd.nerr == 0:"):
                w.w("pd.record_error(ErrCode.EXTRA_DATA_AT_EOR, src.here())")
            w.w("src.end_record()")
            w.w("if src.limits is not None: src.note_errors(pd.nerr)")
            w.w("return rep, pd")
        w.w()
        return f"_{name}_body"

    def _parse_header(self, w: _W, decl: DeclPlan) -> str:
        """Emit the def line for the parse function; returns its name."""
        if decl.is_record:
            inner = self._emit_record_wrapper(w, decl)
            w.w(f"def {inner}(src, mask{self.params_sig(decl)}):")
            return inner
        w.w(f"def {decl.name}_parse(src, {self._mask_param(decl)}"
            f"{self.params_sig(decl)}):")
        return f"{decl.name}_parse"

    # -- Pstruct ------------------------------------------------------------------

    def emit_struct(self, w: _W, decl: StructPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        self._parse_header(w, decl)
        runs: Dict[int, tuple] = {}
        if self.fastpath:
            runs = {start: (end, raw) for start, end, raw in decl.fused_runs}
        with _Indent(w):
            if not decl.is_record:
                w.w(f'"""Parse one {name}."""')
                w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            _guard = self._begin_depth_guard(w, decl)
            w.w("_panic = False")
            w.w("_skip = 0")
            members = decl.items
            i = 0
            run_id = 0
            while i < len(members):
                if i in runs:
                    end, raw = runs[i]
                    run_id += 1
                    flag = f"_lrun{run_id}"
                    raw_c = self.const(repr(raw))
                    w.w(f"# fused literal run: members {i}..{end}")
                    w.w(f"{flag} = (not _panic and _skip == 0) "
                        f"and src.match_bytes({raw_c})")
                    with w.block(f"if not {flag}:"):
                        for j in range(i, end + 1):
                            self._emit_struct_member(w, decl, members, j, scope)
                    i = end + 1
                    continue
                self._emit_struct_member(w, decl, members, i, scope)
                i += 1
            # Build the rep: allocate its class, store each slot.
            w.w(f"rep = _onew({self.rec_class(decl)})")
            for f in members:
                if isinstance(f, (DataItem, ComputeItem)):
                    w.w(f"rep.{f.name} = v_{f.name}")
            if decl.where is not None:
                wscope = dict(scope)
                for f in members:
                    if isinstance(f, (DataItem, ComputeItem)):
                        wscope[f.name] = f"v_{f.name}"
                with w.block("if (int(mask.level) & 4) and pd.nerr == 0:"):
                    self._emit_bool_check(w, decl.where, wscope,
                                          "pd.record_error(ErrCode."
                                          "WHERE_CLAUSE_VIOLATION, src.here())")
            w.w("return rep, pd")
            self._end_depth_guard(w, _guard)
        w.w()
        self._emit_struct_write(w, decl)
        self._emit_struct_verify(w, decl)
        self._emit_struct_default(w, decl)

    def _emit_holds(self, w: _W, expr: E.Expr, scope: Dict[str, str]) -> str:
        """Emit the check form of ``expr``; the name of the flag saying
        whether it held (an exception while evaluating it is a
        failure)."""
        ok = self.tmp("ok")
        w.w(f"{ok} = True")
        with w.block("try:"):
            for line in self.plan.check(expr, scope, f"{ok} = False"):
                w.w(line)
        with w.block("except Exception:"):
            w.w(f"{ok} = False")
        return ok

    def _emit_bool_check(self, w: _W, expr: E.Expr, scope: Dict[str, str],
                         on_fail: str) -> None:
        """Run ``on_fail`` unless ``expr`` holds."""
        with w.block(f"if not {self._emit_holds(w, expr, scope)}:"):
            w.w(on_fail)

    def _next_literal_info(self, members, i: int):
        """(block_distance, literal plan) for the next scannable literal."""
        for j in range(i + 1, len(members)):
            item = members[j]
            if isinstance(item, LitItem) and item.literal.scannable:
                return j - i, item.literal
        return None

    def _emit_struct_member(self, w: _W, decl: StructPlan, members,
                            i: int, scope: Dict[str, str]) -> None:
        item = members[i]
        w.w(f"# member {i}: {_member_label(item)}")
        if isinstance(item, LitItem):
            lit = item.literal
            if lit.kind in ("char", "string"):
                raw_bytes = lit.raw
                raw = self.const(repr(raw_bytes))
                with w.block("if _skip > 0:"):
                    w.w("_skip -= 1")
                with w.block("elif not _panic:"):
                    if len(raw_bytes) == 1:
                        match = f"src.first_byte() == {raw_bytes[0]}"
                        consume = "src.pos += 1"
                    else:
                        match = f"src.match_bytes({raw})"
                        consume = "pass"
                    with w.block(f"if {match}:"):
                        w.w(consume)
                    with w.block("else:"):
                        w.w("_lstart = src.pos")
                        with w.block(f"if not _lit_resync(src, pd, {raw}, _lstart):"):
                            w.w("_panic = True")
            elif lit.kind == "regex":
                rx = self.const(f"__import__('re').compile({lit.raw!r})")
                with w.block("if _skip > 0:"):
                    w.w("_skip -= 1")
                with w.block("elif not _panic:"):
                    w.w(f"_m = {rx}.match(src.scope_bytes())")
                    with w.block("if _m is not None:"):
                        w.w("src.skip(_m.end())")
                    with w.block("else:"):
                        w.w("pd.record_error(ErrCode.MISSING_LITERAL, "
                            "src.here(), panic=True)")
                        w.w("src.skip_to_eor()")
                        w.w("_panic = True")
            else:  # eor / eof markers inside structs: positional checks
                check = "src.at_end()" if lit.kind == "eor" else "src.at_eof()"
                with w.block("if _skip > 0:"):
                    w.w("_skip -= 1")
                with w.block(f"elif not _panic and not {check}:"):
                    w.w("pd.record_error(ErrCode.MISSING_LITERAL, src.here(), "
                        "panic=True)")
                    w.w("src.skip_to_eor()")
                    w.w("_panic = True")
            return

        if isinstance(item, ComputeItem):
            with w.block("if _panic or _skip > 0:"):
                w.w("_skip = _skip - 1 if _skip > 0 else _skip")
                w.w(f"v_{item.name} = None")
            with w.block("else:"):
                with w.block("try:"):
                    w.w(f"v_{item.name} = {self.cexpr(item.expr, scope)}")
                with w.block("except Exception:"):
                    w.w(f"v_{item.name} = None")
                    w.w("pd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, "
                        "src.here())")
                scope[item.name] = f"v_{item.name}"
                if item.constraint is not None:
                    with w.block(f"if (mask.bits & 4) and "
                                 f"v_{item.name} is not None:"):
                        self._emit_bool_check(
                            w, item.constraint, dict(scope),
                            "pd.record_error(ErrCode."
                            "USER_CONSTRAINT_VIOLATION, src.here())")
            scope[item.name] = f"v_{item.name}"
            return

        assert isinstance(item, DataItem)
        fname = item.name
        default = self.use_default_expr(item.type, scope)
        with w.block("if _panic or _skip > 0:"):
            w.w("_skip = _skip - 1 if _skip > 0 else _skip")
            w.w(f"v_{fname} = {default}")
            w.w("_cpd = Pd()")
            w.w("_cpd.pstate = Pstate.PANIC")
            w.w(f"pd.fields[{fname!r}] = _cpd")
        with w.block("else:"):
            w.w(f"_fm = mask.for_field({fname!r})")
            w.w("_fstart = src.pos")
            self.emit_use_parse(w, item.type, "_fm", f"v_{fname}", "_cpd", scope)
            scope[fname] = f"v_{fname}"
            if item.constraint is not None:
                cscope = dict(scope)
                with w.block("if (_fm.bits & 4) and _cpd.nerr == 0:"):
                    self._emit_bool_check(
                        w, item.constraint, cscope,
                        "_cpd.record_error(ErrCode.USER_CONSTRAINT_VIOLATION, "
                        "src.loc_from(_fstart))")
            with w.block("if _cpd.nerr:"):
                w.w(f"pd.fields[{fname!r}] = _cpd")
                w.w("pd.absorb(_cpd)")
            with w.block("if _cpd.nerr and _cpd.err_code.is_syntactic() "
                         "and src.pos == _fstart:"):
                nxt = self._next_literal_info(members, i)
                if nxt is not None:
                    distance, lit = nxt
                    raw = self.const(repr(lit.raw))
                    with w.block(f"if _skip_to_lit(src, {raw}):"):
                        w.w(f"_skip = {distance}")
                    with w.block("else:"):
                        w.w("pd.pstate |= Pstate.PANIC")
                        w.w("src.skip_to_eor()")
                        w.w("_panic = True")
                else:
                    w.w("pd.pstate |= Pstate.PANIC")
                    w.w("src.skip_to_eor()")
                    w.w("_panic = True")
        scope[fname] = f"v_{fname}"

    def _emit_record_write_prologue(self, w: _W, is_record: bool,
                                    writer: Optional[str] = None
                                    ) -> Optional[_Indent]:
        """Shadow ``out`` with a fresh list for Precord types so the body
        below needs no target rewriting.  With a compiled ``writer``
        the body runs only when the writer returns None; the returned
        block is closed by the epilogue."""
        if not is_record:
            return None
        w.w("_outer = out")
        guard = None
        if writer is not None:
            w.w(f"_content = {writer}(rep)")
            guard = w.block("if _content is None:")
            guard.__enter__()
        w.w("out = []")
        return guard

    def _emit_record_write_epilogue(self, w: _W, is_record: bool,
                                    guard: Optional[_Indent] = None) -> None:
        if is_record:
            w.w("_content = b''.join(out)")
            if guard is not None:
                guard.__exit__(None, None, None)
            with w.block("if DISCIPLINE is None:"):
                w.w("_outer.append(_content + b'\\n')")
            with w.block("else:"):
                w.w("_outer.append(DISCIPLINE.header(_content) + _content + "
                    "DISCIPLINE.trailer(_content))")

    def _emit_struct_write(self, w: _W, decl: StructPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_write(rep, out{self.params_sig(decl)}):"):
            w.w(f'"""Append {name}\'s physical form to ``out``."""')
            guard = self._emit_record_write_prologue(
                w, decl.is_record, self._writers.get(name))
            self._struct_write_body(w, decl, scope)
            self._emit_record_write_epilogue(w, decl.is_record, guard)
        w.w()

    def _struct_write_body(self, w: _W, decl: StructPlan,
                           scope: Dict[str, str]) -> None:
        scope = dict(scope)
        for item in decl.items:
            if isinstance(item, LitItem):
                lit = item.literal
                if lit.kind in ("char", "string"):
                    raw = self.const(repr(lit.raw))
                    w.w(f"out.append({raw})")
                elif lit.kind == "regex":
                    w.w("raise ValueError('cannot write a regex literal')")
            elif isinstance(item, ComputeItem):
                scope[item.name] = f"rep.{item.name}"
            else:
                w.w(f"v_{item.name} = rep.{item.name}")
                scope[item.name] = f"v_{item.name}"
                self.emit_use_write(w, item.type, f"v_{item.name}", scope)
        if not decl.items:
            w.w("pass")

    def _emit_struct_verify(self, w: _W, decl: StructPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_verify(rep{self.params_sig(decl)}):"):
            w.w(f'"""Re-check {name}\'s semantic constraints '
                '(Figure 7\'s entry_t_verify)."""')
            scope = dict(scope)
            for item in decl.items:
                if isinstance(item, LitItem):
                    continue
                with w.block("try:"):
                    w.w(f"v_{item.name} = rep.{item.name}")
                with w.block("except AttributeError:"):
                    w.w("return False")
                scope[item.name] = f"v_{item.name}"
                if isinstance(item, DataItem):
                    self.emit_use_verify(w, item.type, f"v_{item.name}", scope)
                if item.constraint is not None:
                    self._emit_bool_check(w, item.constraint, scope,
                                          "return False")
            if decl.where is not None:
                self._emit_bool_check(w, decl.where, scope, "return False")
            w.w("return True")
        w.w()

    def _emit_struct_default(self, w: _W, decl: StructPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_default({self.params_sig(decl).lstrip(', ')}):"):
            scope = dict(scope)
            args = []
            for item in decl.items:
                if isinstance(item, LitItem):
                    continue
                if isinstance(item, ComputeItem):
                    w.w(f"v_{item.name} = None")
                else:
                    w.w(f"v_{item.name} = {self.use_default_expr(item.type, scope)}")
                scope[item.name] = f"v_{item.name}"
                args.append(f"v_{item.name}")
            w.w(f"return {self.rec_class(decl)}({', '.join(args)})")
        w.w()

    # -- Punion ----------------------------------------------------------------------

    def emit_union(self, w: _W, decl: UnionPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        self._parse_header(w, decl)
        with _Indent(w):
            if not decl.is_record:
                w.w(f'"""Parse one {name} (first branch that parses without '
                    'error wins)."""')
                w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            _guard = self._begin_depth_guard(w, decl)
            w.w("_uloc = src.here()")
            for br in decl.branches:
                w.w(f"# branch {br.name}")
                w.w("_bst = src.mark()")
                w.w(f"_bm = mask.for_field({br.name!r})")
                self.emit_use_parse(w, br.type, "_bm", "_bv", "_bpd", scope)
                w.w("_ok = _bpd.nerr == 0")
                if br.constraint is not None:
                    bscope = dict(scope)
                    bscope[br.name] = "_bv"
                    with w.block("if _ok:"):
                        w.w(f"_ok = {self._emit_holds(w, br.constraint, bscope)}")
                with w.block("if _ok:"):
                    w.w("src.commit(_bst)")
                    w.w(f"pd.tag = {br.name!r}")
                    w.w(f"return UnionVal({br.name!r}, _bv), pd")
                w.w("src.restore(_bst)")
            w.w("pd.record_error(ErrCode.UNION_MATCH_FAILURE, _uloc, panic=True)")
            w.w("return UnionVal('<none>', None), pd")
            self._end_depth_guard(w, _guard)
        w.w()
        self._emit_union_write(w, decl, decl.branches)
        self._emit_union_verify(w, decl)
        self._emit_union_default(w, decl, decl.branches[0])

    def emit_switch_union(self, w: _W, decl: SwitchPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        self._parse_header(w, decl)
        cases = decl.cases
        with _Indent(w):
            if not decl.is_record:
                w.w(f'"""Parse one {name} (Pswitch on a selector '
                    'expression)."""')
                w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            _guard = self._begin_depth_guard(w, decl)
            for line in self.plan.pick(decl, scope):
                w.w(line)
            with w.block("if _case == -1:"):
                w.w("pd.record_error(ErrCode.SWITCH_NO_CASE, src.here(), "
                    "panic=True)")
                w.w("return UnionVal('<none>', None), pd")
            for k, case in enumerate(cases):
                with w.block(f"if _case == {k}:"):
                    w.w(f"_cm = mask.for_field({case.name!r})")
                    self.emit_use_parse(w, case.type, "_cm", "_cv", "_cpd", scope)
                    w.w("pd.branch = _cpd")
                    w.w(f"pd.tag = {case.name!r}")
                    w.w("pd.absorb(_cpd)")
                    if case.constraint is not None:
                        cscope = dict(scope)
                        cscope[case.name] = "_cv"
                        with w.block("if (mask.bits & 4) and _cpd.nerr == 0:"):
                            self._emit_bool_check(
                                w, case.constraint, cscope,
                                "pd.record_error(ErrCode."
                                "USER_CONSTRAINT_VIOLATION, src.here())")
                    w.w(f"return UnionVal({case.name!r}, _cv), pd")
            w.w("pd.record_error(ErrCode.SWITCH_NO_CASE, src.here(), panic=True)")
            w.w("return UnionVal('<none>', None), pd")
            self._end_depth_guard(w, _guard)
        w.w()
        self._emit_union_write(w, decl, cases)
        self._emit_switch_verify(w, decl)
        self._emit_union_default(w, decl, cases[0])

    def _emit_union_write(self, w: _W, decl: DeclPlan, branches) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_write(rep, out{self.params_sig(decl)}):"):
            w.w(f'"""Append {name}\'s physical form to ``out``."""')
            self._emit_record_write_prologue(w, decl.is_record)
            for br in branches:
                with w.block(f"if rep.tag == {br.name!r}:"):
                    w.w("_v = rep.value")
                    self.emit_use_write(w, br.type, "_v", dict(scope))
                    self._emit_record_write_epilogue(w, decl.is_record)
                    w.w("return")
            w.w(f"raise ValueError('unknown union branch %r for {name}' % (rep.tag,))")
        w.w()

    def _emit_union_verify(self, w: _W, decl: UnionPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_verify(rep{self.params_sig(decl)}):"):
            for br in decl.branches:
                with w.block(f"if rep.tag == {br.name!r}:"):
                    w.w("_v = rep.value")
                    self.emit_use_verify(w, br.type, "_v", dict(scope))
                    if br.constraint is not None:
                        bscope = dict(scope)
                        bscope[br.name] = "_v"
                        self._emit_bool_check(w, br.constraint, bscope,
                                              "return False")
                    w.w("return True")
            w.w("return False")
        w.w()

    def _emit_switch_verify(self, w: _W, decl: SwitchPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        cases = decl.cases
        with w.block(f"def {name}_verify(rep{self.params_sig(decl)}):"):
            for line in self.plan.pick(decl, scope):
                w.w(line)
            with w.block("if _case == -1:"):
                w.w("return False")
            for k, case in enumerate(cases):
                with w.block(f"if _case == {k}:"):
                    with w.block(f"if rep.tag != {case.name!r}:"):
                        w.w("return False")
                    w.w("_v = rep.value")
                    self.emit_use_verify(w, case.type, "_v", dict(scope))
                    w.w("return True")
            w.w("return False")
        w.w()

    def _emit_union_default(self, w: _W, decl: DeclPlan, first) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_default({self.params_sig(decl).lstrip(', ')}):"):
            w.w(f"return UnionVal({first.name!r}, "
                f"{self.use_default_expr(first.type, dict(scope))})")
        w.w()

    # -- Parray ---------------------------------------------------------------------

    def _term_check_expr(self, decl: ArrayPlan) -> Optional[str]:
        term = decl.term
        if term is None:
            return None
        if term.kind in ("char", "string"):
            raw_bytes = term.raw
            if len(raw_bytes) == 1:
                return f"src.first_byte() == {raw_bytes[0]}"
            raw = self.const(repr(raw_bytes))
            return f"src.peek({len(raw_bytes)}) == {raw}"
        if term.kind == "regex":
            rx = self.const(f"__import__('re').compile({term.raw!r})")
            return f"{rx}.match(src.scope_bytes()) is not None"
        if term.kind == "eor":
            return "src.at_end()"
        return "src.at_eof()"

    def emit_array(self, w: _W, decl: ArrayPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        ascope = dict(scope)
        ascope["elts"] = "elts"
        ascope["length"] = "_length"
        self._parse_header(w, decl)
        sep_raw = None
        if decl.sep is not None and decl.sep.kind in ("char", "string"):
            sep_raw = self.const(repr(decl.sep.raw))
        sep_rx = None
        if decl.sep is not None and decl.sep.kind == "regex":
            sep_rx = self.const(f"__import__('re').compile({decl.sep.raw!r})")
        term_raw = "None"
        if decl.term is not None and decl.term.kind in ("char", "string"):
            term_raw = self.const(repr(decl.term.raw))
        term_check = self._term_check_expr(decl)

        with _Indent(w):
            if not decl.is_record:
                w.w(f'"""Parse one {name} array."""')
                w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            _guard = self._begin_depth_guard(w, decl)
            w.w("_em = mask.for_elements()")
            w.w("elts = []")
            with w.block("try:"):
                if decl.min_size is not None:
                    w.w(f"_lo = int({self.cexpr(decl.min_size, scope)})")
                else:
                    w.w("_lo = None")
                if decl.max_size is not None:
                    w.w(f"_hi = int({self.cexpr(decl.max_size, scope)})")
                else:
                    w.w("_hi = None")
            with w.block("except Exception:"):
                w.w("pd.record_error(ErrCode.ARRAY_SIZE_ERR, src.here(), "
                    "panic=True)")
                w.w("return [], pd")
            w.w("_alim = src.limits.max_array_elems "
                "if src.limits is not None else None")
            w.w("_first = True")
            with w.block("while True:"):
                with w.block("if _alim is not None and len(elts) >= _alim:"):
                    w.w("_note_limit(pd, ErrCode.ARRAY_LIMIT, src.here())")
                    w.w("break")
                with w.block("if _hi is not None and len(elts) >= _hi:"):
                    w.w("break")
                if decl.ended is not None:
                    w.w("_length = len(elts)")
                    with w.block(f"if {self._emit_holds(w, decl.ended, ascope)}:"):
                        w.w("break")
                if term_check is not None:
                    with w.block(f"if {term_check}:"):
                        w.w("break")
                with w.block("if src.at_end():"):
                    w.w("break")
                if decl.sep is not None:
                    with w.block("if not _first:"):
                        if sep_raw is not None:
                            sep_bytes = decl.sep.raw
                            if len(sep_bytes) == 1:
                                with w.block(f"if src.first_byte() == {sep_bytes[0]}:"):
                                    w.w("src.pos += 1")
                                with w.block("else:"):
                                    w.w("break")
                            else:
                                with w.block(f"if not src.match_bytes({sep_raw}):"):
                                    w.w("break")
                        else:
                            w.w(f"_sm = {sep_rx}.match(src.scope_bytes())")
                            with w.block("if _sm is not None and _sm.end() > 0:"):
                                w.w("src.skip(_sm.end())")
                            with w.block("else:"):
                                w.w("break")
                w.w("_before = src.pos")
                if decl.longest:
                    w.w("_ast = src.mark()")
                    self.emit_use_parse(w, decl.elt, "_em", "_ev", "_epd",
                                        dict(ascope))
                    with w.block("if _epd.nerr > 0:"):
                        w.w("src.restore(_ast)")
                        w.w("break")
                    w.w("src.commit(_ast)")
                else:
                    self.emit_use_parse(w, decl.elt, "_em", "_ev", "_epd",
                                        dict(ascope))
                with w.block("if _epd.nerr > 0:"):
                    w.w("pd.neerr += 1")
                    with w.block("if pd.first_error < 0:"):
                        w.w("pd.first_error = len(elts)")
                    w.w("pd.absorb(_epd)")
                    with w.block("if _epd.err_code.is_syntactic() and "
                                 "src.pos == _before:"):
                        with w.block(f"if not _array_resync(src, "
                                     f"{sep_raw or 'None'}, {term_raw}):"):
                            w.w("pd.pstate |= Pstate.PANIC")
                            w.w("break")
                w.w("pd.elts.append(_epd)")
                w.w("elts.append(_ev)")
                w.w("_first = False")
                if decl.last is not None:
                    w.w("_length = len(elts)")
                    with w.block(f"if {self._emit_holds(w, decl.last, ascope)}:"):
                        w.w("break")
                if decl.sep is None:
                    with w.block("if src.pos == _before:"):
                        w.w("break")
            with w.block("if _lo is not None and len(elts) < _lo and "
                         "(mask.bits & 2):"):
                w.w("pd.record_error(ErrCode.ARRAY_SIZE_ERR, src.here())")
            if decl.where is not None:
                with w.block("if (int(mask.level) & 4) and pd.nerr == 0:"):
                    w.w("_length = len(elts)")
                    self._emit_bool_check(w, decl.where, ascope,
                                          "pd.record_error(ErrCode."
                                          "WHERE_CLAUSE_VIOLATION, src.here())")
            w.w("return elts, pd")
            self._end_depth_guard(w, _guard)
        w.w()
        self._emit_array_write(w, decl)
        self._emit_array_verify(w, decl)
        with w.block(f"def {name}_default({self.params_sig(decl).lstrip(', ')}):"):
            w.w("return []")
        w.w()

    def _emit_array_write(self, w: _W, decl: ArrayPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        with w.block(f"def {name}_write(rep, out{self.params_sig(decl)}):"):
            w.w(f'"""Append {name}\'s physical form to ``out``."""')
            self._emit_record_write_prologue(w, decl.is_record)
            with w.block("for _i, _v in enumerate(rep):"):
                if decl.sep is not None and decl.sep.kind in ("char", "string"):
                    raw = self.const(repr(decl.sep.raw))
                    with w.block("if _i:"):
                        w.w(f"out.append({raw})")
                self.emit_use_write(w, decl.elt, "_v", dict(scope))
            self._emit_record_write_epilogue(w, decl.is_record)
        w.w()

    def _emit_array_verify(self, w: _W, decl: ArrayPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        ascope = dict(scope)
        ascope["elts"] = "rep"
        ascope["length"] = "len(rep)"
        with w.block(f"def {name}_verify(rep{self.params_sig(decl)}):"):
            with w.block("try:"):
                lo = self.cexpr(decl.min_size, scope) if decl.min_size is not None else "None"
                hi = self.cexpr(decl.max_size, scope) if decl.max_size is not None else "None"
                w.w(f"_lo = {lo}")
                w.w(f"_hi = {hi}")
            with w.block("except Exception:"):
                w.w("return False")
            with w.block("if _lo is not None and len(rep) < int(_lo):"):
                w.w("return False")
            with w.block("if _hi is not None and len(rep) > int(_hi):"):
                w.w("return False")
            with w.block("for _v in rep:"):
                sub = _W()
                sub.depth = w.depth
                self.emit_use_verify(sub, decl.elt, "_v", dict(scope))
                if sub.lines:
                    w.lines.extend(sub.lines)
                else:
                    w.w("pass")
            if decl.where is not None:
                self._emit_bool_check(w, decl.where, ascope, "return False")
            w.w("return True")
        w.w()

    # -- Penum ----------------------------------------------------------------------

    def emit_enum(self, w: _W, decl: EnumPlan) -> None:
        name = decl.name
        items = decl.items
        self._parse_header(w, decl)
        with _Indent(w):
            if not decl.is_record:
                w.w(f'"""Parse one {name} literal (longest spelling wins)."""')
                w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            w.w("pd = Pd()")
            for item in decl.ordered:
                raw = self.const(repr(item.raw))
                with w.block(f"if src.match_bytes({raw}):"):
                    w.w(f"return E_{item.name}, pd")
            w.w("pd.record_error(ErrCode.INVALID_ENUM, src.here())")
            w.w(f"return E_{items[0].name}, pd")
        w.w()
        with w.block(f"def {name}_write(rep, out):"):
            mapping = {it.name: it.physical for it in items}
            w.w(f"_phys = {mapping!r}.get(str(rep))")
            with w.block("if _phys is None:"):
                w.w(f"raise ValueError('%r is not a member of {name}' % (rep,))")
            w.w(f"out.append(_phys.encode({self.encoding!r}))")
        w.w()
        with w.block(f"def {name}_verify(rep):"):
            w.w(f"return str(rep) in {set(it.name for it in items)!r}")
        w.w()
        with w.block(f"def {name}_default():"):
            w.w(f"return E_{items[0].name}")
        w.w()

    # -- Ptypedef --------------------------------------------------------------------

    def emit_typedef(self, w: _W, decl: TypedefPlan) -> None:
        name = decl.name
        scope = self.params_scope(decl)
        self._parse_header(w, decl)
        with _Indent(w):
            if not decl.is_record:
                w.w(f'"""Parse one {name} (constrained '
                    f'{_type_label(decl.base)})."""')
                w.w("if mask is None: mask = Mask(P_CheckAndSet)")
            w.w("_tstart = src.pos")
            self.emit_use_parse(w, decl.base, "mask", "_tv", "pd", dict(scope))
            if decl.constraint is not None:
                cscope = dict(scope)
                cscope[decl.var] = "_tv"
                with w.block("if (mask.base & 4) and pd.nerr == 0:"):
                    self._emit_bool_check(
                        w, decl.constraint, cscope,
                        "pd.record_error(ErrCode.TYPEDEF_CONSTRAINT_VIOLATION, "
                        "src.loc_from(_tstart))")
            w.w("return _tv, pd")
        w.w()
        with w.block(f"def {name}_write(rep, out{self.params_sig(decl)}):"):
            self.emit_use_write(w, decl.base, "rep", dict(scope))
        w.w()
        with w.block(f"def {name}_verify(rep{self.params_sig(decl)}):"):
            self.emit_use_verify(w, decl.base, "rep", dict(scope))
            if decl.constraint is not None:
                cscope = dict(scope)
                cscope[decl.var] = "rep"
                self._emit_bool_check(w, decl.constraint, cscope, "return False")
            w.w("return True")
        w.w()
        with w.block(f"def {name}_default({self.params_sig(decl).lstrip(', ')}):"):
            w.w(f"return {self.use_default_expr(decl.base, dict(scope))}")
        w.w()

    # -- Figure 6 tool surface ----------------------------------------------------------

    def emit_tool_surface(self, w: _W, decl: DeclPlan) -> None:
        name = decl.name
        w.w()
        with w.block(f"def {name}_m_init(flag=P_CheckAndSet):"):
            w.w('"""Fresh mask tree (Figure 6: <type>_m_init)."""')
            w.w("return Mask(flag)")
        w.w()
        with w.block(f"def {name}_read(pads_src, {self._mask_param(decl)}"
                     f"{self.params_sig(decl)}):"):
            w.w('"""Figure 6 naming alias for the parse function."""')
            w.w(f"return {name}_parse(pads_src, mask"
                + "".join(f", p_{p}" for _, p in decl.params) + ")")
        w.w()
        with w.block(f"def {name}_write2io(io, rep{self.params_sig(decl)}):"):
            w.w('"""Write the physical form to a binary file object."""')
            w.w("_out = []")
            w.w(f"{name}_write(rep, _out"
                + "".join(f", p_{p}" for _, p in decl.params) + ")")
            w.w("data = b''.join(_out)")
            w.w("io.write(data)")
            w.w("return len(data)")
        w.w()
        with w.block(f"def {name}_fmt2io(io, rep, delims=('|',), "
                     "date_format=None, mask=None):"):
            w.w('"""Delimited formatting (Figure 6: <type>_fmt2io)."""')
            w.w("from repro.tools.fmt import format_value")
            w.w(f"text = format_value(_interp().node({name!r}), rep, "
                "delims=delims, date_format=date_format, mask=mask)")
            # Not a plain utf-8 encode: the runtime is byte-transparent
            # (bytes 0-255 <-> code points) and utf-8 would double-encode
            # byte-string fields above 127.
            w.w("from repro.core.io import transparent_encode")
            w.w("io.write(transparent_encode(text))")
            w.w("return len(text)")
        w.w()
        with w.block(f"def {name}_write_xml_2io(io, rep, pd=None, "
                     f"tag={decl.name!r}, indent=0):"):
            w.w('"""Canonical XML output (Figure 6: <type>_write_xml_2io)."""')
            w.w("from repro.tools.xml_out import to_xml")
            w.w(f"text = to_xml(_interp().node({name!r}), rep, pd, tag, indent)")
            w.w("from repro.core.io import transparent_encode")
            w.w("io.write(transparent_encode(text))")
            w.w("return len(text)")
        w.w()
        with w.block(f"def {name}_acc_init(tracked=1000):"):
            w.w('"""Fresh accumulator (Figure 6: <type>_acc_init)."""')
            w.w("from repro.tools.accum import Accumulator")
            w.w(f"return Accumulator(_interp().node({name!r}), '<top>', tracked)")
        w.w()
        with w.block(f"def {name}_acc_add(acc, pd, rep):"):
            w.w("acc.add(rep, pd)")
        w.w()
        with w.block(f"def {name}_acc_report(acc, prefix='<top>'):"):
            w.w("return acc.full_report()")
        w.w()
        with w.block(f"def {name}_node_new(rep, pd=None, name={decl.name!r}):"):
            w.w('"""Data-API root (Figure 6: <type>_node_new)."""')
            w.w("from repro.tools.dataapi import PNode")
            w.w(f"return PNode(_interp().node({name!r}), rep, pd, name)")
        w.w()
        with w.block(f"def {name}_node_kthChild(node, idx):"):
            w.w('"""Data-API child access (Figure 6: node_kthChild)."""')
            w.w("return node.kth_child(idx)")

    def _emit_registry(self, w: _W) -> None:
        w.w()
        w.w()
        with w.block("class _GenType:"):
            w.w("__slots__ = ('parse', 'write', 'verify', 'default', "
                "'params', 'is_record')")
            with w.block("def __init__(self, parse, write, verify, default, "
                         "params, is_record):"):
                w.w("self.parse = parse")
                w.w("self.write = write")
                w.w("self.verify = verify")
                w.w("self.default = default")
                w.w("self.params = params")
                w.w("self.is_record = is_record")
        w.w()
        w.w("TYPES = {")
        with _Indent(w):
            for kind, entry in self.plan.order:
                if kind != "type":
                    continue
                n = entry.name
                params = entry.param_names
                w.w(f"{n!r}: _GenType({n}_parse, {n}_write, {n}_verify, "
                    f"{n}_default, {params!r}, {entry.is_record!r}),")
        w.w("}")
        w.w()
        w.w("# Fast-path record types: name -> compiled fast function.")
        w.w("FAST = {")
        with _Indent(w):
            for name, fn_name in self._fastpaths.items():
                w.w(f"{name!r}: {fn_name},")
        w.w("}")
        w.w("# Batch-eligible record types: name -> (static width, kernel).")
        w.w("BATCH = {")
        with _Indent(w):
            for name, (width, bt_name) in self._batchpaths.items():
                w.w(f"{name!r}: ({width}, {bt_name}),")
        w.w("}")
        src_name = self.plan.source_name
        w.w(f"SOURCE_TYPE = {src_name!r}" if src_name is not None
            else "SOURCE_TYPE = None")


def _member_label(item) -> str:
    if isinstance(item, LitItem):
        return f"literal {item.literal.describe()}"
    if isinstance(item, ComputeItem):
        return f"Pcompute {item.name}"
    return f"field {item.name}"


def _type_label(use: Use) -> str:
    if isinstance(use, (RefUse, BaseUse)):
        return use.name
    if isinstance(use, OptUse):
        return f"Popt {_type_label(use.inner)}"
    return "Pre"


def generate_source(desc: D.Description, ambient: str = "ascii",
                    module_name: str = "pads_generated",
                    source_text: str = "", plan: Optional[Plan] = None,
                    fastpath: bool = True) -> str:
    """Generate a standalone Python module from a checked description."""
    return Emitter(desc, ambient, module_name, source_text, plan,
                   fastpath).emit_module()


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
