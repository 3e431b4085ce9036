"""Analysis and optimization passes over the plan IR.

Two passes run after lowering, in order:

* :func:`compute_widths` — static-size analysis: annotates every
  declaration and type use with its byte width when the physical form
  is provably fixed (a base type's ``static_width``: binary words,
  packed/zoned decimals, fixed-width strings and integers; structs,
  arrays and enums built only from those).
* :func:`attach_fastpaths` — record the batch-kernel and fastpath
  verdicts (with their reasons) for every declaration, and compile the
  batch kernel, fast function and writer of eligible ``Precord``
  structs.  The binder, the record loop and ``padsc plan`` read the
  verdicts instead of re-deriving eligibility structurally.
"""

from __future__ import annotations

from typing import Optional

from .ir import (
    ArrayPlan,
    BaseUse,
    ComputeItem,
    DataItem,
    EnumPlan,
    LitItem,
    OptUse,
    Plan,
    RefUse,
    StructPlan,
    SwitchPlan,
    TypedefPlan,
    UnionPlan,
    Use,
    Verdict,
)


# -- static-size analysis ----------------------------------------------------


def compute_widths(plan: Plan) -> None:
    # Types are declared before use, so one in-order pass suffices.
    for dp in plan.decls.values():
        dp.width = _decl_width(plan, dp)


def _use_width(plan: Plan, use: Use) -> Optional[int]:
    if isinstance(use, BaseUse):
        use.width = (use.static.static_width
                     if use.static is not None else None)
    elif isinstance(use, RefUse):
        target = plan.decls.get(use.name)
        use.width = target.width if target is not None else None
    elif isinstance(use, OptUse):
        _use_width(plan, use.inner)
        use.width = None  # presence is data-dependent
    else:
        use.width = None
    return use.width


def _decl_width(plan: Plan, dp) -> Optional[int]:
    if isinstance(dp, StructPlan):
        total: Optional[int] = 0
        for item in dp.items:
            if isinstance(item, LitItem):
                w = item.literal.width
            elif isinstance(item, ComputeItem):
                w = 0
            else:
                assert isinstance(item, DataItem)
                w = _use_width(plan, item.type)
            if w is None:
                total = None  # keep annotating uses for the pretty-printer
            elif total is not None:
                total += w
        return total

    if isinstance(dp, UnionPlan):
        widths = [_use_width(plan, br.type) for br in dp.branches]
        if widths and None not in widths and len(set(widths)) == 1:
            return widths[0]
        return None

    if isinstance(dp, SwitchPlan):
        widths = [_use_width(plan, c.type) for c in dp.cases]
        if widths and None not in widths and len(set(widths)) == 1:
            return widths[0]
        return None

    if isinstance(dp, ArrayPlan):
        ew = _use_width(plan, dp.elt)
        n = dp.fixed_count
        if (n is None or ew is None or dp.term is not None
                or dp.last is not None or dp.ended is not None or dp.longest):
            return None
        if dp.sep is None:
            sw = 0
        elif dp.sep.width is not None:
            sw = dp.sep.width
        else:
            return None
        if n == 0:
            return 0
        return n * ew + (n - 1) * sw

    if isinstance(dp, EnumPlan):
        lens = {len(item.raw) for item in dp.items}
        return lens.pop() if len(lens) == 1 else None

    if isinstance(dp, TypedefPlan):
        return _use_width(plan, dp.base)

    return None


# -- compiled-path verdicts ---------------------------------------------------


def attach_fastpaths(plan: Plan) -> None:
    """Record the batch-kernel and fastpath verdicts of every
    declaration, each with its reason, and compile the eligible records.

    The batch verdict comes first and is the stricter one: the whole
    record layout must be provably static (fixed columns at fixed
    offsets), because the record loop's grid block step unpacks a block
    of records at a constant pitch in one call.  Its geometry fit
    against the record discipline is decided per pass at run time
    (:meth:`~repro.core.api.CompiledDescription.grid`).
    A record with a kernel gets that kernel over one record as its fast
    function; any other record gets the split kernel when it is a run of
    separated tokens, else the anchored-regex compiler
    (:func:`~repro.plan.fastpath.compile_fast`).
    """
    import re
    from .fastpath import (NotEligible, compile_batch, compile_fast,
                           compile_write)
    for dp in plan.decls.values():
        if dp.params:
            dp.verdict = dp.batch_verdict = Verdict(False, "parameterised type")
            continue
        if not dp.is_record:
            dp.verdict = dp.batch_verdict = Verdict(False, "not a Precord type")
            continue
        if not isinstance(dp, StructPlan):
            dp.verdict = dp.batch_verdict = Verdict(
                False, f"Precord {dp.kind} (compiled paths cover Pstruct "
                "records)")
            continue
        kernel = None
        try:
            kernel, lines, reason = compile_batch(plan, dp)
        except NotEligible as exc:
            dp.batch_verdict = Verdict(False, str(exc) or "not eligible")
        else:
            dp.batch_verdict = Verdict(True, reason)
            dp.batch_fn = (kernel, lines)
        try:
            fn_name, lines, reason = compile_fast(plan, dp, kernel)
        except NotEligible as exc:
            dp.verdict = Verdict(False, str(exc) or "not eligible")
        except re.error as exc:
            dp.verdict = Verdict(False, f"regex error: {exc}")
        else:
            dp.verdict = Verdict(True, reason)
            dp.fast_fn = (fn_name, lines)
            try:
                dp.write_fn = compile_write(plan, dp)
            except NotEligible:
                pass  # the general writer serves this record
