"""Mask trees controlling what the parser checks and materialises.

The paper (Sections 3-4) parameterises every generated parsing function by a
*mask* so that a single description can state every known property of the
data while letting each application pay only for the checks it needs.  A
mask mirrors the shape of its type: base-type positions carry a
:class:`MaskFlag`, compound positions additionally carry a
``compound_level`` flag gating struct/array-level checks such as ``Pwhere``
clauses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class MaskFlag(enum.IntFlag):
    """Per-position mask bits.

    * ``SET`` — materialise the in-memory representation.
    * ``SYN_CHECK`` — verify the physical syntax beyond what is needed to
      make progress.
    * ``SEM_CHECK`` — evaluate user-supplied semantic constraints.

    The conventional combinations from the C library are exported as
    ``P_Ignore``, ``P_Set``, ``P_Check`` and ``P_CheckAndSet``.
    """

    IGNORE = 0
    SET = 1
    SYN_CHECK = 2
    SEM_CHECK = 4


P_Ignore = MaskFlag.IGNORE
P_Set = MaskFlag.SET
P_SynCheck = MaskFlag.SYN_CHECK
P_SemCheck = MaskFlag.SEM_CHECK
P_Check = MaskFlag.SYN_CHECK | MaskFlag.SEM_CHECK
P_CheckAndSet = MaskFlag.SET | MaskFlag.SYN_CHECK | MaskFlag.SEM_CHECK


@dataclass
class Mask:
    """A mask node.

    ``base`` applies to the value parsed at this position.  For compound
    types, ``compound_level`` gates type-level predicates (``Pwhere``,
    struct constraints); ``fields`` and ``elts`` give child masks.  Missing
    children default to this node's ``base`` flag, so ``Mask(P_Check)``
    checks everything without materialising anything (``SET`` never
    changes which errors are reported: checks see the parsed values
    whatever the rep holds), and the default mask
    checks and sets everything — matching ``P_CheckAndSet`` initialisation
    via ``entry_t_m_init`` in the paper's Figure 7.
    """

    base: MaskFlag = P_CheckAndSet
    compound_level: Optional[MaskFlag] = None
    fields: dict = field(default_factory=dict)
    elts: Optional["Mask"] = None
    # Cached uniform child, shared across positions (masks are treated as
    # immutable once parsing begins).
    _uniform: Optional["Mask"] = field(default=None, repr=False, compare=False,
                                       init=False)
    #: ``base`` as a plain int — parsing hot paths test this instead of
    #: paying IntFlag operator overhead.
    bits: int = field(default=0, repr=False, compare=False, init=False)

    def __post_init__(self):
        self.bits = int(self.base)

    def _uniform_child(self) -> "Mask":
        if self._uniform is None:
            child = Mask(self.base)
            child._uniform = child  # uniform all the way down
            self._uniform = child
        return self._uniform

    def for_field(self, name: str) -> "Mask":
        """Child mask for a named struct field / union branch."""
        if not self.fields:
            return self._uniform_child()
        child = self.fields.get(name)
        if child is None:
            return self._uniform_child()
        if isinstance(child, MaskFlag):
            return Mask(child)
        return child

    def for_elements(self) -> "Mask":
        """Child mask for array elements."""
        if self.elts is None:
            return self._uniform_child()
        return self.elts

    @property
    def level(self) -> MaskFlag:
        """Effective compound-level flag (defaults to ``base``)."""
        return self.base if self.compound_level is None else self.compound_level

    # -- convenience predicates -------------------------------------------

    @property
    def do_set(self) -> bool:
        return bool(self.bits & 1)

    @property
    def do_syn(self) -> bool:
        return bool(self.bits & 2)

    @property
    def do_sem(self) -> bool:
        return bool(self.bits & 4)

    @property
    def level_sem(self) -> bool:
        return bool(int(self.level) & 4)

    @property
    def sets_all(self) -> bool:
        """Whether ``SET`` is on at this position and every one below.
        ``SET`` only decides what the rep holds: parsing ignores it, and
        the description's entry points put defaults at unset positions
        afterwards."""
        return bool(self.bits & 1) and all(
            child.sets_all if isinstance(child, Mask) else child & 1
            for child in self.fields.values()) and (
                self.elts is None or self.elts.sets_all)

    def with_field(self, name: str, child: "Mask | MaskFlag") -> "Mask":
        """Functional update: return a copy with ``name`` overridden."""
        fields = dict(self.fields)
        fields[name] = child
        return Mask(self.base, self.compound_level, fields, self.elts)


def mask_init(flag: MaskFlag = P_CheckAndSet) -> Mask:
    """Build a uniform mask, the analogue of ``<type>_m_init`` in Figure 6."""
    return Mask(flag)
