"""Field-wise ``==`` and ``repr`` for the AST and plan node dataclasses.

The description AST (:mod:`repro.dsl.ast`, :mod:`repro.expr.ast`) and the
plan IR (:mod:`repro.plan.ir`) declare their nodes
``@dataclass(eq=False, repr=False)`` and inherit these two methods instead
of having ``dataclasses`` generate and ``exec`` a pair of them for every
class when the modules load.  They behave as the generated ones do:

* ``a == b`` holds when both are of the same class and their fields,
  compared as tuples in declaration order, are equal; any other class
  gives ``NotImplemented``;
* ``repr`` is ``Class(field=value, ...)`` over the same fields, with
  ``...`` for a node reached again while its own repr is being built;
* defining ``__eq__`` here sets ``__hash__`` to None, so the nodes stay
  unhashable (``eq=False`` leaves an inherited ``__hash__`` alone).
"""

from __future__ import annotations

from reprlib import recursive_repr


class Fieldwise:
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self.__dataclass_fields__
        return (tuple(getattr(self, n) for n in names)
                == tuple(getattr(other, n) for n in names))

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}"
                           for n in self.__dataclass_fields__)
        return f"{self.__class__.__qualname__}({fields})"
