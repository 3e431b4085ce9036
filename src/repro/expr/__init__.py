"""C-like expression language used inside PADS descriptions.

PADS constraints, ``Pwhere`` clauses, switched-union selectors, array
termination predicates and helper functions (like ``chkVersion`` in the
paper's Figure 4) are written in a C-like expression language.  This
package holds its AST (:mod:`.ast`, shared with the DSL parser), the
compiler to Python the binder runs (:mod:`.pycompile`, with the helpers
compiled code calls in :mod:`.runtime`) and a reference interpreter
(:mod:`.eval`) that only the tests use.
"""
