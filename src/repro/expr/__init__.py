"""C-like expression language used inside PADS descriptions.

PADS constraints, ``Pwhere`` clauses, switched-union selectors, array
termination predicates and helper functions (like ``chkVersion`` in the
paper's Figure 4) are written in a C-like expression language.  This
package holds its AST (:mod:`.ast`, shared with the DSL parser) and the
compiler to Python the binder runs (:mod:`.pycompile`, with the helpers
compiled code calls in :mod:`.runtime`).  The tests keep a tree-walking
reference interpreter (``tests/reference_eval.py``) to check the
compiler against.
"""
