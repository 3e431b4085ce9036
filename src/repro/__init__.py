"""repro — a Python reproduction of PADS (Fisher & Gruber, PLDI 2005).

PADS is a declarative data-description language for ad hoc data.  This
package reimplements the full system: the description language, a parsing
runtime with masks and parse descriptors, a Python code generator, and
the generated-tool suite (accumulators, formatting, XML conversion, an
XQuery-subset engine over the generated data API, a Cobol copybook
translator and a conforming-data generator).

Quickstart::

    import repro

    clf = repro.compile_description(repro.gallery.CLF)
    for rep, pd in clf.records(data, "entry_t"):
        if pd.nerr == 0:
            print(rep.client.value)
"""

from .core import (
    CompiledDescription,
    DescriptionError,
    ErrCode,
    ErrorTally,
    FixedWidthRecords,
    LengthPrefixedRecords,
    Loc,
    Mask,
    MaskFlag,
    NewlineRecords,
    NoRecords,
    P_Check,
    P_CheckAndSet,
    P_Ignore,
    P_SemCheck,
    P_Set,
    P_SynCheck,
    PadsError,
    Pd,
    Pstate,
    Rec,
    Source,
    UnionVal,
    DateVal,
    EnumVal,
    compile_description,
    compile_file,
    mask_init,
)

from . import gallery  # noqa: E402  (the paper's descriptions, ready to use)

__version__ = "1.0.0"

__all__ = [
    "CompiledDescription", "DescriptionError", "ErrCode", "ErrorTally",
    "FixedWidthRecords", "LengthPrefixedRecords", "Loc", "Mask", "MaskFlag",
    "NewlineRecords", "NoRecords", "P_Check", "P_CheckAndSet", "P_Ignore",
    "P_SemCheck", "P_Set", "P_SynCheck", "PadsError", "Pd", "Pstate",
    "Rec", "Source", "UnionVal", "DateVal", "EnumVal",
    "compile_description", "compile_file", "mask_init", "gallery",
    "parallel", "__version__",
]


def __getattr__(name: str):
    # ``repro.parallel`` (chunked map-reduce over records) brings in the
    # process pool, which a serial run never uses: it loads on first use.
    if name == "parallel":
        from importlib import import_module
        return import_module(f"{__name__}.parallel")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"parallel"})
