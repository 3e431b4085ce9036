"""Python's own regex parse tree, for the code that walks it:
:func:`repro.plan.split.may_hold` (may a match consume this byte?) and
:func:`repro.util.regexgen.sample_regex` (draw a matching string)."""

try:
    from re import _parser as sre  # type: ignore[attr-defined]
except ImportError:  # Python < 3.11
    import sre_parse as sre  # type: ignore[no-redef]

#: The repeat operators; each node's argument is ``(min, max, body)``.
REPEATS = tuple(getattr(sre, op) for op in
                ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT")
                if hasattr(sre, op))


def _digit(cp: int) -> bool:
    return 48 <= cp <= 57


def _space(cp: int) -> bool:
    return cp == 32 or 9 <= cp <= 13


def _word(cp: int) -> bool:
    return _digit(cp) or 65 <= cp <= 90 or 97 <= cp <= 122 or cp == 95


#: The categories (``\d``, ``\s``, ``\w`` and their negations) as tests
#: of one code point, with ASCII meanings as in a bytes pattern.
CATEGORIES = {
    sre.CATEGORY_DIGIT: _digit,
    sre.CATEGORY_NOT_DIGIT: lambda cp: not _digit(cp),
    sre.CATEGORY_SPACE: _space,
    sre.CATEGORY_NOT_SPACE: lambda cp: not _space(cp),
    sre.CATEGORY_WORD: _word,
    sre.CATEGORY_NOT_WORD: lambda cp: not _word(cp),
}
