"""Generate random strings matching a regular expression.

The data generator (:mod:`repro.tools.datagen`) needs to synthesise values
for regex-constrained base types such as ``Pstring_ME``.
:func:`sample_regex` walks the parse tree of Python's own regex parser
(the tree :func:`repro.plan.split.may_hold` reads): literals, classes and
categories, ``.`` (a printable character), groups and back references,
alternation and repetition (an unbounded repeat stops a few rounds past
its minimum, so outputs stay short).  Anchors and lookarounds produce
nothing.  Every sample is checked with :func:`re.fullmatch`; a draw that
fails is retried, and a pattern no draw matches raises
:class:`RegexSampleError`.
"""

from __future__ import annotations

import random
import re
import string
from functools import lru_cache
from typing import Callable, Dict

from .retree import CATEGORIES, REPEATS, sre

_PRINTABLE = string.ascii_letters + string.digits + " !#$%&()*+,-./:;<=>?@[]^_{|}~"
_MAX_REPEAT = 4

_EMPTY = (sre.AT, sre.ASSERT, sre.ASSERT_NOT)

#: ``draw(rng, groups)``: one sample of a subtree; ``groups`` maps group
#: numbers to the text drawn for them so far (for back references).
Draw = Callable[[random.Random, Dict[int, str]], str]


class RegexSampleError(ValueError):
    pass


def _choice(chars: str) -> Draw:
    if not chars:
        raise RegexSampleError("empty character class")
    return lambda rng, groups: rng.choice(chars)


def _members(items) -> str:
    """The characters a class (``IN``) admits: its literals and ranges,
    plus the printable characters its categories admit (for a negated
    class, the printable characters it does not admit)."""
    negate, tests, explicit = False, [], []
    for op, av in items:
        if op is sre.NEGATE:
            negate = True
        elif op is sre.LITERAL:
            explicit.append(chr(av))
            tests.append(lambda c, av=av: ord(c) == av)
        elif op is sre.RANGE:
            lo, hi = av
            explicit += map(chr, range(lo, min(hi, lo + 255) + 1))
            tests.append(lambda c, lo=lo, hi=hi: lo <= ord(c) <= hi)
        elif op is sre.CATEGORY and av in CATEGORIES:
            tests.append(lambda c, test=CATEGORIES[av]: test(ord(c)))
        else:
            raise RegexSampleError(f"unsupported class item {op}")
    pool = _PRINTABLE if negate else explicit + list(_PRINTABLE)
    return "".join(c for c in dict.fromkeys(pool)
                   if any(t(c) for t in tests) != negate)


def _seq(sub) -> Draw:
    parts = [_node(op, av) for op, av in sub]
    return lambda rng, groups: "".join(p(rng, groups) for p in parts)


def _node(op, av) -> Draw:
    if op is sre.LITERAL:
        ch = chr(av)
        return lambda rng, groups: ch
    if op is sre.NOT_LITERAL:
        return _choice(_PRINTABLE.replace(chr(av), ""))
    if op is sre.ANY:
        return _choice(_PRINTABLE)
    if op is sre.IN:
        return _choice(_members(av))
    if op is sre.SUBPATTERN:
        group, body = av[0], _seq(av[-1])

        def subpattern(rng, groups):
            text = groups[group] = body(rng, groups)
            return text
        return subpattern if group is not None else body
    if op is getattr(sre, "ATOMIC_GROUP", None):
        return _seq(av)
    if op in REPEATS:
        lo, hi, body = av[0], min(av[1], av[0] + _MAX_REPEAT), _seq(av[2])
        return lambda rng, groups: "".join(
            body(rng, groups) for _ in range(rng.randint(lo, hi)))
    if op is sre.BRANCH:
        alts = [_seq(alt) for alt in av[1]]
        return lambda rng, groups: rng.choice(alts)(rng, groups)
    if op is sre.GROUPREF:
        return lambda rng, groups: groups.get(av, "")
    if op in _EMPTY:
        return lambda rng, groups: ""
    raise RegexSampleError(f"unsupported regex construct {op}")


@lru_cache(maxsize=128)
def _sampler(pattern: str) -> Draw:
    return _seq(sre.parse(pattern))


def sample_regex(pattern: str, rng: random.Random, attempts: int = 20) -> str:
    """A random string matching ``pattern`` (validated with re.fullmatch)."""
    compiled = re.compile(pattern)
    draw = _sampler(pattern)
    last = ""
    for _ in range(attempts):
        last = draw(rng, {})
        if compiled.fullmatch(last):
            return last
    raise RegexSampleError(
        f"could not generate a match for {pattern!r} (last attempt {last!r})")
