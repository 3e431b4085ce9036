"""Cobol copybook -> PADS description translator (paper Section 5.2).

AT&T's Altair project receives "roughly 4000 data files per day in various
Cobol formats"; to profile them automatically "we built a tool that
automatically translates Cobol copybooks into PADS descriptions."  This
module reproduces that tool:

* group items become ``Pstruct``s (01-level groups are ``Precord``),
* ``PIC X(n)`` / ``PIC A(n)`` become ``Pstring_FW(:n:)``,
* ``PIC [S]9(n)[V9(m)] DISPLAY`` becomes zoned decimal ``Pzoned_FW``,
* ``COMP-3`` becomes packed decimal ``Pbcd_FW``,
* ``COMP``/``BINARY`` becomes a big-endian binary integer sized by Cobol's
  rules (1-4 digits -> 2 bytes, 5-9 -> 4, 10-18 -> 8),
* ``OCCURS n TIMES`` becomes a fixed-size ``Parray``,
* ``REDEFINES`` becomes a ``Punion`` of the overlaid layouts,
* ``FILLER`` becomes an anonymous fixed-width string field.

The translation targets ambient EBCDIC and fixed-width records;
:func:`translate` also reports the record width so callers can construct
the right :class:`~repro.core.io.FixedWidthRecords` discipline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.errors import PadsError


class CopybookError(PadsError):
    pass


@dataclass
class Picture:
    """A parsed PICTURE clause."""
    category: str          # 'alnum' | 'num'
    digits: int = 0        # digit count for numerics, byte count for alnum
    decimals: int = 0      # digits after the implied decimal point
    signed: bool = False


@dataclass
class Item:
    """One copybook data item."""
    level: int
    name: str
    pic: Optional[Picture] = None
    usage: str = "DISPLAY"  # DISPLAY | COMP | COMP-3
    occurs: int = 0         # 0 = not repeated
    redefines: Optional[str] = None
    children: List["Item"] = field(default_factory=list)

    @property
    def is_group(self) -> bool:
        return self.pic is None

    def byte_width(self) -> int:
        """Physical width in bytes (needed for record disciplines and
        REDEFINES padding)."""
        if self.is_group:
            width = sum(c.byte_width() for c in self.children
                        if c.redefines is None)
        else:
            pic = self.pic
            total = pic.digits + pic.decimals
            if self.usage == "COMP-3":
                width = (total + 2) // 2
            elif self.usage == "COMP":
                width = 2 if total <= 4 else 4 if total <= 9 else 8
            else:
                width = total
        return width * (self.occurs or 1)


_PIC_RE = re.compile(
    r"^(?P<sign>S)?(?P<body>[X9AV()0-9]+)$", re.IGNORECASE)
_RUN_RE = re.compile(r"([XA9V])(?:\((\d+)\))?", re.IGNORECASE)


def parse_picture(text: str) -> Picture:
    m = _PIC_RE.match(text)
    if not m:
        raise CopybookError(f"unsupported PICTURE clause {text!r}")
    signed = m.group("sign") is not None
    body = m.group("body").upper()
    digits = decimals = alnum = 0
    after_v = False
    for sym, count in _RUN_RE.findall(body):
        n = int(count) if count else 1
        sym = sym.upper()
        if sym == "V":
            after_v = True
        elif sym == "9":
            if after_v:
                decimals += n
            else:
                digits += n
        else:  # X or A
            alnum += n
    if alnum and (digits or decimals):
        raise CopybookError(f"mixed alphanumeric/numeric PICTURE {text!r}")
    if alnum:
        return Picture("alnum", alnum)
    if digits + decimals == 0:
        raise CopybookError(f"empty PICTURE {text!r}")
    return Picture("num", digits, decimals, signed)


def _sentences(text: str) -> List[List[str]]:
    """Split copybook text into word lists, one per '.'-terminated entry."""
    # Strip sequence columns / comments: a '*' in column 7 comments the line.
    lines = []
    for line in text.splitlines():
        if len(line) > 6 and line[6] == "*":
            continue
        lines.append(line)
    words = " ".join(lines).replace(".", " . ").split()
    out: List[List[str]] = []
    current: List[str] = []
    for word in words:
        if word == ".":
            if current:
                out.append(current)
                current = []
        else:
            current.append(word)
    if current:
        out.append(current)
    return out


_FILLER_COUNT = 0


def parse_copybook(text: str) -> List[Item]:
    """Parse copybook text into a forest of 01-level items."""
    roots: List[Item] = []
    stack: List[Item] = []
    filler = 0

    for words in _sentences(text):
        if not words:
            continue
        try:
            level = int(words[0])
        except ValueError:
            raise CopybookError(f"expected a level number, found {words[0]!r}")
        if level == 88:
            continue  # condition names carry no physical layout
        idx = 1
        if idx < len(words) and words[idx].upper() not in (
                "PIC", "PICTURE", "REDEFINES", "OCCURS", "USAGE", "COMP",
                "COMP-3", "COMPUTATIONAL", "COMPUTATIONAL-3", "BINARY"):
            name = words[idx].upper()
            idx += 1
        else:
            name = "FILLER"
        if name == "FILLER":
            filler += 1
            name = f"FILLER_{filler}"
        name = name.replace("-", "_").lower()

        item = Item(level=level, name=name)
        while idx < len(words):
            word = words[idx].upper()
            if word in ("PIC", "PICTURE"):
                idx += 1
                if idx < len(words) and words[idx].upper() == "IS":
                    idx += 1
                item.pic = parse_picture(words[idx])
            elif word == "REDEFINES":
                idx += 1
                item.redefines = words[idx].upper().replace("-", "_").lower()
            elif word == "OCCURS":
                idx += 1
                item.occurs = int(words[idx])
                if idx + 1 < len(words) and words[idx + 1].upper() == "TIMES":
                    idx += 1
            elif word == "USAGE":
                pass  # the usage keyword itself
            elif word == "IS":
                pass
            elif word in ("COMP", "COMPUTATIONAL", "BINARY", "COMP-4",
                          "COMPUTATIONAL-4"):
                item.usage = "COMP"
            elif word in ("COMP-3", "COMPUTATIONAL-3", "PACKED-DECIMAL"):
                item.usage = "COMP-3"
            elif word in ("VALUE", "VALUES"):
                idx = len(words)  # initial values don't affect layout
                break
            elif word in ("SYNC", "SYNCHRONIZED", "JUST", "JUSTIFIED",
                          "LEFT", "RIGHT", "DISPLAY", "BLANK", "WHEN",
                          "ZERO", "ZEROS", "ZEROES"):
                pass
            else:
                raise CopybookError(f"unsupported clause {words[idx]!r} "
                                    f"in item {item.name}")
            idx += 1

        while stack and stack[-1].level >= level:
            stack.pop()
        if stack:
            stack[-1].children.append(item)
        else:
            roots.append(item)
        stack.append(item)

    if not roots:
        raise CopybookError("copybook contains no items")
    return roots


# ---------------------------------------------------------------------------
# PADS emission
# ---------------------------------------------------------------------------

def _leaf_type(item: Item) -> str:
    pic = item.pic
    if pic.category == "alnum":
        return f"Pstring_FW(:{pic.digits}:)"
    total = pic.digits + pic.decimals
    if item.usage == "COMP-3":
        if pic.decimals:
            return f"Pbcd_FW(:{total}, {pic.decimals}:)"
        return f"Pbcd_FW(:{total}:)"
    if item.usage == "COMP":
        width = 16 if total <= 4 else 32 if total <= 9 else 64
        return f"Pb_{'int' if pic.signed else 'uint'}{width}_be"
    if pic.decimals:
        return f"Pzoned_FW(:{total}, {pic.decimals}:)"
    return f"Pzoned_FW(:{total}:)"


class _Translator:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.decls: List[str] = []
        self.counter = 0

    def type_name(self, item: Item) -> str:
        return f"{item.name}_t"

    def emit_item_type(self, item: Item, record: bool = False) -> str:
        """Emit declarations for ``item``; returns the PADS type expression
        to use at its occurrence."""
        if item.is_group:
            base = self._emit_group(item, record)
        else:
            base = _leaf_type(item)
        if item.occurs:
            array_name = f"{item.name}_seq_t"
            self.decls.append(
                f"Parray {array_name} {{\n  {base}[{item.occurs}];\n}};\n")
            return array_name
        return base

    def _emit_group(self, item: Item, record: bool) -> str:
        # Fold REDEFINES runs into unions.
        members: List[Tuple[str, str]] = []  # (field name, type expr)
        redefine_groups: dict = {}
        order: List[str] = []
        for child in item.children:
            target = child.redefines or child.name
            if target not in redefine_groups:
                redefine_groups[target] = []
                order.append(target)
            redefine_groups[target].append(child)

        for target in order:
            group = redefine_groups[target]
            if len(group) == 1:
                child = group[0]
                members.append((child.name, self.emit_item_type(child)))
                continue
            # REDEFINES: a union of the overlaid layouts, widest-first so
            # narrower overlays don't shadow wider ones.
            branches = []
            for child in sorted(group, key=lambda c: -c.byte_width()):
                branches.append((child.name, self.emit_item_type(child)))
            union_name = f"{target}_overlay_t"
            body = "\n".join(f"  {texpr} {fname};" for fname, texpr in branches)
            self.decls.append(f"Punion {union_name} {{\n{body}\n}};\n")
            members.append((target, union_name))

        struct_name = self.type_name(item)
        body = "\n".join(f"  {texpr} {fname};" for fname, texpr in members)
        prefix = "Precord " if record else ""
        self.decls.append(f"{prefix}Pstruct {struct_name} {{\n{body}\n}};\n")
        return struct_name


@dataclass
class Translation:
    """Result of translating a copybook."""
    pads_source: str
    record_type: str
    record_width: int
    #: The analyzed plan of the translated description (None when the
    #: generated source does not round-trip through the front end).
    plan: Optional[object] = None

    def compile(self, **kwargs):
        """Compile the translated description (EBCDIC ambient, fixed-width
        records sized from the copybook)."""
        from ..core.api import compile_description
        from ..core.io import FixedWidthRecords
        kwargs.setdefault("ambient", "ebcdic")
        kwargs.setdefault("discipline", FixedWidthRecords(self.record_width))
        return compile_description(self.pads_source, **kwargs)


def translate(copybook_text: str, source_name: str = "<copybook>") -> Translation:
    """Translate a Cobol copybook into a PADS description."""
    roots = parse_copybook(copybook_text)
    tr = _Translator(prefix="")
    header = (f"/- PADS description translated from Cobol copybook "
              f"{source_name}\n"
              "/- by repro.tools.cobol (compile with ambient='ebcdic',\n"
              "/- FixedWidthRecords(record_width)).\n\n")
    record_types = []
    for root in roots:
        record_types.append(tr.emit_item_type(root, record=True))
    body = "\n".join(tr.decls)
    if len(roots) == 1:
        source_decl = (f"Psource Parray {roots[0].name}_file_t {{\n"
                       f"  {record_types[0]}[];\n}};\n")
    else:
        fields = "\n".join(f"  {t} r{i};" for i, t in enumerate(record_types))
        source_decl = f"Psource Pstruct copybook_file_t {{\n{fields}\n}};\n"
    pads_source = header + body + "\n" + source_decl
    record_type = record_types[0]

    # Record width: prefer the plan's static-width analysis of the
    # translated description (the same fact the binder consumes); the
    # copybook's own byte arithmetic is the fallback for layouts the
    # analysis cannot size (e.g. REDEFINES overlays of unequal widths).
    record_width = roots[0].byte_width()
    plan = None
    try:
        from ..dsl.parser import parse_description
        from ..dsl.typecheck import check_description
        from ..plan import analyze
        desc = parse_description(pads_source, source_name)
        check_description(desc, "ebcdic")
        plan = analyze(desc, "ebcdic")
        width = plan.decl(record_type).width
        if width is not None:
            record_width = width
    except Exception:
        plan = None

    return Translation(
        pads_source=pads_source,
        record_type=record_type,
        record_width=record_width,
        plan=plan,
    )
