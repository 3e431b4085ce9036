"""Cold start: ``import repro`` loads only what the run uses, and the
node classes that load cheaper still behave as before.

* The import budget runs in a fresh interpreter: after ``import repro``
  and compiling SIRIUS twice, once through ``compile_generated``, no
  process-pool machinery, no accumulator, no plan pretty-printer, no
  Prometheus renderer, no data generator's regex sampler, no module
  emitter and no ``json`` is loaded, yet each still
  resolves on first use; after ``import repro.tools.padsc`` neither the
  execution planner nor the accumulator is.
* The golden digests pin, for every gallery description, the ``repr``
  of the parsed AST, the ``repr`` of the analyzed declaration plans and
  the ``padsc compile`` output.  They were taken before the AST and plan
  classes dropped their generated ``__eq__``/``__repr__``, so they show
  the shared field-wise methods change nothing.  Further digests pin the
  member fast functions, the accumulator adders and the delimited
  formatters generated for the gallery, taken before those generators
  moved onto one line writer (:mod:`repro.plan.lines`).
"""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import gallery
from repro.codegen import generate_source
from repro.dsl import ast as D
from repro.dsl.parser import parse_description
from repro.dsl.typecheck import check_description
from repro.expr import ast as E
from repro.plan import analyze, ir
from repro.plan.fastpath import compile_member
from repro.plan.lines import template
from repro.tools import adder, fmt
from repro.tools.accum import record_accumulator
from repro.tools.padsc import main

#: Modules a serial compile-and-parse run never touches.
UNUSED = ["repro.parallel", "repro.execute", "repro.tools.accum",
          "repro.plan.pprint", "repro.observe.exposition",
          "repro.util.regexgen", "repro.codegen.emitter", "json",
          "multiprocessing", "concurrent.futures.process"]

BUDGET = """
import sys
import repro, repro.stream
from repro.codegen import compile_generated
repro.compile_description(repro.gallery.SIRIUS)
compile_generated(repro.gallery.SIRIUS)
loaded = sorted(m for m in sys.argv[1].split(",") if m in sys.modules)
import json
listed = "parallel" in dir(repro)
from repro import parallel
from repro.observe import to_prometheus
from repro.plan import format_plan
print(json.dumps({"loaded": loaded, "listed": listed,
                  "drive": callable(repro.parallel.drive),
                  "same": parallel is sys.modules["repro.parallel"],
                  "lazy": [callable(to_prometheus), callable(format_plan)],
                  "all": "parallel" in repro.__all__}))
"""


def _fresh(script: str, *args: str) -> str:
    """The last line ``script`` prints in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_import_budget_in_a_fresh_process():
    doc = json.loads(_fresh(BUDGET, ",".join(UNUSED)))
    assert doc == {"loaded": [], "listed": True, "drive": True, "same": True,
                   "lazy": [True, True], "all": True}


def test_padsc_loads_the_planner_only_to_run_a_fold():
    """``padsc compile``/``plan``/``check`` run no fold, so importing the
    CLI loads neither the execution planner nor the accumulator."""
    script = ("import sys, repro.tools.padsc; print(sorted(m for m in "
              "('repro.execute', 'repro.tools.accum') if m in sys.modules))")
    assert _fresh(script) == "[]"


def test_an_unknown_attribute_is_still_an_attribute_error():
    with pytest.raises(AttributeError):
        repro.no_such_module
    with pytest.raises(AttributeError):
        from repro import plan
        plan.no_such_name


# -- golden digests -------------------------------------------------------------

TARGETS = [("clf", gallery.CLF, "ascii"), ("sirius", gallery.SIRIUS, "ascii"),
           ("calldetail", gallery.CALL_DETAIL, "binary"),
           ("netflow", gallery.NETFLOW, "binary"),
           ("regulus", gallery.REGULUS, "ascii")]

#: sha256 of ``repr(parse_description(text, "<name>.pads"))``.
AST_SHA = {
    "clf": "cf1bff591e84a2f9efdd484a5052cc17ee99ce3956fcea752f2edb768e23aa1f",
    "sirius": "81f82e6bf6106ace54ab7a086e8c0879e82578c6403c825f59e44f9de641b0bc",
    "calldetail": "62731bc17ac88b91ea9ef4f95869d98a76f45a979670b06528fd407a54512253",
    "netflow": "5406b7c67ce0dd4afeb1e8fed48ed4b417f1c1b38609ac7611ecb12fb0333620",
    "regulus": "751c755dee619a44058cdc1294162a2fe0c09f718fc985970f5a04c02d8deb8a",
}

#: sha256 of ``repr(list(analyze(desc, ambient).decls.values()))``.  The
#: regex fast functions and split kernels need atomic groups (Python
#: 3.11+), so on 3.10 the three text formats analyze to other verdicts
#: and other digests.
PLAN_SHA = {
    "clf": "e914ef6a46a5a9ce4f70a9a18d316378036351146e69141105bb1a9fa046fbe7",
    "sirius": "a6c35ab615d968d841a8e44042594ca79aa50bc965a2b7f4042cb77ec9c2575d",
    "calldetail": "baf8d75432f826a9279601cd37ee8ec907b2dfec3bae99c681ab7b2007a7b52f",
    "netflow": "d092ecde6c6b496d72a5c787a46157139edffbb4a23b8f2e0fc400dd4ac71fec",
    "regulus": "a6ab0cf30033e139af5b2671ed91e22fbf8d5ed8dc14b1681a343e33beae87fe",
}
if sys.version_info < (3, 11):
    PLAN_SHA.update({
        "clf": "2d601bf8b6c4a2a18bcd040ff971d6b8da75a14d8436aa4550942f3d7230ada4",
        "sirius": "07d4e54833c295e2f2aa48cbc02754b5729a5bff581b8fe0bf483d810764e6ee",
        "regulus": "862502d9b3eca736a82b4f7cee28d621eb7f679c3b53972aa3286de60d8c5639",
    })

#: sha256 of ``padsc compile <name>.pads --ambient <ambient>``'s output.
COMPILE_SHA = {
    "clf": "688302164afc1269d5e8430d9249e2460d6d38aa4375ede30336610a867af6b7",
    "sirius": "dbb50263f6a386c9f5f1d08dd319d776afa6a3fcee4373bcfa76639ed6c3ac2a",
    "calldetail": "d61babb10f08e2aab311911fd6576d317d2c3538569f977193b0aa5d9acde43f",
    "netflow": "ccf56e2552c373ed1fce6d96b6c30b821ed5dbd3e3578ad6df346208eab7f75b",
    "regulus": "50498a7c18c06970204cdbeb41b4f0218124bfb78c8c931b5f08122cb2bc482e",
}


#: sha256 of every member fast function fragment and verdict
#: (:func:`compile_member`) of every struct, in declaration order.  The
#: regex fragments need atomic groups, so on 3.10 the three text formats
#: get other verdicts.
MEMBER_SHA = {
    "clf": "5ad45df86bb304ed7c90bfae83a58f9d54ad7c9d93fea2f0beaa442403b8b63f",
    "sirius": "1a5614aae3de979323059f1e1f7d508b7f6cb62d4144e38b0d1eda88b360af4f",
    "calldetail": "25133391f937309b483fbee3698167df96043daf4bcf6031cdf982614e19ff74",
    "netflow": "a80cc7c69c800f999b1bcfff38b9998d262644c721ce3aa22cf01c057ba8b464",
    "regulus": "08c909afa2ccbcf3fa629c597fdc76009c1d562dbc0fbda1ea8aac7e705c0554",
}
if sys.version_info < (3, 11):
    MEMBER_SHA.update({
        "clf": "ef6d5de51e70bb59ed43c054bc80177335a857f7fa3873dc177beb769ed63e5a",
        "sirius": "fb3f8bcf2475cf642be3c18048d234415315e7459803a4d7698f442d60b6e265",
        "regulus": "1fde9a3a71a042537450ab890b9afd93b3aab51403f756475c3cb61f74e408fc",
    })

#: sha256 of the accumulator adder source of each record type, and of
#: its delimited formatter source under the default options and under
#: ``FMT_OPTIONS`` (netflow has no record type).
ADDER_SHA = {
    "clf": "159722b534bfe6a3c42e79fda42efd33ffdd13c5afc22f6032bb8467c18e0317",
    "sirius": "9c2f0eb1b6514a87069eb033b2ba6d809386cca5eab3330fcde72c45afc1c29d",
    "calldetail": "c72700fb4a7bb3261c874623f22e092f0207ea87cea671a21501083de92dbfe9",
    "regulus": "9cfcea34e2cd7f5c50741ef955f5699176863494d77e2eb544b76f208079ea1d",
}
FMT_SHA = {
    "clf": "cc195a812176c3ff1959ce2f21244a12260b2f7ba07595d679b21abcc02f8501",
    "sirius": "d4907e9b85e3304753ec0622a032bb202f4f5c17e91d63d0ed3b3f891317a87c",
    "calldetail": "e249e82b73ffa1e46023539bafc2eb5c1d20176952eb85d5ce87f60d734c111b",
    "regulus": "b28dd1de7eacd76ff264a56f267bede85e4ed05c5a3342fd7caa7cadb556cbd5",
}
FMT_OPTIONS_SHA = {
    "clf": "87f8199ed58a77d8cb6ef9c9ac5337937af28e6d6701d646f46d7143c3e203a3",
    "sirius": "6714ad0f1f0fee71060d365affab6a826247d09668182eb4b8bf891233865f22",
    "calldetail": "e249e82b73ffa1e46023539bafc2eb5c1d20176952eb85d5ce87f60d734c111b",
    "regulus": "b28dd1de7eacd76ff264a56f267bede85e4ed05c5a3342fd7caa7cadb556cbd5",
}
#: Several delimiters, a date format and a text for absent values.
FMT_OPTIONS = {"delims": ("|", ";", ",", ":"), "date_format": "%D:%T",
               "none_text": "-"}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,text,ambient", TARGETS,
                         ids=[t[0] for t in TARGETS])
def test_ast_and_plan_reprs_are_unchanged(name, text, ambient):
    desc = parse_description(text, f"{name}.pads")
    assert _sha(repr(desc)) == AST_SHA[name]
    check_description(desc, ambient)
    plan = analyze(desc, ambient)
    assert _sha(repr(list(plan.decls.values()))) == PLAN_SHA[name]


@pytest.mark.parametrize("name,text,ambient", TARGETS,
                         ids=[t[0] for t in TARGETS])
def test_padsc_compile_output_is_unchanged(name, text, ambient, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.pads").write_text(text, encoding="utf-8")
    assert main(["compile", f"{name}.pads", "--ambient", ambient,
                 "-o", "out.py"]) == 0
    out = (tmp_path / "out.py").read_text(encoding="utf-8")
    assert _sha(out) == COMPILE_SHA[name]


@pytest.mark.parametrize("name,text,ambient", TARGETS,
                         ids=[t[0] for t in TARGETS])
def test_member_fast_functions_are_unchanged(name, text, ambient):
    desc = parse_description(text, f"{name}.pads")
    check_description(desc, ambient)
    plan = analyze(desc, ambient)
    members = [repr((decl.name, item.name,
                     *compile_member(plan, decl, item)))
               for decl in plan.decls.values()
               if isinstance(decl, ir.StructPlan)
               for item in decl.items if isinstance(item, ir.DataItem)]
    assert _sha("\n".join(members)) == MEMBER_SHA[name]


def _formatter_source(node, monkeypatch, delims=("|",), date_format=None,
                      none_text="") -> str:
    """The source the compiled formatter of ``node`` under these options
    is built from, caught at the template step (past the template cache)."""
    sources = []

    def spy(source, filename, namespace):
        sources.append(source)
        return template(source, filename, namespace)
    monkeypatch.setattr(fmt, "template", spy)
    shape = fmt._shape(node, [])
    fmt._template.__wrapped__(shape, delims[:fmt._max_depth(shape) + 1],
                              date_format, none_text)
    return sources[0]


@pytest.mark.parametrize("name,text,ambient",
                         [t for t in TARGETS if t[0] in ADDER_SHA],
                         ids=[t[0] for t in TARGETS if t[0] in ADDER_SHA])
def test_adder_and_formatter_sources_are_unchanged(name, text, ambient,
                                                  monkeypatch):
    desc = repro.compile_description(text, ambient=ambient)
    records = [dp.name for dp in desc.plan.decls.values() if dp.is_record]
    adders = [adder._AdderSource().source(
        adder._shape(record_accumulator(desc, record), []))
        for record in records]
    assert _sha("\n".join(adders)) == ADDER_SHA[name]
    for options, want in (({}, FMT_SHA), (FMT_OPTIONS, FMT_OPTIONS_SHA)):
        sources = [_formatter_source(desc.node(record), monkeypatch,
                                     **options) for record in records]
        assert _sha("\n".join(sources)) == want[name]


def test_compile_runs_no_fastpath_pass(monkeypatch):
    """``padsc compile`` lowers the plan without compiling the record
    functions the module does not carry."""
    def refuse(plan):
        raise AssertionError("attach_fastpaths ran")
    monkeypatch.setattr("repro.plan.passes.attach_fastpaths", refuse)
    source = generate_source(gallery.SIRIUS, filename="sirius.pads")
    assert _sha(source) == COMPILE_SHA["sirius"]


# -- node behaviour ---------------------------------------------------------------

def test_equal_nodes_compare_equal():
    one = E.Binary("+", E.IntLit(1, line=2, col=3), E.Name("x"))
    assert one == E.Binary("+", E.IntLit(1, line=2, col=3), E.Name("x"))
    assert one != E.Binary("+", E.IntLit(1, line=2, col=4), E.Name("x"))
    assert D.DataField("n", D.TypeRef("Puint8")) == \
        D.DataField("n", D.TypeRef("Puint8"))
    assert ir.Verdict(True, "ok") == ir.Verdict(True, "ok")
    assert ir.Verdict(True, "ok") != ir.Verdict(False, "ok")
    assert parse_description(gallery.SIRIUS) == \
        parse_description(gallery.SIRIUS)


def test_nodes_of_other_classes_differ_even_with_equal_fields():
    assert E.StrLit("a") != E.CharLit("a")
    assert E.Forall("i", E.IntLit(0), E.IntLit(1), E.Name("i")) != \
        E.Exists("i", E.IntLit(0), E.IntLit(1), E.Name("i"))
    assert ir.RegexUse("a") != ir.BaseUse("a", (), None, None)
    assert E.IntLit(1).__eq__(E.FloatLit(1)) is NotImplemented
    assert E.IntLit(1) != 1


@pytest.mark.parametrize("node", [
    E.IntLit(1), E.Block([]), D.TypeRef("Puint8"), D.LiteralSpec("eor"),
    D.StructDecl("s"), D.Description(), ir.Verdict(True, "ok"),
    ir.BaseUse("Puint8", (), None, None),
    ir.StructPlan("s", [], True, False, None, D.StructDecl("s")),
], ids=lambda n: type(n).__name__)
def test_nodes_stay_unhashable(node):
    with pytest.raises(TypeError):
        hash(node)


def test_repr_and_constructor_signatures():
    assert repr(E.Binary("+", E.IntLit(1), E.Name("x", line=4))) == (
        "Binary(line=0, col=0, op='+', "
        "left=IntLit(line=0, col=0, value=1), "
        "right=Name(line=4, col=0, ident='x'))")
    assert repr(ir.Verdict(True, "ok")) == "Verdict(eligible=True, reason='ok')"
    assert str(inspect.signature(E.IntLit)) == \
        "(value: 'int', *, line: 'int' = 0, col: 'int' = 0) -> None"
    assert str(inspect.signature(D.TypeRef)) == (
        "(name: 'str', args: 'List[E.Expr]' = <factory>, *, "
        "line: 'int' = 0, col: 'int' = 0) -> None")
    with pytest.raises(TypeError):
        E.IntLit(1, 2)
