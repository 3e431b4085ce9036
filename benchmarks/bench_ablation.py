"""Ablations over the design choices DESIGN.md calls out.

* **compile vs interpret** — the paper's Section 1: "we compile the PADS
  description rather than simply interpret it to reduce run-time
  overhead".  Three execution strategies are measured: interpreted
  combinators, generated code with the record fast path disabled, and
  generated code with the fast path (the Section 9 partial-evaluation
  idea).
* **mask cost** — Section 3: masks let applications "choose which semantic
  conditions to check at run-time".  Measures full checking vs syntax-only
  vs set-only over the same data.
"""

import random

import pytest

from repro import Mask, P_CheckAndSet, P_Set, gallery
from repro.codegen import compile_generated
from repro.core.masks import MaskFlag
from repro.tools.datagen import sirius_workload

N = 5000


@pytest.fixture(scope="module")
def body():
    return sirius_workload(N, random.Random(99)).split(b"\n", 1)[1]


@pytest.fixture(scope="module")
def gen_no_fastpath():
    gen = compile_generated(gallery.SIRIUS)
    # Disabling the fast path: force every parse through the general body.
    module = gen.module
    for name in list(vars(module)):
        if name.startswith("_fp_"):
            setattr(module, name, lambda *_args: None)
    module.FAST.clear()  # the record loop's table of the same functions
    return gen


def _consume(description, data, mask=None):
    total = bad = 0
    for _, pd in description.records(data, "entry_t", mask):
        total += 1
        bad += 1 if pd.nerr else 0
    return total, bad


@pytest.mark.benchmark(group="ablation-execution")
def test_interpreted(benchmark, sirius_interp, body):
    total, bad = benchmark(_consume, sirius_interp, body)
    assert total == N and bad == 54


@pytest.mark.benchmark(group="ablation-execution")
def test_generated_general_only(benchmark, gen_no_fastpath, body):
    total, bad = benchmark(_consume, gen_no_fastpath, body)
    assert total == N and bad == 54


@pytest.mark.benchmark(group="ablation-execution")
def test_generated_with_fastpath(benchmark, sirius_gen, body):
    total, bad = benchmark(_consume, sirius_gen, body)
    assert total == N and bad == 54


@pytest.mark.benchmark(group="ablation-masks")
def test_mask_check_and_set(benchmark, sirius_gen, body):
    total, bad = benchmark(_consume, sirius_gen, body, Mask(P_CheckAndSet))
    assert bad == 54


@pytest.mark.benchmark(group="ablation-masks")
def test_mask_syntax_only(benchmark, sirius_gen, body):
    mask = Mask(MaskFlag.SET | MaskFlag.SYN_CHECK)
    total, bad = benchmark(_consume, sirius_gen, body, mask)
    # Without semantic checks the sort violation goes unnoticed.
    assert bad == 53


@pytest.mark.benchmark(group="ablation-masks")
def test_mask_set_only(benchmark, sirius_gen, body):
    total, bad = benchmark(_consume, sirius_gen, body, Mask(P_Set))
    assert total == N
