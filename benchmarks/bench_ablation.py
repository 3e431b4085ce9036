"""Ablations over the design choices DESIGN.md calls out.

* **compile vs interpret** — the paper's Section 1: "we compile the PADS
  description rather than simply interpret it to reduce run-time
  overhead".  Two execution strategies are measured over one bound
  description: the general path (``fastpath=False``: the type
  combinators drive the parse, with every expression site compiled) and
  the plan-compiled record fast function in front of it (the Section 9
  partial-evaluation idea).
* **mask cost** — Section 3: masks let applications "choose which semantic
  conditions to check at run-time".  Measures full checking vs syntax-only
  vs set-only over the same data.
"""

import random

import pytest

from repro import Mask, P_CheckAndSet, P_Set, compile_description, gallery
from repro.core.masks import MaskFlag
from repro.tools.datagen import sirius_workload

N = 5000


@pytest.fixture(scope="module")
def body():
    return sirius_workload(N, random.Random(99)).split(b"\n", 1)[1]


@pytest.fixture(scope="module")
def sirius_general():
    return compile_description(gallery.SIRIUS, fastpath=False)


def _consume(description, data, mask=None):
    total = bad = 0
    for _, pd in description.records(data, "entry_t", mask):
        total += 1
        bad += 1 if pd.nerr else 0
    return total, bad


@pytest.mark.benchmark(group="ablation-execution")
def test_general_path_only(benchmark, sirius_general, body):
    total, bad = benchmark(_consume, sirius_general, body)
    assert total == N and bad == 54


@pytest.mark.benchmark(group="ablation-execution")
def test_with_fastpath(benchmark, sirius_interp, body):
    total, bad = benchmark(_consume, sirius_interp, body)
    assert total == N and bad == 54


@pytest.mark.benchmark(group="ablation-masks")
def test_mask_check_and_set(benchmark, sirius_interp, body):
    total, bad = benchmark(_consume, sirius_interp, body, Mask(P_CheckAndSet))
    assert bad == 54


@pytest.mark.benchmark(group="ablation-masks")
def test_mask_syntax_only(benchmark, sirius_interp, body):
    mask = Mask(MaskFlag.SET | MaskFlag.SYN_CHECK)
    total, bad = benchmark(_consume, sirius_interp, body, mask)
    # Without semantic checks the sort violation goes unnoticed.
    assert bad == 53


@pytest.mark.benchmark(group="ablation-masks")
def test_mask_set_only(benchmark, sirius_interp, body):
    total, bad = benchmark(_consume, sirius_interp, body, Mask(P_Set))
    assert total == N
