"""Shared benchmark fixtures: compiled descriptions and synthetic
workloads calibrated to the paper's file statistics.

The paper's benchmark file is 2.2GB / 11.8M records; we default to a
20k-record file (~2MB) so the full harness runs in minutes.  Set
``PADS_BENCH_RECORDS`` to scale up.
"""

import os
import random

import pytest

from repro import gallery
from repro.codegen import compile_generated
from repro.tools.datagen import clf_workload, sirius_workload

N_RECORDS = int(os.environ.get("PADS_BENCH_RECORDS", "20000"))
SELECT_STATE = "LOC_CRTE"


def machine_line() -> str:
    """One line of provenance for committed ``BENCH_*.json`` snapshots.

    Both the pytest-benchmark envelope (via the update hook below) and
    the hand-rolled bench scripts (``bench_batch.py``,
    ``bench_stream.py``, ``bench_durable.py``) embed this same line, so
    every committed artifact answers "measured where?" identically."""
    import platform
    return (f"{platform.python_implementation()} "
            f"{platform.python_version()} on "
            f"{platform.system().lower()}-{platform.machine()} "
            f"({os.cpu_count() or 1} cpu)")


#: What ``check_plan_regression.py`` and a human diff actually read.
_STAT_KEYS = ("min", "max", "mean", "stddev", "median", "rounds",
              "iterations", "ops")


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Compact the committed envelope.

    Stock pytest-benchmark JSON carries a screenful of cpuinfo, the git
    commit block, per-round raw timings and interpreter build strings —
    none of which the regression gate reads, all of which churn on every
    machine.  Keep the stats summary plus one provenance line."""
    output_json["machine_info"] = {"summary": machine_line()}
    output_json.pop("commit_info", None)
    for bench in output_json.get("benchmarks", []):
        stats = bench.get("stats", {})
        bench["stats"] = {k: stats[k] for k in _STAT_KEYS if k in stats}
        bench.pop("options", None)
        bench.pop("extra_info", None)


@pytest.fixture(scope="session")
def sirius_interp():
    return gallery.load_sirius()


@pytest.fixture(scope="session")
def sirius_gen():
    return compile_generated(gallery.SIRIUS)


@pytest.fixture(scope="session")
def clf_interp():
    return gallery.load_clf()


@pytest.fixture(scope="session")
def clf_gen():
    return compile_generated(gallery.CLF)


@pytest.fixture(scope="session")
def sirius_file() -> bytes:
    """A synthetic Sirius summary: the paper's error mix, N_RECORDS orders."""
    return sirius_workload(N_RECORDS, random.Random(20050612))


@pytest.fixture(scope="session")
def sirius_body(sirius_file) -> bytes:
    """The order records without the summary-header line."""
    return sirius_file.split(b"\n", 1)[1]


@pytest.fixture(scope="session")
def sirius_clean(sirius_interp, sirius_body) -> bytes:
    """Vetted data: what the paper pipes into the selection programs."""
    from .baselines import python_vet_sirius
    clean, _ = python_vet_sirius(sirius_body)
    return b"\n".join(clean) + b"\n"


@pytest.fixture(scope="session")
def clf_file() -> bytes:
    return clf_workload(N_RECORDS, random.Random(19971015))
