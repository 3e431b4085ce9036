"""Golden digests of the record viewer's output.

The digests pin the rows of every record of the paper's two samples and
of 20 generated records of each gallery description: a change to any
row must be a deliberate fix.
"""

import hashlib
import random

import pytest

from repro import gallery
from repro.tools.datagen import generate_records
from repro.tools.view import render_record, trace_record


_SIRIUS = gallery.SIRIUS_SAMPLE.splitlines(keepends=True)
#: name -> (loader, [(record, record type)])
SAMPLES = {
    "clf-sample": (gallery.load_clf, [
        (line, "entry_t")
        for line in gallery.CLF_SAMPLE.splitlines(keepends=True)]),
    "sirius-sample": (gallery.load_sirius, [(_SIRIUS[0], "summary_header_t")]
                      + [(line, "entry_t") for line in _SIRIUS[1:]]),
}
#: name -> (loader, record type of the 20 generated records)
GENERATED = {
    "clf-gen": (gallery.load_clf, "entry_t"),
    "sirius-gen": (gallery.load_sirius, "entry_t"),
    "calldetail": (gallery.load_call_detail, "call_t"),
    "netflow": (gallery.load_netflow, "nf_packet_t"),
    "regulus": (gallery.load_regulus, "util_t"),
}


def _records(name):
    if name in SAMPLES:
        load, records = SAMPLES[name]
        return load(), records
    load, rtype = GENERATED[name]
    desc = load()
    return desc, [(rec, rtype) for rec in
                  generate_records(desc, rtype, 20, random.Random(7))]


GOLDEN = {
    "clf-sample": "a9d7db81870a7c18c2b7255252f3af52b399222509c066a2e61b2804b3955b7a",
    "sirius-sample": "72d36c66caeaf6f1771a563c31c0b3fbd9fb8908210fc884b9db8dade2311d1a",
    "clf-gen": "cc4f0f406e868dec166ac2a628f9339e83f2247bb8c7cd3467faa94e8dab4167",
    "sirius-gen": "5a75a5f7123458ed38c6ab3416645cad64be8a0ddba0c41fba9801709295f738",
    "calldetail": "1d1c540e886e2901a324b0afd5b5a9708d8d395220d720e25b4fe81db5dd8799",
    "netflow": "d967961ce6f0943ca48f8d100897ac6f320c4c61efe87d53d5662e7a4e23b911",
    "regulus": "8ca0cbb40799d403713acd1aa3b80983bbb913898b6a3a39774b0ef9fababa05",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_view_output_is_unchanged(name):
    desc, records = _records(name)
    views = [render_record(desc, data, rtype) for data, rtype in records]
    digest = hashlib.sha256("\n\x00".join(views).encode()).hexdigest()
    assert digest == GOLDEN[name]


def test_typedef_violation_is_an_error_row(clf):
    # response_t is Puint16_FW(:3:) constrained to 100..599: the field's
    # descriptor holds the violation, so its row is an error row.
    line = gallery.CLF_SAMPLE.splitlines()[0].replace(" 200 ", " 042 ")
    _, pd, rows, _, _ = trace_record(clf, line + "\n", "entry_t")
    assert pd.nerr == 1
    assert [r.path for r in rows if r.kind == "error"] == ["response"]
