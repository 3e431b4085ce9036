"""Tests for data generation and error injection (paper Section 9)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_description, gallery
from repro.tools.datagen import (
    ErrorInjector,
    call_detail_workload,
    clf_workload,
    duplicate_field_separator,
    garble_byte,
    generate_records,
    generate_source,
    sirius_workload,
    truncate_record,
)


class TestGenericGeneration:
    DESC = """
      Penum kind_t { A, B, C };
      Precord Pstruct row_t {
        kind_t kind; '|';
        Puint16 n : n < 1000; '|';
        Popt Pzip zip; '|';
        Pstring(:';':) label; ';';
      };
    """

    def test_generated_records_parse_cleanly(self, rng):
        d = compile_description(self.DESC)
        for record in generate_records(d, "row_t", 50, rng):
            _, pd = d.parse(record, "row_t")
            assert pd.nerr == 0, record

    def test_generation_is_deterministic_under_seed(self):
        d = compile_description(self.DESC)
        a = list(generate_records(d, "row_t", 10, random.Random(5)))
        b = list(generate_records(d, "row_t", 10, random.Random(5)))
        assert a == b

    def test_generate_source_concatenates(self, rng):
        d = compile_description(self.DESC)
        data = generate_source(d, "row_t", 20, rng)
        assert data.count(b"\n") == 20
        out = list(d.records(data, "row_t"))
        assert len(out) == 20

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_generated_data_is_clean(self, seed):
        d = compile_description(self.DESC)
        data = generate_source(d, "row_t", 5, random.Random(seed))
        assert all(pd.nerr == 0 for _, pd in d.records(data, "row_t"))


class TestErrorInjection:
    def test_rate_zero_never_corrupts(self, rng):
        inj = ErrorInjector(0.0)
        record = b"hello world|123\n"
        assert all(inj.maybe_corrupt(record, rng) == record for _ in range(100))
        assert inj.injected == 0

    def test_rate_one_always_corrupts(self, rng):
        inj = ErrorInjector(1.0)
        record = b"hello world|123\n"
        outs = [inj.maybe_corrupt(record, rng) for _ in range(50)]
        assert inj.injected == 50
        assert any(o != record for o in outs)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ErrorInjector(1.5)

    def test_mutators_preserve_record_terminator(self, rng):
        record = b"abc|def|123\n"
        for mut in (truncate_record, garble_byte, duplicate_field_separator):
            out = mut(record, rng)
            assert out.endswith(b"\n")

    def test_injected_errors_detected(self, rng):
        d = compile_description(TestGenericGeneration.DESC)
        inj = ErrorInjector(0.5, mutators=[garble_byte])
        data = generate_source(d, "row_t", 200, rng, inj)
        bad = sum(1 for _, pd in d.records(data, "row_t") if pd.nerr)
        assert inj.injected > 50
        # Most (not necessarily all) corruptions are detectable.
        assert bad >= inj.injected * 0.5


class TestClfWorkload:
    def test_parses_with_expected_bad_rate(self, clf, rng):
        data = clf_workload(2000, rng)
        results = list(clf.records(data, "entry_t"))
        assert len(results) == 2000
        bad = sum(1 for _, pd in results if pd.nerr)
        assert 0.04 < bad / 2000 < 0.10

    def test_dash_rate_zero_is_clean(self, clf, rng):
        data = clf_workload(300, rng, dash_rate=0.0)
        assert all(pd.nerr == 0 for _, pd in clf.records(data, "entry_t"))

    def test_contains_both_client_kinds(self, clf, rng):
        data = clf_workload(500, rng, dash_rate=0.0)
        tags = {rep.client.tag for rep, _ in clf.records(data, "entry_t")}
        assert tags == {"ip", "host"}


class TestSiriusWorkload:
    def test_error_calibration(self, sirius, rng):
        data = sirius_workload(1000, rng)
        body = data.split(b"\n", 1)[1]
        results = list(sirius.records(body, "entry_t"))
        assert len(results) == 1000
        bad = sum(1 for _, pd in results if pd.nerr)
        assert bad == 54  # 53 syntax + 1 sort violation (the paper's file)

    def test_header_line(self, sirius, rng):
        data = sirius_workload(10, rng, syntax_errors=0, sort_violations=0)
        rep, pd = sirius.parse(data)
        assert pd.nerr == 0
        assert rep.h.tstamp == 1_005_022_800

    def test_event_statistics_shape(self, sirius, rng):
        """Events per order: min 1, avg ~5.5, max clamped (paper Sec. 7)."""
        data = sirius_workload(3000, rng, syntax_errors=0, sort_violations=0)
        body = data.split(b"\n", 1)[1]
        lengths = [len(rep.events) for rep, _ in sirius.records(body, "entry_t")]
        assert min(lengths) >= 1
        assert 3.5 < sum(lengths) / len(lengths) < 7.5
        assert max(lengths) <= 156

    def test_small_files_clip_error_counts(self, sirius, rng):
        data = sirius_workload(50, rng)
        body = data.split(b"\n", 1)[1]
        bad = sum(1 for _, pd in sirius.records(body, "entry_t") if pd.nerr)
        assert bad <= 10  # errors never dominate small files


class TestBinaryWorkload:
    def test_call_detail_parses(self, call_detail, rng):
        data = call_detail_workload(500, rng)
        rep, pd = call_detail.parse(data, "calls_t")
        assert len(rep) == 500 and pd.nerr == 0

    def test_connect_times_monotonic(self, call_detail, rng):
        data = call_detail_workload(100, rng)
        rep, _ = call_detail.parse(data, "calls_t")
        times = [c.connect_time for c in rep]
        assert times == sorted(times)


# -- the regex sampler ---------------------------------------------------------

#: The patterns the test descriptions use (``Pre``, ``Pstring_ME``,
#: ``Pstring_SE``), and ``resolve_base_type``'s.
DESCRIPTION_PATTERNS = ["[a-z]+", "[A-Z]+", "x*", "a*b", "[0-9]+", "a+"]

_ATOMS = st.sampled_from([
    "a", "Z", "7", r"\.", r"\d", r"\w", r"\s", r"\W", ".", "[a-f]", "[^,|]",
    "[0-9A-F]", r"[\d_]", "(ab|cd)", "(?:x|yz)",
])
_QUANTIFIERS = st.sampled_from(["", "?", "*", "+", "{2}", "{1,3}", "{2,}",
                                "*?"])
_PATTERNS = st.lists(st.tuples(_ATOMS, _QUANTIFIERS), min_size=1,
                     max_size=5).map(lambda parts: "".join(
                         atom + q for atom, q in parts))


@settings(max_examples=150, deadline=None)
@given(pattern=st.sampled_from(DESCRIPTION_PATTERNS) | _PATTERNS,
       seed=st.integers(0, 2**32 - 1))
def test_every_regex_sample_fullmatches(pattern, seed):
    import re
    from repro.util.regexgen import sample_regex
    sample = sample_regex(pattern, random.Random(seed))
    assert re.fullmatch(pattern, sample), (pattern, sample)
