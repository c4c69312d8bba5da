import io
import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadetect.core import DnsRecord, Label, ParsedDomain
from dgadetect.errors import SchemaMismatchError
from dgadetect.forest import FeatureSet
from dgadetect.ingest import (
    HEURISTIC_RULES,
    Blacklist,
    LabeledExample,
    ParseStats,
    benign_filter,
    load_labeled_rows,
    load_scores_csv,
    read_domains,
    read_line_chunks,
    read_pdns,
    record_to_json,
    record_vectorizer,
    synth_dataset,
    write_labels_csv,
    write_pdns,
)
from dgadetect.sideinfo import build_country_codes, observed_countries


# --- benign filter -------------------------------------------------------


def test_too_many_labels(suffix_db):
    report = benign_filter("a.b.c.d.e.com", suffix_db)
    assert not report.max_labels
    assert not report.passed


def test_all_digits_after_separator_removal(suffix_db):
    report = benign_filter("12-34.com", suffix_db)
    assert not report.not_all_digits
    assert not report.passed


def test_examples_com_passes(suffix_db):
    report = benign_filter("examples.com", suffix_db)
    assert report.passed, report.failures()


def test_rule_count_is_eleven():
    assert len(HEURISTIC_RULES) == 11


def test_invalid_chars(suffix_db):
    assert not benign_filter("exa_mple.com", suffix_db).valid_chars


def test_no_valid_suffix(suffix_db):
    assert not benign_filter("welcomehome.nosuchsuffix", suffix_db).valid_suffix


def test_label_length_bounds(suffix_db):
    assert not benign_filter("short.com", suffix_db).label_length  # longest label 5 < 7
    assert benign_filter("longenough.com", suffix_db).label_length
    assert not benign_filter("a" * 65 + ".com", suffix_db).label_length


def test_label_tld_ratio(suffix_db):
    # longest label must exceed twice the TLD length
    assert not benign_filter("sevench.museum", suffix_db).label_tld_ratio  # 7 <= 12
    assert benign_filter("thirteenchars.museum", suffix_db).label_tld_ratio


def test_label_dominance(suffix_db):
    # longest label must exceed 70% of the combined label lengths
    assert not benign_filter("abcdefgh.abcdefgh.com", suffix_db).label_dominance
    assert benign_filter("muchlongerlabel.a.com", suffix_db).label_dominance


def test_idn_rejected(suffix_db):
    assert not benign_filter("xn--bcher-kva.com", suffix_db).no_idn


def test_blacklist_rule(suffix_db):
    report = benign_filter("evildomain.com", suffix_db, {"evildomain.com"})
    assert not report.not_blacklisted
    assert benign_filter("evildomain.com", suffix_db, set()).not_blacklisted


def test_resolution_history_pluggable(suffix_db):
    assert benign_filter("examples.com", suffix_db).resolution_history
    report = benign_filter("examples.com", suffix_db, resolution_check=lambda d: False)
    assert not report.resolution_history
    assert not report.passed


def test_filter_lowercases(suffix_db):
    assert benign_filter("EXAMPLES.COM", suffix_db).passed


def test_filter_rejects_bundled_blacklist(suffix_db):
    bl = Blacklist.bundled()
    assert len(bl) >= 10
    for domain in bl.domains:
        assert not benign_filter(domain, suffix_db, bl).passed


# --- blacklist -----------------------------------------------------------


def test_blacklist_accepts_family_tags(tmp_path):
    p = tmp_path / "bl.txt"
    p.write_text(
        "# comment\nRandomXYZ.com,necurs\nwordyword.net,suppobox\nplainentry.org\n",
        encoding="utf-8",
    )
    bl = Blacklist.from_file(p)
    assert bl.domains == {"randomxyz.com", "wordyword.net", "plainentry.org"}
    assert "randomxyz.com" in bl and len(bl) == 3


# --- pdns stream ---------------------------------------------------------


def test_read_pdns_basic():
    line = '{"name":"x.com","ttl":300,"type":1,"class":1,"data":["1.2.3.4"]}'
    stats = ParseStats()
    records = list(read_pdns([line], stats))
    assert len(records) == 1
    r = records[0]
    assert r.name == "x.com" and r.ttl == 300 and r.qtype == 1 and r.rtype == 1
    assert r.data == ("1.2.3.4",)
    assert stats.parsed == 1 and stats.skipped == 0


def test_read_pdns_skips_and_counts():
    lines = [
        "",
        "not json",
        '{"name":"x.com","ttl":300,"type":1,"class":1}',
        '{"name":"ok.com","ttl":60,"type":1,"class":1,"data":["1.1.1.1"]}',
        '{"name":"","ttl":60,"type":1,"class":1,"data":["1.1.1.1"]}',
        '{"name":"neg.com","ttl":-5,"type":1,"class":1,"data":["1.1.1.1"]}',
    ]
    stats = ParseStats()
    records = list(read_pdns(lines, stats))
    assert [r.name for r in records] == ["ok.com"]
    assert stats.lines == 6
    assert stats.parsed == 1
    assert stats.skipped == 5


def test_read_pdns_accepts_bytes():
    raw = b'{"name":"x.com","ttl":1,"type":1,"class":1,"data":["1.1.1.1"]}'
    assert len(list(read_pdns([raw]))) == 1


def test_read_pdns_skips_undecodable_and_bad_ips():
    lines = [
        b"\xff\xfe\n",
        b'{"name":"a.com","ttl":1,"type":1,"class":1,"data":["999.1.1.1"]}\n',
        b'{"name":"b.com","ttl":1,"type":1,"class":1,"data":["1.1.1.1","not-an-ip"]}\n',
        b'{"name":"c.com","ttl":1,"type":28,"class":1,"data":["2001:db8::1"]}\n',
    ]
    stats = ParseStats()
    assert [r.name for r in read_pdns(lines, stats)] == ["c.com"]
    assert (stats.lines, stats.parsed, stats.skipped) == (4, 1, 3)


def test_read_pdns_skips_lines_json_cannot_load():
    ok = '{"name":"%s","ttl":1,"type":1,"class":1,"data":["1.1.1.1"]}'
    lines = [
        ok % "a.com",
        '{"name":"huge.com","ttl":' + "9" * 5000 + ',"type":1,"class":1,"data":["1.1.1.1"]}',
        "[" * 100_000 + "]" * 100_000,
        ok % "b.com",
    ]
    stats = ParseStats()
    assert [r.name for r in read_pdns(lines, stats)] == ["a.com", "b.com"]
    assert (stats.lines, stats.parsed, stats.skipped) == (4, 2, 2)


def test_read_domains_counts_unparseable_names(suffix_db):
    lines = [
        '{"name":"www.Example.com","ttl":1,"type":1,"class":1,"data":["1.1.1.1"]}',
        '{"name":"com","ttl":1,"type":1,"class":1,"data":["1.1.1.1"]}',
        '{"name":"bad_name.com","ttl":1,"type":1,"class":1,"data":["1.1.1.1"]}',
        "not json",
    ]
    stats = ParseStats()
    pairs = list(read_domains(lines, suffix_db, stats))
    assert [(r.name, p.fqdn) for r, p in pairs] == [("www.Example.com", "example.com")]
    assert stats.as_dict() == {"lines": 4, "parsed": 3, "skipped": 1, "unparseable_names": 2}


# --- the counted-skip boundary, fuzzed --------------------------------------

_HUGE = "\x00huge"  # stands for an integer of more digits than json.loads converts
_odd = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8), st.just(_HUGE),
    st.lists(st.integers(), max_size=2),
)
_addresses = st.one_of(
    st.sampled_from(["1.2.3.4", "2001:db8::1", "fe80::1%eth0"]),
    st.sampled_from(["999.1.1.1", "", "1.2.3.4 "]) | st.text(max_size=12),
)
_records = st.builds(
    # a well-formed record, then up to two fields replaced by odd values
    lambda record, odd: record | odd,
    st.fixed_dictionaries({
        "name": st.sampled_from(["example.com", "www.Example.co.uk", "bücher.de", "例え.jp", "com"]),
        "ttl": st.integers(0, 3600),
        "type": st.sampled_from([1, 28]),
        "class": st.just(1),
        "data": st.lists(_addresses, min_size=1, max_size=2),
    }),
    st.just({}) | st.dictionaries(st.sampled_from(["name", "ttl", "type", "class", "qtype", "data"]),
                                  _odd, max_size=2),
)


def _json_line(obj, as_bytes: bool):
    line = json.dumps(obj, ensure_ascii=False).replace(json.dumps(_HUGE), "9" * 5000)
    return line.encode("utf-8") if as_bytes else line


_lines = st.one_of(
    st.builds(_json_line, _records, st.booleans()),
    st.binary(max_size=24),
    st.text(max_size=24),
    st.sampled_from([3, 100_000]).map(lambda depth: "[" * depth + "]" * depth),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(lines=st.lists(_lines, max_size=8))
def test_read_domains_never_raises_and_counts_every_line(suffix_db, lines):
    stats = ParseStats()
    pairs = list(read_domains(lines, suffix_db, stats))
    assert stats.lines == len(lines) == stats.parsed + stats.skipped
    assert len(pairs) == stats.parsed - stats.unparseable_names


class _Reads:
    """A binary stream whose ``read1`` returns at most ``step`` bytes."""

    def __init__(self, data: bytes, step: int):
        self.data, self.step, self.pos = data, step, 0

    def read1(self, size: int) -> bytes:
        piece = self.data[self.pos:self.pos + min(size, self.step)]
        self.pos += len(piece)
        return piece


@pytest.mark.parametrize("data", [b"", b"\n", b"a\n", b"a\nbb\n\nccc", b"x\r\ny\rz\n\n"])
def test_read_line_chunks_splits_like_iterating_the_stream(data):
    want = [line[:-1] if line.endswith(b"\n") else line for line in io.BytesIO(data)]
    for step in (1, 2, 3, 7, 1 << 20):
        chunks = list(read_line_chunks(_Reads(data, step)))
        assert all(chunks)
        assert [line for chunk in chunks for line in chunk] == want


def test_pdns_roundtrip_exact():
    records = [
        DnsRecord(name="a.com", ttl=300, qtype=1, rtype=1, rclass=1, data=("1.2.3.4",)),
        DnsRecord(name="b.net", ttl=60, qtype=28, rtype=28, rclass=1, data=("2001:db8::1", "2001:db8::2")),
    ]
    buf = io.StringIO()
    write_pdns(records, buf)
    parsed = list(read_pdns(io.StringIO(buf.getvalue())))
    assert parsed == records
    # byte-exactness: re-serializing reproduces the stream
    buf2 = io.StringIO()
    write_pdns(parsed, buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_record_json_preserves_distinct_qtype():
    r = DnsRecord(name="c.org", ttl=10, qtype=255, rtype=1, rclass=1, data=("9.9.9.9",))
    restored = next(read_pdns([record_to_json(r)]))
    assert restored == r


# --- labeled examples ----------------------------------------------------


def test_labeled_example_consistency():
    rec = DnsRecord(name="x.com", ttl=1, qtype=1, rtype=1, rclass=1, data=("1.1.1.1",))
    parsed = ParsedDomain("x", "com")
    with pytest.raises(ValueError):
        LabeledExample(record=rec, parsed=parsed, label=Label.BENIGN, source="blacklist")
    with pytest.raises(ValueError):
        LabeledExample(record=rec, parsed=parsed, label=Label.DGA, source="heuristics")
    LabeledExample(record=rec, parsed=parsed, label=Label.DGA, source="blacklist")


# --- synthetic dataset ---------------------------------------------------


def test_synth_deterministic():
    a = synth_dataset(40, 40, seed=7)
    b = synth_dataset(40, 40, seed=7)
    assert a == b
    c = synth_dataset(40, 40, seed=8)
    assert a != c


def test_synth_label_balance():
    examples = synth_dataset(31, 17, seed=1)
    assert sum(1 for e in examples if e.label is Label.BENIGN) == 31
    assert sum(1 for e in examples if e.label is Label.DGA) == 17


def test_synth_benign_pass_filter(suffix_db):
    for ex in synth_dataset(60, 5, seed=3):
        if ex.label is Label.BENIGN:
            assert benign_filter(ex.record.name, suffix_db).passed


def test_synth_ttl_medians_odd_counts():
    examples = synth_dataset(101, 101, seed=5)
    benign = [e.record.ttl for e in examples if e.label is Label.BENIGN]
    dga = [e.record.ttl for e in examples if e.label is Label.DGA]
    assert statistics.median(benign) == 3600
    assert statistics.median(dga) == 900


def test_synth_dga_median_large_sample():
    examples = synth_dataset(1, 1001, seed=2)
    dga = [e.record.ttl for e in examples if e.label is Label.DGA]
    assert statistics.median(dga) == 900


def test_synth_pools_align_with_bundled_geoip(geo):
    # every generated address must resolve unless drawn from the
    # deliberately uncovered pools
    from dgadetect.ingest import _FOREIGN_V4, _FOREIGN_V6, _HOME_V4, _HOME_V6

    import ipaddress

    for prefix in _HOME_V4 + _FOREIGN_V4 + _HOME_V6 + _FOREIGN_V6:
        probe = str(ipaddress.ip_network(prefix)[1])
        country, asn = geo.lookup(probe)
        assert country is not None, prefix


def test_synth_rejects_bad_counts():
    with pytest.raises(ValueError):
        synth_dataset(0, 5, seed=1)


# --- record_vectorizer / csv ---------------------------------------------


def test_vectorize_blocks_and_labels(geo):
    examples = synth_dataset(9, 9, seed=13)
    codes = build_country_codes(observed_countries((e.record for e in examples), geo))
    build = record_vectorizer(FeatureSet.parse("dns+lexical"), geo, codes)
    vectors = [build(e.record, e.parsed, e.label) for e in examples]
    assert len(vectors) == 18
    assert all(v.sideinfo is not None for v in vectors)
    assert [int(v.label) for v in vectors] == [int(e.label) for e in examples]


def test_record_vectorizer_blocks_follow_feature_set(geo):
    ex = synth_dataset(1, 1, seed=13)[0]
    codes = build_country_codes([])
    lexical = record_vectorizer(FeatureSet.parse("lexical"), None, None)(ex.record, ex.parsed)
    assert lexical.sideinfo is None and lexical.ext_score is None and lexical.label is None
    build = record_vectorizer(FeatureSet.parse("dns+lexical"), geo, codes)
    both = build(ex.record, ex.parsed, ex.label)
    assert both.sideinfo is not None and both.label is ex.label


def test_record_vectorizer_refuses_missing_tables(geo):
    with pytest.raises(SchemaMismatchError):
        record_vectorizer(FeatureSet.parse("dns"), geo, None)
    with pytest.raises(SchemaMismatchError):
        record_vectorizer(FeatureSet.parse("lexical+ext-score"), None, None)


def test_vectorize_ext_scores_strict(geo):
    examples = synth_dataset(3, 3, seed=13)
    codes = build_country_codes([])
    scores = {e.parsed.fqdn: 0.5 for e in examples}
    hybrid = FeatureSet.parse("dns+lexical+ext-score")
    build = record_vectorizer(hybrid, geo, codes, scores)
    assert all(build(e.record, e.parsed).ext_score == 0.5 for e in examples)
    scores.popitem()
    with pytest.raises(SchemaMismatchError):
        [build(e.record, e.parsed) for e in examples]


def test_labels_csv_roundtrip(geo, tmp_path):
    examples = synth_dataset(5, 5, seed=21)
    p = tmp_path / "labels.csv"
    with open(p, "w", newline="") as fp:
        write_labels_csv(examples, fp)
    with open(p) as fp:
        rows = load_labeled_rows(fp)
    assert rows == {e.parsed.fqdn: (e.label, e.source) for e in examples}


def test_scores_csv(tmp_path):
    p = tmp_path / "scores.csv"
    p.write_text("domain,score\nexample.com,0.25\nother.net,0.75\n")
    with open(p) as fp:
        scores = load_scores_csv(fp)
    assert scores == {"example.com": 0.25, "other.net": 0.75}
