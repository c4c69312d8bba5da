import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgadetect.core import DnsRecord, FeatureVector, Label, ParsedDomain, SuffixDb, parse_domain
from dgadetect.errors import EmptySldError, InvalidDomainError, NoValidSuffixError
from dgadetect.lexical import extract_lexical


def test_parse_discards_deeper_labels(suffix_db):
    d = parse_domain("www.google.com", suffix_db)
    assert (d.sld, d.tld) == ("google", "com")


def test_parse_lowercases(suffix_db):
    d = parse_domain("GOOGLE.COM", suffix_db)
    assert (d.sld, d.tld) == ("google", "com")


def test_longest_suffix_wins():
    db = SuffixDb(["uk", "co.uk", "com"])
    d = parse_domain("foo.co.uk", db)
    assert (d.sld, d.tld) == ("foo", "co.uk")


def test_no_valid_suffix(suffix_db):
    with pytest.raises(NoValidSuffixError):
        parse_domain("example.notarealsuffix", suffix_db)


def test_empty_sld(suffix_db):
    with pytest.raises(EmptySldError):
        parse_domain("com", suffix_db)
    with pytest.raises(EmptySldError):
        parse_domain("co.uk", suffix_db)


def test_invalid_characters_rejected(suffix_db):
    for bad in ("exa_mple.com", "café.com", "spa ce.com", ""):
        with pytest.raises(InvalidDomainError):
            parse_domain(bad, suffix_db)


@pytest.mark.parametrize("raw", ["a.com\n", "A.COM\n", "a.com.\n"])
def test_trailing_newline_is_an_invalid_character(suffix_db, raw):
    # the character check, not the suffix lookup, refuses the name
    with pytest.raises(InvalidDomainError) as info:
        parse_domain(raw, suffix_db)
    assert type(info.value) is InvalidDomainError


def test_parsed_domain_refuses_a_trailing_newline():
    with pytest.raises(ValueError, match="invalid SLD"):
        ParsedDomain(sld="abc\n", tld="com")
    with pytest.raises(ValueError, match="invalid TLD"):
        ParsedDomain(sld="abc", tld="com\n")


def test_trailing_dot_stripped(suffix_db):
    assert parse_domain("example.com.", suffix_db).fqdn == "example.com"


def test_parse_idempotent(suffix_db):
    rng = random.Random(7)
    tlds = ["com", "net", "co.uk", "biz", "info"]
    for _ in range(200):
        sld = "".join(rng.choice(string.ascii_lowercase + "0123456789") for _ in range(rng.randint(1, 20)))
        tld = rng.choice(tlds)
        d = parse_domain(f"{sld}.{tld}", suffix_db)
        assert (d.sld, d.tld) == (sld, tld)
        again = parse_domain(d.fqdn, suffix_db)
        assert (again.sld, again.tld) == (d.sld, d.tld)


def test_no_character_invention(suffix_db):
    rng = random.Random(13)
    for _ in range(200):
        sld = "".join(rng.choice("abcXYZ0-9") for _ in range(rng.randint(2, 12))).strip("-") or "ab"
        raw = f"sub.{sld}.com".upper()
        try:
            d = parse_domain(raw, suffix_db)
        except InvalidDomainError:
            continue
        assert set(d.fqdn) <= set(raw.lower())


_labels = st.sampled_from(["com", "co", "uk", "www", "-", "a-", "xn--p1ai", "EXAMPLE", "ǰ", "İ", "\u212a", ""])
_names = st.one_of(
    st.text(max_size=30),
    st.lists(_labels | st.text(max_size=4), max_size=4).map(".".join),
    st.builds(str.__add__, st.lists(_labels, max_size=3).map(".".join), st.sampled_from([".", "\n", " ", ".."])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=_names)
def test_parse_domain_raises_only_invalid_domain_errors(suffix_db, name):
    try:
        parsed = parse_domain(name, suffix_db)
    except InvalidDomainError:
        return
    assert parse_domain(parsed.fqdn, suffix_db) == ParsedDomain(parsed.sld, parsed.tld)


def test_dns_record_invariants():
    with pytest.raises(ValueError):
        DnsRecord(name="", ttl=1, qtype=1, rtype=1, rclass=1, data=("1.1.1.1",))
    with pytest.raises(ValueError):
        DnsRecord(name="a.com", ttl=-1, qtype=1, rtype=1, rclass=1, data=("1.1.1.1",))
    with pytest.raises(ValueError):
        DnsRecord(name="a.com", ttl=1, qtype=1, rtype=1, rclass=1, data=())


def test_parsed_domain_validation():
    with pytest.raises(ValueError):
        ParsedDomain(sld="has.dot", tld="com")
    with pytest.raises(ValueError):
        ParsedDomain(sld="", tld="com")
    with pytest.raises(ValueError):
        ParsedDomain(sld="UPPER", tld="com")


def test_label_values():
    assert Label.BENIGN == 0 and Label.DGA == 1
    assert len(Label) == 2


def test_feature_vector_ext_score_bounds(suffix_db):
    lex = extract_lexical(parse_domain("example.com", suffix_db))
    FeatureVector(lexical=lex, ext_score=0.0)
    FeatureVector(lexical=lex, ext_score=1.0)
    with pytest.raises(ValueError):
        FeatureVector(lexical=lex, ext_score=1.5)


def test_suffix_db_ignores_comments(tmp_path):
    p = tmp_path / "suffixes.txt"
    p.write_text("// comment\ncom\n\nnet\n", encoding="utf-8")
    db = SuffixDb.from_file(p)
    assert "com" in db and "net" in db
    assert "// comment" not in db
    assert len(db) == 2
