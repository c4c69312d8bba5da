import ipaddress
import random

import pytest

from dgadetect.core import DnsRecord
from dgadetect.errors import MalformedIpError
from dgadetect.sideinfo import (
    MULTI_VALUED,
    SIDEINFO_FEATURES,
    UNKNOWN,
    CountryCodes,
    GeoDb,
    build_country_codes,
    extract_sideinfo,
    observed_countries,
)

FIXTURE_4 = GeoDb(
    [
        ("1.1.1.0/24", "US", 13335),
        ("2.2.2.0/24", "FR", 3215),
        ("10.0.0.0/8", "DE", 999),
        ("2001:db8::/32", "NL", 7777),
    ]
)


def _record(data, ttl=300, qtype=1, rtype=1):
    return DnsRecord(name="x.com", ttl=ttl, qtype=qtype, rtype=rtype, rclass=1, data=tuple(data))


def _codes():
    return build_country_codes(["US", "FR", "DE", "NL"])


def test_single_ip_forces_counts():
    si = extract_sideinfo(_record(["1.2.3.4"]), FIXTURE_4, _codes())
    assert si.n_ip == 1
    assert si.n_countries == 1
    assert si.n_asn == 1
    assert si.subnet == 1


def test_subnet_24_rule():
    same = extract_sideinfo(_record(["10.0.0.1", "10.0.0.9"]), FIXTURE_4, _codes())
    assert same.subnet == 1
    diff = extract_sideinfo(_record(["10.0.0.1", "10.1.0.1"]), FIXTURE_4, _codes())
    assert diff.subnet == 0


def test_subnet_v6_64_rule():
    same = extract_sideinfo(_record(["2001:db8::1", "2001:db8::2"]), FIXTURE_4, _codes())
    assert same.subnet == 1
    diff = extract_sideinfo(_record(["2001:db8::1", "2001:db8:0:1::1"]), FIXTURE_4, _codes())
    assert diff.subnet == 0


def test_two_country_record():
    codes = _codes()
    si = extract_sideinfo(_record(["1.1.1.1", "2.2.2.2"]), FIXTURE_4, codes)
    assert si.n_countries == 2
    assert si.n_asn == 2
    assert si.country == codes.code(MULTI_VALUED)


def test_unknown_country():
    codes = _codes()
    si = extract_sideinfo(_record(["203.0.113.5"]), FIXTURE_4, codes)
    assert si.country == codes.code(UNKNOWN) == 0
    assert si.n_countries == 1


def test_known_plus_unknown_is_unknown():
    codes = _codes()
    si = extract_sideinfo(_record(["1.1.1.1", "203.0.113.5"]), FIXTURE_4, codes)
    assert si.country == codes.code(UNKNOWN)
    assert si.n_countries == 2  # one known country plus the unknown bucket


def test_single_known_country_code():
    codes = _codes()
    si = extract_sideinfo(_record(["1.1.1.1", "1.1.1.2"]), FIXTURE_4, codes)
    assert si.country == codes.code("US")


def test_rrlength_accounting():
    assert extract_sideinfo(_record(["1.1.1.1"]), FIXTURE_4, _codes()).rrlength == 10
    assert extract_sideinfo(_record(["1.1.1.1", "2.2.2.2"]), FIXTURE_4, _codes()).rrlength == 20
    assert extract_sideinfo(_record(["2001:db8::1"]), FIXTURE_4, _codes()).rrlength == 22


def test_ttl_qtype_rtype_passthrough():
    si = extract_sideinfo(_record(["1.1.1.1"], ttl=1234, qtype=28, rtype=5), FIXTURE_4, _codes())
    assert (si.ttl, si.qtype, si.rtype) == (1234, 28, 5)


def test_malformed_ip():
    with pytest.raises(MalformedIpError):
        extract_sideinfo(_record(["not.an.ip.addr"]), FIXTURE_4, _codes())


def test_counts_invariant_under_permutation_and_duplication():
    rng = random.Random(3)
    ips = ["1.1.1.1", "2.2.2.2", "10.0.0.1", "203.0.113.9"]
    base = extract_sideinfo(_record(ips), FIXTURE_4, _codes())
    for _ in range(20):
        shuffled = ips[:]
        rng.shuffle(shuffled)
        shuffled += [rng.choice(ips)]  # duplicate one
        si = extract_sideinfo(_record(shuffled), FIXTURE_4, _codes())
        assert si.n_ip == base.n_ip == 4
        assert si.n_countries == base.n_countries
        assert si.n_asn == base.n_asn
        assert si.country == base.country
        assert si.subnet == base.subnet


def test_longest_prefix_match(geo):
    # 1.1.1.0/24 (US) overrides the covering 1.0.0.0/8 (AU)
    assert geo.lookup("1.1.1.1") == ("US", 13335)
    assert geo.lookup("1.2.3.4") == ("AU", 13335)
    assert geo.lookup("198.51.100.1") == (None, None)


def test_build_country_codes_reserved_first():
    table = build_country_codes(["US"])
    assert table.codes == {UNKNOWN: 0, MULTI_VALUED: 1, "US": 2}


def test_build_country_codes_order_independent():
    a = build_country_codes(["US", "FR", "DE"])
    b = build_country_codes(["DE", "US", "FR", "US"])
    assert a.codes == b.codes


def test_build_country_codes_max_code():
    names = [f"C{i:03d}" for i in range(184)]
    table = build_country_codes(names)
    assert max(table.codes.values()) == 185


def test_unseen_country_maps_to_unknown():
    table = build_country_codes(["US"])
    assert table.code("ZZ") == table.code(UNKNOWN) == 0


def test_country_codes_roundtrip():
    table = build_country_codes(["US", "FR"])
    assert CountryCodes.from_dict(table.to_dict()).codes == table.codes


def test_observed_countries(geo):
    records = [_record(["1.1.1.1"]), _record(["2.2.2.2", "198.51.100.1"])]
    assert observed_countries(records, geo) == ["FR", "US"]


def test_schema_names():
    si = extract_sideinfo(_record(["1.1.1.1"]), FIXTURE_4, _codes())
    assert list(si.as_dict()) == list(SIDEINFO_FEATURES)
    assert len(SIDEINFO_FEATURES) == 9


def test_geodb_from_csv(tmp_path):
    p = tmp_path / "geo.csv"
    p.write_text("# comment\n9.9.9.0/24,CH,1234\n", encoding="utf-8")
    db = GeoDb.from_csv(p)
    assert db.lookup("9.9.9.9") == ("CH", 1234)
    assert db.lookup("8.8.8.8") == (None, None)


@pytest.mark.parametrize("ip", ["1.1.1.9", "10.200.0.1", "2001:db8::5", "8.8.8.8", "2001:4860::8888"])
def test_lookup_takes_text_or_parsed_addresses(ip):
    assert FIXTURE_4.lookup(ipaddress.ip_address(ip)) == FIXTURE_4.lookup(ip)
