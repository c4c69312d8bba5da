"""Side-information features extracted from a resolved DNS record.

Geo and ASN lookups run against an offline longest-prefix-match table so
that feature extraction never blocks on external queries.  Country names
are mapped to stable integer codes through a table that is built once
from training data and persisted with the model.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, NamedTuple

from .core import DnsRecord
from .errors import MalformedIpError

#: Published feature names, in schema order.
SIDEINFO_FEATURES: tuple[str, ...] = (
    "rrlength",
    "country",
    "ttl",
    "n_ip",
    "qtype",
    "rtype",
    "n_asn",
    "subnet",
    "n_countries",
)

#: Reserved country values.  "unknown" covers unresolvable locations and
#: "multi-valued" records whose addresses map to several countries.
UNKNOWN = "unknown"
MULTI_VALUED = "multi-valued"

_RDATA_FIXED_OVERHEAD = 6  # per-answer ttl+type+class proxy, in bytes
_SUBNET_PREFIX = {4: 24, 6: 64}  # prefix length of the shared-subnet test, by IP version


@dataclass(frozen=True)
class SideInfoFeatures:
    """The 9 retained side-information features of one record."""

    rrlength: int
    country: int
    ttl: int
    n_ip: int
    qtype: int
    rtype: int
    n_asn: int
    subnet: int
    n_countries: int

    def __post_init__(self):
        if self.rrlength < 0 or self.ttl < 0 or self.country < 0:
            raise ValueError("rrlength, ttl and country code must be non-negative")
        if self.n_ip < 1 or self.n_asn < 1 or self.n_countries < 1:
            raise ValueError("n_ip, n_asn and n_countries must be positive")
        if self.n_countries > self.n_ip or self.n_asn > self.n_ip:
            raise ValueError("distinct country/ASN counts cannot exceed n_ip")
        if self.subnet not in (0, 1):
            raise ValueError("subnet is a 0/1 flag")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in SIDEINFO_FEATURES}


class GeoDb:
    """Offline IP -> (country, ASN) provider with longest-prefix match.

    Backed by a CSV of ``prefix,country,asn`` rows with CIDR prefixes.
    Addresses not covered by any prefix resolve to (None, None).
    """

    def __init__(self, entries: Iterable[tuple[str, str, int]]):
        # {(ip_version, prefixlen): {network_int: (country, asn)}}
        self._tables: dict[tuple[int, int], dict[int, tuple[str, int]]] = {}
        for prefix, country, asn in entries:
            net = ipaddress.ip_network(prefix, strict=False)
            key = (net.version, net.prefixlen)
            self._tables.setdefault(key, {})[int(net.network_address)] = (country, int(asn))
        self._plens = {
            4: sorted((p for v, p in self._tables if v == 4), reverse=True),
            6: sorted((p for v, p in self._tables if v == 6), reverse=True),
        }

    @classmethod
    def from_csv(cls, path) -> "GeoDb":
        with open(path, newline="", encoding="utf-8") as fp:
            return cls._from_rows(csv.reader(fp))

    @classmethod
    def bundled(cls) -> "GeoDb":
        text = resources.files(__package__).joinpath("data/geoip.csv").read_text("utf-8")
        return cls._from_rows(csv.reader(text.splitlines()))

    @classmethod
    def _from_rows(cls, rows) -> "GeoDb":
        entries = []
        for row in rows:
            if not row or row[0].startswith("#"):
                continue
            prefix, country, asn = row[0].strip(), row[1].strip(), int(row[2])
            entries.append((prefix, country, asn))
        return cls(entries)

    def lookup(
        self, ip: str | ipaddress.IPv4Address | ipaddress.IPv6Address
    ) -> tuple[str | None, int | None]:
        """(country, asn) for an address given as text or as a parsed
        ``ipaddress`` address, (None, None) when uncovered."""
        addr = parse_ip(ip) if isinstance(ip, str) else ip
        bits = addr.max_prefixlen
        ip_int = int(addr)
        for plen in self._plens[addr.version]:
            network = (ip_int >> (bits - plen)) << (bits - plen)
            hit = self._tables[(addr.version, plen)].get(network)
            if hit is not None:
                return hit
        return None, None


def parse_ip(ip: str):
    try:
        return ipaddress.ip_address(ip)
    except ValueError as exc:
        raise MalformedIpError(f"cannot parse IP address {ip!r}") from exc


@dataclass(frozen=True)
class CountryCodes:
    """Stable country-name -> integer-code table.

    Codes 0 and 1 are reserved for "unknown" and "multi-valued"; observed
    names follow in sorted order.  Names unseen at build time map to the
    "unknown" code so inference never fails on new geography.
    """

    codes: dict[str, int]

    def code(self, name: str) -> int:
        return self.codes.get(name, self.codes[UNKNOWN])

    def to_dict(self) -> dict[str, int]:
        return dict(self.codes)

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "CountryCodes":
        return cls(codes=dict(d))


def build_country_codes(observed: Iterable[str]) -> CountryCodes:
    """Deterministic code table from observed country names.

    The same set of names yields the same table regardless of input
    order or duplication.
    """
    names = sorted(set(observed) - {UNKNOWN, MULTI_VALUED})
    codes = {UNKNOWN: 0, MULTI_VALUED: 1}
    codes.update({name: i + 2 for i, name in enumerate(names)})
    return CountryCodes(codes=codes)


def observed_countries(records: Iterable[DnsRecord], geo: GeoDb) -> list[str]:
    """Sorted distinct country names seen across the records' addresses."""
    names = set()
    for record in records:
        for ip in record.data:
            country, _ = geo.lookup(ip)
            if country is not None:
                names.add(country)
    return sorted(names)


def _subnet_key(addr) -> tuple[int, int]:
    plen = _SUBNET_PREFIX[addr.version]
    bits = addr.max_prefixlen
    return addr.version, (int(addr) >> (bits - plen)) << (bits - plen)


class AddressFeatures(NamedTuple):
    """The side-information features that depend on a record's answer set
    alone, given the geo and country-code tables."""

    rrlength: int
    country: int
    n_ip: int
    n_asn: int
    subnet: int
    n_countries: int


def address_features(data: tuple[str, ...], geo: GeoDb, countries: CountryCodes) -> AddressFeatures:
    """The answer-set block of :func:`extract_sideinfo` for the addresses
    ``data``, in answer order (order and duplicates count in rrlength).

    country resolution: the shared country's code when every address maps
    to a single known country; "multi-valued" when two or more distinct
    known countries appear; "unknown" otherwise (any unresolvable address
    with at most one known country).

    subnet is 1 iff all addresses share the same /24 (IPv4) or /64 (IPv6)
    network; rrlength is the serialized RData proxy: per answer, 4 or 16
    address bytes plus a fixed 6-byte overhead.
    """
    addrs = [parse_ip(ip) for ip in data]
    distinct = {(a.version, int(a)): a for a in addrs}

    known_countries: set[str] = set()
    known_asns: set[int] = set()
    unknown_country = False
    unknown_asn = False
    for addr in distinct.values():
        country, asn = geo.lookup(addr)
        if country is None:
            unknown_country = True
        else:
            known_countries.add(country)
        if asn is None:
            unknown_asn = True
        else:
            known_asns.add(asn)

    if len(known_countries) >= 2:
        country_value = MULTI_VALUED
    elif unknown_country:
        country_value = UNKNOWN
    else:
        country_value = next(iter(known_countries))

    subnets = {_subnet_key(a) for a in distinct.values()}

    return AddressFeatures(
        rrlength=sum((4 if a.version == 4 else 16) + _RDATA_FIXED_OVERHEAD for a in addrs),
        country=countries.code(country_value),
        n_ip=len(distinct),
        n_asn=len(known_asns) + (1 if unknown_asn else 0),
        subnet=int(len(subnets) == 1),
        n_countries=len(known_countries) + (1 if unknown_country else 0),
    )


def extract_sideinfo(
    record: DnsRecord,
    geo: GeoDb,
    countries: CountryCodes,
    *,
    _addresses: AddressFeatures | None = None,
) -> SideInfoFeatures:
    """Extract the 9 side-information features from one record: the
    answer-set block of :func:`address_features` plus the record's own
    ttl, qtype and rtype.

    ``_addresses`` is that block when the caller already holds it for
    ``record.data`` (a featurizer's memo); it is computed otherwise.
    """
    block = _addresses if _addresses is not None else address_features(record.data, geo, countries)
    return SideInfoFeatures(
        rrlength=block.rrlength,
        country=block.country,
        ttl=record.ttl,
        n_ip=block.n_ip,
        qtype=record.qtype,
        rtype=record.rtype,
        n_asn=block.n_asn,
        subnet=block.subnet,
        n_countries=block.n_countries,
    )
