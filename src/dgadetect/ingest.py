"""Passive-DNS stream parsing, the record -> feature-vector step shared by
every command, benign-candidate heuristics and the labeled synthetic
dataset generator."""

from __future__ import annotations

import csv
import ipaddress
import json
import random
import re
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Callable, Container, Iterable, Iterator, Sequence

from .core import DnsRecord, FeatureVector, Label, ParsedDomain, SuffixDb, parse_domain
from .errors import (
    InvalidDomainError,
    LabelsFormatError,
    MalformedIpError,
    SchemaMismatchError,
    ScoresFormatError,
)
from .forest import FeatureSet
from .lexical import extract_lexical
from .sideinfo import CountryCodes, GeoDb, extract_sideinfo, parse_ip

_NAME_RE = re.compile(r"^[a-z0-9.\-]+$")

HEURISTIC_RULES: tuple[str, ...] = (
    "valid_chars",
    "valid_suffix",
    "not_all_digits",
    "max_labels",
    "max_length",
    "label_length",
    "label_tld_ratio",
    "label_dominance",
    "no_idn",
    "not_blacklisted",
    "resolution_history",
)


@dataclass(frozen=True)
class HeuristicReport:
    """Per-rule outcome of the benign-candidate filter."""

    valid_chars: bool
    valid_suffix: bool
    not_all_digits: bool
    max_labels: bool
    max_length: bool
    label_length: bool
    label_tld_ratio: bool
    label_dominance: bool
    no_idn: bool
    not_blacklisted: bool
    resolution_history: bool

    @property
    def passed(self) -> bool:
        return all(getattr(self, rule) for rule in HEURISTIC_RULES)

    def failures(self) -> tuple[str, ...]:
        return tuple(rule for rule in HEURISTIC_RULES if not getattr(self, rule))


def benign_filter(
    fqdn: str,
    suffix_db: SuffixDb,
    blacklist: Container[str] = frozenset(),
    *,
    resolution_check: Callable[[str], bool] | None = None,
) -> HeuristicReport:
    """Evaluate the benign-candidate heuristics on one FQDN.

    Returns a report, never raises, and each rule gets an independent
    verdict even when others already failed.  The digits-only rule
    applies to what remains after stripping the public suffix (so
    "12-34.com" fails it); when no suffix matches, the TLD-relative
    rules fall back to the last label as the suffix proxy.  The
    resolution-history rule needs longitudinal traffic; it is a
    pluggable predicate that defaults to pass.
    """
    name = fqdn.strip().lower().rstrip(".")
    labels = name.split(".") if name else [""]
    label_lengths = [len(l) for l in labels]
    longest = max(label_lengths)
    total = sum(label_lengths)

    suffix = suffix_db.longest_match(name) if name else None
    if suffix is not None:
        head = name[: -(len(suffix) + 1)] if len(name) > len(suffix) else ""
    else:
        head = ".".join(labels[:-1])
    head_labels = head.split(".") if head else []
    sld = head_labels[-1] if head_labels else ""
    digit_probe = head.replace(".", "").replace("-", "")
    tld_proxy = suffix if suffix is not None else labels[-1]
    list_key = f"{sld}.{suffix}" if suffix is not None and sld else name

    return HeuristicReport(
        valid_chars=bool(name) and _NAME_RE.match(name) is not None,
        valid_suffix=suffix is not None and bool(sld),
        not_all_digits=not (digit_probe and digit_probe.isdigit()),
        max_labels=len(labels) <= 4,
        max_length=len(name) <= 255,
        label_length=7 <= longest <= 64,
        label_tld_ratio=longest > 2 * len(tld_proxy),
        label_dominance=longest > 0.7 * total,
        no_idn=not any(l.startswith("xn--") for l in labels),
        not_blacklisted=list_key not in blacklist,
        resolution_history=resolution_check(name) if resolution_check else True,
    )


class Blacklist:
    """Known-DGA domain list.  A line may carry a ``,family`` tag after the
    domain; the tag is accepted and ignored."""

    def __init__(self, domains: Iterable[str]):
        self.domains = frozenset(d.strip().lower() for d in domains)

    @classmethod
    def from_file(cls, path) -> "Blacklist":
        with open(path, encoding="utf-8") as fp:
            return cls(cls._parse_lines(fp))

    @classmethod
    def bundled(cls) -> "Blacklist":
        text = resources.files(__package__).joinpath("data/blacklist.txt").read_text("utf-8")
        return cls(cls._parse_lines(text.splitlines()))

    @staticmethod
    def _parse_lines(lines) -> Iterator[str]:
        for line in lines:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line.partition(",")[0]

    def __contains__(self, domain: str) -> bool:
        return domain in self.domains

    def __len__(self) -> int:
        return len(self.domains)


def load_whitelist(path) -> frozenset[str]:
    with open(path, encoding="utf-8") as fp:
        return frozenset(
            line.strip().lower()
            for line in fp
            if line.strip() and not line.startswith("#")
        )


@dataclass
class ParseStats:
    """Counters for one pDNS pass: lines read, records parsed, malformed
    lines skipped, and parsed records whose name has no SLD.TLD."""

    lines: int = 0
    parsed: int = 0
    skipped: int = 0
    unparseable_names: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def _record_from_obj(obj) -> DnsRecord | None:
    if not isinstance(obj, dict):
        return None
    name = obj.get("name")
    ttl = obj.get("ttl")
    rtype = obj.get("type")
    rclass = obj.get("class")
    data = obj.get("data")
    qtype = obj.get("qtype", rtype)
    if not isinstance(name, str) or not name:
        return None
    for v in (ttl, rtype, rclass, qtype):
        if not isinstance(v, int) or isinstance(v, bool):
            return None
    if ttl < 0:
        return None
    if not isinstance(data, list) or not data or not all(isinstance(d, str) for d in data):
        return None
    try:
        for ip in data:
            parse_ip(ip)
    except MalformedIpError:
        return None
    return DnsRecord(name=name, ttl=ttl, qtype=qtype, rtype=rtype, rclass=rclass, data=tuple(data))


_READ_SIZE = 1 << 16  # bytes per read of read_line_chunks


def read_line_chunks(stream) -> Iterator[list[bytes]]:
    """The lines of a binary stream, one list per read of up to 64 KiB.

    Each read is one ``read1``, which returns whatever the stream has
    ready and waits only when it has nothing, so a file yields hundreds
    of lines at a time and a pipe fed line by line yields each line as
    soon as it arrives.  Lines split on ``\\n`` alone, as iterating the
    stream would split them; a line cut by the end of a read is completed
    by the next, and a last line without a newline is still yielded.
    """
    partial = b""
    while chunk := stream.read1(_READ_SIZE):
        *lines, partial = (partial + chunk).split(b"\n")
        if lines:
            yield lines
    if partial:
        yield [partial]


def read_pdns(stream: Iterable[str | bytes], stats: ParseStats | None = None) -> Iterator[DnsRecord]:
    """Stream DnsRecords out of a JSONL source, one object per line.

    Malformed lines (not UTF-8, not JSON or JSON that Python cannot load,
    a missing or mistyped field, an address that is not an IP) are counted in ``stats`` and skipped, never
    fatal.  Order is preserved.  Unreadable streams surface the
    underlying OSError.
    """
    if stats is None:
        stats = ParseStats()
    for line in stream:
        stats.lines += 1
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                stats.skipped += 1
                continue
        line = line.strip()
        if not line:
            stats.skipped += 1
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # bad JSON, an over-long integer, deep nesting
            stats.skipped += 1
            continue
        record = _record_from_obj(obj)
        if record is None:
            stats.skipped += 1
            continue
        stats.parsed += 1
        yield record


def read_domains(
    stream: Iterable[str | bytes], suffixes: SuffixDb, stats: ParseStats
) -> Iterator[tuple[DnsRecord, ParsedDomain]]:
    """:func:`read_pdns` plus each record's SLD.TLD.  Records whose name
    does not parse are counted in ``stats.unparseable_names`` and skipped."""
    for record in read_pdns(stream, stats):
        try:
            parsed = parse_domain(record.name, suffixes)
        except InvalidDomainError:
            stats.unparseable_names += 1
            continue
        yield record, parsed


def record_to_json(record: DnsRecord) -> str:
    """One JSONL line for a record, with a fixed key order."""
    return json.dumps(
        {
            "name": record.name,
            "ttl": record.ttl,
            "type": record.rtype,
            "qtype": record.qtype,
            "class": record.rclass,
            "data": list(record.data),
        },
        separators=(",", ":"),
    )


def write_pdns(records: Iterable[DnsRecord], fp) -> int:
    n = 0
    for record in records:
        fp.write(record_to_json(record) + "\n")
        n += 1
    return n


# The label a provenance implies: blacklisted names are DGA, names kept
# by the benign heuristics are benign.
_IMPLIED_LABEL = {"blacklist": Label.DGA, "heuristics": Label.BENIGN}


@dataclass(frozen=True)
class LabeledExample:
    """A record with its parsed domain, class label and provenance."""

    record: DnsRecord
    parsed: ParsedDomain
    label: Label
    source: str  # blacklist | heuristics | synthetic | unlabeled

    def __post_init__(self):
        if _IMPLIED_LABEL.get(self.source, self.label) is not self.label:
            raise ValueError(f"{self.source} provenance implies label {int(_IMPLIED_LABEL[self.source])}")


# --- synthetic dataset -------------------------------------------------

_BENIGN_TLDS = ("com", "net", "org", "info", "io", "de", "fr", "co.uk")
_DGA_TLDS = ("com", "net", "biz", "info", "eu", "org", "top", "cf")

# Prefix pools refer to the bundled GeoIP fixture so extraction sees
# known geography; "unknown" pools are deliberately uncovered.
_HOME_V4 = ("13.32.0.0/13", "13.104.0.0/14", "17.0.0.0/8", "31.13.64.0/18", "62.210.0.0/16", "85.13.128.0/17")
_HOME_V6 = ("2606:4700::/32", "2a00:1450::/29")
_FOREIGN_V4 = ("95.142.192.0/19", "109.207.0.0/18", "119.28.0.0/15", "180.76.0.0/16", "186.202.0.0/15")
_FOREIGN_V6 = ("240e::/20",)
_UNCOVERED_V4 = ("198.51.100.0/24", "203.0.113.0/24")

_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"
_HEX = "0123456789abcdef"


def _load_wordlist() -> tuple[str, ...]:
    text = resources.files(__package__).joinpath("data/wordlist.txt").read_text("utf-8")
    return tuple(
        w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#")
    )


def _ttl_cycle(i: int, rng: random.Random, median: int, lo: tuple[int, int], hi: tuple[int, int]) -> int:
    # Cycling median/below/above keeps the sample median exactly at
    # ``median`` for every odd sample count.
    phase = i % 3
    if phase == 0:
        return median
    if phase == 1:
        return rng.randint(*lo)
    return rng.randint(*hi)


def _random_ips(rng: random.Random, prefixes: Sequence[str], n: int) -> list[str]:
    ips: list[str] = []
    seen = set()
    while len(ips) < n:
        net = ipaddress.ip_network(rng.choice(prefixes))
        addr = str(net[rng.randrange(net.num_addresses)])
        if addr not in seen:
            seen.add(addr)
            ips.append(addr)
    return ips


def _pick_pools(rng: random.Random, weights: tuple[float, float, float]) -> tuple[Sequence[str], Sequence[str] | None]:
    """(v4 pools, v6 pools) for one record: home / foreign / uncovered."""
    r = rng.random()
    if r < weights[0]:
        return _HOME_V4, _HOME_V6
    if r < weights[0] + weights[1]:
        return _FOREIGN_V4, _FOREIGN_V6
    return _UNCOVERED_V4, None


def _synth_record(
    rng: random.Random,
    i: int,
    fqdn: str,
    *,
    ttl_median: int,
    ttl_lo: tuple[int, int],
    ttl_hi: tuple[int, int],
    pool_weights: tuple[float, float, float],
    n_ip_weights: Sequence[float],
    v6_rate: float,
) -> DnsRecord:
    v4_pools, v6_pools = _pick_pools(rng, pool_weights)
    use_v6 = v6_pools is not None and rng.random() < v6_rate
    pools = v6_pools if use_v6 else v4_pools
    n_ip = rng.choices(range(1, len(n_ip_weights) + 1), weights=n_ip_weights, k=1)[0]
    if n_ip >= 2 and rng.random() < 0.3 and len(pools) >= 2:
        pools = rng.sample(list(pools), 2)
    else:
        pools = [rng.choice(pools)]
    rrtype = 28 if use_v6 else 1
    return DnsRecord(
        name=fqdn,
        ttl=_ttl_cycle(i, rng, ttl_median, ttl_lo, ttl_hi),
        qtype=rrtype,
        rtype=rrtype,
        rclass=1,
        data=tuple(_random_ips(rng, pools, n_ip)),
    )


def synth_dataset(
    n_benign: int,
    n_dga: int,
    seed: int,
    *,
    suffixes: SuffixDb | None = None,
    blacklist: Container[str] = frozenset(),
) -> list[LabeledExample]:
    """Deterministic labeled dataset: wordlist-composed benign domains and
    uniform-random DGA domains, with side-information fields shaped so the
    benign/DGA TTL medians are exactly 3600 s and 900 s.

    Every benign domain passes :func:`benign_filter` against the given
    blacklist.  Identical arguments produce identical output.
    """
    if n_benign <= 0 or n_dga <= 0:
        raise ValueError("both class counts must be positive")
    suffixes = suffixes or SuffixDb.bundled()
    words = _load_wordlist()
    rng = random.Random(seed)
    examples: list[LabeledExample] = []

    for i in range(n_benign):
        # hash-style names (CDN-asset-like) confine themselves to home
        # infrastructure and long-lived TTL phases, mirroring how such
        # hosts are provisioned in real traffic
        hash_style = i % 3 != 1 and rng.random() < 0.12
        while True:
            if hash_style:
                sld = "".join(rng.choice(_HEX) for _ in range(rng.randint(10, 16)))
            else:
                sld = rng.choice(words) + rng.choice(words)
                if rng.random() < 0.2:
                    sld += str(rng.randint(10, 99))
            tld = rng.choice(_BENIGN_TLDS)
            fqdn = f"{sld}.{tld}"
            if benign_filter(fqdn, suffixes, blacklist).passed:
                break
        record = _synth_record(
            rng,
            i,
            fqdn,
            ttl_median=3600,
            ttl_lo=(60, 3599),
            ttl_hi=(3601, 604800),
            pool_weights=(1.0, 0.0, 0.0) if hash_style else (0.86, 0.12, 0.02),
            n_ip_weights=(0.4, 0.3, 0.2, 0.1),
            v6_rate=0.15,
        )
        examples.append(
            LabeledExample(record=record, parsed=ParsedDomain(sld, tld, fqdn), label=Label.BENIGN, source="synthetic")
        )

    for i in range(n_dga):
        sld = "".join(rng.choice(_ALNUM) for _ in range(rng.randint(12, 30)))
        tld = rng.choice(_DGA_TLDS)
        fqdn = f"{sld}.{tld}"
        record = _synth_record(
            rng,
            i,
            fqdn,
            ttl_median=900,
            ttl_lo=(30, 899),
            ttl_hi=(901, 3600),
            pool_weights=(0.10, 0.75, 0.15),
            n_ip_weights=(0.85, 0.12, 0.03),
            v6_rate=0.03,
        )
        examples.append(
            LabeledExample(record=record, parsed=ParsedDomain(sld, tld, fqdn), label=Label.DGA, source="synthetic")
        )

    return examples


# --- feature assembly ---------------------------------------------------


def record_vectorizer(
    feature_set: FeatureSet,
    geo: GeoDb | None,
    codes: CountryCodes | None,
    ext_scores: dict[str, float] | None = None,
) -> Callable[..., FeatureVector]:
    """The record -> feature-vector step behind every command.

    Returns ``build(record, parsed, label=None)``, whose vector carries the
    lexical block, the side-information block and the external score
    when ``feature_set`` names them.  Raises SchemaMismatchError up front
    when a dns feature set has no country-code table or an ext-score set
    has no scores, and per row when a domain has no external score: the
    hybrid schema has no imputation for missing upstream scores.
    """
    if feature_set.dns and codes is None:
        raise SchemaMismatchError(
            "the dns block needs a country-code table (a dns model saved without one cannot be scored)"
        )
    if feature_set.ext and ext_scores is None:
        raise SchemaMismatchError("the ext-score block needs external scores (--scores)")

    def build(record: DnsRecord, parsed: ParsedDomain, label: Label | None = None) -> FeatureVector:
        ext = None
        if feature_set.ext:
            try:
                ext = ext_scores[parsed.fqdn]
            except KeyError:
                raise SchemaMismatchError(f"no external score for {parsed.fqdn}") from None
        return FeatureVector(
            lexical=extract_lexical(parsed) if feature_set.lexical else None,
            sideinfo=extract_sideinfo(record, geo, codes) if feature_set.dns else None,
            ext_score=ext,
            label=label,
        )

    return build


# --- CSV plumbing --------------------------------------------------------


def write_labels_csv(examples: Iterable[LabeledExample], fp) -> None:
    writer = csv.writer(fp)
    writer.writerow(["domain", "label", "source"])
    for ex in examples:
        writer.writerow([ex.parsed.fqdn, int(ex.label), ex.source])


def load_labeled_rows(fp) -> dict[str, tuple[Label, str]]:
    """domain -> (label, provenance); provenance defaults to "unlabeled"
    when the CSV lacks a source column.  Raises LabelsFormatError naming
    the row when a row has no label, one that is not 0 or 1, or one its
    provenance contradicts."""
    rows: dict[str, tuple[Label, str]] = {}
    for n, row in enumerate(csv.reader(fp), start=1):
        if not row or row[0] == "domain":
            continue
        where = f"{getattr(fp, 'name', 'labels')} row {n}: {','.join(row)!r}"
        try:
            label = Label(int(row[1]))
        except (IndexError, ValueError):
            raise LabelsFormatError(f"{where} has no label 0 or 1") from None
        source = row[2].strip() if len(row) > 2 and row[2].strip() else "unlabeled"
        if _IMPLIED_LABEL.get(source, label) is not label:
            raise LabelsFormatError(f"{where}: {source} provenance implies label {int(_IMPLIED_LABEL[source])}")
        rows[row[0].strip().lower()] = (label, source)
    return rows


def load_scores_csv(fp) -> dict[str, float]:
    """domain -> external score.  Raises ScoresFormatError naming the row
    when a row has no score or one outside [0, 1] (NaN and inf included)."""
    scores: dict[str, float] = {}
    for n, row in enumerate(csv.reader(fp), start=1):
        if not row or row[0] == "domain":
            continue
        try:
            score = float(row[1])
        except (IndexError, ValueError):
            score = None
        if score is None or not 0.0 <= score <= 1.0:
            raise ScoresFormatError(
                f"{getattr(fp, 'name', 'scores')} row {n}: {','.join(row)!r} has no score in [0, 1]"
            )
        scores[row[0].strip().lower()] = score
    return scores
