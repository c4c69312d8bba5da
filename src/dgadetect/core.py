"""Shared domain types, validation, and SLD/TLD decomposition.

Every other module builds on the types here.  All types are immutable
after construction and all functions are pure, so unrestricted concurrent
use is safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from typing import TYPE_CHECKING, Iterable

from .errors import (
    EmptySldError,
    InvalidDomainError,
    NoValidSuffixError,
)

if TYPE_CHECKING:
    from .lexical import LexicalFeatures
    from .sideinfo import SideInfoFeatures

# Valid DNS character set, applied after lowercasing.  Anything else is a
# validation error rather than silently stripped.
_DOMAIN_RE = re.compile(r"^[a-z0-9.\-]+$")
_SLD_RE = re.compile(r"^[a-z0-9\-]+$")


class Label(IntEnum):
    """Binary class label: benign traffic vs. DGA-generated."""

    BENIGN = 0
    DGA = 1


@dataclass(frozen=True)
class DnsRecord:
    """One resolved passive-DNS response.

    ``data`` holds the resolved addresses (IPv4 or IPv6, as strings) in
    response order; ``qtype``/``rtype``/``rclass`` are the raw integer
    codes from the wire (A=1, AAAA=28, IN=1, ...).
    """

    name: str
    ttl: int
    qtype: int
    rtype: int
    rclass: int
    data: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        if not self.name:
            raise ValueError("record name must be non-empty")
        if self.ttl < 0:
            raise ValueError("ttl must be non-negative")
        if not self.data:
            raise ValueError("a resolved record must carry at least one address")


@dataclass(frozen=True)
class ParsedDomain:
    """Validated, lowercased SLD + TLD decomposition of a domain name.

    ``tld`` is the longest matching public suffix and may itself contain
    dots ("co.uk").  ``original`` preserves the raw input string.
    Constructing the type directly trusts the caller that ``tld`` is a
    real public suffix; use :func:`parse_domain` to enforce that.
    """

    sld: str
    tld: str
    original: str = ""

    def __post_init__(self):
        if not self.sld or not _SLD_RE.match(self.sld):
            raise ValueError(f"invalid SLD: {self.sld!r}")
        if not self.tld or not _DOMAIN_RE.match(self.tld):
            raise ValueError(f"invalid TLD: {self.tld!r}")
        if not self.original:
            object.__setattr__(self, "original", self.fqdn)

    @property
    def fqdn(self) -> str:
        return f"{self.sld}.{self.tld}"


@dataclass(frozen=True)
class FeatureVector:
    """Named numeric vector for one domain.

    Each block is optional, and present when the feature set it was
    built for names it: the lexical block derives from the name alone,
    the side-information block needs a resolved response and the
    external confidence score an upstream model.
    """

    lexical: "LexicalFeatures | None" = None
    sideinfo: "SideInfoFeatures | None" = None
    ext_score: float | None = None
    label: Label | None = None

    def __post_init__(self):
        if self.ext_score is not None and not 0.0 <= self.ext_score <= 1.0:
            raise ValueError(f"ext_score must lie in [0,1], got {self.ext_score}")


class SuffixDb:
    """Public suffix table with longest-match lookup.

    File format: one suffix per line, UTF-8, comment lines prefixed with
    ``//`` ignored, blank lines ignored.
    """

    def __init__(self, suffixes: Iterable[str]):
        cleaned = set()
        for s in suffixes:
            s = s.strip().lower().strip(".")
            if s and not s.startswith("//"):
                cleaned.add(s)
        self._suffixes = frozenset(cleaned)

    @classmethod
    def from_file(cls, path) -> "SuffixDb":
        with open(path, encoding="utf-8") as fp:
            return cls(fp)

    @classmethod
    def bundled(cls) -> "SuffixDb":
        text = resources.files(__package__).joinpath("data/public_suffixes.txt").read_text("utf-8")
        return cls(text.splitlines())

    def __contains__(self, suffix: str) -> bool:
        return suffix in self._suffixes

    def __len__(self) -> int:
        return len(self._suffixes)

    def longest_match(self, name: str) -> str | None:
        """Longest public suffix that ends ``name``, or None.

        The whole name matching a suffix counts as a match; callers that
        need a non-empty SLD must check what remains to its left.
        """
        labels = name.split(".")
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            if candidate in self._suffixes:
                return candidate
        return None


def parse_domain(raw: str, suffix_db: SuffixDb) -> ParsedDomain:
    """Reduce a fully qualified name to its lowercased SLD + TLD pair.

    Third-level and deeper labels are discarded; the TLD is the longest
    matching public suffix and the SLD is the label immediately to its
    left.

    Raises InvalidDomainError on characters outside [a-z0-9.-],
    NoValidSuffixError when no suffix matches, and EmptySldError when
    nothing remains left of the suffix.
    """
    if not raw:
        raise InvalidDomainError("empty domain name")
    name = raw.lower()
    if name.endswith(".") and len(name) > 1:
        name = name[:-1]
    if not _DOMAIN_RE.match(name):
        raise InvalidDomainError(f"invalid characters in domain name: {raw!r}")
    suffix = suffix_db.longest_match(name)
    if suffix is None:
        raise NoValidSuffixError(f"no public suffix matches {raw!r}")
    if name == suffix:
        raise EmptySldError(f"nothing left of the public suffix in {raw!r}")
    head = name[: -(len(suffix) + 1)]
    sld = head.split(".")[-1]
    if not sld:
        raise EmptySldError(f"empty label left of the public suffix in {raw!r}")
    return ParsedDomain(sld=sld, tld=suffix, original=raw)
