"""The 26 hand-engineered lexical features of an SLD.TLD pair.

All functions are pure; feature extraction never touches the network.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .core import ParsedDomain

#: Published feature names, in schema order.
LEXICAL_FEATURES: tuple[str, ...] = (
    "domain_len",
    "sld_len",
    "tld_len",
    "uni_domain",
    "uni_sld",
    "uni_tld",
    "flag_dga",
    "tld_hash",
    "flag_dig",
    "sym",
    "hex",
    "dig",
    "vow",
    "con",
    "rep_char_ratio",
    "cons_con_ratio",
    "cons_dig_ratio",
    "tokens_sld",
    "digits_sld",
    "ent",
    "gni",
    "cer",
    "2gram_med",
    "3gram_med",
    "2gram_cmed",
    "3gram_cmed",
)

VOWELS = frozenset("aeiou")
CONSONANTS = frozenset("bcdfghjklmnpqrstvwxyz")
DIGITS = frozenset("0123456789")
HEX_CHARS = frozenset("0123456789abcdef")

#: TLDs with a documented record of hosting malicious registrations.
MALICIOUS_TLDS = frozenset(
    {"study", "party", "click", "top", "gdn", "gq", "asia", "cricket", "biz", "cf"}
)

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3


@dataclass(frozen=True)
class LexicalFeatures:
    """The 26 lexical features of one SLD.TLD pair.

    Field names match the published schema except the n-gram medians,
    whose schema names start with a digit ("2gram_med" is stored as
    ``gram2_med``).
    """

    domain_len: int
    sld_len: int
    tld_len: int
    uni_domain: int
    uni_sld: int
    uni_tld: int
    flag_dga: int
    tld_hash: int
    flag_dig: int
    sym: float
    hex: float
    dig: float
    vow: float
    con: float
    rep_char_ratio: float
    cons_con_ratio: float
    cons_dig_ratio: float
    tokens_sld: int
    digits_sld: int
    ent: float
    gni: float
    cer: float
    gram2_med: float
    gram3_med: float
    gram2_cmed: float
    gram3_cmed: float

    _FIELD_FOR_NAME = {
        "2gram_med": "gram2_med",
        "3gram_med": "gram3_med",
        "2gram_cmed": "gram2_cmed",
        "3gram_cmed": "gram3_cmed",
    }

    def __post_init__(self):
        for name in ("domain_len", "sld_len", "tld_len", "uni_domain", "uni_sld",
                     "uni_tld", "tld_hash", "tokens_sld", "digits_sld"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("sym", "hex", "dig", "vow", "con", "rep_char_ratio"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.domain_len != self.sld_len + self.tld_len + 1:
            raise ValueError("domain_len must equal sld_len + tld_len + 1")

    def as_dict(self) -> dict[str, float]:
        """Features keyed by published schema name, in schema order."""
        return {
            name: getattr(self, self._FIELD_FOR_NAME.get(name, name))
            for name in LEXICAL_FEATURES
        }


def tld_hash_value(tld: str) -> int:
    """Deterministic TLD hash: FNV-1a 64-bit reduced modulo 2^31.

    Stable across runs, processes and platforms, which model portability
    requires.
    """
    h = _FNV64_OFFSET
    for byte in tld.encode("utf-8"):
        h ^= byte
        h = (h * _FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h % (1 << 31)


def _median(values: list[int]) -> float:
    """Median with the even-count convention: mean of the two middle values."""
    values = sorted(values)
    n = len(values)
    mid = n // 2
    if n % 2 == 1:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def ngram_median(s: str, n: int) -> float:
    """Median of the frequency multiset of the distinct n-grams of ``s``.

    Strings shorter than ``n`` have no n-grams and yield 0.
    """
    if len(s) < n:
        return 0.0
    counts = Counter(s[i : i + n] for i in range(len(s) - n + 1))
    return _median(list(counts.values()))


def ngram_circle_median(s: str, n: int) -> float:
    """n-gram median of the string concatenated with itself.

    Doubling the string lets grams wrap around the seam, so the statistic
    is invariant under rotations of ``s``.
    """
    return ngram_median(s + s, n)


def char_distribution_stats(sld: str) -> tuple[float, float, float]:
    """(ent, gni, cer) of the SLD's character distribution, where p_i is
    a character's count divided by the SLD length.

    ent = -sum(p_i * log2 p_i) / log2(sld_len), clamped to 0 for
    single-character SLDs where the normalizer log2(1) vanishes.
    gni = 1 - sum(p_i^2).  cer = 1 - max(p_i).
    """
    probs = [c / len(sld) for c in Counter(sld).values()]
    gni = 1.0 - sum(p * p for p in probs)
    cer = 1.0 - max(probs)
    if len(sld) < 2:
        return 0.0, gni, cer
    raw = -sum(p * math.log2(p) for p in probs if p > 0)
    return raw / math.log2(len(sld)), gni, cer


def _adjacent_pair_count(s: str, charset: frozenset[str]) -> int:
    # overlapping pairs: "nst" contributes 2 consonant pairs
    return sum(1 for a, b in zip(s, s[1:]) if a in charset and b in charset)


def extract_lexical(d: ParsedDomain) -> LexicalFeatures:
    """Compute all 26 lexical features of a parsed domain.

    Ratios sym/hex/dig/vow/con are over SLD characters; the consecutive
    pair ratios are counted over the full SLD.TLD string and divided by
    its length; ent/gni/cer follow :func:`char_distribution_stats`.
    """
    sld, tld = d.sld, d.tld
    domain = d.fqdn
    sld_len = len(sld)

    def strip_specials(s: str) -> str:
        return s.replace(".", "").replace("-", "")

    sld_chars = strip_specials(sld)
    ent, gni, cer = char_distribution_stats(sld)
    uni_sld = len(set(sld_chars))
    repeated = sum(1 for _, c in Counter(sld_chars).items() if c > 1)

    return LexicalFeatures(
        domain_len=len(domain),
        sld_len=sld_len,
        tld_len=len(tld),
        uni_domain=len(set(strip_specials(domain))),
        uni_sld=uni_sld,
        uni_tld=len(set(strip_specials(tld))),
        flag_dga=int(tld in MALICIOUS_TLDS),
        tld_hash=tld_hash_value(tld),
        flag_dig=int(sld[0] in DIGITS),
        sym=sum(1 for ch in sld if ch not in VOWELS and ch not in CONSONANTS and ch not in DIGITS) / sld_len,
        hex=sum(1 for ch in sld if ch in HEX_CHARS) / sld_len,
        dig=sum(1 for ch in sld if ch in DIGITS) / sld_len,
        vow=sum(1 for ch in sld if ch in VOWELS) / sld_len,
        con=sum(1 for ch in sld if ch in CONSONANTS) / sld_len,
        rep_char_ratio=repeated / uni_sld if uni_sld else 0.0,
        cons_con_ratio=_adjacent_pair_count(domain, CONSONANTS) / len(domain),
        cons_dig_ratio=_adjacent_pair_count(domain, DIGITS) / len(domain),
        tokens_sld=sld.count("-") + 1,
        digits_sld=sum(1 for ch in sld if ch in DIGITS),
        ent=ent,
        gni=gni,
        cer=cer,
        gram2_med=ngram_median(sld, 2),
        gram3_med=ngram_median(sld, 3),
        gram2_cmed=ngram_circle_median(sld, 2),
        gram3_cmed=ngram_circle_median(sld, 3),
    )
