import random
import string

import pytest

from dgadetect.core import ParsedDomain
from dgadetect.lexical import (
    LEXICAL_FEATURES,
    extract_lexical,
    ngram_circle_median,
    ngram_median,
    tld_hash_value,
)
from oracles import oracle_lexical, oracle_ngram_median

TLDS = ["com", "net", "org", "biz", "co.uk", "info", "top", "cf"]


def _random_sld(rng: random.Random) -> str:
    alphabet = string.ascii_lowercase + "0123456789"
    n = rng.randint(1, 30)
    chars = [rng.choice(alphabet) for _ in range(n)]
    # sprinkle hyphens in the interior
    if n > 2 and rng.random() < 0.3:
        chars[rng.randint(1, n - 2)] = "-"
    return "".join(chars)


def test_known_domain_len():
    lf = extract_lexical(ParsedDomain("google", "com"))
    assert lf.domain_len == 10
    assert lf.sld_len == 6
    assert lf.tld_len == 3


def test_uni_domain_google():
    lf = extract_lexical(ParsedDomain("google", "com"))
    assert lf.uni_domain == 6  # {g, o, l, e, c, m}


def test_single_alphabet_sld_zeroes():
    lf = extract_lexical(ParsedDomain("aaaa", "com"))
    assert lf.ent == 0.0
    assert lf.gni == 0.0
    assert lf.cer == 0.0


def test_uniform_four_char_sld():
    lf = extract_lexical(ParsedDomain("abcd", "com"))
    assert lf.gni == pytest.approx(0.75, abs=1e-12)
    assert lf.cer == pytest.approx(0.75, abs=1e-12)
    assert lf.ent == pytest.approx(1.0, abs=1e-12)


def test_single_char_sld_ent_defined():
    # log2(1) = 0 in the normalizer; defined as 0 rather than an error
    lf = extract_lexical(ParsedDomain("a", "com"))
    assert lf.ent == 0.0


def test_flag_dga_tld_list():
    assert extract_lexical(ParsedDomain("example", "biz")).flag_dga == 1
    assert extract_lexical(ParsedDomain("example", "top")).flag_dga == 1
    assert extract_lexical(ParsedDomain("example", "com")).flag_dga == 0


def test_flag_dig():
    assert extract_lexical(ParsedDomain("7ft4", "com")).flag_dig == 1
    assert extract_lexical(ParsedDomain("f7t4", "com")).flag_dig == 0


def test_ngram_median_google():
    assert ngram_median("google", 2) == 1.0


def test_ngram_median_repeats():
    assert ngram_median("aaaa", 2) == 3.0


def test_ngram_median_too_short():
    assert ngram_median("ab", 3) == 0.0


def test_ngram_circle_median_doubles():
    assert ngram_circle_median("yahoo", 3) == ngram_median("yahooyahoo", 3)
    assert ngram_circle_median("a", 2) == 1.0
    # "abab": ab twice, ba once -> median of {2, 1} is 1.5
    assert ngram_circle_median("ab", 2) == 1.5


def test_ngram_oracle_agreement():
    rng = random.Random(21)
    for _ in range(300):
        s = "".join(rng.choice("abcde01") for _ in range(rng.randint(1, 15)))
        for n in (2, 3):
            assert ngram_median(s, n) == oracle_ngram_median(s, n)
            assert ngram_circle_median(s, n) == oracle_ngram_median(s + s, n)


def test_ratio_partition_property():
    # every character is exactly one of vowel/consonant/digit/special
    rng = random.Random(5)
    for _ in range(300):
        sld = _random_sld(rng)
        lf = extract_lexical(ParsedDomain(sld, "com"))
        assert lf.vow + lf.con + lf.dig + lf.sym == pytest.approx(1.0, abs=1e-12)


def test_distribution_stats_permutation_invariant():
    rng = random.Random(11)
    for _ in range(100):
        sld = _random_sld(rng)
        chars = list(sld)
        rng.shuffle(chars)
        shuffled = "".join(chars)
        a = extract_lexical(ParsedDomain(sld, "com"))
        b = extract_lexical(ParsedDomain(shuffled, "com"))
        assert a.ent == pytest.approx(b.ent, abs=1e-12)
        assert a.gni == pytest.approx(b.gni, abs=1e-12)
        assert a.cer == pytest.approx(b.cer, abs=1e-12)


def test_tld_hash_deterministic():
    h = tld_hash_value("com")
    assert h == tld_hash_value("com")
    assert 0 <= h < 2**31
    assert tld_hash_value("net") != h


def test_oracle_equivalence_sample():
    rng = random.Random(2024)
    for _ in range(250):
        sld = _random_sld(rng)
        tld = rng.choice(TLDS)
        got = extract_lexical(ParsedDomain(sld, tld)).as_dict()
        want = oracle_lexical(sld, tld)
        assert set(got) == set(LEXICAL_FEATURES)
        for name in LEXICAL_FEATURES:
            if isinstance(want[name], int):
                assert got[name] == want[name], (name, sld, tld)
            else:
                assert got[name] == pytest.approx(want[name], abs=1e-9), (name, sld, tld)


def test_ent_bounds():
    rng = random.Random(3)
    for _ in range(200):
        sld = _random_sld(rng)
        lf = extract_lexical(ParsedDomain(sld, "com"))
        if lf.sld_len >= 2:
            assert 0.0 <= lf.ent <= 1.0 + 1e-12
        assert 0.0 <= lf.gni < 1.0
        assert 0.0 <= lf.cer < 1.0


def test_schema_names_and_order():
    lf = extract_lexical(ParsedDomain("example", "com"))
    assert list(lf.as_dict()) == list(LEXICAL_FEATURES)
    assert len(LEXICAL_FEATURES) == 26
