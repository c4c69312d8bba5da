"""Independent straight-from-definition reference implementations.

Everything here is deliberately written with plain loops, Counter and
statistics, sharing no code paths with the package, so the main
implementations can be checked against a second, slower route.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter

VOWELS = "aeiou"
CONSONANTS = "bcdfghjklmnpqrstvwxyz"
BAD_TLDS = ("study", "party", "click", "top", "gdn", "gq", "asia", "cricket", "biz", "cf")


def oracle_ngram_median(s: str, n: int) -> float:
    if len(s) < n:
        return 0.0
    grams = [s[i : i + n] for i in range(len(s) - n + 1)]
    freqs = sorted(Counter(grams).values())
    return float(statistics.median(freqs))


def oracle_fnv1a_mod31(text: str) -> int:
    h = 14695981039346656037
    for b in text.encode("utf-8"):
        h = ((h ^ b) * 1099511628211) % 2**64
    return h % 2**31


def oracle_lexical(sld: str, tld: str) -> dict[str, float]:
    """All 26 features computed directly from their definitions."""
    domain = sld + "." + tld
    n = len(sld)
    counts = Counter(sld)
    probs = [c / n for c in counts.values()]

    ent = 0.0
    if n >= 2:
        ent = -sum(p * math.log2(p) for p in probs) / math.log2(n)

    def clean(s):
        return [ch for ch in s if ch not in ".-"]

    sld_clean = clean(sld)
    uni_sld = len(set(sld_clean))
    repeated = len([ch for ch, c in Counter(sld_clean).items() if c > 1])

    def pairs(s, alphabet):
        total = 0
        for i in range(len(s) - 1):
            if s[i] in alphabet and s[i + 1] in alphabet:
                total += 1
        return total

    return {
        "domain_len": len(domain),
        "sld_len": n,
        "tld_len": len(tld),
        "uni_domain": len(set(clean(domain))),
        "uni_sld": uni_sld,
        "uni_tld": len(set(clean(tld))),
        "flag_dga": 1 if tld in BAD_TLDS else 0,
        "tld_hash": oracle_fnv1a_mod31(tld),
        "flag_dig": 1 if sld[0] in "0123456789" else 0,
        "sym": len([c for c in sld if c == "-"]) / n,
        "hex": len([c for c in sld if c in "0123456789abcdef"]) / n,
        "dig": len([c for c in sld if c in "0123456789"]) / n,
        "vow": len([c for c in sld if c in VOWELS]) / n,
        "con": len([c for c in sld if c in CONSONANTS]) / n,
        "rep_char_ratio": repeated / uni_sld if uni_sld else 0.0,
        "cons_con_ratio": pairs(domain, CONSONANTS) / len(domain),
        "cons_dig_ratio": pairs(domain, "0123456789") / len(domain),
        "tokens_sld": len(sld.split("-")),
        "digits_sld": len([c for c in sld if c in "0123456789"]),
        "ent": ent,
        "gni": 1.0 - sum(p * p for p in probs),
        "cer": 1.0 - max(probs),
        "2gram_med": oracle_ngram_median(sld, 2),
        "3gram_med": oracle_ngram_median(sld, 3),
        "2gram_cmed": oracle_ngram_median(sld + sld, 2),
        "3gram_cmed": oracle_ngram_median(sld + sld, 3),
    }


def oracle_entropy(pos: int, neg: int) -> float:
    m = pos + neg
    h = 0.0
    for c in (pos, neg):
        if c > 0:
            h -= (c / m) * math.log2(c / m)
    return h


GAIN_TIE_EPS = 1e-12


def oracle_best_split(rows, labels, features):
    """Exhaustive search over every (feature, midpoint) pair.

    Same contract as the production splitter: maximize information gain,
    gains within GAIN_TIE_EPS count as tied and resolve to the lowest
    feature index then lowest threshold, None when no positive gain
    exists.
    """
    m = len(labels)
    pos = sum(labels)
    parent = oracle_entropy(pos, m - pos)
    best = None  # (gain, feature, threshold)
    for f in sorted(features):
        values = sorted(set(r[f] for r in rows))
        for lo, hi in zip(values, values[1:]):
            t = (lo + hi) / 2.0
            if t >= hi:
                t = lo
            left = [i for i in range(m) if rows[i][f] <= t]
            right = [i for i in range(m) if rows[i][f] > t]
            lp = sum(labels[i] for i in left)
            rp = sum(labels[i] for i in right)
            child = (
                len(left) * oracle_entropy(lp, len(left) - lp)
                + len(right) * oracle_entropy(rp, len(right) - rp)
            ) / m
            gain = parent - child
            if gain > GAIN_TIE_EPS and (best is None or gain > best[0] + GAIN_TIE_EPS):
                best = (gain, f, t)
    if best is None:
        return None
    return best[1], best[2], best[0]


class OracleTreeNode:
    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.prob = None


def oracle_grow_tree(rows, labels, features, min_samples_split=2, depth=0, max_depth=None):
    """Reference tree grown recursively with the exhaustive splitter."""
    node = OracleTreeNode()
    m = len(labels)
    pos = sum(labels)
    node.prob = pos / m
    if pos in (0, m) or m < min_samples_split:
        return node
    if max_depth is not None and depth >= max_depth:
        return node
    found = oracle_best_split(rows, labels, features)
    if found is None:
        return node
    f, t, _ = found
    node.feature = f
    node.threshold = t
    li = [i for i in range(m) if rows[i][f] <= t]
    ri = [i for i in range(m) if rows[i][f] > t]
    node.left = oracle_grow_tree(
        [rows[i] for i in li], [labels[i] for i in li], features, min_samples_split, depth + 1, max_depth
    )
    node.right = oracle_grow_tree(
        [rows[i] for i in ri], [labels[i] for i in ri], features, min_samples_split, depth + 1, max_depth
    )
    return node


def oracle_tree_predict(node, row) -> float:
    while node.feature is not None:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.prob


def oracle_forest_score(trees, row) -> float:
    """Mean leaf probability of one row over trees given as model-file
    objects (lists per node field), each walked node by node and added in
    tree order."""
    total = 0.0
    for tree in trees:
        node = 0
        while tree["feature"][node] >= 0:
            go_left = row[tree["feature"][node]] <= tree["threshold"][node]
            node = tree["left"][node] if go_left else tree["right"][node]
        total += tree["prob"][node]
    return total / len(trees)


def oracle_auc(scores, labels) -> float:
    """Concordant-pair probability with ties counted one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_threshold_sweep(scores, labels, target_fpr):
    """Smallest threshold with FPR <= target, by brute-force sweep over
    every float that could matter (0, the scores, and their successors)."""
    neg = [s for s, l in zip(scores, labels) if l == 0]
    candidates = {0.0}
    for s in scores:
        candidates.add(s)
        candidates.add(math.nextafter(s, math.inf))
    for t in sorted(candidates):
        fp = sum(1 for s in neg if s >= t)
        if fp / len(neg) <= target_fpr:
            return t
    raise AssertionError("sweep found no feasible threshold")
