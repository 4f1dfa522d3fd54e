"""Porter stemming algorithm (Porter, 1980), implemented from scratch.

Used to conflate morphological variants ("schedulers" / "scheduling" /
"scheduled") before vectorization, which matters on the short texts
CAR-CS indexes.  This is the classic five-step algorithm; the reference
behaviour is the original paper's, including its well-known quirks
(e.g. ``agreed -> agre``).

:func:`stem` is a pure function of its word, so it is memoized in a
bounded LRU (:data:`STEM_CACHE_SIZE` distinct words): a corpus repeats
its vocabulary across every document and every refit, and each word is
stemmed once per process instead of once per occurrence.  The uncached
algorithm stays reachable as ``stem.__wrapped__``.
"""

from __future__ import annotations

from functools import lru_cache

#: Bound of the :func:`stem` memo (distinct words kept).
STEM_CACHE_SIZE = 1 << 16

_VOWELS = set("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The Porter 'measure' m: number of VC sequences in C?(VC){m}V?."""
    m = 0
    i = 0
    n = len(stem)
    # skip initial consonants
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        # vowels
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        # consonants
        while i < n and _is_consonant(stem, i):
            i += 1
        m += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o: stem ends cvc where the final c is not w, x or y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace(word: str, suffix: str, replacement: str, m_min: int) -> str | None:
    """If word ends with suffix and measure(stem) > m_min, replace it."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > m_min:
        return stem + replacement
    return word  # suffix matched but condition failed: stop this step


@lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(word: str) -> str:
    """Return the Porter stem of ``word`` (expected lowercase)."""
    if len(word) <= 2:
        return word
    w = word

    # Step 1a
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # Step 1b
    step1b_extra = False
    if w.endswith("eed"):
        stem_ = w[:-3]
        if _measure(stem_) > 0:
            w = w[:-1]
    elif w.endswith("ed"):
        stem_ = w[:-2]
        if _contains_vowel(stem_):
            w = stem_
            step1b_extra = True
    elif w.endswith("ing"):
        stem_ = w[:-3]
        if _contains_vowel(stem_):
            w = stem_
            step1b_extra = True
    if step1b_extra:
        if w.endswith(("at", "bl", "iz")):
            w += "e"
        elif _ends_double_consonant(w) and w[-1] not in "lsz":
            w = w[:-1]
        elif _measure(w) == 1 and _ends_cvc(w):
            w += "e"

    # Step 1c
    if w.endswith("y") and _contains_vowel(w[:-1]):
        w = w[:-1] + "i"

    # Step 2
    step2 = [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
        ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
        ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
        ("biliti", "ble"),
    ]
    for suffix, repl in step2:
        if w.endswith(suffix):
            result = _replace(w, suffix, repl, 0)
            if result is not None:
                w = result
            break

    # Step 3
    step3 = [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ]
    for suffix, repl in step3:
        if w.endswith(suffix):
            result = _replace(w, suffix, repl, 0)
            if result is not None:
                w = result
            break

    # Step 4
    step4 = [
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    ]
    for suffix in step4:
        if w.endswith(suffix):
            stem_ = w[: len(w) - len(suffix)]
            if _measure(stem_) > 1:
                w = stem_
            break
    else:
        if w.endswith("ion"):
            stem_ = w[:-3]
            if _measure(stem_) > 1 and stem_ and stem_[-1] in "st":
                w = stem_

    # Step 5a
    if w.endswith("e"):
        stem_ = w[:-1]
        m = _measure(stem_)
        if m > 1 or (m == 1 and not _ends_cvc(stem_)):
            w = stem_

    # Step 5b
    if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
        w = w[:-1]

    return w


def stem_tokens(tokens: list[str]) -> list[str]:
    """Stem each token; hyphenated compounds are stemmed per component."""
    out = []
    for token in tokens:
        if "-" in token:
            out.append("-".join(stem(part) for part in token.split("-")))
        else:
            out.append(stem(token))
    return out
