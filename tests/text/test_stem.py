"""Porter stemmer against reference behaviour."""

import pytest

from repro.text import stem, stem_tokens
from repro.text.stem import STEM_CACHE_SIZE

# (input, expected) pairs from the original Porter paper and common
# reference implementations.
REFERENCE = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("conformabli", "conform"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("homologou", "homolog"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", REFERENCE)
def test_reference_pairs(word, expected):
    assert stem(word) == expected


VARIANTS = [
    ("scheduling", "scheduled", "schedules"),
    ("parallelize", "parallelized", "parallelizing"),
    ("synchronization", "synchronizing", "synchronized"),
    ("iteration", "iterating", "iterated"),
    ("classification", "classifications"),
]


class TestDomainConflation:
    """The property the pipeline actually needs: morphological variants of
    curriculum vocabulary map to one stem."""

    @pytest.mark.parametrize("variants", VARIANTS)
    def test_variants_conflate(self, variants):
        stems = {stem(v) for v in variants}
        assert len(stems) == 1, stems


class TestEdgeCases:
    def test_short_words_untouched(self):
        assert stem("as") == "as"
        assert stem("be") == "be"
        assert stem("a") == "a"

    def test_idempotent_on_many_words(self):
        for word in ("running", "flies", "classification", "parallel"):
            once = stem(word)
            assert stem(once) == once or len(stem(once)) <= len(once)


class TestStemTokens:
    def test_stems_each_token(self):
        assert stem_tokens(["running", "cats"]) == ["run", "cat"]

    def test_hyphenated_compounds_stemmed_per_part(self):
        assert stem_tokens(["divide-and-conquer"]) == ["divid-and-conquer"]


class TestMemo:
    """``stem`` is memoized; the memo is bounded and changes no output."""

    VOCABULARY = (
        [word for word, _ in REFERENCE]
        + [word for group in VARIANTS for word in group]
        + ["as", "be", "a", "running", "flies", "parallel",
           "divide-and-conquer"]
    )

    def test_memo_is_bounded(self):
        assert stem.cache_info().maxsize == STEM_CACHE_SIZE
        assert 0 < STEM_CACHE_SIZE < float("inf")

    def test_memoized_output_equals_uncached(self):
        uncached = [
            "-".join(stem.__wrapped__(part) for part in word.split("-"))
            for word in self.VOCABULARY
        ]
        stem.cache_clear()
        assert stem_tokens(self.VOCABULARY) == uncached  # cold
        assert stem_tokens(self.VOCABULARY) == uncached  # warm
        assert stem.cache_info().hits > 0
