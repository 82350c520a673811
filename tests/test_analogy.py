import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine import analogy, pipeline
from bimine.analogy import (
    apply_model,
    canonical_arrangement,
    char_delta,
    char_profile_check,
    extract_rewriting_model,
    find_analogies,
    generate_corpus,
    models_from_quadruples,
    read_models,
    read_quadruples,
    token_bag_bound,
    word_levenshtein,
    write_models,
    write_quadruples,
)
from bimine.corpus_io import ArticlePair, BiSentence, BitextCorpus, Document, tokenize
from bimine.lexicon import TranslationLexicon

from synthdata import ANALOGY_TEMPLATES, make_analogy_clusters, make_world, template_pair


# ---------------------------------------------------------------------------
# independent oracles

def brute_edit_distance(s1, s2):
    """Plain recursion over edit scripts; exponential, for short inputs only."""
    if not s1:
        return len(s2)
    if not s2:
        return len(s1)
    return min(
        brute_edit_distance(s1[1:], s2[1:]) + (s1[0] != s2[0]),
        brute_edit_distance(s1[1:], s2) + 1,
        brute_edit_distance(s1, s2[1:]) + 1,
    )


def brute_force_analogies(sentences, max_distance):
    """O(n^4) enumeration over all arrangements of four distinct sentences."""
    uniq = []
    seen = set()
    for sent in sentences:
        key = tuple(sent)
        if key not in seen:
            seen.add(key)
            uniq.append(key)
    dist = {}
    for x, y in itertools.combinations(range(len(uniq)), 2):
        dist[(x, y)] = dist[(y, x)] = word_levenshtein(uniq[x], uniq[y])
    profiles = [Counter(" ".join(s)) for s in uniq]

    def profile_ok(a, b, c, d):
        delta_ab = profiles[a].copy()
        delta_ab.subtract(profiles[b])
        delta_cd = profiles[c].copy()
        delta_cd.subtract(profiles[d])
        keys = set(delta_ab) | set(delta_cd)
        return all(delta_ab.get(k, 0) == delta_cd.get(k, 0) for k in keys)

    found = set()
    for combo in itertools.combinations(range(len(uniq)), 4):
        for a, b, c, d in itertools.permutations(combo):
            if dist[(a, b)] != dist[(c, d)] or dist[(a, b)] > max_distance:
                continue
            if dist[(a, c)] != dist[(b, d)] or dist[(a, c)] > max_distance:
                continue
            if not profile_ok(a, b, c, d):
                continue
            found.add(canonical_arrangement(
                (uniq[a], uniq[b], uniq[c], uniq[d])))
    return found


_SLOT_WORDS = ["kota", "psa", "konia", "ryby", "ptaka", "lisa"]
_TEMPLATES = [
    (["ala", "ma"], ["dzisiaj"]),
    (["to", "jest"], ["teraz", "tutaj"]),
    (["on", "widzi"], []),
]


def _structured_corpus(rng, n, template_fraction=0.25, slot_pool=None):
    """Mostly random sentences over a mid-sized vocabulary, plus occasional
    template instances so analogies exist but stay sparse, as in real text."""
    vocab = [f"{a}{b}" for a in ("ka", "to", "mi", "zu", "pro", "na", "wo")
             for b in ("ra", "le", "ni", "sto", "chą", "my", "wa")]
    slots = _SLOT_WORDS if slot_pool is None else _SLOT_WORDS[:slot_pool]
    sentences = []
    while len(sentences) < n:
        if rng.random() < template_fraction:
            prefix, suffix = _TEMPLATES[rng.randrange(len(_TEMPLATES))]
            sentences.append(prefix + [rng.choice(slots)] + suffix)
        else:
            sentences.append([rng.choice(vocab)
                              for _ in range(rng.randint(3, 8))])
    return sentences


# ---------------------------------------------------------------------------
# word-level Levenshtein

def test_levenshtein_identity():
    assert word_levenshtein("a b c".split(), "a b c".split()) == 0


def test_levenshtein_single_substitution():
    assert word_levenshtein("poproszę koc".split(), "poproszę bilet".split()) == 1


def test_levenshtein_swap_costs_two():
    assert word_levenshtein("a b".split(), "b a".split()) == \
        brute_edit_distance(("a", "b"), ("b", "a")) == 2


def test_levenshtein_against_brute_force():
    rng = random.Random(5)
    vocab = ["x", "y", "z", "w"]
    for _ in range(200):
        s1 = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 5)))
        s2 = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 5)))
        assert word_levenshtein(s1, s2) == brute_edit_distance(s1, s2)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=8),
       st.lists(st.sampled_from(["a", "b", "c"]), max_size=8),
       st.lists(st.sampled_from(["a", "b", "c"]), max_size=8))
def test_levenshtein_metric_axioms(s1, s2, s3):
    assert word_levenshtein(s1, s1) == 0
    assert word_levenshtein(s1, s2) == word_levenshtein(s2, s1)
    assert word_levenshtein(s1, s3) <= \
        word_levenshtein(s1, s2) + word_levenshtein(s2, s3)
    if s1 != s2:
        assert word_levenshtein(s1, s2) > 0


# ---------------------------------------------------------------------------
# character profile constraint

def test_profile_identical_pairs():
    assert char_profile_check("kos", "kos", "tlen", "tlen")


def test_profile_counted_true():
    assert char_profile_check("aa", "a", "ba", "b")


def test_profile_counted_false():
    assert not char_profile_check("aa", "a", "b", "b")


def test_char_delta_signed_nonzero_items():
    assert char_delta(Counter("aab"), Counter("abc")) == (("a", 1), ("c", -1))
    assert char_delta(Counter("ab"), Counter("ba")) == ()


# ---------------------------------------------------------------------------
# analogy search

TEA_COFFEE = ["i like tea", "i like coffee", "you like tea", "you like coffee"]


def test_planted_quadruple_found_exactly():
    sentences = [s.split() for s in TEA_COFFEE]
    quads = find_analogies(sentences, max_distance=4)
    assert len(quads) == 1
    quad = quads[0]
    expected = canonical_arrangement((
        tuple("i like tea".split()), tuple("i like coffee".split()),
        tuple("you like tea".split()), tuple("you like coffee".split())))
    assert (quad.a, quad.b, quad.c, quad.d) == expected
    assert quad.d_ab == quad.d_cd == 1
    assert quad.d_ac == quad.d_bd == 1


def test_canonical_arrangement_is_the_smallest_symmetric_form():
    # the eight forms: pair swap, in-pair reversal, exchange of the means
    symmetries = [(0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0),
                  (0, 2, 1, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 1, 2, 0)]
    for quad in itertools.permutations("abcd"):
        forms = [tuple(quad[i] for i in perm) for perm in symmetries]
        assert canonical_arrangement(quad) == min(forms)
        assert all(canonical_arrangement(form) == min(forms) for form in forms)


def test_three_sentences_no_quadruple():
    sentences = [s.split() for s in ["ala ma kota", "zupa jest dobra", "pada deszcz"]]
    assert find_analogies(sentences, 4) == []


def test_emitted_quadruples_reverify():
    rng = random.Random(9)
    sentences = _structured_corpus(rng, 40)
    for quad in find_analogies(sentences, 3):
        assert quad.d_ab == quad.d_cd <= 3
        assert quad.d_ac == quad.d_bd <= 3
        assert word_levenshtein(quad.a, quad.b) == quad.d_ab
        assert word_levenshtein(quad.c, quad.d) == quad.d_cd
        assert word_levenshtein(quad.a, quad.c) == quad.d_ac
        assert word_levenshtein(quad.b, quad.d) == quad.d_bd
        assert char_profile_check(" ".join(quad.a), " ".join(quad.b),
                                  " ".join(quad.c), " ".join(quad.d))


def test_search_equals_brute_force_enumeration():
    rng = random.Random(21)
    for trial in range(12):
        sentences = _structured_corpus(rng, rng.randint(8, 18),
                                       template_fraction=0.5)
        max_distance = rng.choice([2, 3, 4])
        fast = {(q.a, q.b, q.c, q.d)
                for q in find_analogies(sentences, max_distance)}
        slow = brute_force_analogies(sentences, max_distance)
        assert fast == slow, f"trial {trial}"


# sha256 of the (a, b, c, d) list the exhaustive pair-of-pairs search
# returned for this corpus; the indexed search must reproduce it
_STRUCTURED_200_SHA256 = \
    "1996633e8f193ab38b2e76c899d4473ecda05627f047f8a09e25607220ec0508"


def test_200_structured_sentences_pinned_digest():
    sentences = _structured_corpus(random.Random(33), 200)
    quads = find_analogies(sentences, 4)
    assert len(quads) == 35  # the structured corpus must contain analogies
    blob = json.dumps([[q.a, q.b, q.c, q.d] for q in quads], ensure_ascii=False)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == _STRUCTURED_200_SHA256


# overlapping characters give zero deltas (ab/ba), mirrored deltas and
# A:B::D:C arrangements
_OVERLAP_VOCAB = ["a", "b", "ab", "ba", "c", "ca"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_OVERLAP_VOCAB), min_size=1, max_size=5),
                max_size=12),
       st.integers(min_value=0, max_value=5))
# four anagrams: A:B::D:C inside the zero-delta bucket in both pairings
@example([["a", "b", "c"], ["a", "c", "b"], ["b", "a", "c"], ["b", "c", "a"]], 2)
# A:B::D:C only between mirrored nonzero-delta buckets
@example([["b"], ["ab", "ba"], ["ab"], ["ab", "b"]], 2)
def test_search_equals_brute_force_property(sentences, max_distance):
    fast = [(q.a, q.b, q.c, q.d) for q in find_analogies(sentences, max_distance)]
    assert fast == sorted(brute_force_analogies(sentences, max_distance))


_REPEATING_VOCAB = ["ala", "ma", "kota", "psa", "i", "nie", "to", "jest"]


@st.composite
def _long_sentences(draw):
    """Sentences of 6-12 tokens over 6-8 words, so tokens repeat: every head
    joined to every tail, which makes analogies, plus a few free sentences."""
    vocab = _REPEATING_VOCAB[:draw(st.integers(min_value=6, max_value=8))]
    part = st.lists(st.sampled_from(vocab), min_size=3, max_size=6)
    heads = draw(st.lists(part, min_size=1, max_size=3))
    tails = draw(st.lists(part, min_size=1, max_size=3))
    free = draw(st.lists(st.lists(st.sampled_from(vocab), min_size=6, max_size=12),
                         max_size=3))
    return [head + tail for head in heads for tail in tails] + free


# tokens outside _REPEATING_VOCAB; capitals sort first, so among tokens held
# by as many sentences these come first in the search's rare-first order
_RARE_TOKENS = ["Q", "X", "Y", "Z"]


@st.composite
def _rare_tokens_in_common_sentences(draw):
    """A : B :: C : D where B and D put 1-4 rare tokens in place of the same
    common tokens of A and C, which differ in one other token.  With that
    many rare tokens as max_distance, A and B share only common tokens, which
    come after the rare ones: they meet only at the last of the
    max_distance + 1 prefix items."""
    count = draw(st.integers(min_value=1, max_value=len(_RARE_TOKENS)))
    a = draw(st.lists(st.sampled_from(_REPEATING_VOCAB), min_size=count + 1, max_size=12))
    *rare_at, changed = draw(st.permutations(range(len(a))))[:count + 1]
    c = list(a)
    c[changed] = draw(st.sampled_from([w for w in _REPEATING_VOCAB if w != a[changed]]))
    b, d = list(a), list(c)
    for position, token in zip(rare_at, _RARE_TOKENS):
        b[position] = d[position] = token
    return [a, b, c, d]


# A:B shares exactly L - d = 3 tokens, the three most frequent ones, so they
# come last in the rare-first order and only the last of the d + 1
# prefix occurrences meets; C:D meets the same way
_SHARED_LAST = [s.split() for s in [
    "ala ma zupa kot pies", "ala ma zupa mysz ryba",
    "ala ma ser kot pies", "ala ma ser mysz ryba",
    "zupa ala ma", "ma zupa ala"]]


# sentences long enough that the search's prefix filter has to find their
# pairs, which the short sentences above never need.  The rare-token draws
# reach the filter's edge, a pair meeting only at its last prefix item, on
# their own, and so do the examples; these also sit at sentence lengths
# around d
@settings(max_examples=150, deadline=None)
@given(st.one_of(_long_sentences(), _rare_tokens_in_common_sentences()),
       st.integers(min_value=0, max_value=4))
@example(_SHARED_LAST, 2)
# sentences of exactly d and d + 1 tokens: A and B share no token, C and D one
@example([["ala", "ma"], ["kot", "pies"], ["ala", "ma", "psa"], ["kot", "pies", "psa"]], 2)
# the empty sentence in an analogy: [] : [a] :: [b] : [ba]
@example([[], ["a"], ["b"], ["ba"]], 1)
def test_search_equals_brute_force_on_long_sentences(sentences, max_distance):
    fast = [(q.a, q.b, q.c, q.d) for q in find_analogies(sentences, max_distance)]
    assert fast == sorted(brute_force_analogies(sentences, max_distance))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "ab"]), max_size=8),
       st.lists(st.sampled_from(["a", "b", "c", "ab"]), max_size=8))
def test_token_bag_bound_never_exceeds_distance(s1, s2):
    bound = token_bag_bound(Counter(s1), Counter(s2), max(len(s1), len(s2)))
    assert bound <= word_levenshtein(s1, s2)


def test_size_guard(tmp_path):
    seed = tmp_path / "seed.tsv"
    seed.write_text("".join(f"zdanie {i}\tsentence {i}\n" for i in range(10)),
                    encoding="utf-8")
    assert pipeline.analogy_find(seed, 4, 10) == []
    with open(seed, "a", encoding="utf-8") as fh:
        fh.write("zdanie 10\tsentence 10\n")
    with pytest.raises(pipeline.PipelineError, match=r"^analogy search over 11 sentences "
                       r"exceeds the size guard \(10\); raise the guard to override$"):
        pipeline.analogy_find(seed, 4, 10)


def test_duplicates_collapsed_before_search():
    sentences = [s.split() for s in TEA_COFFEE * 3]
    assert len(find_analogies(sentences, 4)) == 1


def test_indices_point_at_first_occurrences():
    sentences = [s.split() for s in ["zzz zzz"] + TEA_COFFEE]
    quads = find_analogies(sentences, 4)
    texts = [tuple(s) for s in sentences]
    quad = quads[0]
    for side, idx in zip((quad.a, quad.b, quad.c, quad.d), quad.indices):
        assert texts[idx] == side


# ---------------------------------------------------------------------------
# rewriting models

BLANKET = (("Poproszę koc .".split(), "A blanket , please .".split()),
           ("Poproszę poduszkę .".split(), "A pillow , please .".split()))


def test_extract_paper_example():
    model = extract_rewriting_model(*BLANKET)
    assert model is not None
    assert model.src_prefix == ("Poproszę",)
    assert model.src_suffix == (".",)
    assert model.tgt_prefix == ("A",)
    assert model.tgt_suffix == (",", "please", ".")


def test_extract_identical_pairs_none():
    pair = ("Poproszę koc .".split(), "A blanket , please .".split())
    assert extract_rewriting_model(pair, pair) is None


def test_extract_disjoint_none():
    assert extract_rewriting_model(
        ("aa bb".split(), "xx yy".split()),
        ("cc dd".split(), "uu vv".split())) is None


def test_apply_paper_example():
    model = extract_rewriting_model(*BLANKET)
    lex = TranslationLexicon(entries={"bilet": [("ticket", 1.0)]})
    made = apply_model(model, "Poproszę bilet .".split(), lex, allow_unknown=False)
    assert made is not None
    assert made.tgt == "A ticket , please ."
    assert made.src == "Poproszę bilet ."
    assert made.score == 1.0


def test_apply_unknown_word_marker():
    model = extract_rewriting_model(*BLANKET)
    empty = TranslationLexicon(entries={})
    assert apply_model(model, "Poproszę bilet .".split(), empty, allow_unknown=False) is None
    made = apply_model(model, "Poproszę bilet .".split(), empty,
                       allow_unknown=True)
    assert made.tgt == "A unknown , please ."
    assert made.score == 0.0


def test_apply_no_prefix_match_none():
    model = extract_rewriting_model(*BLANKET)
    lex = TranslationLexicon(entries={})
    assert apply_model(model, "Dziękuję bardzo .".split(), lex,
                       allow_unknown=True) is None


def test_roundtrip_on_fixture_clusters(world):
    clusters, lex = make_analogy_clusters(world, n_clusters=100)
    succeeded = 0
    for pair1, pair2 in clusters:
        model = extract_rewriting_model(pair1, pair2)
        assert model is not None
        for src, tgt in (pair1, pair2):
            made = apply_model(model, src, lex, allow_unknown=False)
            assert made is not None
            assert made.tgt.split() == tgt
            succeeded += 1
    assert succeeded == 200


def test_models_from_quadruples(world):
    # a 2x2 grid (two templates x two slot words) forms one analogy; with a
    # single template the character-profile constraint correctly rejects
    # quadruples over four distinct slot words
    w1, w2 = world.src_vocab[:2]
    pairs = []
    for template in ANALOGY_TEMPLATES[:2]:
        for w in (w1, w2):
            src, tgt = template_pair(template, w, world.primary(w))
            pairs.append(BiSentence(" ".join(src), " ".join(tgt)))
    seed = BitextCorpus(pairs)
    quads = find_analogies([p.src.split() for p in pairs], 6)
    assert len(quads) == 1
    models = models_from_quadruples(quads, seed, check_target_side=False)
    assert models
    for model in models:
        for src_tokens, tgt_tokens in model.support:
            assert src_tokens[:len(model.src_prefix)] == model.src_prefix
            n = len(model.src_suffix)
            assert n == 0 or src_tokens[-n:] == model.src_suffix
            assert tgt_tokens[:len(model.tgt_prefix)] == model.tgt_prefix
            n = len(model.tgt_suffix)
            assert n == 0 or tgt_tokens[-n:] == model.tgt_suffix


def test_models_from_quadruples_extracts_each_pair_once(world, monkeypatch):
    # five templates filled with the same four slot words: quadruples share
    # their (A, B) and (C, D) index pairs
    pairs = [BiSentence(*(" ".join(side) for side in template_pair(t, w, world.primary(w))))
             for t in ANALOGY_TEMPLATES for w in world.src_vocab[:4]]
    seed = BitextCorpus(pairs)
    quads = find_analogies([p.src.split() for p in pairs], 4)
    sides = [(q.indices[k], q.indices[k + 1]) for q in quads for k in (0, 2)]
    assert len(sides) > len(set(sides))
    unskipped = {}
    for i1, i2 in sides:
        model = extract_rewriting_model(*((tokenize(pairs[i].src), tokenize(pairs[i].tgt))
                                          for i in (i1, i2)))
        if model is not None:
            unskipped.setdefault(model[:4], model)
    calls = []

    def counted(pair1, pair2):
        calls.append((pair1, pair2))
        return extract_rewriting_model(pair1, pair2)

    monkeypatch.setattr(analogy, "extract_rewriting_model", counted)
    models = models_from_quadruples(quads, seed, check_target_side=False)
    assert len(calls) == len(set(sides))
    assert models == list(unskipped.values()) != []


def test_target_side_check_filters_quadruples(world):
    # same 2x2 grid, but one target rewritten so the equalities break there
    w1, w2 = world.src_vocab[:2]
    pairs = []
    for template in ANALOGY_TEMPLATES[:2]:
        for w in (w1, w2):
            src, tgt = template_pair(template, w, world.primary(w))
            pairs.append(BiSentence(" ".join(src), " ".join(tgt)))
    broken = pairs[:3] + [BiSentence(pairs[3].src, "utterly different words entirely")]
    seed_ok = BitextCorpus(pairs)
    seed_broken = BitextCorpus(broken)
    quads = find_analogies([p.src.split() for p in pairs], 6)
    assert models_from_quadruples(quads, seed_ok, check_target_side=True)
    assert models_from_quadruples(quads, seed_broken, check_target_side=True) == []


def test_single_template_distinct_slots_rejected(world):
    template = ANALOGY_TEMPLATES[0]
    sentences = [template_pair(template, w, world.primary(w))[0]
                 for w in world.src_vocab[:4]]
    assert find_analogies(sentences, 4) == []


# ---------------------------------------------------------------------------
# generation

def test_generate_corpus_planted_matches(world):
    # one cluster per template so every planted sentence matches one model
    clusters, lex = make_analogy_clusters(world, n_clusters=5)
    models = [extract_rewriting_model(p1, p2) for p1, p2 in clusters]
    models = [m for m in models if m is not None]
    rng = random.Random(14)
    covered = [w for w in lex.entries]
    articles = []
    planted = 0
    for article_id in range(100):
        sentences = []
        for _ in range(3):
            sentences.append(" ".join(rng.choice(world.src_vocab)
                                      for _ in range(4)).capitalize() + ".")
        if article_id < 7:
            # plant one matching sentence, capitalized like real text
            model = models[article_id % len(models)]
            word = covered[article_id % len(covered)]
            tokens = model.src_prefix + (word,) + model.src_suffix
            sentences.insert(1, " ".join(tokens).capitalize())
        articles.append(ArticlePair(
            article_id,
            Document("pl", f"a{article_id}", " ".join(sentences)),
            Document("en", f"a{article_id}", "Nothing relevant here.")))
        planted = 7

    quasi = generate_corpus(models, articles, lex, allow_unknown=False)
    assert len(quasi.entries) == planted

    # direct scan oracle: every sentence against every model
    from bimine.corpus_io import segment_sentences
    expected = 0
    for article in articles:
        for sent in segment_sentences(article.src.body):
            for model in models:
                if apply_model(model, sent.tokens, lex, allow_unknown=False) is not None:
                    expected += 1
    assert len(quasi.entries) == expected


def test_generate_corpus_confirmed_flag(world):
    clusters, lex = make_analogy_clusters(world, n_clusters=2)
    model = extract_rewriting_model(*clusters[0])
    word = clusters[0][0][0][len(model.src_prefix)]
    src_tokens = model.src_prefix + (word,) + model.src_suffix
    tgt_tokens = model.tgt_prefix + (lex.entries[word][0][0],) + model.tgt_suffix
    article = ArticlePair(
        0,
        Document("pl", "a", " ".join(src_tokens).capitalize()),
        Document("en", "a", " ".join(tgt_tokens).capitalize()))
    quasi = generate_corpus([model], [article], lex, allow_unknown=False)
    assert len(quasi.entries) == 1
    assert quasi.entries[0].confirmed
    assert quasi.report() == {"generated": 1, "confirmed": 1}


def test_generate_no_matches_empty(world):
    clusters, lex = make_analogy_clusters(world, n_clusters=2)
    models = [extract_rewriting_model(*clusters[0])]
    article = ArticlePair(0, Document("pl", "a", "Zupa pomidorowa dobra."),
                          Document("en", "a", "Tomato soup is good."))
    quasi = generate_corpus(models, [article], lex, allow_unknown=False)
    assert quasi.entries == []


def test_generate_without_models_is_empty():
    article = ArticlePair(0, Document("pl", "a", "Zupa pomidorowa dobra."),
                          Document("en", "a", "Tomato soup is good."))
    quasi = generate_corpus([], [article], TranslationLexicon(entries={}), allow_unknown=False)
    assert quasi.entries == []
    assert quasi.report() == {"generated": 0, "confirmed": 0}


# ---------------------------------------------------------------------------
# file formats

def test_quadruple_file_roundtrip(tmp_path):
    quads = find_analogies([s.split() for s in TEA_COFFEE], 4)
    path = tmp_path / "quads.jsonl"
    write_quadruples(path, quads)
    assert read_quadruples(path) == quads


def test_model_file_roundtrip(tmp_path):
    model = extract_rewriting_model(*BLANKET)
    path = tmp_path / "models.jsonl"
    write_models(path, [model])
    assert read_models(path) == [model]


def _write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_read_quadruples_names_file_and_line(tmp_path):
    quads = find_analogies([s.split() for s in TEA_COFFEE], 4)
    path = tmp_path / "quads.jsonl"
    write_quadruples(path, quads[:1])
    good = json.loads(path.read_text(encoding="utf-8"))
    broken = {k: v for k, v in good.items() if k != "c"}
    for record, detail in ((broken, "missing field 'c'"),
                           ({**good, "a": "tea"}, "list of tokens"),
                           ({**good, "indices": [0, 1]}, "4 indices"),
                           # int() used to read 5.7, "5" and true as 5, 5 and 1
                           *(({**good, field: [0, 1, 2, value] if field == "indices"
                               else value}, rf"{field} must be an integer, got {value!r}$")
                             for field in ("indices", "d_ab", "d_cd", "d_ac", "d_bd")
                             for value in (5.7, "5", True))):
        _write_lines(path, [good, record])
        with pytest.raises(ValueError, match=f"quads.jsonl: line 2: .*{detail}"):
            read_quadruples(path)


def test_read_models_names_file_and_line(tmp_path):
    path = tmp_path / "models.jsonl"
    write_models(path, [extract_rewriting_model(*BLANKET)])
    good = json.loads(path.read_text(encoding="utf-8"))
    # a support of the wrong shape is an error, not a model with empty support
    for record, detail in (({**good, "support": "junk"}, "support"),
                           ({**good, "support": good["support"][:1]}, "support"),
                           ({**good, "support": [["a", "b"], ["c", "d"]]}, "list of tokens"),
                           ({k: v for k, v in good.items() if k != "support"},
                            "missing field 'support'"),
                           ({**good, "tgt_suffix": None}, "list of tokens")):
        _write_lines(path, [good, record])
        with pytest.raises(ValueError, match=f"models.jsonl: line 2: .*{detail}"):
            read_models(path)
