import hashlib
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bimine.corpus_io import (
    DEFAULT_ABBREVIATIONS,
    BiSentence,
    BitextCorpus,
    clean_document,
    corpus_stats,
    digest,
    file_digest,
    pair_articles,
    read_article_dump,
    read_article_store,
    read_bitext,
    read_links,
    sample_test_set,
    segment_sentences,
    tokenize,
    write_article_store,
    write_bitext,
)
from bimine.corpus_io import (_CLEAN_STEPS, _ENTITIES, ArticlePair, Document, _flatten,
                              normalize_space)
from bimine.lexicon import read_lexicon


# ---------------------------------------------------------------------------
# reference cleaner: an independent, character-scanning implementation of the
# same cleaning rules, used as the oracle for the 20-document fixture

def _drop_block(text, open_mark, close_mark):
    while True:
        start = text.find(open_mark)
        if start < 0:
            return text
        end = text.find(close_mark, start + len(open_mark))
        if end < 0:
            return text
        text = text[:start] + " " + text[end + len(close_mark):]


def _drop_ref_blocks(text):
    import re
    text = re.sub(r"<ref[^<>]*/>", " ", text, flags=re.I)
    while True:
        m = re.search(r"<ref[^<>]*>", text, flags=re.I)
        if not m:
            return text
        end = text.find("</ref>", m.end())
        if end < 0:
            return text
        text = text[:m.start()] + " " + text[end + len("</ref>"):]


def reference_clean(raw):
    text = raw
    for _ in range(16):
        before = text
        text = _drop_block(text, "<!--", "-->")
        text = _drop_ref_blocks(text)
        text = _drop_block(text, "{|", "|}")
        text = _drop_block(text, "{{", "}}")
        # file/image links dropped, other wiki links keep their text
        out = []
        pos = 0
        while True:
            start = text.find("[[", pos)
            if start < 0:
                out.append(text[pos:])
                break
            end = text.find("]]", start)
            if end < 0:
                out.append(text[pos:])
                break
            inner = text[start + 2:end]
            out.append(text[pos:start])
            lowered = inner.lower()
            if any(lowered.startswith(ns + ":") for ns in ("file", "image", "plik", "grafika")):
                out.append(" ")
            elif "|" in inner and "[[" not in inner:
                out.append(inner.split("|", 1)[1])
            elif "[[" not in inner:
                out.append(inner)
            else:
                out.append(text[start:end + 2])
            pos = end + 2
        text = "".join(out)
        import re
        text = re.sub(r"'{2,}", " ", text)
        text = re.sub(r"^=+ *(.*?) *=+ *$", r"\1", text, flags=re.M)
        text = re.sub(r"<[^<>]+>", " ", text)
        for entity, char in [("&nbsp;", " "), ("&quot;", '"'), ("&#39;", "'"),
                             ("&lt;", "<"), ("&gt;", ">"), ("&amp;", "&")]:
            text = text.replace(entity, char)
        text = " ".join(text.split())
        if text == before:
            break
    return text


FIXTURE_DOCS = [
    "<b>Hello</b> world",
    "Hello world",
    "A.<ref>x</ref> B {| table |} C",
    "Plain text with no markup at all.",
    "Nested <i><b>tags</b></i> everywhere.",
    "A {{template|with|args}} inside text.",
    "Table {| class=\"wiki\"\n| a || b\n|} after.",
    "See [[Warsaw|the capital]] for details.",
    "Link to [[Chopin]] article.",
    "Image here [[File:chopin.jpg|thumb|A caption]] gone.",
    "Polish file [[Plik:mapa.png|mapa]] removed.",
    "Reference<ref name=\"a\">Source, 1999</ref> stays out.",
    "Self closing<ref name=\"b\"/> reference.",
    "Comment <!-- hidden text --> removed.",
    "Entities &amp; more: &lt;tag&gt; &quot;quoted&quot; &nbsp;space.",
    "''Italic'' and '''bold''' markup.",
    "== Heading ==\nBody text follows.",
    "Multiple   spaces\n\nand\tnewlines.",
    "Mixed <span class='x'>span</span> with {{cite|x}} and <ref>r</ref> and {| t |}.",
    "Unclosed <ref>reference runs to end",
]


def test_clean_trivial_tag_stripping():
    assert clean_document("<b>Hello</b> world") == "Hello world"


def test_clean_identity_on_clean_text():
    assert clean_document("Hello world") == "Hello world"


def test_clean_ref_and_table_blocks():
    assert clean_document("A.<ref>x</ref> B {| table |} C") == "A. B C"


def test_clean_against_reference_cleaner_fixture():
    for doc in FIXTURE_DOCS:
        assert clean_document(doc) == reference_clean(doc), doc


def test_clean_empty():
    assert clean_document("") == ""


@settings(max_examples=200)
@given(st.text(alphabet="ab <>{}|[]'=&;ref!-\n.", max_size=80))
def test_clean_idempotent(text):
    once = clean_document(text)
    assert clean_document(once) == once


# template and table blocks nested to any depth, with stray brackets inside
_NESTED_MARKUP = st.lists(
    st.tuples(st.sampled_from(["{{", "{|"]), st.text(alphabet="a |{}", max_size=3)),
    max_size=40,
).map(lambda levels: "x " + "".join(o + filler for o, filler in levels)
      + "".join("}}" if o == "{{" else "|}" for o, _ in reversed(levels)) + " y")


@settings(max_examples=200)
@example("x " + "{{a " * 20 + "}}" * 20 + " y")
@given(_NESTED_MARKUP)
def test_clean_idempotent_on_nested_markup(text):
    once = clean_document(text)
    assert clean_document(once) == once


def test_clean_idempotent_on_fixture():
    for doc in FIXTURE_DOCS:
        once = clean_document(doc)
        assert clean_document(once) == once


def _clean_whole_text(raw):
    """clean_document with every pattern applied to the whole text, as it
    was before comment and reference blocks were cut at their last closer."""
    text = raw
    while True:
        prev = text
        for pattern, repl, _closed in _CLEAN_STEPS:
            text = pattern.sub(repl, text)
        for entity, char in _ENTITIES:
            text = text.replace(entity, char)
        text = normalize_space(text)
        if text == prev:
            return text


# pieces of comment and reference markup, closed and not, in mixed case and
# with characters whose lowercase form is longer ("İ") or folds ("K")
_MARKUP_PIECES = st.sampled_from([
    "<!--", "-->", "<!-->", "--", "<ref>", "</ref>", "<REF name=a>", "</Ref>", "<ref/>",
    "<ref ", "</ref", "<", ">", "/>", "İ", "\u212a", "ref", "x", " ", "\n", "{{", "}}",
    "&amp;", "<b>"])


@settings(max_examples=300)
@example("<!--a--> <!--b")
@example("<ref>a</REF> İ<ref>b")
@example("<ref name=x/> a </ref> <!--")
@given(st.lists(_MARKUP_PIECES, max_size=30).map("".join))
def test_clean_equals_the_whole_text_loop(text):
    assert clean_document(text) == _clean_whole_text(text)


@pytest.mark.parametrize("opener", ["<ref>x", "<!--x"])
def test_clean_unclosed_openers_in_linear_time(opener):
    # in a child process with a timeout: every opener with no closer after
    # it used to be rescanned to the end of the text, which took minutes at
    # this size (500 KB and more)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from bimine.corpus_io import clean_document; "
            "sys.stdout.write(clean_document(sys.argv[2] * 100_000))")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", code, str(src), opener],
                         capture_output=True, text=True, check=True, timeout=30)
    # a reference opener is a tag, dropped as any other; a comment opener
    # without its closer is text
    assert run.stdout == (" ".join(["x"] * 100_000) if opener == "<ref>x"
                          else opener * 100_000)


# ---------------------------------------------------------------------------
# segmentation

def test_segment_two_sentences():
    assert [s.text for s in segment_sentences("A jest. B jest.")] == \
        ["A jest.", "B jest."]


def test_segment_empty():
    assert segment_sentences("") == []


def test_segment_abbreviation_not_split():
    texts = [s.text for s in segment_sentences("Dr. Smith arrived. He left.")]
    assert texts == ["Dr. Smith arrived.", "He left."]


def test_segment_initials_not_split():
    texts = [s.text for s in segment_sentences("He met J. Smith. Then he left.")]
    assert texts == ["He met J. Smith.", "Then he left."]


def test_segment_indices_consecutive():
    sents = segment_sentences("One is here. Two is here! Three is here?")
    assert [s.index for s in sents] == [0, 1, 2]


def test_segment_tokens_non_empty_iff_text():
    for s in segment_sentences("One is here. Two! Three?"):
        assert bool(s.tokens) == bool(s.text)


@settings(max_examples=150)
@given(st.lists(st.sampled_from(
    ["Ala ma kota.", "To jest dom!", "Gdzie jest dworzec?", "Numer 42 wygrywa.",
     "Dr. Nowak przyszedl.", "Czy to prawda?"]), min_size=0, max_size=8))
def test_segment_preserves_content(parts):
    body = " ".join(parts)
    joined = " ".join(s.text for s in segment_sentences(body))
    assert " ".join(joined.split()) == " ".join(body.split())


# reference segmenter: the earlier implementation, which copies the rest of
# the text and regex-scans everything before each terminator (quadratic)

def _reference_boundary(text, term, end, abbrevs):
    if end >= len(text):
        return True
    if not text[end].isspace():
        return False
    follow = text[end:].lstrip()
    if not follow:
        return True
    if not (follow[0].isupper() or follow[0].isdigit()):
        return False
    if text[term] == ".":
        word = re.search(r"(\S+)$", text[: term + 1])
        if word:
            w = word.group(1)
            if w in abbrevs or w.lower() in abbrevs:
                return False
            if len(w) == 2 and w[0].isupper() and w[1] == ".":
                return False
    return True


def _reference_segment(text):
    spans, start, i = [], 0, 0
    while i < len(text):
        if text[i] in ".!?":
            end = i + 1
            while end < len(text) and text[end] in "\"'”’)]«»":
                end += 1
            if _reference_boundary(text, i, end, DEFAULT_ABBREVIATIONS):
                spans.append(text[start:end])
                start = i = end
                continue
        i += 1
    spans.append(text[start:])
    stripped = [span.strip() for span in spans if span.strip()]
    return [(s, tuple(tokenize(s)), k) for k, s in enumerate(stripped)]


# terminators, closers, abbreviations, initials, digits, letters and
# whitespace that str.isspace() accepts but a plain " " test would miss
_SEGMENT_PIECES = [".", "!", "?", '"', "'", "”", "’", ")", "]", "«", "»",
                   "Dr.", "dr.", "ok.", "U.S.", "e.g.", "J.", "j.", "Ab.",
                   "a", "Ab", "z", "Z", "Ł", "7", "42", " ", "  ", "\n", "\t",
                   "\xa0", " ", "　", "\x1c"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SEGMENT_PIECES), max_size=40).map("".join))
@example("Dr. Smith arrived. He left.")
@example("'.   \xa0 ”")
def test_segment_equals_reference_segmenter(text):
    # Sentence instances from two module copies never compare equal, so
    # compare field tuples
    got = [(s.text, s.tokens, s.index) for s in segment_sentences(text)]
    assert got == _reference_segment(text)


def test_segment_long_document_is_linear():
    # 1000 sentences, each ending in an abbreviation check; the earlier
    # implementation took seconds here
    body = "Dr. Nowak met J. Smith at 5 p.m. in the U.S. Then they left. " * 1000
    started = time.perf_counter()
    sentences = segment_sentences(body)
    assert time.perf_counter() - started < 1.0
    assert len(sentences) == 1000


# ---------------------------------------------------------------------------
# tokenization
# hand-tokenized fixture: expectations written manually, not generated

TOKEN_FIXTURE = [
    ("Hello world", ["Hello", "world"]),
    ("Hello, world!", ["Hello", ",", "world", "!"]),
    ("Poproszę koc.", ["Poproszę", "koc", "."]),
    ("U.S. Dept.", ["U.S.", "Dept", "."]),
    ("One two three", ["One", "two", "three"]),
    ("A b c.", ["A", "b", "c", "."]),
    ("What is this?", ["What", "is", "this", "?"]),
    ("Stop!", ["Stop", "!"]),
    ("don't stop", ["don't", "stop"]),
    ("it's fine", ["it's", "fine"]),
    ("well-known fact", ["well-known", "fact"]),
    ("state-of-the-art", ["state-of-the-art"]),
    ("3.14 is pi", ["3.14", "is", "pi"]),
    ("1,000 people", ["1,000", "people"]),
    ("year 1920", ["year", "1920"]),
    ("42", ["42"]),
    ("The answer is 42.", ["The", "answer", "is", "42", "."]),
    ("(parentheses)", ["(", "parentheses", ")"]),
    ("[brackets]", ["[", "brackets", "]"]),
    ("\"quoted\"", ["\"", "quoted", "\""]),
    ("semi;colon", ["semi", ";", "colon"]),
    ("a:b", ["a", ":", "b"]),
    ("x/y", ["x", "/", "y"]),
    ("a+b=c", ["a", "+", "b", "=", "c"]),
    ("50%", ["50", "%"]),
    ("$100", ["$", "100"]),
    ("Dr. Smith", ["Dr.", "Smith"]),
    ("Mr. Jones left.", ["Mr.", "Jones", "left", "."]),
    ("Prof. Nowak", ["Prof.", "Nowak"]),
    ("e.g. this", ["e.g.", "this"]),
    ("i.e. that", ["i.e.", "that"]),
    ("etc. and so on", ["etc.", "and", "so", "on"]),
    ("vs. them", ["vs.", "them"]),
    ("No. 5", ["No.", "5"]),
    ("Fig. 2 shows", ["Fig.", "2", "shows"]),
    ("Ala ma kota", ["Ala", "ma", "kota"]),
    ("Zażółć gęślą jaźń", ["Zażółć", "gęślą", "jaźń"]),
    ("np. tak", ["np.", "tak"]),
    ("m.in. to", ["m.in.", "to"]),
    ("itd. i itp.", ["itd.", "i", "itp."]),
    ("ul. Długa 5", ["ul.", "Długa", "5"]),
    ("1920 r. był", ["1920", "r.", "był"]),
    ("ok. 30 tys. osób", ["ok.", "30", "tys.", "osób"]),
    ("Woda, chleb i sól.", ["Woda", ",", "chleb", "i", "sól", "."]),
    ("Co to jest?", ["Co", "to", "jest", "?"]),
    ("Tak!", ["Tak", "!"]),
    ("a...", ["a", ".", ".", "."]),
    ("end.", ["end", "."]),
    ("one. two", ["one", ".", "two"]),
    ("A-1", ["A", "-", "1"]),
    ("word- break", ["word", "-", "break"]),
    ("-dash", ["-", "dash"]),
    ("under_score", ["under", "_", "score"]),
    ("camelCase stays", ["camelCase", "stays"]),
    ("MiXeD CaSe", ["MiXeD", "CaSe"]),
    ("ABC", ["ABC"]),
    ("a.b", ["a", ".", "b"]),
    ("1.2.3", ["1.2.3"]),
    ("12:30", ["12", ":", "30"]),
    ("2020-01-01", ["2020", "-", "01", "-", "01"]),
    ("a,b", ["a", ",", "b"]),
    ("x;y;z", ["x", ";", "y", ";", "z"]),
    ("«quote»", ["«", "quote", "»"]),
    ("„polish quote”", ["„", "polish", "quote", "”"]),
    ("O'Brien", ["O'Brien"]),
    ("rock'n'roll", ["rock'n'roll"]),
    ("He said: go.", ["He", "said", ":", "go", "."]),
    ("Wait... what?", ["Wait", ".", ".", ".", "what", "?"]),
    ("tab\tseparated", ["tab", "separated"]),
    ("new\nline", ["new", "line"]),
    ("  padded  ", ["padded"]),
    ("", []),
    ("?", ["?"]),
    (".", ["."]),
    ("!?", ["!", "?"]),
    ("@user", ["@", "user"]),
    ("#tag", ["#", "tag"]),
    ("a&b", ["a", "&", "b"]),
    ("café", ["café"]),
    ("naïve", ["naïve"]),
    ("Zürich", ["Zürich"]),
    ("łódź", ["łódź"]),
    ("świat", ["świat"]),
    ("jutro będzie lepiej", ["jutro", "będzie", "lepiej"]),
    ("7 dni", ["7", "dni"]),
    ("24h", ["24", "h"]),
    ("5km away", ["5", "km", "away"]),
    ("No 5", ["No", "5"]),
    ("number one", ["number", "one"]),
    ("Jan Kowalski ma 30 lat.", ["Jan", "Kowalski", "ma", "30", "lat", "."]),
    ("To kosztuje 9,99 zł.", ["To", "kosztuje", "9,99", "zł", "."]),
    ("Pada deszcz, więc zostańmy.", ["Pada", "deszcz", ",", "więc", "zostańmy", "."]),
    ("Ile to kosztuje?", ["Ile", "to", "kosztuje", "?"]),
    ("Dwa plus dwa to cztery.", ["Dwa", "plus", "dwa", "to", "cztery", "."]),
    ("A blanket, please.", ["A", "blanket", ",", "please", "."]),
    ("Can I have cream and sugar?", ["Can", "I", "have", "cream", "and", "sugar", "?"]),
    ("This is origami.", ["This", "is", "origami", "."]),
    ("It is origami.", ["It", "is", "origami", "."]),
    ("The boy runs.", ["The", "boy", "runs", "."]),
    ("Boys run fast.", ["Boys", "run", "fast", "."]),
]


def test_token_fixture_has_100_sentences():
    assert len(TOKEN_FIXTURE) == 100


def test_tokenize_against_hand_fixture():
    for text, expected in TOKEN_FIXTURE:
        assert tokenize(text) == [t.lower() for t in expected], text


def test_tokenize_lowercase_flag():
    assert tokenize("Poproszę koc.") == ["poproszę", "koc", "."]
    assert tokenize("U.S. Dept.") == ["u.s.", "dept", "."]


def test_tokenize_empty():
    assert tokenize("") == []


@settings(max_examples=500, deadline=None)
@given(st.text())
@example("U.S. army")
@example("Mr. Fig. Inc. u.K.")
@example("İstanbul DİYARBAKIR")
@example("x'İİy i\u0307\u0307 I\u0307")
def test_tokenize_reproduces_its_own_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


def test_tokenize_keeps_abbreviations_in_lowercase():
    assert tokenize("U.S. army") == tokenize("u.s. army") == ["u.s.", "army"]
    assert tokenize("mr. fig. inc.") == ["mr.", "fig.", "inc."]
    assert tokenize("İstanbul") == ["i\u0307stanbul"]


# ---------------------------------------------------------------------------
# article pairing

def test_pair_articles_linked_pair():
    pairs = pair_articles({"Kot": "kot tekst"}, {"Cat": "cat text"},
                          [("Kot", "Cat")], "pl", "en")
    assert len(pairs) == 1
    assert pairs[0].src.title == "Kot"
    assert pairs[0].tgt.title == "Cat"


def test_pair_articles_missing_counterpart():
    assert pair_articles({"Kot": "x"}, {}, [("Kot", "Cat")], "pl", "en") == []


def test_pair_articles_id_assignment():
    src = {"A": "1", "B": "2", "C": "3"}
    tgt = {"X": "1", "Y": "2"}
    pairs = pair_articles(src, tgt, [("A", "X"), ("B", "Y")], "pl", "en")
    assert [p.id for p in pairs] == [0, 1]


def test_pair_articles_duplicate_link_error():
    with pytest.raises(ValueError, match="Kot"):
        pair_articles({"Kot": "x"}, {"Cat": "y"}, [("Kot", "Cat"), ("Kot", "Cat")],
                      "pl", "en")


# ---------------------------------------------------------------------------
# sampling

def _corpus(n):
    return BitextCorpus([BiSentence(f"s {i}", f"t {i}") for i in range(n)])


def test_sample_paper_scale_counts():
    test, train = sample_test_set(_corpus(200_000), 200, 10, seed=3)
    assert len(test.pairs) == 2000
    assert len(train.pairs) == 198_000


def test_sample_exhaustive_draw():
    test, train = sample_test_set(_corpus(2000), 200, 10, seed=1)
    assert len(test.pairs) == 2000
    assert train.pairs == []


def test_sample_deterministic():
    a = sample_test_set(_corpus(5000), 100, 5, seed=9)
    b = sample_test_set(_corpus(5000), 100, 5, seed=9)
    assert [p.src for p in a[0].pairs] == [p.src for p in b[0].pairs]


def test_sample_partition():
    corpus = _corpus(450)
    test, train = sample_test_set(corpus, 40, 3, seed=2)
    test_keys = {p.src for p in test.pairs}
    train_keys = {p.src for p in train.pairs}
    assert not (test_keys & train_keys)
    assert len(test.pairs) + len(train.pairs) == len(corpus.pairs)
    assert test_keys | train_keys == {p.src for p in corpus.pairs}


def test_sample_too_small_reports_minimum():
    with pytest.raises(ValueError, match="2000"):
        sample_test_set(_corpus(100), 200, 10, seed=0)


@pytest.mark.parametrize("segments, per_segment, message", [
    (0, 10, "segments must be >= 1, got 0"), (10, -1, "per_segment must be >= 1, got -1")])
def test_sample_refuses_fewer_than_one_segment_or_draw(segments, per_segment, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_test_set(_corpus(100), segments, per_segment, seed=0)


def test_sample_covers_every_segment():
    # with one draw per segment, every segment contributes exactly one pair
    corpus = _corpus(100)
    test, _ = sample_test_set(corpus, 10, 1, seed=4)
    indices = sorted(int(p.src.split()[1]) for p in test.pairs)
    for k, idx in enumerate(indices):
        assert k * 10 <= idx < (k + 1) * 10


# ---------------------------------------------------------------------------
# statistics

def test_stats_empty():
    report = corpus_stats(BitextCorpus([]))
    assert report["sentences"] == 0
    assert report["src"]["tokens"] == 0
    assert report["tgt"]["unique_tokens"] == 0


def test_stats_hand_counted():
    corpus = BitextCorpus([BiSentence("a b", "x"), BiSentence("a c", "x y")])
    report = corpus_stats(corpus)
    assert report["src"]["tokens"] == 4
    assert report["src"]["unique_tokens"] == 3
    assert report["tgt"]["tokens"] == 3
    assert report["tgt"]["unique_tokens"] == 2


def test_stats_report_shape():
    report = corpus_stats(_corpus(3))
    for side in ("src", "tgt"):
        assert set(report[side]) == {"bytes", "tokens", "unique_tokens"}
    assert "sentences" in report


def test_stats_concatenation_sums():
    rng = random.Random(5)
    words = ["ala", "ma", "kota", "dom", "42"]
    def rand_corpus(n):
        return BitextCorpus([
            BiSentence(" ".join(rng.choices(words, k=3)),
                       " ".join(rng.choices(words, k=2)))
            for _ in range(n)])
    c1, c2 = rand_corpus(20), rand_corpus(30)
    both = BitextCorpus(c1.pairs + c2.pairs)
    s1, s2, s = corpus_stats(c1), corpus_stats(c2), corpus_stats(both)
    assert s["sentences"] == s1["sentences"] + s2["sentences"]
    for side in ("src", "tgt"):
        assert s[side]["tokens"] == s1[side]["tokens"] + s2[side]["tokens"]
        assert s[side]["bytes"] == s1[side]["bytes"] + s2[side]["bytes"]
        u, u1, u2 = (s[side]["unique_tokens"], s1[side]["unique_tokens"],
                     s2[side]["unique_tokens"])
        assert max(u1, u2) <= u <= u1 + u2
        assert s[side]["tokens"] >= s[side]["unique_tokens"]


# ---------------------------------------------------------------------------
# file formats

def test_bitext_roundtrip(tmp_path):
    corpus = BitextCorpus([BiSentence("a b", "x y", 0.75),
                           BiSentence("c", "z", 0.5)])
    path = tmp_path / "corpus.tsv"
    write_bitext(path, corpus)
    back = read_bitext(path)
    assert [(p.src, p.tgt, p.score) for p in back.pairs] == \
        [("a b", "x y", 0.75), ("c", "z", 0.5)]


def test_bitext_flattens_tabs_and_newlines(tmp_path):
    corpus = BitextCorpus([BiSentence("a\tb\nc", "x")])
    path = tmp_path / "c.tsv"
    write_bitext(path, corpus)
    back = read_bitext(path)
    assert back.pairs[0].src == "a b c"


def test_bitext_flip_on_load(tmp_path):
    path = tmp_path / "c.tsv"
    write_bitext(path, BitextCorpus([BiSentence("src", "tgt", 0.5)]))
    flipped = read_bitext(path, flip=True)
    assert (flipped.pairs[0].src, flipped.pairs[0].tgt) == ("tgt", "src")


def test_bitext_bad_score_names_file_and_line(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("a\tx\t0.5\nb\ty\tnot-a-score\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: "):
        read_bitext(path)


def test_article_dump_invalid_json_names_file_and_line(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text('{"title": "a", "text": "b"}\n{"title": \n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: "):
        read_article_dump(path)


def test_article_store_roundtrip(tmp_path):
    pairs = [ArticlePair(0, Document("pl", "Kot", "Kot tekst."),
                         Document("en", "Cat", "Cat text."))]
    path = tmp_path / "store.jsonl"
    write_article_store(path, pairs)
    back = list(read_article_store(path))
    assert back == pairs


# text built from what line-based formats trip over: tab, CR, LF, NEL (U+0085),
# LINE SEPARATOR (U+2028), NUL, combining marks and the byte order mark
_HOSTILE_TEXT = st.text(st.sampled_from(
    ["\t", "\r", "\n", "\x85", "\u2028", "\x00", "\u0301", "\u0328", "\ufeff", " ",
     "\\", '"', "a", "ż", "\U0001F600"]), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_HOSTILE_TEXT, _HOSTILE_TEXT, st.floats()), max_size=5))
def test_bitext_round_trip_gives_back_flattened_text_and_score(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "round-trip.tsv"
    write_bitext(path, BitextCorpus([BiSentence(s, t, score) for s, t, score in rows]))
    back = read_bitext(path)
    assert [(p.src, p.tgt, f"{p.score:.6f}") for p in back.pairs] == \
        [(_flatten(s), _flatten(t), f"{score:.6f}") for s, t, score in rows]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(
    ArticlePair, st.integers(),
    st.builds(Document, _HOSTILE_TEXT, _HOSTILE_TEXT, _HOSTILE_TEXT),
    st.builds(Document, _HOSTILE_TEXT, _HOSTILE_TEXT, _HOSTILE_TEXT)), max_size=4))
def test_article_store_round_trip_gives_back_equal_pairs(tmp_path_factory, pairs):
    path = tmp_path_factory.getbasetemp() / "round-trip.jsonl"
    write_article_store(path, pairs)
    assert list(read_article_store(path)) == pairs


def test_article_store_bad_record_names_line(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"id": 0}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        list(read_article_store(path))


@pytest.mark.parametrize("value, shown", [("5.7", "5.7"), ('"5"', "'5'"), ("true", "True")])
def test_article_store_refuses_an_id_that_is_not_an_integer(tmp_path, value, shown):
    # int() used to read all three as an id: 5, 5 and 1
    path = tmp_path / "store.jsonl"
    path.write_text('{"id": 0, "src_lang": "pl", "tgt_lang": "en", "src_title": "", '
                    '"tgt_title": "", "src_text": "", "tgt_text": ""}\n'
                    f'{{"id": {value}, "src_lang": "pl", "tgt_lang": "en", "src_title": "", '
                    '"tgt_title": "", "src_text": "", "tgt_text": ""}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: "
                                         rf"id must be an integer, got {shown}$"):
        list(read_article_store(path))


def test_article_store_invalid_json_names_line(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        list(read_article_store(path))


def test_article_store_reads_a_surrogate_pair_escape(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"id": 0, "src_lang": "pl", "tgt_lang": "en", "src_title": "Kot", '
                    '"tgt_title": "Cat", "src_text": "Kot \\ud83d\\ude00.", '
                    '"tgt_text": "\\\\ud800 is text"}\n', encoding="utf-8")
    [pair] = read_article_store(path)
    assert (pair.src.body, pair.tgt.body) == ("Kot \U0001F600.", "\\ud800 is text")


def test_article_dump_rejects_a_repeated_title(tmp_path):
    path = tmp_path / "dump.jsonl"
    path.write_text('{"title": "Kot", "text": "Pierwszy."}\n'
                    '{"title": "Pies", "text": "Trzeci."}\n'
                    '{"title": "Kot", "text": "Drugi."}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 3: "
                                         r"duplicate title 'Kot'$"):
        read_article_dump(path)


# ---------------------------------------------------------------------------
# one line reader behind every TSV and JSON-lines input

# each reader with a valid first line for its format
READERS = {
    "bitext": (read_bitext, b"a\tb\t0.5\n"),
    "bitext-flipped": (lambda path: read_bitext(path, flip=True), b"a\tb\n"),
    "links": (read_links, b"Kot\tCat\n"),
    "lexicon": (read_lexicon, b"kot\tcat\t1\n"),
    "article dump": (read_article_dump, b'{"title": "Kot", "text": "x"}\n'),
    "article store": (lambda path: list(read_article_store(path)),
                      b'{"id": 0, "src_lang": "pl", "tgt_lang": "en", "src_title": "Kot", '
                      b'"tgt_title": "Cat", "src_text": "x", "tgt_text": "y"}\n'),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_names_the_line_that_is_not_utf8(tmp_path, reader):
    read, first = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(first + b"\xff" + first)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 2: not UTF-8"):
        read(path)


@pytest.mark.parametrize("data, lineno", [
    (b"a\tb\rc\td\r\ne\t\xe2\x82\n", 3),      # a lone CR ends a line too
    (b"a\tb\n" * 5000 + b"c\td\xff\n", 5001),    # past the first decoded chunk
    (b"a\tb\n\n\xc3", 3),                         # a sequence cut off at the end
])
def test_the_line_that_is_not_utf8_is_counted_as_text_mode_counts(tmp_path, data, lineno):
    path = tmp_path / "links.tsv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line {lineno}: "):
        read_links(path)


def test_blank_line_rules(tmp_path):
    path = tmp_path / "input"
    # TSV skips only empty lines, whatever their newline
    path.write_bytes(b"a\tb\n\r\n\n\rc\td")
    assert read_links(path) == [("a", "b"), ("c", "d")]
    path.write_bytes(b"a\tb\n \n")
    with pytest.raises(ValueError, match=r": line 2: expected 2 columns"):
        read_links(path)
    # JSON lines skip whitespace-only lines
    path.write_bytes(b' \t\n{"title": "Kot", "text": "x"}\n\n')
    assert read_article_dump(path) == {"Kot": "x"}


def test_bitext_keeps_taking_extra_columns(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_bytes(b"a\tb\t0.25\tnote\n")
    assert [(p.src, p.tgt, p.score) for p in read_bitext(path).pairs] == [("a", "b", 0.25)]


@pytest.mark.parametrize("data, detail", [
    (b"[" * 100_000, "maximum recursion depth"),
    (b'{"id": 1e999, "src_lang": "pl", "tgt_lang": "en", "src_title": "", '
     b'"tgt_title": "", "src_text": "", "tgt_text": ""}', "id must be an integer, got inf$"),
    # JSON reads a lone surrogate escape, but no UTF-8 file could hold it
    (b'{"id": 0, "src_lang": "pl", "tgt_lang": "en", "src_title": "Kot", '
     b'"tgt_title": "Cat", "src_text": "Kot \\ud800 pije.", "tgt_text": ""}',
     r"unpaired surrogate escape \\ud800$"),
    (b'{"id": 0, "src_lang": "pl", "tgt_lang": "en", "src_title": "Kot", '
     b'"tgt_title": "Cat", "src_text": "", "tgt_text": "\\uDE00\\ud83d"}',
     r"unpaired surrogate escape \\ude00$"),
])
def test_store_line_that_breaks_the_json_decoder_names_the_line(tmp_path, data, detail):
    path = tmp_path / "store.jsonl"
    path.write_bytes(data + b"\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: line 1: .*{detail}"):
        list(read_article_store(path))


_FRAGMENTS = st.sampled_from([
    "\t", "\r", "\n", "\r\n", " ", "{", "}", "[", "]", ":", ",", '"', "null", "0.5",
    "-3", "nan", "1e999", '"title": "Kot"', '"text": "x"', '"id": 0',
    *(first.decode("utf-8") for _, first in READERS.values()),
])
_CONTENTS = st.one_of(
    st.binary(max_size=120),
    st.lists(st.one_of(_FRAGMENTS, st.text(max_size=4)), max_size=24)
    .map(lambda parts: "".join(parts).encode("utf-8")))


@settings(max_examples=300, deadline=None)
@given(_CONTENTS)
@example(b"a\tb\n\xff\tb\n")
def test_readers_return_or_name_file_and_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    for reader, (read, _) in READERS.items():
        try:
            read(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: line "), (reader, str(exc))


# ---------------------------------------------------------------------------
# digests: CPython's built-in SHA-256, the same as hashlib's

@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=300), repeat=st.integers(0, 900))
def test_digests_equal_hashlib_sha256(tmp_path_factory, data, repeat):
    # up to 270 000 bytes: a file of several 65 536-byte read blocks
    blob = data * repeat + data
    path = tmp_path_factory.getbasetemp() / "digest.bin"
    path.write_bytes(blob)
    expected = hashlib.sha256(blob).hexdigest()
    assert digest(blob) == expected
    assert file_digest(path) == expected


def test_digests_without_the_builtin_module_come_from_hashlib(tmp_path):
    # as on a build without CPython's built-in hashes
    blob = bytes(range(256)) * 600
    path = tmp_path / "digest.bin"
    path.write_bytes(blob)
    code = ("import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
            "sys.path.insert(0, sys.argv[1]); from bimine import corpus_io; "
            "print(corpus_io.sha256.__module__ or '', '_hashlib' in sys.modules); "
            "print(corpus_io.digest(b'kot')); print(corpus_io.file_digest(sys.argv[2]))")
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src), str(path)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [
        "_hashlib True", hashlib.sha256(b"kot").hexdigest(), hashlib.sha256(blob).hexdigest()]
