"""Bilingual document and sentence corpus handling.

Owns the readers of every text, TSV, JSON-lines and JSON input, their error
contract, the rule for a JSON number, the range of each numeric setting,
the SHA-256 digests of manifests and checksums (``iter_lines``,
``iter_tsv``, ``iter_jsonl``, ``read_json``, ``json_number``, ``RANGES``,
``digest``, ``file_digest``) and the formats below; the lexicon, synonym,
model, quadruple and rewriting-model layouts live elsewhere.

* article dump:        JSON lines, one ``{"title": ..., "text": ...}`` object per line
* article-pair store:  JSON lines, one topic-aligned pair per line with fields
                       (id, src_lang, tgt_lang, src_title, tgt_title, src_text, tgt_text)
* bitext corpus:       UTF-8 TSV, columns ``src<TAB>tgt[<TAB>score]``; tabs and
                       newlines inside sentences are replaced by spaces at write time
* links file:          TSV ``src_title<TAB>tgt_title``

Also provides document cleaning, sentence segmentation, tokenization,
article pairing, test-set sampling and corpus statistics.
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping

# SHA-256 from CPython's built-in module, as random.py takes its SHA-512:
# hashlib loads OpenSSL's libcrypto, about 3.5 MiB of resident memory in
# every process, and the digests are the same
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256


class Document(namedtuple("Document", "lang title body")):
    __slots__ = ()
    lang: str
    title: str
    body: str


class ArticlePair(namedtuple("ArticlePair", "id src tgt")):
    """A topic-aligned bilingual document pair; the unit of mining."""

    __slots__ = ()
    id: int
    src: Document
    tgt: Document


class Sentence(namedtuple("Sentence", "text tokens index")):
    __slots__ = ()
    text: str
    tokens: tuple[str, ...]
    index: int


class BiSentence(namedtuple("BiSentence", "src tgt score origin", defaults=(1.0, None))):
    """One mined or generated sentence pair with score and provenance.

    ``origin`` is ``(article_id, src_index, tgt_index, direction_tag)`` or
    ``None`` for pairs loaded from plain bitext files.
    """

    __slots__ = ()
    src: str
    tgt: str
    score: float
    origin: tuple[int, int, int, str] | None


class BitextCorpus:
    def __init__(self, pairs: list[BiSentence]) -> None:
        self.pairs = pairs

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitextCorpus):
            return NotImplemented
        return self.pairs == other.pairs


# ---------------------------------------------------------------------------
# cleaning

# (pattern, replacement, closed): ``closed`` matches the text up to the end
# of the pattern's last closer.  Every match of a comment or reference
# block ends there, so the pattern is applied to that text alone, and an
# opener with no closer after it is not rescanned to the end of the text
# (which made such text quadratic).  ``closed`` uses the pattern's own flags
# rather than an index into a lowered copy, which can be longer:
# "İ".lower() is two characters.
_CLEAN_STEPS = [
    (re.compile(r"<!--.*?-->", re.DOTALL), " ", re.compile(r".*-->", re.DOTALL)),
    (re.compile(r"<ref[^<>]*/>", re.IGNORECASE), " ", None),
    (re.compile(r"<ref[^<>]*>.*?</ref>", re.IGNORECASE | re.DOTALL), " ",
     re.compile(r".*</ref>", re.IGNORECASE | re.DOTALL)),
    # table and template blocks, innermost first; the fixpoint loop below
    # peels nested levels one at a time
    (re.compile(r"\{\|(?:(?!\{\|).)*?\|\}", re.DOTALL), " ", None),
    (re.compile(r"\{\{(?:(?!\{\{).)*?\}\}", re.DOTALL), " ", None),
    (re.compile(r"\[\[(?:file|image|plik|grafika):(?:(?!\[\[).)*?\]\]",
                re.IGNORECASE | re.DOTALL), " ", None),
    (re.compile(r"\[\[[^\[\]|]*\|([^\[\]]*)\]\]"), r"\1", None),
    (re.compile(r"\[\[([^\[\]]*)\]\]"), r"\1", None),
    (re.compile(r"'{2,}"), " ", None),
    (re.compile(r"^=+ *(.*?) *=+ *$", re.MULTILINE), r"\1", None),
    (re.compile(r"<[^<>]+>"), " ", None),
]

_ENTITIES = [
    ("&nbsp;", " "),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&amp;", "&"),
]

_WS = re.compile(r"\s+")


def normalize_space(text: str) -> str:
    """Collapse every whitespace run to one space and strip both ends."""
    return _WS.sub(" ", text).strip()


def clean_document(raw: str) -> str:
    """Strip markup tags and drop table/reference/figure blocks from text.

    Runs the rule pipeline to a fixpoint, so the function is idempotent by
    construction.  The loop ends: every rule replaces its match with shorter
    text, and after the first pass the text is whitespace-normalised, so
    every later pass that changes the text shrinks it.
    """
    text = raw
    while True:
        prev = text
        for pattern, repl, closed in _CLEAN_STEPS:
            if closed is None:
                text = pattern.sub(repl, text)
            elif (upto := closed.match(text)) is not None:
                text = pattern.sub(repl, upto.group()) + text[upto.end():]
        for entity, char in _ENTITIES:
            text = text.replace(entity, char)
        text = normalize_space(text)
        if text == prev:
            break
    return text


# ---------------------------------------------------------------------------
# tokenization

# Tokens listed here keep their periods; everything else splits punctuation off.
DEFAULT_ABBREVIATIONS = frozenset({
    "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.", "No.", "Co.", "Inc.",
    "Ltd.", "Jr.", "Sr.", "vs.", "etc.", "e.g.", "i.e.", "al.", "Fig.",
    "U.S.", "U.K.", "approx.",
    # Polish
    "np.", "tzn.", "tzw.", "itd.", "itp.", "m.in.", "dr.", "prof.",
    "mgr.", "inż.", "ul.", "św.", "nr.", "tys.", "ok.", "r.", "w.",
})

# letters, where "i" may carry a combining dot above: "İ" lowercases to
# "i\u0307", which has to read back as one word
_LETTERS = r"[^\W\d_]+(?:\u0307(?<=i\u0307)[^\W\d_]*)*"
_WORD = rf"{_LETTERS}(?:['’-]{_LETTERS})*"
_NUMBER = r"\d+(?:[.,]\d+)*"

# listed abbreviations and their lowercase forms first, longest first, so
# "U.S." beats the word "U" and the token "u.s." stays one token
_ABBREVIATION_FORMS = DEFAULT_ABBREVIATIONS | {a.lower() for a in DEFAULT_ABBREVIATIONS}
_TOKEN_RE = re.compile("|".join(
    [*(re.escape(a) for a in sorted(_ABBREVIATION_FORMS, key=len, reverse=True)),
     _NUMBER, _WORD, r"\S"]))


def tokenize(text: str) -> list[str]:
    """Split text into lowercased tokens: words, numbers, and punctuation as
    own tokens.

    Abbreviations from the exception list keep their internal/trailing
    periods: "U.S." gives the one token "u.s.".  Tokens are matched on the
    original text and lowercased afterwards; a listed abbreviation also
    matches in lowercase, so tokenizing the joined tokens gives them back.
    """
    return [t.lower() for t in _TOKEN_RE.findall(text)]


# ---------------------------------------------------------------------------
# sentence segmentation

_TERMINATOR_RE = re.compile(r"[.!?]")
_CLOSERS = "\"'”’)]«»"


def segment_sentences(doc_body: str) -> list[Sentence]:
    """Split cleaned text into sentences.

    Rule-based: a terminator (. ! ?) followed by whitespace and an uppercase
    letter or digit ends a sentence, except after a listed abbreviation or a
    single uppercase initial.  Joining the sentence texts and collapsing
    whitespace reproduces the input.  Each terminator looks only at its own
    word and the whitespace after it, so the cost is linear in the length.
    """
    text = doc_body
    sentences: list[Sentence] = []
    start = 0
    n = len(text)
    for match in _TERMINATOR_RE.finditer(text):
        term = match.start()
        end = term + 1
        while end < n and text[end] in _CLOSERS:
            end += 1
        if _is_boundary(text, term, end):
            _push(sentences, text[start:end])
            start = end
    _push(sentences, text[start:])
    return sentences


def _is_boundary(text: str, term: int, end: int) -> bool:
    n = len(text)
    if end >= n:
        return True
    if not text[end].isspace():
        return False
    follow = end + 1
    while follow < n and text[follow].isspace():
        follow += 1
    if follow == n:
        return True
    if not (text[follow].isupper() or text[follow].isdigit()):
        return False
    if text[term] == ".":
        # the word ending at the terminator: back to the previous whitespace
        first = term
        while first > 0 and not text[first - 1].isspace():
            first -= 1
        w = text[first:term + 1]
        if w in DEFAULT_ABBREVIATIONS or w.lower() in DEFAULT_ABBREVIATIONS:
            return False
        if len(w) == 2 and w[0].isupper() and w[1] == ".":
            return False  # initials like "J."
    return True


def _push(sentences: list[Sentence], span: str) -> None:
    stripped = span.strip()
    if stripped:
        sentences.append(Sentence(
            text=stripped,
            tokens=tuple(tokenize(stripped)),
            index=len(sentences),
        ))


# ---------------------------------------------------------------------------
# article pairing

def pair_articles(src_articles: Mapping[str, str],
                  tgt_articles: Mapping[str, str],
                  links: list[tuple[str, str]],
                  src_lang: str, tgt_lang: str) -> list[ArticlePair]:
    """Pair linked articles present on both sides; assign fresh sequential ids.

    Raises ValueError when the link list maps one source title twice.
    """
    seen: set[str] = set()
    for src_title, _ in links:
        if src_title in seen:
            raise ValueError(f"duplicate link for source title {src_title!r}")
        seen.add(src_title)
    pairs = []
    for src_title, tgt_title in links:
        if src_title not in src_articles or tgt_title not in tgt_articles:
            continue
        pairs.append(ArticlePair(
            id=len(pairs),
            src=Document(src_lang, src_title, src_articles[src_title]),
            tgt=Document(tgt_lang, tgt_title, tgt_articles[tgt_title]),
        ))
    return pairs


# ---------------------------------------------------------------------------
# test-set sampling

def sample_test_set(corpus: BitextCorpus, n_segments: int, per_segment: int,
                    seed: int) -> tuple[BitextCorpus, BitextCorpus]:
    """Split a corpus into a sampled test set and the remaining training set.

    The corpus is cut into ``n_segments`` contiguous segments (the first
    ``size mod n_segments`` segments get one extra pair) and ``per_segment``
    pairs are drawn uniformly without replacement from each, so the test set
    covers the whole corpus.  Deterministic for a given seed.
    """
    in_range("segments", n_segments)
    in_range("per_segment", per_segment)
    size = len(corpus.pairs)
    needed = n_segments * per_segment
    if size < needed:
        raise ValueError(
            f"corpus has {size} pairs; sampling {n_segments} segments x "
            f"{per_segment} needs at least {needed}")
    rng = random.Random(seed)
    base, extra = divmod(size, n_segments)
    test_indices: list[int] = []
    start = 0
    for seg in range(n_segments):
        seg_len = base + (1 if seg < extra else 0)
        test_indices.extend(rng.sample(range(start, start + seg_len), per_segment))
        start += seg_len
    chosen = set(test_indices)
    test = BitextCorpus([corpus.pairs[i] for i in sorted(chosen)])
    train = BitextCorpus([p for i, p in enumerate(corpus.pairs) if i not in chosen])
    return test, train


# ---------------------------------------------------------------------------
# statistics

def corpus_stats(corpus: BitextCorpus) -> dict:
    """Per-side size/sentence/token counts on tokenized, lowercased text."""
    report: dict = {"sentences": len(corpus.pairs)}
    for side, getter in (("src", lambda p: p.src), ("tgt", lambda p: p.tgt)):
        tokens = 0
        unique: set[str] = set()
        nbytes = 0
        for pair in corpus.pairs:
            text = getter(pair)
            toks = tokenize(text)
            tokens += len(toks)
            unique.update(toks)
            nbytes += len(text.encode("utf-8"))
        report[side] = {
            "bytes": nbytes,
            "tokens": tokens,
            "unique_tokens": len(unique),
        }
    return report


# ---------------------------------------------------------------------------
# file formats

def _flatten(text: str) -> str:
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def write_bitext(path, corpus: BitextCorpus) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in corpus.pairs:
            fh.write(f"{_flatten(pair.src)}\t{_flatten(pair.tgt)}\t{pair.score:.6f}\n")


def read_bitext(path, flip: bool = False) -> BitextCorpus:
    """Read a TSV bitext file; ``flip`` swaps the two text columns on load."""
    src, tgt = (1, 0) if flip else (0, 1)

    def pair(cols):
        try:
            score = float(cols[2]) if len(cols) > 2 else 1.0
        except ValueError as exc:
            raise ValueError(f"bad score column: {exc}") from None
        return BiSentence(cols[src], cols[tgt], score)
    return BitextCorpus(list(iter_tsv(path, 2, pair, at_least=True)))


def digest(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return sha256(data).hexdigest()


def file_digest(path) -> str:
    """Hex SHA-256 of a file's bytes, read in blocks."""
    h = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_json(path, doc) -> None:
    """Write a JSON report: two-space indent, sorted keys, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_jsonl(path, records: Iterable[dict]) -> None:
    """One JSON object per line: sorted keys, non-ASCII characters as is."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


# what parsing or building a record raises on malformed input
_MALFORMED = (KeyError, AttributeError, TypeError, ValueError, OverflowError, RecursionError)


def _reason(exc: Exception) -> str:
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def iter_lines(path, blank, parse, build) -> Iterator:
    """``build(parse(line))`` of each line of a UTF-8 file but the ``blank``
    ones, read lazily; a line that is not UTF-8 or that ``parse`` or ``build``
    rejects raises ValueError "{path}: line N: reason"."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                if not blank(line):
                    yield build(parse(line))
        except UnicodeDecodeError:
            # text mode decodes ahead of the lines it returns; read again with
            # each bad byte kept as a lone surrogate to find the line
            with open(path, encoding="utf-8", errors="surrogateescape") as again:
                lineno = next((n for n, text in enumerate(again, 1)
                               if any("\udc80" <= ch <= "\udcff" for ch in text)), "?")
            raise ValueError(f"{path}: line {lineno}: not UTF-8 text") from None
        except _MALFORMED as exc:
            raise ValueError(f"{path}: line {lineno}: {_reason(exc)}") from None


def iter_tsv(path, columns: int, build, at_least: bool = False) -> Iterator:
    """``build(fields)`` of each non-empty line of a tab-separated file, read
    lazily; a line must have ``columns`` fields, or more with ``at_least``."""
    def fields(line):
        cols = line.rstrip("\n").split("\t")
        if len(cols) != columns and not (at_least and len(cols) > columns):
            raise ValueError(f"expected {'at least ' * at_least}{columns} columns")
        return cols
    # a text-mode line is never "", so only "\n" is empty
    return iter_lines(path, "\n".__eq__, fields, build)


def _json_line(line: str):
    value = json.loads(line)
    # json.loads keeps a lone surrogate escape such as \ud800, which no UTF-8
    # writer takes; only a line with a \uD... escape can hold one
    if "\\ud" in line or "\\uD" in line:
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            lone = ord(exc.object[exc.start])
            raise ValueError(f"unpaired surrogate escape \\u{lone:04x}") from None
    return value


def iter_jsonl(path, build) -> Iterator:
    """``build(record)`` of each JSON line but whitespace-only ones, read
    lazily; a KeyError from ``build`` reads as a missing field, and a string
    with an unpaired surrogate escape is rejected."""
    return iter_lines(path, str.isspace, _json_line, build)


def read_json(path, build):
    """``build(value)`` of the JSON value of a whole UTF-8 file, refused as
    ``iter_jsonl`` refuses a line: ValueError "{path}: reason"."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(_json_line(fh.read()))
        except _MALFORMED as exc:
            raise ValueError(f"{path}: {_reason(exc)}") from None


def json_number(value, what: str):
    """``value`` if it is a finite number, as a number field of a file must be:
    an int or float, not a bool or string, nor the NaN or infinity json reads."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN compares False too
        raise ValueError(f"{what} is not a finite number: {value!r}")
    return value


# The range of each numeric setting and integer file field, by name: a test
# that NaN fails and the words for it.  PipelineConfig checks a config value
# against its key's entry at load; each step checks the values it is given.
RANGES = {
    **dict.fromkeys(("threshold", "prune_below"), (lambda x: 0.0 <= x <= 1.0, "in [0, 1]")),
    "gap_cost": (lambda x: 0.0 < x <= 0.5, "in (0, 0.5]"),
    "learning_rate": (lambda x: x > 0.0, "> 0"),
    **dict.fromkeys(("margin_reg", "max_distance", "min_chars"), (lambda x: x >= 0, ">= 0")),
    **dict.fromkeys(("iterations", "epochs", "neg_per_pos", "segments", "per_segment",
                     "n_resamples", "size_guard"), (lambda x: x >= 1, ">= 1")),
    # training refuses such a model, and the mining bound needs the
    # calibrated score to fall as the margin falls
    "platt_a": (lambda x: x < 0.0, "negative"),
    # older configs carry workers = 1; each mining direction has its own process
    "workers": (lambda x: x == 1, "1 (there is no worker pool; drop the key)"),
    **dict.fromkeys(("id", "indices", "d_ab", "d_cd", "d_ac", "d_bd"),
                    (lambda x: type(x) is int, "an integer")),
}


def in_range(key: str, value, what: str = ""):
    """``value`` if it passes ``key``'s test in RANGES, else ValueError
    "{what or key} must be {words}, got {value!r}"."""
    test, words = RANGES[key]
    if not test(value):
        raise ValueError(f"{what or key} must be {words}, got {value!r}")
    return value


def string_list(value, what: str) -> list[str]:
    """``value`` if it is a list of strings, as a list field of a file must be."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a list of {what}, got {value!r}")
    return value


def write_article_store(path, pairs: Iterable[ArticlePair]) -> None:
    write_jsonl(path, ({
        "id": pair.id,
        "src_lang": pair.src.lang,
        "tgt_lang": pair.tgt.lang,
        "src_title": pair.src.title,
        "tgt_title": pair.tgt.title,
        "src_text": pair.src.body,
        "tgt_text": pair.tgt.body,
    } for pair in pairs))


def _article_pair(rec: dict) -> ArticlePair:
    return ArticlePair(
        id=in_range("id", rec["id"]),
        src=Document(rec["src_lang"], rec["src_title"], rec["src_text"]),
        tgt=Document(rec["tgt_lang"], rec["tgt_title"], rec["tgt_text"]),
    )


def read_article_store(path) -> Iterator[ArticlePair]:
    return iter_jsonl(path, _article_pair)


def read_article_dump(path) -> dict[str, str]:
    """Read a JSONL article dump into a title -> text mapping of unique titles."""
    articles: dict[str, str] = {}

    def article(rec):
        if rec["title"] in articles:
            raise ValueError(f"duplicate title {rec['title']!r}")
        return rec["title"], rec["text"]
    # update takes the pairs one by one, so article sees every earlier title
    articles.update(iter_jsonl(path, article))
    return articles


def read_links(path) -> list[tuple[str, str]]:
    return list(iter_tsv(path, 2, tuple))
