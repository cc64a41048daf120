"""Tweet-content statistics for left/right corpora.

Tokenization strips http/https URLs whole, then splits on whitespace and
punctuation while keeping '#', '@', '_' and intra-word apostrophes, so
hashtags and mentions survive as single tokens and case is preserved.
Class-discriminating words are ranked by the two-sample chi-square

    chi2 = (fL * fnotR - fR * fnotL)^2 /
           ((fL + fR) (fnotL + fnotR) (fL + fnotL) (fR + fnotR))

where fL, fR count token occurrences in the left and right corpus and
fnotL, fnotR count the remaining tokens of each side.
"""

from __future__ import annotations

import logging
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .stopwords import DEFAULT_EXTRA_STOPWORDS, ENGLISH_STOPWORDS

_URL_RE = re.compile(r"https?://\S+")
_TOKEN_RE = re.compile(r"[#@]?\w+(?:'\w+)*")
#: hashtags whose lowercase form contains this are the collection's own tag
COLLECTION_TAG = "charlottesville"
_STOPWORDS = ENGLISH_STOPWORDS | DEFAULT_EXTRA_STOPWORDS
_log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class TweetRecord:
    account: str
    utc: datetime
    text: str


@dataclass(frozen=True, eq=False)
class WordCountTable:
    left: Counter
    right: Counter
    total_left: int
    total_right: int
    n_excluded_tweets: int


@dataclass(frozen=True, slots=True)
class ChiSquareRow:
    token: str
    chi2: float
    f_left: int
    f_right: int


@dataclass(frozen=True, eq=False)
class CorpusScan:
    """What `scan_corpus` collects from a corpus."""
    sides: dict[str, Counter]  # "left", "right" -> token counts
    n_excluded_tweets: int
    hashtags: dict[int, Counter] | None
    n_skipped_tweets: int
    by_keyword: dict[str, list[TweetRecord]]


@dataclass(frozen=True)
class UniqueStats:
    total: int
    unique: int
    fraction: float | None


def tokenize(text: str) -> list[str]:
    """Split into tokens; URLs go first, case and #/@/_/' survive."""
    return _TOKEN_RE.findall(_URL_RE.sub(" ", text))


def remove_stopwords(tokens: Iterable[str]) -> list[str]:
    """Drop exact matches of the embedded English list and of the
    platform-noise set."""
    return [t for t in tokens if t not in _STOPWORDS]


def scan_corpus(corpus: Sequence[TweetRecord], classes: Mapping[str, str],
                community_of: Mapping[str, int] | None,
                keywords: Iterable[str]) -> CorpusScan:
    """Tokenize each distinct text once; its tokens feed each of its tweets'
    side word counts (stop words dropped), community hashtags (only with a
    `community_of`) and keyword hits. A first pass counts the texts, so a
    recurring text's tokens are kept only until its last tweet. Tweets with
    no side are counted as excluded, tweets with no community as skipped."""
    sides = {"left": Counter(), "right": Counter()}
    hashtags = None if community_of is None else defaultdict(Counter)
    by_keyword: dict[str, list[TweetRecord]] = {kw: [] for kw in keywords}
    excluded = skipped = tokenized = 0
    to_come = Counter(rec.text for rec in corpus)  # per text, tweets still to scan
    memo: dict[str, tuple[str, ...]] = {}  # tokens of texts that recur later
    shared: dict[str, str] = {}  # one string per token in the memo
    for rec in corpus:
        to_come[rec.text] -= 1
        tokens = memo.get(rec.text) if to_come[rec.text] else memo.pop(rec.text, None)
        if tokens is None:
            tokens, tokenized = tokenize(rec.text), tokenized + 1
            if to_come[rec.text]:
                memo[rec.text] = tuple(shared.setdefault(t, t) for t in tokens)
        bag = sides.get(classes.get(rec.account))
        if bag is None:
            excluded += 1
        else:
            bag.update(remove_stopwords(tokens))
        if hashtags is not None:
            comm = community_of.get(rec.account)
            if comm is None:
                skipped += 1
            else:
                for tok in tokens:
                    if tok[0] == "#" and COLLECTION_TAG not in tok.lower():
                        hashtags[int(comm)][tok] += 1
        for kw, hits in by_keyword.items():
            if kw in tokens:
                hits.append(rec)
    _log.debug("text scan: %d tweets, %d distinct texts, %d tokenized",
               len(corpus), len(to_come), tokenized)
    return CorpusScan(sides, excluded, hashtags, skipped, by_keyword)


def word_counts_by_class(scan: CorpusScan) -> WordCountTable:
    """Token counts over the left and right sides of the corpus."""
    left, right = scan.sides["left"], scan.sides["right"]
    return WordCountTable(left=left, right=right, total_left=sum(left.values()),
                          total_right=sum(right.values()),
                          n_excluded_tweets=scan.n_excluded_tweets)


def keyword_subset(scan: CorpusScan, keyword: str) -> list[TweetRecord]:
    """Tweets whose token stream contains the keyword exactly (case
    sensitive); the keyword must be one the scan looked for."""
    if not keyword or keyword not in scan.by_keyword:
        raise InputError(f"keyword {keyword!r} is empty or was not scanned for")
    return scan.by_keyword[keyword]


def chi_square(table: WordCountTable) -> list[ChiSquareRow]:
    """Rank tokens by how sharply they separate the two sides.

    Tokens whose denominator vanishes (a side with no other tokens) are
    skipped. Ties are broken lexicographically.
    """
    rows = []
    for token in set(table.left) | set(table.right):
        f_l = table.left.get(token, 0)
        f_r = table.right.get(token, 0)
        not_l = table.total_left - f_l
        not_r = table.total_right - f_r
        denom = (float(f_l + f_r) * float(not_l + not_r)
                 * float(f_l + not_l) * float(f_r + not_r))
        if denom == 0.0:
            continue
        num = float(f_l * not_r - f_r * not_l) ** 2
        rows.append(ChiSquareRow(token=token, chi2=num / denom,
                                 f_left=f_l, f_right=f_r))
    rows.sort(key=lambda r: (-r.chi2, r.token))
    return rows


def hashtag_top_per_community(scan: CorpusScan) -> dict[int, tuple[str, int]]:
    """Most used hashtag per community, skipping the collection tag.

    Hashtags whose lowercase form contains `COLLECTION_TAG` are ignored;
    count ties go to the lexicographically smaller tag. Communities without
    any remaining hashtag are absent from the result.
    """
    if scan.hashtags is None:
        raise InputError("hashtags need a community assignment")
    return {comm: min(bag.items(), key=lambda item: (-item[1], item[0]))
            for comm, bag in scan.hashtags.items()}


def unique_fraction(corpus: Sequence[TweetRecord]) -> UniqueStats:
    """Share of distinct exact tweet texts; empty input has no fraction."""
    total = len(corpus)
    unique = len({rec.text for rec in corpus})
    return UniqueStats(total=total, unique=unique,
                       fraction=unique / total if total else None)
