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
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

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
    overall: dict[str, list[int]]  # side -> [tweets, distinct texts]
    by_keyword: dict[str, dict[str, list[int]]]  # the same per keyword


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
    """Read the corpus in runs of one text, each tokenized once. Each tweet of
    a run feeds its side's word counts (stop words dropped) and, given a
    `community_of`, its community's hashtags. Per side, a run adds its tweets
    and one distinct text to the overall counts and to each keyword among its
    tokens. Tweets with no side are excluded, with no community skipped."""
    sides = {"left": Counter(), "right": Counter()}
    hashtags = None if community_of is None else defaultdict(Counter)
    overall = {side: [0, 0] for side in sides}
    by_keyword = {kw: {side: [0, 0] for side in sides} for kw in keywords}
    ids: dict[str, int] = {}  # text -> id, in first-appearance order
    order = np.argsort(np.fromiter((ids.setdefault(rec.text, len(ids)) for rec in corpus),
                                   dtype=np.int64, count=len(corpus)), kind="stable")
    _log.debug("text scan: %d tweets, %d distinct texts", len(corpus), len(ids))
    del ids
    skipped = 0
    for text, run in groupby(map(corpus.__getitem__, order), key=attrgetter("text")):
        tokens = tokenize(text)
        kept = remove_stopwords(tokens)
        tags = [t for t in tokens if t[0] == "#" and COLLECTION_TAG not in t.lower()]
        run_sides = []  # the side of each of the run's tweets that has one
        for rec in run:
            side = classes.get(rec.account)
            if side in sides:
                run_sides.append(side)
                sides[side].update(kept)
            if hashtags is not None:
                comm = community_of.get(rec.account)
                if comm is None:
                    skipped += 1
                else:
                    for tag in tags:
                        hashtags[int(comm)][tag] += 1
        for counts in (overall, *(by_keyword[kw] for kw in by_keyword.keys() & tokens)):
            for side in set(run_sides):
                counts[side][0] += run_sides.count(side)
                counts[side][1] += 1
    excluded = len(corpus) - sum(n for n, _ in overall.values())  # with no side
    return CorpusScan(sides, excluded, hashtags, skipped, overall, by_keyword)


def word_counts_by_class(scan: CorpusScan) -> WordCountTable:
    """Token counts over the left and right sides of the corpus."""
    left, right = scan.sides["left"], scan.sides["right"]
    return WordCountTable(left=left, right=right, total_left=sum(left.values()),
                          total_right=sum(right.values()),
                          n_excluded_tweets=scan.n_excluded_tweets)


def keyword_subset(scan: CorpusScan, keyword: str) -> dict[str, list[int]]:
    """Per side, [tweets, distinct texts] with the keyword among their tokens
    (case sensitive); the keyword must be one the scan looked for."""
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


def unique_fraction(total: int, unique: int) -> UniqueStats:
    """Share of distinct exact texts among `total` tweets with `unique`
    distinct texts; no tweets give no fraction."""
    return UniqueStats(total=total, unique=unique,
                       fraction=unique / total if total else None)
