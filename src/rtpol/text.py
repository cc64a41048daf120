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

import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .pca import MediaScores
from .stopwords import DEFAULT_EXTRA_STOPWORDS, ENGLISH_STOPWORDS

_URL_RE = re.compile(r"https?://\S+")
_TOKEN_RE = re.compile(r"[#@]?\w+(?:'\w+)*")
#: hashtags whose lowercase form contains this are the collection's own tag
COLLECTION_TAG = "charlottesville"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ChiSquareRow:
    token: str
    chi2: float
    f_left: int
    f_right: int


@dataclass(frozen=True, eq=False)
class ChiSquareTable:
    rows: list[ChiSquareRow]


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
    return [t for t in tokens
            if t not in ENGLISH_STOPWORDS and t not in DEFAULT_EXTRA_STOPWORDS]


def word_counts_by_class(corpus: Sequence[TweetRecord],
                         scores: MediaScores) -> WordCountTable:
    """Token counts over the left and right sides of the corpus.

    Tweets by unscored or unclassified accounts are excluded and counted.
    """
    left: Counter = Counter()
    right: Counter = Counter()
    excluded = 0
    for rec in corpus:
        side = scores.classes.get(rec.account)
        if side == "left":
            bag = left
        elif side == "right":
            bag = right
        else:
            excluded += 1
            continue
        bag.update(remove_stopwords(tokenize(rec.text)))
    return WordCountTable(left=left, right=right,
                          total_left=sum(left.values()),
                          total_right=sum(right.values()),
                          n_excluded_tweets=excluded)


def keyword_subset(corpus: Sequence[TweetRecord],
                   keyword: str) -> list[TweetRecord]:
    """Tweets whose token stream contains the keyword exactly (case sensitive)."""
    if not keyword:
        raise InputError("keyword must be nonempty")
    return [rec for rec in corpus if keyword in tokenize(rec.text)]


def chi_square(table: WordCountTable) -> ChiSquareTable:
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
    return ChiSquareTable(rows=rows)


def hashtag_top_per_community(corpus: Sequence[TweetRecord],
                              community_of: Mapping[str, int],
                              ) -> dict[int, tuple[str, int]]:
    """Most used hashtag per community, skipping the collection tag.

    Hashtags whose lowercase form contains `COLLECTION_TAG` are ignored;
    count ties go to the lexicographically smaller tag. Tweet authors must
    all be covered by `community_of`. Communities without any remaining
    hashtag are absent from the result.
    """
    per_comm: dict[int, Counter] = {}
    for rec in corpus:
        if rec.account not in community_of:
            raise InputError(f"account {rec.account!r} has no community assignment")
        comm = int(community_of[rec.account])
        for tok in tokenize(rec.text):
            if tok.startswith("#") and COLLECTION_TAG not in tok.lower():
                per_comm.setdefault(comm, Counter())[tok] += 1
    out: dict[int, tuple[str, int]] = {}
    for comm, bag in per_comm.items():
        tag = min(bag, key=lambda t: (-bag[t], t))
        out[comm] = (tag, bag[tag])
    return out


def unique_fraction(corpus: Sequence[TweetRecord]) -> UniqueStats:
    """Share of distinct exact tweet texts; empty input has no fraction."""
    total = len(corpus)
    unique = len({rec.text for rec in corpus})
    return UniqueStats(total=total, unique=unique,
                       fraction=unique / total if total else None)
