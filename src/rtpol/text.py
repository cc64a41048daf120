"""Tweet-content statistics for left/right corpora.

Tokenization strips http/https URLs whole, then splits on whitespace and
punctuation while keeping '#', '@', '_' and intra-word apostrophes, so
hashtags and mentions survive as single tokens and case is preserved.
Class-discriminating words are ranked by the two-sample chi-square

    chi2 = (fL * fnotR - fR * fnotL)^2 /
           ((fL + fR) (fnotL + fnotR) (fL + fnotL) (fR + fnotR))

where fL, fR count token occurrences in the left and right corpus and
fnotL, fnotR count the remaining tokens of each side. `scan_corpus` counts
by distinct text: int32 token ids per block of texts, summed by sparse products.
"""

from __future__ import annotations

import logging
import re
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count, islice, pairwise
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .errors import InputError
from .stopwords import DEFAULT_EXTRA_STOPWORDS, ENGLISH_STOPWORDS

_URL_RE = re.compile(r"https?://\S+")
_TOKEN_RE = re.compile(r"[#@]?\w+(?:'\w+)*")
#: hashtags whose lowercase form contains this are the collection's own tag
COLLECTION_TAG = "charlottesville"
_STOPWORDS = ENGLISH_STOPWORDS | DEFAULT_EXTRA_STOPWORDS
_SIDES = {"left": 0, "right": 1}
#: distinct texts per block of `scan_corpus`; bounds its token-id arrays
_BLOCK_TEXTS = 4096
_log = logging.getLogger(__name__)


class TweetRecord(NamedTuple):
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


def _tally(mult: np.ndarray) -> dict[str, list[int]]:
    """side -> [tweets, distinct texts] from (2, texts) multiplicities."""
    return {side: [int(m.sum()), int(np.count_nonzero(m))] for side, m in zip(_SIDES, mult)}


def scan_corpus(corpus: Sequence[TweetRecord], classes: Mapping[str, str],
                community_of: Mapping[str, int] | None,
                keywords: Iterable[str]) -> CorpusScan:
    """One pass numbers texts and accounts, in first-appearance order, into
    (side x text) and (community x text) tweet counts. Each text is then
    tokenized once into vocabulary ids, `_BLOCK_TEXTS` texts at a time, and
    those counts @ (text x token) add up word counts (stop words masked) and
    hashtags (all but counted tags masked); a keyword flags the texts with
    its id. Tweets with no side are excluded, with no community skipped."""
    n = len(corpus)  # a one-shot iterator has none
    text_id, account_id, comm_id, vocab = (defaultdict(count().__next__) for _ in range(4))
    tid, aid = np.fromiter(((text_id[t], account_id[a]) for a, t in corpus),
                           np.dtype((np.intc, 2)), n).T
    _log.debug("text scan: %d tweets, %d distinct texts", n, len(text_id))
    texts, accounts = list(text_id), list(account_id)
    del text_id, account_id
    side = np.fromiter((_SIDES.get(classes.get(a), 2) for a in accounts),
                       np.int8, len(accounts))[aid]
    mult = np.stack([np.bincount(tid[side == s], minlength=len(texts)) for s in (0, 1)])
    groups, skipped = [sparse.csc_array(mult)], 0  # (group x text) tweet counts
    comm = None if community_of is None else np.fromiter(
        (-1 if (c := community_of.get(a)) is None else comm_id[int(c)] for a in accounts),
        np.intc, len(accounts))[aid]
    del aid, side, accounts
    if comm is not None:  # community codes, not ids, index the rows
        comm, tid = comm[comm >= 0], tid[comm >= 0]  # frees the per-tweet arrays
        skipped = n - comm.size
        groups.append(sparse.csc_array((np.ones(comm.size, np.intc), (comm, tid)),
                                       shape=(len(comm_id), len(texts))))
    del tid, comm
    keep = np.zeros((0, 2), np.int8)  # per token: counted as a word, as a hashtag
    sums = [sparse.csr_array((g.shape[0], 0), dtype=np.int64) for g in groups]
    hits = {kw: np.zeros(len(texts), bool) for kw in keywords}
    for lo in range(0, len(texts), _BLOCK_TEXTS):
        ids, lengths = array("i"), array("i")  # the block's token ids, and per text
        for text in texts[lo:lo + _BLOCK_TEXTS]:
            tokens = tokenize(text)
            lengths.append(len(tokens))
            ids.extend(map(vocab.__getitem__, tokens))
        hi = lo + len(lengths)
        ids, ends = np.frombuffer(ids, np.intc), np.cumsum(lengths, dtype=np.intc)
        new = reversed(list(islice(reversed(vocab), len(vocab) - len(keep))))
        keep = np.concatenate([keep, np.array([
            (t not in _STOPWORDS, t[0] == "#" and COLLECTION_TAG not in t.lower())
            for t in new], np.int8).reshape(-1, 2)])
        for i, group in enumerate(groups):  # masked tokens add zeros, which drop out
            sums[i].resize((group.shape[0], len(vocab)))
            sums[i] = sums[i] + group[:, lo:hi].astype(np.int64) @ sparse.csr_array(
                (keep[ids, i], ids, np.append(np.intc(0), ends)), shape=(hi - lo, len(vocab)))
        for kw, hit in hits.items():
            if (kw_id := vocab.get(kw)) is not None:
                hit[lo + np.searchsorted(ends, np.flatnonzero(ids == kw_id), "right")] = True
    token_of = list(vocab)
    del texts, groups, vocab
    bags = [[Counter(dict(zip(map(token_of.__getitem__, m.indices[a:b]), map(int, m.data[a:b]))))
             for a, b in pairwise(m.indptr.tolist())] for m in sums]  # side, then community
    return CorpusScan(
        dict(zip(_SIDES, bags[0])), n - int(mult.sum()),  # the excluded have no side
        None if community_of is None else {c: bag for c, bag in zip(comm_id, bags[1]) if bag},
        skipped, _tally(mult), {kw: _tally(mult[:, hit]) for kw, hit in hits.items()})


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
