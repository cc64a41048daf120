"""Deterministic synthetic retweet bundles with planted structure.

Two account blocs retweet mostly within themselves, follow different media
columns, and tweet from different vocabularies. The same seed always
produces byte-identical files, which makes the generator usable both as a
test fixture factory and as a reproducibility check for the report
pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import InputError
from .graph import EdgeRecord
from .rng import derive_seed, generator

_BASE_UTC = datetime(2020, 1, 1)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted two-bloc bundle.

    p_in and p_out are expected retweet counts per ordered account pair,
    within and across blocs; counts are Poisson draws, so multi-edges
    occur. follow_left/follow_right give each bloc's probability of
    following each media column.
    """

    n_left: int = 500
    n_right: int = 500
    p_in: float = 0.02
    p_out: float = 0.001
    media: tuple[str, ...] = ("heartland_daily", "liberty_wire", "founders_post",
                              "metro_ledger", "harbor_times", "commonweal_review")
    follow_left: tuple[float, ...] = (0.05, 0.08, 0.04, 0.75, 0.70, 0.65)
    follow_right: tuple[float, ...] = (0.75, 0.70, 0.65, 0.05, 0.08, 0.04)
    vocab_left: tuple[str, ...] = ("solidarity", "vigil", "counterprotest",
                                   "justice", "community", "organize")
    vocab_right: tuple[str, ...] = ("heritage", "statues", "patriots",
                                    "borders", "tradition", "rally")
    vocab_shared: tuple[str, ...] = ("city", "news", "people", "today",
                                     "watch", "crowd", "police", "street")
    hashtag_left: str = "#StandTogether"
    hashtag_right: str = "#HoldTheLine"
    hashtag_event: str = "#Charlottesville"
    tweets_per_account: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_left < 2 or self.n_right < 2:
            raise InputError("each bloc needs at least 2 accounts")
        if len(self.follow_left) != len(self.media) or \
                len(self.follow_right) != len(self.media):
            raise InputError("follow probabilities must match the media columns")
        probs = (self.p_in, self.p_out, *self.follow_left, *self.follow_right)
        if not all(0 <= p < np.inf for p in (*probs, self.tweets_per_account)):
            raise InputError("probabilities and rates must be finite and nonnegative")
        if any(p > 1 for p in self.follow_left + self.follow_right):
            raise InputError("follow probabilities must lie in [0, 1]")
        if all(p == 0 for p in probs):
            raise InputError("degenerate spec: all probabilities are zero")


@dataclass(frozen=True)
class SyntheticBundle:
    edges: Path
    followership: Path
    tweets: Path


def account_ids(spec: SyntheticSpec) -> list[str]:
    left = [f"L{i:05d}" for i in range(spec.n_left)]
    right = [f"R{i:05d}" for i in range(spec.n_right)]
    return left + right


def bloc_labels(spec: SyntheticSpec) -> dict[str, str]:
    """Ground-truth bloc per account id."""
    ids = account_ids(spec)
    return {a: ("left" if i < spec.n_left else "right")
            for i, a in enumerate(ids)}


def planted_edges(spec: SyntheticSpec) -> list[EdgeRecord]:
    """Poisson retweet counts per ordered pair, self-pairs excluded. Row
    blocks of the rate matrix, in order, give the draws of the whole one."""
    ids = account_ids(spec)
    n = len(ids)
    rng = generator(derive_seed(spec.seed, 10))
    is_left = np.arange(n) < spec.n_left
    out = []
    for rows in np.array_split(np.arange(n), 1 + n * n // (1 << 20)):
        rate = np.where(is_left[rows, None] == is_left, spec.p_in, spec.p_out)
        rate[np.arange(rows.size), rows] = 0.0
        try:
            counts = rng.poisson(rate)
        except ValueError as exc:  # a rate too large for the Poisson sampler
            raise InputError(f"cannot draw retweet counts: {exc}") from None
        out += [EdgeRecord(ids[rows[t]], ids[s], int(counts[t, s]))
                for t, s in zip(*np.nonzero(counts))]
    return out


def planted_followership(spec: SyntheticSpec) -> tuple[list[str], np.ndarray]:
    """0/1 followership rows for every account (zero rows included)."""
    ids = account_ids(spec)
    rng = generator(derive_seed(spec.seed, 11))
    probs = np.vstack([
        np.tile(spec.follow_left, (spec.n_left, 1)),
        np.tile(spec.follow_right, (spec.n_right, 1)),
    ])
    entries = (rng.random(probs.shape) < probs).astype(np.uint8)
    return ids, entries


def planted_tweets(spec: SyntheticSpec,
                   edges: list[EdgeRecord]) -> list[dict]:
    """Original tweets per account plus retweet copies along the edges.

    Retweets repeat the quoted text verbatim, so duplicate texts appear at
    a rate tied to the graph, and every tweet carries the event hashtag
    plus a bloc hashtag.
    """
    ids = account_ids(spec)
    blocs = bloc_labels(spec)
    rng = generator(derive_seed(spec.seed, 12))
    originals: dict[str, list[str]] = {}
    rows: list[dict] = []
    tick = 0

    def stamp() -> str:
        nonlocal tick
        when = _BASE_UTC + timedelta(seconds=tick)
        tick += 1
        return when.strftime("%Y-%m-%dT%H:%M:%SZ")

    for acct in ids:
        side = blocs[acct]
        vocab = spec.vocab_left if side == "left" else spec.vocab_right
        tag = spec.hashtag_left if side == "left" else spec.hashtag_right
        n_orig = 1 + int(rng.poisson(spec.tweets_per_account))
        texts = []
        for _ in range(n_orig):
            words = [str(rng.choice(vocab)), str(rng.choice(vocab)),
                     str(rng.choice(spec.vocab_shared))]
            text = f"{' '.join(words)} {spec.hashtag_event} {tag}"
            texts.append(text)
            rows.append({"account": acct, "utc": stamp(), "text": text})
        originals[acct] = texts

    for rec in sorted(edges, key=lambda e: (e.target, e.source)):
        quoted = originals[rec.target]
        text = quoted[int(rng.integers(len(quoted)))]
        for _ in range(rec.count):
            rows.append({"account": rec.source, "utc": stamp(),
                         "text": f"RT @{rec.target}: {text}"})
    return rows


def generate_bundle(spec: SyntheticSpec, out_dir: str | Path) -> SyntheticBundle:
    """Write edges.tsv, followership.csv and tweets.jsonl under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges = planted_edges(spec)

    edges_path = out / "edges.tsv"
    with edges_path.open("w", encoding="utf-8") as fh:
        fh.write(f"# synthetic retweet bundle seed={spec.seed}\n")
        for rec in sorted(edges, key=lambda e: (e.target, e.source)):
            fh.write(f"{rec.target}\t{rec.source}\t{rec.count}\n")

    ids, entries = planted_followership(spec)
    follow_path = out / "followership.csv"
    with follow_path.open("w", encoding="utf-8") as fh:
        fh.write("account_id," + ",".join(spec.media) + "\n")
        for acct, row in zip(ids, entries):
            fh.write(acct + "," + ",".join(str(int(v)) for v in row) + "\n")

    tweets_path = out / "tweets.jsonl"
    with tweets_path.open("w", encoding="utf-8") as fh:
        for row in planted_tweets(spec, edges):
            fh.write(json.dumps(row) + "\n")

    return SyntheticBundle(edges=edges_path, followership=follow_path,
                           tweets=tweets_path)
