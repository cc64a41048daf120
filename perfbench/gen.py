"""Seeded input generator for the benchmark workloads.

Writes `edges.tsv`, `followership.csv` and `tweets.jsonl` in the formats
documented in `rtpol.io`. Two account blocs (ids `L#####` and `R#####`)
retweet mostly within themselves, follow different media columns and
tweet from different vocabularies.

This module deliberately does not call `rtpol.synth`:
- `rtpol.synth.planted_edges` allocates two dense n x n arrays (about
  1.6 GB at 10k accounts), which this generator avoids by drawing one
  Poisson total per ordered bloc pair and spreading it over that pair's
  ordered account pairs, so memory is O(edges);
- changes to `rtpol.synth` would change its seeded bytes and silently
  change the benchmark inputs. The workloads must stay fixed while the
  program under test changes.

Only numpy and the standard library are used, so generating inputs does
not import the package under test.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MEDIA = ("heartland_daily", "liberty_wire", "founders_post",
         "metro_ledger", "harbor_times", "commonweal_review")
FOLLOW = {"L": (0.05, 0.08, 0.04, 0.75, 0.70, 0.65),
          "R": (0.75, 0.70, 0.65, 0.05, 0.08, 0.04)}
EVENT_TAG = "#Charlottesville"
BLOC_TAGS = {"L": ("#StandTogether", "#NoHate", "#Solidarity"),
             "R": ("#HoldTheLine", "#Heritage", "#FreeSpeech")}
STOPWORDS = ("the", "and", "of", "to", "in", "is", "for", "on", "this", "at")
_SYLLABLES = ("ba", "ke", "lo", "mi", "nu", "ra", "si", "to", "ve", "zu")
# 1000 fixed pseudo-words: 300 per bloc, 400 shared by both.
_WORDS = tuple("".join(p) for p in itertools.product(_SYLLABLES, repeat=3))
VOCAB = {"L": _WORDS[:300], "R": _WORDS[300:600]}
SHARED = _WORDS[600:]
_BASE62 = np.array(list("0123456789abcdefghijklmnopqrstuvwxyz"
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"))


@dataclass(frozen=True)
class GraphSpec:
    """Two-bloc retweet graph.

    `p_in`/`p_out` are expected retweet counts per ordered account pair
    within and across blocs. With `zipf` set, retweet targets are drawn
    with probability proportional to rank**-zipf inside their bloc, so
    in-degree is heavy-tailed; otherwise targets are uniform.
    """

    n_per_bloc: int
    p_in: float
    p_out: float
    zipf: float | None = None
    tweets_per_account: float = 1.0


@dataclass(frozen=True)
class Generated:
    edges: Path
    followership: Path
    tweets: Path
    n_edge_lines: int
    n_retweets: int


def account_ids(n_per_bloc: int) -> list[str]:
    return ([f"L{i:05d}" for i in range(n_per_bloc)]
            + [f"R{i:05d}" for i in range(n_per_bloc)])


def _zipf_weights(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    ranks = rng.permutation(n) + 1.0
    w = ranks ** -s
    return w / w.sum()


def planted_pairs(spec: GraphSpec, rng: np.random.Generator,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(target, source, count) over global account indices, sorted by
    (target, source); self-pairs never occur."""
    n = spec.n_per_bloc
    keys = []
    for tb in range(2):
        popularity = _zipf_weights(rng, n, spec.zipf) if spec.zipf else None
        for sb in range(2):
            same = tb == sb
            rate = spec.p_in if same else spec.p_out
            total = int(rng.poisson(rate * n * (n - 1 if same else n)))
            if popularity is None:
                t = rng.integers(n, size=total)
            else:
                t = rng.choice(n, size=total, p=popularity)
            if same:
                # uniform over the n - 1 sources that are not the target
                s = rng.integers(n - 1, size=total)
                s += s >= t
            else:
                s = rng.integers(n, size=total)
            keys.append((t + tb * n) * (2 * n) + (s + sb * n))
    uniq, counts = np.unique(np.concatenate(keys), return_counts=True)
    return uniq // (2 * n), uniq % (2 * n), counts


def _tweet_texts(rng: np.random.Generator, blocs: np.ndarray,
                 ids: list[str]) -> list[str]:
    """One original tweet text per entry of `blocs` (0 left, 1 right)."""
    m = blocs.size
    n_words = rng.integers(6, 13, size=m)
    word_rank = 1.0 / np.arange(1, 301)
    word_rank /= word_rank.sum()
    own = rng.choice(300, size=(m, 12), p=word_rank)
    shared = rng.integers(len(SHARED), size=(m, 12))
    use_shared = rng.random((m, 12)) < 0.4
    stop = rng.integers(len(STOPWORDS), size=(m, 3))
    tag = rng.integers(3, size=m)
    has_url = rng.random(m) < 0.3
    url_chars = _BASE62[rng.integers(62, size=(m, 10))]
    has_mention = rng.random(m) < 0.3
    mention = rng.integers(len(ids), size=m)
    texts = []
    for i in range(m):
        side = "LR"[blocs[i]]
        vocab = VOCAB[side]
        words = [SHARED[shared[i, j]] if use_shared[i, j] else vocab[own[i, j]]
                 for j in range(n_words[i])]
        words[1:1] = [STOPWORDS[stop[i, 0]]]
        words.insert(len(words) // 2, STOPWORDS[stop[i, 1]])
        if has_mention[i]:
            words.insert(0, "@" + ids[mention[i]])
        words += [EVENT_TAG, BLOC_TAGS[side][tag[i]]]
        if has_url[i]:
            words.append("https://t.co/" + "".join(url_chars[i]))
        texts.append(" ".join(words))
    return texts


def generate(spec: GraphSpec, seed: int, instance: int,
             out_dir: Path) -> Generated:
    """Write the three input files of one (seed, instance) under out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([seed, instance])))
    ids = account_ids(spec.n_per_bloc)
    n_all = len(ids)
    bloc = (np.arange(n_all) >= spec.n_per_bloc).astype(np.int64)

    targets, sources, counts = planted_pairs(spec, rng)
    edges = out_dir / "edges.tsv"
    with edges.open("w", encoding="utf-8") as fh:
        fh.write(f"# benchmark graph seed={seed} instance={instance}\n")
        fh.writelines(f"{ids[t]}\t{ids[s]}\t{c}\n"
                      for t, s, c in zip(targets.tolist(), sources.tolist(),
                                         counts.tolist()))

    probs = np.array([FOLLOW["LR"[b]] for b in (0, 1)])[bloc]
    follows = (rng.random(probs.shape) < probs).astype(np.uint8)
    followership = out_dir / "followership.csv"
    with followership.open("w", encoding="utf-8") as fh:
        fh.write("account_id," + ",".join(MEDIA) + "\n")
        fh.writelines(acct + "," + ",".join(map(str, row)) + "\n"
                      for acct, row in zip(ids, follows.tolist()))

    n_orig = 1 + rng.poisson(max(spec.tweets_per_account - 1.0, 0.0), size=n_all)
    author = np.repeat(np.arange(n_all), n_orig)
    texts = _tweet_texts(rng, bloc[author], ids)
    first = np.concatenate(([0], np.cumsum(n_orig)[:-1]))
    # each retweet copies one original of the retweeted account verbatim
    rt_target = np.repeat(targets, counts)
    rt_source = np.repeat(sources, counts)
    pick = first[rt_target] + (rng.random(rt_target.size)
                               * n_orig[rt_target]).astype(np.int64)
    rows = [(ids[a], texts[i]) for i, a in enumerate(author.tolist())]
    rows += [(ids[s], f"RT @{ids[t]}: {texts[p]}")
             for t, s, p in zip(rt_target.tolist(), rt_source.tolist(),
                                pick.tolist())]
    stamps = np.datetime_as_string(
        np.datetime64("2020-01-01T00:00:00")
        + np.arange(len(rows)).astype("timedelta64[s]"), unit="s")
    tweets = out_dir / "tweets.jsonl"
    with tweets.open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"account": acct, "utc": f"{utc}Z",
                                  "text": text}) + "\n"
                      for (acct, text), utc in zip(rows, stamps.tolist()))

    return Generated(edges=edges, followership=followership, tweets=tweets,
                     n_edge_lines=int(counts.size),
                     n_retweets=int(counts.sum()))
