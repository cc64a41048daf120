"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: dense matrices, literal
double sums, exhaustive enumeration, textbook entropy formulas. None of it
shares code with src/, so a disagreement points at exactly one side. The
text oracles are the exception: they take the tokenizer from src/ (it has
tests of its own) and scan the corpus once per statistic, as the package
did before its one-pass `scan_corpus`; `scan_corpus_runs` is that one-pass
scan as it was before it counted token ids by block, and `parse_tweets_loads`
the tweet reader before its scanner fast path. `write_csv_cells` is the CSV
writer as it was when it formatted each cell itself before handing the row
to `csv`. The profile oracle likewise takes the class rule and the Shannon
index from src/ and scans the nodes once per community, as
`community_profiles` did before it grouped by one sort.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from datetime import datetime
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np
from scipy import sparse

from rtpol.community import CommunityProfile, shannon_diversity
from rtpol.errors import InputError
from rtpol.graph import RetweetGraph
from rtpol.io import _UTC_RE, UTC_FORMAT, open_utf8
from rtpol.pca import sign_class
from rtpol.stopwords import DEFAULT_EXTRA_STOPWORDS, ENGLISH_STOPWORDS
from rtpol.text import (COLLECTION_TAG, CorpusScan, TweetRecord, WordCountTable,
                        remove_stopwords, tokenize)


def dense_adjacency(g: RetweetGraph) -> np.ndarray:
    """A[i, j] = times node j retweeted node i, as a dense float array."""
    a = np.zeros((g.n, g.n))
    for t, s, c in zip(g.targets, g.sources, g.counts):
        a[t, s] += c
    return a


def modularity_double_sum(adj: np.ndarray, assignment, gamma: float = 1.0) -> float:
    """Directed weighted modularity by the literal sum over ordered pairs."""
    w = adj.sum()
    win = adj.sum(axis=1)
    wout = adj.sum(axis=0)
    n = adj.shape[0]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if assignment[i] == assignment[j]:
                q += adj[i, j] - gamma * win[i] * wout[j] / w
    return q / w


def set_partitions(n: int):
    """Every partition of range(n) as a restricted-growth assignment tuple."""
    if n == 0:
        yield ()
        return
    a = [0] * n

    def rec(i: int, max_used: int):
        if i == n:
            yield tuple(a)
            return
        for c in range(max_used + 2):
            a[i] = c
            yield from rec(i + 1, max(max_used, c))

    yield from rec(0, -1)


def pagerank_linear_solve(adj: np.ndarray, damping: float = 0.85) -> np.ndarray:
    """Stationary rank vector by a dense linear solve, no iteration.

    Columns are retweeters; dangling columns spread uniformly, and the
    teleport term is uniform, so the chain matrix is strictly positive and
    its top eigenvalue 1 is simple. Replacing one balance equation with the
    normalization constraint gives a nonsingular system.
    """
    n = adj.shape[0]
    out = adj.sum(axis=0)
    p = np.zeros((n, n))
    for j in range(n):
        if out[j] > 0:
            p[:, j] = adj[:, j] / out[j]
        else:
            p[:, j] = 1.0 / n
    m = damping * p + (1.0 - damping) / n
    sys = m - np.eye(n)
    sys[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(sys, rhs)


def leading_eigvec(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Top eigenvalue of a symmetric matrix plus its eigenvector basis.

    Returns (basis of the near-leading eigenspace, top eigenvector,
    relative spectral gap). The basis accommodates ties: any vector the
    implementation returns must lie in its span.
    """
    vals, vecs = np.linalg.eigh(sym)
    top = vals[-1]
    scale = max(abs(top), 1.0)
    near = vals >= top - 1e-9 * scale
    gap = (top - vals[~near].max()) / scale if (~near).any() else np.inf
    return vecs[:, near], vecs[:, -1], float(gap)


def eigenspace_residual(basis: np.ndarray, v: np.ndarray) -> float:
    """Distance of unit vector v from the span of the given basis."""
    proj = basis @ (basis.T @ v)
    return float(np.linalg.norm(v - proj))


def pca_first_component(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Leading covariance eigenvector by dense eigendecomposition.

    Returns (eigenspace basis, top eigenvector, explained variance).
    Centering and the n-1 divisor follow the sample covariance convention.
    """
    x = rows - rows.mean(axis=0)
    cov = x.T @ x / (rows.shape[0] - 1)
    basis, vec, _gap = leading_eigvec(cov)
    vals = np.linalg.eigvalsh(cov)
    return basis, vec, float(vals[-1])


def map_equation_textbook(adj: np.ndarray, assignment,
                          tau: float = 0.15) -> float:
    """Two-level description length in bits, from first principles.

    Builds the dense teleporting chain, solves for visit rates, tallies
    per-module exit flows over followed links (teleport steps are not
    encoded; dangling steps leave a module in proportion to the outside
    node share), and evaluates the exit-codebook and module-codebook
    entropies literally.
    """
    n = adj.shape[0]
    out = adj.sum(axis=0)
    chain = np.zeros((n, n))
    for j in range(n):
        if out[j] > 0:
            chain[:, j] = (1.0 - tau) * adj[:, j] / out[j] + tau / n
        else:
            chain[:, j] = 1.0 / n
    sys = chain - np.eye(n)
    sys[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    p = np.linalg.solve(sys, rhs)

    mods = sorted(set(int(c) for c in assignment))
    exits = []
    visits = []
    for m in mods:
        members = [i for i in range(n) if assignment[i] == m]
        inside = set(members)
        q = 0.0
        for j in members:
            if out[j] > 0:
                for i in range(n):
                    if i not in inside and adj[i, j] > 0:
                        q += p[j] * (1.0 - tau) * adj[i, j] / out[j]
            else:
                q += p[j] * (1.0 - tau) * (n - len(members)) / n
        exits.append(q)
        visits.append([p[i] for i in members])

    def entropy(weights) -> float:
        arr = np.array([x for x in weights if x > 0.0], dtype=np.float64)
        if arr.size == 0:
            return 0.0
        arr = arr / arr.sum()
        return float(-(arr * np.log2(arr)).sum())

    q_total = sum(exits)
    total = q_total * entropy(exits) if q_total > 0 else 0.0
    for q, vs in zip(exits, visits):
        usage = q + sum(vs)
        if usage > 0:
            total += usage * entropy([q] + vs)
    return total


def pearson_plain(x, y) -> float:
    """Pearson correlation written out longhand."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xm = x - x.mean()
    ym = y - y.mean()
    return float((xm * ym).sum() / np.sqrt((xm * xm).sum() * (ym * ym).sum()))


_M64 = (1 << 64) - 1


def splitmix64_int(x: int) -> int:
    """splitmix64 on a Python integer, reduced mod 2**64 at every step."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def replicate_order(seed: int, k: int, n_items: int) -> list[int]:
    """Permutation replicate k of the splitmix64 contract, by a stable sort.

    Item i gets key splitmix64(splitmix64(seed + k) ^ salt_i) with
    salt_i = splitmix64(i ^ 0x5851F42D4C957F2D); position i of the result
    holds the item with the i-th smallest key.
    """
    rep = splitmix64_int((seed + k) & _M64)
    keys = [splitmix64_int(rep ^ splitmix64_int(i ^ 0x5851F42D4C957F2D))
            for i in range(n_items)]
    return sorted(range(n_items), key=lambda i: keys[i])


def mixing_matrix_loop(g: RetweetGraph, node_classes):
    """(labels, e, n_edges) by tallying edges one at a time.

    Self-loops and edges with an unclassified endpoint are skipped; rows
    are the retweeter's class.
    """
    labels = tuple(sorted({c for c in node_classes if c is not None}))
    row = {lab: i for i, lab in enumerate(labels)}
    e = np.zeros((len(labels), len(labels)))
    n_edges = 0
    for t, s in zip(g.targets.tolist(), g.sources.tolist()):
        if t == s or node_classes[s] is None or node_classes[t] is None:
            continue
        e[row[node_classes[s]], row[node_classes[t]]] += 1.0
        n_edges += 1
    return labels, (e / n_edges if n_edges else e), n_edges


def permutation_null_literal(g: RetweetGraph, scores, n_perm: int, seed: int):
    """Permutation null of the dyad correlation, one replicate at a time.

    Scored nodes are taken in index order and dyads are the distinct
    (source, target) pairs of two different scored nodes. Replicate k
    reassigns the scores by `replicate_order`, gathers the per-dyad
    (retweeter, retweeted) values and takes their Pearson correlation; a
    replicate whose centred margin sum of squares is at most
    m * (1e-12 * max(1, max|score|))**2 is skipped. Returns
    (observed rho, list of kept rhos, number skipped).
    """
    scores = np.asarray(scores, dtype=np.float64)
    scored = [i for i in range(g.n) if not np.isnan(scores[i])]
    pos = {node: p for p, node in enumerate(scored)}
    pairs = sorted({(s, t) for s, t in zip(g.sources.tolist(), g.targets.tolist())
                    if s != t and s in pos and t in pos})
    vals = [float(scores[i]) for i in scored]
    m = len(pairs)
    tiny = m * (1e-12 * max(1.0, max(abs(v) for v in vals))) ** 2
    rho_obs = pearson_plain([vals[pos[s]] for s, _ in pairs],
                            [vals[pos[t]] for _, t in pairs])
    kept = []
    skipped = 0
    for k in range(n_perm):
        order = replicate_order(seed, k, len(vals))
        perm = [vals[order[p]] for p in range(len(vals))]
        x = np.array([perm[pos[s]] for s, _ in pairs])
        y = np.array([perm[pos[t]] for _, t in pairs])
        xc = x - x.mean()
        yc = y - y.mean()
        sxx = float((xc * xc).sum())
        syy = float((yc * yc).sum())
        if sxx <= tiny or syy <= tiny:
            skipped += 1
            continue
        kept.append(float((xc * yc).sum()) / np.sqrt(sxx * syy))
    return rho_obs, kept, skipped


def agreement_fraction(assignment, truth) -> float:
    """Best label agreement between a found partition and planted blocs.

    Each found community votes for the planted bloc holding most of its
    members; the fraction of correctly covered nodes is returned.
    """
    assignment = np.asarray(assignment)
    truth = np.asarray(truth)
    agree = 0
    for c in set(int(x) for x in assignment):
        members = truth[assignment == c]
        counts: dict[int, int] = {}
        for t in members:
            counts[int(t)] = counts.get(int(t), 0) + 1
        agree += max(counts.values())
    return agree / truth.size


def community_profiles_scan(partition, node_scores) -> list:
    """`community_profiles` by one pass over all nodes per community."""
    scores = np.asarray(node_scores, dtype=np.float64)
    classes = np.array([sign_class(v) for v in scores.tolist()])
    profiles = []
    for c in range(partition.k):
        members = np.flatnonzero(partition.assignment == c)
        vals = scores[members]
        vals = vals[~np.isnan(vals)]
        n_left = int((classes[members] == "left").sum())
        n_right = int((classes[members] == "right").sum())
        mean = float(vals.mean()) if vals.size else None
        profiles.append(CommunityProfile(
            community=c, size=int(members.size), n_left=n_left,
            n_right=n_right, mean_score=mean,
            shannon=shannon_diversity(n_left, n_right)))
    return profiles


def largest_component_union_find(g: RetweetGraph) -> list[int]:
    """Node indices of the largest weakly connected component, by a
    per-edge union-find that hooks the larger root under the smaller.
    Each root is the smallest index of its set, so a size tie goes to the
    component holding the smallest index."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for t, s in zip(g.targets.tolist(), g.sources.tolist()):
        rt, rs = find(t), find(s)
        if rt != rs:
            parent[max(rt, rs)] = min(rt, rs)
    members: dict[int, list[int]] = {}
    for v in range(g.n):
        members.setdefault(find(v), []).append(v)
    best = min(members, key=lambda r: (-len(members[r]), r))
    return members[best]


def relabel_first_appearance(labels, order) -> tuple[list[int], int]:
    """Labels renumbered 0..k-1 in the order their first node appears in
    `order`, by a dict that grows as new labels are met."""
    remap: dict[int, int] = {}
    for v in order:
        remap.setdefault(int(labels[v]), len(remap))
    return [remap[int(lab)] for lab in labels], len(remap)


def aggregate_edges_dict(records, nodes=None):
    """(ids, sorted [(target, source, count)]) of edge records, by the
    tuple-keyed dict that `build_graph` aggregated through before it
    aggregated arrays. Indices follow first appearance (pre-seeded `nodes`,
    then target before source per record); errors are the InputErrors
    `build_graph` raises."""
    from rtpol.errors import InputError

    ids: list[str] = []
    index_of: dict[str, int] = {}

    def intern(ext: str, where: str) -> int:
        if not ext:
            raise InputError(f"empty {where} id")
        if ext not in index_of:
            index_of[ext] = len(ids)
            ids.append(ext)
        return index_of[ext]

    for ext in nodes or ():
        intern(ext, "node")
    agg: dict[tuple[int, int], int] = {}
    for k, rec in enumerate(records):
        if rec.count < 1:
            raise InputError(f"record {k}: retweet count must be >= 1, got {rec.count}")
        key = (intern(rec.target, "target"), intern(rec.source, "source"))
        agg[key] = agg.get(key, 0) + rec.count
    if sum(agg.values()) > 2**53:
        raise InputError("total retweet count exceeds 2**53")
    return ids, sorted((t, s, c) for (t, s), c in agg.items())


def modularity_level_pairs(n: int, targets, sources, weights):
    """(sym, win, wout) of a Louvain level given as a directed pair list,
    built the way `_ModularityLevel` built every level before it held only
    its symmetric matrix: A + A' from COO, the diagonal set to 0 and
    eliminated, and the strengths binned from the pairs."""
    a = sparse.coo_matrix((weights, (targets, sources)), shape=(n, n))
    sym = (a + a.T).tocsr()
    sym.setdiag(0)
    sym.eliminate_zeros()
    return (sym, np.bincount(targets, weights=weights, minlength=n),
            np.bincount(sources, weights=weights, minlength=n))


def aggregate_pairs(targets, sources, weights, labels, k: int):
    """Directed pair list of the next Louvain level: one entry per distinct
    (community of target, community of source), with its summed weight."""
    pair = labels[targets] * k + labels[sources]
    uniq, inv = np.unique(pair, return_inverse=True)
    return uniq // k, uniq % k, np.bincount(inv, weights=weights)


def flow_level_pairs(n: int, from_idx, to_idx, flow):
    """(out_mat, out_total) of an Infomap level given as a directed flow
    pair list, built the way `_FlowLevel` built every level before it held
    one symmetric matrix: the pairs between distinct supernodes as CSR from
    COO, duplicates summed, and each row's sum as the supernode's exit flow.
    """
    off = from_idx != to_idx
    mat = sparse.csr_matrix((flow[off], (from_idx[off], to_idx[off])), shape=(n, n))
    return mat, np.asarray(mat.sum(axis=1)).ravel()


def aggregate_flow_pairs(out_mat, labels):
    """Directed flow pair list of the next Infomap level: each entry of
    `out_mat` between the modules of its two nodes."""
    coo = out_mat.tocoo()
    return labels[coo.row], labels[coo.col], coo.data


def random_graph(rng: np.random.Generator, n_max: int = 10,
                 ensure_edge: bool = True) -> RetweetGraph:
    """Small random directed weighted graph for oracle sweeps."""
    from rtpol.graph import EdgeRecord, build_graph

    n = int(rng.integers(2, n_max + 1))
    density = rng.uniform(0.15, 0.6)
    records = []
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                records.append(EdgeRecord(target=f"v{i}", source=f"v{j}",
                                          count=int(rng.integers(1, 6))))
    if ensure_edge and not records:
        records.append(EdgeRecord(target="v0", source="v1", count=1))
    return build_graph(records, nodes=[f"v{i}" for i in range(n)])


def word_counts_multi_scan(corpus, classes) -> WordCountTable:
    """Left/right token counts without stop words, by one corpus scan;
    tweets of accounts classed neither left nor right are excluded."""
    left: Counter = Counter()
    right: Counter = Counter()
    excluded = 0
    for rec in corpus:
        side = classes.get(rec.account)
        if side == "left":
            bag = left
        elif side == "right":
            bag = right
        else:
            excluded += 1
            continue
        bag.update(t for t in tokenize(rec.text)
                   if t not in ENGLISH_STOPWORDS
                   and t not in DEFAULT_EXTRA_STOPWORDS)
    return WordCountTable(left=left, right=right,
                          total_left=sum(left.values()),
                          total_right=sum(right.values()),
                          n_excluded_tweets=excluded)


def hashtag_top_multi_scan(corpus, community_of) -> tuple[dict, int]:
    """(community -> (top hashtag, count), tweets skipped): the tweets of
    accounts `community_of` covers are kept by one scan, and their hashtags
    other than the collection tag counted by another."""
    covered = [rec for rec in corpus if rec.account in community_of]
    per_comm: dict[int, Counter] = {}
    for rec in covered:
        comm = int(community_of[rec.account])
        for tok in tokenize(rec.text):
            if tok.startswith("#") and COLLECTION_TAG not in tok.lower():
                per_comm.setdefault(comm, Counter())[tok] += 1
    top = {}
    for comm, bag in per_comm.items():
        tag = min(bag, key=lambda t: (-bag[t], t))
        top[comm] = (tag, bag[tag])
    return top, len(corpus) - len(covered)


def keyword_subset_multi_scan(corpus, keyword: str) -> list:
    """Tweets whose tokens include `keyword` exactly, by one corpus scan."""
    return [rec for rec in corpus if keyword in tokenize(rec.text)]


def unique_by_side(corpus, classes) -> dict:
    """side -> [tweets, distinct texts]: the tweets of each side's accounts
    are kept by one scan, and their texts put in a set."""
    out = {}
    for side in ("left", "right"):
        texts = [rec.text for rec in corpus if classes.get(rec.account) == side]
        out[side] = [len(texts), len(set(texts))]
    return out


def scan_corpus_runs(corpus, classes, community_of, keywords) -> CorpusScan:
    """`scan_corpus` by runs of one text: the texts are sorted by first
    appearance, each is tokenized once, and each of its tweets adds the
    text's tokens to its side's and its community's Counters."""
    sides = {"left": Counter(), "right": Counter()}
    hashtags = None if community_of is None else defaultdict(Counter)
    overall = {side: [0, 0] for side in sides}
    by_keyword = {kw: {side: [0, 0] for side in sides} for kw in keywords}
    ids: dict[str, int] = {}  # text -> id, in first-appearance order
    order = np.argsort(np.fromiter((ids.setdefault(rec.text, len(ids)) for rec in corpus),
                                   dtype=np.int64, count=len(corpus)), kind="stable")
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


def parse_tweets_loads(path) -> list[TweetRecord]:
    """Tweet JSON lines by `json.loads` per line, each field checked in
    turn; one string per account id and per text."""
    path = Path(path)
    out = []
    held: dict[str, str] = {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise InputError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                                 path=path, line=lineno) from None
            if not isinstance(obj, dict):
                raise InputError("each line must be a JSON object",
                                 path=path, line=lineno)
            for field in ("account", "utc", "text"):
                if field not in obj:
                    raise InputError(f"missing field {field!r}",
                                     path=path, line=lineno)
            for field, what in (("account", "account id"), ("text", "tweet text")):
                if not isinstance(obj[field], str):
                    raise InputError(f"{field!r} must be a string, got "
                                     f"{type(obj[field]).__name__}",
                                     path=path, line=lineno)
                if not obj[field]:
                    raise InputError(f"empty {what}", path=path, line=lineno)
                obj[field] = held.setdefault(obj[field], obj[field])
            try:
                datetime.fromisoformat(_UTC_RE.fullmatch(obj["utc"])[1])
            except (TypeError, ValueError):
                raise InputError(f"utc {obj['utc']!r} does not match {UTC_FORMAT}",
                                 path=path, line=lineno) from None
            out.append(TweetRecord(obj["account"], obj["text"]))
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # numpy 2 reprs np.float64 as np.float64(...)
    return str(value)


def write_csv_cells(path, header, rows, provenance: str) -> None:
    """A provenance comment, the header, then each row with every cell
    turned into text here: None empty, any float by the repr of its
    Python float, anything else by str."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {provenance}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
