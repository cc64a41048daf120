"""Directed weighted retweet graph with dense integer node indexing.

Orientation convention: the weight at (target, source) counts how many
times `source` retweeted `target`. A node's in-strength is therefore the
number of times it was retweeted and its out-strength the number of
retweets it posted. Multi-edges are aggregated into integer weights at
construction; self-retweets are legal and kept, since they contribute to
the strength products used by the modularity null model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import InputError


@dataclass(frozen=True, slots=True)
class EdgeRecord:
    """One retweet relation: `source` retweeted `target` `count` times."""

    target: str
    source: str
    count: int = 1


class RetweetGraph:
    """Aggregated directed weighted graph over densely indexed nodes.

    Edge arrays are kept sorted by (target, source) and hold one entry per
    distinct node pair. `ids` maps indices to external account ids, each
    held once.
    """

    def __init__(self, ids: Sequence[str], targets: np.ndarray,
                 sources: np.ndarray, counts: np.ndarray):
        self.ids: tuple[str, ...] = tuple(ids)
        self.n = len(self.ids)
        if len(set(self.ids)) != self.n:
            raise InputError("duplicate external node ids")
        t, s = (np.asarray(x, dtype=np.int64) for x in (targets, sources))
        # an induced subgraph arrives with its (target, source) keys strictly
        # increasing already, and then skips the sort
        dt, ds = np.diff(t), np.diff(s)
        order = (slice(None) if np.all((dt > 0) | ((dt == 0) & (ds > 0)))
                 else np.lexsort((s, t)))
        self.targets, self.sources = t[order], s[order]
        self.counts = np.asarray(counts, dtype=np.int64)[order]
        if self.counts.size and self.counts.min() < 1:
            raise InputError("aggregated edge weights must be positive")
        self.in_strength = np.bincount(self.targets, weights=self.counts,
                                       minlength=self.n).astype(np.int64)
        self.out_strength = np.bincount(self.sources, weights=self.counts,
                                        minlength=self.n).astype(np.int64)
        self.w = int(self.counts.sum())
        self._adj = None

    @property
    def n_edges(self) -> int:
        return int(self.targets.size)

    def adjacency(self) -> sparse.csr_matrix:
        """CSR matrix A with A[i, j] = number of times j retweeted i."""
        if self._adj is None:
            self._adj = sparse.csr_matrix(
                (self.counts.astype(np.float64), (self.targets, self.sources)),
                shape=(self.n, self.n))
        return self._adj

    def __repr__(self) -> str:
        return f"RetweetGraph(n={self.n}, edges={self.n_edges}, w={self.w})"


def build_graph(records: Iterable[EdgeRecord],
                nodes: Sequence[str] | None = None) -> RetweetGraph:
    """Aggregate edge records into a RetweetGraph.

    Node indices are assigned in first-appearance order (target before
    source within a record). `nodes` pre-seeds ids, which permits isolated
    nodes and fixes their indices ahead of the record scan.
    """
    index_of: dict[str, int] = {}
    for ext in nodes if nodes is not None else ():
        if not ext:
            raise InputError("empty node id")
        index_of.setdefault(ext, len(index_of))
    targets: list[int] = []  # one entry per record, aggregated below
    sources: list[int] = []
    counts: list[int] = []
    for k, rec in enumerate(records):
        if rec.count < 1:
            raise InputError(f"record {k}: retweet count must be >= 1, got {rec.count}")
        if not (rec.target and rec.source):
            raise InputError(f"empty {'source' if rec.target else 'target'} id")
        targets.append(index_of.setdefault(rec.target, len(index_of)))
        sources.append(index_of.setdefault(rec.source, len(index_of)))
        counts.append(rec.count)
    if sum(counts) > 2**53:
        # strengths are summed in float64, which holds integers exactly to 2**53
        raise InputError("total retweet count exceeds 2**53")

    n = len(index_of)
    keys, pair_of = np.unique(np.array(targets, dtype=np.int64) * n
                              + np.array(sources, dtype=np.int64),
                              return_inverse=True)
    summed = np.zeros(keys.size, dtype=np.int64)
    np.add.at(summed, pair_of, np.array(counts, dtype=np.int64))
    t, s = np.divmod(keys, n)
    return RetweetGraph(list(index_of), t, s, summed)


def induced_subgraph(g: RetweetGraph, keep: Sequence[int]) -> RetweetGraph:
    """Subgraph on `keep` (old indices, preserved in sorted order)."""
    keep_sorted = sorted(set(int(i) for i in keep))
    if not keep_sorted:
        raise InputError("cannot induce a subgraph on an empty node set")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= g.n:
        raise InputError(f"node indices must lie in range({g.n})")
    lut = np.full(g.n, -1, dtype=np.int64)
    lut[keep_sorted] = np.arange(len(keep_sorted), dtype=np.int64)
    mask = (lut[g.targets] >= 0) & (lut[g.sources] >= 0)
    return RetweetGraph([g.ids[i] for i in keep_sorted],
                        lut[g.targets[mask]], lut[g.sources[mask]],
                        g.counts[mask])


def largest_weak_component(g: RetweetGraph) -> RetweetGraph:
    """Largest weakly connected component as an induced subgraph.

    Size ties are broken by the smallest minimum node index.
    """
    if g.n == 0:
        raise InputError("graph has no nodes")
    # root[v] <= v throughout, and every value of root is a root after the
    # compression, so each component ends rooted at its smallest index.
    # Compressing fully each round keeps the round count small on long
    # paths (10 for a randomly labelled 50k-node path), where plain label
    # propagation needs one round per hop.
    root = np.arange(g.n, dtype=np.int64)
    while True:
        rt, rs = root[g.targets], root[g.sources]
        split = rt != rs
        if not split.any():
            break
        rt, rs = rt[split], rs[split]
        np.minimum.at(root, np.maximum(rt, rs), np.minimum(rt, rs))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    sizes = np.bincount(root, minlength=g.n)
    best = int(np.argmax(sizes))  # argmax takes the first maximum: smallest root index
    return induced_subgraph(g, np.flatnonzero(root == best))
