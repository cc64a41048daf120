"""Directed weighted retweet graph with dense integer node indexing.

Orientation convention: the weight at (target, source) counts how many
times `source` retweeted `target`. A node's in-strength is therefore the
number of times it was retweeted and its out-strength the number of
retweets it posted. Multi-edges are aggregated into integer weights at
construction; self-retweets are legal and kept, since they contribute to
the strength products used by the modularity null model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy import sparse

from .errors import InputError


@dataclass(frozen=True)
class EdgeRecord:
    """One retweet relation: `source` retweeted `target` `count` times."""

    target: str
    source: str
    count: int = 1


class RetweetGraph:
    """Aggregated directed weighted graph over densely indexed nodes.

    Edge arrays are kept sorted by (target, source) and hold one entry per
    distinct node pair. `ids` maps indices back to external account ids;
    `index_of` is the inverse.
    """

    def __init__(self, ids: Sequence[str], targets: np.ndarray,
                 sources: np.ndarray, counts: np.ndarray):
        self.ids: tuple[str, ...] = tuple(ids)
        self.index_of: dict[str, int] = {a: i for i, a in enumerate(self.ids)}
        if len(self.index_of) != len(self.ids):
            raise InputError("duplicate external node ids")
        self.n = len(self.ids)
        order = np.lexsort((sources, targets))
        self.targets = np.asarray(targets, dtype=np.int64)[order]
        self.sources = np.asarray(sources, dtype=np.int64)[order]
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
    ids: list[str] = []
    index_of: dict[str, int] = {}

    def intern(ext: str, where: str) -> int:
        if not ext:
            raise InputError(f"empty {where} id")
        ix = index_of.get(ext)
        if ix is None:
            ix = len(ids)
            index_of[ext] = ix
            ids.append(ext)
        return ix

    if nodes is not None:
        for ext in nodes:
            intern(ext, "node")

    agg: dict[tuple[int, int], int] = {}
    for k, rec in enumerate(records):
        if rec.count < 1:
            raise InputError(f"record {k}: retweet count must be >= 1, got {rec.count}")
        t = intern(rec.target, "target")
        s = intern(rec.source, "source")
        key = (t, s)
        agg[key] = agg.get(key, 0) + rec.count
    if sum(agg.values()) > 2**53:
        # strengths are summed in float64, which holds integers exactly to 2**53
        raise InputError("total retweet count exceeds 2**53")

    pairs = np.array(list(agg), dtype=np.int64).reshape(-1, 2)
    counts = np.array(list(agg.values()), dtype=np.int64)
    return RetweetGraph(ids, pairs[:, 0], pairs[:, 1], counts)


def degree_histogram(g: RetweetGraph,
                     direction: Literal["in", "out"]) -> dict[int, int]:
    """Histogram of weighted degrees: degree value -> number of nodes."""
    if direction == "in":
        arr = g.in_strength
    elif direction == "out":
        arr = g.out_strength
    else:
        raise InputError(f"direction must be 'in' or 'out', got {direction!r}")
    return dict(Counter(int(d) for d in arr))


def induced_subgraph(g: RetweetGraph,
                     keep: Sequence[int]) -> tuple[RetweetGraph, dict[int, int]]:
    """Subgraph on `keep` (old indices, preserved in sorted order).

    Returns the subgraph and the old-index -> new-index map.
    """
    keep_sorted = sorted(set(int(i) for i in keep))
    if not keep_sorted:
        raise InputError("cannot induce a subgraph on an empty node set")
    if keep_sorted[0] < 0 or keep_sorted[-1] >= g.n:
        raise InputError(f"node indices must lie in range({g.n})")
    mapping = {old: new for new, old in enumerate(keep_sorted)}
    lut = np.full(g.n, -1, dtype=np.int64)
    lut[keep_sorted] = np.arange(len(keep_sorted), dtype=np.int64)
    mask = (lut[g.targets] >= 0) & (lut[g.sources] >= 0)
    sub = RetweetGraph([g.ids[i] for i in keep_sorted],
                       lut[g.targets[mask]], lut[g.sources[mask]],
                       g.counts[mask])
    return sub, mapping


def largest_weak_component(g: RetweetGraph) -> tuple[RetweetGraph, dict[int, int]]:
    """Largest weakly connected component as an induced subgraph.

    Size ties are broken by the smallest minimum node index. Also returns
    the old-index -> new-index map for the retained nodes.
    """
    if g.n == 0:
        raise InputError("graph has no nodes")
    parent = np.arange(g.n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for t, s in zip(g.targets, g.sources):
        rt, rs = find(int(t)), find(int(s))
        if rt != rs:
            parent[max(rt, rs)] = min(rt, rs)

    roots = np.array([find(i) for i in range(g.n)], dtype=np.int64)
    sizes = np.bincount(roots, minlength=g.n)
    best = int(np.argmax(sizes))  # argmax takes the first maximum: smallest root index
    members = np.flatnonzero(roots == best)
    return induced_subgraph(g, members)
