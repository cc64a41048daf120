"""Centrality measures on the retweet graph.

PageRank treats each retweet as an endorsement flowing from the retweeter
to the retweeted account, with uniform teleportation and uniform
redistribution of dangling mass. HITS hub and authority vectors are the
principal eigenvectors of A'A and AA' for the retweet matrix A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, InputError
from .graph import RetweetGraph

#: smallest k that `top_k` accepts
MIN_TOP_K = 1


@dataclass(frozen=True)
class PageRankParams:
    damping: float = 0.85
    tol: float = 1e-12
    max_iters: int = 100_000

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise InputError(f"damping must lie in (0, 1), got {self.damping}")
        _check_budget(self.tol, self.max_iters)


def _check_budget(tol: float, max_iters: int) -> None:
    if not (np.isfinite(tol) and tol > 0) or max_iters < 1:
        raise InputError(f"tol must be finite and positive and max_iters at "
                         f"least 1, got tol={tol} max_iters={max_iters}")


@dataclass(frozen=True, eq=False)
class CentralityScores:
    """Per-node scores for one measure.

    pagerank sums to one; hub and authority have unit 2-norm; the degree
    variants are raw weighted strengths.
    """

    kind: str
    values: np.ndarray


def stationary_visit_rates(g: RetweetGraph, damping: float = 0.85,
                           tol: float = 1e-12,
                           max_iters: int = 100_000) -> np.ndarray:
    """Stationary distribution of the damped retweet-endorsement walk.

    The walker at account j follows one of j's retweets (moving to the
    retweeted account) with probability `damping`, split proportionally to
    edge weights, and teleports uniformly otherwise. Nodes that never
    retweeted pass their non-teleport mass on uniformly.
    """
    n = g.n
    if n == 0:
        raise InputError("graph has no nodes")
    a = g.adjacency()
    out = g.out_strength.astype(np.float64)
    nonzero = out > 0
    inv_out = np.zeros(n)
    inv_out[nonzero] = 1.0 / out[nonzero]
    x = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(max_iters):
        dangling = x[~nonzero].sum()
        x_new = base + damping * (a @ (x * inv_out) + dangling / n)
        err = float(np.abs(x_new - x).sum())
        x = x_new
        if err < tol:
            x /= x.sum()
            return x
    raise ConvergenceError(
        f"visit-rate iteration did not converge within {max_iters} iterations",
        residual=err, iterations=max_iters)


def pagerank(g: RetweetGraph,
             params: PageRankParams = PageRankParams()) -> CentralityScores:
    rates = stationary_visit_rates(g, params.damping, params.tol, params.max_iters)
    return CentralityScores(kind="pagerank", values=rates)


def hits(g: RetweetGraph, tol: float = 1e-12,
         max_iters: int = 100_000) -> tuple[CentralityScores, CentralityScores]:
    """(hub, authority) scores by alternating power iteration.

    Hubs are accounts whose retweets point at strong authorities; both
    vectors start uniform and are normalized to unit 2-norm.
    """
    _check_budget(tol, max_iters)
    if g.w == 0:
        raise InputError("HITS requires at least one edge")
    a = g.adjacency()
    at = a.T.tocsr()
    h = np.full(g.n, 1.0 / np.sqrt(g.n))
    residual = np.inf
    for _ in range(max_iters):
        auth = a @ h
        h_new = at @ auth
        norm = np.linalg.norm(h_new)
        if norm == 0.0:
            raise DegenerateInputError("hub iteration collapsed to the zero vector")
        h_new /= norm
        residual = float(np.abs(h_new - h).max())
        h = h_new
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"HITS did not converge within {max_iters} iterations",
            residual=residual, iterations=max_iters)
    auth = a @ h
    auth_norm = np.linalg.norm(auth)
    if auth_norm == 0.0:
        raise DegenerateInputError("authority vector collapsed to the zero vector")
    auth /= auth_norm
    return (CentralityScores(kind="hub", values=h),
            CentralityScores(kind="authority", values=auth))


def degree_scores(g: RetweetGraph, direction: str) -> CentralityScores:
    if direction == "in":
        return CentralityScores(kind="in_degree",
                                values=g.in_strength.astype(np.float64))
    if direction == "out":
        return CentralityScores(kind="out_degree",
                                values=g.out_strength.astype(np.float64))
    raise InputError(f"direction must be 'in' or 'out', got {direction!r}")


def modular_degree_ratio(g: RetweetGraph, assignment: Sequence[int],
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Weighted in-degree per node split by its retweeters' community:
    (inter_in, intra_in) int64 arrays, which sum to `g.in_strength`.

    The paper's ratio is inter_in / intra_in where intra_in is positive.
    """
    part = np.asarray(assignment, dtype=np.int64)
    if part.shape != (g.n,):
        raise InputError("community assignment must cover every node")
    intra = np.zeros(g.n, dtype=np.int64)
    inter = np.zeros(g.n, dtype=np.int64)
    same = part[g.targets] == part[g.sources]
    np.add.at(intra, g.targets[same], g.counts[same])
    np.add.at(inter, g.targets[~same], g.counts[~same])
    return inter, intra


def top_k(scores: CentralityScores, k: int) -> list[int]:
    """Indices of the k best-scoring nodes, ties broken by ascending index."""
    if k < MIN_TOP_K:
        raise InputError(f"k must be at least {MIN_TOP_K}, got {k}")
    n = scores.values.size
    order = np.lexsort((np.arange(n), -scores.values))
    return [int(i) for i in order[:min(k, n)]]
