"""Dyad-level polarization statistics.

A dyad is a distinct aggregated edge between two different nodes, taken
once regardless of weight. The observed score correlation over dyads is
compared against a permutation null in which scores are reshuffled among
the originally scored nodes, and a discrete mixing matrix over left/right
classes yields the scalar assortativity coefficient

    r = (sum_l e_ll - sum_l a_l * b_l) / (1 - sum_l a_l * b_l).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import DegenerateInputError, InputError
from .graph import RetweetGraph, induced_subgraph
from .pca import sign_class
from .rng import splitmix64_array

#: replicate fraction above which skipped permutations trigger a warning
SKIP_WARN_FRACTION = 0.01


@dataclass(frozen=True, eq=False)
class PermutationResult:
    rho: float
    n_dyads: int
    n_perm: int
    mean: float
    sd: float
    z: float
    n_skipped: int
    warning: bool


@dataclass(frozen=True, eq=False)
class MixingMatrix:
    """Edge fractions between classes; rows index the retweeter side."""

    labels: tuple[str, ...]
    e: np.ndarray
    n_edges: int

    @property
    def a(self) -> np.ndarray:
        return self.e.sum(axis=1)

    @property
    def b(self) -> np.ndarray:
        return self.e.sum(axis=0)


@dataclass(frozen=True, eq=False)
class AssortativityReport:
    perm: PermutationResult
    mixing: MixingMatrix
    r: float

    def to_json_dict(self) -> dict:
        return {
            "rho": self.perm.rho,
            "n_dyads": self.perm.n_dyads,
            "perm": {
                "n": self.perm.n_perm,
                "mean": self.perm.mean,
                "sd": self.perm.sd,
                "skipped": self.perm.n_skipped,
                "warning": self.perm.warning,
            },
            "z": self.perm.z,
            "r": self.r,
            "labels": list(self.mixing.labels),
            "e": self.mixing.e.tolist(),
            "a": self.mixing.a.tolist(),
            "b": self.mixing.b.tolist(),
        }


def _dyad_positions(g: RetweetGraph, node_scores: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scored-node values plus per-dyad (source, target) positions into them.

    Dyads are distinct aggregated edges with two different endpoints, both
    carrying a score.
    """
    scores = np.asarray(node_scores, dtype=np.float64)
    if scores.shape != (g.n,):
        raise InputError("node scores are not aligned to the graph")
    scored = np.flatnonzero(~np.isnan(scores))
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[scored] = np.arange(scored.size)
    keep = ((g.targets != g.sources)
            & (pos[g.targets] >= 0) & (pos[g.sources] >= 0))
    return scores[scored], pos[g.sources[keep]], pos[g.targets[keep]]


def dyad_correlation(g: RetweetGraph,
                     node_scores: np.ndarray) -> tuple[float, int]:
    """Pearson correlation of (retweeter score, retweeted score) over dyads."""
    vals, src, tgt = _dyad_positions(g, node_scores)
    n = src.size
    if n < 2:
        raise DegenerateInputError(f"need at least 2 scored dyads, found {n}")
    x = vals[src]
    y = vals[tgt]
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt((xc @ xc) * (yc @ yc)))
    if denom == 0.0:
        raise DegenerateInputError("zero variance on a dyad margin")
    return float((xc @ yc) / denom), int(n)


def _replicate_keys(seed: int, lo: int, hi: int, n_items: int) -> np.ndarray:
    """splitmix64 sort keys of replicates lo..hi-1, one row per replicate.

    Row k - lo holds splitmix64(splitmix64(seed + k) ^ salt_i) for item i,
    with salt_i = splitmix64(i ^ 0x5851F42D4C957F2D). The entries of a row
    are pairwise distinct: splitmix64 is a bijection on 64-bit words, so
    the salts of distinct items differ, XOR with one replicate seed keeps
    them apart, and the outer round maps them to distinct keys. Any
    argsort of a row is therefore the same permutation as a stable one.
    """
    rep_seeds = splitmix64_array(
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.arange(lo, hi, dtype=np.uint64))
    item_salt = splitmix64_array(
        np.arange(n_items, dtype=np.uint64) ^ np.uint64(0x5851F42D4C957F2D))
    return splitmix64_array(rep_seeds[:, None] ^ item_salt[None, :])


def permutation_test(g: RetweetGraph, node_scores: np.ndarray,
                     n_perm: int = 100_000, seed: int = 0) -> PermutationResult:
    """Permutation null for the dyad correlation.

    Replicate k reassigns the score multiset uniformly at random among the
    originally scored nodes: scored node i takes the score of the item
    with the i-th smallest of the sort keys derived by splitmix64 from
    (seed + k) (`_replicate_keys`), so any replicate can be regenerated
    independently. The returned z compares the observed correlation (`rho`,
    over `n_dyads`) against the null mean and standard deviation.
    Replicates with a degenerate margin (centred sum of squares at most
    `tiny`) are skipped and counted; more than 1% of them flips the
    warning flag.

    Replicates are evaluated in blocks without forming per-dyad values.
    The dyad margins of a permuted score vector s are repeats of it,
    x = s[src] and y = s[tgt], so with out- and in-degrees d_out and d_in
    over the m dyads and the 0/1 dyad matrix D,

        mean(x) = d_out . s / m,          sxx = d_out . (s - mean(x))**2,
        mean(y) = d_in . s / m,           syy = d_in . (s - mean(y))**2,
        sxy = (s - mean(x))^T D (s - mean(y)),

    and a block needs one sparse-dense product for sxy.
    """
    if n_perm < 2:
        raise InputError(f"need at least 2 permutation replicates, got {n_perm}")
    rho_obs, n_dyads = dyad_correlation(g, node_scores)
    vals, src, tgt = _dyad_positions(g, node_scores)
    n_scored = vals.size
    m = src.size
    d_out = np.bincount(src, minlength=n_scored).astype(np.float64)
    d_in = np.bincount(tgt, minlength=n_scored).astype(np.float64)
    dyads = sparse.csr_matrix((np.ones(m), (src, tgt)),
                              shape=(n_scored, n_scored))
    scale = float(np.abs(vals).max())
    tiny = m * (1e-12 * max(1.0, scale)) ** 2

    rhos = np.empty(n_perm)
    # 250k float64 (2 MB) per [block, n_scored] array stays within a 4 MB
    # per-core L2 cache and keeps peak memory low; 1M-element blocks ran
    # slower on such a core
    chunk = max(16, 250_000 // n_scored)
    for lo in range(0, n_perm, chunk):
        hi = min(lo + chunk, n_perm)
        s = vals[np.argsort(_replicate_keys(seed, lo, hi, n_scored), axis=1)]
        # Centred moments, not sum(x**2) - sum(x)**2 / m: the raw form
        # cancels to rounding noise near eps * m * scale**2, far above
        # `tiny`, and would keep replicates with a constant margin.
        xc = s - (s @ d_out / m)[:, None]
        yc = s - (s @ d_in / m)[:, None]
        sxx = (xc * xc) @ d_out
        syy = (yc * yc) @ d_in
        sxy = np.einsum("ij,ji->i", xc, dyads @ yc.T)
        ok = (sxx > tiny) & (syy > tiny)
        block = np.full(hi - lo, np.nan)
        block[ok] = sxy[ok] / np.sqrt(sxx[ok] * syy[ok])
        rhos[lo:hi] = block

    kept = rhos[~np.isnan(rhos)]
    n_skipped = int(n_perm - kept.size)
    if kept.size < 2:
        raise DegenerateInputError("all permutation replicates were degenerate")
    mean = float(kept.mean())
    sd = float(kept.std(ddof=1))
    if sd == 0.0:
        raise DegenerateInputError("permutation null has zero spread")
    return PermutationResult(
        rho=rho_obs, n_dyads=n_dyads, n_perm=n_perm, mean=mean, sd=sd,
        z=float((rho_obs - mean) / sd),
        n_skipped=n_skipped,
        warning=n_skipped > SKIP_WARN_FRACTION * n_perm)


def mixing_matrix(g: RetweetGraph,
                  node_classes: Sequence[str | None]) -> MixingMatrix:
    """Fractions of classified dyads by (retweeter class, retweeted class).

    `node_classes` holds a class label per node, None for unclassified.
    Labels are ordered lexicographically, which places "left" before
    "right" for the usual two-class case.
    """
    if len(node_classes) != g.n:
        raise InputError("node classes are not aligned to the graph")
    labels = tuple(sorted({c for c in node_classes if c is not None}))
    if not labels:
        raise DegenerateInputError("no classified nodes")
    lut = {lab: i for i, lab in enumerate(labels)}
    code = np.array([-1 if c is None else lut[c] for c in node_classes],
                    dtype=np.int64)
    k = len(labels)
    cs = code[g.sources]
    ct = code[g.targets]
    keep = (g.targets != g.sources) & (cs >= 0) & (ct >= 0)
    n_edges = int(keep.sum())
    if n_edges == 0:
        raise DegenerateInputError("no dyads with both endpoints classified")
    e = np.bincount(cs[keep] * k + ct[keep],
                    minlength=k * k).reshape(k, k).astype(np.float64)
    e /= n_edges
    return MixingMatrix(labels=labels, e=e, n_edges=n_edges)


def assortativity_r(e: MixingMatrix | np.ndarray) -> float:
    """Discrete assortativity coefficient of a mixing matrix.

    Accepts a matrix whose total is within 1% of one (rounded published
    tables qualify) and renormalizes before evaluating.
    """
    mat = e.e if isinstance(e, MixingMatrix) else np.asarray(e, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InputError("mixing matrix must be square")
    if (mat < 0).any():
        raise InputError("mixing matrix entries must be nonnegative")
    total = float(mat.sum())
    if not 0.99 <= total <= 1.01:
        raise InputError(f"mixing matrix total {total} is not close to 1")
    mat = mat / total
    a = mat.sum(axis=1)
    b = mat.sum(axis=0)
    chance = float(a @ b)
    denom = 1.0 - chance
    if abs(denom) < 1e-12:
        raise DegenerateInputError("single effective class; r is undefined")
    return (float(np.trace(mat)) - chance) / denom


def classes_from_scores(node_scores: np.ndarray) -> list[str | None]:
    """Map signed scores to 'left'/'right' by `pca.sign_class`; NaN and the
    zero band map to None."""
    classes = (sign_class(v) for v in np.asarray(node_scores, dtype=np.float64))
    return [None if c == "unclassified" else c for c in classes]


def assortativity_report(g: RetweetGraph, node_scores: np.ndarray,
                         n_perm: int = 100_000, seed: int = 0,
                         drop_nodes: Sequence[str] = ()) -> AssortativityReport:
    """Full dyad-assortativity suite on one graph.

    `drop_nodes` removes the named accounts (typically the focal media
    accounts) before any statistic is computed.
    """
    scores = np.asarray(node_scores, dtype=np.float64)
    if drop_nodes:
        dropped = {g.index_of[ext] for ext in drop_nodes if ext in g.index_of}
        keep = [i for i in range(g.n) if i not in dropped]
        g = induced_subgraph(g, keep)  # keeps `keep`'s ascending order
        scores = scores[keep]
    perm = permutation_test(g, scores, n_perm=n_perm, seed=seed)
    mix = mixing_matrix(g, classes_from_scores(scores))
    return AssortativityReport(perm=perm, mixing=mix, r=assortativity_r(mix))
