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

from .errors import DegenerateInputError, InputError
from .graph import RetweetGraph, induced_subgraph
from .pca import sign_class
from .rng import splitmix64_array

#: replicate fraction above which skipped permutations trigger a warning
SKIP_WARN_FRACTION = 0.01


@dataclass(frozen=True, eq=False)
class PermutationResult:
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
    rho: float
    n_dyads: int
    perm: PermutationResult
    mixing: MixingMatrix
    r: float

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "n_dyads": self.n_dyads,
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


def permutation_test(g: RetweetGraph, node_scores: np.ndarray,
                     n_perm: int = 100_000, seed: int = 0) -> PermutationResult:
    """Permutation null for the dyad correlation.

    Replicate k reassigns the score multiset uniformly at random among the
    originally scored nodes, using sort keys derived by splitmix64 from
    (seed + k), so any replicate can be regenerated independently. The
    returned z compares the observed correlation against the null mean and
    standard deviation. Replicates with a degenerate margin are skipped and
    counted; more than 1% of them flips the warning flag.
    """
    if n_perm < 2:
        raise InputError(f"need at least 2 permutation replicates, got {n_perm}")
    rho_obs, _ = dyad_correlation(g, node_scores)
    vals, src, tgt = _dyad_positions(g, node_scores)
    n_scored = vals.size
    m = src.size
    rep_seeds = splitmix64_array(
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        + np.arange(n_perm, dtype=np.uint64))
    item_salt = splitmix64_array(
        np.arange(n_scored, dtype=np.uint64) ^ np.uint64(0x5851F42D4C957F2D))
    scale = float(np.abs(vals).max())
    tiny = m * (1e-12 * max(1.0, scale)) ** 2

    rhos = np.empty(n_perm)
    chunk = max(16, 8_000_000 // max(1, 2 * m + n_scored))
    for lo in range(0, n_perm, chunk):
        hi = min(lo + chunk, n_perm)
        keys = splitmix64_array(rep_seeds[lo:hi, None] ^ item_salt[None, :])
        perm = np.argsort(keys, axis=1, kind="stable")
        sp = vals[perm]
        x = sp[:, src]
        y = sp[:, tgt]
        x -= x.mean(axis=1, keepdims=True)
        y -= y.mean(axis=1, keepdims=True)
        sxx = np.einsum("ij,ij->i", x, x)
        syy = np.einsum("ij,ij->i", y, y)
        sxy = np.einsum("ij,ij->i", x, y)
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
        n_perm=n_perm, mean=mean, sd=sd, z=float((rho_obs - mean) / sd),
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
    e = np.zeros((len(labels), len(labels)))
    n_edges = 0
    for t, s in zip(g.targets, g.sources):
        if t == s:
            continue
        ct = node_classes[int(t)]
        cs = node_classes[int(s)]
        if ct is None or cs is None:
            continue
        e[lut[cs], lut[ct]] += 1.0
        n_edges += 1
    if n_edges == 0:
        raise DegenerateInputError("no dyads with both endpoints classified")
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
        g, mapping = induced_subgraph(g, keep)
        remapped = np.full(g.n, np.nan)
        for old, new in mapping.items():
            remapped[new] = scores[old]
        scores = remapped
    rho, n_dyads = dyad_correlation(g, scores)
    perm = permutation_test(g, scores, n_perm=n_perm, seed=seed)
    mix = mixing_matrix(g, classes_from_scores(scores))
    return AssortativityReport(rho=rho, n_dyads=n_dyads, perm=perm,
                               mixing=mix, r=assortativity_r(mix))
