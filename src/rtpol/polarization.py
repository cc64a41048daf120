"""Dyad-level polarization statistics.

A dyad is a distinct aggregated edge between two different nodes, taken
once regardless of weight. The observed score correlation over dyads is
compared against a permutation null in which scores are reshuffled among
the originally scored nodes, and a discrete mixing matrix over left/right
classes yields the scalar assortativity coefficient

    r = (sum_l e_ll - sum_l a_l * b_l) / (1 - sum_l a_l * b_l).
"""

from __future__ import annotations

import logging
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
#: fewest permutation replicates whose null has a standard deviation
MIN_PERM = 2
# Bytes of one [block, n_scored] float64 array of the permutation null. On a
# 2 MB-per-core L2, 0.5 MB (66 rows at n_scored = 983) ran faster than 16 or
# 256 rows; at 49k scored nodes 1 to 8 rows ran at the same speed.
_BLOCK_BYTES = 1 << 19

_log = logging.getLogger(__name__)


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


def _item_salts(n_items: int) -> np.ndarray:
    return splitmix64_array(
        np.arange(n_items, dtype=np.uint64) ^ np.uint64(0x5851F42D4C957F2D))


def _replicate_keys(seed: int, lo: int, hi: int, salts: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 sort keys of replicates lo..hi-1, one row per replicate,
    computed in `out` when given.

    Row k - lo holds splitmix64(splitmix64(seed + k) ^ salt_i) for item i,
    with salt_i = splitmix64(i ^ 0x5851F42D4C957F2D) (`_item_salts`). The
    entries of a row are pairwise distinct: splitmix64 is a bijection on
    64-bit words, so the salts of distinct items differ, XOR with one
    replicate seed keeps them apart, and the outer round maps them to
    distinct keys. Any argsort of a row is therefore the same permutation
    as a stable one.
    """
    rep_seeds = splitmix64_array(
        np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.arange(lo, hi, dtype=np.uint64))
    keys = np.bitwise_xor(rep_seeds[:, None], salts[None, :], out=out)
    return splitmix64_array(keys, out=keys)


def _key_order(keys: np.ndarray, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """Row-wise argsort of distinct uint64 keys, as int64 item indices in
    `out`'s memory (`out` and `scratch` are uint64, shaped like `keys`).

    Each word keeps its key's bits above the bit_length(n_items - 1) low
    bits, which take the item index, and one in-place sort per row orders
    the words. Where a row's high parts strictly increase, that is the
    argsort; a row where two of them are equal (about n_items**2 /
    2**(65 - low bits) per row) is argsorted from its full keys.
    """
    n = keys.shape[1]
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    packed = np.bitwise_and(keys, ~low, out=out)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort(axis=1)
    # neighbours with equal high parts differ in the low bits only
    step = np.bitwise_xor(packed[:, 1:], packed[:, :-1], out=scratch[:, 1:])
    ties = np.flatnonzero(step.min(axis=1) <= low)
    packed &= low
    order = packed.view(np.int64)
    for r in ties:
        order[r] = np.argsort(keys[r])
    return order


def _replicate_rhos(vals: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                    seed: int, lo: int, hi: int) -> np.ndarray:
    """Dyad correlations of replicates lo..hi-1, NaN where skipped; see
    `permutation_test`."""
    n = vals.size
    m = src.size
    d_out = np.bincount(src, minlength=n).astype(np.float64)
    d_in = np.bincount(tgt, minlength=n).astype(np.float64)
    dyads = sparse.csr_matrix((np.ones(m), (src, tgt)), shape=(n, n))
    tiny = m * (1e-12 * max(1.0, float(np.abs(vals).max()))) ** 2
    salts = _item_salts(n)
    rows = min(max(1, _BLOCK_BYTES // (8 * n)), hi - lo)
    keys = np.empty((rows, n), dtype=np.uint64)
    s_buf = np.empty((rows, n))
    xc_buf = np.empty((rows, n))
    rhos = np.full(hi - lo, np.nan)
    skipped = 0
    for a in range(lo, hi, rows):
        b = min(rows, hi - a)
        order = _key_order(_replicate_keys(seed, a, a + b, salts, out=keys[:b]),
                           xc_buf[:b].view(np.uint64), s_buf[:b].view(np.uint64))
        s = np.take(vals, order, out=s_buf[:b])
        # Each sum runs along a contiguous row, which numpy sums pairwise in
        # an order set by n alone. Centred moments, not sum(x**2) -
        # sum(x)**2 / m: the raw form cancels to rounding noise near
        # eps * m * scale**2, far above `tiny`, and would keep replicates
        # with a constant margin.
        tmp = keys[:b].view(np.float64)
        mx = np.multiply(s, d_out, out=tmp).sum(axis=1) / m
        my = np.multiply(s, d_in, out=tmp).sum(axis=1) / m
        xc = np.subtract(s, mx[:, None], out=xc_buf[:b])
        yc = np.subtract(s, my[:, None], out=s)
        sxx = np.multiply(np.square(xc, out=tmp), d_out, out=tmp).sum(axis=1)
        syy = np.multiply(np.square(yc, out=tmp), d_in, out=tmp).sum(axis=1)
        # scipy's sparse product copies an operand whose replicate
        # columns are not contiguous
        yct = keys.view(np.float64).ravel()[:n * b].reshape(n, b)
        np.copyto(yct, yc.T)
        sxy = np.multiply(xc, (dyads @ yct).T, out=yc).sum(axis=1)
        ok = (sxx > tiny) & (syy > tiny)
        np.divide(sxy, np.sqrt(sxx * syy), out=rhos[a - lo:a - lo + b], where=ok)
        skipped += b - int(np.count_nonzero(ok))
        done = a + b - lo
        if 10 * done // (hi - lo) > 10 * (done - b) // (hi - lo):
            _log.debug("permutation null: %(done)d of %(total)d replicates,"
                       " %(skipped)d skipped", {"done": done,
                                                "total": hi - lo, "skipped": skipped})
    return rhos


def permutation_test(g: RetweetGraph, node_scores: np.ndarray,
                     n_perm: int = 100_000, seed: int = 0) -> PermutationResult:
    """Permutation null for the dyad correlation.

    Replicate k reassigns the score multiset uniformly at random among the
    originally scored nodes: scored node i takes the score of the item
    with the i-th smallest of the sort keys derived by splitmix64 from
    (seed + k) (`_replicate_keys`). The returned z compares the observed
    correlation (`rho`, over `n_dyads`) against the null mean and standard
    deviation. Replicates with a degenerate margin (centred sum of squares
    at most `tiny`) are skipped and counted; more than 1% of them flips
    the warning flag.

    Replicates are evaluated in blocks without forming per-dyad values.
    The dyad margins of a permuted score vector s are repeats of it,
    x = s[src] and y = s[tgt], so with out- and in-degrees d_out and d_in
    over the m dyads and the 0/1 dyad matrix D,

        mean(x) = d_out . s / m,          sxx = d_out . (s - mean(x))**2,
        mean(y) = d_in . s / m,           syy = d_in . (s - mean(y))**2,
        sxy = (s - mean(x))^T D (s - mean(y)),

    and a block needs one sparse-dense product for sxy. Each sum runs
    along one replicate's row in an order fixed by n_scored alone, so
    replicate k has the same bits in any block and alone
    (`_replicate_rhos(..., k, k + 1)`). A block holds as many replicates
    as fit `_BLOCK_BYTES` per [block, n_scored] float64 array, which keeps
    it in a per-core L2 cache. A replicate's permutation is the argsort of
    its keys, found by one in-place sort of words that pack each key's
    high bits above the item index, with a full argsort for the rare row
    whose high parts tie (`_key_order`). DEBUG records on the
    `rtpol.polarization` logger give the replicates done and skipped, one
    for each block that completes another tenth of the replicates.
    """
    if n_perm < MIN_PERM:
        raise InputError(f"need at least {MIN_PERM} permutation replicates, got {n_perm}")
    rho_obs, n_dyads = dyad_correlation(g, node_scores)
    vals, src, tgt = _dyad_positions(g, node_scores)
    rhos = _replicate_rhos(vals, src, tgt, seed, 0, n_perm)
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
        dropped = set(drop_nodes)
        keep = [i for i, ext in enumerate(g.ids) if ext not in dropped]
        g = induced_subgraph(g, keep)  # keeps `keep`'s ascending order
        scores = scores[keep]
    perm = permutation_test(g, scores, n_perm=n_perm, seed=seed)
    mix = mixing_matrix(g, classes_from_scores(scores))
    return AssortativityReport(perm=perm, mixing=mix, r=assortativity_r(mix))
