"""Community detection on the directed weighted retweet graph.

Two objectives are implemented. Directed weighted modularity compares
within-community weight against a strength-product null,

    Q = (1/w) * sum_ij (A_ij - gamma * win_i * wout_j / w) [c_i == c_j],

and is optimized by a Louvain scheme whose node-sweep gains come from the
symmetrized modularity matrix B + B', which optimizes the directed Q
exactly. The two-level map equation scores a partition by the description
length of a damped random walk, evaluated at teleportation-smoothed visit
rates; teleportation steps are not encoded, so module exits count link
flow only.

Both objectives are optimized by one driver, `_multilevel`. A level starts
from labels: the caller's `start` at level 0 (n integers in range(n),
repeats allowed), and otherwise each node alone in the module whose id is
its position in the level's seeded order, so ids are tie-break ranks that
renumbering nodes cannot change; ids minted later (n, n+1, ...) rank after
them. The level takes its nodes from a queue that starts in label order,
moving each to its best neighbouring module; a node that moves queues its
neighbours outside its new module, and the level ends when the queue is
empty (the Leiden "fast local move", Traag et al. 2019). The modules then
become the supernodes of the next level, until a level ends with as many
modules as nodes. Every move improves the objective, so the result is
never worse than the start. The driver owns the start labels, the queue
and the relabelling. Each objective is a level class with four members:

- `n`, the number of (super)nodes of the level;
- `mover(comm)`, which returns `move(v) -> bool` from start labels `comm`
  in range(n), repeats allowed. A call moves node v to the best of its
  neighbours' modules, tried in id order (a kernel may open a new module),
  writes it to `comm[v]`, and reports whether v changed module;
- `neighbours()`, (indptr, indices) CSR pairs whose rows list v's neighbours;
- `aggregate(labels, k)`, which returns the next level, whose k nodes are
  the modules given by `labels`.

`comm` is a list and the kernels read level arrays through memoryviews,
whose items are plain ints and floats: boxing a numpy scalar per access
would cost more than the arithmetic. For the same reason the Infomap
kernel keeps its module state in flat per-module lists. Each level logs
its size, node visits, moves and module count at DEBUG on the
`rtpol.community` logger.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .errors import DegenerateInputError, InputError
from .graph import RetweetGraph
from .centrality import stationary_visit_rates
from .pca import sign_class
from .rng import derive_seed, generator

#: default resolution grid for the sweep
DEFAULT_GAMMA_GRID = (0.01, 0.05, 0.1, 1.0, 5.0, 10.0)

#: minimum objective gain for a greedy move to be accepted
GAIN_EPS = 1e-10

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ModularityParams:
    gamma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InputError(f"gamma must be finite and positive, got {self.gamma}")


@dataclass(frozen=True)
class MapEquationParams:
    tau: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise InputError(f"tau must lie in (0, 1), got {self.tau}")


@dataclass(frozen=True, eq=False)
class Partition:
    """Community assignment per node; ids are contiguous 0..k-1."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.int64)
        object.__setattr__(self, "assignment", arr)
        if arr.size and not np.array_equal(np.unique(arr), np.arange(self.k)):
            raise InputError("community ids must be contiguous from 0")
        if not arr.size and self.k != 0:
            raise InputError("empty assignment must have k = 0")

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        """Compact arbitrary labels by first appearance in node order."""
        labels = np.asarray(labels, dtype=np.int64)
        out, k = _compact_by_order(labels, np.arange(labels.size))
        return cls(assignment=out, k=k)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


@dataclass(frozen=True)
class CommunityProfile:
    community: int
    size: int
    n_left: int
    n_right: int
    mean_score: float | None
    shannon: float | None


def modularity(g: RetweetGraph, partition: Partition,
               params: ModularityParams = ModularityParams()) -> float:
    """Directed weighted modularity of a partition, computed sparsely."""
    if g.w == 0:
        raise DegenerateInputError("modularity is undefined on a graph with no edges")
    a = partition.assignment
    if a.shape != (g.n,):
        raise InputError("partition does not cover the graph")
    within = int(g.counts[a[g.targets] == a[g.sources]].sum())
    win = np.bincount(a, weights=g.in_strength, minlength=partition.k)
    wout = np.bincount(a, weights=g.out_strength, minlength=partition.k)
    w = float(g.w)
    return within / w - params.gamma * float(win @ wout) / (w * w)


def shannon_diversity(n_left: int, n_right: int) -> float | None:
    """Shannon index of the left/right split, natural log, 0 log 0 = 0."""
    total = n_left + n_right
    if total == 0:
        return None
    h = 0.0
    for count in (n_left, n_right):
        if count > 0:
            p = count / total
            h -= p * math.log(p)
    return h


# ---------------------------------------------------------------------------
# Multilevel local moving, shared by Louvain and Infomap
# ---------------------------------------------------------------------------


def _compact_by_order(labels: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel communities 0..k-1 by first appearance along `order`, a
    permutation of the node indices."""
    uniq, first, inverse = np.unique(labels[order], return_index=True,
                                     return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(uniq.size)
    out = np.empty(labels.size, dtype=np.int64)
    out[order] = rank[inverse]
    return out, int(uniq.size)


def _csr_views(mat: sparse.csr_matrix) -> tuple[memoryview, memoryview, memoryview]:
    """indptr, indices and data of a CSR matrix as memoryviews."""
    return memoryview(mat.indptr), memoryview(mat.indices), memoryview(mat.data)


def _multilevel(level, seed: int, start: Sequence[int] | None,
                tag: int) -> Partition:
    """Greedy move-and-aggregate search over a chain of levels, each moving
    its nodes from a queue until it runs empty (see the module docstring).
    Level l starts from the ranks of the order drawn from the
    (seed, tag, l, 0) stream, or at level 0 from `start` when it is given.
    """
    n0 = level.n
    if start is not None:
        start = np.asarray(start)
        if (start.dtype.kind not in "iu" or start.shape != (n0,)
                or start.min() < 0 or start.max() >= n0):
            raise InputError(f"start must hold {n0} integer labels in range({n0})")

    membership = np.arange(n0, dtype=np.int64)
    for depth in itertools.count():
        n = level.n
        labels = (start if depth == 0 and start is not None else
                  np.argsort(generator(derive_seed(seed, tag, depth, 0)).permutation(n)))
        order = np.argsort(labels, kind="stable")
        comm = labels.tolist()
        move = level.mover(comm)
        csrs = level.neighbours()
        queue = deque(order.tolist())
        queued = bytearray(b"\x01") * n
        visits = moves = 0
        while queue:
            v = queue.popleft()
            queued[v] = 0
            visits += 1
            if not move(v):
                continue
            moves += 1
            cv = comm[v]
            for indptr, indices in csrs:
                for u in indices[indptr[v]:indptr[v + 1]]:
                    if not queued[u] and comm[u] != cv:
                        queued[u] = 1
                        queue.append(u)
        labels, k = _compact_by_order(np.array(comm, dtype=np.int64), order)
        _log.debug("level %(depth)d: n=%(n)d visits=%(visits)d moves=%(moves)d"
                   " k=%(k)d", {"depth": depth, "n": n, "visits": visits,
                                "moves": moves, "k": k})
        membership = labels[membership]
        if k == n:
            break
        level = level.aggregate(labels, k)
    return Partition.from_labels(membership)


# ---------------------------------------------------------------------------
# Louvain on the symmetrized modularity matrix
# ---------------------------------------------------------------------------


class _ModularityLevel:
    """Directed weighted edges between the supernodes of one Louvain level.

    Moves are scored on the symmetrized neighbour weights A + A' without
    self-loops; `w` is the total weight of the original graph.
    """

    def __init__(self, n: int, targets: np.ndarray, sources: np.ndarray,
                 weights: np.ndarray, w: float, gamma: float):
        self.n = n
        self.targets = targets
        self.sources = sources
        self.weights = weights
        self.w = w
        self.gamma = gamma
        a = sparse.coo_matrix((weights, (targets, sources)), shape=(n, n))
        self.sym = (a + a.T).tocsr()
        self.sym.setdiag(0)
        self.sym.eliminate_zeros()
        self.win = np.bincount(targets, weights=weights, minlength=n)
        self.wout = np.bincount(sources, weights=weights, minlength=n)

    def mover(self, comm: list[int]) -> Callable[[int], bool]:
        indptr, indices, data = _csr_views(self.sym)
        win, wout = memoryview(self.win), memoryview(self.wout)
        acc_in = memoryview(np.bincount(comm, weights=self.win, minlength=self.n))
        acc_out = memoryview(np.bincount(comm, weights=self.wout, minlength=self.n))
        gamma_w = self.gamma / self.w

        def move(v: int) -> bool:
            cv = comm[v]
            iv = win[v]
            ov = wout[v]
            acc_in[cv] -= iv
            acc_out[cv] -= ov
            kvc: dict[int, float] = {}
            for e in range(indptr[v], indptr[v + 1]):
                c = comm[indices[e]]
                kvc[c] = kvc.get(c, 0.0) + data[e]
            best_c = cv
            best_gain = kvc.get(cv, 0.0) - gamma_w * (iv * acc_out[cv] + ov * acc_in[cv])
            for c in sorted(kvc):
                if c == cv:
                    continue
                gain = kvc[c] - gamma_w * (iv * acc_out[c] + ov * acc_in[c])
                if gain > best_gain + GAIN_EPS:
                    best_gain = gain
                    best_c = c
            comm[v] = best_c
            acc_in[best_c] += iv
            acc_out[best_c] += ov
            return best_c != cv

        return move

    def neighbours(self) -> tuple[tuple[memoryview, memoryview], ...]:
        return (_csr_views(self.sym)[:2],)

    def aggregate(self, labels: np.ndarray, k: int) -> "_ModularityLevel":
        pair = labels[self.targets] * k + labels[self.sources]
        uniq, inv = np.unique(pair, return_inverse=True)
        return _ModularityLevel(k, uniq // k, uniq % k,
                                np.bincount(inv, weights=self.weights),
                                self.w, self.gamma)


def louvain(g: RetweetGraph, params: ModularityParams = ModularityParams(),
            seed: int = 0, start: Sequence[int] | None = None) -> Partition:
    """Greedy directed-modularity optimization, Louvain style.

    Starts from singletons in seeded order, or from the labels `start`: n
    integers in range(n), repeats allowed, whose nodes level 0 visits in
    label order. Every move raises Q, so the returned partition never
    scores below its start.
    """
    if g.w == 0:
        raise DegenerateInputError("cannot optimize modularity on a graph with no edges")
    level = _ModularityLevel(g.n, g.targets, g.sources, g.counts.astype(np.float64),
                             float(g.w), params.gamma)
    return _multilevel(level, seed, start, tag=0)


# ---------------------------------------------------------------------------
# Two-level map equation and its greedy optimizer
# ---------------------------------------------------------------------------


def _plogp(x: float) -> float:
    return x * math.log2(x) if x > 0.0 else 0.0


def _build_flows(g: RetweetGraph, params: MapEquationParams,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visit rates, per-edge link flows, and per-node unrecorded dangling rates.

    Link flow on edge (t, s) is p_s * (1 - tau) * count / out_strength_s,
    the rate at which encoded steps traverse that edge. Dangling nodes
    spread their non-teleport rate uniformly; those steps are unrecorded
    but still leave their module, so the rate is tracked separately.
    """
    p = stationary_visit_rates(g, 1.0 - params.tau)
    out = g.out_strength.astype(np.float64)
    flows = np.zeros(g.n_edges)
    if g.n_edges:
        flows = p[g.sources] * (1.0 - params.tau) * g.counts / out[g.sources]
    dangling = np.zeros(g.n)
    mask = out == 0
    dangling[mask] = p[mask] * (1.0 - params.tau)
    return p, flows, dangling


def map_equation(g: RetweetGraph, partition: Partition,
                 params: MapEquationParams = MapEquationParams()) -> float:
    """Description length (bits) of the partition under the damped walk.

    Uses the algebraic form L = plogp(q) - 2 sum plogp(q_m)
    + sum plogp(q_m + p_m) - sum_alpha plogp(p_alpha), where module m
    exits at rate q_m: its link flow out plus the dangling rate that its
    nodes spread to the nodes outside it.
    """
    a = partition.assignment
    if a.shape != (g.n,):
        raise InputError("partition does not cover the graph")
    p, flows, dangling = _build_flows(g, params)
    k = partition.k
    cross = a[g.targets] != a[g.sources]
    qlink = np.bincount(a[g.sources[cross]], weights=flows[cross], minlength=k)
    umass = np.bincount(a, weights=dangling, minlength=k)
    sizes = np.bincount(a, minlength=k).astype(np.float64)
    q_m = qlink + umass * (g.n - sizes) / g.n
    total = _plogp(float(q_m.sum())) - float(sum(_plogp(float(x)) for x in p))
    for qm, pm in zip(q_m, np.bincount(a, weights=p, minlength=k)):
        total += -2.0 * _plogp(float(qm)) + _plogp(float(qm + pm))
    return total


class _FlowLevel:
    """Supernode flow state for one aggregation level of the map equation.

    Each supernode carries its visit mass, its unrecorded dangling rate,
    and the number of original nodes it stands for; link flows between
    supernodes are held in CSR/CSC form with self-flows split out. The
    mover's per-module lists always end with one empty module: a node opens
    a new module by taking it, which appends the next empty one.
    """

    def __init__(self, n_orig: int, p: np.ndarray, umass: np.ndarray,
                 sizes: np.ndarray, from_idx: np.ndarray, to_idx: np.ndarray,
                 flow: np.ndarray):
        self.n_orig = n_orig
        self.n = p.size
        self.p = p
        self.umass = umass
        self.sizes = sizes
        off = from_idx != to_idx
        self.self_flow = np.bincount(from_idx[~off], weights=flow[~off],
                                     minlength=self.n)
        mat = sparse.csr_matrix((flow[off], (from_idx[off], to_idx[off])),
                                shape=(self.n, self.n))
        mat.sum_duplicates()
        self.out_mat = mat
        self.in_mat = mat.T.tocsr()
        self.out_total = np.asarray(mat.sum(axis=1)).ravel()

    def mover(self, comm: list[int]) -> Callable[[int], bool]:
        n_orig = self.n_orig
        out_total, p, umass, sizes = map(memoryview, (self.out_total, self.p,
                                                      self.umass, self.sizes))
        out_ptr, out_idx, out_dat = _csr_views(self.out_mat)
        in_ptr, in_idx, in_dat = _csr_views(self.in_mat)
        # per module: link exit flow (out-flow that leaves it), dangling rate,
        # size, visit mass, exit rate q_m and term -2 plogp(q_m) + plogp(q_m + p_m)
        labels, coo = np.asarray(comm), self.out_mat.tocoo()
        leave = self.out_total - np.bincount(
            coo.row, coo.data * (labels[coo.row] == labels[coo.col]), self.n)
        ql, um, sz, pm = (np.bincount(comm, weights=a, minlength=self.n).tolist() + [0.0]
                          for a in (leave, self.umass, self.sizes, self.p))
        qm = [ql[c] + um[c] * (n_orig - sz[c]) / n_orig for c in range(self.n + 1)]
        q_total = float(sum(qm[c] for c in dict.fromkeys(comm)))  # once per module
        tm = [-2.0 * _plogp(q) + _plogp(q + m) for q, m in zip(qm, pm)]
        state = (ql, um, sz, pm, qm, tm)

        def move(v: int) -> bool:
            nonlocal q_total
            cv = comm[v]
            # link flow between v and each neighbouring module
            to_mod: dict[int, float] = {}
            from_mod: dict[int, float] = {}
            for e in range(out_ptr[v], out_ptr[v + 1]):
                c = comm[out_idx[e]]
                to_mod[c] = to_mod.get(c, 0.0) + out_dat[e]
            for e in range(in_ptr[v], in_ptr[v + 1]):
                c = comm[in_idx[e]]
                from_mod[c] = from_mod.get(c, 0.0) + in_dat[e]
            out_v = out_total[v]
            p_v = p[v]
            u_v = umass[v]
            sz_v = sizes[v]

            # state of the current module once v is taken out
            q_a = qm[cv]
            ql_a2 = ql[cv] - (out_v - to_mod.get(cv, 0.0)) + from_mod.get(cv, 0.0)
            um_a2 = um[cv] - u_v
            sz_a2 = sz[cv] - sz_v
            pm_a2 = pm[cv] - p_v
            q_a2 = t_a2 = 0.0
            candidates = sorted(set(to_mod) | set(from_mod))
            if sz_a2 > 0.5:
                # v is not alone: the trailing empty module is tried last
                q_a2 = ql_a2 + um_a2 * (n_orig - sz_a2) / n_orig
                t_a2 = -2.0 * _plogp(q_a2) + _plogp(q_a2 + pm_a2)
                candidates.append(len(sz) - 1)
            removal_term = t_a2 - tm[cv]
            q_rest = q_total - q_a
            plogp_total = _plogp(q_total)

            best = None
            best_delta = 0.0
            for c in candidates:
                if c == cv:
                    continue
                ql_b2 = ql[c] + (out_v - to_mod.get(c, 0.0)) - from_mod.get(c, 0.0)
                q_b2 = ql_b2 + (um[c] + u_v) * (n_orig - (sz[c] + sz_v)) / n_orig
                q_tot2 = q_rest - qm[c] + q_a2 + q_b2
                t_b2 = -2.0 * _plogp(q_b2) + _plogp(q_b2 + (pm[c] + p_v))
                delta = _plogp(q_tot2) - plogp_total + removal_term + t_b2 - tm[c]
                if delta < best_delta - GAIN_EPS:
                    best_delta = delta
                    best = (c, ql_b2, q_b2, t_b2)
            if best is None:
                return False
            c, ql_b2, q_b2, t_b2 = best
            q_total += -q_a - qm[c] + q_a2 + q_b2
            ql[cv], um[cv], sz[cv], pm[cv], qm[cv], tm[cv] = (
                ql_a2, um_a2, sz_a2, pm_a2, q_a2, t_a2)
            ql[c], um[c], sz[c], pm[c], qm[c], tm[c] = (
                ql_b2, um[c] + u_v, sz[c] + sz_v, pm[c] + p_v, q_b2, t_b2)
            if c == len(sz) - 1:
                for col in state:
                    col.append(0.0)
            comm[v] = c
            return True

        return move

    def neighbours(self) -> tuple[tuple[memoryview, memoryview], ...]:
        return (_csr_views(self.out_mat)[:2], _csr_views(self.in_mat)[:2])

    def aggregate(self, labels: np.ndarray, k: int) -> "_FlowLevel":
        coo = self.out_mat.tocoo()
        frm = np.concatenate([coo.row, np.arange(self.n)])
        to = np.concatenate([coo.col, np.arange(self.n)])
        fl = np.concatenate([coo.data, self.self_flow])
        keep = fl > 0
        return _FlowLevel(self.n_orig,
                          np.bincount(labels, weights=self.p, minlength=k),
                          np.bincount(labels, weights=self.umass, minlength=k),
                          np.bincount(labels, weights=self.sizes, minlength=k),
                          labels[frm[keep]], labels[to[keep]], fl[keep])


def infomap(g: RetweetGraph, params: MapEquationParams = MapEquationParams(),
            seed: int = 0, start: Sequence[int] | None = None) -> Partition:
    """Greedy two-level map-equation minimization.

    Starts from singletons in seeded order, or from the labels `start` as
    in `louvain`. Every move shortens the description length, so the
    result never codes worse than its start.
    """
    if g.n == 0:
        raise InputError("graph has no nodes")
    p, flows, dangling = _build_flows(g, params)
    level = _FlowLevel(g.n, p, dangling, np.ones(g.n), g.sources, g.targets, flows)
    return _multilevel(level, seed, start, tag=1)


# ---------------------------------------------------------------------------
# Community characterization
# ---------------------------------------------------------------------------


def community_profiles(partition: Partition,
                       node_scores: np.ndarray) -> list[CommunityProfile]:
    """Size, left/right composition, mean score, and Shannon index per community.

    `node_scores` is aligned to node indices with NaN for unscored nodes.
    Communities with no scored member get None for mean and Shannon.
    """
    scores = np.asarray(node_scores, dtype=np.float64)
    if scores.shape != partition.assignment.shape:
        raise InputError("node scores are not aligned to the partition")
    classes = np.array([sign_class(v) for v in scores.tolist()])
    order = np.argsort(partition.assignment, kind="stable")
    profiles = []
    for c, members in enumerate(np.split(order, np.cumsum(partition.sizes()))[:-1]):
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


def resolution_sweep(g: RetweetGraph, node_scores: np.ndarray,
                     gammas: Sequence[float] = DEFAULT_GAMMA_GRID,
                     seed: int = 0, size_floor: int = 1000,
                     ) -> list[tuple[float, list[tuple[int, int, float | None]]]]:
    """Louvain at each resolution; report (community, size, mean score)
    for communities larger than the size floor.

    Each gamma gets its own seed derived from (seed, gamma index), so
    entries can be recomputed independently.
    """
    if len(gammas) == 0:
        raise InputError("resolution sweep needs at least one gamma")
    out = []
    for gi, gamma in enumerate(gammas):
        part = louvain(g, ModularityParams(gamma=float(gamma)),
                       seed=derive_seed(seed, 2, gi))
        out.append((float(gamma), [(p.community, p.size, p.mean_score)
                                   for p in community_profiles(part, node_scores)
                                   if p.size > size_floor]))
    return out
