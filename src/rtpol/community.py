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
at level 0 with every node and later with the supernodes of two or more
nodes (one left alone below found no better module, at the same totals),
moving each to its best neighbouring module; a node that moves queues its
neighbours outside its new module, in id order, and the level ends when
the queue is empty (the Leiden "fast local move", Traag et al. 2019). The
modules then become the supernodes of the next level, until a level ends
with as many modules as nodes. Every move improves the objective, so the
result is never worse than the start. The driver owns the start labels,
the queue and the relabelling. Each objective is a level class that holds
only what its four members read:

- `n`, the number of (super)nodes of the level;
- `sym`, the symmetric weights or flows between distinct nodes, as CSR
  with sorted indices: row v lists the neighbours the queue takes;
- `mover(comm)`, which returns `move(v) -> bool` from start labels `comm`
  in range(n), repeats allowed. A call moves node v to the best of its
  neighbours' modules, tried in id order (a kernel may open a new module),
  writes it to `comm[v]`, and reports whether v changed module;
- `aggregate(labels, k)`, the next level, whose k nodes are the modules of
  `labels` and whose `sym` is P' sym P (P: membership) less the diagonal.

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


def _drop_diagonal(mat: sparse.spmatrix) -> sparse.csr_matrix:
    """`mat` as CSR without its diagonal, indices sorted."""
    out = (mat - sparse.diags(mat.diagonal())).tocsr()
    out.sort_indices()
    return out


def _coarsen(sym: sparse.csr_matrix, labels: np.ndarray, k: int) -> sparse.csr_matrix:
    """P' sym P for the n x k membership matrix P of `labels`."""
    member = sparse.csr_matrix((np.ones(labels.size), labels, np.arange(labels.size + 1)),
                               shape=(labels.size, k))
    return member.T @ sym @ member


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
    held = np.ones(n0, dtype=bool)  # the nodes the level's queue starts with
    for depth in itertools.count():
        n = level.n
        labels = (start if depth == 0 and start is not None else
                  np.argsort(generator(derive_seed(seed, tag, depth, 0)).permutation(n)))
        order = np.argsort(labels, kind="stable")
        comm = labels.tolist()
        move = level.mover(comm)
        indptr, indices, _ = _csr_views(level.sym)
        queue = deque(order[held[order]].tolist())
        queued = bytearray(held)
        visits = moves = 0
        while queue:
            v = queue.popleft()
            queued[v] = 0
            visits += 1
            if not move(v):
                continue
            moves += 1
            cv = comm[v]
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
        held = np.bincount(labels, minlength=k) > 1
        level = level.aggregate(labels, k)
    return Partition.from_labels(membership)


# ---------------------------------------------------------------------------
# Louvain on the symmetrized modularity matrix
# ---------------------------------------------------------------------------


class _ModularityLevel:
    """One Louvain level: `sym`, the weights A + A' between distinct
    supernodes, their in- and out-strengths, and gamma over the graph's
    total weight. The weights are integer counts that `build_graph` bounds
    by 2**53 in total, so each sum of P' sym P is exact in any order.
    """

    def __init__(self, sym: sparse.spmatrix, win: np.ndarray,
                 wout: np.ndarray, gamma_w: float):
        self.n = sym.shape[0]
        self.sym = _drop_diagonal(sym)
        self.win, self.wout, self.gamma_w = win, wout, gamma_w

    @classmethod
    def of_graph(cls, g: RetweetGraph, gamma: float) -> "_ModularityLevel":
        a = g.adjacency()
        return cls(a + a.T, g.in_strength.astype(np.float64),
                   g.out_strength.astype(np.float64), gamma / g.w)

    def mover(self, comm: list[int]) -> Callable[[int], bool]:
        indptr, indices, data = _csr_views(self.sym)
        win, wout = memoryview(self.win), memoryview(self.wout)
        acc_in = memoryview(np.bincount(comm, weights=self.win, minlength=self.n))
        acc_out = memoryview(np.bincount(comm, weights=self.wout, minlength=self.n))
        gamma_w = self.gamma_w

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

    def aggregate(self, labels: np.ndarray, k: int) -> "_ModularityLevel":
        return _ModularityLevel(_coarsen(self.sym, labels, k),
                                np.bincount(labels, weights=self.win, minlength=k),
                                np.bincount(labels, weights=self.wout, minlength=k),
                                self.gamma_w)


def louvain(g: RetweetGraph, params: ModularityParams = ModularityParams(),
            seed: int = 0, start: Sequence[int] | None = None) -> Partition:
    """Greedy directed-modularity optimization, Louvain style.

    Starts from singletons in seeded order, or from the labels `start`: n
    integers in range(n), repeats allowed, whose nodes level 0 visits in
    label order. Every move raises Q, so the result never scores below its
    start; but nodes leave a start's module one at a time, so it is never
    split in two: on two disjoint 3-cycles `start=[0] * 6` comes back as
    one module, here and from `infomap`.
    """
    if g.w == 0:
        raise DegenerateInputError("cannot optimize modularity on a graph with no edges")
    return _multilevel(_ModularityLevel.of_graph(g, params.gamma), seed, start, tag=0)


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
    flows = p[g.sources] * (1.0 - params.tau) * g.counts / out[g.sources]
    return p, flows, np.where(out == 0, p * (1.0 - params.tau), 0.0)


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
    """One Infomap level: `sym`, the link flow F + F' between distinct
    supernodes (a move reads F only through that sum), and per supernode
    its exit flow (link flow to the others), visit mass, unrecorded
    dangling rate and number of original nodes. The next level's exit flow
    is its members' less half the diagonal of P' sym P, the flow between
    them. The mover's per-module lists end with one empty module: a node
    opens a new module by taking it, which appends the next empty one.
    """

    def __init__(self, sym: sparse.spmatrix, exit_flow: np.ndarray, p: np.ndarray,
                 umass: np.ndarray, sizes: np.ndarray):
        self.n = p.size
        self.sym = _drop_diagonal(sym)
        self.exit_flow, self.p, self.umass, self.sizes = exit_flow, p, umass, sizes

    @classmethod
    def of_graph(cls, g: RetweetGraph, params: MapEquationParams) -> "_FlowLevel":
        """Level 0: the edges are stored in the CSR order of
        `g.adjacency()`, so their flows are data for its index arrays."""
        p, flows, dangling = _build_flows(g, params)
        a = g.adjacency()
        f_t = sparse.csr_matrix((flows, a.indices, a.indptr), shape=a.shape)
        exit_flow = np.bincount(g.sources, flows * (g.sources != g.targets), g.n)
        return cls(f_t + f_t.T, exit_flow, p, dangling, np.ones(g.n))

    def mover(self, comm: list[int]) -> Callable[[int], bool]:
        n_orig = float(self.sizes.sum())  # exact: the sizes are integers
        exit_flow, p, umass, sizes = map(memoryview, (self.exit_flow, self.p,
                                                      self.umass, self.sizes))
        indptr, indices, data = _csr_views(self.sym)
        # per module: link exit flow (members' exit flow less the flow
        # between them, held in the rows of modules with 2+ members), dangling
        # rate, size, visit mass, exit rate q_m and -2 plogp(q_m) + plogp(q_m + p_m)
        labels = np.asarray(comm)
        shared = np.flatnonzero(np.bincount(labels)[labels] > 1)
        rows = self.sym[shared].tocoo()
        mod = labels[shared[rows.row]]
        binned = [np.bincount(labels, a, self.n)
                  for a in (self.exit_flow, self.umass, self.sizes, self.p)]
        binned[0] -= np.bincount(mod, rows.data * (mod == labels[rows.col]), self.n) / 2
        ql, um, sz, pm = (a.tolist() + [0.0] for a in binned)
        qm = [ql[c] + um[c] * (n_orig - sz[c]) / n_orig for c in range(self.n + 1)]
        q_total = float(sum(qm[c] for c in dict.fromkeys(comm)))  # once per module
        tm = [-2.0 * _plogp(q) + _plogp(q + m) for q, m in zip(qm, pm)]
        state = (ql, um, sz, pm, qm, tm)

        def move(v: int) -> bool:
            nonlocal q_total
            cv = comm[v]
            # link flow between v and each neighbouring module, both ways
            link: dict[int, float] = {}
            for e in range(indptr[v], indptr[v + 1]):
                c = comm[indices[e]]
                link[c] = link.get(c, 0.0) + data[e]
            out_v, p_v, u_v, sz_v = exit_flow[v], p[v], umass[v], sizes[v]

            # state of the current module once v is taken out
            q_a = qm[cv]
            ql_a2 = ql[cv] - out_v + link.get(cv, 0.0)
            um_a2, sz_a2, pm_a2 = um[cv] - u_v, sz[cv] - sz_v, pm[cv] - p_v
            q_a2 = t_a2 = 0.0
            candidates = sorted(link)
            if sz_a2 > 0.5:
                # v is not alone: the trailing empty module is tried last
                q_a2 = ql_a2 + um_a2 * (n_orig - sz_a2) / n_orig
                t_a2 = -2.0 * _plogp(q_a2) + _plogp(q_a2 + pm_a2)
                candidates.append(len(sz) - 1)
            removal_term = t_a2 - tm[cv]
            q_rest = q_total - q_a
            plogp_total = _plogp(q_total)

            best, best_delta = None, 0.0
            for c in candidates:
                if c == cv:
                    continue
                ql_b2 = ql[c] + out_v - link.get(c, 0.0)
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

    def aggregate(self, labels: np.ndarray, k: int) -> "_FlowLevel":
        coarse = _coarsen(self.sym, labels, k)
        return _FlowLevel(coarse,
                          np.bincount(labels, weights=self.exit_flow, minlength=k)
                          - coarse.diagonal() / 2,
                          *(np.bincount(labels, weights=a, minlength=k)
                            for a in (self.p, self.umass, self.sizes)))


def infomap(g: RetweetGraph, params: MapEquationParams = MapEquationParams(),
            seed: int = 0, start: Sequence[int] | None = None) -> Partition:
    """Greedy two-level map-equation minimization.

    Starts from singletons in seeded order, or from the labels `start` as
    in `louvain`, whose limit it shares. Every move shortens the
    description length, so the result never codes worse than its start.
    """
    if g.n == 0:
        raise InputError("graph has no nodes")
    return _multilevel(_FlowLevel.of_graph(g, params), seed, start, tag=1)


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
