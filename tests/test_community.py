import hashlib
import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as orc
from rtpol import EdgeRecord, MapEquationParams, ModularityParams, Partition
from rtpol import build_graph, community_profiles, infomap, louvain
from rtpol import map_equation, modularity, resolution_sweep, shannon_diversity
from rtpol.community import _FlowLevel, _ModularityLevel, _build_flows, _compact_by_order
from rtpol.errors import DegenerateInputError, InputError
from rtpol.pca import ZERO_BAND
from rtpol.synth import SyntheticSpec, account_ids, planted_edges

H_QUARTER = 0.25 * math.log(4.0) + 0.75 * math.log(4.0 / 3.0)  # H(0.25, 0.75)


def two_cycles():
    return build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "a"),
                        EdgeRecord("c", "d"), EdgeRecord("d", "c")])


def planted_graph(seed: int):
    spec = SyntheticSpec(n_left=50, n_right=50, p_in=0.2, p_out=0.01, seed=seed)
    g = build_graph(planted_edges(spec), nodes=account_ids(spec))
    truth = np.array([0] * 50 + [1] * 50)
    return g, truth


# ---------------------------------------------------------------------------
# modularity
# ---------------------------------------------------------------------------


def test_two_cycles_planted_q_exact():
    q = modularity(two_cycles(), Partition.from_labels([0, 0, 1, 1]))
    assert q == 0.5


def test_single_edge_q_zero():
    g = build_graph([EdgeRecord("a", "b")])
    assert modularity(g, Partition.from_labels([0, 0])) == 0.0
    assert modularity(g, Partition.from_labels([0, 1])) == 0.0


def test_modularity_rejects_empty_graph_and_bad_partition():
    g = build_graph([], nodes=["a", "b"])
    with pytest.raises(DegenerateInputError):
        modularity(g, Partition.from_labels([0, 1]))
    g2 = build_graph([EdgeRecord("a", "b")])
    with pytest.raises(InputError):
        modularity(g2, Partition.from_labels([0]))
    with pytest.raises(InputError):
        ModularityParams(gamma=0.0)


def test_modularity_params_reject_non_finite_gamma():
    # nan passed the old `gamma <= 0` test and gave a singleton partition
    for gamma in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError, match="finite"):
            ModularityParams(gamma=gamma)


def test_modularity_matches_double_sum_all_partitions():
    """Sparse evaluation equals the literal dense sum, exhaustively."""
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = orc.random_graph(rng, 6)
        adj = orc.dense_adjacency(g)
        for labels in orc.set_partitions(g.n):
            for gamma in (0.5, 1.0, 2.0):
                got = modularity(g, Partition.from_labels(labels),
                                 ModularityParams(gamma=gamma))
                want = orc.modularity_double_sum(adj, labels, gamma)
                assert abs(got - want) <= 1e-12


def test_modularity_bounded():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = orc.random_graph(rng, 8)
        labels = rng.integers(0, 3, g.n)
        q = modularity(g, Partition.from_labels(labels))
        assert -1.0 <= q <= 1.0


# ---------------------------------------------------------------------------
# louvain
# ---------------------------------------------------------------------------


def test_louvain_recovers_two_cycles_any_seed():
    g = two_cycles()
    # the planted split is the exhaustive optimum
    best = max(orc.set_partitions(4),
               key=lambda a: orc.modularity_double_sum(orc.dense_adjacency(g), a))
    assert Partition.from_labels(best).assignment.tolist() == [0, 0, 1, 1]
    for seed in range(10):
        part = louvain(g, seed=seed)
        assert part.assignment.tolist() == [0, 0, 1, 1]
        assert modularity(g, part) == 0.5


def test_louvain_beats_singletons():
    rng = np.random.default_rng(5)
    for trial in range(15):
        g = orc.random_graph(rng, 9)
        base = modularity(g, Partition.from_labels(list(range(g.n))))
        part = louvain(g, seed=trial)
        assert modularity(g, part) >= base - 1e-12


def test_louvain_planted_recovery():
    for seed in range(5):
        g, truth = planted_graph(seed)
        part = louvain(g, seed=seed)
        assert orc.agreement_fraction(part.assignment, truth) >= 0.95


def test_louvain_low_gamma_single_community():
    g, _ = planted_graph(0)
    part = louvain(g, ModularityParams(gamma=0.01), seed=0)
    assert part.k == 1


def test_louvain_deterministic_per_seed():
    g, _ = planted_graph(3)
    a = louvain(g, seed=11).assignment
    b = louvain(g, seed=11).assignment
    assert np.array_equal(a, b)


def test_louvain_fixed_start_mode():
    g, _ = planted_graph(2)
    start = np.arange(g.n)  # the fixed order 0..n-1
    a = louvain(g, start=start).assignment
    b = louvain(g, start=start, seed=99).assignment  # seed ignored at level 0
    assert np.array_equal(a, b)


def test_start_must_hold_labels_in_range():
    """A wrong-length, out-of-range or non-integer start is rejected up
    front instead of failing mid-run; repeated labels are a valid start."""
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c"),
                     EdgeRecord("c", "a"), EdgeRecord("d", "e"),
                     EdgeRecord("e", "f"), EdgeRecord("f", "d")])
    for fn in (louvain, infomap):
        for bad in ([0, 1], [0, 1, 2, 3, 4, -1], [0, 1, 2, 3, 4, 6],
                    list(range(7)), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]):
            with pytest.raises(InputError, match="start"):
                fn(g, start=bad)
        good = fn(g, start=np.argsort([5, 4, 3, 2, 1, 0]))
        assert canon(good.assignment) == (0, 0, 0, 1, 1, 1)
        assert fn(g, start=[0] * 6).assignment.shape == (6,)


def canon(labels) -> tuple:
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(int(x), len(remap)) for x in labels)


def test_optimizers_equivariant_under_relabeling():
    """Renumbering nodes and a fixed level-0 order together cannot change
    the partition: the order P is the start np.argsort(P)."""
    rng = np.random.default_rng(41)
    for trial in range(6):
        g = orc.random_graph(rng, 10)
        perm = rng.permutation(g.n)
        renamed = build_graph(
            [EdgeRecord(g.ids[int(perm[t])], g.ids[int(perm[s])], int(c))
             for t, s, c in zip(g.targets, g.sources, g.counts)],
            nodes=list(g.ids))
        # renamed node perm[i] plays the role of original node i
        vo = rng.permutation(g.n)
        vo2 = perm[vo]
        for fn in (louvain, infomap):
            p1 = fn(g, start=np.argsort(vo))
            p2 = fn(renamed, start=np.argsort(vo2))
            assert canon(p1.assignment) == canon(p2.assignment[perm])


# ---------------------------------------------------------------------------
# map equation
# ---------------------------------------------------------------------------


def test_two_cycle_single_module_is_one_bit():
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "a")])
    assert map_equation(g, Partition.from_labels([0, 0])) == pytest.approx(1.0, abs=1e-12)


def test_disconnected_two_cycles_codelengths():
    g = two_cycles()
    planted = map_equation(g, Partition.from_labels([0, 0, 1, 1]))
    merged = map_equation(g, Partition.from_labels([0, 0, 0, 0]))
    assert planted == pytest.approx(1.0, abs=1e-12)
    assert merged == pytest.approx(2.0, abs=1e-12)
    assert merged > planted  # merging the planted modules reads worse
    adj = orc.dense_adjacency(g)
    assert orc.map_equation_textbook(adj, [0, 0, 1, 1]) == pytest.approx(1.0, abs=1e-12)
    assert orc.map_equation_textbook(adj, [0, 0, 0, 0]) == pytest.approx(2.0, abs=1e-12)
    singles = map_equation(g, Partition.from_labels([0, 1, 2, 3]))
    assert singles == pytest.approx(
        orc.map_equation_textbook(adj, [0, 1, 2, 3]), abs=1e-9)


def test_single_module_codelength_is_visit_rate_entropy():
    # symmetric ring: visit rates uniform, no exit words
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c"),
                     EdgeRecord("c", "a")])
    got = map_equation(g, Partition.from_labels([0, 0, 0]))
    assert got == pytest.approx(math.log2(3.0), abs=1e-9)


def test_map_equation_matches_textbook_oracle():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = orc.random_graph(rng, 8)
        adj = orc.dense_adjacency(g)
        labels = [int(x) for x in rng.integers(0, 3, g.n)]
        got = map_equation(g, Partition.from_labels(labels))
        want = orc.map_equation_textbook(adj, labels)
        assert abs(got - want) <= 1e-9


def test_map_equation_validation():
    g = two_cycles()
    with pytest.raises(InputError):
        map_equation(g, Partition.from_labels([0, 0]))
    with pytest.raises(InputError):
        MapEquationParams(tau=0.0)
    with pytest.raises(InputError):
        MapEquationParams(tau=1.0)


# ---------------------------------------------------------------------------
# infomap
# ---------------------------------------------------------------------------


def test_infomap_recovers_two_cycles():
    g = two_cycles()
    adj = orc.dense_adjacency(g)
    best = min(orc.set_partitions(4),
               key=lambda a: orc.map_equation_textbook(adj, a))
    assert canon(best) == (0, 0, 1, 1)
    for seed in range(10):
        part = infomap(g, seed=seed)
        assert canon(part.assignment) == (0, 0, 1, 1)


def test_infomap_complete_graph_single_module():
    records = [EdgeRecord(f"n{i}", f"n{j}")
               for i in range(4) for j in range(4) if i != j]
    g = build_graph(records)
    adj = orc.dense_adjacency(g)
    best = min(orc.set_partitions(4),
               key=lambda a: orc.map_equation_textbook(adj, a))
    assert canon(best) == (0, 0, 0, 0)
    for seed in range(5):
        assert infomap(g, seed=seed).k == 1


def test_infomap_never_codes_worse_than_singletons():
    rng = np.random.default_rng(77)
    for trial in range(15):
        g = orc.random_graph(rng, 9)
        part = infomap(g, seed=trial)
        base = map_equation(g, Partition.from_labels(list(range(g.n))))
        assert map_equation(g, part) <= base + 1e-12


def test_infomap_planted_recovery():
    for seed in range(5):
        g, truth = planted_graph(seed)
        part = infomap(g, seed=seed)
        assert orc.agreement_fraction(part.assignment, truth) >= 0.95


def test_infomap_deterministic_per_seed():
    g, _ = planted_graph(1)
    a = infomap(g, seed=4).assignment
    b = infomap(g, seed=4).assignment
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# pinned optimizer output
# ---------------------------------------------------------------------------


def three_groups():
    """40 accounts in groups of 13, 13 and 14: irregular weighted ties
    inside each group and eight single retweets across groups."""
    records = []
    for lo, hi in ((0, 13), (13, 26), (26, 40)):
        for i in range(lo, hi):
            for j in range(lo, hi):
                if i != j and (7 * i + 11 * j + i * j) % 5 < 2:
                    records.append(EdgeRecord(f"u{i}", f"u{j}", 1 + (i + j) % 3))
    for t, s in ((0, 20), (14, 30), (27, 5), (39, 12), (13, 26), (3, 33),
                 (21, 8), (35, 17)):
        records.append(EdgeRecord(f"u{t}", f"u{s}", 1))
    return build_graph(records, nodes=[f"u{i}" for i in range(40)])


def pinned_cases():
    graphs = [("groups", three_groups())]
    rng = np.random.default_rng(2019)
    for i in range(4):
        graphs.append((f"random{i}", orc.random_graph(rng, 14)))
    spec = SyntheticSpec(seed=0)
    graphs.append(("bundle", build_graph(planted_edges(spec), nodes=account_ids(spec))))
    for name, g in graphs:
        start = np.argsort(rng.permutation(g.n))
        for gamma in (1.0, 5.0):
            par = ModularityParams(gamma=gamma)
            for seed in (0, 7):
                yield (f"{name}/louvain/gamma={gamma}/seed={seed}",
                       lambda g=g, par=par, seed=seed: louvain(g, par, seed=seed))
            yield (f"{name}/louvain/gamma={gamma}/fixed",
                   lambda g=g, par=par, s=start: louvain(g, par, start=s))
        for seed in (0, 7):
            yield (f"{name}/infomap/seed={seed}",
                   lambda g=g, seed=seed: infomap(g, seed=seed))
        yield (f"{name}/infomap/fixed",
               lambda g=g, s=start: infomap(g, start=s))


#: first 16 hex digits of sha256 over the comma-joined assignment. Several
#: cases aggregate and move again at level 1 (e.g. every "groups" case), and
#: the Infomap "groups" seed=7 case isolates a supernode into a newly minted
#: module. The "bundle" graph is the default 1,000-account synthetic bundle,
#: whose Louvain gamma=5 runs move at three levels.
PINNED = {
    "groups/louvain/gamma=1.0/seed=0": "e4b9ad4c4602e775",
    "groups/louvain/gamma=1.0/seed=7": "e4b9ad4c4602e775",
    "groups/louvain/gamma=1.0/fixed": "e4b9ad4c4602e775",
    "groups/louvain/gamma=5.0/seed=0": "deb8f749b10fd29f",
    "groups/louvain/gamma=5.0/seed=7": "f40e3c1fbc6babc2",
    "groups/louvain/gamma=5.0/fixed": "cd20b0b3b4509450",
    "groups/infomap/seed=0": "5b9d02f7b3311669",
    "groups/infomap/seed=7": "5b9d02f7b3311669",
    "groups/infomap/fixed": "086093c242aefbf5",
    "random0/louvain/gamma=1.0/seed=0": "3ecf2c1adff7eec8",
    "random0/louvain/gamma=1.0/seed=7": "8073739a736a79eb",
    "random0/louvain/gamma=1.0/fixed": "3ecf2c1adff7eec8",
    "random0/louvain/gamma=5.0/seed=0": "6484c68c0c85987f",
    "random0/louvain/gamma=5.0/seed=7": "6484c68c0c85987f",
    "random0/louvain/gamma=5.0/fixed": "6484c68c0c85987f",
    "random0/infomap/seed=0": "bf7d4c542d6ecc44",
    "random0/infomap/seed=7": "bf7d4c542d6ecc44",
    "random0/infomap/fixed": "bf7d4c542d6ecc44",
    "random1/louvain/gamma=1.0/seed=0": "61b90dcc00ecc841",
    "random1/louvain/gamma=1.0/seed=7": "b6dae94388611011",
    "random1/louvain/gamma=1.0/fixed": "b6dae94388611011",
    "random1/louvain/gamma=5.0/seed=0": "ef558e7f6f010c2a",
    "random1/louvain/gamma=5.0/seed=7": "ef558e7f6f010c2a",
    "random1/louvain/gamma=5.0/fixed": "ef558e7f6f010c2a",
    "random1/infomap/seed=0": "7d9d182766ebc92e",
    "random1/infomap/seed=7": "7d9d182766ebc92e",
    "random1/infomap/fixed": "7d9d182766ebc92e",
    "random2/louvain/gamma=1.0/seed=0": "d0072c173b7a0f3a",
    "random2/louvain/gamma=1.0/seed=7": "d0072c173b7a0f3a",
    "random2/louvain/gamma=1.0/fixed": "d0072c173b7a0f3a",
    "random2/louvain/gamma=5.0/seed=0": "594a7c1b42ceaed6",
    "random2/louvain/gamma=5.0/seed=7": "594a7c1b42ceaed6",
    "random2/louvain/gamma=5.0/fixed": "594a7c1b42ceaed6",
    "random2/infomap/seed=0": "2ca38d4311fb83c7",
    "random2/infomap/seed=7": "2ca38d4311fb83c7",
    "random2/infomap/fixed": "2ca38d4311fb83c7",
    "random3/louvain/gamma=1.0/seed=0": "07e0a9d8685744b9",
    "random3/louvain/gamma=1.0/seed=7": "0409f7102a9b9ba7",
    "random3/louvain/gamma=1.0/fixed": "660e7a709d836025",
    "random3/louvain/gamma=5.0/seed=0": "ef558e7f6f010c2a",
    "random3/louvain/gamma=5.0/seed=7": "ef558e7f6f010c2a",
    "random3/louvain/gamma=5.0/fixed": "ef558e7f6f010c2a",
    "random3/infomap/seed=0": "7d9d182766ebc92e",
    "random3/infomap/seed=7": "0409f7102a9b9ba7",
    "random3/infomap/fixed": "7d9d182766ebc92e",
    "bundle/louvain/gamma=1.0/seed=0": "32ac2bc0335aefa9",
    "bundle/louvain/gamma=1.0/seed=7": "32ac2bc0335aefa9",
    "bundle/louvain/gamma=1.0/fixed": "32ac2bc0335aefa9",
    "bundle/louvain/gamma=5.0/seed=0": "34822ed7a324a1eb",
    "bundle/louvain/gamma=5.0/seed=7": "6d2063a248e2a0b2",
    "bundle/louvain/gamma=5.0/fixed": "8bcf34ded0d77386",
    "bundle/infomap/seed=0": "d1a639b3258605f0",
    "bundle/infomap/seed=7": "20b82730f4f5e49f",
    "bundle/infomap/fixed": "afce017ca077d495",
}


def test_optimizers_pinned_output():
    """Exact partitions per (graph, method, gamma, seed or fixed start);
    a refactor of the optimizers must reproduce every one."""
    got = {}
    for key, run in pinned_cases():
        a = run().assignment.tolist()
        got[key] = hashlib.sha256(",".join(map(str, a)).encode()).hexdigest()[:16]
    assert got == PINNED


def test_optimizers_leave_graph_unchanged():
    """The kernels write only to copies of the level arrays, so the input
    graph is untouched and a repeat call with the same seed agrees."""
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = orc.random_graph(rng, 14)
        fields = ("targets", "sources", "counts", "in_strength", "out_strength")
        before = {name: getattr(g, name).copy() for name in fields}
        for run in (lambda: louvain(g, ModularityParams(gamma=1.0), seed=3),
                    lambda: louvain(g, ModularityParams(gamma=5.0), seed=3),
                    lambda: infomap(g, seed=3)):
            first = run().assignment
            for name, arr in before.items():
                assert np.array_equal(getattr(g, name), arr), name
            assert np.array_equal(run().assignment, first)


def test_multilevel_logs_each_level(caplog):
    cliques = [EdgeRecord(f"{side}{i}", f"{side}{j}")
               for side in "ab" for i in range(5) for j in range(5) if i != j]
    g = build_graph(cliques + [EdgeRecord("a0", "b0")])
    with caplog.at_level(logging.DEBUG, logger="rtpol.community"):
        part = louvain(g, seed=0)
    records = [r for r in caplog.records if r.name == "rtpol.community"]
    assert records
    assert all(r.args["visits"] >= r.args["n"] for r in records)
    assert all(r.args["moves"] <= r.args["visits"] for r in records)
    assert [r.args["depth"] for r in records] == list(range(len(records)))
    assert records[0].args["n"] == g.n
    assert records[-1].args["k"] == part.k == 2


@st.composite
def graphs_and_visits(draw):
    """n, (target, source, count) edges on range(n), self-loops allowed and
    some nodes isolated or dangling, a sequence of nodes to move, and two
    starts: a permutation of range(n), and labels drawn from range(n), so
    that a module may hold several nodes."""
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(1, 4)),
                          min_size=1, max_size=24))
    return (n, edges, draw(st.lists(node, max_size=30)), draw(st.permutations(range(n))),
            draw(st.lists(node, min_size=n, max_size=n)))


def test_each_move_improves_the_recomputed_objective():
    """A level-0 mover driven one node at a time, from the labels range(n),
    from a permutation of them and from labels with repeats: a move that
    reports True shortens L (Infomap) or raises Q (Louvain) as recomputed
    from the labels, and one that reports False changes nothing. This checks
    the movers' module state, built from the start labels and updated per
    move, against the objectives directly."""
    opened = []

    @settings(max_examples=150, deadline=None)
    @given(graphs_and_visits())
    # node 5 joins node 0's module, then leaves it for a new one of its own
    @example((7, [(0, 0, 1), (2, 4, 3), (6, 2, 4), (0, 5, 2)], [5, 2, 2, 5],
              [6, 5, 4, 3, 2, 1, 0], [0, 0, 0, 0, 0, 0, 0]))
    def check(case):
        n, edges, visits, perm, grouped = case
        g = build_graph([EdgeRecord(f"v{t}", f"v{s}", c) for t, s, c in edges],
                        nodes=[f"v{i}" for i in range(n)])
        p, flows, dangling = _build_flows(g, MapEquationParams())
        levels = (
            (_FlowLevel(g.n, p, dangling, np.ones(g.n), g.sources, g.targets, flows),
             lambda comm: -map_equation(g, Partition.from_labels(comm))),
            (_ModularityLevel.of_graph(g, 1.0),
             lambda comm: modularity(g, Partition.from_labels(comm))),
        )
        for (level, score), start in itertools.product(levels, (range(n), perm, grouped)):
            comm = list(start)
            move = level.mover(comm)
            before = score(comm)
            for v in visits:
                moved = move(v)
                after = score(comm)
                if moved:
                    assert after > before + 5e-11
                    opened.append(comm[v] >= g.n)
                else:
                    assert after == before
                before = after

    check()
    assert any(opened), "no move opened a new module"


def test_modularity_levels_match_the_directed_pair_oracle():
    """Level 0 and two aggregations over random labels hold the sym, win
    and wout, array for array, that the directed pair list of each level
    gives (`oracles.modularity_level_pairs`), so P' sym P with its diagonal
    dropped is the old pair aggregation, index order included."""
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_visits(), st.data())
    def check(case, data):
        n, edges, _, _, _ = case
        g = build_graph([EdgeRecord(f"v{t}", f"v{s}", c) for t, s, c in edges],
                        nodes=[f"v{i}" for i in range(n)])
        level = _ModularityLevel.of_graph(g, 1.0)
        pairs = (g.targets, g.sources, g.counts.astype(np.float64))
        for _ in range(3):
            sym, win, wout = orc.modularity_level_pairs(level.n, *pairs)
            for got, want in ((level.sym.indptr, sym.indptr),
                              (level.sym.indices, sym.indices),
                              (level.sym.data, sym.data),
                              (level.win, win), (level.wout, wout)):
                np.testing.assert_array_equal(got, want)
            drawn = data.draw(st.lists(st.integers(0, level.n - 1),
                                       min_size=level.n, max_size=level.n))
            labels, k = orc.relabel_first_appearance(drawn, range(level.n))
            labels = np.array(labels, dtype=np.int64)
            pairs = orc.aggregate_pairs(*pairs, labels, k)
            level = level.aggregate(labels, k)

    check()


def test_optimizers_never_end_worse_than_their_start():
    """From any start labels, louvain scores at least the start's Q and
    infomap codes at most the start's L; 1e-12 absorbs the summation order
    of a relabelled partition."""
    @settings(max_examples=150, deadline=None)
    @given(graphs_and_visits())
    def check(case):
        n, edges, _, perm, grouped = case
        g = build_graph([EdgeRecord(f"v{t}", f"v{s}", c) for t, s, c in edges],
                        nodes=[f"v{i}" for i in range(n)])
        for start in (perm, grouped):
            s = Partition.from_labels(start)
            assert modularity(g, louvain(g, start=start)) >= modularity(g, s) - 1e-12
            assert map_equation(g, infomap(g, start=start)) <= map_equation(g, s) + 1e-12

    check()


def test_start_that_no_node_leaves_comes_back_unchanged():
    """Each 2-cycle is already its best module, so nothing moves; the level
    still compacts the start's labels instead of returning singletons."""
    g = two_cycles()
    for fn in (louvain, infomap):
        assert fn(g, start=[0, 0, 1, 1]).assignment.tolist() == [0, 0, 1, 1]


def test_start_from_planted_split_of_default_bundle():
    """On the default 1,000-account bundle, a start from the planted split
    codes at most at the split's 9.1792393 bits and scores at least its
    Q = 0.4547319 (ROADMAP item 2's targets)."""
    spec = SyntheticSpec(seed=0)
    g = build_graph(planted_edges(spec), nodes=account_ids(spec))
    planted = np.array([0 if a.startswith("L") else 1 for a in g.ids])
    for seed in range(3):
        assert map_equation(g, infomap(g, seed=seed, start=planted)) <= 9.179239
        assert modularity(g, louvain(g, seed=seed, start=planted)) >= 0.4547319


# ---------------------------------------------------------------------------
# profiles, diversity, sweep
# ---------------------------------------------------------------------------


def test_shannon_diversity_values():
    assert shannon_diversity(1, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert shannon_diversity(5, 0) == 0.0
    assert shannon_diversity(1, 3) == pytest.approx(H_QUARTER, abs=1e-12)
    assert shannon_diversity(1, 3) == pytest.approx(0.5623, abs=1e-4)
    assert shannon_diversity(0, 0) is None


def test_shannon_maximal_iff_balanced():
    top = math.log(2.0)
    for n_l in range(0, 6):
        for n_r in range(0, 6):
            h = shannon_diversity(n_l, n_r)
            if h is None:
                continue
            assert h <= top + 1e-12
            if n_l == n_r:
                assert h == pytest.approx(top, abs=1e-12)
            else:
                assert h < top
            if 0 in (n_l, n_r):
                assert h == 0.0


def test_community_profiles():
    part = Partition.from_labels([0, 0, 0, 0, 1, 1, 2])
    scores = np.array([-1.0, -2.0, 1.0, 3.0, -0.5, np.nan, np.nan])
    profs = community_profiles(part, scores)
    assert profs[0].size == 4
    assert (profs[0].n_left, profs[0].n_right) == (2, 2)
    assert profs[0].mean_score == pytest.approx(0.25)
    assert profs[0].shannon == pytest.approx(math.log(2.0), abs=1e-12)
    assert (profs[1].n_left, profs[1].n_right) == (1, 0)
    assert profs[1].shannon == 0.0
    # no scored member: flagged, not crashed
    assert profs[2].mean_score is None
    assert profs[2].shannon is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6),
                          st.sampled_from([math.nan, ZERO_BAND, -ZERO_BAND, 0.0])
                          | st.floats(-5.0, 5.0)), max_size=30))
@example([])
@example([(i, float(i) - 2.0) for i in range(5)])  # singletons
def test_community_profiles_match_per_community_scan(rows):
    part = Partition.from_labels([c for c, _ in rows])
    scores = np.array([s for _, s in rows], dtype=np.float64)
    got = community_profiles(part, scores)
    assert repr(got) == repr(orc.community_profiles_scan(part, scores))
    if not rows:
        assert got == []


def test_community_profiles_alignment_checked():
    with pytest.raises(InputError):
        community_profiles(Partition.from_labels([0, 0]), np.zeros(3))


def test_resolution_sweep_planted():
    g, truth = planted_graph(0)
    scores = np.where(truth == 0, -1.0, 1.0)
    sweep = resolution_sweep(g, scores, gammas=(0.01, 1.0), seed=0,
                             size_floor=10)
    by_gamma = dict((gamma, rows) for gamma, rows in sweep)
    assert len(by_gamma[0.01]) == 1
    assert by_gamma[0.01][0][1] == g.n
    assert len(by_gamma[1.0]) >= 2
    # one polarized community per side
    means = sorted(row[2] for row in by_gamma[1.0])
    assert means[0] < 0 < means[-1]


def test_resolution_sweep_floor_and_validation():
    g, truth = planted_graph(0)
    scores = np.where(truth == 0, -1.0, 1.0)
    sweep = resolution_sweep(g, scores, gammas=(1.0,), seed=0,
                             size_floor=g.n)
    assert sweep[0][1] == []
    with pytest.raises(InputError):
        resolution_sweep(g, scores, gammas=())


def test_resolution_sweep_deterministic():
    g, truth = planted_graph(4)
    scores = np.where(truth == 0, -1.0, 1.0)
    s1 = resolution_sweep(g, scores, gammas=(0.05, 1.0), seed=9, size_floor=5)
    s2 = resolution_sweep(g, scores, gammas=(0.05, 1.0), seed=9, size_floor=5)
    assert s1 == s2


# ---------------------------------------------------------------------------
# Partition plumbing
# ---------------------------------------------------------------------------


def test_partition_from_labels_compacts_by_first_appearance():
    p = Partition.from_labels([7, 7, 3, 7, 9])
    assert p.assignment.tolist() == [0, 0, 1, 0, 2]
    assert p.k == 3


def test_relabel_matches_dict_oracle():
    rng = np.random.default_rng(2024)
    cases = [np.zeros(0, dtype=np.int64), np.array([5]),
             np.array([100, -3, 100, 7])]  # labels outside 0..n-1
    for _ in range(300):
        n = int(rng.integers(1, 40))
        cases.append(rng.integers(-5, 3 * n, size=n))
    for labels in cases:
        n = labels.size
        want, k = orc.relabel_first_appearance(labels, range(n))
        p = Partition.from_labels(labels.tolist())
        assert p.assignment.tolist() == want and p.k == k
        for order in (np.arange(n), rng.permutation(n), rng.permutation(n)):
            want, k = orc.relabel_first_appearance(labels, order)
            got, got_k = _compact_by_order(labels, order)
            assert got.tolist() == want and got_k == k


def test_partition_validation():
    with pytest.raises(InputError):
        Partition(assignment=np.array([0, 2]), k=2)  # gap in ids
    with pytest.raises(InputError):
        Partition(assignment=np.array([-1, 0]), k=1)
    with pytest.raises(InputError):
        Partition(assignment=np.array([], dtype=int), k=1)
    p = Partition(assignment=np.array([0, 1, 0]), k=2)
    assert p.sizes().tolist() == [2, 1]
