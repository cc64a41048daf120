import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as orc
from rtpol import EdgeRecord, build_graph, induced_subgraph
from rtpol import largest_weak_component
from rtpol.graph import RetweetGraph
from rtpol.errors import InputError


def ids_of(g):
    return list(g.ids)


def edge_dict(g):
    """Aggregated edges keyed by external ids, for order-free comparison."""
    return {(g.ids[t], g.ids[s]): int(c)
            for t, s, c in zip(g.targets, g.sources, g.counts)}


def test_duplicate_records_aggregate():
    g = build_graph([EdgeRecord("a", "b", 1), EdgeRecord("a", "b", 2)])
    assert edge_dict(g) == {("a", "b"): 3}
    assert g.w == 3
    assert g.n_edges == 1


def test_two_cycle_strengths():
    g = build_graph([EdgeRecord("a", "b", 1), EdgeRecord("b", "a", 1)])
    inn, out = g.in_strength, g.out_strength
    assert list(inn) == [1, 1]
    assert list(out) == [1, 1]
    assert g.w == 2


def test_nonpositive_count_rejected_with_record_index():
    with pytest.raises(InputError, match="record 1"):
        build_graph([EdgeRecord("a", "b", 1), EdgeRecord("a", "c", 0)])


def test_total_count_beyond_float64_exact_range_rejected():
    # 10**30 overflowed int64; two 5*10**18 edges wrapped g.w and the
    # strengths; 2**53 + 1 came back as an in-strength of 2**53
    for counts in ([10**30], [5 * 10**18, 5 * 10**18], [2**53 + 1]):
        records = [EdgeRecord("a", f"s{i}", c) for i, c in enumerate(counts)]
        with pytest.raises(InputError, match="2\\*\\*53"):
            build_graph(records)
    g = build_graph([EdgeRecord("a", "b", 2**53 - 1), EdgeRecord("a", "c", 1)])
    assert g.w == 2**53 == int(g.in_strength[0])


def test_duplicate_node_ids_rejected():
    with pytest.raises(InputError, match="duplicate external node ids"):
        RetweetGraph(["a", "a"], [0], [1], [1])


def test_empty_external_id_rejected():
    with pytest.raises(InputError):
        build_graph([EdgeRecord("", "b", 1)])


def test_star_strengths():
    g = build_graph([EdgeRecord("a", x) for x in "bcd"])
    inn, out = g.in_strength, g.out_strength
    byid = dict(zip(g.ids, zip(inn, out)))
    assert byid["a"] == (3, 0)
    for leaf in "bcd":
        assert byid[leaf] == (0, 1)


def test_self_loop_counts_in_both_strengths():
    g = build_graph([EdgeRecord("a", "a", 2)])
    inn, out = g.in_strength, g.out_strength
    assert inn[0] == 2 and out[0] == 2
    assert g.w == 2


def test_single_heavy_edge():
    g = build_graph([EdgeRecord("a", "b", 5)])
    inn, out = g.in_strength, g.out_strength
    byid = dict(zip(g.ids, zip(inn, out)))
    assert byid["a"] == (5, 0)
    assert byid["b"] == (0, 5)


def test_lwcc_picks_larger_component():
    records = [
        EdgeRecord("a", "b"), EdgeRecord("b", "a"),   # size-2 cycle
        EdgeRecord("c", "d"), EdgeRecord("e", "c"),   # size-3 path
    ]
    g = build_graph(records)
    sub = largest_weak_component(g)
    assert sorted(sub.ids) == ["c", "d", "e"]
    assert list(sub.ids) == [x for x in g.ids if x in "cde"]  # old index order


def test_lwcc_identity_on_connected_graph():
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c")])
    sub = largest_weak_component(g)
    assert ids_of(sub) == ids_of(g)
    assert edge_dict(sub) == edge_dict(g)


def test_lwcc_tie_breaks_to_smallest_index():
    # two components of equal size; the one holding node index 0 wins
    g = build_graph([EdgeRecord("p", "q"), EdgeRecord("x", "y")])
    sub = largest_weak_component(g)
    assert sorted(sub.ids) == ["p", "q"]
    # and again with the other component first in the input
    g2 = build_graph([EdgeRecord("x", "y"), EdgeRecord("p", "q")])
    sub2 = largest_weak_component(g2)
    assert sorted(sub2.ids) == ["x", "y"]


def test_lwcc_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = orc.random_graph(rng, 9)
        once = largest_weak_component(g)
        twice = largest_weak_component(once)
        assert ids_of(once) == ids_of(twice)
        assert edge_dict(once) == edge_dict(twice)


def test_lwcc_matches_union_find_reference():
    rng = np.random.default_rng(17)
    for _ in range(400):
        n = int(rng.integers(1, 30))
        names = [f"v{i}" for i in range(n)]
        records = []
        for _ in range(int(rng.integers(0, 2 * n))):
            # multi-edges and self-loops are drawn freely; nodes without a
            # record stay isolated through `nodes=`
            t, s = rng.integers(0, n, size=2)
            records.append(EdgeRecord(names[t], names[s], int(rng.integers(1, 4))))
        g = build_graph(records, nodes=list(rng.permutation(names)))
        want = orc.largest_component_union_find(g)
        assert largest_weak_component(g).ids == tuple(g.ids[i] for i in want)


def test_lwcc_long_path_with_random_labels():
    n = 20_000
    order = np.random.default_rng(5).permutation(n)
    names = [f"v{i}" for i in range(n)]
    g = build_graph([EdgeRecord(names[a], names[b])
                     for a, b in zip(order[:-1], order[1:])], nodes=names)
    assert largest_weak_component(g).ids == g.ids


def test_induced_subgraph_keeps_internal_edges():
    g = build_graph([EdgeRecord("a", "b", 2), EdgeRecord("b", "c", 1),
                     EdgeRecord("c", "a", 4)])
    keep = [i for i, x in enumerate(g.ids) if x in ("a", "b")]
    sub = induced_subgraph(g, keep)
    assert sorted(sub.ids) == ["a", "b"]
    assert edge_dict(sub) == {("a", "b"): 2}
    assert list(sub.ids) == [g.ids[i] for i in sorted(keep)]


def test_unsorted_edge_arrays_come_out_sorted():
    """Arrays out of (target, source) order are sorted with their counts;
    already sorted arrays keep their order."""
    g = RetweetGraph(["a", "b", "c"], np.array([2, 0, 0, 1]),
                     np.array([0, 2, 1, 1]), np.array([1, 2, 3, 4]))
    assert g.targets.tolist() == [0, 0, 1, 2]
    assert g.sources.tolist() == [1, 2, 1, 0]
    assert g.counts.tolist() == [3, 2, 4, 1]
    assert g.in_strength.tolist() == [5, 4, 1]
    same = RetweetGraph(g.ids, g.targets, g.sources, g.counts)
    for name in ("targets", "sources", "counts"):
        assert np.array_equal(getattr(same, name), getattr(g, name))


def test_induced_subgraph_rejects_out_of_range_indices():
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c")])
    for keep in ([-1], [0, g.n]):
        with pytest.raises(InputError, match=r"range\(3\)"):
            induced_subgraph(g, keep)


def test_dense_row_column_sums_match_strengths():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = orc.random_graph(rng, 10)
        adj = orc.dense_adjacency(g)
        inn, out = g.in_strength, g.out_strength
        assert np.array_equal(adj.sum(axis=1), inn)
        assert np.array_equal(adj.sum(axis=0), out)


edge_lists = st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"),
              st.integers(min_value=1, max_value=9)),
    min_size=1, max_size=30,
)


@given(edge_lists)
@settings(max_examples=150, deadline=None)
def test_handshake_and_totals(raw):
    g = build_graph([EdgeRecord(t, s, c) for t, s, c in raw])
    inn, out = g.in_strength, g.out_strength
    assert inn.sum() == out.sum() == g.w == sum(c for _, _, c in raw)
    # aggregation leaves no duplicate (target, source) pairs
    pairs = list(zip(g.targets.tolist(), g.sources.tolist()))
    assert len(pairs) == len(set(pairs))


@given(edge_lists, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_build_is_order_independent(raw, rnd):
    shuffled = list(raw)
    rnd.shuffle(shuffled)
    g1 = build_graph([EdgeRecord(t, s, c) for t, s, c in raw])
    g2 = build_graph([EdgeRecord(t, s, c) for t, s, c in shuffled])
    assert edge_dict(g1) == edge_dict(g2)
    assert sorted(g1.ids) == sorted(g2.ids)
    # whatever the record order, edge arrays come sorted by (target, source)
    for g in (g1, g2):
        pairs = list(zip(g.targets.tolist(), g.sources.tolist()))
        assert pairs == sorted(pairs)


@st.composite
def records_with_one_fault(draw):
    """Edge records over a few ids, repeated pairs and self-pairs included,
    optional pre-seeded nodes (some isolated), and at most one fault: a
    count below 1, a count that takes the total past 2**53, or an empty
    id in a record or in `nodes`."""
    ids = st.sampled_from(["a", "b", "c", "dd", "ee"])
    raw = draw(st.lists(st.tuples(ids, ids, st.integers(1, 9)), max_size=25))
    nodes = draw(st.none() | st.lists(st.sampled_from(["b", "ee", "x", "yy"]),
                                      max_size=5))
    fault = draw(st.sampled_from(["none", "none", "count", "empty", "node"]))
    if raw and fault in ("count", "empty"):
        k = draw(st.integers(0, len(raw) - 1))
        t, s, c = raw[k]
        if fault == "count":
            c = draw(st.sampled_from([0, -2, 2**53 - 1, 2**53, 2**53 + 1,
                                      5 * 10**18, 10**30]))
        elif draw(st.booleans()):
            t = ""
        else:
            s = ""
        raw[k] = (t, s, c)
    if fault == "node":
        nodes = [*(nodes or []), ""]
    return [EdgeRecord(t, s, c) for t, s, c in raw], nodes


def _outcome(build, records, nodes):
    try:
        return build(records, nodes)
    except InputError as exc:
        return "InputError", str(exc)


@given(records_with_one_fault())
@example(([EdgeRecord("a", "b", 10**30)], None))
@example(([EdgeRecord("a", "b", 10**30), EdgeRecord("b", "a", 0)], ["c"]))
@settings(max_examples=300, deadline=None)
def test_build_graph_matches_tuple_dict_aggregation(case):
    records, nodes = case
    want = _outcome(orc.aggregate_edges_dict, records, nodes)
    got = _outcome(build_graph, records, nodes)
    if isinstance(got, RetweetGraph):
        got = list(got.ids), list(zip(got.targets.tolist(), got.sources.tolist(),
                                      got.counts.tolist()))
    assert got == want
