import numpy as np
import pytest

import oracles as orc
from rtpol import CentralityScores, EdgeRecord, PageRankParams, build_graph
from rtpol import degree_scores, hits
from rtpol import modular_degree_ratio, pagerank, top_k
from rtpol.errors import ConvergenceError, InputError

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# frozen against the dense linear-solve oracle in oracles.py
CHAIN_RANKS = (0.47441217, 0.34117105, 0.18441678)


def chain():
    # c retweets b, b retweets a; a never retweets (dangling)
    return build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c")])


def test_two_cycle_pagerank_symmetric():
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "a")])
    pr = pagerank(g).values
    assert pr == pytest.approx([0.5, 0.5], abs=1e-12)


def test_three_cycle_pagerank_uniform():
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c"),
                     EdgeRecord("c", "a")])
    assert pagerank(g).values == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_chain_pagerank_fixture():
    g = chain()
    pr = pagerank(g).values
    assert pr == pytest.approx(CHAIN_RANKS, abs=1e-8)
    assert pr == pytest.approx((0.4744, 0.3412, 0.1844), abs=1e-4)
    assert pr.sum() == pytest.approx(1.0, abs=1e-9)


def test_chain_pagerank_against_linear_solve():
    g = chain()
    oracle = orc.pagerank_linear_solve(orc.dense_adjacency(g), damping=0.85)
    assert np.abs(pagerank(g).values - oracle).max() <= 1e-10


def test_pagerank_matches_dense_solve_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        g = orc.random_graph(rng, 10)
        oracle = orc.pagerank_linear_solve(orc.dense_adjacency(g))
        got = pagerank(g).values
        assert np.abs(got - oracle).max() <= 1e-8
        assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_convergence_error_carries_residual():
    with pytest.raises(ConvergenceError) as exc:
        pagerank(chain(), PageRankParams(max_iters=1))
    assert exc.value.iterations == 1
    assert exc.value.residual > 0


def test_pagerank_and_hits_reject_unusable_tol():
    # hits(tol=-1) used to run its whole 100,000-iteration budget
    g = chain()
    for tol in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(InputError, match="tol"):
            PageRankParams(tol=tol)
        with pytest.raises(InputError, match="tol"):
            hits(g, tol=tol)


def test_hits_single_authority():
    # a retweeted by b and c only: all authority on a, b and c equal hubs
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("a", "c")])
    hub, auth = hits(g)
    assert auth.values == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)
    assert hub.values[1] == pytest.approx(hub.values[2], abs=1e-12)
    assert hub.values[0] == pytest.approx(0.0, abs=1e-10)


def test_hits_golden_ratio_fixture():
    # h1 retweets a1 and a2, h2 retweets a1 only
    g = build_graph([EdgeRecord("a1", "h1"), EdgeRecord("a2", "h1"),
                     EdgeRecord("a1", "h2")])
    hub, auth = hits(g)
    byid = dict(zip(g.ids, hub.values))
    assert byid["h1"] / byid["h2"] == pytest.approx(GOLDEN, abs=1e-6)
    byid = dict(zip(g.ids, auth.values))
    assert byid["a1"] / byid["a2"] == pytest.approx(GOLDEN, abs=1e-6)


def test_hits_requires_an_edge():
    g = build_graph([], nodes=["a", "b"])
    with pytest.raises(InputError):
        hits(g)


def test_hits_matches_dense_eigendecomposition():
    rng = np.random.default_rng(99)
    for _ in range(100):
        g = orc.random_graph(rng, 10)
        adj = orc.dense_adjacency(g)
        hub, auth = hits(g)
        for vec, sym in ((hub.values, adj.T @ adj), (auth.values, adj @ adj.T)):
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
            assert vec.min() >= -1e-12
            basis, top, gap = orc.leading_eigvec(sym)
            if basis.shape[1] == 1 and gap > 1e-6:
                sign = 1.0 if float(top @ vec) >= 0 else -1.0
                assert np.abs(vec - sign * top).max() <= 1e-8
            else:
                # tied leading eigenvalue: any unit vector in the
                # eigenspace is a valid answer
                assert orc.eigenspace_residual(basis, vec) <= 1e-8


def test_weight_scaling_preserves_rankings():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = orc.random_graph(rng, 9)
        scaled = build_graph(
            [EdgeRecord(g.ids[t], g.ids[s], int(c) * 3)
             for t, s, c in zip(g.targets, g.sources, g.counts)],
            nodes=list(g.ids))
        assert top_k(pagerank(g), g.n) == top_k(pagerank(scaled), g.n)
        h1, a1 = hits(g)
        h2, a2 = hits(scaled)
        assert top_k(h1, g.n) == top_k(h2, g.n)
        assert top_k(a1, g.n) == top_k(a2, g.n)


def test_degree_scores():
    g = build_graph([EdgeRecord("a", "b", 2), EdgeRecord("a", "c")])
    assert list(degree_scores(g, "in").values) == [3, 0, 0]
    assert list(degree_scores(g, "out").values) == [0, 2, 1]
    with pytest.raises(InputError):
        degree_scores(g, "sideways")


def test_modular_degree_examples():
    # x retweeted 3 times inside its community, 0 outside
    g = build_graph([EdgeRecord("x", "y", 3)])
    inter, intra = modular_degree_ratio(g, [0, 0])
    assert (inter.tolist(), intra.tolist()) == ([0, 0], [3, 0])
    # 2 inside, 1 outside
    g2 = build_graph([EdgeRecord("x", "y", 2), EdgeRecord("x", "z", 1)])
    inter, intra = modular_degree_ratio(g2, [0, 0, 1])
    assert (inter[0], intra[0]) == (1, 2)
    # all outside: intra 0
    inter, intra = modular_degree_ratio(g, [0, 1])
    assert (inter[0], intra[0]) == (3, 0)
    with pytest.raises(InputError, match="cover every node"):
        modular_degree_ratio(g, [0])


def test_modular_degree_splits_weighted_in_degree():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = orc.random_graph(rng, 10)
        part = rng.integers(0, 3, g.n)
        inter, intra = modular_degree_ratio(g, part)
        assert inter.dtype == intra.dtype == np.int64
        assert (inter >= 0).all() and (intra >= 0).all()
        np.testing.assert_array_equal(inter + intra, g.in_strength)


def test_top_k():
    s = CentralityScores("x", np.array([3.0, 1.0, 2.0]))
    assert top_k(s, 2) == [0, 2]
    assert top_k(CentralityScores("x", np.ones(4)), 2) == [0, 1]
    assert top_k(s, 10) == [0, 2, 1]
    with pytest.raises(InputError):
        top_k(s, 0)
