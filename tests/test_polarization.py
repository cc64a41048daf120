import itertools
import logging
import math

import numpy as np
import pytest

import oracles as orc
from rtpol import EdgeRecord, build_graph
from rtpol import assortativity_r, assortativity_report, classes_from_scores
from rtpol import dyad_correlation, mixing_matrix, permutation_test
from rtpol import polarization
from rtpol.errors import DegenerateInputError, InputError
from rtpol.polarization import (SKIP_WARN_FRACTION, _dyad_positions,
                                _item_salts, _key_order, _replicate_keys,
                                _replicate_rhos)
from rtpol.rng import derive_seed
from rtpol.synth import SyntheticSpec, account_ids, planted_edges

PUBLISHED_MIXING = np.array([[0.43, 0.057], [0.044, 0.47]])


def two_dyads(scores):
    """Two disjoint edges b->a and d->c with the given (a, b, c, d) scores."""
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("c", "d")])
    by = dict(zip("abcd", scores))
    return g, np.array([by[x] for x in g.ids], dtype=float)


def polarized_graph(seed: int, p_out: float = 0.0):
    """Two 50-node blocs with bloc-signed scores; keep both components."""
    spec = SyntheticSpec(n_left=50, n_right=50, p_in=0.2, p_out=p_out, seed=seed)
    g = build_graph(planted_edges(spec), nodes=account_ids(spec))
    scores = np.array([-1.0 if x.startswith("L") else 1.0 for x in g.ids])
    return g, scores


# ---------------------------------------------------------------------------
# dyad correlation
# ---------------------------------------------------------------------------


def test_perfectly_assortative_dyads():
    g, s = two_dyads((-1.0, -1.0, 1.0, 1.0))
    rho, n = dyad_correlation(g, s)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert n == 2


def test_perfectly_disassortative_dyads():
    g, s = two_dyads((1.0, -1.0, -1.0, 1.0))
    rho, _ = dyad_correlation(g, s)
    assert rho == pytest.approx(-1.0, abs=1e-12)


def test_equal_scores_degenerate():
    g, s = two_dyads((1.0, 1.0, 1.0, 1.0))
    with pytest.raises(DegenerateInputError):
        dyad_correlation(g, s)


def test_too_few_dyads():
    g = build_graph([EdgeRecord("a", "b")])
    with pytest.raises(DegenerateInputError):
        dyad_correlation(g, np.array([1.0, -1.0]))


def test_dyads_ignore_weights_loops_and_unscored():
    records = [
        EdgeRecord("a", "b", 7),   # one dyad despite the weight
        EdgeRecord("a", "b", 2),   # aggregates into the same dyad
        EdgeRecord("c", "c", 3),   # self-loop: never a dyad
        EdgeRecord("c", "d"),
        EdgeRecord("a", "e"),      # e unscored: excluded
    ]
    g = build_graph(records)
    scores = np.array([1.0, 0.5, -1.0, -0.5, np.nan])
    rho, n = dyad_correlation(g, scores)
    assert n == 2
    assert rho == pytest.approx(orc.pearson_plain([0.5, -0.5], [1.0, -1.0]),
                                abs=1e-12)


def test_rho_affine_invariance():
    rng = np.random.default_rng(3)
    g = orc.random_graph(rng, 12)
    scores = rng.normal(size=g.n)
    rho1, _ = dyad_correlation(g, scores)
    rho2, _ = dyad_correlation(g, 3.0 * scores + 0.7)
    assert rho2 == pytest.approx(rho1, abs=1e-12)


def test_rho_matches_longhand_pearson():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = orc.random_graph(rng, 10)
        scores = rng.normal(size=g.n)
        pairs = set(zip(g.sources.tolist(), g.targets.tolist()))
        x = [scores[s] for s, t in sorted(pairs) if s != t]
        y = [scores[t] for s, t in sorted(pairs) if s != t]
        if len(x) < 2 or len(set(x)) == 1 or len(set(y)) == 1:
            continue
        rho, n = dyad_correlation(g, scores)
        assert n == len(x)
        assert rho == pytest.approx(orc.pearson_plain(x, y), abs=1e-12)


# ---------------------------------------------------------------------------
# permutation null
# ---------------------------------------------------------------------------


def test_planted_polarization_is_detected():
    g, scores = polarized_graph(0)
    res = permutation_test(g, scores, n_perm=2_000, seed=0)
    assert res.z > 10.0
    assert res.n_skipped == 0
    assert not res.warning


def test_shuffled_scores_show_no_signal():
    g, scores = polarized_graph(1, p_out=0.05)
    for seed in range(5):
        shuffled = np.random.default_rng(seed).permutation(scores)
        res = permutation_test(g, shuffled, n_perm=2_000, seed=seed)
        assert abs(res.z) < 4.0


def test_permutation_deterministic_per_seed():
    g, scores = polarized_graph(2, p_out=0.02)
    r1 = permutation_test(g, scores, n_perm=500, seed=123)
    r2 = permutation_test(g, scores, n_perm=500, seed=123)
    assert (r1.mean, r1.sd, r1.z) == (r2.mean, r2.sd, r2.z)


def test_degenerate_replicates_skipped_and_warned():
    """Two dyads over four scores {-1,-1,1,1}: a third of the orderings
    put equal values on a margin, so skips are frequent and exact."""
    g, s = two_dyads((-1.0, -1.0, 1.0, 1.0))
    # brute-force the null over all 24 orderings of the score multiset
    vals = [-1.0, -1.0, 1.0, 1.0]
    idx = {x: i for i, x in enumerate(g.ids)}
    kept = []
    skipped = 0
    for per in itertools.permutations(vals):
        x = [per[idx["b"]], per[idx["d"]]]
        y = [per[idx["a"]], per[idx["c"]]]
        if len(set(x)) == 1 or len(set(y)) == 1:
            skipped += 1
            continue
        kept.append(orc.pearson_plain(x, y))
    assert skipped / 24 == pytest.approx(1.0 / 3.0)
    assert np.mean(kept) == 0.0  # exact by symmetry

    res = permutation_test(g, s, n_perm=900, seed=7)
    assert res.warning
    assert 0.2 < res.n_skipped / 900 < 0.47
    n_kept = 900 - res.n_skipped
    assert abs(res.mean) <= 4.0 / np.sqrt(n_kept)
    assert 0.9 < res.sd < 1.1


def test_constant_margin_skipped_despite_cancellation():
    """Three disjoint dyads over scores {0.3 x3, 0.7 x3}. A margin that is
    constant at 0.7 has a raw-moment sum of squares of about 2e-16, above
    `tiny`, but a centred one below it; only the centred form skips it."""
    g = build_graph([EdgeRecord("a", "b"), EdgeRecord("c", "d"),
                     EdgeRecord("e", "f")])
    s = np.array([{"a": 0.3, "b": 0.3, "c": 0.3}.get(x, 0.7) for x in g.ids])
    idx = {x: i for i, x in enumerate(g.ids)}
    sources = [idx[x] for x in "bdf"]
    targets = [idx[x] for x in "ace"]

    def degenerate(per) -> bool:
        return (len({per[i] for i in sources}) == 1
                or len({per[i] for i in targets}) == 1)

    orderings = list(itertools.permutations(range(6)))
    bad = {o for o in orderings if degenerate([s[i] for i in o])}
    assert len(bad) / len(orderings) == pytest.approx(0.1)

    n_perm = 600
    res = permutation_test(g, s, n_perm=n_perm, seed=11)
    expected = sum(tuple(orc.replicate_order(11, k, 6)) in bad
                   for k in range(n_perm))
    assert 30 < expected < 90
    assert res.n_skipped == expected
    assert res.warning


def test_permutation_matches_replicate_contract_oracle():
    rng = np.random.default_rng(41)
    checked = loops = reciprocal = with_skips = 0
    while checked < 8:
        g = orc.random_graph(rng, 9)
        if checked % 2:
            scores = rng.choice([-1.0, 0.25, 2.0], size=g.n)
        else:
            scores = rng.normal(size=g.n)
        scores[rng.random(g.n) < 0.2] = np.nan
        try:
            dyad_correlation(g, scores)
        except DegenerateInputError:
            continue
        n_perm = 120
        seed = int(rng.integers(0, 2**63))
        rho_obs, kept, skipped = orc.permutation_null_literal(g, scores,
                                                              n_perm, seed)
        if len(kept) < 2 or np.std(kept) == 0.0:
            with pytest.raises(DegenerateInputError):
                permutation_test(g, scores, n_perm=n_perm, seed=seed)
            continue
        res = permutation_test(g, scores, n_perm=n_perm, seed=seed)
        mean = float(np.mean(kept))
        sd = float(np.std(kept, ddof=1))
        assert res.n_skipped == skipped
        assert res.warning == (skipped > SKIP_WARN_FRACTION * n_perm)
        assert math.isclose(res.mean, mean, rel_tol=1e-12)
        assert math.isclose(res.sd, sd, rel_tol=1e-12)
        assert math.isclose(res.z, (rho_obs - mean) / sd, rel_tol=1e-12)
        pairs = set(zip(g.sources.tolist(), g.targets.tolist()))
        loops += any(s == t for s, t in pairs)
        reciprocal += any((t, s) in pairs for s, t in pairs if s != t)
        with_skips += skipped > 0
        checked += 1
    assert loops and reciprocal and with_skips


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 3])
def test_replicate_keys_distinct_so_any_argsort_is_stable(seed):
    keys = _replicate_keys(seed, 0, 64, _item_salts(3000))
    ordered = np.sort(keys, axis=1)
    assert (ordered[:, 1:] != ordered[:, :-1]).all()
    assert np.array_equal(np.argsort(keys, axis=1),
                          np.argsort(keys, axis=1, kind="stable"))
    assert np.argsort(keys[5]).tolist() == orc.replicate_order(seed, 5, 3000)


def test_key_order_falls_back_to_argsort_on_tied_high_parts():
    """Five items keep 3 low bits for the index. Row 0 ties items 0 and 1
    above those bits with their full keys in the opposite order, row 1
    ties items 2 and 4 in index order, row 2 has no tie."""
    keys = np.array([[0x1E, 0x19, 0x20, 0x0F, 0x10],
                     [0x41, 0x05, 0x2A, 0x33, 0x2F],
                     [2**64 - 1, 0x10, 2**63, 0x08, 0x31]], dtype=np.uint64)
    high_then_index = np.argsort(keys >> np.uint64(3), axis=1, kind="stable")
    assert not np.array_equal(high_then_index[0], np.argsort(keys[0]))
    order = _key_order(keys, np.empty_like(keys), np.empty_like(keys))
    assert np.array_equal(order, np.argsort(keys, axis=1))


@pytest.mark.parametrize("n_scored", [99, 9001])
def test_replicate_rhos_do_not_depend_on_the_block(n_scored, monkeypatch):
    """Odd row lengths, one of them past numpy's 8192-element buffer."""
    rng = np.random.default_rng(n_scored)
    vals = rng.normal(size=n_scored)
    pairs = np.unique(rng.integers(0, n_scored, size=(6 * n_scored, 2)), axis=0)
    src, tgt = pairs[pairs[:, 0] != pairs[:, 1]].T
    n_perm = 70
    whole = _replicate_rhos(vals, src, tgt, 5, 0, n_perm)
    for k in (0, 33, n_perm - 1):
        alone = _replicate_rhos(vals, src, tgt, 5, k, k + 1)
        assert alone.tobytes() == whole[k:k + 1].tobytes()
    for rows in (1, 3, 4, 64):
        monkeypatch.setattr(polarization, "_BLOCK_BYTES", 8 * n_scored * rows)
        got = _replicate_rhos(vals, src, tgt, 5, 0, n_perm)
        assert got.tobytes() == whole.tobytes(), rows


def test_permutation_null_logs_each_block(caplog, monkeypatch):
    g, s = two_dyads((-1.0, -1.0, 1.0, 1.0))
    vals, _, _ = _dyad_positions(g, s)
    monkeypatch.setattr(polarization, "_BLOCK_BYTES", 8 * vals.size * 100)
    with caplog.at_level(logging.DEBUG, logger="rtpol.polarization"):
        res = permutation_test(g, s, n_perm=950, seed=7)
    records = [r for r in caplog.records if r.name == "rtpol.polarization"]
    assert [r.args["done"] for r in records] == [*range(100, 950, 100), 950]
    assert all(r.args["total"] == 950 for r in records)
    skipped = [r.args["skipped"] for r in records]
    assert skipped == sorted(skipped) and skipped[-1] == res.n_skipped > 0


def test_permutation_null_logs_at_most_ten_records(caplog, monkeypatch):
    """One-replicate blocks, as at n_scored above 32,768, log once per
    tenth of the replicates, not once per block."""
    g, s = two_dyads((-1.0, -1.0, 1.0, 1.0))
    monkeypatch.setattr(polarization, "_BLOCK_BYTES", 1)
    with caplog.at_level(logging.DEBUG, logger="rtpol.polarization"):
        res = permutation_test(g, s, n_perm=237, seed=7)
    records = [r for r in caplog.records if r.name == "rtpol.polarization"]
    assert 0 < len(records) <= 10
    done = [r.args["done"] for r in records]
    assert done == sorted(done) and done[-1] == 237
    assert records[-1].args["skipped"] == res.n_skipped


@pytest.mark.parametrize("master, indices", [
    (0, ()), (0, (20,)), (0, (21, 3)), (2**64 - 1, (2**63,)), (-1, (-5, 7)),
    (2**70 + 9, (2**65, 0, 1))])
def test_derive_seed_folds_splitmix64(master, indices):
    expected = orc.splitmix64_int(master & orc._M64)
    for ix in indices:
        expected = orc.splitmix64_int(expected ^ (ix & orc._M64))
    assert derive_seed(master, *indices) == expected


def test_permutation_exchangeability_across_master_seeds():
    g, scores = polarized_graph(3, p_out=0.02)
    n_perm = 1_500
    passes = 0
    trials = 12
    for k in range(trials):
        r1 = permutation_test(g, scores, n_perm=n_perm, seed=1000 + 2 * k)
        r2 = permutation_test(g, scores, n_perm=n_perm, seed=1001 + 2 * k)
        if abs(r1.mean - r2.mean) < 3.0 * r1.sd / np.sqrt(n_perm):
            passes += 1
    # the bound is ~2.1 standard errors of the difference, so a small
    # number of misses is expected statistical behavior
    assert passes >= trials - 2


def test_permutation_validation():
    g, s = two_dyads((-1.0, -1.0, 1.0, 1.0))
    with pytest.raises(InputError):
        permutation_test(g, s, n_perm=1)


# ---------------------------------------------------------------------------
# mixing matrix and assortativity coefficient
# ---------------------------------------------------------------------------


def test_mixing_matrix_worked_example():
    records = [
        EdgeRecord("L2", "L1"),  # left retweets left
        EdgeRecord("L3", "L2"),  # left retweets left
        EdgeRecord("R1", "L1"),  # left retweets right
        EdgeRecord("R2", "R1"),  # right retweets right
    ]
    g = build_graph(records)
    classes = ["left" if x.startswith("L") else "right" for x in g.ids]
    mix = mixing_matrix(g, classes)
    assert mix.labels == ("left", "right")
    assert mix.e.tolist() == [[0.50, 0.25], [0.0, 0.25]]
    assert mix.n_edges == 4
    assert mix.a.tolist() == [0.75, 0.25]
    assert mix.b.tolist() == [0.5, 0.5]


def test_mixing_matrix_single_cross_edge():
    g = build_graph([EdgeRecord("R1", "L1")])
    mix = mixing_matrix(g, ["right", "left"] if g.ids[0] == "R1" else ["left", "right"])
    row = {"left": 0, "right": 1}
    assert mix.e[row["left"], row["right"]] == 1.0
    assert mix.e.sum() == 1.0


def test_mixing_matrix_exclusions():
    records = [
        EdgeRecord("a", "a", 5),  # self-loop ignored
        EdgeRecord("a", "b", 9),  # weight ignored
        EdgeRecord("a", "u"),     # unclassified retweeter ignored
        EdgeRecord("b", "a"),
    ]
    g = build_graph(records)
    cls = {"a": "left", "b": "right", "u": None}
    mix = mixing_matrix(g, [cls[x] for x in g.ids])
    assert mix.n_edges == 2
    assert mix.e.sum() == pytest.approx(1.0)


def test_mixing_matrix_no_classified_edges():
    g = build_graph([EdgeRecord("a", "b")])
    with pytest.raises(DegenerateInputError):
        mixing_matrix(g, [None, None])


def test_mixing_matrix_matches_loop_oracle():
    rng = np.random.default_rng(23)
    checked = loops = 0
    for _ in range(40):
        g = orc.random_graph(rng, 12)
        classes = [[None, "left", "right", "centre"][int(c)]
                   for c in rng.integers(0, 4, size=g.n)]
        labels, e, n_edges = orc.mixing_matrix_loop(g, classes)
        if n_edges == 0:
            with pytest.raises(DegenerateInputError):
                mixing_matrix(g, classes)
            continue
        mix = mixing_matrix(g, classes)
        assert mix.labels == labels
        assert mix.n_edges == n_edges
        assert mix.e.dtype == e.dtype and mix.e.tobytes() == e.tobytes()
        loops += bool((g.sources == g.targets).any())
        checked += 1
    assert checked >= 30 and loops


def test_assortativity_r_pure_cases():
    assert assortativity_r(np.diag([0.5, 0.5])) == 1.0
    assert assortativity_r(np.full((2, 2), 0.25)) == 0.0
    # product matrix: independence, r = 0
    a = np.array([0.7, 0.3])
    b = np.array([0.4, 0.6])
    assert assortativity_r(np.outer(a, b)) == pytest.approx(0.0, abs=1e-12)


def test_assortativity_r_published_matrix():
    r = assortativity_r(PUBLISHED_MIXING)
    assert r == pytest.approx(0.80, abs=0.005)
    # frozen value for regression, from normalizing the rounded table
    assert r == pytest.approx(0.7979131894819954, abs=1e-12)


def test_assortativity_r_validation():
    with pytest.raises(DegenerateInputError):
        assortativity_r(np.array([[1.0, 0.0], [0.0, 0.0]]))  # one class only
    with pytest.raises(InputError):
        assortativity_r(np.array([[0.4, 0.1], [0.1, 0.1]]))  # sums to 0.7
    with pytest.raises(InputError):
        assortativity_r(np.array([[-0.1, 0.6], [0.2, 0.3]]))


def test_r_is_one_iff_diagonal():
    rng = np.random.default_rng(6)
    for _ in range(20):
        e = rng.random((2, 2))
        e /= e.sum()
        r = assortativity_r(e)
        off = e[0, 1] + e[1, 0]
        if off == 0.0:
            assert r == pytest.approx(1.0, abs=1e-12)
        else:
            assert r < 1.0


def test_classes_from_scores():
    out = classes_from_scores(np.array([-2.0, 3.0, 0.0, np.nan, 1e-15]))
    assert out == ["left", "right", None, None, None]


# ---------------------------------------------------------------------------
# end-to-end report
# ---------------------------------------------------------------------------


def test_assortativity_report_planted():
    g, scores = polarized_graph(5, p_out=0.01)
    rep = assortativity_report(g, scores, n_perm=1_000, seed=0)
    assert rep.perm.rho > 0.9
    assert rep.perm.z > 10
    assert rep.r > 0.9
    assert rep.mixing.labels == ("left", "right")
    d = rep.to_json_dict()
    assert set(d) == {"rho", "n_dyads", "perm", "z", "r", "labels", "e", "a", "b"}
    assert set(d["perm"]) == {"n", "mean", "sd", "skipped", "warning"}


def test_assortativity_report_computes_rho_once(monkeypatch):
    g, scores = polarized_graph(5, p_out=0.01)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dyad_correlation(*args, **kwargs)

    monkeypatch.setattr(polarization, "dyad_correlation", counted)
    rep = assortativity_report(g, scores, n_perm=200, seed=0)
    assert len(calls) == 1
    assert (rep.perm.rho, rep.perm.n_dyads) == dyad_correlation(g, scores)


def test_assortativity_report_drop_nodes():
    g, scores = polarized_graph(6, p_out=0.01)
    victims = [x for x in g.ids if x.endswith("0")][:4]
    rep = assortativity_report(g, scores, n_perm=500, seed=0,
                               drop_nodes=victims)
    full = assortativity_report(g, scores, n_perm=500, seed=0)
    assert rep.perm.n_dyads < full.perm.n_dyads
    assert rep.r > 0.9


def test_assortativity_report_ignores_unknown_drop_nodes():
    g, scores = polarized_graph(6, p_out=0.01)
    victims = [x for x in g.ids if x.endswith("0")][:4]
    want = assortativity_report(g, scores, n_perm=200, seed=0, drop_nodes=victims)
    got = assortativity_report(g, scores, n_perm=200, seed=0,
                               drop_nodes=["no-such-account", *victims, ""])
    assert got.to_json_dict() == want.to_json_dict()
    alone = assortativity_report(g, scores, n_perm=200, seed=0,
                                 drop_nodes=["no-such-account"])
    full = assortativity_report(g, scores, n_perm=200, seed=0)
    assert alone.to_json_dict() == full.to_json_dict()
