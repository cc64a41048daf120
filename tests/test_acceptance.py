"""Acceptance suite: one test per numbered criterion.

Each test exercises a user-visible guarantee end to end, prints a single
PASS/FAIL line (run with `pytest -s` to see the lines for passing tests),
and enforces the stated numerical tolerance together with its runtime
budget on this machine.
"""

import json
import math
import time

import numpy as np

import oracles as orc
from rtpol import (EdgeRecord, FollowershipMatrix, MediaScores,
                   ModularityParams, Partition, SyntheticSpec, WordCountTable,
                   assortativity_r, assortativity_report, build_graph,
                   chi_square, first_principal_component, generate_bundle,
                   hits, infomap, louvain, map_equation, modularity, pagerank,
                   resolution_sweep, scan_corpus, score_accounts,
                   shannon_diversity, word_counts_by_class)
from rtpol.pipeline import PipelineConfig, run_report
from rtpol.synth import bloc_labels, planted_edges, planted_tweets
from rtpol.text import TweetRecord

INV_SQRT2 = 1.0 / np.sqrt(2.0)
GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0

# two-bloc mixing fractions reported for the event retweet network
PUBLISHED_MIXING = np.array([[0.43, 0.057], [0.044, 0.47]])


def _check(num: int, detail: str, ok: bool, seconds: float,
           budget: float | None) -> None:
    in_time = budget is None or seconds < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    bound = f"{budget:g}s" if budget is not None else "none"
    print(f"[criterion {num:02d}] {status}: {detail} "
          f"({seconds:.3f}s, budget {bound})")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: {seconds:.3f}s over the {budget}s budget"


def planted_instance(seed: int):
    """2x50 planted blocs, dense enough for reliable recovery."""
    spec = SyntheticSpec(n_left=50, n_right=50, p_in=0.2, p_out=0.01,
                         seed=seed)
    g = build_graph(planted_edges(spec))
    blocs = bloc_labels(spec)
    truth = np.array([0 if blocs[x] == "left" else 1 for x in g.ids])
    return g, truth


def two_cycles():
    return build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "a"),
                        EdgeRecord("c", "d"), EdgeRecord("d", "c")])


def test_c01_assortativity_on_published_mixing():
    r = assortativity_r(PUBLISHED_MIXING)  # warm-up
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        r = assortativity_r(PUBLISHED_MIXING)
        best = min(best, time.perf_counter() - t0)
    ok = abs(r - 0.80) <= 0.005 and abs(r - 0.7979131894819954) <= 1e-12
    _check(1, f"r = {r:.6f} within 0.80 +- 0.005", ok, best, 1e-3)


def test_c02_modularity_matches_double_sum_everywhere():
    rng = np.random.default_rng(8)
    partitions_by_n: dict[int, list] = {}
    worst = 0.0
    n_checked = 0
    t0 = time.perf_counter()
    for _ in range(100):
        g = orc.random_graph(rng, 8)
        adj = orc.dense_adjacency(g)
        if g.n not in partitions_by_n:
            partitions_by_n[g.n] = list(orc.set_partitions(g.n))
        for labels in partitions_by_n[g.n]:
            part = Partition.from_labels(labels)
            for gamma in (0.5, 1.0, 2.0):
                got = modularity(g, part, ModularityParams(gamma=gamma))
                want = orc.modularity_double_sum(adj, labels, gamma)
                worst = max(worst, abs(got - want))
                n_checked += 1
    elapsed = time.perf_counter() - t0
    _check(2, f"max |Q_sparse - Q_dense| = {worst:.2e} over {n_checked} "
              "partition evaluations (tol 1e-12)", worst <= 1e-12,
           elapsed, 60.0)


def test_c03_louvain_recovers_planted_blocs():
    t0 = time.perf_counter()
    good = 0
    for seed in range(100):
        g, truth = planted_instance(seed)
        part = louvain(g, seed=seed)
        if orc.agreement_fraction(part.assignment, truth) >= 0.95:
            good += 1
    g4 = two_cycles()
    q = modularity(g4, louvain(g4, seed=0))
    elapsed = time.perf_counter() - t0
    ok = good >= 95 and q == 0.5
    _check(3, f"planted blocs recovered in {good}/100 seeds (need 95); "
              f"two-cycles Q = {q} (need exactly 0.5)", ok, elapsed, 10.0)


def test_c04_resolution_sweep_gamma_behavior():
    t0 = time.perf_counter()
    g, truth = planted_instance(0)
    node_scores = np.where(truth == 0, -1.0, 1.0)
    sweep = resolution_sweep(g, node_scores, gammas=(0.01, 1.0), seed=0,
                             size_floor=5)
    elapsed = time.perf_counter() - t0
    (g_lo, rows_lo), (g_hi, rows_hi) = sweep
    ok = (g_lo == 0.01 and len(rows_lo) == 1 and rows_lo[0][1] == g.n
          and g_hi == 1.0 and len(rows_hi) >= 2)
    _check(4, f"gamma 0.01 -> {len(rows_lo)} community of size {rows_lo[0][1]}"
              f"/{g.n}; gamma 1 -> {len(rows_hi)} communities", ok,
           elapsed, 30.0)


def test_c05_map_equation_oracle_and_infomap_recovery():
    t0 = time.perf_counter()
    g2 = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "a")])
    one_module = map_equation(g2, Partition.from_labels([0, 0]))
    d2 = abs(one_module - orc.map_equation_textbook(
        orc.dense_adjacency(g2), [0, 0]))

    g4 = two_cycles()
    adj4 = orc.dense_adjacency(g4)
    split = map_equation(g4, Partition.from_labels([0, 0, 1, 1]))
    merged = map_equation(g4, Partition.from_labels([0, 0, 0, 0]))
    d4 = max(abs(split - orc.map_equation_textbook(adj4, [0, 0, 1, 1])),
             abs(merged - orc.map_equation_textbook(adj4, [0, 0, 0, 0])))

    good = 0
    for seed in range(100):
        g, truth = planted_instance(seed)
        part = infomap(g, seed=seed)
        if orc.agreement_fraction(part.assignment, truth) >= 0.95:
            good += 1
    elapsed = time.perf_counter() - t0
    ok = (abs(one_module - 1.0) <= 1e-9 and d2 <= 1e-9 and d4 <= 1e-9
          and good >= 95)
    _check(5, f"2-cycle L = {one_module:.12f} bits (want 1), oracle gaps "
              f"{max(d2, d4):.2e} (tol 1e-9); planted blocs recovered in "
              f"{good}/100 seeds (need 95)", ok, elapsed, 10.0)


def test_c06_centrality_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        g = orc.random_graph(rng, 10)
        adj = orc.dense_adjacency(g)
        worst = max(worst, float(np.abs(
            pagerank(g).values - orc.pagerank_linear_solve(adj)).max()))
        hub, auth = hits(g)
        for vec, sym in ((hub.values, adj.T @ adj), (auth.values, adj @ adj.T)):
            basis, top, gap = orc.leading_eigvec(sym)
            if basis.shape[1] == 1 and gap > 1e-6:
                sign = 1.0 if float(top @ vec) >= 0 else -1.0
                worst = max(worst, float(np.abs(vec - sign * top).max()))
            else:
                worst = max(worst, orc.eigenspace_residual(basis, vec))

    chain = build_graph([EdgeRecord("a", "b"), EdgeRecord("b", "c")])
    chain_gap = float(np.abs(pagerank(chain).values
                             - (0.4744, 0.3412, 0.1844)).max())

    g = build_graph([EdgeRecord("a1", "h1"), EdgeRecord("a2", "h1"),
                     EdgeRecord("a1", "h2")])
    hub, auth = hits(g)
    hubs = dict(zip(g.ids, hub.values))
    auths = dict(zip(g.ids, auth.values))
    golden_gap = max(abs(hubs["h1"] / hubs["h2"] - GOLDEN),
                     abs(auths["a1"] / auths["a2"] - GOLDEN))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and chain_gap <= 1e-4 and golden_gap <= 1e-6
    _check(6, f"dense-oracle gap {worst:.2e} (tol 1e-8), chain gap "
              f"{chain_gap:.2e} (tol 1e-4), hub/authority ratio gap "
              f"{golden_gap:.2e} (tol 1e-6)", ok, elapsed, 5.0)


def test_c07_pca_fixture_and_dense_eigendecomposition():
    t0 = time.perf_counter()
    fixture = FollowershipMatrix(
        accounts=("u1", "u2", "u3", "u4"), media=("m1", "m2"),
        entries=np.array([[1, 0], [1, 0], [0, 1], [0, 1]]))
    load = first_principal_component(fixture, anchor="m1")
    scores = score_accounts(fixture, load)
    fixture_gap = float(np.abs(load.loadings - (INV_SQRT2, -INV_SQRT2)).max())
    want_scores = {"u1": INV_SQRT2, "u2": INV_SQRT2,
                   "u3": -INV_SQRT2, "u4": -INV_SQRT2}
    score_gap = max(abs(scores.scores[a] - want_scores[a]) for a in want_scores)

    rng = np.random.default_rng(12)
    worst_cos = 1.0
    for n_rows, n_cols in [(10, 2), (50, 3), (200, 6), (500, 9), (1000, 13)]:
        ent = (rng.random((n_rows, n_cols)) < rng.uniform(0.2, 0.7)
               ).astype(np.uint8)
        for i in np.flatnonzero(ent.sum(axis=1) == 0):
            ent[i, rng.integers(0, n_cols)] = 1
        if (ent == ent[0]).all():
            ent[0, 0] ^= 1
        m = FollowershipMatrix(
            accounts=tuple(f"u{i}" for i in range(n_rows)),
            media=tuple(f"m{j}" for j in range(n_cols)),
            entries=ent)
        basis, top, _ = orc.leading_eigvec(
            np.cov(ent.astype(float), rowvar=False))
        anchor = m.media[int(np.argmax(np.abs(top)))]
        v = first_principal_component(m, anchor=anchor).loadings
        # cosine to the oracle's leading eigenspace (handles ties)
        worst_cos = min(worst_cos, float(np.linalg.norm(basis.T @ v)))
    elapsed = time.perf_counter() - t0
    ok = fixture_gap <= 1e-6 and score_gap <= 1e-6 and worst_cos >= 1 - 1e-10
    _check(7, f"fixture loadings gap {fixture_gap:.2e}, scores gap "
              f"{score_gap:.2e} (tol 1e-6); worst oracle cosine "
              f"1 - {1 - worst_cos:.2e} (need >= 1 - 1e-10)", ok,
           elapsed, 5.0)


def test_c08_permutation_z_scores():
    t0 = time.perf_counter()
    g, truth = planted_instance(3)
    node_scores = np.where(truth == 0, -1.0, 1.0)
    planted_z = assortativity_report(g, node_scores, n_perm=10_000,
                                     seed=0).perm.z

    calm = 0
    zs = []
    for seed in range(100):
        shuffled = node_scores.copy()
        np.random.default_rng(seed).shuffle(shuffled)
        z = assortativity_report(g, shuffled, n_perm=10_000, seed=seed).perm.z
        zs.append(z)
        if abs(z) < 4.0:
            calm += 1
    elapsed = time.perf_counter() - t0
    ok = planted_z > 10.0 and calm >= 99
    _check(8, f"planted z = {planted_z:.1f} (need > 10); shuffled |z| < 4 in "
              f"{calm}/100 seeds (need 99, max |z| = {max(map(abs, zs)):.2f})",
           ok, elapsed, 120.0)


def test_c09_shannon_profile_values():
    t0 = time.perf_counter()
    balanced = shannon_diversity(1, 1)
    pure = shannon_diversity(1, 0)
    quarter = shannon_diversity(1, 3)
    elapsed = time.perf_counter() - t0
    ok = (balanced == math.log(2.0) and pure == 0.0
          and abs(quarter - 0.5623) <= 1e-4)
    _check(9, f"H(1/2,1/2) = ln 2 exactly: {balanced == math.log(2.0)}; "
              f"H(1,0) = 0 exactly: {pure == 0.0}; "
              f"H(1/4,3/4) = {quarter:.6f} (want 0.5623 +- 1e-4)", ok,
           elapsed, None)


def test_c10_chi_square_fixtures_and_symmetry():
    t0 = time.perf_counter()
    from collections import Counter
    prop = WordCountTable(left=Counter({"w": 10, "z": 90}),
                          right=Counter({"w": 20, "z": 180}),
                          total_left=100, total_right=200,
                          n_excluded_tweets=0)
    prop_ok = all(r.chi2 == 0.0 for r in chi_square(prop))

    lone = WordCountTable(left=Counter({"topic": 10, "filler": 90}),
                          right=Counter({"filler": 100}),
                          total_left=100, total_right=100,
                          n_excluded_tweets=0)
    got = {r.token: r.chi2 for r in chi_square(lone)}["topic"]
    lone_gap = abs(got - 0.05263)

    spec = SyntheticSpec(n_left=150, n_right=150, p_in=0.05, p_out=0.005,
                         tweets_per_account=2, seed=11)
    rows = planted_tweets(spec, planted_edges(spec))[:1000]
    corpus = [TweetRecord(account=r["account"], text=r["text"]) for r in rows]
    blocs = bloc_labels(spec)
    scores = MediaScores(
        scores={a: (-1.0 if s == "left" else 1.0) for a, s in blocs.items()},
        classes=blocs)
    table = word_counts_by_class(scan_corpus(corpus, scores.classes, None, ()))
    swapped = WordCountTable(left=table.right, right=table.left,
                             total_left=table.total_right,
                             total_right=table.total_left,
                             n_excluded_tweets=0)
    x1 = {r.token: r.chi2 for r in chi_square(table)}
    x2 = {r.token: r.chi2 for r in chi_square(swapped)}
    sym_ok = (len(corpus) == 1000 and set(x1) == set(x2) and len(x1) > 10
              and all(x1[t] == x2[t] for t in x1))
    elapsed = time.perf_counter() - t0
    ok = prop_ok and lone_gap <= 1e-5 and sym_ok
    _check(10, f"proportional tokens 0 exactly: {prop_ok}; one-sided fixture "
               f"= {got:.6f} (want 0.05263 +- 1e-5); label-swap symmetric on "
               f"all {len(x1)} corpus tokens: {sym_ok}", ok, elapsed, None)


def test_c11_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    bundle = generate_bundle(SyntheticSpec(), tmp_path / "bundle")

    def config(out):
        return PipelineConfig(edges=bundle.edges,
                              followership=bundle.followership,
                              tweets=bundle.tweets, out_dir=out,
                              gammas=(0.01, 1.0), n_perm=20_000, seed=0,
                              keywords=("#Charlottesville",))

    run_report(config(tmp_path / "one"))
    run_report(config(tmp_path / "two"))
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    identical = all(
        (tmp_path / "one" / n).read_bytes() == (tmp_path / "two" / n).read_bytes()
        for n in names if n != "manifest.json")
    m1 = json.loads((tmp_path / "one" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "two" / "manifest.json").read_text())
    for m in (m1, m2):
        for stage in m["stages"]:
            stage.pop("seconds")
    elapsed = time.perf_counter() - t0
    ok = (sorted(p.name for p in (tmp_path / "two").iterdir()) == names
          and len(names) == 23 and identical and m1 == m2)
    _check(11, f"two n=1000 runs byte-identical across {len(names) - 1} "
               f"analytical outputs: {identical}; manifests agree up to "
               f"wall-clock: {m1 == m2}", ok, elapsed, 60.0)
