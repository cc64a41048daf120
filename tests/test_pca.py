import numpy as np
import pytest

import oracles as orc
from rtpol import FollowershipMatrix, MediaScores
from rtpol import first_principal_component, node_score_array, score_accounts
from rtpol.errors import AnchorError, DegenerateInputError, InputError
from rtpol.synth import SyntheticSpec, planted_followership

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# four accounts split over two mutually exclusive media
FIXTURE = FollowershipMatrix(
    accounts=("u1", "u2", "u3", "u4"),
    media=("m1", "m2"),
    entries=np.array([[1, 0], [1, 0], [0, 1], [0, 1]]),
)


def test_two_column_fixture_loadings_and_variance():
    load = first_principal_component(FIXTURE, anchor="m1")
    assert load.loadings == pytest.approx([INV_SQRT2, -INV_SQRT2], abs=1e-10)
    assert load.explained_variance == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert load.eigengap == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.linalg.norm(load.loadings) == pytest.approx(1.0, abs=1e-10)


def test_two_column_fixture_scores_and_classes():
    load = first_principal_component(FIXTURE, anchor="m1")
    s = score_accounts(FIXTURE, load)
    assert s.scores["u1"] == pytest.approx(INV_SQRT2, abs=1e-10)
    assert s.scores["u2"] == pytest.approx(INV_SQRT2, abs=1e-10)
    assert s.scores["u3"] == pytest.approx(-INV_SQRT2, abs=1e-10)
    assert s.scores["u4"] == pytest.approx(-INV_SQRT2, abs=1e-10)
    assert s.classes == {"u1": "right", "u2": "right",
                         "u3": "left", "u4": "left"}


def test_row_at_the_column_means_is_unclassified():
    load = first_principal_component(FIXTURE, anchor="m1")
    probe = FollowershipMatrix(
        accounts=("a", "b", "c"), media=("m1", "m2"),
        entries=np.array([[1, 0], [0, 1], [1, 1]]))
    s = score_accounts(probe, load)
    # (1,1) centers to (0.5, 0.5), orthogonal to the loadings
    assert s.scores["c"] == pytest.approx(0.0, abs=1e-15)
    assert s.classes["c"] == "unclassified"
    assert s.classes["a"] == "right" and s.classes["b"] == "left"


def test_anchor_flip_negates_scores_only():
    l1 = first_principal_component(FIXTURE, anchor="m1")
    l2 = first_principal_component(FIXTURE, anchor="m2")
    s1 = score_accounts(FIXTURE, l1)
    s2 = score_accounts(FIXTURE, l2)
    for acct in FIXTURE.accounts:
        assert s2.scores[acct] == pytest.approx(-s1.scores[acct], abs=1e-12)
        assert abs(s2.scores[acct]) == pytest.approx(abs(s1.scores[acct]), abs=1e-12)
    hi1 = max(s1.scores, key=s1.scores.get)
    lo2 = min(s2.scores, key=s2.scores.get)
    assert hi1 == lo2


def test_default_anchor_is_first_media_column():
    explicit = first_principal_component(FIXTURE, anchor="m1")
    for load in (first_principal_component(FIXTURE),
                 first_principal_component(FIXTURE, anchor="")):
        assert load.anchor == "m1"
        assert load.loadings.tolist() == explicit.loadings.tolist()


def test_identical_columns_get_equal_loadings():
    m = FollowershipMatrix(
        accounts=("a", "b", "c", "d"), media=("m1", "m2", "m3"),
        entries=np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 1]]))
    for anchor in ("m1", "m2"):
        load = first_principal_component(m, anchor=anchor)
        assert load.loadings[0] == pytest.approx(load.loadings[1], abs=1e-10)
        assert load.loadings[0] > 0


def test_all_identical_rows_degenerate():
    m = FollowershipMatrix(accounts=("a", "b"), media=("m1", "m2"),
                           entries=np.array([[1, 0], [1, 0]]))
    with pytest.raises(DegenerateInputError):
        first_principal_component(m, anchor="m1")
    # a single medium always gives identical rows, so no eigengap is needed
    one = FollowershipMatrix(accounts=("a", "b", "c"), media=("m1",),
                             entries=np.array([[1], [1], [1]]))
    with pytest.raises(DegenerateInputError):
        first_principal_component(one, anchor="m1")


def test_single_row_degenerate():
    m = FollowershipMatrix(accounts=("a",), media=("m1",),
                           entries=np.array([[1]]))
    with pytest.raises(DegenerateInputError):
        first_principal_component(m, anchor="m1")


def test_constant_column_anchor_rejected():
    m = FollowershipMatrix(
        accounts=("a", "b", "c", "d"), media=("m1", "m2", "m3"),
        entries=np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]]))
    with pytest.raises(AnchorError):
        first_principal_component(m, anchor="m3")
    # the varying columns still anchor fine
    load = first_principal_component(m, anchor="m1")
    assert load.loadings[0] > 0


def test_unknown_anchor_rejected():
    with pytest.raises(InputError):
        first_principal_component(FIXTURE, anchor="nope")


def test_matrix_validation():
    with pytest.raises(InputError):
        FollowershipMatrix(accounts=("a", "b"), media=("m1",),
                           entries=np.array([[2], [1]]))
    with pytest.raises(InputError):
        FollowershipMatrix(accounts=("a", "a"), media=("m1",),
                           entries=np.array([[1], [1]]))
    with pytest.raises(InputError):
        FollowershipMatrix(accounts=("a", "b"), media=("m1", "m1"),
                           entries=np.array([[1, 0], [0, 1]]))
    with pytest.raises(InputError):
        FollowershipMatrix(accounts=("a", "b"), media=("m1", "m2"),
                           entries=np.array([[1, 0], [0, 0]]))


def _random_matrix(rng, n_rows: int, n_cols: int) -> FollowershipMatrix:
    ent = (rng.random((n_rows, n_cols)) < rng.uniform(0.2, 0.7)).astype(np.uint8)
    for i in np.flatnonzero(ent.sum(axis=1) == 0):
        ent[i, rng.integers(0, n_cols)] = 1
    if (ent == ent[0]).all():
        ent[0, 0] ^= 1
        if ent[0].sum() == 0:
            ent[0, -1] = 1
    return FollowershipMatrix(
        accounts=tuple(f"u{i}" for i in range(n_rows)),
        media=tuple(f"m{j}" for j in range(n_cols)),
        entries=ent)


def test_loadings_match_dense_eigendecomposition():
    """Loadings, variance and eigengap agree with np.cov's spectrum."""
    rng = np.random.default_rng(42)
    sizes = [(10, 2), (25, 3), (60, 5), (120, 7), (300, 9),
             (500, 11), (1000, 13)]
    for n_rows, n_cols in sizes:
        m = _random_matrix(rng, n_rows, n_cols)
        load = first_principal_component(m, anchor="m0")
        basis, top, gap = orc.leading_eigvec(
            np.cov(m.entries.astype(float), rowvar=False))
        if basis.shape[1] == 1 and gap > 1e-6:
            assert abs(float(load.loadings @ top)) >= 1.0 - 1e-10
        else:
            assert orc.eigenspace_residual(basis, load.loadings) <= 1e-8
        _, _, ev = orc.pca_first_component(m.entries.astype(float))
        assert load.explained_variance == pytest.approx(ev, rel=1e-9)
        vals = np.linalg.eigvalsh(np.cov(m.entries.astype(float), rowvar=False))
        assert load.eigengap == pytest.approx(vals[-1] - vals[-2], abs=1e-12)


def test_scores_center_and_match_variance():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = _random_matrix(rng, 200, 6)
        load = first_principal_component(m, anchor="m0")
        s = score_accounts(m, load)
        vals = np.array(list(s.scores.values()))
        assert vals.mean() == pytest.approx(0.0, abs=1e-9)
        assert vals.var(ddof=1) == pytest.approx(load.explained_variance, abs=1e-9)


def test_planted_majority_split_recovered():
    """Two planted blocs at a 57/43 split classify close to the split."""
    spec = SyntheticSpec(n_left=5700, n_right=4300, seed=1)
    ids, ent = planted_followership(spec)
    keep = ent.sum(axis=1) > 0
    m = FollowershipMatrix(
        accounts=tuple(np.array(ids)[keep]),
        media=spec.media,
        entries=ent[keep])
    load = first_principal_component(m, anchor=spec.media[0])
    # media favored by the same bloc share a loading sign
    assert (np.sign(load.loadings[:3]) == 1.0).all()
    assert (np.sign(load.loadings[3:]) == -1.0).all()
    classes = list(score_accounts(m, load).classes.values())
    n_left = classes.count("left")
    total = len(classes)
    planted_left = sum(1 for a, k in zip(ids, keep) if k and a.startswith("L"))
    assert planted_left / total == pytest.approx(0.57, abs=0.02)
    assert n_left / total == pytest.approx(0.57, abs=0.02)


def test_node_score_array_alignment():
    s = MediaScores(scores={"a": 0.5, "c": -0.25},
                    classes={"a": "right", "c": "left"})
    arr = node_score_array(s, ["a", "b", "c"])
    assert arr[0] == 0.5
    assert np.isnan(arr[1])
    assert arr[2] == -0.25
