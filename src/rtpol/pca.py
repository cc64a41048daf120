"""Media-preference scores from a Boolean followership matrix.

The leading principal component of the accounts x media 0/1 matrix serves
as a one-dimensional media-preference axis. Loadings are oriented so that
a designated anchor column (a medium of known conservative leaning) gets a
positive loading; an account's projection onto the axis is its score, and
the sign of the score classifies it as left (negative) or right (positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AnchorError, DegenerateInputError, InputError

#: scores with absolute value below this band are reported as unclassified
ZERO_BAND = 1e-12


@dataclass(frozen=True, eq=False)
class FollowershipMatrix:
    """0/1 matrix of accounts (rows) against media columns.

    Every row must follow at least one medium; rows of zeros are expected
    to be dropped at ingest, before construction.
    """

    accounts: tuple[str, ...]
    media: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=np.uint8)
        object.__setattr__(self, "entries", ent)
        if ent.ndim != 2 or ent.shape != (len(self.accounts), len(self.media)):
            raise InputError("followership entries do not match account/media labels")
        if len(set(self.accounts)) != len(self.accounts):
            raise InputError("duplicate account ids in followership matrix")
        if len(set(self.media)) != len(self.media):
            raise InputError("duplicate media labels in followership matrix")
        if not np.isin(ent, (0, 1)).all():
            raise InputError("followership entries must be 0 or 1")
        if ent.shape[0] and ent.sum(axis=1).min() == 0:
            raise InputError("followership rows of all zeros must be dropped at ingest")

    @property
    def n_accounts(self) -> int:
        return len(self.accounts)


@dataclass(frozen=True, eq=False)
class MediaLoadings:
    """Unit-norm loadings of the leading principal component.

    `column_means` are the followership column means the loadings were
    computed against; scoring subtracts them so the projection is centered.
    `eigengap` is the leading covariance eigenvalue minus the second.
    """

    media: tuple[str, ...]
    loadings: np.ndarray
    column_means: np.ndarray
    anchor: str
    explained_variance: float
    eigengap: float


@dataclass(frozen=True, eq=False)
class MediaScores:
    """Signed media-preference score and class per account."""

    scores: dict[str, float]
    classes: dict[str, str]


def sign_class(score: float) -> str:
    """'left' below -ZERO_BAND, 'right' above ZERO_BAND, else (NaN included)
    'unclassified'."""
    if score < -ZERO_BAND:
        return "left"
    if score > ZERO_BAND:
        return "right"
    return "unclassified"


def first_principal_component(m: FollowershipMatrix,
                              anchor: str | None = None) -> MediaLoadings:
    """Leading eigenvector of the column-centered covariance, sign-anchored
    (by default, and for an empty anchor, on the first media column).

    The covariance uses divisor n_f - 1 and is decomposed densely (it is
    only media x media). Degenerate input (fewer than two rows, or all
    rows identical) is rejected.
    """
    anchor = anchor or m.media[0]
    if anchor not in m.media:
        raise InputError(f"anchor {anchor!r} is not a media column")
    n_f = m.n_accounts
    if n_f < 2:
        raise DegenerateInputError("followership needs at least two account rows")
    ent = m.entries.astype(np.float64)
    means = ent.mean(axis=0)
    x = ent - means
    if not x.any():
        raise DegenerateInputError("all followership rows are identical")
    cov = (x.T @ x) / (n_f - 1)
    if not cov.any():
        raise DegenerateInputError("followership covariance is zero")

    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending eigenvalues
    v = eigvecs[:, -1]
    lam = float(eigvals[-1])
    gap = lam - float(eigvals[-2])  # one medium means identical rows, rejected above
    a = float(v[m.media.index(anchor)])
    if abs(a) < ZERO_BAND:
        raise AnchorError(f"anchor {anchor!r} has a zero loading; cannot orient the axis")
    if a < 0:
        v = -v
    return MediaLoadings(media=m.media, loadings=v, column_means=means.copy(),
                         anchor=anchor, explained_variance=lam, eigengap=gap)


def score_accounts(m: FollowershipMatrix, loadings: MediaLoadings) -> MediaScores:
    """Project centered followership rows onto the loadings."""
    if tuple(m.media) != tuple(loadings.media):
        raise InputError("followership media columns do not match the loadings")
    proj = (m.entries.astype(np.float64) - loadings.column_means) @ loadings.loadings
    scores = {acct: float(s) for acct, s in zip(m.accounts, proj)}
    classes = {acct: sign_class(s) for acct, s in scores.items()}
    return MediaScores(scores=scores, classes=classes)


def node_score_array(scores: MediaScores, ids: Sequence[str]) -> np.ndarray:
    """Scores aligned to a node id sequence; NaN marks unscored nodes."""
    out = np.full(len(ids), np.nan)
    for i, ext in enumerate(ids):
        v = scores.scores.get(ext)
        if v is not None:
            out[i] = v
    return out
