"""Negative sampling for the skip-gram objective (Eq. 4).

Computing the softmax normaliser ``Z(u)`` of Eq. 3 needs a pass over
every user; negative sampling replaces it with ``|N|`` sampled
"negative" users per positive observation.  The trainer defaults to a
*uniform* sampler — the literal reading of the paper's "randomly
generate several negative instances" (``Inf2vecConfig``'s
``negative_distribution="uniform"``) — and also exposes word2vec's
unigram distribution raised to the 3/4 power as an ablation knob
(exercised alongside the other design ablations in
``benchmarks/bench_ablation_design.py``).

The sampler pre-builds an alias-free cumulative table once and then
draws in O(log V) per sample via ``searchsorted`` (vectorised for whole
batches); the uniform special case short-circuits to plain integer
draws, which keeps the numpy trainer fast enough for the experiment
suite.  :meth:`NegativeSampler.sample_matrix` optionally rejects
collisions with per-row excluded users (the observation's center user
and positive), so a "negative" never contradicts the positive gradient
it is paired with.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrainingError
from repro.obs.catalog import NEGATIVES_COLLISIONS, NEGATIVES_RESAMPLE_ROUNDS
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

#: Word2vec's distortion exponent for the unigram distribution.
UNIGRAM_DISTORTION = 0.75


def _collides(values: np.ndarray, exclude: np.ndarray) -> np.ndarray:
    """Mask of ``values`` equal to any excluded user of their row.

    ``values`` is ``(rows,)`` or ``(rows, cols)`` and ``exclude`` is
    ``(rows, E)`` with ``E >= 1``.  One ``==`` mask per exclude column,
    OR-ed together, never builds the ``(rows, cols, E)`` broadcast.
    """
    columns = exclude.T if values.ndim == 1 else exclude.T[:, :, None]
    mask = values == columns[0]
    for column in columns[1:]:
        mask |= values == column
    return mask


class NegativeSampler:
    """Draws negative users from a fixed categorical distribution.

    Parameters
    ----------
    weights:
        Non-negative, not-all-zero weight per user.  The sampling
        distribution is ``weights / weights.sum()``.
    """

    def __init__(self, weights: np.ndarray):
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 1:
            raise TrainingError(f"weights must be 1-D, got shape {weights.shape}")
        if weights.shape[0] == 0:
            raise TrainingError("cannot sample negatives from zero users")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise TrainingError("weights must be finite and non-negative")
        total = weights.sum()
        if total <= 0:
            raise TrainingError("at least one weight must be positive")
        self._cumulative = np.cumsum(weights / total)
        # Guard the top end against floating-point drift so that a
        # random draw of exactly 1.0-eps never lands out of range.
        self._cumulative[-1] = 1.0
        self._num_users = weights.shape[0]
        # A uniform distribution (the trainer's default) admits a much
        # cheaper draw than inverse-CDF search: plain integer draws.
        self._uniform = bool(weights.min() == weights.max())

    @classmethod
    def uniform(cls, num_users: int) -> "NegativeSampler":
        """Uniform distribution over all users."""
        num_users = check_positive_int("num_users", num_users)
        return cls(np.ones(num_users))

    @classmethod
    def from_frequencies(
        cls,
        frequencies: np.ndarray,
        distortion: float = UNIGRAM_DISTORTION,
        smoothing: float = 1.0,
    ) -> "NegativeSampler":
        """Word2vec-style distorted unigram distribution.

        Parameters
        ----------
        frequencies:
            Occurrence count per user (how often the user appears as a
            context member in the corpus).
        distortion:
            The exponent (word2vec uses 0.75).
        smoothing:
            Added to every count so users never observed as context can
            still be drawn as negatives — important because unobserved
            users are exactly the ones the model should push scores
            down for.
        """
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if np.any(frequencies < 0):
            raise TrainingError("frequencies must be non-negative")
        if smoothing < 0:
            raise TrainingError(f"smoothing must be >= 0, got {smoothing}")
        return cls(np.power(frequencies + smoothing, distortion))

    @property
    def num_users(self) -> int:
        """Support size of the distribution."""
        return self._num_users

    def probabilities(self) -> np.ndarray:
        """The normalised sampling distribution (for tests/inspection)."""
        probs = np.diff(self._cumulative, prepend=0.0)
        return probs

    def sample(self, count: int, rng: RandomState) -> np.ndarray:
        """Draw ``count`` user IDs i.i.d. from the distribution."""
        if count < 0:
            raise TrainingError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if self._uniform:
            return rng.integers(self._num_users, size=count, dtype=np.int64)
        draws = rng.random(count)
        return np.searchsorted(self._cumulative, draws, side="right").astype(np.int64)

    #: Resampling rounds before giving up on collision-free negatives.
    MAX_RESAMPLE_ROUNDS = 100

    def sample_matrix(
        self,
        rows: int,
        cols: int,
        rng: RandomState,
        exclude: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw a ``(rows, cols)`` matrix of negatives in one shot.

        Parameters
        ----------
        rows, cols:
            Matrix shape: one row per positive observation, ``cols``
            negatives each.
        rng:
            Source of randomness.
        exclude:
            Users that must not appear as negatives — either a 1-D
            array applied to every row, or a ``(rows, E)`` matrix of
            per-row exclusions (e.g. column 0 the center user, column
            1 the row's positive).  Collisions are masked and redrawn
            from the same distribution, which is exact rejection
            sampling over the allowed support.  Inside a ``recording``
            scope the initial collisions and the rejection-resample
            rounds spent clearing them are counted
            (``negatives.collisions`` / ``negatives.resample_rounds``).

        Raises
        ------
        TrainingError
            If collision-free negatives cannot be drawn (the excluded
            users carry essentially all of the distribution's mass).
        """
        matrix = self.sample(rows * cols, rng).reshape(rows, cols)
        if exclude is None or matrix.size == 0:
            return matrix
        exclude = np.asarray(exclude, dtype=np.int64)
        if exclude.ndim == 1:
            exclude = np.broadcast_to(exclude, (rows, exclude.shape[0]))
        elif exclude.ndim != 2 or exclude.shape[0] != rows:
            raise TrainingError(
                f"exclude must be 1-D or have {rows} rows, "
                f"got shape {exclude.shape}"
            )
        if exclude.shape[1] == 0:
            return matrix
        row_idx, col_idx = np.nonzero(_collides(matrix, exclude))
        if row_idx.shape[0]:
            NEGATIVES_COLLISIONS.inc(row_idx.shape[0])
        rounds = 0
        for _ in range(self.MAX_RESAMPLE_ROUNDS):
            if row_idx.shape[0] == 0:
                if rounds:
                    NEGATIVES_RESAMPLE_ROUNDS.inc(rounds)
                return matrix
            matrix[row_idx, col_idx] = self.sample(row_idx.shape[0], rng)
            rounds += 1
            # Only the redrawn entries can still collide.
            still = _collides(matrix[row_idx, col_idx], exclude[row_idx])
            row_idx = row_idx[still]
            col_idx = col_idx[still]
        raise TrainingError(
            "could not draw collision-free negatives after "
            f"{self.MAX_RESAMPLE_ROUNDS} rounds; the excluded users cover "
            "(almost) the entire sampling distribution"
        )
