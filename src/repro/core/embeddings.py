"""Influence-embedding parameter store.

The social-influence-embedding problem (Definition 2) learns, for each
user ``u``:

* ``S_u`` — source embedding: capability to influence others,
* ``T_u`` — target embedding: tendency to be influenced,
* ``b_u`` — influence-ability bias,
* ``b̃_u`` — conformity bias.

The influence score of ``u`` over ``v`` is
``x(u, v) = S_u · T_v + b_u + b̃_v`` (Section IV-C); the training
probability ``Pr(v | u)`` is its softmax (Eq. 3).

:class:`InfluenceEmbedding` is a plain in-memory container with
vectorised score helpers; its one on-disk form is the memory-mapped
:class:`repro.serve.store.EmbeddingStore`.  It is shared by Inf2vec and by the
representation baselines (MF, node2vec) so that every latent model is
evaluated through exactly the same scoring path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TrainingError
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int


class InfluenceEmbedding:
    """Learned parameters ``(S, T, b, b̃)`` for a user universe.

    Parameters
    ----------
    source:
        ``(num_users, dim)`` source-embedding matrix ``S``.
    target:
        ``(num_users, dim)`` target-embedding matrix ``T``.
    source_bias:
        ``(num_users,)`` influence-ability biases ``b``.
    target_bias:
        ``(num_users,)`` conformity biases ``b̃``.
    """

    def __init__(
        self,
        source: np.ndarray,
        target: np.ndarray,
        source_bias: np.ndarray,
        target_bias: np.ndarray,
    ):
        source = np.asarray(source, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        source_bias = np.asarray(source_bias, dtype=np.float64)
        target_bias = np.asarray(target_bias, dtype=np.float64)
        if source.ndim != 2 or target.ndim != 2:
            raise TrainingError("source/target embeddings must be 2-D matrices")
        if source.shape != target.shape:
            raise TrainingError(
                f"source shape {source.shape} != target shape {target.shape}"
            )
        num_users = source.shape[0]
        if source_bias.shape != (num_users,) or target_bias.shape != (num_users,):
            raise TrainingError(
                "bias vectors must have shape (num_users,), got "
                f"{source_bias.shape} and {target_bias.shape}"
            )
        self.source = source
        self.target = target
        self.source_bias = source_bias
        self.target_bias = target_bias

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def initialize(
        cls, num_users: int, dim: int, seed: SeedLike = None
    ) -> "InfluenceEmbedding":
        """Paper initialisation: ``S, T ~ U[-1/K, 1/K]``, biases zero."""
        num_users = check_positive_int("num_users", num_users)
        dim = check_positive_int("dim", dim)
        rng = ensure_rng(seed)
        bound = 1.0 / dim
        return cls(
            source=rng.uniform(-bound, bound, size=(num_users, dim)),
            target=rng.uniform(-bound, bound, size=(num_users, dim)),
            source_bias=np.zeros(num_users),
            target_bias=np.zeros(num_users),
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Size of the user universe."""
        return int(self.source.shape[0])

    @property
    def dim(self) -> int:
        """Embedding dimensionality ``K``."""
        return int(self.source.shape[1])

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def score(self, source_user: int, target_user: int) -> float:
        """Influence score ``x(u, v) = S_u · T_v + b_u + b̃_v``."""
        u = int(source_user)
        v = int(target_user)
        return float(
            self.source[u] @ self.target[v]
            + self.source_bias[u]
            + self.target_bias[v]
        )

    def score_pairs(
        self, source_users: Sequence[int], target_users: Sequence[int]
    ) -> np.ndarray:
        """Vectorised ``x(u_k, v_k)`` for aligned index sequences."""
        u = np.asarray(source_users, dtype=np.int64)
        v = np.asarray(target_users, dtype=np.int64)
        if u.shape != v.shape:
            raise TrainingError(
                f"source and target index shapes differ: {u.shape} vs {v.shape}"
            )
        dots = np.einsum("ij,ij->i", self.source[u], self.target[v])
        return dots + self.source_bias[u] + self.target_bias[v]

    def scores_from(self, source_user: int) -> np.ndarray:
        """``x(u, ·)`` against every user — used by diffusion prediction."""
        u = int(source_user)
        return (
            self.target @ self.source[u]
            + self.source_bias[u]
            + self.target_bias
        )

    def scores_onto(self, target_user: int, source_users: Sequence[int]) -> np.ndarray:
        """``x(u_k, v)`` for one target ``v`` and many candidate influencers."""
        v = int(target_user)
        u = np.asarray(source_users, dtype=np.int64)
        return self.source[u] @ self.target[v] + self.source_bias[u] + self.target_bias[v]

    def combined_vectors(self) -> np.ndarray:
        """Concatenated ``[S_u ; T_u]`` per user, the paper's Fig 6 input."""
        return np.hstack([self.source, self.target])

    def copy(self) -> "InfluenceEmbedding":
        """Deep copy (training checkpoints, ablation branches)."""
        return InfluenceEmbedding(
            self.source.copy(),
            self.target.copy(),
            self.source_bias.copy(),
            self.target_bias.copy(),
        )

    def __repr__(self) -> str:
        return f"InfluenceEmbedding(num_users={self.num_users}, dim={self.dim})"
