"""Viral marketing: influence maximisation on learned influence models.

The paper's introduction motivates influence learning with viral
marketing [1]: choose the k seed users whose word-of-mouth cascade
reaches the most people.  This example closes that loop:

1. generate a social dataset with *planted* ground-truth influence
   (boosted base probability so cascades spread visibly),
2. learn influence parameters two ways — Inf2vec embeddings and the
   ST (Goyal MLE) edge model,
3. select seeds with each model via RIS sketches (the Inf2vec scores
   are calibrated into IC probabilities first) plus the fast
   simulation-free embedding heuristic,
4. judge every seed set by simulating cascades under the *planted*
   probabilities — the ground truth no real-world experiment has.

Run:  python examples/viral_marketing.py
"""

import numpy as np

from repro import Inf2vecConfig, Inf2vecModel, SyntheticSocialDataset
from repro.apps.influence_max import (
    embedding_edge_probabilities,
    embedding_seed_selection,
    ris_influence_maximization,
)
from repro.baselines import StaticModel
from repro.core.context import ContextConfig
from repro.diffusion.montecarlo import expected_spread

SEED = 13
NUM_SEEDS = 5
JUDGE_RUNS = 400


def main() -> None:
    # Boost the planted influence so seed quality matters visibly.
    data = SyntheticSocialDataset.digg_like(
        num_users=300, num_items=120, seed=SEED, base_probability=0.02
    )
    train, _tune, _test = data.log.split((0.8, 0.1, 0.1), seed=SEED)
    print(f"dataset: {data}")

    # --- Learn influence parameters from the action log ---------------
    inf2vec = Inf2vecModel(
        Inf2vecConfig(
            dim=16, epochs=15, learning_rate=0.02,
            context=ContextConfig(length=20, alpha=0.5),
        ),
        seed=SEED,
    ).fit(data.graph, train)
    st = StaticModel().fit(data.graph, train)

    # --- Select seeds ---------------------------------------------------
    # Calibrate the embedding scores into IC probabilities (anchor the
    # mean to ST's learned activity level) and run RIS on them.
    inf2vec_probs = embedding_edge_probabilities(
        inf2vec.embedding, data.graph, mean_probability=0.02
    )
    inf2vec_ris = ris_influence_maximization(inf2vec_probs, NUM_SEEDS, seed=SEED)
    st_ris = ris_influence_maximization(
        st.edge_probabilities(), NUM_SEEDS, seed=SEED
    )
    heuristic = embedding_seed_selection(inf2vec.embedding, NUM_SEEDS)

    print(f"Inf2vec + RIS seeds:     {inf2vec_ris.seeds}")
    print(f"ST + RIS seeds:          {st_ris.seeds}")
    print(f"Inf2vec heuristic seeds: {heuristic.seeds} (no simulation)")

    # --- Judge against the planted ground truth ------------------------
    truth = data.planted.edge_probabilities
    random_seeds = tuple(
        int(u)
        for u in np.random.default_rng(99).choice(
            data.graph.num_nodes, NUM_SEEDS, replace=False
        )
    )
    contenders = [
        ("Inf2vec+RIS", inf2vec_ris.seeds),
        ("ST+RIS", st_ris.seeds),
        ("Inf2vec-fast", heuristic.seeds),
        ("random", random_seeds),
    ]
    for name, seeds in contenders:
        spread = expected_spread(truth, list(seeds), num_runs=JUDGE_RUNS, seed=SEED)
        print(f"{name:14s} true expected spread: {spread:.1f} users")

    oracle = ris_influence_maximization(truth, NUM_SEEDS, seed=SEED)
    oracle_spread = expected_spread(
        truth, list(oracle.seeds), num_runs=JUDGE_RUNS, seed=SEED
    )
    print(f"{'oracle':14s} true expected spread: {oracle_spread:.1f} users")


if __name__ == "__main__":
    main()
