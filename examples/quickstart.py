"""Quickstart: train Inf2vec and predict who gets influenced.

Generates a Digg-like synthetic dataset, learns social-influence
embeddings with Inf2vec (Algorithm 2 of the paper), and then uses the
learned representations for the paper's two prediction tasks.

Run:  python examples/quickstart.py
"""

from repro import (
    EmbeddingPredictor,
    Inf2vecConfig,
    Inf2vecModel,
    SyntheticSocialDataset,
)
from repro.core.context import ContextConfig
from repro.eval import evaluate_activation, evaluate_diffusion
from repro.serve import EmbeddingStore

SEED = 7


def main() -> None:
    # 1. Data: a social graph + an action log of diffusion episodes.
    #    For a real crawl, load a 'source target' edge list and a
    #    'user item timestamp' action log instead:
    #    graph, log, _ = repro.data.load_dataset(edges_path, actions_path)
    data = SyntheticSocialDataset.digg_like(num_users=400, num_items=150, seed=SEED)
    print(f"dataset: {data}")

    # 2. The paper's split: 80% train / 10% tune / 10% test episodes.
    train, tune, test = data.log.split((0.8, 0.1, 0.1), seed=SEED)
    print(f"episodes: {len(train)} train / {len(tune)} tune / {len(test)} test")

    # 3. Train Inf2vec.  K, L, alpha, gamma are the paper's knobs.
    config = Inf2vecConfig(
        dim=32,
        epochs=15,
        learning_rate=0.01,
        context=ContextConfig(length=20, alpha=0.2),
    )
    model = Inf2vecModel(config, seed=SEED).fit(data.graph, train)
    print(f"trained: {model}; final loss {model.loss_history[-1]:.4f}")

    # 4. Score pairwise influence: x(u, v) = S_u . T_v + b_u + b~_v.
    emb = model.embedding
    most_influential = max(range(emb.num_users), key=lambda u: emb.source_bias[u])
    print(f"highest influence-ability bias: user {most_influential}")

    # 5. Predict: will user v activate given its active friends?
    predictor = EmbeddingPredictor(emb, aggregator="ave")
    activation = evaluate_activation(predictor, data.graph, test)
    print(f"activation prediction: {activation}")

    # 6. Predict: who will a seed set reach (high-order diffusion)?
    diffusion = evaluate_diffusion(predictor, data.graph.num_nodes, test)
    print(f"diffusion prediction:  {diffusion}")

    # 7. Persist the embedding as a memory-mapped store for serving.
    store = EmbeddingStore.save(emb, "/tmp/inf2vec_quickstart_store")
    print(f"embedding store saved to {store.directory}")


if __name__ == "__main__":
    main()
