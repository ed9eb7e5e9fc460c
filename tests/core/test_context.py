"""Unit tests for influence-context generation (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.context import (
    ContextConfig,
    ContextGenerator,
    batched_random_walk_with_restart,
    generate_episode_contexts_batched,
)
from repro.core.inf2vec import Inf2vecConfig, Inf2vecModel
from repro.core.negative import NegativeSampler
from repro.core.propagation import PropagationNetwork
from repro.data.actionlog import ActionLog, DiffusionEpisode
from repro.errors import TrainingError
from repro.utils.rng import ensure_rng
from tests.oracles import context_rows


@pytest.fixture
def chain_network() -> PropagationNetwork:
    """0 -> 1 -> 2 -> 3 propagation chain."""
    return PropagationNetwork(
        0,
        np.array([0, 1, 2, 3]),
        np.array([[0, 1], [1, 2], [2, 3]]),
    )


class TestContextConfig:
    def test_budget_split(self):
        config = ContextConfig(length=50, alpha=0.1)
        assert config.local_budget == 5
        assert config.global_budget == 45

    def test_alpha_extremes(self):
        assert ContextConfig(length=10, alpha=1.0).global_budget == 0
        assert ContextConfig(length=10, alpha=0.0).local_budget == 0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ContextConfig(length=0)
        with pytest.raises(ValueError):
            ContextConfig(alpha=1.5)
        with pytest.raises(ValueError):
            ContextConfig(restart_prob=-0.1)


def _walk(network, start, budget, restart_prob, rng):
    """One walker's visits, as a list."""
    (walk,) = batched_random_walk_with_restart(
        network, np.array([start]), budget, restart_prob, rng
    )
    return walk.tolist()


def _contexts_by_user(network, config, rng):
    """``{user: (local, global)}`` of one episode's contexts."""
    return {
        user: (local, global_)
        for user, local, global_ in context_rows(
            generate_episode_contexts_batched(network, config, rng)
        )
    }


class TestRandomWalk:
    """Per-walker semantics of the restarting walk."""

    def test_budget_respected(self, chain_network):
        rng = ensure_rng(0)
        visited = _walk(chain_network, 0, 7, 0.5, rng)
        assert len(visited) == 7

    def test_only_reachable_nodes_visited(self, chain_network):
        rng = ensure_rng(0)
        visited = _walk(chain_network, 1, 20, 0.5, rng)
        assert set(visited) <= {2, 3}

    def test_start_never_recorded(self, chain_network):
        rng = ensure_rng(0)
        visited = _walk(chain_network, 0, 30, 0.5, rng)
        assert 0 not in visited

    def test_sink_returns_empty(self, chain_network):
        rng = ensure_rng(0)
        assert _walk(chain_network, 3, 10, 0.5, rng) == []

    def test_zero_budget(self, chain_network):
        rng = ensure_rng(0)
        assert _walk(chain_network, 0, 0, 0.5, rng) == []

    def test_high_restart_stays_near_start(self, chain_network):
        rng = ensure_rng(7)
        visited = _walk(chain_network, 0, 200, 0.95, rng)
        # With near-certain restart, node 1 (first hop) dominates.
        assert visited.count(1) > visited.count(3)

    def test_no_restart_reaches_deep(self, chain_network):
        rng = ensure_rng(7)
        visited = _walk(chain_network, 0, 50, 0.0, rng)
        assert 3 in visited


class TestBatchedRandomWalk:
    def test_budget_and_reachability_per_walker(self, chain_network):
        rng = ensure_rng(0)
        walks = batched_random_walk_with_restart(
            chain_network, np.array([0, 1, 2, 3]), 6, 0.5, rng
        )
        assert len(walks) == 4
        assert walks[0].shape[0] == 6 and set(walks[0].tolist()) <= {1, 2, 3}
        assert walks[1].shape[0] == 6 and set(walks[1].tolist()) <= {2, 3}
        # 2's only successor is 3, so every visit is 3.
        assert walks[2].tolist() == [3] * 6
        # 3 is a sink: no successors at all means an empty walk.
        assert walks[3].shape[0] == 0

    def test_zero_budget(self, chain_network):
        walks = batched_random_walk_with_restart(
            chain_network, np.array([0, 2]), 0, 0.5, ensure_rng(0)
        )
        assert [w.shape[0] for w in walks] == [0, 0]

    def test_dead_end_restarts_without_recording(self):
        # 0 -> 1 and nothing else: the walk bounces 0 -> 1 (recorded),
        # dead-ends at 1, restarts home unrecorded, and repeats.  With
        # restart_prob 0 the only way home is the dead-end restart.
        net = PropagationNetwork(0, np.array([0, 1]), np.array([[0, 1]]))
        walks = batched_random_walk_with_restart(
            net, np.array([0]), 5, 0.0, ensure_rng(0)
        )
        assert walks[0].tolist() == [1] * 5

    def test_start_never_recorded(self, chain_network):
        walks = batched_random_walk_with_restart(
            chain_network, np.array([0]), 40, 0.5, ensure_rng(1)
        )
        assert 0 not in walks[0].tolist()

    def test_deterministic_under_seed(self, chain_network):
        starts = np.array([0, 1, 2])
        a = batched_random_walk_with_restart(
            chain_network, starts, 8, 0.5, ensure_rng(3)
        )
        b = batched_random_walk_with_restart(
            chain_network, starts, 8, 0.5, ensure_rng(3)
        )
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestGlobalContext:
    """The global slice, alone in the budget at alpha = 0."""

    def test_samples_exclude_self(self, chain_network):
        config = ContextConfig(length=50, alpha=0.0)
        contexts = _contexts_by_user(chain_network, config, ensure_rng(0))
        for user, (local, global_) in contexts.items():
            assert local == ()
            assert len(global_) == 50
            assert user not in global_
            assert set(global_) <= {0, 1, 2, 3} - {user}

    def test_single_adopter_empty(self):
        net = PropagationNetwork(0, np.array([4]), np.empty((0, 2), dtype=np.int64))
        config = ContextConfig(length=10, alpha=0.0)
        assert len(generate_episode_contexts_batched(net, config, ensure_rng(0))) == 0

    def test_zero_budget(self, chain_network):
        config = ContextConfig(length=10, alpha=1.0)
        contexts = _contexts_by_user(chain_network, config, ensure_rng(0))
        assert all(global_ == () for _, global_ in contexts.values())


class TestGenerateContext:
    def test_components_sized_by_alpha(self, chain_network):
        config = ContextConfig(length=20, alpha=0.5)
        local, global_ = _contexts_by_user(chain_network, config, ensure_rng(0))[0]
        assert len(local) == 10
        assert len(global_) == 10

    def test_sink_user_still_gets_global(self, chain_network):
        config = ContextConfig(length=10, alpha=0.5)
        local, global_ = _contexts_by_user(chain_network, config, ensure_rng(0))[3]
        assert local == ()
        assert len(global_) == 5

    def test_episode_contexts_cover_adopters(self, chain_network):
        config = ContextConfig(length=10, alpha=0.5)
        contexts = generate_episode_contexts_batched(
            chain_network, config, ensure_rng(0)
        )
        assert contexts.centres.tolist() == [0, 1, 2, 3]

    def test_singleton_episode_produces_nothing(self):
        net = PropagationNetwork(0, np.array([4]), np.empty((0, 2), dtype=np.int64))
        for alpha in (0.0, 0.5, 1.0):
            config = ContextConfig(length=10, alpha=alpha)
            assert len(generate_episode_contexts_batched(
                net, config, ensure_rng(0)
            )) == 0


class TestContextGenerator:
    def test_generates_for_all_episodes(self, tiny_graph, tiny_log):
        generator = ContextGenerator(
            tiny_graph, ContextConfig(length=6, alpha=0.5), seed=0
        )
        corpus = generator.generate(tiny_log)
        # Contexts follow the log episode by episode: with a global
        # budget, every adopter of each episode is a centre, in order.
        assert corpus.centres.tolist() == [
            int(user) for episode in tiny_log for user in episode.users
        ]

    def test_deterministic_under_seed(self, tiny_graph, tiny_log):
        config = ContextConfig(length=6, alpha=0.5)
        a = ContextGenerator(tiny_graph, config, seed=9).generate(tiny_log)
        b = ContextGenerator(tiny_graph, config, seed=9).generate(tiny_log)
        assert context_rows(a) == context_rows(b)

    def test_rejects_oversized_log(self, tiny_graph):
        log = ActionLog(
            [DiffusionEpisode(0, [(6, 1.0)])], num_users=7
        )
        generator = ContextGenerator(tiny_graph, seed=0)
        with pytest.raises(TrainingError, match="graph only"):
            generator.generate(log)

    def test_validates_by_max_id_not_universe_size(self, tiny_graph):
        # The log's declared universe is larger than the graph, but
        # every referenced user fits — that must be accepted; only an
        # out-of-range ID is an error.
        log = ActionLog(
            [DiffusionEpisode(0, [(1, 1.0), (3, 2.0)])], num_users=100
        )
        corpus = ContextGenerator(
            tiny_graph, ContextConfig(length=4, alpha=0.5), seed=0
        ).generate(log)
        assert set(corpus.centres.tolist()) == {1, 3}

    def test_context_sizes_follow_the_network(self, tiny_graph, tiny_log):
        # Context sizes are structural, so they can be predicted from
        # each episode's propagation network alone: the local slice is
        # empty iff the user has no successors, the global slice is
        # empty iff the user is the sole adopter, and an adopter with
        # neither gets no context at all.
        config = ContextConfig(length=6, alpha=0.5)
        corpus = ContextGenerator(tiny_graph, config, seed=3).generate(tiny_log)
        expected = []
        for episode in tiny_log:
            network = PropagationNetwork.from_episode(tiny_graph, episode)
            for user, degree in zip(
                network.nodes.tolist(), network.out_degrees().tolist()
            ):
                local = config.local_budget if degree else 0
                global_ = config.global_budget if network.num_nodes > 1 else 0
                if local or global_:
                    expected.append((user, local, global_))
        rows = context_rows(corpus)
        got = [(user, len(local), len(global_)) for user, local, global_ in rows]
        assert got == expected
        assert any(local == 0 for _, local, _ in expected)

        # The flat (user, member) stream train_epoch feeds the SGD
        # kernel is, for the epoch's permutation, a per-context loop.
        model = Inf2vecModel(Inf2vecConfig(dim=2, batch_size=3), seed=0)
        model.fit_contexts(corpus[:0], num_users=40)
        replay = np.random.default_rng(0)
        replay.bit_generator.state = model.rng.bit_generator.state
        order = replay.permutation(len(corpus)).tolist()
        fed = []
        model._update_batch = lambda users, members, sampler, lr: (
            fed.append((users.tolist(), members.tolist())) or 0.0
        )
        model.train_epoch(corpus)
        batches = [order[i : i + 3] for i in range(0, len(order), 3)]
        assert fed == [
            (
                [rows[i][0] for i in batch for _ in rows[i][1] + rows[i][2]],
                [v for i in batch for v in rows[i][1] + rows[i][2]],
            )
            for batch in batches
        ]

        # Unigram frequencies are a dense count of context members.
        counts = [0.0] * tiny_graph.num_nodes
        for _, local, global_ in rows:
            for v in local + global_:
                counts[v] += 1.0
        unigram = Inf2vecModel(Inf2vecConfig(negative_distribution="unigram"))
        np.testing.assert_array_equal(
            unigram._build_sampler(corpus, tiny_graph.num_nodes).probabilities(),
            NegativeSampler.from_frequencies(np.array(counts)).probabilities(),
        )

    def test_batched_deterministic_under_seed(self, tiny_graph, tiny_log):
        # The seed alone decides the draws: two generators on one seed
        # agree, and another seed moves the sampled members.
        config = ContextConfig(length=6, alpha=0.5)
        a = ContextGenerator(tiny_graph, config, seed=9).generate(tiny_log)
        b = ContextGenerator(tiny_graph, config, seed=9).generate(tiny_log)
        c = ContextGenerator(tiny_graph, config, seed=10).generate(tiny_log)
        assert context_rows(a) == context_rows(b)
        assert context_rows(a) != context_rows(c)


class TestBatchedEpisodeContexts:
    def test_matches_sequential_membership_constraints(self, chain_network):
        config = ContextConfig(length=10, alpha=0.5)
        contexts = generate_episode_contexts_batched(
            chain_network, config, ensure_rng(0)
        )
        rows = context_rows(contexts)
        assert {user for user, _, _ in rows} == {0, 1, 2, 3}
        for user, _, global_ in rows:
            # Global samples never include the center user.
            assert user not in global_
            assert len(global_) == 5

    def test_singleton_episode_produces_nothing(self):
        net = PropagationNetwork(
            0, np.array([4]), np.empty((0, 2), dtype=np.int64)
        )
        contexts = generate_episode_contexts_batched(
            net, ContextConfig(length=10), ensure_rng(0)
        )
        assert len(contexts) == 0

