"""Command-line interface: ``python -m repro.cli <experiment> [options]``.

Runs any of the paper's experiment pipelines and prints the
corresponding table/figure, e.g.::

    python -m repro.cli table2 --scale small --seed 0
    python -m repro.cli fig3
    python -m repro.cli all --scale small

``all`` runs every experiment in paper order — the one-command full
reproduction.  ``--telemetry-dir DIR`` turns on the ``repro.obs``
telemetry for the whole invocation: a
:class:`~repro.obs.export.PeriodicExporter` atomically writes
``manifest.json``, ``trace.jsonl`` and a Prometheus-text
``metrics.prom`` into ``DIR`` at start, every ``--export-every``
seconds, at the end, and on SIGTERM (the exporter's flush-on-exit
hook).

The ``train`` command runs one crash-safe Inf2vec training job with
checkpointing, and writes the trained embedding as a memory-mapped
store (:class:`repro.serve.EmbeddingStore`)::

    python -m repro.cli train --epochs 20 --checkpoint-dir run/ckpt \
        --checkpoint-every 5 --store-dir run/store

After an interruption (SIGKILL, OOM, power loss), re-running the same
command with ``--resume`` continues from the latest valid checkpoint to
the same final embeddings an uninterrupted run would have produced.

``--workers N`` trains N hogwild shards (:mod:`repro.parallel`): at
N > 1, N processes update one shared parameter block lock-free; the
default, 1, trains in process.  Each shard materialises its context
corpus once, as flat int32 arrays.  Checkpoints resume only at the
worker count that wrote them (see DESIGN.md §14 for the determinism
contract).

The ``serve`` command opens that store in the read-optimized influence
serving layer (:mod:`repro.serve`)::

    python -m repro serve --store-dir run/store --precompute-k 10
    python -m repro serve --store-dir run/store --query 42 --top-k 10

The first call persists an exact top-k index next to the store,
replacing any index left over from an earlier training run; the second
answers "who does user 42 influence most" from the store
(``--direction influencers`` asks the reverse question).
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import nullcontext
from typing import Callable, Mapping

from repro.ckpt import CheckpointManager
from repro.errors import ReproError
from repro.obs import PeriodicExporter, RunRecorder, active_run, recording
from repro.utils.logging import log_to_stderr
from repro.experiments import (
    fig1_2_powerlaw,
    fig3_cdf,
    fig6_visualization,
    fig7_dimension,
    fig8_context_length,
    fig9_efficiency,
    significance,
    table1_stats,
    table2_activation,
    table3_diffusion,
    table4_ablation,
    table5_aggregation,
    table6_casestudy,
)

#: Experiment name -> (description, main callable).
EXPERIMENTS: Mapping[str, tuple[str, Callable[[str, int], None]]] = {
    "table1": ("Table I — dataset statistics", table1_stats.main),
    "fig1-2": ("Figures 1-2 — power-law pair frequencies", fig1_2_powerlaw.main),
    "fig3": ("Figure 3 — active-friend CDF", fig3_cdf.main),
    "table2": ("Table II — activation prediction", table2_activation.main),
    "table3": ("Table III — diffusion prediction", table3_diffusion.main),
    "table4": ("Table IV — Inf2vec-L ablation", table4_ablation.main),
    "table5": ("Table V — aggregation functions", table5_aggregation.main),
    "fig6": ("Figure 6 — t-SNE visualisation", fig6_visualization.main),
    "fig7": ("Figure 7 — dimension sweep", fig7_dimension.main),
    "fig8": ("Figure 8 — context-length sweep", fig8_context_length.main),
    "fig9": ("Figure 9 — per-iteration efficiency", fig9_efficiency.main),
    "table6": ("Table VI — citation case study", table6_casestudy.main),
    "sigma": ("Multi-run mean ± σ + significance protocol", significance.main),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of Inf2vec (ICDE 2018).",
    )
    choices = list(EXPERIMENTS) + ["all", "train", "serve", "influence-max"]
    parser.add_argument(
        "experiment",
        choices=choices,
        help=(
            "which table/figure to regenerate ('all' runs everything; "
            "'train' runs one checkpointed training job; 'serve' indexes "
            "and queries the store it writes; 'influence-max' "
            "selects viral-marketing seeds with RIS sketches)"
        ),
    )
    parser.add_argument(
        "--scale",
        default="small",
        choices=("small", "medium"),
        help="working-point size (default: small)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master RNG seed (default: 0)"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        help="record telemetry and periodically export a Prometheus-text "
        "snapshot + manifest + trace into this directory while running",
    )
    parser.add_argument(
        "--export-every",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="exposition rewrite cadence for --telemetry-dir (default: 5)",
    )
    parser.add_argument(
        "--store-dir",
        metavar="DIR",
        help="embedding store directory: train writes the trained "
        "embedding here, serve opens it",
    )

    training = parser.add_argument_group(
        "training options (train command only)"
    )
    training.add_argument(
        "--epochs", type=int, default=10, help="training epochs (default: 10)"
    )
    training.add_argument(
        "--dim", type=int, default=16, help="embedding dimension (default: 16)"
    )
    training.add_argument(
        "--num-users",
        type=int,
        default=200,
        help="synthetic dataset size (default: 200; ignored with --dataset)",
    )
    training.add_argument(
        "--num-items",
        type=int,
        default=40,
        help="synthetic item count (default: 40; ignored with --dataset)",
    )
    training.add_argument(
        "--dataset",
        nargs=2,
        metavar=("EDGES", "ACTIONS"),
        help="train on a 'source target' edge list and a 'user item "
        "timestamp' action log instead of a synthetic dataset",
    )
    training.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="checkpoint training state into this directory",
    )
    training.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint cadence in epochs (default: 1)",
    )
    training.add_argument(
        "--checkpoint-keep",
        type=int,
        default=3,
        metavar="K",
        help="retain the K newest checkpoints (default: 3)",
    )
    training.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest valid checkpoint in --checkpoint-dir",
    )
    training.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="train with N hogwild worker processes over shared-memory "
        "parameters (default: 1, in process and bitwise-deterministic)",
    )

    influence = parser.add_argument_group(
        "influence-maximisation options (influence-max command only)"
    )
    influence.add_argument(
        "--preset",
        choices=("digg", "flickr"),
        default="digg",
        help="synthetic dataset profile (default: digg); sized by "
        "--num-users/--num-items, probabilities are the planted "
        "ground truth",
    )
    influence.add_argument(
        "--num-seeds",
        type=int,
        default=10,
        metavar="K",
        help="seed-set size to select (default: 10)",
    )
    influence.add_argument(
        "--epsilon",
        type=float,
        default=None,
        metavar="EPS",
        help="IMM approximation slack for RIS "
        "(default: library default)",
    )
    influence.add_argument(
        "--max-sketches",
        type=int,
        default=None,
        metavar="N",
        help="hard cap on the RIS sketch pool (default: library default)",
    )
    influence.add_argument(
        "--eval-runs",
        type=int,
        default=500,
        metavar="N",
        help="Monte-Carlo simulations for the final spread evaluation of "
        "the chosen seeds; 0 skips it (default: 500)",
    )

    serving = parser.add_argument_group("serving options (serve command only)")
    serving.add_argument(
        "--precompute-k",
        type=int,
        metavar="K",
        help="precompute and persist an exact top-K index for --direction, "
        "and rebuild every other index persisted in --store-dir",
    )
    serving.add_argument(
        "--query",
        type=int,
        action="append",
        metavar="USER",
        help="user id to query (repeatable)",
    )
    serving.add_argument(
        "--top-k",
        type=int,
        default=10,
        metavar="K",
        help="results per query (default: 10)",
    )
    serving.add_argument(
        "--direction",
        choices=("influenced", "influencers"),
        default="influenced",
        help="rank who a user influences, or who influences them "
        "(default: influenced)",
    )
    serving.add_argument(
        "--block-size",
        type=int,
        default=None,
        metavar="ROWS",
        help="block size of the live-scan path; blocks hold as many "
        "score cells as ROWS database rows hold floats",
    )
    return parser


def _run_training(args: argparse.Namespace) -> int:
    """The ``train`` command: one checkpointed training job."""
    from repro.core.inf2vec import Inf2vecConfig
    from repro.data.loaders import load_dataset
    from repro.data.synthetic import SyntheticSocialDataset
    from repro.parallel import HogwildTrainer
    from repro.serve import EmbeddingStore

    if args.dataset:
        graph, log, _index = load_dataset(*args.dataset)
    else:
        dataset = SyntheticSocialDataset.digg_like(
            num_users=args.num_users, num_items=args.num_items, seed=args.seed
        )
        graph, log = dataset.graph, dataset.log
    manager = None
    if args.checkpoint_dir:
        manager = CheckpointManager(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            keep=args.checkpoint_keep,
        )
    trainer = HogwildTrainer(
        Inf2vecConfig(dim=args.dim, epochs=args.epochs),
        workers=1 if args.workers is None else args.workers,
        seed=args.seed,
    )
    model = trainer.fit(graph, log, checkpoint=manager, resume=args.resume)
    if args.resume:
        if model.resumed_epoch is None:
            print(
                f"no usable checkpoint in {args.checkpoint_dir}; starting fresh"
            )
        else:
            print(f"resuming from checkpoint at epoch {model.resumed_epoch}")
    losses = model.loss_history
    if losses:
        workers_note = (
            f" with {args.workers} workers" if args.workers is not None else ""
        )
        print(
            f"trained dim={args.dim} over {len(losses)} epochs "
            f"on {graph.num_nodes} users{workers_note}; "
            f"final loss {losses[-1]:.6f}"
        )
    else:
        print("trained (no epochs ran)")
    if args.store_dir:
        store = EmbeddingStore.save(model.embedding, args.store_dir)
        print(
            f"embedding store written to {args.store_dir}: "
            f"{store.num_users} users, dim {store.dim}"
        )
    return 0


def _run_serving(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """The ``serve`` command: index and query a trained store."""
    from repro.serve import (
        DEFAULT_BLOCK_SIZE,
        INDEX_DIRECTIONS,
        EmbeddingStore,
        InfluenceService,
        TopKIndex,
    )

    if not args.store_dir:
        parser.error("serve requires --store-dir")
    block_size = args.block_size or DEFAULT_BLOCK_SIZE
    if args.precompute_k:
        # An index persisted beside an earlier store describes that
        # store; open the store alone so precompute can replace it, and
        # rebuild every other persisted direction too, so the directory
        # never keeps a stale index.
        service = InfluenceService(
            EmbeddingStore.open(args.store_dir), block_size=block_size
        )
        directions = [args.direction] + [
            direction
            for direction in INDEX_DIRECTIONS
            if direction != args.direction
            and TopKIndex.exists(args.store_dir, direction)
        ]
        service.precompute(args.precompute_k, directions=directions)
        for direction in directions:
            print(
                f"precomputed top-{args.precompute_k} {direction} index "
                f"for {service.num_users} users"
            )
    else:
        service = InfluenceService.open(args.store_dir, block_size=block_size)
    verb = "influenced by" if args.direction == "influenced" else "influencing"
    for user in args.query or []:
        result = (
            service.top_influenced(user, args.top_k)
            if args.direction == "influenced"
            else service.top_influencers(user, args.top_k)
        )
        print(f"top {result.k} users {verb} user {user}:")
        for rank, (other, score) in enumerate(
            zip(result.indices, result.scores), start=1
        ):
            print(f"  {rank:>3}. user {int(other):<8} x = {float(score):+.6f}")
    if not args.precompute_k and not args.query:
        print(
            f"opened store at {args.store_dir}: {service.num_users} users, "
            f"dim {service.store.dim}, indices {sorted(service.indices) or 'none'}"
        )
    return 0


def _check_influence_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Reject ``influence-max`` numbers the selector or evaluator would."""
    if args.num_seeds < 1:
        parser.error(f"--num-seeds must be at least 1, got {args.num_seeds}")
    if args.num_seeds > args.num_users:
        parser.error(
            f"--num-seeds {args.num_seeds} exceeds --num-users {args.num_users}"
        )
    if args.epsilon is not None and not 0.0 < args.epsilon < 1.0:
        parser.error(f"--epsilon must lie in (0, 1), got {args.epsilon}")
    if args.max_sketches is not None and args.max_sketches < 1:
        parser.error(
            f"--max-sketches must be at least 1, got {args.max_sketches}"
        )
    if args.eval_runs < 0:
        parser.error(f"--eval-runs must be 0 or more, got {args.eval_runs}")


def _run_influence_max(args: argparse.Namespace) -> int:
    """The ``influence-max`` command: select and evaluate viral seeds."""
    import time

    from repro.apps.influence_max import ris_influence_maximization
    from repro.data.synthetic import SyntheticSocialDataset
    from repro.diffusion.montecarlo import spread_with_standard_error

    maker = (
        SyntheticSocialDataset.digg_like
        if args.preset == "digg"
        else SyntheticSocialDataset.flickr_like
    )
    dataset = maker(
        num_users=args.num_users, num_items=args.num_items, seed=args.seed
    )
    probabilities = dataset.planted.edge_probabilities
    print(
        f"{args.preset} preset: {dataset.graph.num_nodes} users, "
        f"{dataset.graph.num_edges} edges, planted probabilities"
    )

    sketch_kwargs: dict[str, object] = {}
    if args.epsilon is not None:
        sketch_kwargs["epsilon"] = args.epsilon
    if args.max_sketches is not None:
        sketch_kwargs["max_sketches"] = args.max_sketches

    start = time.perf_counter()
    selection = ris_influence_maximization(
        probabilities, args.num_seeds, seed=args.seed, **sketch_kwargs
    )
    elapsed = time.perf_counter() - start

    print(
        f"ris selected {len(selection.seeds)} seeds "
        f"in {elapsed:.3f}s (internal estimate "
        f"{selection.expected_spread:.2f})"
    )
    print("  seeds: " + " ".join(str(s) for s in selection.seeds))
    if args.eval_runs:
        spread, stderr = spread_with_standard_error(
            probabilities,
            selection.seeds,
            num_runs=args.eval_runs,
            seed=args.seed + 1,
        )
        print(
            f"  MC-evaluated spread over {args.eval_runs} runs: "
            f"{spread:.2f} +/- {stderr:.2f}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The library's warnings (a skipped or retired checkpoint, a failed
    telemetry export) print to stderr.  A :class:`~repro.errors.ReproError`
    (an out-of-range query user, a missing store) prints as one line,
    ``repro: error: <message>``, and exits with status 2, the status of
    a usage error.
    """
    with log_to_stderr(logging.WARNING):
        try:
            return _main(argv)
        except ReproError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, (description, _main) in EXPERIMENTS.items():
            print(f"{name:<10} {description}")
        return 0

    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.experiment == "influence-max":
        _check_influence_args(args, parser)

    if args.experiment == "all":
        names = list(EXPERIMENTS)
    else:
        names = [args.experiment]

    run = None
    if args.telemetry_dir is not None:
        run = RunRecorder(name=args.experiment)
        run.annotate(scale=args.scale, seed=args.seed)

    exporter: PeriodicExporter | None = None
    try:
        with recording(run) if run is not None else nullcontext():
            if run is not None:
                exporter = PeriodicExporter(
                    run, args.telemetry_dir, every=args.export_every
                )
                exporter.start()
            if args.experiment == "train":
                exit_code = _run_training(args)
            elif args.experiment == "serve":
                exit_code = _run_serving(args, parser)
            elif args.experiment == "influence-max":
                exit_code = _run_influence_max(args)
            else:
                exit_code = 0
                for name in names:
                    description, runner = EXPERIMENTS[name]
                    print(
                        f"=== {description} "
                        f"(scale={args.scale}, seed={args.seed}) ==="
                    )
                    with active_run().span(
                        f"experiment.{name}", scale=args.scale
                    ):
                        runner(args.scale, args.seed)
                    print()
    finally:
        if exporter is not None:
            exporter.stop()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
