"""API-surface tests: every public export exists and is documented."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.apps",
    "repro.baselines",
    "repro.ckpt",
    "repro.core",
    "repro.data",
    "repro.diffusion",
    "repro.eval",
    "repro.experiments",
    "repro.obs",
    "repro.parallel",
    "repro.serve",
    "repro.sketch",
    "repro.utils",
    "repro.viz",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings_present(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_objects_documented(module_name):
    """Every exported class and function carries a docstring."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"


def test_public_classes_have_documented_methods():
    """Public methods of the flagship classes carry docstrings."""
    from repro import Inf2vecModel, InfluenceEmbedding, SocialGraph
    from repro.data import ActionLog

    for cls in (Inf2vecModel, InfluenceEmbedding, SocialGraph, ActionLog):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) or isinstance(member, property):
                target = member.fget if isinstance(member, property) else member
                assert target.__doc__, f"{cls.__name__}.{name} lacks a docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_ckpt_public_api_is_pinned():
    """The checkpoint subsystem's surface is a compatibility contract."""
    import repro.ckpt

    assert set(repro.ckpt.__all__) == {
        "atomic_output",
        "atomic_write_bytes",
        "atomic_write_text",
            "CHECKPOINT_VERSION",
        "TrainingState",
        "CheckpointManager",
        "CheckpointError",
    }


def test_analysis_public_api_is_pinned():
    """The static-analysis framework's surface is a compatibility contract."""
    import repro.analysis

    assert set(repro.analysis.__all__) == {
        "ALL_RULES",
        "AstRule",
        "Finding",
        "ModuleInfo",
        "PARSE_ERROR_RULE",
        "ParsedFile",
        "ProjectGraph",
        "REFERENCE_ROOTS",
        "Rule",
        "analyze_project",
        "build_project_graph",
        "build_project_graph_from_sources",
        "default_rules",
        "get_rule",
        "iter_python_files",
        "main",
        "parse_source",
        "run_rules",
    }


def test_parallel_public_api_is_pinned():
    """The hogwild training subsystem's surface is a compatibility contract."""
    import repro.parallel

    assert set(repro.parallel.__all__) == {
        "HogwildTrainer",
        "PARAMETER_FIELDS",
        "SharedEmbedding",
        "SharedEmbeddingSpec",
        "shard_episodes",
    }


def test_serve_public_api_is_pinned():
    """The serving layer's surface is a compatibility contract."""
    import repro.serve

    assert set(repro.serve.__all__) == {
        "DEFAULT_BLOCK_SIZE",
        "EmbeddingLike",
        "EmbeddingStore",
        "INDEX_DIRECTIONS",
        "InfluenceService",
        "STORE_FORMAT_VERSION",
        "STORE_MANIFEST_FILENAME",
        "TopKEngine",
        "TopKIndex",
        "TopKResult",
        "aggregated_scores",
        "augment_sources",
        "augment_targets",
        "iter_source_rows",
        "score_block",
    }


def test_pinned_api_rule_covers_the_public_modules():
    """The pinned-api rule and this file's module list agree.

    Every PUBLIC_MODULES package maps to an ``__init__.py`` under
    ``src/repro`` that the rule requires to declare ``__all__`` — so a
    package added here without a declared surface fails the analysis
    guard, and vice versa.
    """
    import pathlib

    src_root = pathlib.Path(__file__).resolve().parents[1] / "src"
    for module_name in PUBLIC_MODULES:
        init = src_root.joinpath(*module_name.split(".")) / "__init__.py"
        assert init.is_file(), f"{module_name} is not a package under src/"


def test_ckpt_types_reexported_from_top_level():
    import repro

    for name in ("CheckpointManager", "TrainingState", "CheckpointError"):
        assert name in repro.__all__
        assert hasattr(repro, name)
