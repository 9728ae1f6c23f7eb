"""The documented public API is importable and consistent."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.analysis",
    "repro.core",
    "repro.datasets",
    "repro.design",
    "repro.distill",
    "repro.forest",
    "repro.hardware",
    "repro.matmul",
    "repro.metrics",
    "repro.nn",
    "repro.pruning",
    "repro.quickscorer",
    "repro.runtime",
    "repro.timing",
    "repro.utils",
]


class TestPublicApi:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_every_module_imports(self):
        # compileall misses an import of a module that no longer exists.
        names = [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        assert len(names) > 100
        for name in names:
            importlib.import_module(name)

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_public_items_documented(self):
        # Every public class/function re-exported at the top level carries
        # a docstring.
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"{name} lacks a docstring"

    def test_exceptions_hierarchy(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError:
                    assert issubclass(obj, exceptions.ReproError) or obj in (
                        Exception,
                    ), name

    def test_config_and_parallel_surface_pinned(self):
        # The PR-4 API additions stay importable from both repro and
        # repro.runtime; removing any of these is a breaking change.
        for name in (
            "AsyncConfig",
            "AsyncScoringService",
            "ParallelConfig",
            "ResilienceConfig",
            "ScoreCache",
            "ServiceConfig",
            "ShardedScorer",
            "TenantConfig",
        ):
            assert name in repro.__all__, f"repro.__all__ dropped {name}"
            assert hasattr(repro, name)

    def test_runtime_all_pinned(self):
        import repro.runtime as runtime

        expected = {
            "BatchEngine",
            "FallbackChain",
            "ParallelConfig",
            "ParallelError",
            "PoolClosedError",
            "ResilienceConfig",
            "ScoreCache",
            "Scorer",
            "ServiceConfig",
            "ShardPlan",
            "ShardedScorer",
            "StubScorer",
            "make_scorer",
            "plan_shards",
            "price",
            "scorer_fingerprint",
        }
        missing = expected - set(runtime.__all__)
        assert not missing, f"repro.runtime.__all__ missing {sorted(missing)}"
        assert runtime.__all__ == sorted(runtime.__all__), (
            "repro.runtime.__all__ must stay sorted"
        )

    def test_serving_all_pinned(self):
        import repro.serving as serving

        assert set(serving.__all__) == {
            "AdmissionController",
            "AsyncConfig",
            "AsyncScoringService",
            "BudgetExceededError",
            "LifecycleConfig",
            "LifecycleManager",
            "LoadReport",
            "LoadSpec",
            "ModelRegistry",
            "ModelVersion",
            "RequestShedError",
            "ScoringService",
            "ServiceConfig",
            "ServiceStats",
            "TenantConfig",
            "TenantState",
            "TokenBucket",
            "build_schedule",
            "make_queries",
            "run_load",
            "run_load_async",
        }
        assert serving.__all__ == sorted(serving.__all__), (
            "repro.serving.__all__ must stay sorted"
        )
        for name in serving.__all__:
            assert hasattr(serving, name), f"repro.serving lacks {name}"

    def test_configs_use_the_one_codec(self):
        # A config that spells out its own to_dict/from_dict brings back
        # a hand-kept key list; every config goes through ConfigCodec.
        import repro.runtime as runtime
        from repro.serving import LoadSpec
        from repro.utils.codec import ConfigCodec

        configs = [
            getattr(runtime, name)
            for name in runtime.__all__
            if name.endswith("Config")
        ]
        configs += [runtime.RetryPolicy, LoadSpec]
        assert len(configs) >= 11
        for cls in configs:
            assert issubclass(cls, ConfigCodec), cls.__name__
            own = {"to_dict", "from_dict"} & set(vars(cls))
            assert not own, f"{cls.__name__} defines its own {sorted(own)}"

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats costs ~50 MB of RSS; only the analysis helpers use
        # it, and they import it when called.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = "import sys, repro; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"
