"""Repository-wide quality gates: docs and API hygiene."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.util", "repro.core", "repro.dnssim", "repro.smtpsim",
    "repro.infra", "repro.pipeline", "repro.spamfilter", "repro.workloads",
    "repro.ecosystem", "repro.extrapolate", "repro.honey", "repro.analysis",
    "repro.defenses", "repro.experiment",
]


def _all_modules():
    modules = []
    for name in PACKAGES:
        package = importlib.import_module(name)
        modules.append(package)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                modules.append(importlib.import_module(
                    f"{name}.{info.name}"))
    return {m.__name__: m for m in modules}.values()


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        for module in _all_modules():
            assert module.__doc__, f"{module.__name__} lacks a docstring"
            assert len(module.__doc__.strip()) > 20, module.__name__

    def test_every_public_item_documented(self):
        undocumented = []
        for name in PACKAGES:
            package = importlib.import_module(name)
            for symbol in getattr(package, "__all__", []):
                item = getattr(package, symbol)
                if inspect.isclass(item) or inspect.isfunction(item):
                    if not (item.__doc__ and item.__doc__.strip()):
                        undocumented.append(f"{name}.{symbol}")
        assert not undocumented, undocumented

    def test_public_classes_document_public_methods(self):
        missing = []
        for name in PACKAGES:
            package = importlib.import_module(name)
            for symbol in getattr(package, "__all__", []):
                item = getattr(package, symbol)
                if not inspect.isclass(item):
                    continue
                for method_name, method in inspect.getmembers(
                        item, inspect.isfunction):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != item.__name__:
                        continue  # inherited
                    if not (method.__doc__ and method.__doc__.strip()):
                        missing.append(f"{name}.{symbol}.{method_name}")
        # dataclass helpers and tiny accessors are allowed to be terse,
        # but the bulk of the public surface must be documented
        assert len(missing) < 40, sorted(missing)


class TestApiHygiene:
    def test_all_exports_resolve(self):
        for name in PACKAGES:
            package = importlib.import_module(name)
            for symbol in getattr(package, "__all__", []):
                assert hasattr(package, symbol), f"{name}.{symbol}"

    def test_version_exposed(self):
        assert repro.__version__

    def test_only_the_artifact_module_writes_durably(self):
        """Temp files, fsync and canonical JSON live in util/artifact.py;
        a format that needs them goes through that module."""
        src = Path(repro.__file__).parent
        patterns = ("os.fsync", "tempfile.mkstemp", 'separators=(",", ":")')
        offenders = [
            f"{path.relative_to(src)}: {pattern}"
            for path in sorted(src.rglob("*.py"))
            if path != src / "util" / "artifact.py"
            for pattern in patterns
            if pattern in path.read_text(encoding="utf-8")]
        assert not offenders, offenders


class TestExamplesCompile:
    def test_all_examples_compile(self):
        examples = sorted(
            (Path(__file__).parent.parent / "examples").glob("*.py"))
        assert len(examples) >= 6
        for path in examples:
            compile(path.read_text(), str(path), "exec")

    def test_fast_examples_run(self):
        root = Path(__file__).parent.parent
        for script in ("spam_funnel_demo.py", "username_squatting.py"):
            completed = subprocess.run(
                [sys.executable, str(root / "examples" / script)],
                capture_output=True, text=True, timeout=300)
            assert completed.returncode == 0, completed.stderr
            assert completed.stdout.strip()
