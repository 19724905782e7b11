"""Repository-wide quality gates: docs, API hygiene and dead helpers."""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

#: calls that can write a file: a bench path handed to one of them (as an
#: argument, or as the receiver of ``.write_text``) bypasses the recorder
_WRITERS = frozenset({"write_atomic", "save_artifact", "write_segment",
                      "dump", "write_text", "write_bytes", "open",
                      "replace", "rename"})

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


def _names_bench_file(node) -> bool:
    return any(
        (isinstance(inner, ast.Name) and inner.id == "BENCH_PATH")
        or (isinstance(inner, ast.Constant) and isinstance(inner.value, str)
            and "BENCH_perf" in inner.value)
        for inner in ast.walk(node))


def _bench_file_writes(source: str):
    """Line numbers where ``source`` hands the bench file to a writer."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", "")
        if name not in _WRITERS:
            continue
        operands = list(node.args) + [kw.value for kw in node.keywords]
        if isinstance(func, ast.Attribute):
            operands.append(func.value)
        if name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant)
                    and set(str(mode.value)) & set("wax+")):
                continue
        if any(_names_bench_file(operand) for operand in operands):
            lines.add(node.lineno)
    return sorted(lines)


class TestBenchRecorder:
    def test_only_record_bench_writes_the_bench_file(self):
        """``BENCH_perf.json`` has one writer, ``record_bench``: no file in
        ``src/`` or ``benchmarks/`` hands it to another writer."""
        offenders = [
            f"{path.relative_to(ROOT)}:{line}"
            for folder in ("src", "benchmarks")
            for path in sorted((ROOT / folder).rglob("*.py"))
            for line in _bench_file_writes(path.read_text(encoding="utf-8"))]
        assert not offenders, offenders

    def test_the_scan_catches_each_way_round_the_recorder(self):
        source = "\n".join([
            'write_atomic(BENCH_PATH, "{}")',
            'BENCH_PATH.write_text("{}")',
            'json.dump(bench, open("BENCH_perf.json", "w"))',
            'record_bench(BENCH_PATH, "scan", entry)',
            'json.loads(BENCH_PATH.read_text())',
            'open(BENCH_PATH).read()',
            'open(BENCH_PATH, mode="a").write("{}")',
        ])
        assert _bench_file_writes(source) == [1, 2, 3, 7]


def _unreferenced_private_defs(sources):
    """``path:line name`` of each private function, class or method that
    ``sources`` (``(path, source)`` pairs) define but never reference.

    A reference is a ``Name``, an ``Attribute``, an import alias or a
    string that is an identifier (a handler table of method names, a
    ``getattr``); dunder names are not private helpers."""
    defined = {}
    referenced = set()
    for where, source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.setdefault(name, f"{where}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                referenced.add(node.value)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced)


class TestPrivateHelpers:
    def test_no_private_helper_is_test_only(self):
        """Every private helper in ``src/repro`` has a caller there: one
        that only tests call is a reference implementation, and belongs
        next to those tests."""
        src = Path(repro.__file__).parent
        sources = [(str(path.relative_to(src)),
                    path.read_text(encoding="utf-8"))
                   for path in sorted(src.rglob("*.py"))]
        assert not _unreferenced_private_defs(sources)

    def test_the_scan_catches_an_unreferenced_helper(self):
        source = "\n".join([
            "def _used(): pass",
            "def _orphan(): pass",
            "class _Kept:",
            "    def _method(self): pass",
            "    def _dispatched(self): pass",
            "    def __init__(self): pass",
            "TABLE = {'x': '_dispatched'}",
            "_used(); _Kept()._method()",
        ])
        other = "from mod import _Imported as alias"
        assert _unreferenced_private_defs(
            [("mod.py", source + "\nclass _Imported: pass"),
             ("user.py", other)]) == ["mod.py:2 _orphan"]


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
