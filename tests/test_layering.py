"""Package layering: modules share only public names, the three engines
(closed forms, outage-region oracle, Monte Carlo) share only ``core``, and
every name the benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zicarq"


def _imports(path: Path):
    """(line, imported module, names) for every import in a module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield node.lineno, module, [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, []


def _internal(module: str) -> bool:
    return module.startswith(".") or module.split(".")[0] == "zicarq"


def _private_imports(path: Path):
    for lineno, module, names in _imports(path):
        if _internal(module):
            for name in names:
                if name.startswith("_"):
                    yield f"{path.name}:{lineno} imports {name}"


def _imports_of(path: Path, name: str):
    """Every import in a module that reaches the package module ``name``."""
    for lineno, module, names in _imports(path):
        target = module.lstrip(".").removeprefix("zicarq").lstrip(".")
        if _internal(module) and (target.split(".")[0] == name
                                  or (target == "" and name in names)):
            yield f"{path.name}:{lineno} imports from {name}"


def test_no_private_cross_module_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, found


def test_regions_independent_of_analytic(tmp_path):
    assert not list(_imports_of(PACKAGE / "regions.py", "analytic"))
    # the guard catches every spelling of the forbidden import
    for line in ("from .analytic import d1_hk", "from . import analytic",
                 "from zicarq.analytic import d1_hk", "import zicarq.analytic",
                 "from zicarq import core, analytic",
                 "def f():\n    from .analytic import d1_hk"):
        probe = tmp_path / "probe.py"
        probe.write_text(line + "\n", encoding="utf-8")
        assert list(_imports_of(probe, "analytic")), line


def test_analytic_independent_of_regions():
    found = list(_imports_of(PACKAGE / "analytic.py", "regions"))
    assert not found, found


def _names_from(path: Path, name: str):
    """What a module takes from the package module ``name``: the imported
    names, or ``name`` itself where the whole module is imported."""
    for _, module, names in _imports(path):
        target = module.lstrip(".").removeprefix("zicarq").lstrip(".")
        if not _internal(module):
            continue
        if target.split(".")[0] == name:
            yield from names or [name]
        elif target == "" and name in names:
            yield name


def test_cli_takes_only_rate_floor_from_regions(tmp_path):
    # every curve row comes from the closed forms and the rate floor from
    # core; the oracle is verify's
    assert not list(_names_from(PACKAGE / "cli.py", "regions"))
    for line in ("from .regions import RATE_FLOOR",
                 "from .regions import RATE_FLOOR, oracle_d1_hk",
                 "from . import regions", "import zicarq.regions",
                 "def f():\n    from zicarq.regions import oracle_d1_hk"):
        probe = tmp_path / "probe.py"
        probe.write_text(line + "\n", encoding="utf-8")
        assert list(_names_from(probe, "regions")), line


def _oracle_surface(name: str) -> bool:
    return name == "RATE_FLOOR" or name.startswith("oracle_") \
        or name in ("region_rx2_hk", "region_rx1_cmo", "region_coop")


def test_verify_takes_only_oracle_surface_from_regions(tmp_path):
    # verify samples and pairs; every oracle value is assembled in regions
    found = [n for n in _names_from(PACKAGE / "verify.py", "regions")
             if not _oracle_surface(n)]
    assert not found, found
    for line in ("from .regions import oracle_d1_hk, region_o11_hk",
                 "from .regions import region_o12_hk", "from . import regions",
                 "import zicarq.regions",
                 "def f():\n    from zicarq.regions import _min_rx1"):
        probe = tmp_path / "probe.py"
        probe.write_text(line + "\n", encoding="utf-8")
        assert not all(map(_oracle_surface, _names_from(probe, "regions"))), line


def _random_uses(path: Path):
    """Every name, attribute or import in a module that reaches a random
    number generator."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        words = (getattr(node, key, None) or "" for key in ("id", "attr", "name", "module"))
        if {"random", "default_rng"} & {w for word in words for w in word.split(".")}:
            yield f"{path.name}:{node.lineno}"


def test_regions_draws_no_random_numbers(tmp_path):
    # the oracle is exact and deterministic: it samples nothing
    found = list(_random_uses(PACKAGE / "regions.py"))
    assert not found, found
    for line in ("rng = np.random.default_rng(3)", "import random",
                 "from numpy.random import Generator", "def f():\n    return default_rng(3)"):
        probe = tmp_path / "probe.py"
        probe.write_text(line + "\n", encoding="utf-8")
        assert list(_random_uses(probe)), line


ENGINES = ("analytic", "regions", "simulator")


def test_engines_import_no_other_engine():
    found = [hit for engine in ENGINES for other in ENGINES if other != engine
             for hit in _imports_of(PACKAGE / f"{engine}.py", other)]
    assert not found, found


def test_bench_tracer_targets_exist():
    # the benchmark's tracer wraps these names; a rename would make it
    # report them missing, which only its slow subprocess smoke test sees
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, *_ in tracing.TARGETS]
    names += [(module, attr) for module, attr, _ in tracing.MODULE_BINDINGS]
    assert names
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, missing
