"""The engine (`norms`, `dualnorm`) and the oracle (`reference`) stay
independent routes: their agreement is what the oracle tests prove, so
neither may import the other, not even inside a function body.  The oracle
also keeps its own scoring route: it may not use the engine's chain-sum
primitive, `trees.scaled_prefix_sums`."""

import ast
from pathlib import Path

import jamestree

ENGINE = {"norms", "dualnorm"}
ORACLE = {"reference"}
ENGINE_PRIMITIVES = {"scaled_prefix_sums"}
SOURCES = Path(jamestree.__file__).parent


def _imported_modules(path: Path) -> set[str]:
    """The `jamestree` submodules a source file imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:  # absolute: only `jamestree` and its submodules count
                if module.split(".")[0] != "jamestree":
                    continue
                module = module[len("jamestree.") :]
            names = [module] if module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name[len("jamestree.") :] for a in node.names if a.name.startswith("jamestree.")]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def test_the_import_parser_sees_relative_and_lazy_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .trees import Closure\nfrom . import lp\nimport jamestree.cli\n"
        "def f():\n    from .norms import norm\n    from jamestree.reference import naive_norm\n"
    )
    assert _imported_modules(source) == {"trees", "lp", "cli", "norms", "reference"}


def test_engine_and_oracle_do_not_import_each_other():
    modules = {path.stem: _imported_modules(path) for path in sorted(SOURCES.glob("*.py"))}
    assert ENGINE | ORACLE <= set(modules)
    for name in ENGINE:
        assert not modules[name] & ORACLE, (name, modules[name])
    for name in ORACLE:
        assert not modules[name] & ENGINE, (name, modules[name])


def _names_used(path: Path) -> set[str]:
    """Every name a source file imports from a module or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_the_name_parser_sees_imported_and_attribute_names(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .trees import Closure as C\nfrom . import trees\n"
        "def f(x):\n    from jamestree.trees import segment_sum\n    return trees.scaled_prefix_sums(x, C(x))\n"
    )
    assert _names_used(source) == {"Closure", "trees", "segment_sum", "scaled_prefix_sums"}


def test_oracle_does_not_use_the_engine_chain_sums():
    used = _names_used(SOURCES / "reference.py")
    assert not used & ENGINE_PRIMITIVES, used & ENGINE_PRIMITIVES
