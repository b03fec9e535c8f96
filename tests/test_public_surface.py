"""Every public name has a caller in the library.

A name in gqbm.__all__ must be used in code (as a name or an attribute, not
in a docstring) by a module of the package other than the one that defines
it; the CLI and the pipelines count, the re-export in __init__ does not.  A
class is reached too when a reached function of the package names it in its
return annotation.  A public name that only the tests reach sits in KEEP,
with the reason it stays public; a kept name that gains a caller leaves it.
"""

import ast
from pathlib import Path

import pytest

import gqbm

PACKAGE = Path(gqbm.__file__).resolve().parent

KEEP = {
    "eval_spectral_density": "the one public reading of J_V, J_W and J_VW",
    "evolve_hpz_covariances": "the HPZ covariance march, which the "
                              "renormalized-Hamiltonian work generalises",
    "exact_moments": "acceptance criterion 7 reads the thermal state's "
                     "dense product table through it",
}


def _home(name: str) -> str:
    if name == "__version__":
        return "__init__"
    return getattr(gqbm, name).__module__.rpartition(".")[2]


def _reached() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text())
             for path in PACKAGE.glob("*.py") if path.stem != "__init__"}
    used = {module: {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute))}
            for module, tree in trees.items()}
    reached = {name for name in gqbm.__all__
               if any(name in names for module, names in used.items()
                      if module != _home(name))}
    for tree in trees.values():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef) and node.name in reached
                    and node.returns is not None):
                reached |= {leaf.id for leaf in ast.walk(node.returns)
                            if isinstance(leaf, ast.Name)}
    return reached


def test_every_public_name_has_a_library_caller():
    reached = _reached()
    orphans = [name for name in gqbm.__all__
               if name not in reached and name not in KEEP]
    assert orphans == []


def test_kept_names_are_public_and_have_no_library_caller():
    reached = _reached()
    for name, reason in KEEP.items():
        assert reason
        assert name in gqbm.__all__, name
        assert name not in reached, name


def test_one_public_failure_class_per_exit_code():
    classes = [obj for obj in vars(gqbm.errors).values()
               if isinstance(obj, type) and issubclass(obj, gqbm.GqbmError)
               and obj is not gqbm.GqbmError]
    assert all(cls.__name__ in gqbm.__all__ for cls in classes)
    assert sorted(cls.exit_code for cls in classes) == [2, 3, 4]


@pytest.mark.parametrize("name", ["ContractViolationError", "SingularityError",
                                  "QuadratureConvergenceError"])
def test_folded_failure_classes_are_gone(name):
    # each folded into the one class of its exit code
    assert name not in gqbm.__all__
    assert not hasattr(gqbm, name)
    assert not hasattr(gqbm.errors, name)
