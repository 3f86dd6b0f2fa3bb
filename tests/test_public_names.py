"""Every public name of the package has a caller outside the tests.

An AST scan lists the public top-level functions and classes of
``src/fiberwatch/*.py`` that nothing in ``src/`` or ``perfbench/`` (its
tests aside) refers to: by name, by attribute, by import or by a
``"module.name"`` string, as perfbench's span labels are.  A public function
whose only caller is a test moves into ``tests/`` as that test's oracle, or
is deleted.  The names below wait for the callers that ROADMAP items 2 and 3
give them; the list may only shrink.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AWAITING_CALLERS = {"ensemble.vote_two_of_three", "tracker.calibrate_budget"}


def public_definitions():
    for path in sorted((ROOT / "src" / "fiberwatch").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def references():
    """Identifiers and string constants of the package and the benchmark."""
    names, strings = set(), set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        if "tests" in path.relative_to(ROOT).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return names, strings


def test_only_listed_public_names_lack_a_caller():
    names, strings = references()
    unreferenced = {f"{module}.{name}" for module, name in public_definitions()
                    if name not in names
                    and not any(s.startswith(f"{module}.{name}") for s in strings)}
    # A new name here needs a caller; a listed name that gained one leaves the list.
    assert unreferenced == AWAITING_CALLERS
