"""Every function and class that the library defines is used somewhere in
the library: a definition that only the tests reach is either deleted or
named in `UNUSED`, and that set may only shrink."""

import ast
from pathlib import Path

import chowops

SRC = Path(chowops.__file__).resolve().parent

# defined in `src/chowops` and used nowhere there: names that only the
# tests call, and names that only the benchmark's tracer patches
UNUSED = {
    "assignment", "ell_check", "finite_to_presentation", "free_presentation",
    "image_contains", "kernel_basis", "normal_form", "point_presentation",
    "tensor_convolution_check", "to_json",
}


def _library_names():
    """(defined, used): the function and class names defined in the
    library's modules, dunders apart, and the names it reads as a `Name`
    or an `Attribute`."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_library_definition_is_used():
    defined, used = _library_names()
    assert defined - used - UNUSED == set()


def test_unused_names_are_defined_and_unused():
    defined, used = _library_names()
    assert UNUSED <= defined
    assert UNUSED & used == set()
