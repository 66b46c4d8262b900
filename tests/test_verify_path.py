"""The verify path keeps every check under `python -O`, which strips
`assert` statements, and decides its facts by certificates rather than by
elimination over Q(x, y) or rational functions."""

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lkbrep"


def test_library_uses_no_assert():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def _scaled_accumulations(tree):
    """`name = name +/- <expr>.scaled(...)` or `name += <expr>.scaled(...)`
    inside a loop: a chain sum that copies its running total every step."""
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                if not (isinstance(value, ast.BinOp) and isinstance(value.left, ast.Name)
                        and isinstance(target, ast.Name) and value.left.id == target.id):
                    continue
                op, term = value.op, value.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                op, term = node.op, node.value
            else:
                continue
            if (isinstance(op, (ast.Add, ast.Sub)) and isinstance(term, ast.Call)
                    and isinstance(term.func, ast.Attribute) and term.func.attr == "scaled"):
                found.append(node.lineno)
    return sorted(set(found))


def test_chain_sums_go_through_one_kernel():
    # every chain sum in the library is one Chain.combination pass
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{line}" for line in _scaled_accumulations(tree)]
    assert offenders == []


def test_the_chain_sum_lint_sees_a_quadratic_sum():
    src = """
def f(cols, u):
    out = Chain(1)
    for label, c in u.coeffs.items():
        out = out + cols[label].scaled(c)
    while u:
        u -= cols[0].scaled(2)
    return out
"""
    assert _scaled_accumulations(ast.parse(src)) == [5, 7]


def _smith_references(tree):
    """(owner, line) for every use of the name int_smith_transforms other
    than its definition: calls, attribute reads and imports, the owner
    being the innermost enclosing function or "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == "int_smith_transforms")
                    or (isinstance(child, ast.Attribute) and child.attr == "int_smith_transforms")
                    or (isinstance(child, ast.ImportFrom)
                        and any(a.name == "int_smith_transforms" for a in child.names))):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_h1_path_reaches_the_smith_form():
    # integer homology goes through int_unit_pivot_factors; only it hands a
    # remainder to the dense Smith form
    paths = sorted(SRC.glob("*.py"))
    assert paths
    owners = set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        owners |= {f"{path.name}:{owner}" for owner, _ in _smith_references(tree)}
    assert owners == {"linalg.py:int_unit_pivot_factors"}


def test_the_smith_lint_sees_every_other_use():
    src = """
from .linalg import int_smith_transforms as snf

def int_unit_pivot_factors(cols):
    return int_smith_transforms(cols)

def h1_fn(m):
    def inner():
        return linalg.int_smith_transforms(m)
    return inner()
"""
    assert _smith_references(ast.parse(src)) == [
        ("<module>", 2), ("int_unit_pivot_factors", 5), ("inner", 9)]


def test_verification_error_has_one_class():
    from lkbrep import linalg, ring

    assert linalg.VerificationError is ring.VerificationError


def test_verify_passes_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-m", "lkbrep", "verify", "--max-n", "4"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "FAIL" not in out.stdout


REFUSE_ELIMINATION = """
import sys
from lkbrep import action, cli, homology, linalg, ring

def refuse(*args):
    raise RuntimeError("field elimination or a rational function on the CLI path")

for mod in (linalg, homology, action):
    for name in ("field_kernel_raw", "field_solve", "field_inv", "field_rank", "field_det"):
        if hasattr(mod, name):
            setattr(mod, name, refuse)
ring.RationalFunction.__init__ = refuse
codes = [cli.main(argv) for argv in (["verify", "--max-n", "5"], ["homology", "--n", "5"],
                                     ["fork", "--n", "5"], ["action", "--n", "4"])]
sys.exit(max(codes))
"""


def test_verify_runs_no_field_elimination():
    # a fresh process, so no cached result hides a call
    out = subprocess.run([sys.executable, "-c", REFUSE_ELIMINATION],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "FAIL" not in out.stdout
