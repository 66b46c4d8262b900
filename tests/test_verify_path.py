"""The verify path keeps every check under `python -O`, which strips
`assert` statements, and decides its facts by certificates rather than by
elimination over Q(x, y)."""

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
from lkbrep import action, cli, homology, linalg

def refuse(*args):
    raise RuntimeError("field elimination on the verify path")

for mod in (linalg, homology, action):
    for name in ("field_kernel_raw", "field_solve", "field_inv", "field_rank", "field_det"):
        if hasattr(mod, name):
            setattr(mod, name, refuse)
sys.exit(cli.main(["verify", "--max-n", "5"]))
"""


def test_verify_runs_no_field_elimination():
    # a fresh process, so no cached result hides a call
    out = subprocess.run([sys.executable, "-c", REFUSE_ELIMINATION],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "FAIL" not in out.stdout
