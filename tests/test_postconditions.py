import ast
import os
import subprocess
import sys
from pathlib import Path

import diophiq

SRC = Path(diophiq.__file__).resolve().parent


def test_src_has_no_assert_statement():
    # `python -O` strips assert statements, and with them the arithmetic
    # postconditions; they raise PostconditionViolated instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_imports_only_stdlib_and_mpmath():
    # mpmath is the one declared dependency; numpy may be installed but is not declared
    found = [
        f"{path.name}:{node.lineno}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.partition(".")[0] not in sys.stdlib_module_names | {"mpmath"}
    ]
    assert found == []


def test_every_error_class_is_raised():
    # a class no source line raises only renames a failure another class reports
    tree = ast.parse((SRC / "errors.py").read_text())
    declared = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"DiophError"}
    raised = {
        name.id
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise) and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name)
    }
    assert declared and declared - raised == set()


def test_postcondition_survives_optimize_flag():
    # 3^2 = 1*8 + 1 and 5^2 = 3*8 + 1, so s = 5 is a wrong witness for {1, 3, 8}
    code = (
        "from diophiq.errors import PostconditionViolated\n"
        "from diophiq.pell import PellSystem\n"
        "from diophiq.ring import RingSpec\n"
        "one, three, eight, five = (RingSpec(-1).elem(n) for n in (1, 3, 8, 5))\n"
        "try:\n"
        "    PellSystem(one, three, eight, five, five)\n"
        "except PostconditionViolated:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert out.stdout == "raised\n"
