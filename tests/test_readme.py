import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    # run README's block statement by statement and check the values its
    # comments state for the bare expressions
    text = README.read_text()
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope, values = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), scope))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), scope)
    assert len(values) == 4
    assert values[0] is True
    assert abs(values[1] - 0.8) <= 1e-12
    assert abs(values[2] - 1.0) <= 1e-12
    assert values[3] == 3
