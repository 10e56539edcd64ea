"""README examples run as written and return what their comments say."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# quick-tour expression -> (its comment in README, the value it must have)
QUICK_TOUR_VALUES = {
    "gf.relative_distance(code).delta": ("Fraction(2, 3), exact", Fraction(2, 3)),
    "gf.collision_number(code).value": ("3, witness included", 3),
    "gf.maxcover_value(composed).value": ("Fraction(1, 3) == 1 - delta", Fraction(1, 3)),
    "gf.setcover_certificate(sc, csc).verdict": ('"completeness_ok"', "completeness_ok"),
}


def readme_block(heading: str) -> str:
    """The first ```python block under the given ## heading of README.md."""
    text = README.read_text()
    section = text[text.index(f"## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour():
    source = readme_block("Library quick tour")
    comments = dict(tuple(part.strip() for part in line.split("#", 1))
                    for line in source.splitlines() if "#" in line)
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            values[ast.get_source_segment(source, stmt)] = eval(
                compile(ast.Expression(stmt.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)

    for expr, (comment, value) in QUICK_TOUR_VALUES.items():
        assert comments[expr] == comment
        assert values[expr] == value
    verdict = values["gf.verify_threshold(graph, collision_cap=3)"]
    assert verdict.completeness_ok and verdict.soundness_ok and verdict.collision_min_x is None
    assert comments["csc = gf.compose_setcover(sc, code)"] == "universe 3 * 2**9 = 1536"
    assert namespace["csc"].universe_size == 1536
