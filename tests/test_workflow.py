"""The CI workflow's filtered pytest step selects tests that exist."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _filtered_step() -> tuple[list[str], list[str]]:
    """(test files, `or` terms) of the workflow's pytest line with a -k
    expression: the step that runs a few tests on the oldest admitted
    numpy."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    found = re.findall(r'pytest -q ((?:tests/\S+\.py\s+)+)-k "([^"]+)"', workflow)
    assert len(found) == 1, found
    files, expression = found[0]
    terms = [term.strip() for term in expression.split(" or ")]
    assert all(re.fullmatch(r"\w+", term) for term in terms), expression
    return files.split(), terms


def _test_keywords(path: Path) -> list[set[str]]:
    """For each test function in `path`, the names pytest's -k matches it
    by: its own, its class's and its module file's, lower-cased."""
    module = path.name.lower()
    keywords = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            methods = [f for f in node.body if isinstance(f, ast.FunctionDef)]
            keywords += [
                {f.name.lower(), node.name.lower(), module}
                for f in methods
                if f.name.startswith("test")
            ]
        elif isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            keywords.append({node.name.lower(), module})
    return keywords


def test_every_term_of_the_oldest_numpy_step_selects_a_test():
    # that step has never been seen running, so a rename must not empty it
    files, terms = _filtered_step()
    keywords = [k for name in files for k in _test_keywords(ROOT / name)]
    for term in terms:
        assert any(term.lower() in name for k in keywords for name in k), term
