"""The mutation sample in tools/mutants.py stays in step with src: each entry's
text to edit occurs exactly once in its file, every solver constant and every
inline number that steers a run is sampled, and every entry names a killing
test that exists or says why it is equivalent. Running the sample itself is
the script's job, not tier-1's."""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOLVER_MODULES = ("continuation", "dynamics", "operators", "report", "spectral", "steady")
#: modules whose every inline number is sampled
INLINE_MODULES = ("config", "continuation", "dynamics", "operators", "report", "runner",
                  "spectral", "steady")


def _load_sample():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = _load_sample()


@pytest.mark.parametrize("mutant", SAMPLE.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_text_that_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_every_solver_constant_is_sampled():
    names = [m.name for m in SAMPLE.MUTANTS]
    assert len(set(names)) == len(names)
    constants = []
    for module in SOLVER_MODULES:
        path = Path("src") / "refugia" / f"{module}.py"
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id):
                    constants.append(target.id)
                    assert any(m.file == str(path) and m.old.startswith(f"{target.id} = ")
                               for m in SAMPLE.MUTANTS), target.id
    assert len(constants) == 22


def test_every_mutant_names_its_killer_or_why_it_is_equivalent():
    equivalent = {m.name for m in SAMPLE.MUTANTS if m.killer is None}
    assert set(SAMPLE.EQUIVALENT) == equivalent
    assert all(SAMPLE.EQUIVALENT[name].strip() for name in equivalent)
    for m in SAMPLE.MUTANTS:
        if m.killer is not None:
            file, test = m.killer.split("::")
            assert f"\ndef {test}(" in (ROOT / file).read_text(encoding="utf-8"), m.killer


def _numbers(tree: ast.AST):
    """The numeric literals under tree, other than 0, 1 and 2 (indices, the
    predator-free state's zeros, unit rows and squares, the ladder's base)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and node.value not in (0, 1, 2)):
            yield node


def test_every_inline_number_is_sampled():
    # each literal lies inside the text that some entry of its file edits
    sampled = 0
    for module in INLINE_MODULES:
        path = Path("src") / "refugia" / f"{module}.py"
        data = (ROOT / path).read_bytes()
        tree = ast.parse(data)
        line_start = [0]
        for line in data.splitlines(keepends=True):
            line_start.append(line_start[-1] + len(line))
        spans = []
        for m in SAMPLE.MUTANTS:
            if m.file == str(path):
                start = data.index(m.old.encode())
                spans.append((start, start + len(m.old.encode())))
        for node in _numbers(tree):
            offset = line_start[node.lineno - 1] + node.col_offset
            assert any(lo <= offset < hi for lo, hi in spans), (
                f"{path}:{node.lineno}: {node.value!r} is in no mutant's text")
            sampled += 1
    assert sampled == 50


def _key_rows(text: str) -> dict[str, list[ast.expr]]:
    """key -> [default, bound] nodes of each row of config._KEYS in text."""
    table = next(node.value for node in ast.parse(text).body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_KEYS")
    return {row.elts[0].value: row.elts[2:] for row in table.elts}


def test_every_config_key_bound_and_literal_default_is_sampled():
    # some entry changes each bound, and each default written as a literal
    # other than None; a default that names a class field is that field's,
    # sampled where the class is
    path = Path("src") / "refugia" / "config.py"
    text = (ROOT / path).read_text(encoding="utf-8")
    rows = _key_rows(text)
    mutated = [_key_rows(text.replace(m.old, m.new)) for m in SAMPLE.MUTANTS
               if m.file == str(path)]
    steering = [(key, i) for key, nodes in rows.items() for i, node in enumerate(nodes)
                if not (isinstance(node, ast.Constant) and node.value is None)
                and (i == 1 or isinstance(node, ast.Constant))]
    for key, i in steering:
        assert any(ast.dump(rows_m[key][i]) != ast.dump(rows[key][i]) for rows_m in mutated), (
            f"config._KEYS {key}: no entry changes its {('default', 'bound')[i]}")
    assert len(steering) == 28
