"""List the function-body lines of src/refugia that no tier-1 test file executes.

Each tests/test_*.py runs under the standard library's trace module, in a
child process of its own, and records which lines of src/refugia it ran.
A function-body line is a line of a code object below module level, less
its def line; every such line that no file ran is printed as
`path:line: text`. Lines that only a CLI child process runs are listed too,
since the children are not traced.

Usage, from anywhere (standard library and pytest only):

    python tools/uncovered.py

The whole suite took about 7 minutes on a 2-vCPU box. trace is given no
ignoredirs: it caches its ignore decision by module base name, so an ignored
unittest.runner would hide refugia/runner.py too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "refugia"

#: run in each child: pytest on one file under trace, the lines of src/refugia
#: it ran written as JSON [[path, line], ...]
CHILD = """\
import json, sys, trace, pytest
tracer = trace.Trace(count=1, trace=0)
tracer.runfunc(pytest.main, [sys.argv[1], "-q", "-p", "no:cacheprovider"])
hits = [[f, n] for f, n in tracer.results().counts if f.startswith(sys.argv[3])]
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    json.dump(hits, fh)
"""


def executed(test_file: Path) -> set[tuple[str, int]]:
    """(path, line) of every src/refugia line that test_file's tests ran."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="refugia-uncovered-") as tmp:
        out = Path(tmp) / "hits.json"
        subprocess.run([sys.executable, "-c", CHILD, str(test_file), str(out), str(SRC)],
                       cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False)
        if not out.exists():
            raise SystemExit(f"{test_file}: the traced run wrote no result")
        return {(os.path.realpath(f), n) for f, n in json.loads(out.read_text(encoding="utf-8"))}


def body_lines(path: Path) -> set[int]:
    """The function-body lines of a module: every line of a code object
    below module level, less the code object's first (def) line."""
    stack = [c for c in compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts
             if isinstance(c, types.CodeType)]
    lines = set()
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        lines |= {n for _, _, n in code.co_lines() if n and n != code.co_firstlineno}
    return lines


def main() -> int:
    tests = sorted((ROOT / "tests").glob("test_*.py"))
    hit: set[tuple[str, int]] = set()
    for test_file in tests:
        hit |= executed(test_file)
    missing = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for n in sorted(body_lines(path)):
            if (os.path.realpath(path), n) not in hit:
                print(f"{path.relative_to(ROOT)}:{n}: {text[n - 1].strip()}")
                missing += 1
    print(f"{missing} function-body lines of src/refugia not executed by {len(tests)} test files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
