"""List the lines of `src/exldl` that no test runs.

    python3 scripts/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this process, on `tests` when no argument is given, under a
`sys.settrace` hook (also set for new threads) that traces line by line
only the frames whose code lives in `src/exldl`.  Then, for every function
in those files, it prints the executable lines, as the compiler's line
table gives them, that never ran; a function that never ran is printed as
such.  Comprehensions, generator expressions and lambdas count with the
function they are written in; a nested `def` is a function of its own.
Module and class bodies are left out.  Code run in a child process is not
seen.  It exits with pytest's exit code.  The tests run several times
slower than untraced (about five minutes for `tests` on a 2-core box).
No bytecode and no pytest cache are written, so the checkout is left as
it was.  Standard library only, besides pytest itself.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exldl"
CO_NEWLOCALS = 0x2  # set on function code objects, not on module or class bodies


def functions(path: Path) -> dict:
    """{qualified name: executable lines} of every function in the file;
    the `def` line (the code object's first line) is not counted."""
    out = defaultdict(set)
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
        if not code.co_flags & CO_NEWLOCALS:
            continue
        parts = [p for p in code.co_qualname.split(".") if p != "<locals>"]
        while parts[-1].startswith("<") and len(parts) > 1:
            parts.pop()
        lines = {ln for _, _, ln in code.co_lines() if ln is not None}
        out[".".join(parts)] |= lines - {code.co_firstlineno}
    return out


def run_traced(args) -> tuple:
    """pytest's exit code and {file: lines run} under the line tracer."""
    ran = defaultdict(set)
    inside = {}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(name).resolve().parent == PACKAGE
        return local if inside[name] else None

    import pytest

    sys.dont_write_bytecode = True
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {str(Path(k).resolve()): v for k, v in ran.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    code, ran = run_traced(args or [str(ROOT / "tests")])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = ran.get(str(path.resolve()), set())
        report = []
        for name, lines in sorted(functions(path).items(), key=lambda kv: min(kv[1], default=0)):
            missed = sorted(lines - hit)
            if not missed:
                continue
            total += len(missed)
            if len(missed) == len(lines):
                report.append(f"  {name}: never ran ({len(lines)} lines from {missed[0]})")
            else:
                report.append(f"  {name}: {', '.join(map(str, missed))}")
        if report:
            print(path.relative_to(ROOT))
            print("\n".join(report))
    print(f"{total} lines not run (pytest exit code {code})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
