#!/usr/bin/env python3
"""Print the code lines of each module under src/fcalc, the time to
compile it, and their totals.

A code line holds a token other than a comment or a docstring; a
docstring here is any string that makes up a statement of its own.
Blank lines count for nothing.  The compile time is the best of three
compilations of the module's source to bytecode: what every process that
imports the module pays where no bytecode cache is read (no __pycache__,
or PYTHONDONTWRITEBYTECODE set, so that none is ever written).

Usage: python3 scripts/sloc.py [DIR]   (DIR defaults to src/fcalc)
"""

import sys
import timeit
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, tok, after in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in LAYOUT:
            continue
        statement_start = before is None or before.type in LAYOUT
        if (tok.type == tokenize.STRING and statement_start
                and (after is None or after.type in LAYOUT)):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def compile_ms(path: Path) -> float:
    source = path.read_bytes()
    return 1e3 * min(timeit.repeat(lambda: compile(source, str(path), "exec"), number=1, repeat=3))


def main() -> None:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src/fcalc"
    total, total_ms = 0, 0.0
    for path in sorted(root.rglob("*.py")):
        n, ms = code_lines(path), compile_ms(path)
        total, total_ms = total + n, total_ms + ms
        print(f"{n:6d}  {ms:6.1f} ms  {path.relative_to(root)}")
    print(f"{total:6d}  {total_ms:6.1f} ms  total")


if __name__ == "__main__":
    main()
