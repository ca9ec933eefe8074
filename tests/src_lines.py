"""Count the code, docstring, comment and blank lines of each module of ``src/htgroth``.

Run as ``python tests/src_lines.py [SRC_DIR]`` (default: the ``src/htgroth``
beside this file's directory).  A docstring line is one inside the span of a
module, class or function docstring, read with ``ast``.  A comment line holds
only a comment, found with ``tokenize``; a blank line holds nothing outside a
docstring; every other line, a string spread over several lines included, is
code.  The table ends with the totals.
"""

import ast
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    with path.open("rb") as fh:
        comments = {
            tok.start[0]
            for tok in tokenize.tokenize(fh.readline)
            if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip()
        }
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        if number in docs:
            counts["docstring"] += 1
        elif number in comments:
            counts["comment"] += 1
        elif not line.strip():
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "htgroth"
    rows = [(path.name, count(path)) for path in sorted(root.glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    width = max(len(name) for name, _ in rows + [("total", None)])
    print(f"{'module':<{width}}  {'lines':>6}" + "".join(f"  {kind:>9}" for kind in KINDS))
    for name, counts in rows + [("total", total)]:
        cells = "".join(f"  {counts[kind]:>9}" for kind in KINDS)
        print(f"{name:<{width}}  {sum(counts.values()):>6}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
