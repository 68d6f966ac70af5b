"""Code lines per ``src/repro`` package: ROADMAP aim 2's tracked number.

A code line is non-blank, not a ``#`` comment, and outside module / class /
function docstrings.  ``--max-serving N`` exits non-zero when
``service/`` + ``cli.py`` exceeds ``N`` — the ceiling ``ci.yml`` commits.

    python tools/loc.py [--root src/repro] [--max-serving N]
"""

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstring_lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCSTRING_OWNERS) and ast.get_docstring(node, clean=False):
            docstring = node.body[0]
            docstring_lines.update(range(docstring.lineno, docstring.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in docstring_lines
        and line.strip()
        and not line.strip().startswith("#")
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = Path(__file__).resolve().parents[1] / "src" / "repro"
    parser.add_argument("--root", type=Path, default=default_root)
    parser.add_argument("--max-serving", type=int, default=None)
    args = parser.parse_args()
    counts: Counter[str] = Counter()
    for path in sorted(args.root.rglob("*.py")):
        parts = path.relative_to(args.root).parts
        counts[parts[0] + "/" if len(parts) > 1 else parts[0]] += code_lines(path)
    serving = counts["service/"] + counts["cli.py"]
    for package, count in sorted(counts.items()):
        print(f"{count:7d}  {package}")
    print(f"{serving:7d}  service/ + cli.py")
    print(f"{sum(counts.values()):7d}  total")
    if args.max_serving is not None and serving > args.max_serving:
        print(
            f"error: service/ + cli.py is {serving} code lines, "
            f"ceiling {args.max_serving}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
