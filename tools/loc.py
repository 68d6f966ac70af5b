"""Code lines per ``src/repro`` package: ROADMAP aim 2's tracked number.

A code line is non-blank, not a ``#`` comment, and outside module / class /
function docstrings.  ``--max-serving N`` exits non-zero when
``service/`` + ``cli.py`` exceeds ``N``, ``--max-core N`` when ``core/`` +
``cost/`` does — the ceilings ``ci.yml`` commits.

    python tools/loc.py [--root src/repro] [--max-serving N] [--max-core N]
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
    parser.add_argument("--max-core", type=int, default=None)
    args = parser.parse_args()
    counts: Counter[str] = Counter()
    for path in sorted(args.root.rglob("*.py")):
        parts = path.relative_to(args.root).parts
        counts[parts[0] + "/" if len(parts) > 1 else parts[0]] += code_lines(path)
    groups = {
        "service/ + cli.py": (counts["service/"] + counts["cli.py"], args.max_serving),
        "core/ + cost/": (counts["core/"] + counts["cost/"], args.max_core),
    }
    for package, count in sorted(counts.items()):
        print(f"{count:7d}  {package}")
    for label, (count, _) in groups.items():
        print(f"{count:7d}  {label}")
    print(f"{sum(counts.values()):7d}  total")
    status = 0
    for label, (count, ceiling) in groups.items():
        if ceiling is not None and count > ceiling:
            print(
                f"error: {label} is {count} code lines, ceiling {ceiling}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
