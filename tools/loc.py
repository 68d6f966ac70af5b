"""Code lines per ``src/repro`` package: ROADMAP aim 2's tracked number.

A code line is non-blank, not a ``#`` comment, and outside module / class /
function docstrings.  ``--max-serving N`` exits non-zero when
``service/`` + ``cli.py`` exceeds ``N``, ``--max-core N`` when ``core/`` +
``cost/`` does, and ``--max-total N`` when ``src/repro`` + ``benchmarks/`` +
``tools/`` + ``examples/`` does — the ceilings ``ci.yml`` commits.

``benchmarks/spine/`` is left out of ``--max-total``: the spine benchmark is
frozen between benchmark revisions and grows only in them, and a ceiling
that only ever goes down must not block such a revision.

    python tools/loc.py [--root src/repro] [--max-serving N] [--max-core N]
                        [--max-total N]
"""

import argparse
import ast
import sys
from collections import Counter
from pathlib import Path

DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
REPO = Path(__file__).resolve().parents[1]
#: Counted by ``--max-total`` beside ``--root``, except ``benchmarks/spine/``.
OUTSIDE_SRC = ("benchmarks", "tools", "examples")
SPINE = REPO / "benchmarks" / "spine"


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
    parser.add_argument("--root", type=Path, default=REPO / "src" / "repro")
    parser.add_argument("--max-serving", type=int, default=None)
    parser.add_argument("--max-core", type=int, default=None)
    parser.add_argument("--max-total", type=int, default=None)
    args = parser.parse_args()
    counts: Counter[str] = Counter()
    for path in sorted(args.root.rglob("*.py")):
        parts = path.relative_to(args.root).parts
        counts[parts[0] + "/" if len(parts) > 1 else parts[0]] += code_lines(path)
    outside = sum(
        code_lines(path)
        for directory in OUTSIDE_SRC
        for path in sorted((REPO / directory).rglob("*.py"))
        if SPINE not in path.parents
    )
    groups = {
        "service/ + cli.py": (counts["service/"] + counts["cli.py"], args.max_serving),
        "core/ + cost/": (counts["core/"] + counts["cost/"], args.max_core),
        "src/repro + benchmarks/ (not spine/) + tools/ + examples/": (
            sum(counts.values()) + outside,
            args.max_total,
        ),
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
