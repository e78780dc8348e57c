"""Source size of a Python package: code lines and AST statements.

A code line is a line that is not blank, not comment-only and not inside a
module, class or function docstring.  An AST statement is any ``ast.stmt``
node, docstrings included.  Reflowing or joining lines moves neither number
much, and documentation counts against neither.

    python tools/src_size.py [package dir]      # default: src/legkit
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the module's, classes' and functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(path: Path) -> tuple[int, int]:
    """(code lines, AST statements) of one source file."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docs = docstring_lines(tree)
    code = sum(
        1 for n, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and n not in docs
    )
    return code, sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/legkit")
    total_code = total_stmts = 0
    for path in sorted(root.glob("*.py")):
        code, stmts = size(path)
        total_code += code
        total_stmts += stmts
        print(f"{path.name:16} {code:5} code lines {stmts:5} statements")
    print(f"{'total':16} {total_code:5} code lines {total_stmts:5} statements")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
