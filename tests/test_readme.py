"""README's examples run as written.

Every expression in the "Library quickstart" block is evaluated and compared
with the value its comment shows, and every `kroncave ... # -> N` line of
"Command line" is run through cli.run_command and its stdout compared with N.
So an export or a command that the README uses cannot go without this file
failing.
"""

import ast
import io
import shlex
import tokenize
from pathlib import Path

import pytest

from kroncave.cli import run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block under the '## heading' section."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    fence = f"```{language}\n"
    start = section.index(fence) + len(fence)
    return section[start : section.index("```", start)]


def leading_value(comment: str):
    """The literal a comment starts with: its text up to the first ',' or ':'
    outside brackets, so "6, equal by stability" gives 6."""
    depth = 0
    for i, ch in enumerate(comment):
        depth += ch in "([{"
        depth -= ch in ")]}"
        if depth == 0 and ch in ",:":
            comment = comment[:i]
            break
    return ast.literal_eval(comment.strip())


def test_library_quickstart_values():
    """Each expression's comment, on its own line or on the next, is its value."""
    source = fenced_block("Library quickstart", "python")
    lines = source.splitlines()
    comments = {
        token.start[0]: token.string.lstrip("#").strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        end = statement.end_lineno
        comment = comments.get(end)
        if comment is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            comment = comments[end + 1]
        text = ast.get_source_segment(source, statement)
        assert comment is not None, f"no value shown for {text}"
        got = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert got == leading_value(comment), text
        checked += 1
    assert checked >= 6


CLI_LINES = [line for line in fenced_block("Command line", "sh").splitlines() if "# -> " in line]


def test_command_line_shows_values():
    assert len(CLI_LINES) >= 5


@pytest.mark.parametrize("line", CLI_LINES, ids=lambda line: line.split("#")[0].strip())
def test_command_line_value(line, capsys):
    command, expected = line.split("# -> ")
    argv = shlex.split(command)
    assert argv[0] == "kroncave"
    assert run_command(argv[1:]) == 0
    assert capsys.readouterr().out == expected.strip() + "\n"
