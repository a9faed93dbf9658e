"""The command-line examples in README.md, run and compared with their pasted output.

Every ``$ python -m multicast_aoi.cli ...`` line in a README code block is
run in-process, with stderr merged into stdout, and its output must equal
the lines printed under it, up to the next ``$`` line or the end of the
block.  A ``| head -N`` or ``| tail -N`` suffix keeps those lines, and an
``echo "exit ..."`` suffix appends the exit status it names.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from multicast_aoi.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ python -m multicast_aoi.cli "
COMMAND = re.compile(
    r"(?P<argv>[^|;]*?)"
    r"(?: \| (?P<filter>head|tail) -(?P<count>\d+))?"
    r"(?:; echo \"exit (?P<status>\$\{PIPESTATUS\[0\]\}|\$\?)\")?"
)


def examples():
    """``(line number, command, expected output)`` for each example, in README order."""
    found, block, current = [], False, None
    for number, line in enumerate(README.read_text().splitlines(), 1):
        if line.startswith("```"):
            block, current = not block, None
        elif block and line.startswith(PROMPT):
            current = (number, line[len(PROMPT):], [])
            found.append(current)
        elif block and line.startswith("$ "):
            current = None
        elif current is not None:
            current[2].append(line)
    return found


def run(command: str) -> list[str]:
    """The lines that the shell would print for ``command``."""
    match = COMMAND.fullmatch(command)
    assert match, f"unsupported README command: {command}"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = main(shlex.split(match["argv"]))
    lines = buf.getvalue().splitlines()
    if match["filter"] == "head":
        lines = lines[:int(match["count"])]
    elif match["filter"] == "tail":
        lines = lines[-int(match["count"]):]
    if match["status"] is not None:
        # $? after a pipe is the filter's status, which is 0 here
        piped = match["filter"] is not None and match["status"] == "$?"
        lines.append(f"exit {0 if piped else code}")
    return lines


EXAMPLES = examples()


def test_every_command_in_the_readme_is_an_example():
    # a prompt outside a code block, or a command with no output, is no example
    assert len(EXAMPLES) == README.read_text().count(PROMPT)
    commands = {command.split()[0] for _, command, _ in EXAMPLES}
    assert commands == {"analyze", "simulate", "optimize", "experiment", "validate"}
    assert all(expected for _, _, expected in EXAMPLES)


@pytest.mark.parametrize("command, expected", [example[1:] for example in EXAMPLES],
                         ids=[f"README.md:{example[0]}" for example in EXAMPLES])
def test_example_output_matches(command, expected):
    assert run(command) == expected
