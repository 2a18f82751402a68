"""The README's example session, run command by command.

Each ``$`` line runs in a fresh directory: ``printf ... > file`` writes the
file, and ``cliquewidth ...`` runs through ``cli.main``.  The output that
follows a command in the README must be exactly what it prints.
"""
import codecs
import re
import shlex
from pathlib import Path

from cliquewidth.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def example_session() -> list[tuple[str, str]]:
    """(command, expected output) pairs of the README's example session."""
    block = re.search(r"Example session:\n\n```sh\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no example session"
    session: list[tuple[str, str]] = []
    for line in block.group(1).splitlines(keepends=True):
        if line.startswith("$ "):
            session.append((line[2:].rstrip("\n"), ""))
        else:
            command, output = session[-1]
            session[-1] = (command, output + line)
    return session


def test_readme_example_session(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    session = example_session()
    assert session
    for command, expected in session:
        words = shlex.split(command)
        if words[0] == "printf":
            assert words[2] == ">" and len(words) == 4, command
            text = codecs.decode(words[1], "unicode_escape")
            (tmp_path / words[3]).write_text(text)
            got = ""
        else:
            assert words[0] == "cliquewidth", command
            assert main(words[1:]) == 0, command
            got, err = capsys.readouterr()
            assert err == "", command
        assert got == expected, command
