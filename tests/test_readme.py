"""Every `fmstack` command of the README's CLI block runs as documented, and
every name the README and the package export exists."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

import fmstack
from fmstack.cli import TOPOLOGIES, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_commands() -> list[tuple[list[str], int]]:
    """(argv without the program name, expected exit code) per command.

    A command starts on a line beginning with `fmstack` and runs on while a
    line ends in a backslash or a quote is still open. A trailing comment
    `# exits N` gives its exit code; the default is 0.
    """
    text = README.read_text()
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    commands = []
    pending = None
    for line in block.splitlines():
        if pending is None:
            if not line.startswith("fmstack "):
                continue
            pending = line
        else:
            pending += "\n" + line
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        try:
            argv = shlex.split(pending, comments=True)
        except ValueError:  # a quoted JSON patch spans lines
            continue
        code = re.search(r"#\s*exits (\d+)", pending)
        commands.append((argv[1:], int(code.group(1)) if code else 0))
        pending = None
    assert pending is None, f"unterminated README command: {pending!r}"
    return commands


COMMANDS = _cli_commands()


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv, _ in COMMANDS} == {"render", "spectrum", "compare", "drift-demo"}


@pytest.mark.parametrize("argv,code", COMMANDS, ids=[" ".join(argv)[:60] for argv, _ in COMMANDS])
def test_readme_command(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code


def test_package_exports_resolve():
    assert len(set(fmstack.__all__)) == len(fmstack.__all__)
    assert [name for name in fmstack.__all__ if not hasattr(fmstack, name)] == []


def _layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names of its contents) per row of the Layout table."""
    table = re.search(r"^## Layout\n.*?^\|---\|---\|\n(.*?)\n\n", README.read_text(), re.S | re.M).group(1)
    rows = [re.fullmatch(r"\| `([\w.]+)` \| (.*) \|", line) for line in table.splitlines()]
    assert all(rows), table
    return [(row.group(1), re.findall(r"`([^`]+)`", row.group(2))) for row in rows]


LAYOUT = _layout_rows()


@pytest.mark.parametrize("module,names", LAYOUT, ids=[module for module, _ in LAYOUT])
def test_readme_layout_names_exist(module, names):
    mod = importlib.import_module(module)
    assert names
    assert [name for name in names if not hasattr(mod, name)] == []


def test_readme_layout_names_every_export():
    listed = {name for _, names in LAYOUT for name in names}
    assert [name for name in fmstack.__all__ if name not in listed] == []


def test_readme_names_every_topology():
    paragraph = re.search(r"^Topologies:.*?(?=\n\n)", README.read_text(), re.S | re.M).group(0)
    assert set(re.findall(r"`([a-z][a-z0-9-]*)`", paragraph)) == set(TOPOLOGIES)
