"""Package surface: every exported name resolves, and the README names only what exists."""

import argparse
import ast
import json
import re
import sys
from pathlib import Path

import mteq
from mteq.cli import build_parser, main


def test_all_names_resolve():
    missing = [name for name in mteq.__all__ if not hasattr(mteq, name)]
    assert not missing
    assert len(set(mteq.__all__)) == len(mteq.__all__)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_imports_resolve():
    text = README.read_text()
    imported = re.findall(r"from mteq import \(([^)]*)\)|from mteq import ([^\n(]+)", text)
    names = {name for group in imported for name in re.split(r"[\s,]+", "".join(group))
             if name}
    assert names
    assert sorted(name for name in names if not hasattr(mteq, name)) == []


def _cli_options() -> set[str]:
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {flag for parser in sub.choices.values()
            for flag in parser._option_string_actions}


def test_readme_flags_are_cli_options():
    # Lines that run another program (pip, pytest) carry its own flags.
    lines = [line for line in README.read_text().splitlines()
             if not line.lstrip().startswith(("pip ", "pytest"))]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", "\n".join(lines)))
    assert flags
    assert sorted(flags - _cli_options()) == []


def _readme_report_keys() -> dict[tuple, list[str]]:
    """Keys of each object in the README's ``report.json`` example, by the
    path of keys that leads to it. The example elides values with ``...``,
    so it is not JSON; only its quoted keys and its brackets are read."""
    block = README.read_text().split("### report.json", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    keys, path, pending = {}, [], None
    for token in re.finditer(r'"([^"]*)"(\s*:)?|[][{}]', block):
        if token.group(2):
            pending = token.group(1)
            keys.setdefault(tuple(path), []).append(pending)
        elif token.group(0) in ("{", "["):
            path.append(pending)
            pending = None
        elif token.group(0) in ("}", "]"):
            path.pop()
    return keys


def test_readme_report_example_has_the_written_keys(tmp_path):
    assert main(["solve", "--n", "34", "--maxit", "3", "--out-dir", str(tmp_path)]) in (0, 3)
    report = json.loads((tmp_path / "report.json").read_text())
    keys = _readme_report_keys()
    assert keys[(None,)] == list(report)
    assert keys[(None, "config")] == list(report["config"])
    assert keys[(None, "result")] == list(report["result"])


def test_third_party_imports_are_the_declared_dependencies():
    # pyproject.toml is parsed by regex: tomllib needs Python 3.11, and the
    # package supports 3.10.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', block))
    imported = set()
    for path in Path(mteq.__file__).resolve().parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared


def test_no_module_reads_the_environment():
    # Settings come from flags and config fields only; an environment
    # variable would be a second way in that report.json does not record.
    src = Path(mteq.__file__).resolve().parent
    readers = [path.name for path in sorted(src.glob("*.py"))
               if re.search(r"\b(environ|getenv)\b", path.read_text())]
    assert readers == []
