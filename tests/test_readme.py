"""The README's examples, run as written.

Every ``$ tribokit ...`` line in a ``console`` block goes through
``cli.main`` and must print exactly the lines under it; only the timing
column of ``bench`` is masked.  The ``ini`` block must load as a config.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from tribokit import cli

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```", re.MULTILINE | re.DOTALL)
_TIMING = re.compile(r"(?m)^(\w+ +)\d+\.\d+s")


def _blocks(language: str) -> list[str]:
    return [body for lang, body in _BLOCK.findall(README.read_text(encoding="utf-8"))
            if lang == language]


def _examples() -> list[tuple[str, str]]:
    examples = []
    for body in _blocks("console"):
        for chunk in re.split(r"(?m)^\$ ", body)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((command, output))
    return examples


@pytest.fixture(autouse=True)
def isolated_config(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)


def test_readme_has_examples():
    assert len(_examples()) >= 6
    assert len(_blocks("ini")) == 1


@pytest.mark.parametrize("command, expected", _examples(), ids=[c for c, _ in _examples()])
def test_console_example(command, expected, capsys):
    program, *argv = shlex.split(command)
    assert program == "tribokit"
    cli.main(argv)
    out = capsys.readouterr().out
    if argv[0] == "bench":
        out, expected = _TIMING.sub(r"\1<seconds>", out), _TIMING.sub(r"\1<seconds>", expected)
    assert out == expected


def test_config_example_loads(tmp_path):
    config = tmp_path / "tribokit.ini"
    config.write_text(_blocks("ini")[0], encoding="utf-8")
    assert cli.load_config(str(config)) == cli.CliConfig(
        default_range=(0, 100),
        precision=30,
        fixture_dir="/some/dir",
        output_format="plain",
        oeis_url="https://oeis.org",
    )
