"""CI's "Installed package runs outside the checkout" step, run from a copy.

The workflow is the one list of those commands. This test reads the
step's script from it, drops its ``pip install .`` line and runs the rest
under ``bash -e`` with a ``tribokit`` shim first on PATH. The shim runs
``python -S`` over a copy of only what the package ships: its modules and
the ``[tool.setuptools.package-data]`` files.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath

from tribokit.cli import CONFIG_ENV

ROOT = Path(__file__).resolve().parents[1]
STEP = "- name: Installed package runs outside the checkout"


def _step_script() -> str:
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    run = next(i for i, line in enumerate(lines) if line.strip() == STEP) + 1
    assert lines[run].strip() == "run: |"
    indent = len(lines[run]) - len(lines[run].lstrip()) + 2
    body = []
    for line in lines[run + 1:]:
        if line.strip() and not line.startswith(" " * indent):
            break
        body.append(line[indent:])
    assert body.count("pip install .") == 1
    return "\n".join(line for line in body if line != "pip install .") + "\n"


def _package_data() -> list[str]:
    pyproject = (ROOT / "pyproject.toml").read_text()
    section = pyproject.split("[tool.setuptools.package-data]", 1)[1]
    return json.loads(re.search(r"^tribokit = (\[.*\])$", section, re.M).group(1))


def _install(into: Path, package_data: list[str]) -> None:
    """Copy the package's modules and the given data globs, as a wheel would."""
    source = ROOT / "src" / "tribokit"
    for path in [*source.glob("*.py"), *(p for g in package_data for p in source.glob(g))]:
        target = into / "tribokit" / path.relative_to(source)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)


def _run_step(tmp_path: Path, package_data: list[str]) -> subprocess.CompletedProcess:
    site, bin_dir, runner_temp = tmp_path / "site", tmp_path / "bin", tmp_path / "runner"
    _install(site, package_data)
    bin_dir.mkdir()
    runner_temp.mkdir()
    shim = bin_dir / "tribokit"
    shim.write_text(f"#!/bin/sh\nexec '{sys.executable}' -S -c "
                    "'import sys; from tribokit.cli import main; sys.exit(main())' \"$@\"\n")
    shim.chmod(0o755)
    env = {key: value for key, value in os.environ.items() if key != CONFIG_ENV}
    env.update(
        PATH=os.pathsep.join([str(bin_dir), env.get("PATH", "")]),
        PYTHONPATH=os.pathsep.join([str(site), os.path.dirname(os.path.dirname(mpmath.__file__))]),
        RUNNER_TEMP=str(runner_temp),
    )
    return subprocess.run(["bash", "-e", "-x", "-c", _step_script()], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def _traced(done: subprocess.CompletedProcess) -> list[str]:
    """The commands bash ran, from its xtrace lines."""
    return [line[2:] for line in done.stderr.splitlines() if line.startswith("+ ")]


def test_installed_package_runs_every_listed_command(tmp_path):
    done = _run_step(tmp_path, _package_data())
    assert done.returncode == 0, done.stderr[-2000:]
    listed = [line for line in _step_script().splitlines() if line.startswith("tribokit ")]
    assert listed
    assert [line for line in _traced(done) if line.startswith("tribokit ")] == listed
    # the examples refused before any evaluation, each run under `timeout 5`
    assert [line for line in _traced(done) if line.startswith("timeout 5 tribokit ")] == [
        f"timeout 5 tribokit {args}" for args in (
            "matrix 1000000000000", "eval S 1000000000000 1000000000000",
            "eval C 1000000000000 1000000000000", "eval S 0 100000000", "expand S 1000000000",
            "verify CONS_3 --range 0:3000", "verify all --range=-3000:0", "roots 4301",
            "roots 1000000", "bench S 1000 1000000000", "bench S 10 1000000000")]


def test_a_copy_without_the_fixtures_fails_at_crosscheck(tmp_path):
    assert _package_data() == ["fixtures/*.txt"]
    done = _run_step(tmp_path, [])
    assert done.returncode != 0
    assert _traced(done)[-1] == "tribokit crosscheck S"
