"""README's "Library at a glance" block runs as written.

The block is read from README.md and run in a temporary directory that
holds a generated ``annotations.csv``, so a change of the API that the
README does not follow fails here.  The table comes from the benchmark's
generator (``perfbench/gen.py``), which is only read.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library at a glance", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_block_of_the_readme_runs(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache file is written next to the generator
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclasses look their module up there
    spec.loader.exec_module(gen)
    gen.write_table(tmp_path / "annotations.csv", 600, 0)
    monkeypatch.chdir(tmp_path)
    exec(compile(library_block(), "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert (tmp_path / "model.json").exists()
    assert [line.split()[0] for line in printed[-2:]] == ["500", "600"]  # the curve's two prefixes
