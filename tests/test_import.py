"""What a fresh interpreter loads: commands other than ``compare`` never
import scipy, and ``compare``'s ranking never imports ``scipy.stats``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import sentagree

PROBE = """
import json, sys
import sentagree.cli
after_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from sentagree import ranking
table = ranking.ScoreTable([[0.9, 0.5, 0.5], [0.7, 0.8, 0.1]], ("d1", "d2"), ("a", "b", "c"))
summary = ranking.friedman(table)
print(json.dumps({"after_import": after_import, "stats_loaded": "scipy.stats" in sys.modules,
                  "p_value": summary.p_value}))
"""


def test_cli_import_loads_no_scipy_and_friedman_no_scipy_stats() -> None:
    source_root = str(Path(sentagree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                            timeout=120, check=True)
    probe = json.loads(result.stdout.splitlines()[-1])
    assert probe["after_import"] == []
    assert probe["stats_loaded"] is False
    assert 0.0 < probe["p_value"] <= 1.0
