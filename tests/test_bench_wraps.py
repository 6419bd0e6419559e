"""The entry points the traced benchmark wraps exist, and are restored.

``perfbench/spans.py`` replaces module attributes of the package with
span-recording wrappers around each traced round.  A function that is
renamed or pruned would fail the traced run with ``AttributeError``;
this test makes it fail here too.  The bench module is only read.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from sentagree import agreement, classify, cli, corpus, evaluation, ranking

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = (agreement, classify, cli, corpus, evaluation, ranking)


def test_every_wrapped_entry_point_exists_and_is_restored(monkeypatch) -> None:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache file is written next to the bench
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    before = [dict(vars(module)) for module in MODULES]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # a wrapped name that is gone raises AttributeError
        during = [dict(vars(module)) for module in MODULES]
    finally:
        tracer.uninstall()
    after = [dict(vars(module)) for module in MODULES]

    wrapped = set()
    for module, old, new in zip(MODULES, before, during):
        assert new.keys() == old.keys(), module.__name__  # every wrapped attribute existed
        wrapped |= {(module.__name__, name) for name in old if new[name] is not old[name]}
    assert {("sentagree.cli", "main"), ("sentagree.corpus", "load_gold"),
            ("sentagree.evaluation", "time_ordered_chunks"), ("sentagree.classify", "train_binary")} <= wrapped
    for module, old, new in zip(MODULES, before, after):
        assert new.keys() == old.keys() and all(new[name] is old[name] for name in old), module.__name__
