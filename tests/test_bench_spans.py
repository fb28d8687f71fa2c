"""The benchmark's span wrappers (perfbench/spans.py) replace package
functions by attribute name, so renaming one breaks the benchmark's
self-check. This test makes such a rename fail the tier-1 suite too."""

import importlib
from pathlib import Path

import rigideq.lincircuit as lc
import rigideq.poly as poly
from rigideq import PrimeField, universal_graph


def test_tracer_wrappers_install_by_name(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("spans").Tracer()
    tracer.install()
    try:
        lc.universal_map(universal_graph(PrimeField(101), 1, 1, L=1, w=1))
    finally:
        tracer.uninstall()
    assert tracer.counts["poly.packed_weighted_sum.calls"] > 0
    assert tracer.counts["lincircuit.universal_map.terms"] > 0
    assert lc.packed_weighted_sum is poly.packed_weighted_sum
