"""The benchmark tracer's TARGETS must name functions the library still has.

perfbench/tracer.py wraps each listed ``voxgs.<module>.<function>`` by name,
so deleting or renaming one breaks the traced benchmark run. This guard
keeps that failure in the tier-1 suite.
"""

import importlib

import pytest

from perfbench.tracer import TARGETS


@pytest.mark.parametrize(
    "module,name", [(module, name) for module, names in TARGETS.items() for name in names]
)
def test_traced_function_resolves(module, name):
    obj = getattr(importlib.import_module(f"voxgs.{module}"), name, None)
    # CLI commands are traced through their click callback.
    fn = getattr(obj, "callback", obj)
    assert callable(fn) and hasattr(fn, "__code__"), f"voxgs.{module}.{name} is not a function"
