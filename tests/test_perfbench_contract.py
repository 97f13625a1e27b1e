"""The names the benchmark tracer patches must exist in the package.

`perfbench/run.py --trace 1` looks each (module, attribute) of
`perfbench/tracer.TRACED` up with getattr, so deleting or renaming one of
them would break the traced run without failing any other test.  The
tracer file is only read here, never changed.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("name", tracer.MODULES)
def test_traced_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("module, attribute, span",
                         [pytest.param(*entry, id=entry[2] + ":" + entry[1])
                          for entry in tracer.TRACED])
def test_traced_attribute_resolves(module, attribute, span):
    owner = importlib.import_module("cmvscatter." + module)
    assert callable(reduce(getattr, attribute.split("."), owner)), span
