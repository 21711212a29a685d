"""Names the benchmark tracer patches must exist in texelkit.

perfbench/spans.py wraps texelkit functions by module and attribute name.
A rename in texelkit would make every traced benchmark run fail, so each
listed name is resolved here against the imported package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TRACED = [
    pytest.param(module, attr, id=name)
    for name, module, attr in SPANS.SPANNED + SPANS.COUNTED
]


@pytest.mark.parametrize("module, attr", TRACED)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    *classes, attr = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # a method is patched through the class __dict__, so look it up there
    target = vars(owner).get(attr) if classes else getattr(owner, attr, None)
    assert callable(target), f"{module}.{'.'.join([*classes, attr])} is missing"
