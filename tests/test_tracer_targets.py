"""Every callable the benchmark tracer wraps still exists in the package.

``benchmarks/spans.py`` names its targets as "layer.attribute" (or
"layer.Class.method"); a name that no longer resolves is reported absent and
its per-layer metrics silently read 0. This reads that list as it stands and
resolves each name the way the tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets())
def test_target_resolves(target):
    layer, _, attr = target.partition(".")
    module = importlib.import_module(f"labeleval.{layer}")
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert isinstance(owner, type), f"{target}: {owner_name} is not a class"
        raw = vars(owner).get(method)
        assert isinstance(raw, classmethod) or callable(raw), target
    else:
        assert callable(getattr(module, attr, None)), target
