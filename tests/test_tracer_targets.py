"""Every callable the benchmark tracer wraps still exists in the package,
and its counter hooks still fit the code.

``benchmarks/spans.py`` names its targets as "layer.attribute" (or
"layer.Class.method"); a name that no longer resolves is reported absent and
its per-layer metrics silently read 0. This reads that list as it stands and
resolves each name the way the tracer does. A hook whose target's arguments
or result changed shape is listed as "<target> (counters)" and its counters
stop, so a traced run must list nothing absent.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

from helpers import BENCH_DIR, bench_module

SRC = BENCH_DIR.parent / "src"


@pytest.mark.parametrize("target", bench_module("spans").TARGETS)
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


@pytest.mark.parametrize("workload", ["grid", "labels-sentence"])
def test_counter_hooks_fit_a_traced_run(tmp_path, workload):
    """``benchmarks/child.py traced`` on a four-image input: no target or
    hook is absent, and ``harness.units`` counts every (api, k, image)."""
    images = 4
    config_path = bench_module("gen").generate(workload, 1, tmp_path / "inputs",
                                               images=images)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    trace_path = tmp_path / "trace.npz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "traced",
                    config_path.name, str(tmp_path / "result.json"), str(trace_path),
                    "counter-guard"], cwd=config_path.parent, env=env, check=True)
    trace = bench_module("spans").load(trace_path)
    assert trace["absent"] == []
    assert trace["counters"]["harness.units"] == (
        len(config["predictions"]) * len(config["top_ks"]) * images)
