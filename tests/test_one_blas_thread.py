"""Importing labeleval loads numpy's BLAS with one thread, and leaves the
caller's environment as it found it.

Each case runs in a fresh interpreter, since BLAS reads its thread count
once, as numpy loads it. Threads are counted from ``/proc/self/task``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import street_scene

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted from /proc/self/task")

PROBE = """
import json, os, sys
{imports}
print(json.dumps({{"threads": len(os.listdir("/proc/self/task")),
                   "environ": {{name: os.environ.get(name) for name in {names!r}}}}}))
"""


def child_env(**settings: str) -> dict:
    """The test's environment without the BLAS variables, plus ``settings``."""
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(settings)
    return env


def probe(imports: str, **settings: str) -> dict:
    """Thread count and BLAS variables of a fresh interpreter after ``imports``."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(imports=imports, names=BLAS_VARIABLES)],
        env=child_env(**settings), capture_output=True, text=True, timeout=120,
        check=True)
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def one_thread_reference():
    """Threads of a process whose numpy was loaded with every variable at 1."""
    return probe("import numpy", **dict.fromkeys(BLAS_VARIABLES, "1"))["threads"]


@needs_proc
@pytest.mark.parametrize("imports", ["import labeleval", "import labeleval.harness"])
def test_the_first_import_loads_one_blas_thread(imports, one_thread_reference):
    seen = probe(imports)
    assert seen["threads"] == one_thread_reference
    assert seen["environ"] == dict.fromkeys(BLAS_VARIABLES)


@needs_proc
@pytest.mark.parametrize("name", BLAS_VARIABLES)
def test_a_callers_setting_is_kept(name):
    """The caller's variable keeps its value; only the others read 1 as numpy
    loads. OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so a
    caller's OMP_NUM_THREADS alone does not thread it."""
    reference = probe("import numpy", **{**dict.fromkeys(BLAS_VARIABLES, "1"), name: "2"})
    seen = probe("import labeleval", **{name: "2"})
    assert seen["threads"] == reference["threads"]
    assert seen["environ"] == {**dict.fromkeys(BLAS_VARIABLES), name: "2"}


@needs_proc
def test_a_callers_openblas_threads_are_kept():
    reference = probe("import numpy", OPENBLAS_NUM_THREADS="2")
    assert probe("import labeleval", OPENBLAS_NUM_THREADS="2") == reference


@needs_proc
def test_numpy_imported_first_is_left_alone():
    reference = probe("import numpy")
    seen = probe("import numpy\nimport labeleval")
    assert seen == reference


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path, fixture_files,
                                                        fixture_model_file):
    """Semantic, label-based and WMD scores, each run in its own process."""
    reports = []
    for settings in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"report-{len(reports)}"
        argv = [sys.executable, "-m", "labeleval.cli", "evaluate",
                "--ground-truth", str(fixture_files["truth"]),
                "--embeddings", str(fixture_model_file),
                "--top-k", "1,3,5", "--out", str(out), "--format", "json_lines"]
        for path in fixture_files["predictions"]:
            argv += ["--predictions", str(path)]
        subprocess.run(argv, env=child_env(**settings), capture_output=True,
                       timeout=120, check=True)
        reports.append((tmp_path / f"report-{len(reports)}.jsonl").read_bytes())
    first = [json.loads(line) for line in reports[0].splitlines()]
    assert len(first) == len(street_scene.PREDICTIONS) * 3
    assert all({"f1_semantic", "macro_f1", "wmd"} <= set(record["metrics"])
               for record in first), first[0]["metrics"].keys()
    assert reports[1] == reports[0]
