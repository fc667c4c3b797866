"""Self-tests of the benchmark: python3 -m pytest benchmarks -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def small_grid(tmp_path_factory):
    """A four-image grid input and the report this commit produces for it."""
    inputs = tmp_path_factory.mktemp("grid")
    config = gen.generate("grid", 7, inputs, images=4)
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "plain",
                    config.name, str(inputs / "result.json")],
                   cwd=inputs, env=run.child_env(), check=True)
    return inputs, (inputs / "report.jsonl").read_bytes()


def _expect(inputs: Path, reference=None) -> dict:
    config = json.loads((inputs / "config.json").read_text())
    return {"apis": list(gen.API_NAMES[:4]), "top_ks": [1, 3, 5],
            "digests": check.input_digests(inputs, config), "semantic": True,
            "reference": reference}


@pytest.mark.parametrize("workload", ["grid", "labels-sentence"])
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 3, tmp_path / "a", images=5)
    gen.generate(workload, 3, tmp_path / "b", images=5)
    gen.generate(workload, 4, tmp_path / "c", images=5)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first["truth.jsonl"] != _files(tmp_path / "c")["truth.jsonl"]


def test_text_store_fields_parse_back(tmp_path):
    values = np.array([[0.123456, -0.98765, 0.0, -0.00004, 0.999999, -1.0]])
    line = gen._fixed_width(values)[0].tobytes().decode("ascii")
    fields = line.rstrip("\n").split(" ")
    assert line.endswith("\n") and len({len(f) for f in fields}) == 1
    np.testing.assert_allclose([float(f) for f in fields], values[0], atol=1e-4)


def test_checker_accepts_reference_and_rejects_perturbed_cell(small_grid):
    inputs, report = small_grid
    reference = check.reference_entry(check.parse(report))
    assert check.problems(report, **_expect(inputs, reference)) == []

    rows = check.parse(report)
    rows[2]["metrics"]["recall"] += 1e-9
    perturbed = "".join(json.dumps(row) + "\n" for row in rows).encode()
    found = check.problems(perturbed, **_expect(inputs, reference))
    assert found and "recall" in found[0]


def test_checker_rejects_wrong_digest_and_missing_row(small_grid):
    inputs, report = small_grid
    expect = _expect(inputs)
    expect["digests"] = dict(expect["digests"], embeddings_digest="0" * 64)
    assert check.problems(report, **expect)
    truncated = b"".join(report.splitlines(keepends=True)[1:])
    assert check.problems(truncated, **_expect(inputs))


def test_traced_and_untraced_reports_are_byte_identical(small_grid, tmp_path):
    inputs, report = small_grid
    trace_path = tmp_path / "trace.npz"
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), "traced",
                    "config.json", str(tmp_path / "result.json"), str(trace_path),
                    "test-run"], cwd=inputs, env=run.child_env(), check=True)
    assert (inputs / "report.jsonl").read_bytes() == report
    trace = spans.load(trace_path)
    assert trace["run_id"] == "test-run" and trace["absent"] == []
    metrics = spans.layer_metrics(trace)
    assert metrics["harness.units"] == 4 * 3 * 4
    assert metrics["wmd.solve_calls"] == metrics["wmd.pairs_used"] == 4 * 3 * 4
    assert metrics["embeddings.rows_loaded"] == 20_000


def test_self_time_subtracts_union_of_children():
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 2.0, 1.5])
    end = np.array([10.0, 4.0, 5.0, 2.0])  # children 1 and 2 overlap
    np.testing.assert_allclose(spans.self_times(parent, start, end),
                               [6.0, 2.5, 3.0, 0.5])


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "wmd.py").write_text("def dataset_wmd(pairs):\n    return len(pairs)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.wmd

    recorder = spans.Recorder("absent-test")
    recorder.install("fakepkg")
    # The fake returns an int where the counter hook expects DatasetWmd.
    assert fakepkg.wmd.dataset_wmd([1, 2]) == 2
    assert fakepkg.wmd.dataset_wmd([3]) == 1
    assert "wmd.dataset_wmd" not in recorder.absent
    assert "wmd.dataset_wmd (counters)" in recorder.absent
    assert "wmd.solve_transport" in recorder.absent
    recorder.save(tmp_path / "trace.npz")
    metrics = spans.layer_metrics(spans.load(tmp_path / "trace.npz"))
    assert metrics["trace.spans"] == 2 and metrics["wmd.solve_calls"] == 0
    assert metrics["wmd.pairs_used"] == 0
    assert metrics["trace.absent_targets"] == len(spans.TARGETS)
    for name in [n for n in sys.modules if n.startswith("fakepkg")]:
        monkeypatch.delitem(sys.modules, name)


def test_manifest_lists_every_metric():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in manifest["workloads"]] == list(gen.WORKLOADS)
    empty = {"names": [], "absent": [], "counters": {},
             "name": np.empty(0, np.int32), "parent": np.empty(0, np.int32),
             "start": np.empty(0), "end": np.empty(0)}
    derived = set(spans.layer_metrics(empty)) | {"trace.overhead_ratio"}
    assert derived == set(spans.PER_LAYER)
