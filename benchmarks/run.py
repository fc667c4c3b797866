"""Benchmark entry point: seeded inputs, fresh-process evaluate runs, checks.

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is used from ``src/`` as it
stands; nothing is installed. Inputs come from ``gen.py`` for the seed and
are written under ``.bench_work/`` (removed afterwards). Each sample is one
``evaluate --config`` call in a new Python process, one at a time, for as
long as ``--seconds`` allows and at least three times.

``--trace 0`` reports the end-to-end metrics (medians over samples).
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones; see README.md for both lists.
Every report is checked (check.py); a sample that exits non-zero or fails a
check counts as failed. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import gen
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = BENCH_DIR / "reference"

MIN_SAMPLES = 3
#: A run must end within three minutes: no sample starts that is expected to
#: end later than RUN_LIMIT_S after the run began, and a child still running
#: at RUN_DEADLINE_S is killed and counted as failed.
RUN_LIMIT_S = 120.0
RUN_DEADLINE_S = 165.0

END_TO_END = (("eval_s", "s"), ("units_per_s", "1/s"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class Sample:
    mode: str
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    timing: dict = field(default_factory=dict)
    report: bytes = b""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def wait_with_usage(proc: subprocess.Popen, timeout: float):
    """Reap ``proc``, killing it after ``timeout`` s: (exit code, usage, killed)."""
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, killed.is_set()


class Runner:
    """Inputs of one (workload, seed) and the evaluate samples taken on them."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.deadline = deadline
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.config_path = gen.generate(workload, seed, self.inputs)
        config = json.loads(self.config_path.read_text(encoding="utf-8"))
        shape = gen.WORKLOADS[workload]
        self.expect = {
            "apis": list(gen.API_NAMES[:shape.apis]),
            "top_ks": list(shape.top_ks),
            "digests": check.input_digests(self.inputs, config),
            "semantic": shape.semantic,
            "reference": load_reference(workload).get(str(seed)),
        }
        self.env = child_env()
        self.count = 0

    def warm_up(self) -> None:
        """Compile the package's bytecode and confirm it is the one under src/."""
        probe = subprocess.run(
            [sys.executable, "-c", "import labeleval.cli, labeleval; "
             "print(labeleval.__file__)"],
            cwd=self.inputs, env=self.env, capture_output=True, text=True,
            timeout=self._time_left())
        location = Path(probe.stdout.strip() or ".").resolve()
        if probe.returncode != 0 or SRC.resolve() not in location.parents:
            raise RuntimeError(f"labeleval does not import from {SRC}: "
                               f"{probe.stderr.strip() or location}")

    def _time_left(self) -> float:
        return max(1.0, self.deadline - time.monotonic())

    def sample(self, mode: str) -> Sample:
        self.count += 1
        directory = self.work / f"sample-{self.count}"
        directory.mkdir()
        result_path = directory / "result.json"
        trace_path = directory / "trace.npz"
        report_path = self.inputs / "report.jsonl"
        report_path.unlink(missing_ok=True)
        command = [sys.executable, str(BENCH_DIR / "child.py"), mode,
                   self.config_path.name, str(result_path), str(trace_path),
                   f"{self.workload}-s{self.seed}-{self.count}"]
        with (directory / "output.log").open("wb") as log:
            proc = subprocess.Popen(command, cwd=self.inputs, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timeout = self._time_left()
            code, usage, timed_out = wait_with_usage(proc, timeout)
        sample = Sample(mode=mode, cpu_s=usage.ru_utime + usage.ru_stime,
                        rss_mb=usage.ru_maxrss / 1024.0)
        if timed_out:
            sample.problems.append(f"killed after {timeout:.0f} s")
        elif code != 0:
            tail = (directory / "output.log").read_text(errors="replace")[-800:]
            sample.problems.append(f"exit code {code}: {tail.strip()}")
        else:
            sample.timing = json.loads(result_path.read_text(encoding="utf-8"))
            sample.report = report_path.read_bytes()
            sample.problems.extend(check.problems(sample.report, **self.expect))
            if mode == "traced":
                sample.trace = spans.layer_metrics(spans.load(trace_path))
        shutil.rmtree(directory, ignore_errors=True)
        return sample


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(samples: list[Sample], units: int) -> dict[str, list[float]]:
    """Per-sample values of each end-to-end metric, over the good samples."""
    good = [s for s in samples if s.ok and s.mode == "plain"]
    return {
        "eval_s": [s.timing["eval_s"] for s in good],
        "units_per_s": [units / s.timing["eval_s"] for s in good],
        "cpu_s": [s.cpu_s for s in good],
        "setup_s": [s.timing["setup_s"] for s in good],
        "peak_rss_mb": [s.rss_mb for s in good],
    }


def per_layer(samples: list[Sample]) -> tuple[dict[str, float | None], list[str]]:
    """Median per-layer metrics; counts must agree across traced samples."""
    traces = [s.trace for s in samples if s.ok and s.trace is not None]
    plain = [s.timing["eval_s"] for s in samples if s.ok and s.mode == "plain"]
    traced = [s.timing["eval_s"] for s in samples if s.ok and s.mode == "traced"]
    found: list[str] = []
    if not traces:
        return {}, found
    metrics: dict[str, float | None] = {}
    for name in traces[0]:
        values = [t[name] for t in traces]
        if name in spans.COUNT_METRICS and len(set(values)) > 1:
            found.append(f"count {name} differs between traced runs: {values}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) if plain else None)
    return metrics, found


def measure(runner: Runner, seconds: float, trace: bool, run_start: float):
    modes = ("plain", "traced") if trace else ("plain",)
    minimum = 1 if trace else MIN_SAMPLES
    samples: list[Sample] = []
    start = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            samples.append(runner.sample(mode))
        rounds += 1
        now = time.monotonic()
        typical = (now - start) / rounds
        if rounds >= minimum and now - start + typical > seconds:
            break
        if now - run_start + typical > RUN_LIMIT_S:
            break
    return samples, time.monotonic() - start


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="labeleval evaluation benchmark")
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "labeleval" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'labeleval'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    run_start = time.monotonic()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(args.workload, args.seed, work, run_start + RUN_DEADLINE_S)
        generated_s = time.monotonic() - run_start
        runner.warm_up()
        samples, measured_s = measure(runner, args.seconds, bool(args.trace), run_start)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = [s for s in samples if not s.ok]
    problems = [f"{s.mode} sample: {p}" for s in failed for p in s.problems]
    if len({s.report for s in samples if s.ok}) > 1:
        problems.append("report bytes differ between runs on the same inputs"
                        + (" (traced against untraced)" if args.trace else ""))
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} evaluate runs "
          f"in {measured_s:.1f} s; inputs generated in {generated_s:.1f} s; "
          f"reference {'compared' if runner.expect['reference'] else 'not committed'}")
    if args.trace:
        layer, count_problems = per_layer(samples)
        problems.extend(count_problems)
        metrics = {name: {"value": layer.get(name), "unit": unit}
                   for name, unit in spans.PER_LAYER.items()}
    else:
        values = end_to_end(samples, gen.units(args.workload))
        metrics = {name: {"value": _median(values[name]), "unit": unit}
                   for name, unit in END_TO_END}
    for name, entry in metrics.items():
        spread = ""
        if not args.trace and values[name]:
            spread = (f"  (median of {len(values[name])}; min {_fmt(min(values[name]))}"
                      f", max {_fmt(max(values[name]))})")
        print(f"  {name:38} {_fmt(entry['value']):>14} {entry['unit']}{spread}")
    print(f"  {'fail_rate':38} {len(failed) / len(samples):>14.6g} ratio "
          f"({len(failed)} of {len(samples)} runs)")
    for problem in problems:
        print(f"  FAIL {problem}", file=sys.stderr)
    correct = not problems and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
