"""Record the reference reports that run.py compares each run against.

    python3 benchmarks/record_reference.py [--workload NAME] [--seeds 0-10]

Reports are deterministic, so a seed's reference is simply the report the
program produces for it, kept compactly in reference/<workload>.json. Record
again only for a change that is meant to alter report values, and say so:
otherwise a mismatch is a defect the check exists to catch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import check
import gen
import run


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), action="append")
    parser.add_argument("--seeds", default="0-10")
    args = parser.parse_args()
    for workload in args.workload or list(gen.WORKLOADS):
        entries = {}
        for seed in _seeds(args.seeds):
            work = run.WORK / f"reference-{workload}-{seed}-{os.getpid()}"
            try:
                runner = run.Runner(workload, seed, work,
                                    time.monotonic() + run.RUN_DEADLINE_S)
                runner.expect["reference"] = None
                runner.warm_up()
                sample = runner.sample("plain")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not sample.ok:
                print(f"{workload} seed {seed}: {sample.problems}", file=sys.stderr)
                return 1
            entries[str(seed)] = check.reference_entry(check.parse(sample.report))
            print(f"{workload} seed {seed}: recorded", flush=True)
        lines = [f"{json.dumps(seed)}: {json.dumps(entry, separators=(',', ':'))}"
                 for seed, entry in entries.items()]
        run.REFERENCE_DIR.mkdir(exist_ok=True)
        (run.REFERENCE_DIR / f"{workload}.json").write_text(
            "{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
