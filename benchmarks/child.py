"""One evaluate call, as a user runs it, in a process of its own.

Usage: child.py {plain|traced} CONFIG RESULT_JSON [TRACE_NPZ RUN_ID]

Runs ``labeleval.cli.main(["evaluate", "--config", CONFIG])`` in the current
directory and writes timings to RESULT_JSON. ``plain`` times only the import
of the package and the run's ``load_model`` call (set-up) besides the call as
a whole; ``traced`` also records spans of every module's functions and
writes them to TRACE_NPZ. The exit code is the CLI's, or 70 when the plain
run did not observe its ``load_model`` call.
"""

from __future__ import annotations

import json
import sys
import time

NOT_OBSERVED = 70


def _time_load_model(harness, timings: list[float]) -> bool:
    """Time the model load at the name the harness looks it up by."""
    original = getattr(harness, "load_model", None)
    if original is None:
        return False

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            timings.append(time.perf_counter() - start)

    harness.load_model = timed
    return True


def main(argv: list[str]) -> int:
    mode, config, result_path = argv[:3]
    start = time.perf_counter()
    import labeleval.cli
    import labeleval.harness
    import_s = time.perf_counter() - start

    load_timings: list[float] = []
    recorder = None
    if mode == "traced":
        import spans

        recorder = spans.Recorder(argv[4])
        recorder.install()
    else:
        _time_load_model(labeleval.harness, load_timings)

    start = time.perf_counter()
    code = labeleval.cli.main(["evaluate", "--config", config])
    eval_s = time.perf_counter() - start

    result = {"exit": code, "eval_s": eval_s}
    if recorder is not None:
        recorder.save(argv[3])
    elif code == 0:
        if len(load_timings) != 1:
            print(f"set-up not measured: load_model was called {len(load_timings)} "
                  "times through labeleval.harness, expected once", file=sys.stderr)
            code = NOT_OBSERVED
        else:
            result["setup_s"] = import_s + load_timings[0]
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
