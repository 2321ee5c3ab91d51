"""One benchmark repetition in a fresh interpreter.

Usage: child.py SRC_DIR RESULT_JSON TRACE(0|1) SPANS_JSON -- CLI_ARGS...

Imports dramastyle from SRC_DIR, stamps the monotonic clock at the end of
the import (the parent started its clock just before spawning this
process), optionally installs the tracer, runs `dramastyle.cli.main` on
CLI_ARGS and writes timings, peak memory and the traced work to RESULT_JSON.

A timer runs a short slice of reference work (speed.py) every
SLICE_EVERY_S during the import and during the run. The slices' durations
tell the parent how fast the machine ran in each phase. Their total is
subtracted from each phase's wall time, so only the program's time is
reported.
"""
import signal
import sys
import time

from speed import reference_work

SLICE_ROUNDS = 1  # reference rounds per timer tick
SLICE_EVERY_S = 0.05


def main() -> int:
    src, result_path, trace, spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py SRC RESULT TRACE SPANS -- CLI_ARGS...")
    slices: list[float] = []

    def probe(signum, frame):
        slices.append(reference_work(SLICE_ROUNDS))

    signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, SLICE_EVERY_S, SLICE_EVERY_S)
    sys.path.insert(0, src)
    import dramastyle  # noqa: F401  (the set-up being measured)
    import dramastyle.cli
    import_done = time.monotonic()
    setup_slices = slices[:]

    import json
    import os
    import resource

    if not os.path.abspath(dramastyle.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"dramastyle imported from {dramastyle.__file__}, not {src}")
    tracer = None
    if trace == "1":
        from tracer import Tracer, layer_summary

        tracer = Tracer()
        tracer.install("dramastyle")

    first_run_slice = len(slices)
    start = time.perf_counter()
    try:
        rc = dramastyle.cli.main(cli_args)
    finally:
        run_wall = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    run_slices = slices[first_run_slice:]

    result = {
        "import_done": import_done - sum(setup_slices),
        "run_s": run_wall - sum(run_slices),
        "run_wall": run_wall,
        "slice_rounds": SLICE_ROUNDS,
        "setup_slices": setup_slices,
        "run_slices": run_slices,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = layer_summary(tracer.spans)
        result["spans"] = len(tracer.spans)
        result["work"] = _work(tracer.results)
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0 if rc == 0 else 1


def _work(results) -> dict:
    """Work counts read from the traced calls' return values."""
    turns = tokens = 0
    vocab: dict[str, set] = {}
    for r in results:
        if hasattr(r, "turns") and hasattr(r, "play_id"):
            turns += len(r.turns)
        elif hasattr(r, "counts") and hasattr(r, "total") and hasattr(r, "mode"):
            tokens += r.total
            vocab.setdefault(r.mode.name, set()).update(r.counts)
    return {"turns": turns, "tokens": tokens,
            "vocab": {mode: len(v) for mode, v in sorted(vocab.items())}}


if __name__ == "__main__":
    sys.exit(main())
