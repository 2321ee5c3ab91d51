#!/usr/bin/env python3
"""dramastyle benchmark: time to report, set-up time and memory per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload scale_perm --seed 1 --seconds 40 --trace 0

Generates the workload's corpus from --seed under perfbench/.work/, then
runs `dramastyle run` in a fresh child process per repetition, one child at
a time, until --seconds have passed. Every repetition's outputs are checked
(exit code, artifacts, matrix symmetry, p-value range, identical digests).

--trace 0 reports the end-to-end metrics (medians over repetitions):
  run_s        wall time of `dramastyle.cli.main` after import
  setup_s      fresh interpreter to the end of `import dramastyle.cli`
  peak_rss_mb  peak resident memory of the child
Both times are rescaled to a reference interpreter speed measured during
each phase (see speed.py and perfbench/README.md).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (see perfbench/README.md).

The last stdout line is the result JSON; the line before it is a detail
record (shape, digest, environment, run_s tail, failures), also written to
perfbench/.work/results/. Exits 1 if any repetition failed a check and 2 if
the repository's sources are missing.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from corpus import WORKLOADS, Workload, generate  # noqa: E402
from speed import ROUND_S  # noqa: E402
from tracer import LAYERS  # noqa: E402

CHILD_TIMEOUT_S = 150  # warm-up import
CHILD_DEADLINE_S = 150  # a repetition is killed this long after the measuring loop began
MIN_REPS = 2  # per kind (untraced / traced), whatever --seconds says


def _cores() -> int:
    return len(os.sched_getaffinity(0))


def _cli_args(w: Workload, config: Path, out: Path) -> list[str]:
    args = ["run", "--config", str(config), "--out", str(out),
            "--jobs", str(_cores() if w.parallel else 1)]
    if w.compare_translations:
        args.append("--compare-translations")
    return args


class Repetition:
    """Spawn one child, wait for it, read its result file."""

    def __init__(self, w: Workload, work: Path, config: Path, index: int, traced: bool):
        self.work, self.index, self.traced = work, index, traced
        self.out = work / "out"
        self.artifacts = self.out / w.name  # the config's experiment_id
        self.result_path = work / f"rep{index}.json"
        self.spans_path = work / f"spans{index}.json"
        self.log_path = work / f"rep{index}.log"
        self.cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(self.result_path),
                    "1" if traced else "0", str(self.spans_path), "--",
                    *_cli_args(w, config, self.out)]

    def run(self, env: dict, timeout: float) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        with open(self.log_path, "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(self.cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    cwd=self.work)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                rc = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - t0
        rep = {"index": self.index, "traced": self.traced, "rc": rc, "wall_s": wall}
        if rc == 0:
            rep.update(json.loads(self.result_path.read_text(encoding="utf-8")))
            rep["setup_s"] = rep.pop("import_done") - t0
        return rep


def _rescale(rep: dict) -> None:
    """Express set-up, run and layer times at the reference speed (see speed.py).

    A phase's speed is the mean, over the reference slices timed during it,
    of nominal slice time / measured slice time: the mean rate at which the
    machine did work. Layer self times, which include the slices that fell
    inside their spans, are scaled so that they sum to the rescaled run time.
    """
    nominal = rep["slice_rounds"] * ROUND_S

    def speed(slices: list[float], default: float) -> float:
        return statistics.fmean(nominal / s for s in slices) if slices else default

    setup_slices, run_slices = rep.pop("setup_slices"), rep.pop("run_slices")
    rep["setup_speed"] = speed(setup_slices, 1.0)
    rep["speed"] = speed(run_slices, rep["setup_speed"])
    rep["slices"] = len(setup_slices) + len(run_slices)
    rep["run_s_raw"], rep["setup_s_raw"] = rep["run_s"], rep["setup_s"]
    rep["run_s"] *= rep["speed"]
    rep["setup_s"] *= rep["setup_speed"]
    if "layers" in rep:
        share = rep["run_s"] / rep["run_wall"]
        for row in rep["layers"].values():
            row["self_s"] *= share


# ---------------------------------------------------------------- checks

def check_outputs(w: Workload, out: Path) -> tuple[list[str], dict]:
    """Problems found in one repetition's artifacts, and the shape they show."""
    problems: list[str] = []
    shape: dict = {}
    if w.compare_translations:
        expected = ["cross_attribution.csv"]
    else:
        expected = ["chunk_manifest.csv", "report.json", "run_meta.json",
                    *(f"matrix_{m}.csv" for m in w.mode_names)]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts {missing}"], shape

    if w.compare_translations:
        with open(out / "cross_attribution.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != w.chunks * len(w.modes):
            problems.append(f"cross table has {len(rows)} rows, want {w.chunks * len(w.modes)}")
        for row in rows:
            if float(row["nearest_foreign_score"]) < 0:
                problems.append(f"negative score for {row['chunk_id']}")
            if row["nearest_foreign_category"] == row["own_category"]:
                problems.append(f"{row['chunk_id']}: nearest foreign is its own category")
        shape["eligible_speakers"] = len({(r["play_id"], r["translator"], r["speaker"]) for r in rows})
        shape["categories"] = len({r["own_category"] for r in rows})
        shape["chunks"] = len({r["chunk_id"] for r in rows})
    else:
        with open(out / "chunk_manifest.csv", newline="", encoding="utf-8") as f:
            manifest = list(csv.DictReader(f))
        shape["eligible_speakers"] = len({(r["play_id"], r["translator"], r["speaker"])
                                          for r in manifest})
        shape["categories"] = len({r["category"] for r in manifest})
        shape["chunks"] = len(manifest)
        for mode in w.mode_names:
            problems += _check_matrix(out / f"matrix_{mode}.csv", w.chunks)
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems += _check_p_values(report, w)
    if shape["chunks"] != w.chunks:
        problems.append(f"{shape['chunks']} chunks, want {w.chunks}")
    if shape["eligible_speakers"] != w.eligible_speakers:
        problems.append(f"{shape['eligible_speakers']} eligible speakers, want {w.eligible_speakers}")
    n = shape["chunks"]
    shape["pairs"] = n * (n - 1) // 2 * len(w.modes)
    shape["permutations"] = 0 if w.compare_translations else w.permutations
    return problems, shape


def _check_matrix(path: Path, n: int) -> list[str]:
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    ids = header[1:]
    if len(ids) != n or len(rows) != n:
        return [f"{path.name}: {len(rows)}x{len(ids)}, want {n}x{n}"]
    problems = []
    for i, row in enumerate(rows):
        if row[0] != ids[i] or len(row) != n + 1:
            return [f"{path.name}: row {i} malformed"]
        if float(row[i + 1]) != 0.0:
            problems.append(f"{path.name}: non-zero diagonal at {ids[i]}")
        for j in range(i + 1, n):
            if row[j + 1] != rows[j][i + 1]:
                problems.append(f"{path.name}: asymmetric at ({ids[i]}, {ids[j]})")
            if float(row[j + 1]) < 0:
                problems.append(f"{path.name}: negative score at ({ids[i]}, {ids[j]})")
    return problems[:10]


def _check_p_values(report: dict, w: Workload) -> list[str]:
    lo = 1.0 / (w.permutations + 1)
    problems = []
    if sorted(report["modes"]) != sorted(w.mode_names):
        problems.append(f"report modes {sorted(report['modes'])}, want {sorted(w.mode_names)}")
    for mode, section in report["modes"].items():
        for cat in section["categories"]:
            for key in ("rank_sum_p", "attribution_p"):
                p = cat[key]
                if not lo - 1e-12 <= p <= 1.0:
                    problems.append(f"{mode}/{cat['category']}: {key}={p} outside [{lo}, 1]")
    return problems


def output_digest(w: Workload, out: Path, work: Path) -> str:
    """sha256 over report.json and the matrix or cross CSVs.

    The run's own directory, which the report records in its config, is
    replaced by a placeholder so checkouts in different places agree.
    """
    if w.compare_translations:
        names = ["cross_attribution.csv"]
    else:
        names = ["report.json", *(f"matrix_{m}.csv" for m in w.mode_names)]
    h = hashlib.sha256()
    for name in names:
        data = (out / name).read_bytes().replace(str(work).encode(), b"<work>")
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- metrics

def _median(values):
    return statistics.median(values) if values else None


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    out = {"samples": n, "median": _median(xs), "tail_percentile": None, "tail_value": None,
           "values": list(values)}
    if n > 10:
        k = n - 10  # samples at or below the reported one
        out["tail_percentile"] = 100.0 * k / n
        out["tail_value"] = xs[k - 1]
    return out


def per_layer(traced: list[dict], plain: list[dict], w: Workload, shape: dict,
              ingest_bytes: int) -> dict:
    def med(fn):
        return _median([fn(r) for r in traced])

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (med(lambda r: r["layers"][layer]["self_s"]), "s")
        m[f"{layer}.calls"] = (med(lambda r: r["layers"][layer]["calls"]), "count")
        m[f"{layer}.errors"] = (med(lambda r: r["layers"][layer]["errors"]), "count")
    null_evals = w.permutations * shape["categories"] * 2 * len(w.modes) \
        if not w.compare_translations else 0
    homog_s = m["homogeneity.self_s"][0]
    m["homogeneity.null_evals"] = (null_evals, "count")
    m["homogeneity.null_evals_per_s"] = (null_evals / homog_s if homog_s else 0.0, "1/s")
    m["similarity.pairs"] = (shape["pairs"], "count")
    m["similarity.us_per_pair"] = (1e6 * m["similarity.self_s"][0] / shape["pairs"], "us")
    m["tokenization.tokens"] = (med(lambda r: r["work"]["tokens"]), "count")
    for mode in sorted({m for wl in WORKLOADS.values() for m in wl.mode_names}):
        m[f"tokenization.vocab.{mode}"] = (med(lambda r: r["work"]["vocab"].get(mode, 0)), "count")
    m["ingest.bytes"] = (ingest_bytes, "B")
    m["ingest.turns"] = (med(lambda r: r["work"]["turns"]), "count")
    m["ingest.mb_per_s"] = (ingest_bytes / 1e6 / m["ingest.self_s"][0], "MB/s")
    m["segmentation.chunks"] = (shape["chunks"], "count")
    traced_run = med(lambda r: r["run_s"])
    plain_run = _median([r["run_s"] for r in plain])
    m["trace_overhead_frac"] = (traced_run / plain_run - 1.0, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def environment(seed: int) -> dict:
    env = {"nproc": _cores(), "python": platform.python_version(), "seed": seed,
           "machine": platform.machine()}
    for dist in ("numpy", "scipy"):
        try:
            env[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            env[dist] = None
    env["commit"] = _commit()
    env["source_sha256"] = _source_digest()
    return env


def _source_digest() -> str:
    """sha256 over the package's sources, which names the code when there is no .git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dramastyle").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout if it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


# ---------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dramastyle" / "__init__.py").is_file():
        print(f"error: no dramastyle sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results_dir = HERE / ".work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _measure(w, args, work, results_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(w: Workload, args, work: Path, results_dir: Path) -> int:
    config = generate(w, args.seed, work / "corpus")
    ingest_bytes = sum(p.stat().st_size for p in (work / "corpus").glob("*.txt"))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children reuse the warm-up's bytecode

    # warm-up: compile bytecode and fill the page cache; users do not pay this per run
    warm = subprocess.run([sys.executable, "-c", "import dramastyle.cli"], env=env, cwd=work,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: cannot import dramastyle from {SRC}:\n{warm.stderr}", file=sys.stderr)
        return 2

    reps: list[dict] = []
    failures: list[str] = []
    digest = None
    shape: dict = {}
    last_spans = None
    start = time.monotonic()
    while True:
        n_traced = sum(r["traced"] for r in reps)
        enough = len(reps) - n_traced >= MIN_REPS and (n_traced >= MIN_REPS or not args.trace)
        elapsed = time.monotonic() - start
        mean_wall = statistics.fmean(r["wall_s"] for r in reps) if reps else 0.0
        if enough and elapsed + mean_wall > args.seconds:
            break
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep_obj = Repetition(w, work, config, len(reps), traced)
        rep = rep_obj.run(env, timeout=max(10.0, CHILD_DEADLINE_S - elapsed))
        problems: list[str] = []
        if rep["rc"] != 0:
            problems.append(f"exit code {rep['rc']}: {_log_tail(rep_obj.log_path)}")
        else:
            _rescale(rep)
            problems, rep_shape = check_outputs(w, rep_obj.artifacts)
            if not problems:
                d = output_digest(w, rep_obj.artifacts, work)
                digest = digest or d
                if d != digest:
                    problems.append(f"digest {d} differs from first repetition {digest}")
                shape = shape or rep_shape
        rep["ok"] = not problems
        if problems:
            failures.append(f"rep {rep['index']}: " + "; ".join(problems[:5]))
        elif traced:
            last_spans = rep_obj.spans_path
        reps.append(rep)

    if last_spans is not None:
        shutil.copyfile(last_spans, results_dir / f"{w.name}-s{args.seed}-spans.json")
    ok_plain = [r for r in reps if r["ok"] and not r["traced"]]
    ok_traced = [r for r in reps if r["ok"] and r["traced"]]
    failed = sum(not r["ok"] for r in reps)
    shape["bytes"] = ingest_bytes
    if ok_traced:
        shape["vocab"] = ok_traced[-1]["work"]["vocab"]

    detail = {
        "workload": w.name,
        "trace": args.trace,
        "environment": environment(args.seed),
        "shape": shape,
        "digest": digest,
        "attempted": len(reps),
        "failed": failed,
        "failed_frac": failed / len(reps),
        "failures": failures,
        "run_s": tail([r["run_s"] for r in ok_plain]),
        "setup_s": tail([r["setup_s"] for r in ok_plain]),
        "peak_rss_mb": tail([r["peak_rss_mb"] for r in ok_plain]),
        "run_s_raw": tail([r["run_s_raw"] for r in ok_plain]),
        "setup_s_raw": tail([r["setup_s_raw"] for r in ok_plain]),
        "speed": tail([r["speed"] for r in ok_plain]),
        "measured_s": time.monotonic() - start,
    }
    if ok_traced:
        detail["traced_run_s"] = tail([r["run_s"] for r in ok_traced])
        detail["spans_per_rep"] = ok_traced[-1]["spans"]

    correct = failed == 0 and bool(ok_plain) and (bool(ok_traced) or not args.trace)
    if not correct:
        metrics = {}
    elif args.trace:
        metrics = per_layer(ok_traced, ok_plain, w, shape, ingest_bytes)
    else:
        metrics = {
            "run_s": {"value": detail["run_s"]["median"], "unit": "s"},
            "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": detail["peak_rss_mb"]["median"], "unit": "MB"},
        }
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    (results_dir / f"{w.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _log_tail(path: Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(encoding="utf-8", errors="replace").splitlines()[-lines:])
    except OSError:
        return "(no log)"


if __name__ == "__main__":
    sys.exit(main())
