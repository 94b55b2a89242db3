"""Benchmark of atomsampler: four workloads through the CLI and public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  Each repetition runs the workload in a fresh interpreter
(bench/repetition.py), so the package's caches start cold, as they do for every
CLI user.  Repetitions continue while the next one is expected to end within
`--seconds`; at least one always runs.

With `--trace 0` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, each the median over the repetitions:

- setup_s: from starting the interpreter until the package is imported and
  the inputs exist;
- wall_s / cpu_s: wall and process CPU time from the first call into the
  package to the last output written;
- peak_rss_mb: peak resident memory of the measured process.

With `--trace 1` one repetition runs with every layer's public functions
wrapped (bench/spans.py) and the last line reports the per-layer metrics;
untraced repetitions fill the remaining time and give trace.overhead_s.

Each operation (one CLI command, or one scored outcome) is checked after its
timed interval; `failed` counts those that raised, exited non-zero or failed
their check, and error_rate = failed / attempted is printed by name.  The
measured process's BLAS and OpenMP pools are pinned to one thread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A repetition still running this many seconds into the run is killed and
#: the run fails, so every run ends within 180 s.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def child_env(workdir):
    env = dict(os.environ)
    env.update(PIN)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def repetition(workload, seed, toy, trace=False, keep=None, limit=None):
    """Run one repetition in a fresh interpreter; return its result dict."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    out = workdir / "result.json"
    argv = [sys.executable, str(HERE / "repetition.py"), workload, str(seed), str(out), str(workdir)]
    argv += ["--toy"] * toy + ["--trace"] * trace
    try:
        t0 = time.monotonic()
        proc = subprocess.run(argv, env=child_env(workdir), cwd=workdir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=None if limit is None else max(limit, 1.0))
        if proc.returncode != 0 or not out.is_file():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"repetition of {workload} exited with {proc.returncode}:\n{tail}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["setup_s"] = result["t_ready"] - t0
        if keep is not None and (workdir / "spans.csv").is_file():
            shutil.move(str(workdir / "spans.csv"), keep)
        return result
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition of {workload} did not finish within {limit:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, toy, traced_first):
    """Untraced repetitions (plus a traced one first if asked) within the budget."""
    start = time.monotonic()

    def remaining():
        return HARD_LIMIT_S - (time.monotonic() - start)

    traced = None
    if traced_first:
        spans_path = WORK / f"{workload}.spans.csv"
        traced = repetition(workload, seed, toy, trace=True, keep=spans_path, limit=remaining())
    reps = []
    while True:
        rep_start = time.monotonic()
        reps.append(repetition(workload, seed, toy, limit=remaining()))
        last = time.monotonic() - rep_start
        if time.monotonic() - start + last > seconds:
            break
    return traced, reps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not (ROOT / "src" / "atomsampler" / "__init__.py").is_file():
            raise BenchError(f"no package source at {ROOT / 'src' / 'atomsampler'}")
        traced, reps = measure(
            args.workload, args.seed, args.seconds, args.toy, traced_first=bool(args.trace)
        )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    done = reps + ([traced] if traced else [])
    attempted = sum(r["ops"] for r in done)
    failed = sum(len(r["failures"]) for r in done)
    failures = [msg for r in done for msgs in r["failures"].values() for msg in msgs]
    info = reps[0]["machine"]
    print(f"# workload={args.workload} seed={args.seed} repetitions={len(reps)} "
          f"traced={bool(traced)}")
    print("# machine " + json.dumps(info, sort_keys=True))
    print("# repetition wall_s " + " ".join(f"{r['wall_s']:.4f}" for r in reps))
    for msg in failures[:20]:
        print(f"# FAILED {msg}")

    untraced = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    if traced:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        table = spec["per_layer"]
        if traced["missing"]:
            print("# absent (name no longer exists): " + ", ".join(traced["missing"]))
    else:
        values = untraced
        table = spec["end_to_end"]
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    metrics = {}
    for entry in table:
        value = values.get(entry["name"])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{entry['name']} = {shown} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
