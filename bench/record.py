"""Repeat the benchmark over seeds and record one point of the trajectory.

    python3 bench/record.py --label seed --commit 324ed21 [--no-trace]

For each workload of BENCHMARK.json, runs bench/run.py untraced for seeds
1..10 and traced for seed 1, each for BENCHMARK.json's run_seconds.  It stores per end-to-end
metric the ten values, their median and quartiles, and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are judged against;
per-layer metrics come from the traced run.  The point is
appended to bench/trajectory.json (a JSON list), or replaces the point with
the same label.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
OUT = HERE / "trajectory.json"


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    machine = next((json.loads(l[len("# machine "):]) for l in lines if l.startswith("# machine ")), None)
    return json.loads(lines[-1]), machine


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--commit", required=True)
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    point = {"label": args.label, "commit": args.commit, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, machine = run(workload, seed, seconds, 0)
            point["machine"] = machine
            runs.append(result)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry["end_to_end"][name] = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name]["unit"] = metric["unit"]
            print(f"  {name}: median {entry['end_to_end'][name]['median']:.4g} "
                  f"spread {entry['end_to_end'][name]['spread']:.4f} (bound {metric['bound']})",
                  flush=True)
        if not args.no_trace:
            traced, _ = run(workload, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = entry

    points = json.loads(OUT.read_text(encoding="utf-8")) if OUT.is_file() else []
    points = [p for p in points if p["label"] != args.label] + [point]
    OUT.write_text(json.dumps(points, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
