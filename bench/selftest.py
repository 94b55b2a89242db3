"""Self-test of the benchmark: checker, smoke runs and a bare checkout.

    python3 bench/selftest.py

1. Checker: runs each workload at toy size in this process, confirms its
   outputs pass, then feeds the checker outputs known to be wrong and
   requires each to count as a failed operation: a step survival of 1.01, a
   sample row with N+1 atoms, a mode mean shifted by 10 standard errors,
   samples of distinguishable atoms, and a perturbed permanent.
2. Smoke: runs bench/run.py on every workload at toy size, untraced and
   traced, and requires a correct result that prints every metric named in
   BENCHMARK.json.
3. Bare directory: a copy holding only BENCHMARK.json and bench/ must exit
   non-zero without printing a result.

Exits non-zero if any case fails.  Writes only under .bench_work/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work" / "selftest"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def failed_ops(workload):
    return [label for label, msgs in workload.check().items() if msgs]


def toy(name):
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(name, 5, True, workdir)
    workload.setup()
    workload.run()
    expect(failed_ops(workload) == [], f"{name}: unmodified toy outputs pass")
    return workload


def write_table(path, header, rows):
    lines = ["# rewritten by the checker self-test", header]
    lines += [",".join(str(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def checker_cases():
    sample = toy("sample")
    table, u = sample.parse()
    header = ",".join(f"m{j}" for j in range(table.shape[1]))
    path = sample.out("samples.csv")

    extra = table.copy()
    extra[0, 0] += 1
    write_table(path, header, extra)
    expect(failed_ops(sample) == ["sample"], "sample: a row with N+1 atoms fails")

    # move one atom from the busiest mode to its neighbour in enough rows to
    # shift that mode's mean by 10 standard errors; row sums stay N
    j = int(np.argmax(table.mean(axis=0)))
    se = table[:, j].std(ddof=1) / math.sqrt(len(table))
    need = math.ceil(10 * se * len(table))
    rows = np.flatnonzero(table[:, j] > 0)[:need]
    shifted = table.copy()
    shifted[rows, j] -= 1
    shifted[rows, (j + 1) % table.shape[1]] += 1
    expect(len(rows) == need, "sample: enough occupied rows to shift a mode mean")
    write_table(path, header, shifted)
    expect(failed_ops(sample) == ["sample"], "sample: a mode mean shifted by 10 standard errors fails")

    # distinguishable atoms: each input atom leaves independently, mode j with
    # probability |U_ji|^2; the mode means stay exact, the bunching halves
    rng = np.random.default_rng(0)
    weights = np.abs(u) ** 2
    classical = np.zeros_like(table)
    for i in np.flatnonzero(checks.default_input(sample.size["n"], table.shape[1])):
        modes = rng.choice(table.shape[1], size=len(table), p=weights[:, i] / weights[:, i].sum())
        np.add.at(classical, (np.arange(len(table)), modes), 1)
    write_table(path, header, classical)
    expect(failed_ops(sample) == ["sample"], "sample: distinguishable-particle statistics fail")

    exact = toy("exactsim")
    p_j, _ = exact.parse()
    body = [(r, j + 1, repr(1.01 if (r, j) == (0, 0) else p_j[r, j]))
            for r in range(p_j.shape[0]) for j in range(p_j.shape[1])]
    write_table(exact.out("survival.csv"), "realization,step,p_j", body)
    expect(failed_ops(exact) == ["exactsim"], "exactsim: a step survival of 1.01 fails")

    score = toy("score")
    score.probs["outcome-0"] *= 1.0 + 1e-6
    expect(failed_ops(score) == ["outcome-0"], "score: a perturbed permanent fails")

    analysis = toy("analysis")
    payload = json.loads(Path(analysis.out("hom_sim.json")).read_text(encoding="utf-8"))
    payload["p2"] += 0.01
    Path(analysis.out("hom_sim.json")).write_text(json.dumps(payload), encoding="utf-8")
    expect(failed_ops(analysis) == ["hom-sim"], "analysis: a Monte Carlo triple off by 0.01 fails")


def run_bench(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        for trace, table in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"smoke {w['name']} --trace {trace}"
            proc = run_bench(ROOT, w["name"], trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what}: last line is a JSON result (exit {proc.returncode})")
                continue
            names = [m["name"] for m in table]
            expect(proc.returncode == 0 and sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what}: exits 0 with the four result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what}: correct with no failed operation")
            expect(list(result["metrics"]) == names, f"{what}: reports exactly the BENCHMARK.json metrics")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{what}: every metric has a value")
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            expect(set(names) | {"error_rate"} <= printed, f"{what}: prints every metric by name")


def bare():
    bare_dir = WORK / "bare"
    shutil.copytree(HERE, bare_dir / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare_dir)
    proc = run_bench(bare_dir, "sample", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "bare directory: exits non-zero without a result")


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        checker_cases()
        smoke()
        bare()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
