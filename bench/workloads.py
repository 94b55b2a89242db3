"""The four benchmark workloads.

Each workload builds its inputs from the seed (`setup`), runs its
operations in the timed interval (`run`), and checks the outputs afterwards
(`check`).  The CLI workloads call `atomsampler.cli.main(argv)` in-process
and read the files it writes; `score` uses only `haar_random_unitary`,
`FockState` and `outcome_probability`.  Those entry points stay stable while
the package internals are refactored, so the benchmark runs unchanged.

Sizes fix which layer dominates each workload:

- sample: n=5, m=20 full distribution (42 504 outcomes, one 5x5 Glynn
  permanent each); sampling and permanent do nearly all the work.  m=25
  (118 755 outcomes, 10-16 s) left room for one or two repetitions in a run,
  too few for a steady median.
- exactsim: n=5, m=20, 30 realizations on 2 workers; fiber maps and pair
  blocks in exactsim do the work, on the thread pool.
- score: four 20x20 Glynn permanents of a Haar M=400 unitary; the Gray-code
  inner loop of one large permanent.
- analysis: rate curves, HOM Monte Carlo on 2 workers and the bunching fit;
  lossmodel, hom and scenarios.

`hom-fit` runs 3e6 Monte Carlo trials, not the 1e7 first proposed: 1e7 holds
about 560 MB resident for the common-random-number table alone.
"""

import json

import numpy as np

import checks

SIZES = {
    "sample": {"full": dict(n=5, m=20, shots=10000), "toy": dict(n=2, m=6, shots=4000)},
    "exactsim": {
        "full": dict(n=5, m=20, tau_tb=1.0, realizations=30),
        "toy": dict(n=4, m=16, tau_tb=1.0, realizations=30),
    },
    "score": {"full": dict(n=20, m=400, k=4), "toy": dict(n=6, m=40, k=2)},
    "analysis": {
        "full": dict(sim_trials=30_000_000, fit_trials=3_000_000),
        "toy": dict(sim_trials=1_000_000, fit_trials=100_000),
    },
}

WORKERS = {"sample": 1, "exactsim": 2, "analysis": 2}


class Workload:
    """Operations of one workload; each either passes its check or fails."""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.ops = []  # (label, argument) pairs; see the subclass
        self.errors = {}  # label -> message for operations that raised or exited non-zero

    def setup(self):
        raise NotImplementedError

    def run(self):
        raise NotImplementedError

    def check_op(self, label, arg):
        raise NotImplementedError

    def check(self):
        """Failure messages per operation label, computed after the timed run."""
        results = {}
        for label, arg in self.ops:
            if label in self.errors:
                results[label] = [self.errors[label]]
                continue
            try:
                results[label] = self.check_op(label, arg)
            except Exception as exc:  # unreadable or malformed output
                results[label] = [f"output check raised {type(exc).__name__}: {exc}"]
        return results


class CliWorkload(Workload):
    """Operations are CLI argument vectors run through `atomsampler.cli.main`."""

    def out(self, name):
        return str(self.workdir / name)

    def run(self):
        import atomsampler.cli

        for label, argv in self.ops:
            try:
                code = atomsampler.cli.main(argv)
            except BaseException as exc:  # SystemExit included: count it, keep going
                self.errors[label] = f"{label} raised {type(exc).__name__}: {exc}"
                continue
            if code != 0:
                self.errors[label] = f"{label} exited with code {code}"


class Sample(CliWorkload):
    def setup(self):
        s = self.size
        self.ops = [(
            "sample",
            ["sample", "--n", str(s["n"]), "--m", str(s["m"]), "--shots", str(s["shots"]),
             "--seed", str(self.seed), "--workers", str(WORKERS["sample"]),
             "--out", self.out("samples.csv")],
        )]

    def parse(self):
        """The shot table and the unitary the command wrote."""
        _, rows = checks.read_csv(self.out("samples.csv"))
        table = np.array([[int(v) for v in row] for row in rows[1:]], dtype=int)
        with open(self.out("samples.unitary.json"), encoding="utf-8") as fh:
            data = json.load(fh)
        u = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return table.reshape(-1, self.size["m"]) if table.size == 0 else table, u

    def check_op(self, label, argv):
        s = self.size
        table, u = self.parse()
        return checks.check_sample(table, s["n"], s["m"], s["shots"], u)


class ExactSim(CliWorkload):
    def setup(self):
        s = self.size
        self.ops = [(
            "exactsim",
            ["exactsim", "--n", str(s["n"]), "--m", str(s["m"]), "--tau-tb", repr(s["tau_tb"]),
             "--realizations", str(s["realizations"]), "--seed", str(self.seed),
             "--workers", str(WORKERS["exactsim"]), "--out", self.out("survival.csv")],
        )]

    def parse(self):
        """Survival table (realizations x steps, NaN where a row is missing) and summary."""
        _, rows = checks.read_csv(self.out("survival.csv"))
        body = rows[1:]
        steps = max((int(r[1]) for r in body), default=0)
        p_j = np.full((self.size["realizations"], steps), np.nan)
        for r, j, p in body:
            p_j[int(r), int(j) - 1] = float(p)
        with open(self.out("survival.summary.json"), encoding="utf-8") as fh:
            return p_j, json.load(fh)

    def check_op(self, label, argv):
        p_j, summary = self.parse()
        if np.isnan(p_j).any():
            return [f"survival table misses {int(np.isnan(p_j).sum())} of {p_j.size} entries"]
        return checks.check_exactsim(p_j, summary, self.size["realizations"])


class Analysis(CliWorkload):
    def setup(self):
        s = self.size
        seed = str(self.seed)
        workers = str(WORKERS["analysis"])
        self.ops = [
            ("rates", ["rates", "--scenario", "state-of-the-art", "--out", self.out("rates.csv")]),
            ("hom-sim", ["hom-sim", "--trials", str(s["sim_trials"]), "--seed", seed,
                         "--workers", workers, "--out", self.out("hom_sim.json")]),
            ("hom-fit", ["hom-fit", "--trials", str(s["fit_trials"]), "--seed", seed,
                         "--out", self.out("hom_fit.json")]),
        ]

    def check_op(self, label, argv):
        if label == "rates":
            comments, rows = checks.read_csv(argv[-1])
            star = None
            for line in comments:
                if line.startswith("# crossover_n = "):
                    value = line.split("=", 1)[1].strip()
                    star = None if value == "none" else int(value)
            return checks.check_rates(rows[1:], star)
        with open(argv[-1], encoding="utf-8") as fh:
            payload = json.load(fh)
        if label == "hom-sim":
            from atomsampler import hom_analytic
            from atomsampler.scenarios import load_hom_params

            analytic = hom_analytic(load_hom_params("hom-experiment")).triple()
            return checks.check_hom_sim(payload, analytic)
        return checks.check_hom_fit(payload)


class Score(Workload):
    """Outcome probabilities of K collision-free patterns, N atoms in M modes."""

    def setup(self):
        from atomsampler import FockState, haar_random_unitary

        s = self.size
        n, m = s["n"], s["m"]
        self.u = haar_random_unitary(m, self.seed)
        self.input = FockState(tuple(checks.default_input(n, m)))
        rng = np.random.default_rng([self.seed, 1])
        self.patterns = []
        for k in range(s["k"]):
            out = np.zeros(m, dtype=int)
            out[rng.choice(m, n, replace=False)] = 1
            self.patterns.append(FockState(tuple(out)))
        self.ops = [(f"outcome-{k}", k) for k in range(s["k"])]
        self.probs = {}

    def run(self):
        import atomsampler

        for label, k in self.ops:
            try:
                self.probs[label] = atomsampler.outcome_probability(self.u, self.input, self.patterns[k])
            except Exception as exc:
                self.errors[label] = f"{label} raised {type(exc).__name__}: {exc}"

    def check_op(self, label, k):
        import atomsampler

        p = self.probs[label]
        failures = checks.check_probability(p)
        if k == 0 and not failures:
            # swapping input and output on U^T scores perm(A^T) with the same norms
            p_t = atomsampler.outcome_probability(self.u.T, self.patterns[k], self.input)
            failures += checks.check_transpose(p, p_t)
        return failures


CLASSES = {"sample": Sample, "exactsim": ExactSim, "score": Score, "analysis": Analysis}


def make(name, seed, toy, workdir):
    return CLASSES[name](seed, SIZES[name]["toy" if toy else "full"], workdir)
