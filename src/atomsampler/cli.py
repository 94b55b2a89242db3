"""Batch command-line front end.

Subcommands: rates, sample, decompose, exactsim, hom-sim, hom-fit.  Every
command reads its parameters from flags and scenario files, derives all
randomness from the single --seed, and writes complete output files through
an atomic rename (no partial files on error).  Re-running the same
configuration reproduces the payload byte for byte except for the
timestamped `#` metadata line in CSV outputs.

Exit codes: 0 success, 2 validation error, 3 size-cap error, 4 I/O error.
"""

import argparse
import json
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import exactsim, hom, lossmodel, sampling, scenarios
from .errors import SizeCapError, ValidationError
from .fock import FockState
from .interferometer import (
    clements_decompose,
    haar_random_unitary,
    plan_to_json,
    unitary_from_json,
    unitary_to_json,
)
from .parallel import spawn_seeds


def _fmt(value):
    # shortest decimal that round-trips the double
    return repr(float(value))


def _timestamp_line(command, seed):
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# {command} generated={stamp} seed={seed}"


def _atomic_write(path, text):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, payload):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_rates(args):
    bundle = scenarios.load_bundle(args.scenario)
    lines = [_timestamp_line(args.command, args.seed), "N,r_atomic,r_photonic,r_classical"]
    for n in range(args.n_min, args.n_max + 1):
        atomic = lossmodel.r_nisq(bundle.loss, n, model=args.model)
        photonic = lossmodel.r_photonic(bundle.photonic, n)
        classical = lossmodel.r_classical(bundle.classical, n)
        lines.append(f"{n},{_fmt(atomic)},{_fmt(photonic)},{_fmt(classical)}")
    star = lossmodel.crossover(
        bundle.loss, bundle.classical, n_range=(args.n_min, args.n_max), model=args.model
    )
    lines.append(f"# crossover_n = {star if star is not None else 'none'}")
    finite_ns = [
        n
        for n in range(args.n_min, args.n_max + 1)
        if args.model == "finite" or (args.model == "auto" and n <= lossmodel.FINITE_MODEL_LIMIT)
    ]
    if finite_ns:
        worst = max(
            lossmodel.excluded_occupancy_mass(
                n, lossmodel.even_mode_count(n, bundle.loss.mode_ratio_c)
            )
            for n in finite_ns
        )
        lines.append(f"# excluded_occupancy_mass_max = {_fmt(worst)}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    return 0


def _default_input_state(n, m):
    """One atom per site in the plus mode when room allows, else packed."""
    occ = [0] * m
    if n > 0 and 2 * (n - 1) < m:
        for s in range(n):
            occ[2 * s] = 1
    elif n <= m:
        for j in range(n):
            occ[j] = 1
    else:
        raise ValidationError(f"cannot place {n} collision-free atoms in {m} modes")
    return FockState(tuple(occ))


def cmd_sample(args):
    seed_u, seed_draw = spawn_seeds(args.seed, 2)
    u = haar_random_unitary(args.m, seed_u)
    input_state = _default_input_state(args.n, args.m)
    dist = sampling.output_distribution(u, input_state, collision_free_only=args.collision_free)
    states = sampling.draw_samples(dist, args.shots, seed_draw) if args.shots else []
    lines = [_timestamp_line(args.command, args.seed), ",".join(f"m{j}" for j in range(args.m))]
    for state in states:
        lines.append(",".join(map(str, state.occupations)))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    _write_json(Path(args.out).with_suffix(".unitary.json"), unitary_to_json(u))
    return 0


def cmd_decompose(args):
    if args.data:
        with open(args.data, encoding="utf-8") as fh:
            u = unitary_from_json(json.load(fh))
    elif args.m:
        u = haar_random_unitary(args.m, args.seed)
    else:
        raise ValidationError("decompose needs --data with a unitary or --m to draw one")
    plan = clements_decompose(u)
    _write_json(args.out, plan_to_json(plan))
    return 0


def cmd_exactsim(args):
    result = exactsim.benchmark_vs_model(
        n=args.n,
        m=args.m,
        tau_tb_over_texec=args.tau_tb,
        realizations=args.realizations,
        seed=args.seed,
    )
    lines = [_timestamp_line(args.command, args.seed), "realization,step,p_j"]
    for r in range(result.realizations):
        for j in range(result.p_j.shape[1]):
            lines.append(f"{r},{j + 1},{_fmt(result.p_j[r, j])}")
    _atomic_write(args.out, "\n".join(lines) + "\n")
    summary = {
        "mean_p_total": result.mean_p_total,
        "model_p_step": result.model_p_step,
        "model_p_step_pow_M": result.model_p_step_pow_m,
        "excluded_occupancy_mass": result.excluded_occupancy_mass,
    }
    _write_json(Path(args.out).with_suffix(".summary.json"), summary)
    return 0


def cmd_hom_sim(args):
    params = scenarios.load_hom_params(args.scenario)
    outcomes = hom.hom_monte_carlo(params, args.trials, args.seed, workers=args.workers)
    n0, n1, n2 = outcomes.counts
    payload = {
        "trials_kept": outcomes.trials_kept,
        "p0": outcomes.p0,
        "p1": outcomes.p1,
        "p2": outcomes.p2,
        "counts": {"n0": n0, "n1": n1, "n2": n2},
    }
    _write_json(args.out, payload)
    return 0


def cmd_hom_fit(args):
    params = scenarios.load_hom_params(args.scenario)
    measured = scenarios.load_hom_counts(args.data or scenarios.sample_counts_path())
    fit = hom.fit_bunching(
        measured,
        survival_s=params.survival_s,
        p_lic0=params.p_lic0,
        trials=args.trials,
        seed=args.seed,
    )
    payload = {
        "p_bunch": fit.p_bunch,
        "sigma": fit.sigma,
        "gamma": fit.gamma,
        "trials_kept": fit.trials_kept,
    }
    _write_json(args.out, payload)
    return 0


def _add_common(sub, scenario_default=None):
    if scenario_default is not None:
        sub.add_argument("--scenario", default=scenario_default,
                         help="scenario preset name or JSON path")
    sub.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker threads; only hom-sim uses them")
    sub.add_argument("--out", required=True, help="output file path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="atomsampler",
        description="Atom boson sampling: circuits, distributions, loss models",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    rates = commands.add_parser("rates", help="sampling-rate curves and crossover")
    _add_common(rates, scenario_default="state-of-the-art")
    rates.add_argument("--n-min", type=int, default=2)
    rates.add_argument("--n-max", type=int, default=60)
    rates.add_argument("--model", choices=("auto", "finite", "closed"), default="auto")
    rates.set_defaults(handler=cmd_rates)

    sample = commands.add_parser(
        "sample",
        help="draw samples from a random circuit",
        description="Input atoms sit one per site in the plus mode (modes 0, 2, "
        "4, ...) when 2(N-1) < M, otherwise in the first N modes.",
    )
    _add_common(sample)
    sample.add_argument("--n", type=int, required=True, help="atom number")
    sample.add_argument("--m", type=int, required=True, help="mode count")
    sample.add_argument("--shots", type=int, default=1000)
    sample.add_argument("--collision-free", action="store_true")
    sample.set_defaults(handler=cmd_sample)

    decompose = commands.add_parser("decompose", help="factor a unitary into a mesh plan")
    _add_common(decompose)
    decompose.add_argument("--data", help="unitary JSON path; omit to draw a random one")
    decompose.add_argument("--m", type=int, help="mode count for a random unitary")
    decompose.set_defaults(handler=cmd_decompose)

    exact = commands.add_parser("exactsim", help="stepped lossy circuit benchmark")
    _add_common(exact)
    exact.add_argument("--n", type=int, default=4)
    exact.add_argument("--m", type=int, default=16)
    exact.add_argument("--tau-tb", type=float, default=1.0,
                       help="pair lifetime in units of the execution time")
    exact.add_argument("--realizations", type=int, default=30)
    exact.set_defaults(handler=cmd_exactsim)

    hom_sim = commands.add_parser("hom-sim", help="two-atom interference Monte Carlo")
    _add_common(hom_sim, scenario_default="hom-experiment")
    hom_sim.add_argument("--trials", type=int, default=10**6)
    hom_sim.set_defaults(handler=cmd_hom_sim)

    hom_fit = commands.add_parser("hom-fit", help="fit bunching probability to counts")
    _add_common(hom_fit, scenario_default="hom-experiment")
    hom_fit.add_argument("--data", help="measured counts JSON {n0, n1, n2}")
    hom_fit.add_argument("--trials", type=int, default=10**6)
    hom_fit.set_defaults(handler=cmd_hom_fit)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (ValidationError, json.JSONDecodeError) as exc:
        print(f"{args.command}: validation error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"{args.command}: size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{args.command}: i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
