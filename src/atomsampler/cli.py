"""Batch command-line front end.

Subcommands: rates, sample, decompose, exactsim, hom-sim, hom-fit.  Every
command reads its parameters from flags and scenario files, derives all
randomness from the single --seed, and returns its output files, sidecars
included, as (path, text) pairs; it writes nothing itself.  `main` hands
them to `_write_files`, the package's only code that creates, renames or
removes a file: all of a run's files appear, or none.  Outputs take the
umask mode like any file the user creates.  Re-running the same
configuration reproduces the payload byte for byte except for the
timestamped `#` metadata line in CSV outputs.

Exit codes: 0 success, 2 validation error, 3 size-cap error, 4 I/O error.
"""

import argparse
import errno
import json
import os
import sys
from datetime import datetime, timezone
from math import comb
from pathlib import Path

import numpy as np

from . import exactsim, hom, lossmodel, sampling, scenarios
from .errors import SizeCapError, ValidationError, check_count
from .fock import FockState, check_size_cap, multiset_dimension
from .interferometer import (
    clements_decompose,
    haar_random_unitary,
    plan_to_json,
    unitary_from_json,
    unitary_to_json,
)
from .parallel import spawn_seeds
from .permanent import check_glynn_cap


def _fmt(value):
    # shortest decimal that round-trips the double
    return repr(float(value))


def _timestamp_line(command, seed):
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return f"# {command} generated={stamp} seed={seed}"


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_rows(table):
    """The rows of an unsigned (S, M) integer table as CSV lines, each ending in a newline.

    Every cell becomes a slot of w + 1 bytes, w the widest value's digit
    count: the value's digits from a lookup table, left-aligned and padded
    with 0 bytes, then the separator in the last slot byte.  Dropping the
    0 bytes leaves the text, for one- and multi-digit cells alike.
    """
    vmax = int(table.max(initial=0))
    width = len(str(vmax))
    lut = np.array([str(v) for v in range(vmax + 1)], dtype=f"S{width + 1}")
    cells = lut.view(np.uint8).reshape(vmax + 1, width + 1)[table]
    cells[:, :, width] = ord(",")
    cells[:, -1, width] = ord("\n")
    return cells[cells != 0].tobytes().decode("ascii")


def _sidecar(out, suffix):
    """`out` with its last suffix replaced; a nameless `out` is left for the writer to refuse."""
    return Path(out).parent / (Path(out).stem + suffix)


def _write_files(files):
    """Write every (path, text) pair of a run, all or none.

    Each text goes to a new temporary beside its target, named uniquely for
    the run and created with the umask mode; the temporaries are renamed
    into place only after all are written.  Before a rename replaces an
    existing target, the target gets a second name beside it (a hard link,
    to the link itself where the target is a symlink).  On any failure
    every temporary is removed, and every target this run already renamed
    is removed or, if it replaced a file, swapped back for that file; so a
    failed run leaves every earlier file as it was.  A target that is a
    directory is refused before anything is written.
    """
    for path, _ in files:
        # the hard link would fail first, with an error that names the link
        if os.path.isdir(path) and not os.path.islink(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    token = os.urandom(8).hex()
    staged, placed, kept = [], [], {}
    try:
        for path, text in files:
            tmp = f"{path}.{token}.tmp"
            with open(tmp, "x", encoding="utf-8") as fh:
                staged.append(tmp)
                fh.write(text)
        for tmp, (path, _) in zip(staged, files):
            old = f"{path}.{token}.old"
            try:
                os.link(path, old, follow_symlinks=False)
                kept[path] = old
            except FileNotFoundError:
                pass
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        # renames go in order, so the first len(placed) temporaries are targets now
        for tmp in staged[len(placed):]:
            os.unlink(tmp)
        for path in placed:
            if path in kept:
                os.replace(kept.pop(path), path)
            else:
                os.unlink(path)
        raise
    finally:
        for old in kept.values():
            os.unlink(old)


def cmd_rates(args):
    bundle = scenarios.load_bundle(args.scenario)
    lines = [_timestamp_line(args.command, args.seed), "N,r_atomic,r_photonic,r_classical"]
    # the count, not len(ns): a range longer than sys.maxsize has no len
    rows = max(0, args.n_max - args.n_min + 1)
    check_size_cap(rows, f"rate rows for N = {args.n_min}..{args.n_max}")
    if args.model == "finite":
        lossmodel.check_finite_cap(args.n_max)
    ns = range(args.n_min, args.n_max + 1)
    for n in ns:
        atomic = lossmodel.r_nisq(bundle.loss, n, model=args.model)
        photonic = lossmodel.r_photonic(bundle.photonic, n)
        classical = lossmodel.r_classical(bundle.classical, n)
        lines.append(f"{n},{_fmt(atomic)},{_fmt(photonic)},{_fmt(classical)}")
    star = lossmodel.crossover(
        bundle.loss, bundle.classical, n_range=(args.n_min, args.n_max), model=args.model
    )
    lines.append(f"# crossover_n = {star if star is not None else 'none'}")
    if args.model == "finite":
        worst = max(
            lossmodel.excluded_occupancy_mass(
                n, lossmodel.even_mode_count(n, bundle.loss.mode_ratio_c)
            )
            for n in ns
        )
        lines.append(f"# excluded_occupancy_mass_max = {_fmt(worst)}")
    return [(args.out, "\n".join(lines) + "\n")]


def _default_input_state(n, m):
    """One atom per site in the plus mode when room allows, else packed."""
    check_count("atom number", n, 0)
    if n > m:
        raise ValidationError(f"cannot place {n} collision-free atoms in {m} modes")
    # the M x M unitary is the run's largest input-sized array; refuse it before the M-long state
    check_size_cap(m * m, f"unitary entries for m={m}")
    step = 2 if 2 * (n - 1) < m else 1  # plus modes 0, 2, ... while the sites hold every atom
    occ = [0] * m
    occ[: step * n : step] = [1] * n
    return FockState(tuple(occ))


def cmd_sample(args):
    seed_u, seed_draw = spawn_seeds(args.seed, 2)
    input_state = _default_input_state(args.n, args.m)
    # refuse what output_distribution would, before the M x M draw
    check_glynn_cap(args.n)
    outcomes = comb(args.m, args.n) if args.collision_free else multiset_dimension(args.n, args.m)
    check_size_cap(outcomes, f"outcomes for n={args.n}, m={args.m}")
    check_size_cap(args.shots, "shots")
    u = haar_random_unitary(args.m, seed_u)
    dist = sampling.output_distribution(u, input_state, collision_free_only=args.collision_free)
    rows = _csv_rows(sampling.draw_samples(dist, args.shots, seed_draw)) if args.shots else ""
    header = ",".join(f"m{j}" for j in range(args.m))
    return [
        (args.out, f"{_timestamp_line(args.command, args.seed)}\n{header}\n{rows}"),
        (_sidecar(args.out, ".unitary.json"), _json(unitary_to_json(u))),
    ]


def cmd_decompose(args):
    if args.data is not None:
        u = unitary_from_json(scenarios.read_json(args.data))
    else:
        u = haar_random_unitary(args.m, args.seed)
    return [(args.out, _json(plan_to_json(clements_decompose(u))))]


def cmd_exactsim(args):
    result = exactsim.benchmark_vs_model(
        n=args.n,
        m=args.m,
        tau_tb_over_texec=args.tau_tb,
        realizations=args.realizations,
        seed=args.seed,
    )
    lines = [_timestamp_line(args.command, args.seed), "realization,step,p_j"]
    for r, row in enumerate(result.p_j):
        lines += (f"{r},{j},{_fmt(p)}" for j, p in enumerate(row, 1))
    summary = {
        "mean_p_total": result.mean_p_total,
        "model_p_step": result.model_p_step,
        "model_p_step_pow_M": result.model_p_step_pow_m,
        "excluded_occupancy_mass": result.excluded_occupancy_mass,
    }
    return [
        (args.out, "\n".join(lines) + "\n"),
        (_sidecar(args.out, ".summary.json"), _json(summary)),
    ]


def cmd_hom_sim(args):
    params = scenarios.load_hom_params(args.scenario)
    outcomes = hom.hom_monte_carlo(params, args.trials, args.seed)
    n0, n1, n2 = outcomes.counts
    payload = {
        "trials_kept": outcomes.trials_kept,
        "p0": outcomes.p0,
        "p1": outcomes.p1,
        "p2": outcomes.p2,
        "counts": {"n0": n0, "n1": n1, "n2": n2},
    }
    return [(args.out, _json(payload))]


def cmd_hom_fit(args):
    params = scenarios.load_hom_params(args.scenario)
    measured = scenarios.load_hom_counts(args.data or scenarios.sample_counts_path())
    fit = hom.fit_bunching(
        measured,
        survival_s=params.survival_s,
        p_lic0=params.p_lic0,
        seed=args.seed,
    )
    payload = {
        "p_bunch": fit.p_bunch,
        "sigma": fit.sigma,
        "gamma": fit.gamma,
        "trials_kept": fit.trials_kept,
    }
    return [(args.out, _json(payload))]


def _add_common(sub, scenario_default=None):
    if scenario_default is not None:
        sub.add_argument("--scenario", default=scenario_default,
                         help="scenario preset name or JSON path")
    sub.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
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
    rates.add_argument("--model", choices=("finite", "closed"), default="finite",
                       help="survival model: the finite-size sum (N <= 200) or the large-N closed form")
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
    source = decompose.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="unitary JSON path")
    source.add_argument("--m", type=int, help="mode count of a random unitary to draw instead")
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
    hom_fit.add_argument("--trials", type=int, default=10**6,
                         help="ignored, as the fit is exact; must be at least 1")
    hom_fit.set_defaults(handler=cmd_hom_fit)

    # sample, exactsim and hom-sim accept --workers and ignore it, and hom-fit ignores --trials:
    # bench/workloads.py passes them
    for sub in (sample, exact, hom_sim):
        sub.add_argument("--workers", type=int, default=1,
                         help="ignored; must be at least 1")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        for flag in ("workers", "trials"):
            if flag in args:
                check_count(f"--{flag}", getattr(args, flag), 1)
        check_count("--seed", args.seed, 0)
        _write_files(args.handler(args))
        return 0
    except ValidationError as exc:
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
