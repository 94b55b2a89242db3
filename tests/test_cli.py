import cmath
import hashlib
import json
import math
import os
import stat

import numpy as np
import pytest

from atomsampler import cli, fock, lossmodel
from atomsampler.cli import main
from atomsampler.fock import FockState
from atomsampler.interferometer import unitary_from_json, unitary_to_json
from atomsampler.lossmodel import r_ideal
from atomsampler.permanent import GLYNN_CAP
from atomsampler.sampling import outcome_probability
from atomsampler.scenarios import load_bundle, load_hom_counts
from oracles import enumerate_basis


def run(*argv):
    return main([str(a) for a in argv])


def payload_lines(path):
    """File content with `#` metadata lines stripped."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


#: One small, valid run of every command, short of its --out.
SMALL_RUNS = {
    "rates": ["rates"],
    "sample": ["sample", "--n", 2, "--m", 4],
    "decompose": ["decompose", "--m", 4],
    "exactsim": ["exactsim", "--n", 2, "--m", 4, "--realizations", 1],
    "hom-sim": ["hom-sim", "--trials", 10],
    "hom-fit": ["hom-fit", "--trials", 10],
}
every_command = pytest.mark.parametrize("argv", list(SMALL_RUNS.values()), ids=list(SMALL_RUNS))
#: The commands that accept --workers; each ignores it.
WITH_WORKERS = ("sample", "exactsim", "hom-sim")
#: The commands that accept --trials; hom-fit ignores it.
WITH_TRIALS = ("hom-sim", "hom-fit")


def test_rates_determinism_and_crossover(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        assert run("rates", "--scenario", "state-of-the-art", "--n-max", "45", "--out", out) == 0
    assert payload_lines(first) == payload_lines(second)
    summary = [l for l in first.read_text().splitlines() if l.startswith("# crossover_n")]
    star = int(summary[0].split("=")[1])
    assert 33 <= star <= 41


def test_rates_lossless_equals_ideal(tmp_path):
    out = tmp_path / "rates.csv"
    assert run("rates", "--scenario", "lossless", "--n-max", "20", "--out", out) == 0
    loss = load_bundle("lossless").loss
    rows = payload_lines(out)[1:]
    for row in rows:
        n, atomic, _, _ = row.split(",")
        assert float(atomic) == r_ideal(loss, int(n))


def test_rates_rejects_empty_atom_range(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert run("rates", "--n-min", "5", "--n-max", "2", "--out", out) == 2
    assert "empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def valid_scenario():
    return {
        "loss": {"t_step": 33e-6, "tau_bg": 360.0, "tau_tb": 0.4, "t_init": 0.5,
                 "t_det": 0.1, "eta_init": 0.99, "eta_det": 0.99, "mode_ratio_c": 1.0},
        "photonic": {"r0": 76e6, "eta_f": 0.14, "eta_c": 0.999},
        "classical": {"a_tilde": 3e-15},
    }


def test_rates_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = valid_scenario()
    good["loss"]["t_step"] = "soon"
    bad.write_text(json.dumps(good))
    assert run("rates", "--scenario", bad, "--out", tmp_path / "r.csv") == 2
    assert "t_step" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    bad.write_text('{"loss": [1, 2')  # truncated JSON: parse error with position
    assert run("rates", "--scenario", bad, "--out", tmp_path / "r.csv") == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("section,field", [
    ("loss", "t_step"), ("loss", "t_init"), ("loss", "t_det"), ("loss", "mode_ratio_c"),
    ("photonic", "r0"), ("classical", "a_tilde"),
])
def test_rates_rejects_infinite_scenario_value(tmp_path, capsys, section, field):
    # only the lifetimes tau_bg and tau_tb may be "inf"; the `lossless` preset relies on that
    scenario = valid_scenario()
    scenario[section][field] = "inf"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    out = tmp_path / "r.csv"
    assert run("rates", "--scenario", bad, "--out", out) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


HOM_SCENARIO = {"survival_s": 0.84, "p_lic0": 0.71, "gamma": 0.462}


@pytest.mark.parametrize("value", [True, "0.5", "1e-3", 10**400],
                         ids=["true", "string", "exponent-string", "int-beyond-float"])
@pytest.mark.parametrize("command,field", [("rates", "t_step"), ("hom-sim", "p_lic0")])
def test_scenario_fields_are_json_numbers(tmp_path, capsys, command, field, value):
    # a bool or a numeric string is not a number, and an integer beyond a float's range is refused
    if command == "rates":
        scenario = valid_scenario()
        scenario["loss"][field] = value
    else:
        scenario = {**HOM_SCENARIO, field: value}
    data = tmp_path / "in" / "s.json"
    data.parent.mkdir()
    data.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert run(command, "--scenario", data, "--out", out) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_sample_frequencies_match_distribution(tmp_path):
    out = tmp_path / "samples.csv"
    assert run("sample", "--n", 2, "--m", 4, "--shots", 10_000, "--seed", 7, "--out", out) == 0
    u = unitary_from_json(json.loads((tmp_path / "samples.unitary.json").read_text()))
    rows = payload_lines(out)
    assert rows[0] == "m0,m1,m2,m3"
    counts = {}
    for row in rows[1:]:
        occ = tuple(int(x) for x in row.split(","))
        counts[occ] = counts.get(occ, 0) + 1
    assert sum(counts.values()) == 10_000
    inp = FockState((1, 0, 1, 0))
    expected, observed = [], []
    for state in enumerate_basis(2, 4):
        p = outcome_probability(u, inp, state)
        expected.append(p * 10_000)
        observed.append(counts.get(state.occupations, 0))
    from conftest import merged_chisquare_pvalue

    assert merged_chisquare_pvalue(observed, expected) > 0.01


#: SHA-256 of the `sample` payload after its `#` line, recorded from the
#: per-row writer the table encoder replaced; the encoder must match it.
SAMPLE_DIGESTS = {
    "n5-m20": (
        ["--n", 5, "--m", 20, "--shots", 10_000, "--seed", 1],
        "cb6b512bde576ed893f51fdb45e2982c5471590d9f6e4df8b6834fce508220fb",
    ),
    "collision-free": (
        ["--collision-free", "--n", 3, "--m", 9, "--shots", 2000, "--seed", 7],
        "0c98586751926270e514ee9b1af70f6a0d0fa8121e926e641912a74697541fd4",
    ),
    "dense": (
        ["--n", 4, "--m", 4, "--shots", 2000, "--seed", 2],
        "51076ffce4e97aea8cec92755733512f85b7e7b73fce326b8bd085b7f49b3fa6",
    ),
    "vacuum": (
        ["--n", 0, "--m", 4, "--shots", 3],
        "4962fb077a785987e597a0bc40fec6d6515f0781898cc3fb457269846dde984e",
    ),
    "no-shots": (
        ["--n", 2, "--m", 4, "--shots", 0],
        "f2423e5e3a9bd3de73b0aeb17e0c1941c579531e5d4a304a8b1f394e7a8b29c8",
    ),
}


@pytest.mark.parametrize("flags,digest", list(SAMPLE_DIGESTS.values()), ids=list(SAMPLE_DIGESTS))
def test_sample_payload_is_pinned(tmp_path, flags, digest):
    out = tmp_path / "samples.csv"
    assert run("sample", *flags, "--out", out) == 0
    stamp, payload = out.read_bytes().split(b"\n", 1)
    assert stamp.startswith(b"# sample ")
    assert hashlib.sha256(payload).hexdigest() == digest


#: SHA-256 of the `hom-sim`/`hom-fit` JSON payloads, recorded when `hom-sim`
#: became one multinomial draw and the fit its closed form; `--workers` and
#: `hom-fit --trials` are ignored, and `{counts}` is a file holding
#: {"n0": 40, "n1": 41, "n2": 19}.
HOM_DIGESTS = {
    "sim-workers-2": (
        ["hom-sim", "--trials", 3_000_000, "--workers", 2],
        "7d71049c928e2955b14f23b6fbe2db68c5d3284fff6f279bef1f1626f4f8917b",
    ),
    "sim-partial-block": (
        ["hom-sim", "--trials", 1_234_567, "--seed", 5],
        "c70fcd425b8ac5523e412200c6a175397064841ba214b1bf2649fc4dd6c43fb8",
    ),
    "sim-63": (
        ["hom-sim", "--trials", 63, "--seed", 4],
        "099abc4798093f25f57f2b904e9ad1aa4b6208532ae1dbe530bb8fad88c10fe2",
    ),
    "fit-300000": (
        ["hom-fit", "--trials", 300_000, "--seed", 2],
        "4d2874b0c30bed1b4930bd127681b6eea2b04b346a92532cbb1e572af4d885c8",
    ),
    "fit-100001": (
        ["hom-fit", "--trials", 100_001, "--seed", 6],
        "0e6bb799173e83f1321e4fa334ce38be167353288904496c6371b925971277a4",
    ),
    "fit-custom-counts": (
        ["hom-fit", "--data", "{counts}", "--trials", 200_000, "--seed", 3],
        "a29be7a871583cbb8549dab14239283e92c81f4e302b49a920fe69be239d3982",
    ),
}


@pytest.mark.parametrize("argv,digest", list(HOM_DIGESTS.values()), ids=list(HOM_DIGESTS))
def test_hom_payload_is_pinned(tmp_path, argv, digest):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"n0": 40, "n1": 41, "n2": 19}))
    out = tmp_path / "hom.json"
    assert run(*[str(a).format(counts=counts) for a in argv], "--out", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


#: The 16-mode DFT unitary as a `decompose --data` payload, computed by
#: `cmath` so that no numpy loop touches the input.
_DFT = [[cmath.exp(2j * math.pi * j * k / 16) / 4.0 for k in range(16)] for j in range(16)]
DFT16 = {"m": 16, "re": [[z.real for z in row] for row in _DFT],
         "im": [[z.imag for z in row] for row in _DFT]}


#: SHA-256 of each payload file after its `#` stamp line (the output, then
#: any sidecar).  Each holds at any BLAS thread count.  `decompose-m16` and
#: the `exactsim` ones were recorded when the mesh's rotations became one
#: elementwise step with angles from `math` and `cmath`, in place of two 2x2
#: BLAS matmuls and numpy's scalar arctan2 and angle: a p_j moved by at most
#: 1.6e-15 (n=5, m=20, 30 realizations, seeds 1, 2, 3, 100 and 101; 356 of
#: 3000 ratios kept their bits) and a plan angle by at most 1.4e-14 at M=16.
#: `decompose-dft16` plans the 16-mode DFT unitary, written with `cmath`:
#: its bytes hold under any BLAS kernel too, but not with numpy's AVX-512
#: loops off.  The others date from before the HOM Monte Carlo rework,
#: which runs none of these commands' code.
PAYLOAD_DIGESTS = {
    **{
        f"exactsim-seed-{seed}": (
            ["exactsim", "--n", 5, "--m", 20, "--realizations", 3, "--seed", seed],
            digests,
        )
        for seed, digests in [
            (1, ("43eb5ccbc964ca598c97f01aec97037ec2269bd7f2c3aa8e6bd7bd2768540e9e",
                 "cab4863a128fd613505785907f39f1eeac34478f6a2a5a74094e52af55d2f3c1")),
            (2, ("ac70e864336208bdad6846f0ddc18e1bb2a6300490e94329ab7fd061defa1918",
                 "67ee46aeec1a264e716a06171e6ccc34268c7aff69ce087abedfca126b5fd7e3")),
            (3, ("9baa9a64df6729cb63488d38874d656f4fe2f00845879ac7631affbd05b7c024",
                 "afd923d99e7b0c861e6d85af3721cc33bcafd4a14fa6c35db32fe56c8eabcd28")),
        ]
    },
    "decompose-m16": (
        ["decompose", "--m", 16],
        ("ce369631f2ce103bf86022b3c6b616f7d3308f0ebce1e298f6bc3ddbd7be132c",),
    ),
    "decompose-dft16": (
        ["decompose", "--data", "{dft}"],
        ("76a122461ff6495c2ba89114fc54ca63d59054ae20b4ebae6e2c88ea438efa2c",),
    ),
    # the finite-size sum for every N: rows 41..60 left the closed form
    "rates": (
        ["rates"],
        ("0a574714c17cb58b6558d5c1196ad845063b13170071416d79f628acea264e90",),
    ),
}


@pytest.mark.parametrize("argv,digests", list(PAYLOAD_DIGESTS.values()), ids=list(PAYLOAD_DIGESTS))
def test_command_payload_is_pinned(tmp_path, argv, digests):
    upath = tmp_path / "dft.json"
    upath.write_text(json.dumps(DFT16))
    out = tmp_path / "out.csv"
    assert run(*[str(a).format(dft=upath) for a in argv], "--out", out) == 0
    files = [out] + [out.with_suffix(".summary.json")] * (len(digests) > 1)
    for path, digest in zip(files, digests):
        data = path.read_bytes()
        if data.startswith(b"#"):
            data = data.split(b"\n", 1)[1]
        assert hashlib.sha256(data).hexdigest() == digest


def _joined_rows(table):
    """The per-row reference the table encoder must match byte for byte."""
    return "".join(",".join(map(str, row)) + "\n" for row in table.tolist())


@pytest.mark.parametrize("shape", [(400, 20), (60, 1), (1, 37), (0, 6)],
                         ids=["table", "one-column", "one-row", "no-rows"])
def test_csv_rows_matches_the_per_row_join(shape):
    # cells 0..GLYNN_CAP mix one- and two-digit widths in one table
    table = np.random.default_rng(sum(shape)).integers(
        0, GLYNN_CAP + 1, size=shape, dtype=np.uint8
    )
    assert cli._csv_rows(table) == _joined_rows(table)


def test_csv_rows_of_mixed_widths_and_of_zeros():
    mixed = np.array([[GLYNN_CAP, 0, 9], [10, 1, 28], [0, 0, 0]], dtype=np.uint8)
    assert cli._csv_rows(mixed) == "28,0,9\n10,1,28\n0,0,0\n"
    zeros = np.zeros((5, 4), dtype=np.uint8)
    assert cli._csv_rows(zeros) == _joined_rows(zeros) == "0,0,0,0\n" * 5


def test_sample_collision_free_and_empty(tmp_path):
    out = tmp_path / "cf.csv"
    assert run("sample", "--n", 2, "--m", 4, "--shots", 200, "--collision-free",
               "--seed", 3, "--out", out) == 0
    for row in payload_lines(out)[1:]:
        assert max(int(x) for x in row.split(",")) <= 1
    empty = tmp_path / "none.csv"
    assert run("sample", "--n", 2, "--m", 4, "--shots", 0, "--out", empty) == 0
    assert payload_lines(empty) == ["m0,m1,m2,m3"]


def test_sample_negative_shots_exit_and_no_file(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    assert run("sample", "--n", 2, "--m", 4, "--shots", -1, "--out", out) == 2
    assert "shots" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [-1, -3])
def test_sample_rejects_negative_atom_number(tmp_path, capsys, n):
    assert run("sample", "--n", n, "--m", 4, "--out", tmp_path / "neg.csv") == 2
    assert "atom number" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", [0, -4])
@pytest.mark.parametrize("command", WITH_WORKERS)
def test_every_command_rejects_fewer_than_one_worker(tmp_path, capsys, command, workers):
    assert run(*SMALL_RUNS[command], "--workers", workers, "--out", tmp_path / "out") == 2
    assert "--workers must be an integer >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", [0, -4])
@pytest.mark.parametrize("command", WITH_TRIALS)
def test_every_command_rejects_fewer_than_one_trial(tmp_path, capsys, command, trials):
    assert run(*SMALL_RUNS[command], "--trials", trials, "--out", tmp_path / "out") == 2
    assert "--trials must be an integer >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,flag,values",
    [
        (["hom-sim", "--trials", 1000, "--seed", 3], "--workers", (1, 5)),
        (["hom-fit", "--seed", 3], "--trials", (1, 10**30)),
    ],
    ids=["hom-sim-workers", "hom-fit-trials"],
)
def test_hom_commands_ignore_the_flags_the_benchmark_passes(tmp_path, argv, flag, values):
    payloads = []
    for value in values:
        out = tmp_path / f"{value}.json"
        assert run(*argv, flag, value, "--out", out) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("command", sorted(set(SMALL_RUNS) - set(WITH_WORKERS)))
def test_commands_without_workers_refuse_the_flag(tmp_path, capsys, command):
    assert run(*SMALL_RUNS[command], "--workers", 2, "--out", tmp_path / "out") == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sample_vacuum(tmp_path):
    out = tmp_path / "vacuum.csv"
    assert run("sample", "--n", 0, "--m", 4, "--shots", 3, "--out", out) == 0
    assert payload_lines(out) == ["m0,m1,m2,m3"] + ["0,0,0,0"] * 3


def test_sample_worker_invariance(tmp_path):
    solo = tmp_path / "w1.csv"
    pooled = tmp_path / "w3.csv"
    run("sample", "--n", 2, "--m", 6, "--shots", 500, "--seed", 5, "--workers", 1, "--out", solo)
    run("sample", "--n", 2, "--m", 6, "--shots", 500, "--seed", 5, "--workers", 3, "--out", pooled)
    assert payload_lines(solo) == payload_lines(pooled)


def test_sample_size_cap_exit_and_no_partial_file(tmp_path):
    out = tmp_path / "huge.csv"
    assert run("sample", "--n", 12, "--m", 30, "--shots", 1, "--out", out) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,refused",
    [
        (["sample", "--n", 1, "--m", 40, "--shots", 10], "unitary entries"),
        (["sample", "--n", 1, "--m", 2**62], "unitary entries"),
        (["sample", "--n", 1, "--m", 10**30], "unitary entries"),
        (["decompose", "--m", 40], "unitary entries"),
        (["exactsim", "--n", 1, "--m", 40, "--realizations", 1], "unitary entries"),
        (["exactsim", "--n", 3, "--m", 12, "--realizations", 1], "364 amplitudes"),
        (["exactsim", "--n", 1, "--m", 4, "--realizations", 76], "304 survival ratios"),
        (["rates", "--n-min", 2, "--n-max", 302], "301 rate rows"),
        (["sample", "--n", 1, "--m", 2, "--shots", 301], "301 shots"),
    ],
    ids=[
        "sample-unitary", "sample-state-2**62", "sample-state-10**30", "decompose-unitary",
        "exactsim-unitary", "exactsim-state", "exactsim-realizations", "rates-rows", "sample-shots",
    ],
)
def test_every_input_sized_allocation_exits_3_above_the_cap(
    tmp_path, monkeypatch, capsys, argv, refused
):
    # 40^2 = 1600 unitary entries, C(14, 3) = 364 amplitudes, 76 x 4 = 304
    # survival ratios, 301 rate rows or 301 shot rows pass a cap of 300 (10
    # shots stay below it, so the unitary is the first refusal); the real cap
    # stops M = 10^6, 10^12 shots, 10^9 realizations or N up to 10^10 the same
    # way, with no 7 TiB draw or 376 GB of seeds; an M-long input state of `sample` built
    # first would raise MemoryError at M = 2**62 and OverflowError at 10**30
    monkeypatch.setattr(fock, "BASIS_CAP", 300)
    assert run(*argv, "--out", tmp_path / "out.csv") == 3
    assert refused in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@every_command
def test_every_command_rejects_a_negative_seed(tmp_path, capsys, argv):
    assert run(*argv, "--seed", -1, "--out", tmp_path / "out") == 2
    assert "--seed must be an integer >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("payload", [
    {"m": 2, "im": [[0, 0], [0, 0]]},
    {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    [1, 2],
    {"m": 2, "re": [["a", 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    {"m": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},
    {"m": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0, 0], [0, 0, 0]]},
    {"m": 2, "re": [[float("nan"), 0], [0, 1]], "im": [[0, 0], [0, 0]]},
    # re and im must each be m x m, not broadcast to it
    {"m": 2, "re": [[1, 0], [0, 1]], "im": 0},
    {"m": 2, "re": [[1, 0], [0, 1]], "im": [0, 0]},
    {"m": 1, "re": 1, "im": [[0]]},
    {"m": True, "re": [[1]], "im": [[0]]},
    {"m": 0, "re": [], "im": []},
    # an entry past the float range, in re and in im
    {"m": 1, "re": [[10**400]], "im": [[0]]},
    {"m": 1, "re": [[1]], "im": [[-10**400]]},
])
def test_decompose_rejects_malformed_unitary(tmp_path, capsys, payload):
    data = tmp_path / "in" / "u.json"
    data.parent.mkdir()
    data.write_text(json.dumps(payload))
    out = tmp_path / "plan.json"
    assert run("decompose", "--data", data, "--out", out) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", 5, "--m", 40],
        ["--n", 5, "--m", 40, "--collision-free"],
        ["--n", 30, "--m", 40],
        ["--n", 1, "--m", 2, "--shots", 2001],
    ],
    ids=["outcomes", "collision-free-outcomes", "glynn-cap", "shots"],
)
def test_sample_refuses_before_it_draws_the_unitary(tmp_path, monkeypatch, capsys, argv):
    # C(44, 5) outcomes, C(40, 5) patterns, N = 30 > GLYNN_CAP and 2001 shot
    # rows are all known before the Haar draw, so that draw must not happen
    def no_draw(m, seed):
        raise AssertionError("the unitary was drawn before the caps were checked")

    monkeypatch.setattr(fock, "BASIS_CAP", 2000)
    monkeypatch.setattr(cli, "haar_random_unitary", no_draw)
    assert run("sample", *argv, "--out", tmp_path / "out.csv") == 3
    assert "size cap exceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rates_from_a_single_atom(tmp_path):
    # c N^2 = 1 rounds to no site at all; the finite sum then needs one site
    out = tmp_path / "r.csv"
    assert run("rates", "--n-min", 1, "--n-max", 3, "--model", "finite", "--out", out) == 0
    assert [row.split(",")[0] for row in payload_lines(out)[1:]] == ["1", "2", "3"]


def test_rates_refuses_the_retired_auto_model(tmp_path):
    assert run("rates", "--model", "auto", "--out", tmp_path / "r.csv") == 2
    assert list(tmp_path.iterdir()) == []


def test_rates_refuses_the_finite_sum_above_its_cap_before_any_sector(tmp_path, monkeypatch, capsys):
    def no_sector(n, m):
        raise AssertionError("a sector was computed before the cap was checked")

    monkeypatch.setattr(lossmodel, "_occupancy_sector", no_sector)
    n_max = lossmodel.FINITE_MODEL_CAP + 1
    assert run("rates", "--n-max", n_max, "--out", tmp_path / "r.csv") == 3
    assert "--model closed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "closed.csv"
    assert run("rates", "--model", "closed", "--n-max", n_max, "--out", out) == 0
    assert payload_lines(out)[-1].startswith(f"{n_max},")


@pytest.mark.parametrize("c,message", [(1.7e308, "overflows"), (1e-12, "four on a site")])
def test_rates_rejects_mode_ratio_outside_the_finite_model(tmp_path, capsys, c, message):
    scenario = valid_scenario()
    scenario["loss"]["mode_ratio_c"] = c
    data = tmp_path / "in" / "s.json"
    data.parent.mkdir()
    data.write_text(json.dumps(scenario))
    out = tmp_path / "r.csv"
    assert run("rates", "--scenario", data, "--n-max", 4, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rates_rejects_a_classical_rate_that_overflows(tmp_path, capsys):
    # 2^-1 / (100 a_tilde) is infinite for the smallest subnormal a_tilde
    scenario = valid_scenario()
    scenario["classical"]["a_tilde"] = 5e-324
    data = tmp_path / "in" / "s.json"
    data.parent.mkdir()
    data.write_text(json.dumps(scenario))
    out = tmp_path / "r.csv"
    assert run("rates", "--scenario", data, "--n-max", 4, "--out", out) == 2
    assert "overflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [("rates", "--scenario"), ("hom-fit", "--data")])
def test_input_that_is_not_json_text_exits_2(tmp_path, capsys, command, flag):
    data = tmp_path / "in" / "binary.json"
    data.parent.mkdir()
    data.write_bytes(b"\xd0\x80\xff{")
    out = tmp_path / "out.csv"
    assert run(command, flag, data, "--out", out) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()
    data.write_text("5")
    assert run(command, flag, data, "--out", out) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_identity(tmp_path):
    upath = tmp_path / "id.json"
    upath.write_text(json.dumps(unitary_to_json(np.eye(4, dtype=complex))))
    out = tmp_path / "plan.json"
    assert run("decompose", "--data", upath, "--out", out) == 0
    plan = json.loads(out.read_text())
    for layer in plan["layers"]:
        for coupling in layer:
            assert coupling["theta"] == 0.0 and coupling["phi"] == 0.0
    assert plan["output_phases"] == [0.0, 0.0, 0.0, 0.0]


def test_decompose_needs_input(tmp_path, capsys):
    assert run("decompose", "--out", tmp_path / "p.json") == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,message", [
    (["--data", "{u}", "--m", 5], "not allowed with argument"),
    (["--m", 0], "must be an integer >= 1"),
])
def test_decompose_takes_one_source(tmp_path, capsys, argv, message):
    # --data and --m exclude each other, and --m 0 is a mode count, not a missing flag
    upath = tmp_path / "in" / "u.json"
    upath.parent.mkdir()
    upath.write_text(json.dumps(unitary_to_json(np.eye(2, dtype=complex))))
    out = tmp_path / "plan.json"
    assert run("decompose", *(str(a).format(u=upath) for a in argv), "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exactsim_outputs(tmp_path):
    out = tmp_path / "bench.csv"
    assert run("exactsim", "--n", 2, "--m", 4, "--tau-tb", 1.0,
               "--realizations", 4, "--seed", 5, "--out", out) == 0
    rows = payload_lines(out)
    assert rows[0] == "realization,step,p_j"
    assert len(rows) == 1 + 4 * 4  # header + realizations x steps
    summary = json.loads((tmp_path / "bench.summary.json").read_text())
    assert set(summary) >= {"mean_p_total", "model_p_step", "model_p_step_pow_M"}
    assert summary["mean_p_total"] >= summary["model_p_step_pow_M"] - 0.01


def test_exactsim_csv_matches_library_benchmark(tmp_path):
    from atomsampler.exactsim import benchmark_vs_model

    out = tmp_path / "bench.csv"
    assert run("exactsim", "--n", 4, "--m", 16, "--tau-tb", 1.0,
               "--realizations", 3, "--seed", 11, "--out", out) == 0
    result = benchmark_vs_model(4, 16, 1.0, realizations=3, seed=11)
    rows = payload_lines(out)[1:]
    assert len(rows) == 3 * 16
    for row in rows:
        r, j, value = row.split(",")
        assert float(value) == result.p_j[int(r), int(j) - 1]
    summary = json.loads((tmp_path / "bench.summary.json").read_text())
    assert summary["model_p_step"] == result.model_p_step


def test_exactsim_reports_zero_survival_once_the_state_is_empty(tmp_path):
    # every placement of 3 atoms on 2 sites holds a pair, which decays at once
    out = tmp_path / "bench.csv"
    assert run("exactsim", "--n", 3, "--m", 4, "--tau-tb", 1e-300,
               "--realizations", 1, "--out", out) == 0
    assert [float(row.split(",")[2]) for row in payload_lines(out)[1:]] == [0.0] * 4
    summary = json.loads(out.with_suffix(".summary.json").read_text())
    assert summary["mean_p_total"] == 0.0


def test_exactsim_lossless_survivals_do_not_exceed_one(tmp_path):
    # a lossless step's norm ratio can round past 1, as it did in 10 of these 30 rows
    out = tmp_path / "bench.csv"
    assert run("exactsim", "--n", 3, "--m", 6, "--tau-tb", 1e300,
               "--realizations", 5, "--seed", 1, "--out", out) == 0
    p_j = [float(row.split(",")[2]) for row in payload_lines(out)[1:]]
    assert len(p_j) == 30
    assert max(p_j) == 1.0 and min(p_j) >= 1.0 - 1e-12


def test_exactsim_worker_invariance(tmp_path):
    solo = tmp_path / "w1.csv"
    pooled = tmp_path / "w2.csv"
    for workers, path in ((1, solo), (2, pooled)):
        run("exactsim", "--n", 2, "--m", 4, "--realizations", 4, "--seed", 5,
            "--workers", workers, "--out", path)
    assert payload_lines(solo) == payload_lines(pooled)


@pytest.mark.parametrize("ratio", ["-1", "0", "nan", "inf"])
def test_exactsim_rejects_bad_lifetime_ratio(tmp_path, capsys, ratio):
    assert run("exactsim", "--n", 2, "--m", 4, "--tau-tb", ratio, "--realizations", 2,
               "--out", tmp_path / "bench.csv") == 2
    assert "validation error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hom_sim_and_fit(tmp_path):
    sim_out = tmp_path / "hom.json"
    assert run("hom-sim", "--trials", 50_000, "--seed", 1, "--out", sim_out) == 0
    outcome = json.loads(sim_out.read_text())
    assert outcome["trials_kept"] > 0
    assert outcome["p0"] + outcome["p1"] + outcome["p2"] == pytest.approx(1.0, abs=1e-12)

    fit_out = tmp_path / "fit.json"
    assert run("hom-fit", "--trials", 300_000, "--seed", 2, "--out", fit_out) == 0
    report = json.loads(fit_out.read_text())
    assert set(report) == {"p_bunch", "sigma", "gamma", "trials_kept"}
    assert report["p_bunch"] == pytest.approx(0.73, abs=0.03)
    assert report["gamma"] == pytest.approx(2 * report["p_bunch"] - 1.0)


def test_hom_fit_custom_counts(tmp_path):
    data = tmp_path / "counts.json"
    data.write_text(json.dumps({"n0": 40, "n1": 41, "n2": 19}))
    out = tmp_path / "fit.json"
    assert run("hom-fit", "--data", data, "--trials", 200_000, "--seed", 3, "--out", out) == 0
    assert json.loads(out.read_text())["trials_kept"] == 100


def test_integer_valued_float_counts_are_read_as_ints(tmp_path):
    data = tmp_path / "counts.json"
    data.write_text(json.dumps({"n0": 40.0, "n1": 41, "n2": 1.9e1}))
    assert load_hom_counts(data).counts == (40, 41, 19)


def test_validation_exit_code(tmp_path, capsys):
    data = tmp_path / "zero.json"
    data.write_text(json.dumps({"n0": 0, "n1": 0, "n2": 0}))
    assert run("hom-fit", "--data", data, "--out", tmp_path / "f.json") == 2
    capsys.readouterr()
    assert not (tmp_path / "f.json").exists()


def test_hom_fit_rejects_zero_trials(tmp_path, capsys):
    assert run("hom-fit", "--trials", 0, "--out", tmp_path / "fit.json") == 2
    assert "validation error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", [2**63, 10**30], ids=["2**63", "10**30"])
def test_hom_sim_refuses_a_trial_count_past_int64(tmp_path, capsys, trials):
    out = tmp_path / "hom.json"
    assert run("hom-sim", "--trials", 2**63 - 1, "--out", out) == 0
    out.unlink()
    assert run("hom-sim", "--trials", trials, "--out", out) == 2
    assert "trials must fit int64" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_hom_fit_refuses_a_survival_of_zero(tmp_path, capsys):
    # no pair survives, so the counts say nothing about P_bunch
    scenario = tmp_path / "in" / "hom.json"
    scenario.parent.mkdir()
    scenario.write_text(json.dumps({**HOM_SCENARIO, "survival_s": 0.0}))
    out = tmp_path / "fit.json"
    assert run("hom-fit", "--scenario", scenario, "--out", out) == 2
    assert r"survival_s must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["hom-sim", "hom-fit"])
@pytest.mark.parametrize("content", ["[0.84, 0.71, 0.5]", "3.5", '"hom"'])
def test_hom_rejects_scenario_that_is_not_an_object(tmp_path, capsys, command, content):
    scenario = tmp_path / "in" / "hom.json"
    scenario.parent.mkdir()
    scenario.write_text(content)
    out = tmp_path / "out.json"
    assert run(command, "--scenario", scenario, "--trials", 1000, "--out", out) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("counts", [
    {"n0": 40, "n2": 19},
    [40, 41, 19],
    {"n0": 40, "n1": -1, "n2": 19},
    {"n0": 40, "n1": 4.5, "n2": 19},
    {"n0": 40, "n1": "41", "n2": 19},
    {"n0": 40, "n1": True, "n2": 19},
    {"n0": 40, "n1": math.inf, "n2": 19},
])
def test_hom_fit_rejects_malformed_counts(tmp_path, capsys, counts):
    data = tmp_path / "in" / "counts.json"
    data.parent.mkdir()
    data.write_text(json.dumps(counts))
    out = tmp_path / "fit.json"
    assert run("hom-fit", "--data", data, "--trials", 1000, "--out", out) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


#: Counts of more trials than a bootstrap resample can draw (numpy's int64
#: multinomial count), up to an integer literal too long for Python to read.
OVERSIZED_COUNTS = {
    "int64-max": "9223372036854775807",
    "1e20": "100000000000000000000",
    "beyond-float": "1" + "0" * 400,
    "beyond-int-digits": "1" + "0" * 5000,
}


@pytest.mark.parametrize("n0", list(OVERSIZED_COUNTS.values()), ids=list(OVERSIZED_COUNTS))
def test_hom_fit_refuses_counts_too_large_to_resample(tmp_path, capsys, n0):
    data = tmp_path / "in" / "counts.json"
    data.parent.mkdir()
    data.write_text(f'{{"n0": {n0}, "n1": 5, "n2": 5}}')
    out = tmp_path / "fit.json"
    assert run("hom-fit", "--data", data, "--trials", 1000, "--out", out) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_io_error_exit_code(tmp_path, capsys):
    assert run("rates", "--scenario", tmp_path / "missing.json", "--out", tmp_path / "r.csv") == 4
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run("sample", "--n", 2) == 2  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize("argv,sidecar", [
    (SMALL_RUNS["sample"], "out.unitary.json"),
    (SMALL_RUNS["exactsim"], "out.summary.json"),
], ids=["sample", "exactsim"])
def test_a_sidecar_that_cannot_be_written_leaves_no_payload(tmp_path, capsys, argv, sidecar):
    # a directory sidecar path is refused before the payload is written
    (tmp_path / sidecar).mkdir()
    assert run(*argv, "--out", tmp_path / "out.csv") == 4
    assert "i/o error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [sidecar]


@pytest.mark.parametrize("earlier", ["out.csv", "earlier.csv"], ids=["file", "symlink"])
@pytest.mark.parametrize("argv,sidecar", [
    (SMALL_RUNS["sample"], "out.unitary.json"),
    (SMALL_RUNS["exactsim"], "out.summary.json"),
], ids=["sample", "exactsim"])
def test_a_failed_run_leaves_the_earlier_payload_as_it_was(tmp_path, capsys, argv, sidecar, earlier):
    # the directory sidecar path is refused before anything is renamed; out.csv stays as it
    # was, a symlink as the same symlink
    out = tmp_path / "out.csv"
    (tmp_path / earlier).write_bytes(b"old\n")
    if earlier != out.name:
        out.symlink_to(earlier)
    (tmp_path / sidecar).mkdir()
    assert run(*argv, "--out", out) == 4
    err = capsys.readouterr().err
    assert "i/o error" in err and f"Is a directory: '{tmp_path / sidecar}'" in err
    assert out.read_bytes() == b"old\n"
    assert out.is_symlink() == (earlier != out.name)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({out.name, earlier, sidecar})


def test_a_run_that_fails_on_its_last_rename_restores_every_file(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    assert run(*SMALL_RUNS["sample"], "--seed", 1, "--out", out) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    replace = os.replace

    def failing(src, dst):
        if str(dst).endswith(".unitary.json"):
            raise OSError("no space left")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    assert run(*SMALL_RUNS["sample"], "--seed", 2, "--out", out) == 4
    assert "no space left" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("earlier", [None, "earlier.csv"], ids=["none", "symlink"])
def test_a_run_that_fails_on_its_last_rename_undoes_its_first(tmp_path, monkeypatch, capsys, earlier):
    # the payload is renamed into place, then the sidecar's rename fails: a payload
    # the run created is removed, a symlink it replaced comes back as the same symlink
    out = tmp_path / "out.csv"
    if earlier:
        (tmp_path / earlier).write_bytes(b"old\n")
        out.symlink_to(earlier)
    replace = os.replace

    def failing(src, dst):
        if str(dst).endswith(".unitary.json"):
            raise OSError("no space left")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    assert run(*SMALL_RUNS["sample"], "--out", out) == 4
    assert "no space left" in capsys.readouterr().err
    if earlier:
        assert out.is_symlink() and out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ([earlier, out.name] if earlier else [])


@pytest.mark.parametrize("out", [".", ""], ids=["dot", "empty"])
def test_an_output_path_without_a_name_exits_4(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    assert run(*SMALL_RUNS["sample"], "--out", out) == 4
    assert "i/o error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@every_command
def test_every_output_file_follows_the_umask(tmp_path, argv):
    old = os.umask(0o022)
    try:
        assert run(*argv, "--out", tmp_path / "out.csv") == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes and set(modes.values()) == {0o644}, modes


def test_each_run_stages_its_files_under_new_temporary_names(tmp_path, monkeypatch):
    staged = []
    replace = os.replace

    def recorded(src, dst):
        staged.append(os.path.basename(src))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recorded)
    for _ in range(2):
        assert run(*SMALL_RUNS["sample"], "--out", tmp_path / "out.csv") == 0
    assert len(set(staged)) == 4
    assert all(name.endswith(".tmp") for name in staged)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "out.unitary.json"]
