import json
import math

import numpy as np
import pytest

from atomsampler.cli import main
from atomsampler.fock import FockState
from atomsampler.interferometer import unitary_from_json, unitary_to_json
from atomsampler.lossmodel import r_ideal
from atomsampler.sampling import outcome_probability
from atomsampler.scenarios import load_bundle


def run(*argv):
    return main([str(a) for a in argv])


def payload_lines(path):
    """File content with `#` metadata lines stripped."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


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


def test_rates_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    good = json.loads(json.dumps({
        "loss": {"t_step": 33e-6, "tau_bg": 360.0, "tau_tb": 0.4, "t_init": 0.5,
                 "t_det": 0.1, "eta_init": 0.99, "eta_det": 0.99, "mode_ratio_c": 1.0},
        "photonic": {"r0": 76e6, "eta_f": 0.14, "eta_c": 0.999},
        "classical": {"a_tilde": 3e-15},
    }))
    good["loss"]["t_step"] = "soon"
    bad.write_text(json.dumps(good))
    assert run("rates", "--scenario", bad, "--out", tmp_path / "r.csv") == 2
    assert "t_step" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
    bad.write_text('{"loss": [1, 2')  # truncated JSON: parse error with position
    assert run("rates", "--scenario", bad, "--out", tmp_path / "r.csv") == 2
    assert "line" in capsys.readouterr().err


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
    from atomsampler.fock import enumerate_basis

    expected, observed = [], []
    for state in enumerate_basis(2, 4):
        p = outcome_probability(u, inp, state)
        expected.append(p * 10_000)
        observed.append(counts.get(state.occupations, 0))
    from conftest import merged_chisquare_pvalue

    assert merged_chisquare_pvalue(observed, expected) > 0.01


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
])
def test_hom_fit_rejects_malformed_counts(tmp_path, capsys, counts):
    data = tmp_path / "in" / "counts.json"
    data.parent.mkdir()
    data.write_text(json.dumps(counts))
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
