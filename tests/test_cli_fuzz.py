"""Property-based fuzzing of the command line.

Every argument vector and input file, however malformed, must end in a
documented exit code (0 success, 2 validation, 3 size cap, 4 I/O) and emit
only probability and survival values in [0, 1].  A failed run must leave
the output directory as it found it: no new output or temporary file, and
an earlier run's payload byte for byte, also when a directory takes a
sidecar's path.  The size caps and the bootstrap count are patched small,
so every size the strategies reach either runs in milliseconds or exits 3;
examples are derandomized, so the suite sees the same inputs on every run.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from atomsampler import fock, hom, permanent
from atomsampler.cli import main
from atomsampler.interferometer import haar_random_unitary, unitary_to_json
from atomsampler.scenarios import HOM_PRESETS, PRESETS, _read_source

EXIT_CODES = {0, 2, 3, 4}
SIDECARS = {"sample": ".unitary.json", "exactsim": ".summary.json"}

VALID = {
    "scenario": _read_source("state-of-the-art", PRESETS),
    "hom": _read_source("hom-experiment", HOM_PRESETS),
    "counts": {"n0": 39, "n1": 42, "n2": 19},
    "unitary": unitary_to_json(haar_random_unitary(3, seed=0)),
}


def _unitary_with(part, literal):
    """The valid unitary document with its first `part` entry written as `literal`."""
    doc = json.loads(json.dumps(VALID["unitary"]))
    doc[part][0][0] = "entry"
    return json.dumps(doc).replace('"entry"', literal).encode()


#: Documents valid in form past a limit: counts files whose trial total a
#: bootstrap resample cannot draw, and unitaries with an entry past the
#: float range (the last beyond Python's 4300-digit conversion limit).
OVERSIZED = {
    "counts": [
        b'{"n0": 9223372036854775807, "n1": 5, "n2": 5}',
        b'{"n0": 100000000000000000000, "n1": 5, "n2": 5}',
        b'{"n0": 1' + b"0" * 400 + b', "n1": 5, "n2": 5}',
        b'{"n0": 1' + b"0" * 5000 + b', "n1": 5, "n2": 5}',
    ],
    "unitary": [
        _unitary_with(part, literal)
        for part in ("re", "im")
        for literal in ("1" + "0" * 400, "-1" + "0" * 400, "1e400", "1" + "0" * 5000)
    ],
}

numbers = (
    st.integers(-3, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 5e-324, 1e-12, 0.5, 1.0, 1e300, 1.7e308, "inf", "nan", "0.5", True])
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Key paths to every value inside nested dicts and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def documents(draw, kind):
    """Bytes of a JSON input: garbage, any JSON value, or a valid file with one value changed.

    Counts and unitary files may also be oversized: valid in form, with too
    many trials or an entry past the float range.
    """
    shapes = ["valid", "mutated", "mutated", "json", "bytes"] + ["oversized"] * (kind in OVERSIZED)
    shape = draw(st.sampled_from(shapes))
    if shape == "oversized":
        return draw(st.sampled_from(OVERSIZED[kind]))
    if shape == "bytes":
        return draw(st.binary(max_size=20))
    if shape == "json":
        return json.dumps(draw(json_values)).encode()
    doc = json.loads(json.dumps(VALID[kind]))
    if shape == "mutated":
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return json.dumps(doc).encode()


def _source(draw, flag, kind, presets):
    """[] (the default), a preset name, a missing path or a written document."""
    choice = draw(st.sampled_from(["default", "missing", "file", "file"] + ["preset"] * bool(presets)))
    if choice == "default":
        return [], None
    if choice == "preset":
        return [flag, draw(st.sampled_from(sorted(presets)))], None
    if choice == "missing":
        return [flag, "{inputs}/absent.json"], None
    return [flag, f"{{inputs}}/{kind}.json"], (kind, draw(documents(kind)))


@st.composite
def runs(draw, command):
    """(argv, input files) for one run of `command`; paths are filled in later."""
    argv, files = [command], {}

    def option(flag, strategy):
        if draw(st.booleans()):
            argv.extend([flag, str(draw(strategy))])

    def source(flag, kind, presets=()):
        args, document = _source(draw, flag, kind, presets)
        argv.extend(args)
        if document:
            files[document[0]] = document[1]

    atoms, modes = st.integers(-2, 8), st.integers(-2, 48)
    if command == "rates":
        source("--scenario", "scenario", PRESETS)
        option("--n-min", st.integers(-2, 60))
        option("--n-max", st.integers(-2, 60))
        option("--model", st.sampled_from(["auto", "finite", "closed", "exact"]))
    elif command == "sample":
        argv += ["--n", str(draw(atoms)), "--m", str(draw(modes))]
        option("--shots", st.integers(-3, 2000))
        if draw(st.booleans()):
            argv.append("--collision-free")
    elif command == "decompose":
        if draw(st.booleans()):
            source("--data", "unitary")
        option("--m", modes)
    elif command == "exactsim":
        option("--n", atoms)
        option("--m", st.integers(-2, 16))
        option("--tau-tb", st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([1e-300, 1e300]))
        option("--realizations", st.integers(-1, 3))
    elif command == "hom-sim":
        source("--scenario", "hom", HOM_PRESETS)
        option("--trials", st.integers(-3, 10**5))
    else:
        source("--scenario", "hom", HOM_PRESETS)
        source("--data", "counts")
        option("--trials", st.integers(-3, 10**5))
    option("--seed", st.integers(-3, 3) | st.just(2**64))
    option("--workers", st.sampled_from([-1, 0, 1, 2]))
    argv += draw(st.sampled_from([[], [], [], ["--bogus"], ["--seed"], ["stray"]]))
    return argv, files


def _probabilities(command, out):
    """Every probability or survival value a successful run wrote."""
    if command == "exactsim":
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        return [float(row.split(",")[2]) for row in rows] + list(summary.values())
    if command == "hom-sim":
        payload = json.loads(out.read_text())
        return [payload["p0"], payload["p1"], payload["p2"]]
    if command == "hom-fit":
        payload = json.loads(out.read_text())
        return [payload["p_bunch"], payload["gamma"]]
    if command == "rates":
        marker = "# excluded_occupancy_mass_max = "
        return [float(line[len(marker):]) for line in out.read_text().splitlines()
                if line.startswith(marker)]
    return []


def _snapshot(directory):
    """Name and bytes of every entry in `directory`; None stands for a subdirectory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


@pytest.fixture(scope="module", autouse=True)
def small_caps():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "BASIS_CAP", 2000)
        patch.setattr(permanent, "GLYNN_CAP", 6)
        patch.setattr(hom, "BOOTSTRAP_RESAMPLES", 20)
        yield


@pytest.mark.parametrize("command", ["rates", "sample", "decompose", "exactsim", "hom-sim", "hom-fit"])
@settings(
    max_examples=25,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_run_ends_in_a_documented_exit_code(command, data):
    argv, files = data.draw(runs(command))
    with tempfile.TemporaryDirectory() as root:
        inputs, outputs = Path(root, "inputs"), Path(root, "outputs")
        inputs.mkdir()
        outputs.mkdir()
        for kind, content in files.items():
            (inputs / f"{kind}.json").write_bytes(content)
        out_dir = outputs if data.draw(st.integers(0, 9)) else outputs / "absent"
        out = out_dir / "result.csv"
        # an earlier run's payload must survive a failed run byte for byte
        if out_dir.exists() and data.draw(st.booleans()):
            out.write_bytes(b"earlier run\n")
        # a directory where the sidecar belongs fails a two-file run before it writes
        if command in SIDECARS and out_dir.exists() and data.draw(st.booleans()):
            out.with_suffix(SIDECARS[command]).mkdir()
        before = _snapshot(outputs)
        code = main([arg.format(inputs=inputs) for arg in argv] + ["--out", str(out)])
        assert code in EXIT_CODES
        written = _snapshot(outputs)
        if code != 0:
            assert written == before
            return
        assert not [name for name in written if name.endswith((".tmp", ".old"))]
        values = _probabilities(command, out)
        assert all(0.0 <= v <= 1.0 for v in values), values


#: The command that reads each kind of document, short of its path and --out.
READERS = {"counts": ["hom-fit", "--trials", "100", "--data"], "unitary": ["decompose", "--data"]}


@pytest.mark.parametrize("kind", list(READERS))
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_input_file_ends_in_a_documented_exit_code(kind, data):
    # the all-commands run above rarely gets past its scenario and flags to the document
    with tempfile.TemporaryDirectory() as root:
        path, out = Path(root, f"{kind}.json"), Path(root, "out.json")
        path.write_bytes(data.draw(documents(kind)))
        code = main([*READERS[kind], str(path), "--out", str(out)])
        assert code in EXIT_CODES
        assert out.exists() == (code == 0)
