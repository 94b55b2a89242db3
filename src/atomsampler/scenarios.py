"""Scenario files: loading, validation, and shipped presets.

A scenario bundle is a JSON object with three sections, each using the exact
field names of the corresponding dataclass::

    {"loss": {...LossScenario...},
     "photonic": {...PhotonicScenario...},
     "classical": {...ClassicalScenario...}}

The lifetimes tau_bg and tau_tb may be the string "inf" to switch a loss channel off;
each field converts to a float under `errors.in_range`, and the two-atom parameters are
one flat `HomParams` object.  Presets "conservative", "state-of-the-art", and "lossless"
ship with the package, as do the two-atom interference parameters ("hom-experiment")
and a small measured-counts sample.
"""

import json
from dataclasses import dataclass
from importlib import resources
from numbers import Real

from .errors import ValidationError, in_range
from .hom import HomOutcomes, HomParams
from .lossmodel import ClassicalScenario, LossScenario, PhotonicScenario

PRESETS = {
    "conservative": "conservative.json",
    "state-of-the-art": "state_of_the_art.json",
    "lossless": "lossless.json",
}

HOM_PRESETS = {"hom-experiment": "hom_experiment.json"}


@dataclass(frozen=True)
class ScenarioBundle:
    loss: LossScenario
    photonic: PhotonicScenario
    classical: ClassicalScenario


def _as_float(section, key, value):
    """A field's JSON number, or the string "inf", as a float; a bool is not a number."""
    number = isinstance(value, Real) and not isinstance(value, bool)
    if not (number or isinstance(value, str) and value == "inf"):
        raise ValidationError(f"scenario field {section}.{key} is not a number: {value!r}")
    with in_range(f"scenario field {section}.{key} must be a float"):
        return float(value)


def _build(cls, section, data):
    if not isinstance(data, dict):
        raise ValidationError(f"scenario section {section!r} must be an object")
    fields = {k: _as_float(section, k, v) for k, v in data.items()}
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ValidationError(f"scenario section {section!r}: {exc}") from exc


def bundle_from_dict(data):
    for section in ("loss", "photonic", "classical"):
        if not isinstance(data, dict) or section not in data:
            raise ValidationError(f"scenario file is missing the {section!r} section")
    return ScenarioBundle(
        loss=_build(LossScenario, "loss", data["loss"]),
        photonic=_build(PhotonicScenario, "photonic", data["photonic"]),
        classical=_build(ClassicalScenario, "classical", data["classical"]),
    )


def read_json(path):
    """JSON data of a file; text that does not parse is a `ValidationError`.

    Besides malformed JSON and bytes that are not UTF-8, that covers an
    integer literal longer than Python's 4300-digit conversion limit.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _read_source(source, presets):
    """JSON data of a shipped preset named in `presets`, or of a file path."""
    if source in presets:
        ref = resources.files("atomsampler.presets").joinpath(presets[source])
        return json.loads(ref.read_text(encoding="utf-8"))
    return read_json(source)


def load_bundle(source):
    """Scenario bundle from a preset name or a JSON file path."""
    return bundle_from_dict(_read_source(source, PRESETS))


def load_hom_params(source):
    """Two-atom experiment parameters from a preset name or JSON path."""
    return _build(HomParams, "hom", _read_source(source, HOM_PRESETS))


def load_hom_counts(path):
    """Measured outcome counts {"n0", "n1", "n2"} from a JSON file."""
    data = read_json(path)
    counts = [data.get(k) for k in ("n0", "n1", "n2")] if isinstance(data, dict) else [None] * 3
    # an integer-valued float is its int; `from_counts` refuses what is not a count
    return HomOutcomes.from_counts(*(int(c) if type(c) is float and c.is_integer() else c
                                     for c in counts))


def sample_counts_path():
    """Path to the shipped measured-counts example file."""
    return resources.files("atomsampler.presets").joinpath("hom_counts_sample.json")
