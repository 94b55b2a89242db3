"""Scenario files: loading, validation, and shipped presets.

A scenario bundle is a JSON object with three sections, each using the exact
field names of the corresponding dataclass::

    {"loss": {...LossScenario...},
     "photonic": {...PhotonicScenario...},
     "classical": {...ClassicalScenario...}}

Numeric values may be given as the string "inf" to switch a loss channel off.
Presets "conservative", "state-of-the-art", and "lossless" ship with the
package, as do the two-atom interference parameters ("hom-experiment") and a
small measured-counts sample.
"""

import json
from dataclasses import dataclass
from importlib import resources

from .errors import ValidationError
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
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"scenario field {section}.{key} is not numeric: {value!r}")


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
        if section not in data:
            raise ValidationError(f"scenario file is missing the {section!r} section")
    return ScenarioBundle(
        loss=_build(LossScenario, "loss", data["loss"]),
        photonic=_build(PhotonicScenario, "photonic", data["photonic"]),
        classical=_build(ClassicalScenario, "classical", data["classical"]),
    )


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_preset(filename):
    ref = resources.files("atomsampler.presets").joinpath(filename)
    return json.loads(ref.read_text(encoding="utf-8"))


def load_bundle(source):
    """Scenario bundle from a preset name or a JSON file path."""
    if source in PRESETS:
        return bundle_from_dict(_read_preset(PRESETS[source]))
    return bundle_from_dict(_read_json(source))


def load_hom_params(source):
    """Two-atom experiment parameters from a preset name or JSON path."""
    data = _read_preset(HOM_PRESETS[source]) if source in HOM_PRESETS else _read_json(source)
    if not isinstance(data, dict):
        raise ValidationError("hom parameter file must hold a JSON object")
    fields = {k: _as_float("hom", k, v) for k, v in data.items()}
    try:
        return HomParams(**fields)
    except TypeError as exc:
        raise ValidationError(f"hom parameter file: {exc}") from exc


def load_hom_counts(path):
    """Measured outcome counts {"n0", "n1", "n2"} from a JSON file."""
    data = _read_json(path)
    counts = [data.get(k) for k in ("n0", "n1", "n2")] if isinstance(data, dict) else [None]
    if not all(type(c) in (int, float) and c >= 0 and float(c).is_integer() for c in counts):
        raise ValidationError(f"counts file needs non-negative integers n0, n1, n2, got {data!r}")
    return HomOutcomes.from_counts(*map(int, counts))


def sample_counts_path():
    """Path to the shipped measured-counts example file."""
    return resources.files("atomsampler.presets").joinpath("hom_counts_sample.json")
