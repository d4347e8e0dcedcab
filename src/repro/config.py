"""Scale presets and experiment configuration.

The paper's evaluation uses 92 application classes and 5333 samples
collected from the sciCORE production cluster.  Regenerating that scale
with the synthetic corpus is possible but slow on small CI machines, so
experiments in this repository run at one of three *scale presets*:

``small``
    A dozen classes, a few samples each.  Used by the unit/integration
    tests so the whole suite stays fast.
``medium``
    All 92 classes from the paper's catalogue, but with per-class sample
    counts capped.  This is the default for ``pytest benchmarks/``.
``full``
    The paper-scale corpus: all 92 classes with the per-class sample
    counts reconstructed from Tables 3 and 4 (≈5333 samples).

The preset is chosen with the ``REPRO_SCALE`` environment variable or
explicitly through :class:`ExperimentConfig`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Mapping

from .exceptions import ConfigurationError

__all__ = [
    "ScalePreset",
    "ExperimentConfig",
    "get_scale_preset",
    "default_config",
    "SCALE_PRESETS",
]

#: Environment variable that selects the default scale preset.
SCALE_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True)
class ScalePreset:
    """Describes how large the synthetic corpus and experiment should be.

    Attributes
    ----------
    name:
        Preset identifier (``small``/``medium``/``full``).
    max_classes:
        Number of application classes drawn from the catalogue
        (``None`` means all 92).
    max_samples_per_class:
        Cap applied to the per-class sample count from the catalogue
        (``None`` means the paper-scale counts).
    binary_size_range:
        Inclusive (min, max) size in bytes of the synthetic ``.text``
        section.  Real HPC binaries are larger; nothing in the evaluation
        depends on absolute size (see DESIGN.md).
    n_estimators:
        Number of trees for the default Random Forest.
    grid_search_budget:
        Rough number of hyper-parameter combinations explored by the
        default grid search (``core.gridsearch`` trims its grid to this).
    """

    name: str
    max_classes: int | None
    max_samples_per_class: int | None
    binary_size_range: tuple[int, int]
    n_estimators: int
    grid_search_budget: int

    def describe(self) -> str:
        """Return a one-line human readable description of the preset."""

        classes = "all 92" if self.max_classes is None else str(self.max_classes)
        cap = ("paper-scale" if self.max_samples_per_class is None
               else f"<= {self.max_samples_per_class}/class")
        return (f"preset '{self.name}': {classes} classes, samples {cap}, "
                f"binaries {self.binary_size_range[0]}-{self.binary_size_range[1]} B, "
                f"{self.n_estimators} trees")


SCALE_PRESETS: Mapping[str, ScalePreset] = {
    "small": ScalePreset(
        name="small",
        max_classes=12,
        max_samples_per_class=8,
        binary_size_range=(2_048, 8_192),
        n_estimators=30,
        grid_search_budget=4,
    ),
    "medium": ScalePreset(
        name="medium",
        max_classes=None,
        max_samples_per_class=24,
        binary_size_range=(3_072, 16_384),
        n_estimators=80,
        grid_search_budget=8,
    ),
    "full": ScalePreset(
        name="full",
        max_classes=None,
        max_samples_per_class=None,
        binary_size_range=(4_096, 32_768),
        n_estimators=120,
        grid_search_budget=12,
    ),
}


def get_scale_preset(name: str | None = None) -> ScalePreset:
    """Resolve a scale preset by name or from ``REPRO_SCALE``.

    Raises
    ------
    ConfigurationError
        If the name is not one of ``small``, ``medium`` or ``full``.
    """

    if name is None:
        name = os.environ.get(SCALE_ENV_VAR, "medium")
    key = str(name).strip().lower()
    if key not in SCALE_PRESETS:
        raise ConfigurationError(
            f"Unknown scale preset {name!r}; expected one of {sorted(SCALE_PRESETS)}"
        )
    return SCALE_PRESETS[key]


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of knobs that define one end-to-end experiment.

    The defaults reproduce the paper's methodology:

    * 80/20 class-level split into known/unknown classes,
    * stratified 60/40 sample split of the known classes,
    * one similarity feature per (fuzzy-hash type, class): the maximum
      SSDeep score against that class's training samples,
    * Random Forest with balanced class weights,
    * confidence threshold tuned on the training set only.
    """

    scale: ScalePreset = field(default_factory=get_scale_preset)
    seed: int = 20241127  # arXiv submission date of the paper
    unknown_class_fraction: float = 0.20
    test_sample_fraction: float = 0.40
    unknown_label: int = -1
    confidence_threshold: float | None = None  # None -> tuned by grid search
    feature_types: tuple[str, ...] = ("ssdeep-file", "ssdeep-strings", "ssdeep-symbols")
    n_jobs: int = 1

    def with_scale(self, name: str) -> "ExperimentConfig":
        """Return a copy of this config with a different scale preset."""

        return replace(self, scale=get_scale_preset(name))

    def validate(self) -> "ExperimentConfig":
        """Check value ranges; returns ``self`` for chaining."""

        if not (0.0 < self.unknown_class_fraction < 1.0):
            raise ConfigurationError(
                "unknown_class_fraction must be in (0, 1), got "
                f"{self.unknown_class_fraction}"
            )
        if not (0.0 < self.test_sample_fraction < 1.0):
            raise ConfigurationError(
                f"test_sample_fraction must be in (0, 1), got {self.test_sample_fraction}"
            )
        if self.confidence_threshold is not None and not (
            0.0 <= self.confidence_threshold <= 1.0
        ):
            raise ConfigurationError(
                "confidence_threshold must be None or in [0, 1], got "
                f"{self.confidence_threshold}"
            )
        if not self.feature_types:
            raise ConfigurationError("feature_types must not be empty")
        return self


def default_config(scale: str | None = None, **overrides) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` for the given scale preset.

    Keyword overrides are applied on top of the defaults, e.g.
    ``default_config("small", seed=7)``.
    """

    cfg = ExperimentConfig(scale=get_scale_preset(scale))
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()
