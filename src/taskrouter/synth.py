"""Seeded generator of synthetic benchmark worlds.

A world spec names its datasets implicitly (ds00, ds01, ...), gives every
model a per-dataset competence probability, and picks a signal mode:

* ``prompt_keyword``: each dataset's question forms carry a token derived
  from its designated best model, so the best-model label is a
  deterministic function of a prompt substring. To make that guarantee
  hold under the labeling rule, the designated model must be specified
  with competence exactly 1.0 (unique per dataset); world specs that
  violate this are rejected.
* ``metadata_band``: each dataset's pixel statistics fall in a band
  derived from its designated best model, so routing signal lives in the
  image metadata, not the prompt text.
* ``none``: identical prompts and unconstrained pixels; no routing signal
  beyond the labels themselves.

Correctness is sampled per record as an independent Bernoulli draw of the
model's competence; predicted indices agree with the correctness flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    DatasetManifest,
    IdColumn,
    MetadataSummary,
    Records,
    Sample,
    World,
    read_json,
    summarize_images,
    typed_field,
    write_json,
)
from .errors import InvalidInputError
from .prompts import DatasetPromptConfig, PromptTemplate, prompt_variants

SIGNAL_MODES = ("prompt_keyword", "metadata_band", "none")

_IMAGE_SIDE = 8  # pixel arrays only need to carry channel statistics


@dataclass(frozen=True)
class WorldSpec:
    """Recipe for one synthetic world."""

    n_datasets: int
    samples_per_dataset: int
    options_range: tuple[int, int]
    competence: Mapping[str, tuple[float, ...]]  # model -> per-dataset probabilities
    signal_mode: str = "none"
    question_forms_per_dataset: int = 2
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self,
            "competence",
            {m: tuple(float(p) for p in ps) for m, ps in self.competence.items()},
        )
        if self.n_datasets < 1 or self.samples_per_dataset < 1:
            raise InvalidInputError("need at least one dataset and one sample")
        if len(self.options_range) != 2 or not 2 <= self.options_range[0] <= self.options_range[1]:
            raise InvalidInputError(
                f"options range must be (lo, hi) with 2 <= lo <= hi, got {self.options_range}"
            )
        if not self.competence:
            raise InvalidInputError("model pool must be non-empty")
        if self.signal_mode not in SIGNAL_MODES:
            raise InvalidInputError(
                f"signal mode must be one of {SIGNAL_MODES}, got {self.signal_mode!r}"
            )
        if self.question_forms_per_dataset < 1:
            raise InvalidInputError("need at least one question form per dataset")
        for model, probs in self.competence.items():
            if len(probs) != self.n_datasets:
                raise InvalidInputError(
                    f"model {model}: {len(probs)} competences for "
                    f"{self.n_datasets} datasets"
                )
            if any(not 0.0 <= p <= 1.0 for p in probs):
                raise InvalidInputError(
                    f"model {model}: competences must lie in [0, 1], got {probs}"
                )
        if self.signal_mode == "prompt_keyword":
            for d in range(self.n_datasets):
                perfect = [m for m, ps in self.competence.items() if ps[d] == 1.0]
                if len(perfect) != 1:
                    raise InvalidInputError(
                        f"prompt_keyword mode needs exactly one competence-1.0 "
                        f"model per dataset (the designated best); dataset {d} "
                        f"has {perfect or 'none'}. Otherwise the best-model "
                        f"label is not a deterministic function of the keyword."
                    )

    @property
    def model_pool(self) -> list[str]:
        return sorted(self.competence)

    def dataset_ids(self) -> list[str]:
        return [f"ds{i:02d}" for i in range(self.n_datasets)]

    def designated_best(self, dataset_index: int) -> str:
        """Highest-competence model for a dataset; ties break lexicographically."""
        return min(
            self.competence,
            key=lambda m: (-self.competence[m][dataset_index], m),
        )

    def to_dict(self) -> dict:
        return {
            "n_datasets": self.n_datasets,
            "samples_per_dataset": self.samples_per_dataset,
            "options_range": list(self.options_range),
            "competence": {m: list(ps) for m, ps in self.competence.items()},
            "signal_mode": self.signal_mode,
            "question_forms_per_dataset": self.question_forms_per_dataset,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "WorldSpec":
        return cls(
            n_datasets=typed_field(d, "n_datasets", int),
            samples_per_dataset=typed_field(d, "samples_per_dataset", int),
            options_range=tuple(typed_field(d, "options_range", list, int)),
            competence=typed_field(d, "competence", dict, (list, float)),
            signal_mode=typed_field(d, "signal_mode", str, default="none"),
            question_forms_per_dataset=typed_field(d, "question_forms_per_dataset", int, default=2),
            seed=typed_field(d, "seed", int, default=0),
        )

    @classmethod
    def load(cls, path: str | Path) -> "WorldSpec":
        return read_json(path, cls.from_dict)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


_QUESTION_STEMS = (
    "What should we call this? This is ",
    "Identify the subject: it is ",
    "Reflect, then answer: the subject is ",
    "In one word, this is ",
)


def _question_forms(spec: WorldSpec, dataset_index: int) -> tuple[str, ...]:
    stems = _QUESTION_STEMS[: spec.question_forms_per_dataset]
    if len(stems) < spec.question_forms_per_dataset:
        stems = tuple(
            f"Variant {j}: the subject is "
            for j in range(spec.question_forms_per_dataset)
        )
    if spec.signal_mode == "prompt_keyword":
        token = f"sig-{spec.designated_best(dataset_index)}"
        return tuple(f"[{token}] {stem}" for stem in stems)
    return tuple(stems)


def _band_center(spec: WorldSpec, dataset_index: int) -> int:
    """Pixel-mean band for metadata_band mode, derived from the designated
    best model so datasets sharing a best model share a band."""
    pool = spec.model_pool
    idx = pool.index(spec.designated_best(dataset_index))
    return 40 + 45 * idx


def generate_world(spec: WorldSpec) -> World:
    """Produce manifests, prompt configs, pixel arrays, execution records,
    and metadata summaries, deterministically in the world-spec seed.

    Records cover every (model, sample, variant). Empirical per-(model,
    dataset) accuracy concentrates around the specified competence (the
    draws are independent Bernoulli trials).
    """
    rng = np.random.default_rng(spec.seed)
    pool = spec.model_pool

    datasets: dict[str, DatasetManifest] = {}
    configs: dict[str, DatasetPromptConfig] = {}
    metadata: dict[str, MetadataSummary] = {}
    pixels: dict[str, np.ndarray] = {}
    tables = []  # one Records per dataset, in (model, sample, variant) order

    for d, ds_id in enumerate(spec.dataset_ids()):
        n_options = int(rng.integers(spec.options_range[0], spec.options_range[1] + 1))
        class_names = tuple(f"choice {j}" for j in range(n_options))
        config = DatasetPromptConfig(
            dataset_id=ds_id,
            question_forms=tuple(
                PromptTemplate(q) for q in _question_forms(spec, d)
            ),
            option_forms=(PromptTemplate("{class_name}"),),
            class_names=class_names,
        )
        configs[ds_id] = config

        golds = rng.integers(0, n_options, size=spec.samples_per_dataset)
        images = _make_pixels(spec, d, rng)
        samples = []
        for i, summary in enumerate(summarize_images(images)):
            sample_id = f"{ds_id}-s{i:05d}"
            samples.append(
                Sample(
                    sample_id=sample_id,
                    dataset_id=ds_id,
                    image_ref=f"{ds_id}/{sample_id}",
                    context={},
                    response_options=class_names,
                    gold_index=int(golds[i]),
                )
            )
            pixels[sample_id] = images[i]
            metadata[sample_id] = summary
        manifest = DatasetManifest(
            dataset_id=ds_id,
            task_kind="recognition" if d % 2 == 0 else "reasoning",
            samples=tuple(samples),
            prompt_config_ref=ds_id,
        )
        datasets[ds_id] = manifest

        variant_ids = tuple(v.variant_id for v in prompt_variants(config))
        shape = (spec.samples_per_dataset, len(variant_ids))
        gold = golds[:, None]
        predicted, correct = [], []
        for model in pool:
            hits = rng.random(shape) < spec.competence[model][d]
            wrong_step = rng.integers(1, n_options, size=shape)
            predicted.append(np.where(hits, gold, (gold + wrong_step) % n_options).ravel())
            correct.append(hits.ravel())
        model_codes, sample_codes, variant_codes = np.indices(
            (len(pool), *shape), dtype=np.int32).reshape(3, -1)
        tables.append(Records(
            IdColumn(sample_codes, tuple(s.sample_id for s in samples)),
            IdColumn(np.zeros_like(model_codes), (ds_id,)), IdColumn(model_codes, tuple(pool)),
            IdColumn(variant_codes, variant_ids),
            np.concatenate(predicted), np.concatenate(correct),
        ))

    return World(
        datasets=datasets,
        prompt_configs=configs,
        metadata=metadata,
        records=Records.concat(tables),
        model_pool=pool,
        seed=spec.seed,
        pixels=pixels,
    )


def _make_pixels(spec: WorldSpec, dataset_index: int, rng: np.random.Generator) -> np.ndarray:
    """The dataset's (samples, side, side, 3) pixel stack in one draw, which
    takes the same values from ``rng`` as one draw per sample would."""
    shape = (spec.samples_per_dataset, _IMAGE_SIDE, _IMAGE_SIDE, 3)
    if spec.signal_mode == "metadata_band":
        center = _band_center(spec, dataset_index)
        return rng.integers(center - 2, center + 3, size=shape).astype(np.uint8)
    return rng.integers(0, 256, size=shape).astype(np.uint8)
