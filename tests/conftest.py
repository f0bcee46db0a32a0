"""Shared fixtures: hand-built micro-worlds and synthetic worlds."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from taskrouter import (
    DatasetManifest,
    ExecutionRecord,
    MetadataSummary,
    Sample,
    World,
)
from taskrouter.prompts import DatasetPromptConfig, PromptTemplate, prompt_variants
from taskrouter.router import featurize_batch, train_router
from taskrouter.synth import WorldSpec, generate_world


def make_micro_world(
    n_samples: int = 2,
    models: tuple[str, ...] = ("alpha", "beta", "gamma"),
    correctness: dict | None = None,
    with_empty_question: bool = True,
) -> World:
    """A tiny deterministic world with one dataset.

    ``correctness`` maps (model, sample_index, variant_id) -> bool; models
    not mentioned default to predicting index 0.
    """
    questions = [PromptTemplate("Say: this is ")]
    if with_empty_question:
        questions.insert(0, PromptTemplate(""))
    config = DatasetPromptConfig(
        dataset_id="micro",
        question_forms=tuple(questions),
        option_forms=(PromptTemplate("{class_name}"),),
        class_names=("red", "blue"),
    )
    samples = [
        Sample(
            sample_id=f"s{i}",
            dataset_id="micro",
            image_ref=f"micro/s{i}",
            context={},
            response_options=("red", "blue"),
            gold_index=i % 2,
        )
        for i in range(n_samples)
    ]
    manifest = DatasetManifest("micro", "recognition", tuple(samples), "micro")
    metadata = {
        s.sample_id: MetadataSummary(
            (4, 4, 3), (10.0 + i, 20.0, 30.0), (1.0, 2.0, 3.0)
        )
        for i, s in enumerate(samples)
    }
    records = []
    for model in models:
        for i, sample in enumerate(samples):
            for variant in prompt_variants(config):
                ok = bool(correctness.get((model, i, variant.variant_id), False)) \
                    if correctness else False
                predicted = sample.gold_index if ok else (sample.gold_index + 1) % 2
                records.append(ExecutionRecord(
                    sample_id=sample.sample_id,
                    dataset_id="micro",
                    model_id=model,
                    prompt_variant_id=variant.variant_id,
                    predicted_index=predicted,
                    correct=ok,
                ))
    return World(
        datasets={"micro": manifest},
        prompt_configs={"micro": config},
        metadata=metadata,
        records=records,
        model_pool=list(models),
    )


EMPTY_ARTICLE_ERROR = ("sample s1, template 'Seen at {a_an|place}: ', key 'place': "
                       "cannot pick an article for an empty phrase")


def empty_article_world() -> World:
    """The 3-sample micro world whose second question form puts an article
    before the context value ``place``, which sample s1 holds empty: that
    form's queries of s1 fail to render with ``EMPTY_ARTICLE_ERROR``."""
    world = make_micro_world(n_samples=3)
    config = world.prompt_configs["micro"]
    world.prompt_configs["micro"] = replace(
        config, question_forms=(config.question_forms[0], PromptTemplate("Seen at {a_an|place}: ")),
        context_keys=("place",))
    manifest = world.datasets["micro"]
    world.datasets["micro"] = replace(manifest, samples=tuple(
        replace(s, context={"place": "" if s.sample_id == "s1" else "inn"})
        for s in manifest.samples))
    return world


# which records of ``partial_micro_world`` a grid keeps, by case
PARTIAL_RECORDS = {
    "one_record_short": lambda r: not (r.model_id == "gamma" and r.sample_id == "s1"),
    "variant_short": lambda r: not (r.model_id == "gamma" and r.prompt_variant_id == "q1-o0"),
    "model_short": lambda r: r.model_id != "gamma",
    "no_records": lambda r: False,
    "empty_question_only": lambda r: r.prompt_variant_id == "q0-o0",
}


def partial_micro_world(case: str) -> tuple[World, list[ExecutionRecord]]:
    """A 6-sample micro world with mixed outcomes, and the records of it
    that ``PARTIAL_RECORDS[case]`` keeps."""
    correctness = {(m, i, v): (i + len(m) + len(v)) % 3 == 0
                   for m in ("alpha", "beta", "gamma") for i in range(6)
                   for v in ("q0-o0", "q1-o0")}
    world = make_micro_world(n_samples=6, correctness=correctness)
    return world, [r for r in world.records if PARTIAL_RECORDS[case](r)]


def keyword_world_spec(
    n_datasets: int = 4,
    samples_per_dataset: int = 100,
    paired: bool = False,
    seed: int = 7,
    question_forms: int = 1,
    options: tuple[int, int] = (4, 4),
) -> WorldSpec:
    """A prompt_keyword world: each dataset has a unique competence-1.0
    model. With ``paired=True``, consecutive datasets share their best
    model (and thus their keyword), making LODO transfer possible."""
    models = [f"m{i}" for i in range(4)]
    competence = {}
    for mi, model in enumerate(models):
        probs = []
        for d in range(n_datasets):
            best = (d // 2) % len(models) if paired else d % len(models)
            probs.append(1.0 if mi == best else 0.3)
        competence[model] = tuple(probs)
    return WorldSpec(
        n_datasets=n_datasets,
        samples_per_dataset=samples_per_dataset,
        options_range=options,
        competence=competence,
        signal_mode="prompt_keyword",
        question_forms_per_dataset=question_forms,
        seed=seed,
    )


def train_on_examples(train, validate, *, vocabulary, featurizer, **kwargs):
    """``train_router`` on example objects: the lines of ``train`` then
    ``validate`` featurized in one batch, and their labels as codes into
    ``vocabulary`` (-1 for a label outside it)."""
    examples = [*train, *validate]
    index = {m: i for i, m in enumerate(vocabulary)}
    features = featurize_batch([ex.serialized_input for ex in examples], featurizer)
    labels = np.array([index.get(ex.label_model_id, -1) for ex in examples], dtype=np.intp)
    return train_router(features, labels, range(len(train)), range(len(train), len(examples)),
                        vocabulary=vocabulary, **kwargs)


@pytest.fixture(scope="session")
def small_keyword_world() -> World:
    return generate_world(keyword_world_spec(samples_per_dataset=60, seed=13))


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
