"""Synthetic world generation: determinism, calibration, and signal modes."""

import numpy as np
import pytest

from taskrouter import InvalidInputError, QueryGrid, SerializationFlags, build_router_dataset
from taskrouter.core import aggregate_accuracy, load_world, save_world
from taskrouter.prompts import prompt_variants, validate_manifest
from taskrouter.synth import WorldSpec, generate_world

from conftest import keyword_world_spec


def basic_spec(**overrides):
    base = dict(
        n_datasets=2,
        samples_per_dataset=25,
        options_range=(2, 4),
        competence={"a": (0.8, 0.1), "b": (0.2, 0.9)},
        signal_mode="none",
        seed=42,
    )
    base.update(overrides)
    return WorldSpec(**base)


class TestSpecValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(InvalidInputError):
            basic_spec(competence={"a": (1.2, 0.5), "b": (0.5, 0.5)})

    def test_wrong_length(self):
        with pytest.raises(InvalidInputError):
            basic_spec(competence={"a": (0.5,), "b": (0.5, 0.5)})

    def test_empty_pool(self):
        with pytest.raises(InvalidInputError):
            basic_spec(competence={})

    def test_bad_options_range(self):
        with pytest.raises(InvalidInputError):
            basic_spec(options_range=(1, 3))
        with pytest.raises(InvalidInputError):
            basic_spec(options_range=(5, 3))

    def test_bad_signal_mode(self):
        with pytest.raises(InvalidInputError):
            basic_spec(signal_mode="telepathy")

    def test_prompt_keyword_requires_unique_perfect_model(self):
        with pytest.raises(InvalidInputError):
            basic_spec(signal_mode="prompt_keyword")  # nobody at 1.0
        with pytest.raises(InvalidInputError):
            basic_spec(
                signal_mode="prompt_keyword",
                competence={"a": (1.0, 1.0), "b": (1.0, 0.5)},  # two at 1.0 on ds00
            )
        # exactly one per dataset is accepted
        basic_spec(
            signal_mode="prompt_keyword",
            competence={"a": (1.0, 0.5), "b": (0.5, 1.0)},
        )

    def test_spec_file_round_trip(self, tmp_path):
        spec = basic_spec()
        spec.save(tmp_path / "spec.json")
        assert WorldSpec.load(tmp_path / "spec.json") == spec


class TestGeneration:
    def test_same_seed_identical_worlds(self):
        a = generate_world(basic_spec())
        b = generate_world(basic_spec())
        assert a.records == b.records
        assert a.datasets == b.datasets
        assert list(a.metadata) == list(b.metadata)
        for sid in a.metadata:
            assert a.metadata[sid] == b.metadata[sid]
            np.testing.assert_array_equal(a.pixels[sid], b.pixels[sid])

    def test_different_seed_differs(self):
        a = generate_world(basic_spec())
        b = generate_world(basic_spec(seed=43))
        assert a.records != b.records

    def test_extreme_competences(self):
        spec = basic_spec(competence={"hero": (1.0, 1.0), "zero": (0.0, 0.0)})
        world = generate_world(spec)
        by_model = {"hero": [], "zero": []}
        for rec in world.records:
            by_model[rec.model_id].append(rec.correct)
        assert all(by_model["hero"])
        assert not any(by_model["zero"])

    def test_binomial_concentration(self):
        spec = basic_spec(
            n_datasets=1, samples_per_dataset=1000,
            competence={"m": (0.7,)}, seed=6,
        )
        world = generate_world(spec)
        accuracy = sum(r.correct for r in world.records) / len(world.records)
        assert 0.67 <= accuracy <= 0.73

    def test_full_coverage_and_integrity(self):
        spec = basic_spec()
        world = generate_world(spec)
        expected = 0
        for ds, manifest in world.datasets.items():
            n_variants = len(prompt_variants(world.prompt_configs[ds]))
            expected += manifest.size * n_variants * len(world.model_pool)
            validate_manifest(manifest, world.prompt_configs[ds])
        assert len(world.records) == expected
        # aggregate_accuracy re-checks record/sample integrity
        table = aggregate_accuracy(world.records, world.sample_index())
        assert set(table.models()) == set(world.model_pool)
        # predicted indices always in range and consistent with correctness
        samples = world.sample_index()
        for rec in world.records:
            sample = samples[(rec.dataset_id, rec.sample_id)]
            assert 0 <= rec.predicted_index < len(sample.response_options)
            assert rec.correct == (rec.predicted_index == sample.gold_index)

    def test_metadata_matches_pixels(self):
        from taskrouter import summarize_image

        world = generate_world(basic_spec())
        for sid, img in world.pixels.items():
            assert world.metadata[sid] == summarize_image(img)

    @pytest.mark.parametrize("low, high", [(0, 256), (38, 43), (173, 178)])
    def test_one_pixel_draw_takes_the_stream_of_one_draw_per_sample(self, low, high):
        # the pixel range of the keyword/none modes and two metadata bands:
        # the metadata digests rest on this
        for seed in range(12):
            stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
            n = 25 + seed
            stack = stacked.integers(low, high, size=(n, 8, 8, 3))
            draws = [single.integers(low, high, size=(8, 8, 3)) for _ in range(n)]
            assert np.array_equal(stack, np.stack(draws))
            # the draws after it, as generate_world makes them, see the same state
            assert stacked.random((3, 2)).tolist() == single.random((3, 2)).tolist()
            assert stacked.integers(1, 5, size=7).tolist() == single.integers(1, 5, size=7).tolist()

    def test_router_corpus_preconditions_hold(self):
        world = generate_world(basic_spec(samples_per_dataset=10))
        examples = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
        n_valid = sum(
            m.size * len(prompt_variants(world.prompt_configs[ds]))
            for ds, m in world.datasets.items()
        )  # all synth question forms are non-empty, so nothing is filtered
        assert len(examples) == n_valid

    def test_world_persistence_round_trip(self, tmp_path):
        world = generate_world(basic_spec(samples_per_dataset=8))
        save_world(world, tmp_path / "w")
        loaded = load_world(tmp_path / "w")
        assert loaded.records == world.records
        assert loaded.model_pool == world.model_pool
        assert loaded.datasets == world.datasets
        assert loaded.prompt_configs == world.prompt_configs
        assert loaded.metadata == world.metadata
        assert loaded.pixels is None  # pixel data is never persisted


class TestSignalModes:
    def test_prompt_keyword_token_in_question_forms(self):
        spec = keyword_world_spec(samples_per_dataset=10)
        world = generate_world(spec)
        for d, ds in enumerate(spec.dataset_ids()):
            best = spec.designated_best(d)
            for q in world.prompt_configs[ds].question_forms:
                assert f"sig-{best}" in q.template_text

    def test_prompt_keyword_labels_follow_designated_model(self):
        # in the paired world consecutive datasets share their best model and keyword
        for spec, flags in ((keyword_world_spec(samples_per_dataset=30),
                             SerializationFlags(False, False)),
                            (keyword_world_spec(samples_per_dataset=60, paired=True, seed=31),
                             SerializationFlags(True, False))):
            world = generate_world(spec)
            examples = build_router_dataset(QueryGrid.build(world), flags)
            assert examples
            for ex in examples:
                ds_index = int(ex.provenance[1][2:])
                assert ex.label_model_id == spec.designated_best(ds_index)

    def test_metadata_band_separation(self):
        models = ["m0", "m1", "m2", "m3"]
        competence = {
            m: tuple(1.0 if i == d else 0.4 for d in range(4))
            for i, m in enumerate(models)
        }
        spec = WorldSpec(
            n_datasets=4, samples_per_dataset=15, options_range=(3, 3),
            competence=competence, signal_mode="metadata_band", seed=2,
        )
        world = generate_world(spec)
        centers = {}
        for ds, manifest in world.datasets.items():
            means = [world.metadata[s.sample_id].channel_means[0]
                     for s in manifest.samples]
            centers[ds] = float(np.mean(means))
            assert max(means) - min(means) <= 6.0  # tight band
        values = sorted(centers.values())
        assert all(b - a >= 20 for a, b in zip(values, values[1:]))

    def test_metadata_band_shared_when_best_model_shared(self):
        competence = {
            "m0": (1.0, 1.0, 0.4, 0.4),
            "m1": (0.4, 0.4, 1.0, 1.0),
        }
        spec = WorldSpec(
            n_datasets=4, samples_per_dataset=10, options_range=(2, 2),
            competence=competence, signal_mode="metadata_band", seed=3,
        )
        world = generate_world(spec)
        mean_of = {
            ds: float(np.mean([world.metadata[s.sample_id].channel_means[0]
                               for s in m.samples]))
            for ds, m in world.datasets.items()
        }
        assert abs(mean_of["ds00"] - mean_of["ds01"]) < 4
        assert abs(mean_of["ds02"] - mean_of["ds03"]) < 4
        assert abs(mean_of["ds00"] - mean_of["ds02"]) > 20

    def test_none_mode_prompts_carry_no_dataset_signal(self):
        spec = basic_spec(n_datasets=2)
        world = generate_world(spec)
        forms = [
            tuple(t.template_text for t in cfg.question_forms)
            for cfg in world.prompt_configs.values()
        ]
        assert forms[0] == forms[1]
