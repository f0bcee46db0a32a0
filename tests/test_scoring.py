"""Prediction procedures and batch evaluation."""

import numpy as np
import pytest

from taskrouter import (
    InvalidInputError,
    predict_contrastive,
    predict_generative,
)
from taskrouter.scoring import (
    ConstantEmbeddingBackend,
    GoldEmbeddingBackend,
    GoldLogprobBackend,
    SeededEmbeddingBackend,
    SeededLogprobBackend,
    evaluate,
    gold_index_by_ref,
)
from taskrouter.core import aggregate_accuracy
from taskrouter.synth import WorldSpec, generate_world
from oracles import FlakyBackend

from conftest import make_micro_world


class TestPredictContrastive:
    def test_orthogonal(self):
        pred = predict_contrastive([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert pred.predicted_index == 0
        assert pred.per_option_scores == (1.0, 0.0)

    def test_tie_breaks_low(self):
        pred = predict_contrastive([1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
        assert pred.predicted_index == 0

    def test_matches_brute_force_argmax(self, rng):
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            v = rng.normal(size=dim)
            m = rng.normal(size=(10, dim))
            pred = predict_contrastive(v, m)
            # explicit per-option dot products, max with lowest-index ties
            scores = [sum(float(v[k]) * float(m[o, k]) for k in range(dim))
                      for o in range(10)]
            best = 0
            for o in range(1, 10):
                if scores[o] > scores[best]:
                    best = o
            assert pred.predicted_index == best

    def test_positive_rescale_invariance(self, rng):
        v = rng.normal(size=5)
        m = rng.normal(size=(6, 5))
        base = predict_contrastive(v, m).predicted_index
        for scale in (0.001, 3.7, 1e6):
            assert predict_contrastive(scale * v, m).predicted_index == base

    def test_option_permutation_equivariance(self, rng):
        for _ in range(50):
            v = rng.normal(size=4)
            m = rng.normal(size=(5, 4))
            scores = m @ v
            if len(np.unique(scores)) < 5:
                continue  # the tie rule intentionally breaks equivariance
            base = predict_contrastive(v, m).predicted_index
            perm = rng.permutation(5)
            permuted = predict_contrastive(v, m[perm]).predicted_index
            assert perm[permuted] == base

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            predict_contrastive([1.0, 0.0], [[1.0, 0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            predict_contrastive([1.0], np.zeros((0, 1)))


class TestPredictGenerative:
    def test_sum_and_mean_arithmetic(self):
        lps = [[-1.0, -1.0], [-0.5, -2.0]]
        assert predict_generative(lps, "sum").per_option_scores == (-2.0, -2.5)
        assert predict_generative(lps, "sum").predicted_index == 0
        assert predict_generative(lps, "mean").per_option_scores == (-1.0, -1.25)
        assert predict_generative(lps, "mean").predicted_index == 0

    def test_normalization_divergence(self):
        # unequal lengths: sum prefers the short option, mean the long one
        lps = [[-1.0], [-0.4, -0.4, -0.4]]
        assert predict_generative(lps, "sum").predicted_index == 0
        assert predict_generative(lps, "mean").predicted_index == 1

    def test_equal_length_modes_agree(self, rng):
        for _ in range(1000):
            n_options = int(rng.integers(2, 6))
            length = int(rng.integers(1, 5))
            lps = (-rng.uniform(0.01, 4.0, size=(n_options, length))).tolist()
            assert (predict_generative(lps, "sum").predicted_index
                    == predict_generative(lps, "mean").predicted_index)

    def test_zero_logprob_token_append_invariance(self, rng):
        lps = (-rng.uniform(0.1, 2.0, size=(4, 3))).tolist()
        base = predict_generative(lps, "sum").predicted_index
        padded = [option + [0.0] for option in lps]
        assert predict_generative(padded, "sum").predicted_index == base

    def test_empty_token_list(self):
        with pytest.raises(InvalidInputError):
            predict_generative([[-1.0], []])

    def test_no_options(self):
        with pytest.raises(InvalidInputError):
            predict_generative([])

    def test_unknown_normalization(self):
        with pytest.raises(InvalidInputError):
            predict_generative([[-1.0]], "median")


class TestEvaluate:
    def _world(self):
        return make_micro_world(
            n_samples=6, models=("only",), with_empty_question=False
        )

    def test_gold_backend_is_perfect(self):
        world = self._world()
        manifest = world.datasets["micro"]
        backend = GoldEmbeddingBackend(
            gold_index_by_ref([manifest]), dim=2, name="only"
        )
        run = evaluate(backend, manifest, world.prompt_configs["micro"])
        assert run.skip_count == 0
        assert all(r.correct for r in run.records)
        table = aggregate_accuracy(run.records)
        assert table.marginal("only", "micro") == 1.0

    def test_gold_generative_backend_is_perfect(self):
        world = self._world()
        manifest = world.datasets["micro"]
        backend = GoldLogprobBackend(gold_index_by_ref([manifest]), name="only")
        run = evaluate(backend, manifest, world.prompt_configs["micro"])
        assert all(r.correct for r in run.records)

    def test_constant_backend_predicts_index_zero(self):
        world = self._world()
        manifest = world.datasets["micro"]
        run = evaluate(ConstantEmbeddingBackend(dim=3, name="only"),
                       manifest, world.prompt_configs["micro"])
        assert {r.predicted_index for r in run.records} == {0}

    def test_seeded_backend_near_chance(self):
        # 4-option dataset, 1000 samples: expect accuracy within 3 points of 25%
        spec = WorldSpec(
            n_datasets=1, samples_per_dataset=1000, options_range=(4, 4),
            competence={"m0": (0.5,)}, signal_mode="none",
            question_forms_per_dataset=1, seed=3,
        )
        world = generate_world(spec)
        manifest = world.datasets["ds00"]
        backend = SeededEmbeddingBackend(seed=11, dim=8, name="m0")
        run = evaluate(backend, manifest, world.prompt_configs["ds00"])
        accuracy = sum(r.correct for r in run.records) / len(run.records)
        assert abs(accuracy - 0.25) <= 0.03

    def test_seeded_generative_deterministic(self):
        world = self._world()
        manifest = world.datasets["micro"]
        backend = SeededLogprobBackend(seed=5, name="only")
        first = evaluate(backend, manifest, world.prompt_configs["micro"])
        second = evaluate(backend, manifest, world.prompt_configs["micro"])
        assert first.records == second.records

    def test_backend_failures_become_skips(self, caplog):
        world = self._world()
        manifest = world.datasets["micro"]
        backend = FlakyBackend(
            GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only"),
            failing_refs={"micro/s0", "micro/s3"},
        )
        with caplog.at_level("WARNING"):
            run = evaluate(backend, manifest, world.prompt_configs["micro"])
        assert run.skip_count == 2
        assert {s.sample_id for s in run.skipped} == {"s0", "s3"}
        assert "s0" in caplog.text
        recorded = {r.sample_id for r in run.records}
        assert recorded == {"s1", "s2", "s4", "s5"}

    def test_max_workers_other_than_one_is_rejected(self):
        # scoring is serial; a request for threads fails instead of being ignored
        world = self._world()
        manifest = world.datasets["micro"]
        backend = SeededEmbeddingBackend(seed=2, dim=4, name="only")
        serial = evaluate(backend, manifest, world.prompt_configs["micro"], max_workers=1)
        assert serial.records == evaluate(backend, manifest, world.prompt_configs["micro"]).records
        for workers in (0, 2, 4):
            with pytest.raises(InvalidInputError, match="max_workers"):
                evaluate(backend, manifest, world.prompt_configs["micro"], max_workers=workers)

    def test_variant_subset(self):
        from taskrouter.prompts import prompt_variants

        world = self._world()
        manifest = world.datasets["micro"]
        config = world.prompt_configs["micro"]
        variants = prompt_variants(config)[:1]
        backend = ConstantEmbeddingBackend(dim=2, name="only")
        run = evaluate(backend, manifest, config, variants=variants)
        assert {r.prompt_variant_id for r in run.records} == {variants[0].variant_id}
