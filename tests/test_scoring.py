"""Prediction procedures and batch evaluation."""

import contextlib
import dataclasses
import itertools
import zlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrouter import (
    DatasetManifest,
    InvalidInputError,
    Sample,
    predict_contrastive,
    predict_generative,
    scoring,
)
from taskrouter.scoring import (
    BackendInfo,
    ConstantEmbeddingBackend,
    GoldEmbeddingBackend,
    GoldLogprobBackend,
    SeededEmbeddingBackend,
    SeededLogprobBackend,
    evaluate,
    gold_index_by_ref,
)
from taskrouter.prompts import (DatasetPromptConfig, PromptTemplate, closed_prompt_set,
                                prompt_variants)
from taskrouter.synth import WorldSpec, generate_world
from oracles import (FlakyBackend, RowCountBackend, accuracy_table,
                     query_by_query_embedding_outcomes)

from conftest import EMPTY_ARTICLE_ERROR, empty_article_world, keyword_world_spec, make_micro_world


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

    def test_sums_run_left_to_right(self):
        # a compensated sum (Python 3.12's sum()) would total option 0 as 1.0
        pred = predict_generative([[1e16, 1.0, -1e16], [0.5]])
        assert pred.predicted_index == 1
        assert pred.per_option_scores == (0.0, 0.5)


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
        assert accuracy_table(run.records).marginal("only", "micro") == 1.0

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
        world = self._world()
        manifest = world.datasets["micro"]
        config = world.prompt_configs["micro"]
        variants = prompt_variants(config)[:1]
        backend = ConstantEmbeddingBackend(dim=2, name="only")
        run = evaluate(backend, manifest, config, variants=variants)
        assert {r.prompt_variant_id for r in run.records} == {variants[0].variant_id}

    def test_variants_of_another_config_are_refused_before_any_call(self):
        world = self._world()
        manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
        other = dataclasses.replace(config, question_forms=(PromptTemplate("Name it: "),))
        beyond = dataclasses.replace(prompt_variants(config)[0], variant_id="q5-o0",
                                     question_index=5)
        for foreign in (prompt_variants(other)[0], beyond):
            counting = _CountingBackend(ConstantEmbeddingBackend(dim=2, name="only"))
            with pytest.raises(InvalidInputError,
                               match=f"variant {foreign.variant_id} does not belong"):
                evaluate(counting, manifest, config,
                         variants=[prompt_variants(config)[0], foreign])
            assert not counting.images and not counting.texts

    @pytest.mark.parametrize("family", ["embedding", "generative"])
    def test_unknown_normalization_is_refused_before_any_call(self, family):
        world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=100,
                                                  question_forms=2))
        (ds_id, manifest), = world.datasets.items()
        config = world.prompt_configs[ds_id]
        backend = (_CountingBackend(SeededEmbeddingBackend(seed=2, dim=4, name="only"))
                   if family == "embedding"
                   else _RecordingLogprobBackend(SeededLogprobBackend(seed=2, name="only")))
        with pytest.raises(InvalidInputError, match=r"^normalization must be one of "
                                                    r"\('sum', 'mean'\), got 'median'$"):
            evaluate(backend, manifest, config, normalization="median")
        calls = (backend.images + backend.texts if family == "embedding" else backend.calls)
        assert not calls
        assert len(evaluate(backend, manifest, config, normalization="mean").records) == 200

    @pytest.mark.parametrize("family", ["embedding", "generative"])
    def test_evaluate_checks_each_variant_once_up_front(self, monkeypatch, family):
        # evaluate refuses a foreign variant before any query; rendering
        # each query does not check its variant again
        import taskrouter.prompts as prompts

        calls = []
        check = prompts._check_variant
        monkeypatch.setattr(prompts, "_check_variant",
                            lambda *args: calls.append(args) or check(*args))
        world = self._world()
        manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
        backend = (SeededEmbeddingBackend(seed=2, dim=4, name="only") if family == "embedding"
                   else SeededLogprobBackend(seed=2, name="only"))
        run = evaluate(backend, manifest, config)
        assert len(run.records) == manifest.size * len(prompt_variants(config))
        assert calls == []
        sample, variant = manifest.samples[0], prompt_variants(config)[0]
        assert closed_prompt_set(sample, config, variant)
        assert calls == [(config, variant)]


class _CountingBackend:
    """Wraps an embedding backend, counts its calls per input, and makes
    the ``deterministic`` promise it is told to."""

    def __init__(self, inner, deterministic=True):
        self._inner = inner
        self.info = dataclasses.replace(inner.info, deterministic=deterministic)
        self.images = Counter()
        self.texts = Counter()

    def embed_image(self, image_ref):
        self.images[image_ref] += 1
        return self._inner.embed_image(image_ref)

    def embed_texts(self, prompts):
        self.texts[tuple(prompts)] += 1
        return self._inner.embed_texts(prompts)


class TestEvaluateMemo:
    """A deterministic backend is asked once per image and once per
    distinct prompt list within one evaluate call."""

    def _world(self):
        # two question forms, so every sample is scored under two variants
        return make_micro_world(n_samples=6, models=("only",))

    def test_one_call_per_distinct_input(self):
        world = self._world()
        manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
        seeded = SeededEmbeddingBackend(seed=4, dim=4, name="only")
        counting = _CountingBackend(seeded)
        run = evaluate(counting, manifest, config)
        variants = prompt_variants(config)
        assert len(variants) == 2 and len(run.records) == 12
        assert counting.images == Counter({s.image_ref: 1 for s in manifest.samples})
        distinct = {tuple(closed_prompt_set(s, config, v))
                    for s in manifest.samples for v in variants}
        assert len(distinct) == 2
        assert counting.texts == Counter(dict.fromkeys(distinct, 1))
        uncached = evaluate(_CountingBackend(seeded, deterministic=False), manifest, config)
        assert run.records == uncached.records

    def test_no_memo_without_the_promise(self):
        world = self._world()
        manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
        counting = _CountingBackend(SeededEmbeddingBackend(seed=4, dim=4, name="only"),
                                    deterministic=False)
        evaluate(counting, manifest, config)
        assert counting.images == Counter({s.image_ref: 2 for s in manifest.samples})
        assert sum(counting.texts.values()) == 12

    def test_prompt_lists_are_keyed_whole(self):
        # "red" is option 0 of one sample and option 1 of the next; the gold
        # mock embeds option i as e_i, so a row kept per prompt would be wrong
        world = self._world()
        manifest = world.datasets["micro"]
        samples = tuple(
            dataclasses.replace(s, response_options=("blue", "red") if i % 2 else ("red", "blue"))
            for i, s in enumerate(manifest.samples))
        manifest = dataclasses.replace(manifest, samples=samples)
        backend = GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only")
        assert backend.info.deterministic
        run = evaluate(backend, manifest, world.prompt_configs["micro"])
        assert run.skip_count == 0 and len(run.records) == 12
        assert all(r.correct for r in run.records)

    def test_failures_are_not_stored(self):
        world = self._world()
        manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
        counting = _CountingBackend(FlakyBackend(
            GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only"),
            failing_refs={"micro/s0", "micro/s3"},
        ))
        run = evaluate(counting, manifest, config)
        variant_ids = [v.variant_id for v in prompt_variants(config)]
        assert sorted((s.sample_id, s.prompt_variant_id) for s in run.skipped) == sorted(
            (sample_id, v) for sample_id in ("s0", "s3") for v in variant_ids)
        assert {s.error for s in run.skipped} == {
            "simulated failure for micro/s0", "simulated failure for micro/s3"}
        # each variant of a failing sample asks the backend again
        assert counting.images["micro/s0"] == counting.images["micro/s3"] == 2
        assert counting.images["micro/s1"] == 1
        assert all(r.correct for r in run.records) and len(run.records) == 8


@pytest.mark.parametrize("family", ["embedding", "generative"])
def test_each_distinct_template_input_is_rendered_once(monkeypatch, family):
    # a keyword world's samples share their options and read no context, so
    # one evaluate renders each question form once and each option once
    import sys
    import taskrouter.prompts as prompts

    world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=50,
                                              question_forms=3))
    (ds_id, manifest), = world.datasets.items()
    config = world.prompt_configs[ds_id]
    inputs, real = [], prompts.render

    def counting(template, sample, config, class_value=None):
        inputs.append((template.template_text, class_value))
        return real(template, sample, config, class_value)

    for name, module in list(sys.modules.items()):  # wherever render is bound
        if name.startswith("taskrouter") and getattr(module, "render", None) is real:
            monkeypatch.setattr(module, "render", counting)
    backend = (SeededEmbeddingBackend(seed=2, dim=4, name="only") if family == "embedding"
               else SeededLogprobBackend(seed=2, name="only"))
    run = evaluate(backend, manifest, config)
    assert run.skip_count == 0 and len(run.records) == 50 * 3
    options = {s.response_options for s in manifest.samples}
    assert len(options) == 1 and len(config.option_forms) == 1
    assert sorted(inputs) == sorted(
        [(q.template_text, None) for q in config.question_forms]
        + [(config.option_forms[0].template_text, o) for o in options.pop()])


class _RecordingEmbeddingBackend:
    """An embedding backend that logs every call it gets, in order, with the
    argument it was given, and makes the ``deterministic`` promise it is
    told to."""

    def __init__(self, inner, deterministic=True):
        self._inner = inner
        self.info = dataclasses.replace(inner.info, deterministic=deterministic)
        self.calls = []

    def embed_image(self, image_ref):
        self.calls.append(("img", image_ref))
        return self._inner.embed_image(image_ref)

    def embed_texts(self, prompts):
        self.calls.append(("txt", prompts))
        return self._inner.embed_texts(prompts)


def _with_render_failure(world):
    """The micro world's dataset with a first question form that needs a
    context key sample s2 lacks, so that one query fails to render."""
    config = world.prompt_configs["micro"]
    config = dataclasses.replace(
        config, question_forms=(PromptTemplate("At {place}: "),) + config.question_forms[1:],
        context_keys=("place",))
    manifest = world.datasets["micro"]
    samples = tuple(dataclasses.replace(s, context={} if s.sample_id == "s2" else
                                        {"place": "home"}) for s in manifest.samples)
    return dataclasses.replace(manifest, samples=samples), config


def _outcome_rows(queries, outcomes):
    return [(s.sample_id, v.variant_id, str(o) if isinstance(o, Exception) else o.predicted_index)
            for (s, v), o in zip(queries, outcomes)]


def _run_rows(run):
    rows = [(r.sample_id, r.prompt_variant_id, r.predicted_index) for r in run.records]
    rows += [(n.sample_id, n.prompt_variant_id, n.error) for n in run.skipped]
    return rows


class TestEvaluateEmbeddingCalls:
    """The embedding family renders every query first and hands the
    backend one job list. Without failures, an in-process backend sees the
    calls of the query-by-query loop, in the same order."""

    def _datasets(self):
        keyword = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=30,
                                                    question_forms=2, seed=3))
        yield from ((m, keyword.prompt_configs[ds]) for ds, m in keyword.datasets.items())
        yield _with_render_failure(make_micro_world(n_samples=6, models=("only",)))

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_calls_are_those_of_the_query_by_query_loop(self, deterministic):
        for manifest, config in self._datasets():
            queries = [(s, v) for s in manifest.samples for v in prompt_variants(config)]
            seeded = SeededEmbeddingBackend(seed=8, dim=8, name="only")
            batched = _RecordingEmbeddingBackend(seeded, deterministic)
            looped = _RecordingEmbeddingBackend(seeded, deterministic)
            run = evaluate(batched, manifest, config)
            outcomes = query_by_query_embedding_outcomes(looped, config, queries)
            assert batched.calls == looped.calls
            assert sorted(_run_rows(run)) == sorted(_outcome_rows(queries, outcomes))
            rendered = len(queries) - run.skip_count
            assert rendered > 0
            if not deterministic:
                assert len(batched.calls) == 2 * rendered

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_a_failed_image_moves_retries_and_keeps_its_text_job(self, deterministic):
        world = make_micro_world(n_samples=6, models=("only",))
        manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
        queries = [(s, v) for s in manifest.samples for v in prompt_variants(config)]
        gold = GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only")
        batched = _RecordingEmbeddingBackend(FlakyBackend(gold, {"micro/s1"}), deterministic)
        looped = _RecordingEmbeddingBackend(FlakyBackend(gold, {"micro/s1"}), deterministic)
        run = evaluate(batched, manifest, config)
        outcomes = query_by_query_embedding_outcomes(looped, config, queries)
        assert sorted(_run_rows(run)) == sorted(_outcome_rows(queries, outcomes))
        assert run.skip_count == 2

        def counted(calls):
            return Counter((kind, arg if kind == "img" else tuple(arg)) for kind, arg in calls)

        if deterministic:
            # the same calls; the retry for s1's second variant comes after the job list
            assert counted(batched.calls) == counted(looped.calls)
            assert batched.calls[-1] == ("img", "micro/s1")
        else:
            # each query whose image failed still asked for its prompt list
            assert counted(batched.calls) - counted(looped.calls) == Counter(
                ("txt", tuple(closed_prompt_set(s, config, v)))
                for s, v in queries if s.sample_id == "s1")
            assert not counted(looped.calls) - counted(batched.calls)

    @pytest.mark.parametrize("rows", [3, 5])
    def test_wrong_number_of_embedding_rows_is_a_skip(self, rows):
        world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=8))
        (ds_id, manifest), = world.datasets.items()
        config = world.prompt_configs[ds_id]
        backend = RowCountBackend(SeededEmbeddingBackend(seed=2, dim=8, name="only"), rows)
        run = evaluate(backend, manifest, config)
        assert list(run.records) == []
        assert run.skip_count == len(manifest.samples) * len(prompt_variants(config))
        assert {n.error for n in run.skipped} == {
            f"backend only returned {rows} embedding rows for 4 prompts"}


# Values whose dot products round: rows built from them tie or nearly tie.
# 1e300 overflows, which the test run's warning filter makes an error.
_NEAR_TIES = st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, 0.5, -1.0, 3.0,
                              1e16, -1e16, 0.0, 1e300])


class _TableEmbeddingBackend:
    """Embeds each image ref and each prompt as one of a few fixed vectors,
    picked by a checksum of its text; with ``drift``, the pick also moves
    with the number of calls so far, so that answers depend on call order."""

    def __init__(self, vectors, drift):
        self._vectors = np.array(vectors)
        self._drift = drift
        self._calls = 0
        self.info = BackendInfo(name="only", family="embedding")

    def _pick(self, text):
        return self._vectors[(zlib.crc32(text.encode()) + self._calls) % len(self._vectors)]

    def embed_image(self, image_ref):
        self._calls += self._drift
        return self._pick(image_ref)

    def embed_texts(self, prompts):
        self._calls += self._drift
        return np.stack([self._pick(p) for p in prompts])


@st.composite
def _embedding_cases(draw):
    """A dataset of 2-5 options per sample over a small vocabulary (so some
    prompt lists repeat), some samples lacking the context key one question
    form needs, and a backend: seeded, constant (all ties) or near-tie
    vectors, with or without the ``deterministic`` promise, failing on some
    images and answering with a wrong number of rows."""
    forms = draw(st.sampled_from([("Is it ",), ("At {place}: ",), ("Is it ", "At {place}: ")]))
    config = DatasetPromptConfig(
        dataset_id="probe", question_forms=tuple(map(PromptTemplate, forms)),
        option_forms=tuple(map(PromptTemplate, draw(st.sampled_from(
            [(), ("{class_name}",), ("{class_name}", "{a_an|class_name}")])))),
        context_keys=("place",))
    samples = []
    for i in range(draw(st.integers(1, 8))):
        options = draw(st.lists(st.sampled_from(["red", "blue", "green", "amber", "owl", "sky"]),
                                min_size=2, max_size=5, unique=True))
        place = draw(st.sampled_from([{}, {"place": "home"}, {"place": "sea"}]))
        samples.append(Sample(f"s{i}", "probe", f"probe/img{i % 3}",  # images repeat
                              place, options, draw(st.integers(0, len(options) - 1))))
    manifest = DatasetManifest("probe", "recognition", samples, "probe")
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["seeded", "constant", "table"]))
    vectors = draw(st.lists(st.lists(_NEAR_TIES, min_size=dim, max_size=dim),
                            min_size=1, max_size=4))
    drift = kind == "table" and draw(st.booleans())
    deterministic = draw(st.booleans())
    failing = draw(st.sets(st.sampled_from([s.image_ref for s in samples])))
    rows = draw(st.none() | st.integers(1, 6))

    def make():
        backend = {"seeded": lambda: SeededEmbeddingBackend(seed=3, dim=dim, name="only"),
                   "constant": lambda: ConstantEmbeddingBackend(dim=dim, name="only"),
                   "table": lambda: _TableEmbeddingBackend(vectors, drift)}[kind]()
        if failing:
            backend = FlakyBackend(backend, failing)
        if rows is not None:
            backend = RowCountBackend(backend, rows)
        return _RecordingEmbeddingBackend(backend, deterministic)

    return manifest, config, make, drift and bool(failing)


def _plain(outcome):
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    return getattr(outcome, "predicted_index", outcome)


@given(_embedding_cases())
@settings(max_examples=150, deadline=None)
def test_stacked_scores_are_those_of_the_query_by_query_path(case):
    manifest, config, make, order_bound = case
    queries = [(s, v) for s in manifest.samples for v in prompt_variants(config)]

    def outcomes(stacked):
        backend = make()
        with contextlib.ExitStack() as patches:
            if not stacked:  # every query takes the per-query path
                patches.enter_context(mock.patch.object(scoring, "_stacked_picks",
                                                        lambda answers, needs: {}))
            got = scoring._outcomes(backend, backend.info, config, queries, "sum")
            return backend.calls, [_plain(o) for o in got]

    # the stacked product changes no pick, error, retry or call
    calls, got = outcomes(stacked=True)
    assert (calls, got) == outcomes(stacked=False)
    looped = make()
    expected = [_plain(o) for o in query_by_query_embedding_outcomes(looped, config, queries)]
    if not any(isinstance(o, tuple) and "simulated failure" in o[1] for o in expected):
        assert calls == looped.calls
    if not order_bound:  # with failures, a drifting backend's answers follow the call order
        assert got == expected
    run = evaluate(make(), manifest, config)
    assert [(r.sample_id, r.prompt_variant_id, r.predicted_index) for r in run.records] == [
        (s.sample_id, v.variant_id, o) for (s, v), o in zip(queries, got) if isinstance(o, int)]
    assert [(n.sample_id, n.prompt_variant_id, n.error) for n in run.skipped] == [
        (s.sample_id, v.variant_id, o[1]) for (s, v), o in zip(queries, got)
        if isinstance(o, tuple)]


@pytest.mark.parametrize("pad", [0, 8])
def test_stacked_picks_keep_the_per_query_rounding(pad):
    # option 0 scores 0.0 or 1.0 by the order its three terms are summed
    # in, option 1 scores 0.5: a product that sums in another order than
    # ``m @ v`` picks otherwise for some image
    answers, needs = [], []
    for v in itertools.permutations([1e16, -1e16, 1.0]):
        answers.append(np.array([*v, *[0.0] * pad]))
        half = [0.5 * (x == 1.0) for x in v]  # 0.5 where the image has 1.0
        answers.append(np.array([[1.0] * (3 + pad), [*half, *[0.0] * pad]]))
        needs.append((["a", "b"], [len(answers) - 2, len(answers) - 1]))
    expected = {q: predict_contrastive(answers[2 * q], answers[2 * q + 1]).predicted_index
                for q in range(len(needs))}
    assert set(expected.values()) == {0, 1}
    assert scoring._stacked_picks(answers, needs) == expected


class _RecordingLogprobBackend:
    """A generative backend that logs every call it gets, in order."""

    def __init__(self, inner):
        self._inner = inner
        self.info = inner.info
        self.calls = []

    def option_token_logprobs(self, image_ref, prompts):
        self.calls.append((image_ref, tuple(prompts)))
        return self._inner.option_token_logprobs(image_ref, prompts)


@pytest.mark.parametrize("backend", [SeededEmbeddingBackend(seed=3, dim=4, name="only"),
                                     SeededLogprobBackend(seed=3, name="only")])
def test_skip_names_a_sample_whose_article_value_is_empty(backend):
    world = empty_article_world()
    run = evaluate(backend, world.datasets["micro"], world.prompt_configs["micro"])
    assert [(n.sample_id, n.prompt_variant_id, n.error) for n in run.skipped] == [
        ("s1", "q1-o0", EMPTY_ARTICLE_ERROR)]
    assert len(run.records) == 3 * 2 - 1


class TestEvaluateGenerative:
    """Generative queries are rendered first and handed to the backend
    together; an in-process backend still gets one call per query, in
    sample-major order, and every failure skips only its own query."""

    def _world(self):
        return _with_render_failure(make_micro_world(n_samples=6, models=("only",)))

    def test_calls_records_and_skips_keep_query_order(self, caplog):
        manifest, config = self._world()
        seeded = SeededLogprobBackend(seed=6, name="only")
        backend = _RecordingLogprobBackend(FlakyBackend(seeded, failing_refs={"micro/s4"}))
        with caplog.at_level("WARNING"):
            run = evaluate(backend, manifest, config, normalization="mean")
        variants = prompt_variants(config)
        queries = [(s, v) for s in manifest.samples for v in variants]
        rendered = [(s, v) for s, v in queries if s.sample_id != "s2" or v.question_index]
        assert backend.calls == [(s.image_ref, tuple(closed_prompt_set(s, config, v)))
                                 for s, v in rendered]
        assert [(n.sample_id, n.prompt_variant_id) for n in run.skipped] == [
            (s.sample_id, v.variant_id) for s, v in queries
            if (s, v) not in rendered or s.sample_id == "s4"]
        assert run.skipped[0].error == "sample s2 has no context key 'place'"
        assert run.skipped[1].error == "simulated failure for micro/s4"
        scored = [(s, v) for s, v in rendered if s.sample_id != "s4"]
        assert [(r.sample_id, r.prompt_variant_id) for r in run.records] == [
            (s.sample_id, v.variant_id) for s, v in scored]
        for record, (sample, variant) in zip(run.records, scored):
            lps = seeded.option_token_logprobs(sample.image_ref,
                                               closed_prompt_set(sample, config, variant))
            assert record.predicted_index == predict_generative(lps, "mean").predicted_index
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings[:3] == [
            f"backend only failed on sample {n.sample_id} ({n.prompt_variant_id}): {n.error}"
            for n in run.skipped]
        assert warnings[3] == "backend only on micro: 3 of 12 evaluations skipped"

    def test_wrong_number_of_logprob_lists_is_a_skip(self):
        manifest, config = self._world()

        class Short:
            info = SeededLogprobBackend(name="only").info

            def option_token_logprobs(self, image_ref, prompts):
                return [[-1.0]] if image_ref == "micro/s0" else [[-1.0]] * len(prompts)

        run = evaluate(Short(), manifest, config)
        assert {n.error for n in run.skipped if n.sample_id == "s0"} == {
            "backend only returned 1 logprob lists for 2 prompts"}
        assert len(run.records) == 12 - 2 - 1  # s0's two variants, s2's first
