"""Prompt grammar: renames, articles, rendering, variants, and the
shipped dataset configurations."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskrouter import (
    InvalidInputError,
    RenderError,
    Sample,
    apply_rename,
    article_for,
    builtin_prompt_configs,
    closed_prompt_set,
    prompt_variants,
    render,
)
from taskrouter.presets import CIFAR100_CLASSES
from taskrouter.prompts import (
    DatasetPromptConfig,
    PromptTemplate,
    rendered_options,
    variant_by_id,
)


CONFIGS = builtin_prompt_configs()


def make_sample(options, gold=0, dataset="cifar100", context=None):
    return Sample("s0", dataset, "img/s0", context or {}, tuple(options), gold)


class TestRename:
    def test_defined_substitution(self):
        assert apply_rename("aquarium_fish", CONFIGS["cifar100"].renames) == "aquarium fish"
        assert apply_rename("aeroplane", CONFIGS["oodcv"].renames) == "plane"

    def test_identity_when_absent(self):
        assert apply_rename("beaver", CONFIGS["cifar100"].renames) == "beaver"


class TestArticle:
    @pytest.mark.parametrize("phrase,expected", [
        ("aquarium fish", "an"),
        ("beaver", "a"),
        ("oak", "an"),
        ("Elephant", "an"),
        ("'quoted' word", "a"),
    ])
    def test_heuristic(self, phrase, expected):
        assert article_for(phrase) == expected

    def test_exception_list_overrides(self):
        assert article_for("hour", {"hour": "an"}) == "an"
        assert article_for("hour") == "a"

    def test_empty_phrase(self):
        with pytest.raises(InvalidInputError):
            article_for("")


class TestTemplateParsing:
    def test_unknown_arg(self):
        with pytest.raises(InvalidInputError):
            PromptTemplate("{plural|class_name}")

    def test_empty_key(self):
        with pytest.raises(InvalidInputError):
            PromptTemplate("{a_an|}")

    def test_unbalanced_brace(self):
        with pytest.raises(InvalidInputError):
            PromptTemplate("this { is wrong")

    def test_whitespace_tolerant(self):
        spaced = PromptTemplate("{a_an, rename_classes | class_name}")
        compact = PromptTemplate("{a_an,rename_classes|class_name}")
        assert spaced.tags == compact.tags


class TestRender:
    def test_full_template_with_rename_and_article(self):
        config = CONFIGS["cifar100"]
        template = PromptTemplate("What is this? This is {a_an,rename_classes|class_name}")
        sample = make_sample(["aquarium_fish"])
        out = render(template, sample, config, class_value="aquarium_fish")
        assert out == "What is this? This is an aquarium fish"

    def test_rename_happens_before_article(self):
        # aeroplane alone would take "an"; its rename "plane" takes "a"
        config = CONFIGS["oodcv"]
        template = PromptTemplate("{a_an,rename_classes|class_name}")
        sample = make_sample(["aeroplane"], dataset="oodcv")
        assert render(template, sample, config, class_value="aeroplane") == "a plane"

    def test_empty_template(self):
        config = CONFIGS["cifar100"]
        assert render(PromptTemplate(""), make_sample(["x"]), config) == ""

    def test_context_key_substitution(self):
        config = CONFIGS["abstract_scenes_vqa"]
        template = PromptTemplate("Question: {class_question} Answer: ")
        sample = make_sample(
            ["yes", "no"], dataset="abstract_scenes_vqa",
            context={"class_question": "Is the dog asleep?"},
        )
        out = render(template, sample, config)
        assert out == "Question: Is the dog asleep? Answer: "

    def test_missing_context_key_names_it(self):
        config = CONFIGS["scienceqa"]
        template = PromptTemplate("{class_hint} {class_question} ")
        sample = make_sample(["a", "b"], dataset="scienceqa",
                             context={"class_question": "Which?"})
        with pytest.raises(RenderError) as err:
            render(template, sample, config)
        assert err.value.key == "class_hint"
        assert "class_hint" in str(err.value)

    def test_article_for_an_empty_value_names_sample_template_and_key(self):
        config = CONFIGS["scienceqa"]
        template = PromptTemplate("Hint: {a_an|class_hint} ")
        sample = make_sample(["a", "b"], dataset="scienceqa", context={"class_hint": ""})
        with pytest.raises(RenderError) as err:
            render(template, sample, config)
        assert err.value.key == "class_hint"
        assert str(err.value) == (f"sample {sample.sample_id}, template {template.template_text!r}, "
                                  "key 'class_hint': cannot pick an article for an empty phrase")

    def test_class_name_without_value(self):
        config = CONFIGS["cifar100"]
        with pytest.raises(InvalidInputError):
            render(PromptTemplate("{class_name}"), make_sample(["x"]), config)


class TestVariants:
    @pytest.mark.parametrize("dataset,count", [
        ("cifar100", 9),
        ("oodcv", 9),
        ("weather", 6),
        ("skin_cancer", 6),
        ("hateful_memes", 8),
        ("scienceqa", 5),
        ("vg_attribution", 3),
        ("vg_relation", 3),
        ("abstract_scenes_vqa", 3),
        ("binary_abstract_scenes", 3),
    ])
    def test_shipped_config_counts(self, dataset, count):
        config = CONFIGS[dataset]
        variants = prompt_variants(config)
        assert len(variants) == count

    def test_ids_deterministic(self):
        config = CONFIGS["weather"]
        ids = [v.variant_id for v in prompt_variants(config)]
        assert ids == ["q0-o0", "q0-o1", "q1-o0", "q1-o1", "q2-o0", "q2-o1"]
        assert variant_by_id(config, "q2-o1").question_index == 2

    def test_unknown_variant_id(self):
        with pytest.raises(InvalidInputError):
            variant_by_id(CONFIGS["weather"], "q9-o9")

    def test_shipped_renames(self):
        assert len(CONFIGS["cifar100"].renames) == 9
        assert len(CONFIGS["oodcv"].renames) == 2
        assert CONFIGS["weather"].renames["Shine"] == "sunny"
        assert CONFIGS["skin_cancer"].renames["notmelanoma"] == "healthy"
        assert CONFIGS["hateful_memes"].renames["not mean"] == "nice"


class TestClosedPromptSet:
    def test_paper_style_pair(self):
        config = CONFIGS["cifar100"]
        sample = make_sample(["beaver", "aquarium_fish"])
        variant = variant_by_id(config, "q1-o2")  # "This is " + a/an rename form
        assert closed_prompt_set(sample, config, variant) == [
            "This is a beaver",
            "This is an aquarium fish",
        ]

    def test_verbatim_passthrough(self):
        config = CONFIGS["binary_abstract_scenes"]
        sample = make_sample(["yes", "no"], dataset="binary_abstract_scenes",
                             context={"class_question": "Is it sunny?"})
        variant = variant_by_id(config, "q0-o0")  # empty question, verbatim options
        assert closed_prompt_set(sample, config, variant) == ["yes", "no"]

    def test_full_cifar_class_list(self):
        config = CONFIGS["cifar100"]
        sample = make_sample(CIFAR100_CLASSES)
        variant = variant_by_id(config, "q2-o1")
        prompts = closed_prompt_set(sample, config, variant)
        assert len(prompts) == 100
        # order matches the class list, with renames applied
        for prompt, cls in zip(prompts, CIFAR100_CLASSES):
            expected = config.renames.get(cls, cls)
            assert prompt == f"What is this? This is {expected}"

    def test_option_order_alignment(self):
        config = CONFIGS["cifar100"]
        options = ["beaver", "aquarium_fish", "oak_tree"]
        variant = variant_by_id(config, "q2-o2")
        base = closed_prompt_set(make_sample(options), config, variant)
        perm = [2, 0, 1]
        permuted = closed_prompt_set(
            make_sample([options[i] for i in perm]), config, variant
        )
        assert permuted == [base[i] for i in perm]

    def test_render_injective_over_classes(self):
        # renames on the shipped class list are injective, so rendering a
        # class_name-keyed form over all 100 classes yields 100 distinct strings
        config = CONFIGS["cifar100"]
        sample = make_sample(CIFAR100_CLASSES)
        variant = variant_by_id(config, "q2-o2")
        prompts = closed_prompt_set(sample, config, variant)
        assert len(set(prompts)) == 100

    def test_foreign_variant_rejected(self):
        config = CONFIGS["scienceqa"]  # 5 question forms, no option forms
        foreign = variant_by_id(CONFIGS["cifar100"], "q2-o2")
        with pytest.raises(InvalidInputError):
            closed_prompt_set(
                make_sample(["a"], dataset="scienceqa",
                            context={"class_question": "?", "class_hint": "!"}),
                config, foreign,
            )

    def test_variant_with_other_templates_rejected(self):
        # in-range indices do not make a variant this config's own
        config = CONFIGS["scienceqa"]
        other = dataclasses.replace(config, question_forms=(PromptTemplate("Other: "),)
                                    + config.question_forms[1:])
        sample = make_sample(["a"], dataset="scienceqa",
                             context={"class_question": "?", "class_hint": "!"})
        assert closed_prompt_set(sample, config, variant_by_id(config, "q0-o0"))
        with pytest.raises(InvalidInputError) as refused:
            closed_prompt_set(sample, config, variant_by_id(other, "q0-o0"))
        assert str(refused.value) == "variant q0-o0 does not belong to config scienceqa"


class TestConfigPlumbing:
    def test_dict_round_trip(self):
        for config in CONFIGS.values():
            assert DatasetPromptConfig.from_dict(config.to_dict()) == config

    def test_requires_question_form(self):
        with pytest.raises(InvalidInputError):
            DatasetPromptConfig(dataset_id="x", question_forms=())

    def test_undeclared_context_key_in_template(self):
        with pytest.raises(InvalidInputError):
            DatasetPromptConfig(
                dataset_id="x",
                question_forms=(PromptTemplate("{mystery} "),),
            )

    def test_empty_rename_rejected(self):
        with pytest.raises(InvalidInputError):
            DatasetPromptConfig(
                dataset_id="x",
                question_forms=(PromptTemplate("q"),),
                renames={"a": ""},
            )


@given(st.lists(st.sampled_from(sorted(CIFAR100_CLASSES)), min_size=1,
                max_size=8, unique=True))
@settings(max_examples=60, deadline=None)
def test_rendered_options_align_with_input(options):
    config = CONFIGS["cifar100"]
    sample = make_sample(options)
    variant = variant_by_id(config, "q0-o1")
    rendered = rendered_options(sample, config, variant)
    assert len(rendered) == len(options)
    assert rendered == [config.renames.get(o, o) for o in options]


@given(st.integers(0, 8), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_render_deterministic(q_index, o_index):
    config = CONFIGS["cifar100"]
    variant = variant_by_id(config, f"q{q_index % 3}-o{o_index}")
    sample = make_sample(["beaver", "lion"])
    first = closed_prompt_set(sample, config, variant)
    second = closed_prompt_set(sample, config, variant)
    assert first == second
