"""Serialization format, prompt filtering, best-model labeling, corpus
construction, and splitting."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from taskrouter import (
    CoverageError,
    IntegrityError,
    InvalidInputError,
    MetadataSummary,
    ParseError,
    QueryGrid,
    RenderError,
    SerializationFlags,
    build_router_dataset,
    builtin_prompt_configs,
    parse_example,
    select_best_model,
    serialize_example,
    serialize_input,
    split_80_10_10,
)
from taskrouter.core import DatasetManifest, ExecutionRecord, Sample, World, save_world
from taskrouter.prompts import DatasetPromptConfig, PromptTemplate, render, rendered_options
from taskrouter.router import FeaturizerConfig, RouterModel, evaluate_router
from taskrouter.routerdata import (
    ALL_FLAG_COMBOS,
    _corpus_labels,
    router_inputs,
    save_corpus,
)
from taskrouter.synth import WorldSpec, generate_world

from conftest import (EMPTY_ARTICLE_ERROR, PARTIAL_RECORDS, empty_article_world,
                      make_micro_world, partial_micro_world)
from oracles import (accuracy_table, filter_valid_prompts, reference_corpus, reference_save_corpus,
                     sample_index)

# Golden record for the serialization format, frozen byte for byte. Note:
# no closing bracket after the options list; the [SEP] marker terminates it.
REFERENCE_LINE = (
    "[img]dim::(270,317,3)ave::(23.1,31.8,46.2)std::(15.1,11.5,10.9)"
    "[prompt]What is this? This is ;;;"
    "['a car', 'a sofa', 'a train', 'a table', 'a chair', 'a boat', "
    "'a plane', 'a motorbike', 'a bus', 'a bicycle'"
    "[SEP]model::clip[response]correct::True;;;avg_accuracy::0.88238"
)
REFERENCE_FIELDS = dict(
    metadata=MetadataSummary((270, 317, 3), (23.1, 31.8, 46.2), (15.1, 11.5, 10.9)),
    prompt_text="What is this? This is ",
    options=["a car", "a sofa", "a train", "a table", "a chair",
             "a boat", "a plane", "a motorbike", "a bus", "a bicycle"],
    model_id="clip",
    correct=True,
    avg_accuracy=0.88238,
)


def random_parsed_fields(rng: random.Random, flags: SerializationFlags):
    """Random but format-safe field values for round-trip checks."""
    alphabet = "abcdefghij KLMNOP.?!:-0123456789é日"
    def text(lo, hi):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    metadata = None
    if flags.include_metadata:
        c = rng.randint(1, 4)
        metadata = MetadataSummary(
            dims=(rng.randint(1, 600), rng.randint(1, 600), c),
            channel_means=tuple(rng.randint(0, 2550) / 10 for _ in range(c)),
            channel_stds=tuple(rng.randint(0, 1280) / 10 for _ in range(c)),
        )
    options = None
    if flags.include_response_options:
        options = [text(1, 12) for _ in range(rng.randint(1, 6))]
    return dict(
        metadata=metadata,
        prompt_text=text(0, 40),
        options=options,
        model_id=text(1, 10).replace(" ", "_"),
        correct=rng.random() < 0.5,
        avg_accuracy=rng.randint(0, 100000) / 100000,
    )


class TestSerializeExample:
    def test_reference_block_byte_for_byte(self):
        line = serialize_example(**REFERENCE_FIELDS, flags=SerializationFlags(True, True))
        assert line == REFERENCE_LINE

    def test_segment_omission(self):
        line = serialize_example(None, "p", None, "m", False, 0.5,
                                 SerializationFlags(False, False))
        assert line == "[prompt]p[SEP]model::m[response]correct::False;;;avg_accuracy::0.50000"

    def test_metadata_only(self):
        md = MetadataSummary((1, 2, 1), (0.0,), (0.0,))
        line = serialize_example(md, "p", None, "m", True, 1.0,
                                 SerializationFlags(True, False))
        assert line == ("[img]dim::(1,2,1)ave::(0.0)std::(0.0)[prompt]p"
                        "[SEP]model::m[response]correct::True;;;avg_accuracy::1.00000")

    def test_options_only(self):
        line = serialize_example(None, "p", ["x", "y"], "m", True, 0.25,
                                 SerializationFlags(False, True))
        assert line == ("[prompt]p;;;['x', 'y'[SEP]model::m[response]"
                        "correct::True;;;avg_accuracy::0.25000")

    def test_unregistered_model(self):
        with pytest.raises(InvalidInputError):
            serialize_example(None, "p", None, "ghost", True, 0.5,
                              SerializationFlags(False, False),
                              model_pool=["clip", "blip"])

    def test_avg_accuracy_range(self):
        with pytest.raises(InvalidInputError):
            serialize_example(None, "p", None, "m", True, 1.5,
                              SerializationFlags(False, False))

    def test_reserved_markers_rejected(self):
        flags = SerializationFlags(False, True)
        with pytest.raises(InvalidInputError):
            serialize_example(None, "bad [SEP] prompt", ["x"], "m", True, 0.5, flags)
        with pytest.raises(InvalidInputError):
            serialize_example(None, "p", ["a', 'b"], "m", True, 0.5, flags)
        with pytest.raises(InvalidInputError):
            serialize_input(None, "p;;;[q", None, SerializationFlags(False, False))

    def test_missing_metadata_for_flag(self):
        with pytest.raises(InvalidInputError):
            serialize_input(None, "p", None, SerializationFlags(True, False))

    @pytest.mark.parametrize("model_id, options", [
        ("", ["x"]),  # model::[response]
        ("m", []),  # ;;;[[SEP]
        ("m", ["a', ", "b"]),  # reads back as ["a", ", 'b"]
    ], ids=["empty_model_id", "no_options", "option_ending_in_separator"])
    def test_fields_the_parser_cannot_read_back_are_rejected(self, model_id, options):
        with pytest.raises(InvalidInputError):
            serialize_example(None, "p", options, model_id, True, 0.5,
                              SerializationFlags(False, True))


class TestParseExample:
    def test_reference_block(self):
        parsed = parse_example(REFERENCE_LINE)
        assert parsed.metadata == REFERENCE_FIELDS["metadata"]
        assert parsed.prompt_text == REFERENCE_FIELDS["prompt_text"]
        assert parsed.options == tuple(REFERENCE_FIELDS["options"])
        assert parsed.model_id == "clip"
        assert parsed.correct is True
        assert parsed.avg_accuracy == 0.88238
        assert parsed.flags == SerializationFlags(True, True)

    def test_empty_string(self):
        with pytest.raises(ParseError):
            parse_example("")

    @pytest.mark.parametrize("line", [
        "[img]dim::(1,1)ave::(0.0)std::(0.0)[prompt]p[SEP]model::m[response]correct::True;;;avg_accuracy::0.50000",
        "[prompt]p[SEP]nomodel",
        "[prompt]p[SEP]model::m[response]correct::Maybe;;;avg_accuracy::0.50000",
        "[prompt]p[SEP]model::m[response]correct::True;;;avg_accuracy::0.5",
        "[prompt]p[SEP]model::m[response]correct::True;;;avg_accuracy::2.00000",
        "no markers at all",
        "[img]dim::(1,1,1)ave::(0.0)std::(0.0)p without prompt marker[SEP]model::m[response]correct::True;;;avg_accuracy::0.50000",
    ])
    def test_malformed_lines(self, line):
        with pytest.raises(ParseError):
            parse_example(line)

    @pytest.mark.parametrize("line", [
        # a superscript passes str.isdigit but not int()
        "[img]dim::(²,1,1)ave::(0.0)std::(0.0)[prompt]p[SEP]model::m[response]"
        "correct::True;;;avg_accuracy::0.50000",
        # Arabic-Indic digits parse as floats but do not reserialize
        "[img]dim::(1,1,1)ave::(١.٥)std::(0.0)[prompt]p[SEP]model::m[response]"
        "correct::True;;;avg_accuracy::0.50000",
        "[prompt]p[SEP]model::m[response]correct::True;;;avg_accuracy::٠.٥٠٠٠٠",
        "[prompt]p[SEP]model::m[response]correct::True;;;avg_accuracy::0.50000\n",
    ], ids=["superscript_dim", "arabic_mean", "arabic_avg", "trailing_newline"])
    def test_numbers_are_ascii_and_whole_fields(self, line):
        with pytest.raises(ParseError):
            parse_example(line)

    def test_offsets_point_into_the_line(self):
        line = "[prompt]p[SEP]model::m[response]correct::Maybe;;;avg_accuracy::0.50000"
        with pytest.raises(ParseError) as err:
            parse_example(line)
        offset = err.value.offset
        assert 0 < offset <= len(line.encode("utf-8"))
        assert line.encode("utf-8")[offset:offset + 5] == b"Maybe"

    def test_round_trip_all_flag_combos(self):
        rng = random.Random(1234)
        for flags in ALL_FLAG_COMBOS:
            for _ in range(250):
                fields = random_parsed_fields(rng, flags)
                line = serialize_example(**fields, flags=flags)
                parsed = parse_example(line)
                assert parsed.metadata == fields["metadata"]
                assert parsed.prompt_text == fields["prompt_text"]
                expected_options = (tuple(fields["options"])
                                    if fields["options"] is not None else None)
                assert parsed.options == expected_options
                assert parsed.model_id == fields["model_id"]
                assert parsed.correct == fields["correct"]
                assert parsed.avg_accuracy == pytest.approx(fields["avg_accuracy"])
                assert parsed.flags == flags
                # serialize(parse(line)) is a fixpoint
                assert parsed.reserialize() == line


class TestFilterValidPrompts:
    def test_cifar_nine_to_six(self):
        configs = {"cifar100": builtin_prompt_configs()["cifar100"]}
        records = [
            ExecutionRecord("s0", "cifar100", "m", f"q{q}-o{o}", 0, False)
            for q in range(3) for o in range(3)
        ]
        kept = filter_valid_prompts(records, configs)
        assert len(kept) == 6
        assert all(not r.prompt_variant_id.startswith("q0-") for r in kept)

    def test_no_empty_question_is_noop(self):
        configs = {"scienceqa": builtin_prompt_configs()["scienceqa"]}
        # scienceqa has q0 empty; use only non-empty variants for the no-op case
        records = [ExecutionRecord("s0", "scienceqa", "m", f"q{q}-o0", 0, False)
                   for q in range(1, 5)]
        assert filter_valid_prompts(records, configs) == records

    def test_survivor_count_matches_recount(self, rng):
        configs = builtin_prompt_configs()
        names = list(configs)
        records = []
        for i in range(400):
            ds = names[int(rng.integers(len(names)))]
            cfg = configs[ds]
            q = int(rng.integers(len(cfg.question_forms)))
            o = int(rng.integers(max(1, len(cfg.option_forms))))
            records.append(ExecutionRecord(f"s{i}", ds, "m", f"q{q}-o{o}", 0, False))
        kept = filter_valid_prompts(records, configs)
        expected = sum(
            1 for r in records
            if configs[r.dataset_id].question_forms[
                int(r.prompt_variant_id[1:].split("-")[0])
            ].template_text != ""
        )
        assert len(kept) == expected

    def test_unknown_dataset(self):
        with pytest.raises(IntegrityError):
            filter_valid_prompts(
                [ExecutionRecord("s", "mystery", "m", "q0-o0", 0, False)], {}
            )


def brute_force_label(correct, avgs):
    """Independent implementation of the labeling rule: discard models
    that classified the sample wrongly; if none remain, keep all; then the
    best average wins, lexicographically smallest id on ties."""
    survivors = [m for m in sorted(correct) if correct[m]]
    if not survivors:
        survivors = sorted(correct)
    best = max(avgs[m] for m in survivors)
    return [m for m in survivors if avgs[m] == best][0]


class TestSelectBestModel:
    def test_discard_rule(self):
        correct = {"m1": False, "m2": True, "m3": True}
        avgs = {"m1": 0.9, "m2": 0.6, "m3": 0.7}
        assert select_best_model(correct, avgs) == "m3"

    def test_all_incorrect_fallback(self):
        assert select_best_model(
            {"m1": False, "m2": False}, {"m1": 0.4, "m2": 0.5}
        ) == "m2"

    def test_lexicographic_tie(self):
        assert select_best_model({"a": True, "b": True}, {"a": 0.7, "b": 0.7}) == "a"

    def test_key_mismatch(self):
        with pytest.raises(InvalidInputError):
            select_best_model({"a": True}, {"b": 0.5})

    def test_matches_brute_force_on_exhaustive_grid(self):
        rng = random.Random(99)
        models = ["m0", "m1", "m2", "m3"]
        for pattern in range(16):
            correct = {m: bool((pattern >> i) & 1) for i, m in enumerate(models)}
            for _ in range(50):
                avgs = {m: rng.random() for m in models}
                assert select_best_model(correct, avgs) == brute_force_label(correct, avgs)

    def test_label_correct_when_any_model_correct(self):
        rng = random.Random(7)
        models = ["a", "b", "c"]
        for _ in range(200):
            correct = {m: rng.random() < 0.5 for m in models}
            avgs = {m: rng.random() for m in models}
            label = select_best_model(correct, avgs)
            if any(correct.values()):
                assert correct[label]


class TestBuildRouterDataset:
    def test_counting(self):
        # 2 samples x 2 valid variants x 3 models = 12 records -> 4 examples
        world = make_micro_world(
            n_samples=2, with_empty_question=True,
            correctness={},
        )
        # micro world has 2 question forms (one empty) x 1 option form
        valid_records = [r for r in world.records if r.prompt_variant_id == "q1-o0"]
        assert len(valid_records) == 6  # 3 models x 2 samples x 1 valid variant
        corpus = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
        assert len(corpus) == 2  # 2 samples x 1 valid variant

    def test_dominant_model_labels(self):
        correctness = {
            ("alpha", i, v): True
            for i in range(3) for v in ("q0-o0", "q1-o0")
        }
        world = make_micro_world(n_samples=3, correctness=correctness)
        corpus = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
        assert len(corpus)
        assert all(corpus.grid.models[c] == "alpha" for c in corpus.labels)

    def test_labels_match_brute_force_on_synthetic_world(self):
        spec = WorldSpec(
            n_datasets=2, samples_per_dataset=30, options_range=(3, 5),
            competence={"x": (0.9, 0.2), "y": (0.4, 0.8), "z": (0.5, 0.5)},
            signal_mode="none", seed=21,
        )
        world = generate_world(spec)
        flags = SerializationFlags(True, True)
        corpus = build_router_dataset(QueryGrid.build(world), flags)
        valid = filter_valid_prompts(world.records, world.prompt_configs)
        table = accuracy_table(valid, sample_index(world))
        by_group = {}
        for rec in valid:
            by_group.setdefault(
                (rec.dataset_id, rec.sample_id, rec.prompt_variant_id), {}
            )[rec.model_id] = rec
        assert len(corpus) == len(by_group)
        for (ds, sample, variant), code in zip(corpus.grid.queries(corpus.rows),
                                               corpus.labels.tolist()):
            sid, vid = sample.sample_id, variant.variant_id
            per_model = by_group[(ds, sid, vid)]
            correct = {m: r.correct for m, r in per_model.items()}
            avgs = {m: table.cell(m, ds, vid) for m in per_model}
            assert corpus.grid.models[code] == brute_force_label(correct, avgs)

    def test_example_lines_parse_and_match_flags(self):
        world = make_micro_world(n_samples=2)
        for flags in ALL_FLAG_COMBOS:
            corpus = build_router_dataset(QueryGrid.build(world), flags)
            for text, code, response in zip(corpus.inputs, corpus.labels, corpus.responses):
                parsed = parse_example(text + response)
                assert parsed.flags == flags
                assert parsed.model_id == corpus.grid.models[code]
                assert response.startswith("[SEP]")

    def test_avg_accuracy_is_label_marginal(self):
        correctness = {("alpha", i, "q1-o0"): i == 0 for i in range(4)}
        world = make_micro_world(n_samples=4, correctness=correctness)
        corpus = build_router_dataset(QueryGrid.build(world), SerializationFlags(False, False))
        parsed = parse_example(corpus.inputs[0] + corpus.responses[0])
        # alpha is correct on 1 of 4 samples of the only valid variant
        assert parsed.avg_accuracy == pytest.approx(0.25)

    def test_coverage_error_lists_gaps(self):
        world = make_micro_world(n_samples=2)
        # drop one model's record for one (sample, variant)
        records = [r for r in world.records
                   if not (r.model_id == "beta" and r.sample_id == "s0"
                           and r.prompt_variant_id == "q1-o0")]
        with pytest.raises(CoverageError) as err:
            build_router_dataset(QueryGrid.build(world, records), SerializationFlags(True, True))
        assert err.value.gaps == [("micro", "s0", "q1-o0", ("beta",))]


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda flags: flags.tag)
def test_corpus_and_routing_share_one_input_per_row(small_keyword_world, flags):
    world = small_keyword_world
    grid = QueryGrid.build(world)
    rows = np.flatnonzero(grid.covered.any(axis=1))
    inputs = router_inputs(grid, rows, flags)
    # corpus position k is covered row k, which is what LODO folds index by
    assert build_router_dataset(grid, flags).inputs == inputs
    feats = FeaturizerConfig(hash_dim=256)
    rng = np.random.default_rng(3)
    router = RouterModel(grid.models, feats, flags, 0,
                         rng.normal(size=(len(grid.models), feats.hash_dim)),
                         rng.normal(size=len(grid.models)))
    choices = dict(zip(rows.tolist(), router.route_batch(inputs)))
    for ds_id in world.datasets:
        replayed = grid.rows(ds_id)
        outcome = grid.outcome(replayed, [choices[r] for r in replayed.tolist()])
        assert evaluate_router(router, grid, ds_id) == grid.variant_mean(replayed, outcome)
    for (ds_id, sample, variant), text in zip(grid.queries(rows), inputs):
        config = world.prompt_configs[ds_id]
        metadata = world.metadata[sample.sample_id]
        prompt = render(variant.question, sample, config)
        options = rendered_options(sample, config, variant)
        # whatever the flags leave out is passed anyway, and ignored
        assert text == serialize_input(metadata, prompt, options, flags)
        assert router.route(metadata, prompt, options) == router.route_text(text)


def test_router_inputs_name_a_sample_without_metadata():
    world = make_micro_world(n_samples=2)
    del world.metadata["s1"]
    grid = QueryGrid.build(world)
    rows = np.flatnonzero(grid.covered.any(axis=1))
    assert len(router_inputs(grid, rows, SerializationFlags(False, True))) == len(rows)
    with pytest.raises(InvalidInputError, match="sample s1 has none"):
        router_inputs(grid, rows, SerializationFlags(True, False))


def test_router_inputs_name_a_sample_whose_article_value_is_empty():
    grid = QueryGrid.build(empty_article_world())
    rows = np.flatnonzero(grid.covered.any(axis=1))
    with pytest.raises(RenderError) as err:
        router_inputs(grid, rows, SerializationFlags(False, False))
    assert str(err.value) == EMPTY_ARTICLE_ERROR and err.value.key == "place"


def test_routerdata_build_names_a_sample_whose_article_value_is_empty(tmp_path, capsys):
    from taskrouter.cli import main

    save_world(empty_article_world(), tmp_path / "world")
    assert main(["--out", str(tmp_path / "corpus"), "routerdata", "build",
                 "--world", str(tmp_path / "world")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "RenderError",
                                                   "message": EMPTY_ARTICLE_ERROR}


def _two_form_world(option_forms: tuple[str, ...]) -> World:
    """Four samples of three options under two question forms and the given
    option forms, with metadata and no records."""
    options = ("red", "blue", "green")
    config = DatasetPromptConfig("two", (PromptTemplate("What is it? "),
                                         PromptTemplate("Name it: ")),
                                 tuple(map(PromptTemplate, option_forms)),
                                 class_names=options)
    samples = tuple(Sample(f"s{i}", "two", f"two/s{i}", {}, options, 0) for i in range(4))
    return World({"two": DatasetManifest("two", "recognition", samples, "two")},
                 {"two": config},
                 {s.sample_id: MetadataSummary((4, 4, 3), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
                  for s in samples}, [], ["alpha", "beta"])


@pytest.mark.parametrize("option_forms", [("{class_name}",), ("{class_name}", "a {class_name}")])
def test_options_are_checked_once_per_option_form(option_forms, monkeypatch):
    from taskrouter import routerdata

    grid = QueryGrid.build(_two_form_world(option_forms), ())
    rows = range(len(grid.variant_index))
    flags = SerializationFlags(True, True)
    expected = router_inputs(grid, rows, flags)
    checked = []
    real = routerdata._check_field

    def counting(name, value, forbidden):
        checked.append(name)
        return real(name, value, forbidden)

    monkeypatch.setattr(routerdata, "_check_field", counting)
    assert router_inputs(grid, rows, flags) == expected
    # the samples share their (empty) context and their options, so each
    # question form's prompt is checked once, and each option form's three
    # options once, however many rows use them
    assert len(rows) == 4 * 2 * len(option_forms)
    assert checked.count("prompt") == 2
    assert checked.count("option") == len(option_forms) * 3


def test_bad_option_on_the_second_option_form_is_refused():
    grid = QueryGrid.build(_two_form_world(("{class_name}", "{class_name}[SEP]")), ())
    rows = range(len(grid.variant_index))
    with pytest.raises(InvalidInputError, match=r"option may not contain .*'red\[SEP\]'"):
        router_inputs(grid, rows, SerializationFlags(True, True))
    # an input without options never reads them
    assert len(router_inputs(grid, rows, SerializationFlags(True, False))) == len(rows)


class TestSplit:
    def _examples(self, n):
        world = make_micro_world(n_samples=n, with_empty_question=False)
        return reference_corpus(QueryGrid.build(world), SerializationFlags(True, True))

    def test_sizes_1000(self):
        train, val, test = split_80_10_10(self._examples(1000), seed=0)
        assert (len(train), len(val), len(test)) == (800, 100, 100)

    def test_sizes_1003(self):
        examples = self._examples(1000) + self._examples(3)
        train, val, test = split_80_10_10(examples, seed=0)
        assert (len(train), len(val), len(test)) == (802, 100, 101)
        combined = sorted(ex.raw_line for ex in train + val + test)
        assert combined == sorted(ex.raw_line for ex in examples)

    def test_deterministic(self):
        examples = self._examples(20)
        assert split_80_10_10(examples, seed=9) == split_80_10_10(examples, seed=9)
        assert split_80_10_10(examples, seed=9) != split_80_10_10(examples, seed=10)

    def test_partitions_disjoint(self):
        examples = self._examples(30)
        train, val, test = split_80_10_10(examples, seed=4)
        ids = [id(e) for part in (train, val, test) for e in part]
        assert len(ids) == len(set(ids)) == len(examples)

    def test_too_few(self):
        with pytest.raises(InvalidInputError):
            split_80_10_10(self._examples(4), seed=0)


def test_failed_corpus_save_keeps_old_files(tmp_path):
    corpus = build_router_dataset(QueryGrid.build(make_micro_world(n_samples=3)),
                                  SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, range(len(corpus)), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    damaged = replace(corpus, inputs=[corpus.inputs[0], None, *corpus.inputs[2:]])
    with pytest.raises(TypeError):
        save_corpus(damaged, range(len(corpus)), path)  # the corpus write fails on line 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_sidecar_write_keeps_old_corpus_pair(tmp_path, monkeypatch):
    corpus = build_router_dataset(QueryGrid.build(make_micro_world(n_samples=3)),
                                  SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, range(3), path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dumps", disk_full)  # only the sidecar is JSON
    with pytest.raises(OSError):
        save_corpus(corpus, range(1), path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_saved_corpus_matches_the_reference_writer(tmp_path):
    world = make_micro_world(n_samples=3)
    grid = QueryGrid.build(world)
    corpus = build_router_dataset(grid, SerializationFlags(True, True))
    save_corpus(corpus, range(len(corpus)), tmp_path / "got.txt")
    reference_save_corpus(reference_corpus(grid, SerializationFlags(True, True)),
                          tmp_path / "want.txt")
    for name in ("{}.txt", "{}.txt.index.jsonl"):
        got, want = ((tmp_path / name.format(side)).read_bytes() for side in ("got", "want"))
        assert got == want


def test_saved_corpus_lines_parse_back_to_their_examples(tmp_path):
    # positions in any order: line i parses back to the example at the i-th
    # position, and sidecar line i names that example's provenance and label
    flags = SerializationFlags(True, True)
    grid = QueryGrid.build(make_micro_world(n_samples=3))
    corpus = build_router_dataset(grid, flags)
    examples = reference_corpus(grid, flags)
    positions = list(range(len(corpus)))[::-2]
    path = tmp_path / "corpus.txt"
    save_corpus(corpus, positions, path)
    lines = path.read_text().splitlines()
    entries = [json.loads(line)
               for line in (tmp_path / "corpus.txt.index.jsonl").read_text().splitlines()]
    assert len(lines) == len(entries) == len(positions) > 1
    for i, (p, line, entry) in enumerate(zip(positions, lines, entries)):
        parsed = parse_example(line)
        assert line.startswith(corpus.inputs[p] + "[SEP]") and parsed.reserialize() == line
        assert parsed.model_id == examples[p].label_model_id == grid.models[corpus.labels[p]]
        sample_id, dataset_id, variant_id = examples[p].provenance
        assert entry == {"line": i, "sample_id": sample_id, "dataset_id": dataset_id,
                         "prompt_variant_id": variant_id,
                         "label_model_id": examples[p].label_model_id}


@pytest.mark.parametrize("case", sorted(PARTIAL_RECORDS))
def test_corpus_labels_on_partial_and_unrecorded_grids(case):
    # each covered row is labeled by the reference table's cells and
    # marginals, also where some cells lack a record; a (variant, model)
    # cell with no record at all has no average and raises CoverageError naming it
    world, records = partial_micro_world(case)
    grid = QueryGrid.build(world, records)
    if case in ("variant_short", "model_short"):
        with pytest.raises(CoverageError,
                           match=r"^no record of model 'gamma' on any sample of micro/q1-o0$"):
            _corpus_labels(grid)
        return
    valid = filter_valid_prompts(records, world.prompt_configs)
    table = accuracy_table(valid) if valid else None
    want_labels, want_responses = [], []
    rows = np.flatnonzero(grid.covered.any(axis=1))
    for i, (ds, _, variant) in zip(rows.tolist(), grid.queries(rows)):
        correct = dict(zip(grid.models, grid.correct[i].tolist()))
        label = select_best_model(correct, {m: table.cell(m, ds, variant.variant_id)
                                            for m in grid.models})
        want_labels.append(grid.models.index(label))
        want_responses.append(f"[SEP]model::{label}[response]correct::{correct[label]};;;"
                              f"avg_accuracy::{table.marginal(label, ds):.5f}")
    labels, responses = _corpus_labels(grid)
    assert (labels.tolist(), responses) == (want_labels, want_responses)
