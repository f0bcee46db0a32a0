"""Serialization format, prompt filtering, best-model labeling, corpus
construction, and splitting."""

import json
import random

import numpy as np
import pytest

from taskrouter import (
    CoverageError,
    IntegrityError,
    InvalidInputError,
    MetadataSummary,
    ParseError,
    QueryGrid,
    SerializationFlags,
    build_router_dataset,
    builtin_prompt_configs,
    parse_example,
    select_best_model,
    serialize_example,
    serialize_input,
    split_80_10_10,
)
from taskrouter.core import ExecutionRecord
from taskrouter.prompts import render, rendered_options
from taskrouter.router import FeaturizerConfig, RouterModel, route_rows
from taskrouter.routerdata import (
    ALL_FLAG_COMBOS,
    load_corpus,
    router_inputs,
    save_corpus,
)
from taskrouter.synth import WorldSpec, generate_world

from conftest import make_micro_world
from oracles import filter_valid_prompts

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
        examples = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
        assert len(examples) == 2  # 2 samples x 1 valid variant

    def test_dominant_model_labels(self):
        correctness = {
            ("alpha", i, v): True
            for i in range(3) for v in ("q0-o0", "q1-o0")
        }
        world = make_micro_world(n_samples=3, correctness=correctness)
        examples = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
        assert examples
        assert all(ex.label_model_id == "alpha" for ex in examples)

    def test_labels_match_brute_force_on_synthetic_world(self):
        spec = WorldSpec(
            n_datasets=2, samples_per_dataset=30, options_range=(3, 5),
            competence={"x": (0.9, 0.2), "y": (0.4, 0.8), "z": (0.5, 0.5)},
            signal_mode="none", seed=21,
        )
        world = generate_world(spec)
        flags = SerializationFlags(True, True)
        examples = build_router_dataset(QueryGrid.build(world), flags)
        from taskrouter.core import aggregate_accuracy

        valid = filter_valid_prompts(world.records, world.prompt_configs)
        table = aggregate_accuracy(valid, world.sample_index())
        by_group = {}
        for rec in valid:
            by_group.setdefault(
                (rec.dataset_id, rec.sample_id, rec.prompt_variant_id), {}
            )[rec.model_id] = rec
        assert len(examples) == len(by_group)
        for ex in examples:
            sid, ds, vid = ex.provenance
            per_model = by_group[(ds, sid, vid)]
            correct = {m: r.correct for m, r in per_model.items()}
            avgs = {m: table.cell(m, ds, vid) for m in per_model}
            assert ex.label_model_id == brute_force_label(correct, avgs)

    def test_example_lines_parse_and_match_flags(self):
        world = make_micro_world(n_samples=2)
        for flags in ALL_FLAG_COMBOS:
            for ex in build_router_dataset(QueryGrid.build(world), flags):
                parsed = parse_example(ex.raw_line)
                assert parsed.flags == flags
                assert parsed.model_id == ex.label_model_id
                assert ex.raw_line.startswith(ex.serialized_input)

    def test_avg_accuracy_is_label_marginal(self):
        correctness = {("alpha", i, "q1-o0"): i == 0 for i in range(4)}
        world = make_micro_world(n_samples=4, correctness=correctness)
        examples = build_router_dataset(QueryGrid.build(world), SerializationFlags(False, False))
        parsed = parse_example(examples[0].raw_line)
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
    assert [ex.serialized_input for ex in build_router_dataset(grid, flags)] == inputs
    feats = FeaturizerConfig(hash_dim=256)
    rng = np.random.default_rng(3)
    router = RouterModel(grid.models, feats, flags, 0,
                         rng.normal(size=(len(grid.models), feats.hash_dim)),
                         rng.normal(size=len(grid.models)))
    assert route_rows(router, grid, rows) == router.route_batch(inputs)
    for i, text in zip(rows.tolist(), inputs):
        ds_id, sample, variant = grid.queries[i]
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


class TestSplit:
    def _examples(self, n):
        world = make_micro_world(n_samples=n, with_empty_question=False)
        return build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))

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
    examples = build_router_dataset(QueryGrid.build(make_micro_world(n_samples=3)),
                                    SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(examples, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(AttributeError):
        save_corpus([examples[0], None], path)  # the corpus write fails on its second line
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_failed_sidecar_write_keeps_old_corpus_pair(tmp_path, monkeypatch):
    examples = build_router_dataset(QueryGrid.build(make_micro_world(n_samples=3)),
                                    SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(examples[:3], path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dumps", disk_full)  # only the sidecar is JSON
    with pytest.raises(OSError):
        save_corpus(examples[:1], path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert len(load_corpus(path)) == 3


@pytest.mark.parametrize("edit", ["drop_entry", "extra_entry", "other_label"])
def test_mismatched_sidecar_fails_to_load(edit, tmp_path):
    examples = build_router_dataset(QueryGrid.build(make_micro_world(n_samples=3)),
                                    SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(examples[:3], path)
    sidecar = tmp_path / "corpus.txt.index.jsonl"
    entries = [json.loads(line) for line in sidecar.read_text().splitlines()]
    if edit == "drop_entry":
        entries.pop(1)
    elif edit == "extra_entry":
        entries.append({**entries[0], "line": 3})
    else:
        entries[2]["label_model_id"] = next(
            m for m in ("alpha", "beta") if m != entries[2]["label_model_id"])
    sidecar.write_text("".join(json.dumps(e) + "\n" for e in entries))
    with pytest.raises(IntegrityError, match="index.jsonl"):
        load_corpus(path)


@pytest.mark.parametrize("edit", ["no_line", "no_label", "no_sample_id", "list_line",
                                  "second_entry"])
def test_damaged_sidecar_entry_names_sidecar_line(edit, tmp_path):
    examples = build_router_dataset(QueryGrid.build(make_micro_world(n_samples=3)),
                                    SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(examples[:3], path)
    sidecar = tmp_path / "corpus.txt.index.jsonl"
    entries = [json.loads(line) for line in sidecar.read_text().splitlines()]
    if edit == "list_line":
        entries[1]["line"] = [1]
    elif edit == "second_entry":
        entries[1]["line"] = 0
    else:
        del entries[1][{"no_line": "line", "no_label": "label_model_id",
                        "no_sample_id": "sample_id"}[edit]]
    sidecar.write_text("".join(json.dumps(e) + "\n" for e in entries))
    with pytest.raises(IntegrityError, match=r"index\.jsonl:2"):
        load_corpus(path)


def test_corpus_save_and_load(tmp_path):
    world = make_micro_world(n_samples=3)
    examples = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    save_corpus(examples, path)
    assert (tmp_path / "corpus.txt.index.jsonl").exists()
    loaded = load_corpus(path)
    assert [e.raw_line for e in loaded] == [e.raw_line for e in examples]
    assert [e.provenance for e in loaded] == [e.provenance for e in examples]
    assert [e.label_model_id for e in loaded] == [e.label_model_id for e in examples]


def test_unparsable_corpus_line_names_path_and_line(tmp_path):
    world = make_micro_world(n_samples=3)
    examples = build_router_dataset(QueryGrid.build(world), SerializationFlags(True, True))
    path = tmp_path / "corpus.txt"
    path.write_text(examples[0].raw_line + "\ngarbage line\n")
    with pytest.raises(ParseError, match=r"corpus\.txt:2: expected \[prompt\] segment "
                                         r"\(byte offset 0\)"):
        load_corpus(path)
