"""The columnar record table: its reader and writer, and the query grid
it feeds, checked against the record-object reference in ``oracles``."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import numpy as np
import pytest
from oracles import object_grid, object_records

from conftest import make_micro_world
from taskrouter import IntegrityError, InvalidInputError, PromptTemplate
from taskrouter.core import (QueryGrid, Records, aggregate_accuracy, load_world, save_records,
                             save_world, write_jsonl)
from taskrouter.synth import WorldSpec, generate_world


def small_world():
    """2 datasets x 5 samples, 3 models, 2 question forms."""
    return generate_world(WorldSpec(
        n_datasets=2, samples_per_dataset=5, options_range=(2, 4),
        competence={"a": (0.8, 0.3), "b": (0.4, 0.7), "c": (0.5, 0.5)},
        signal_mode="none", question_forms_per_dataset=2, seed=7,
    ))


def empty_question_world():
    """small_world with a third, empty question form on every dataset, and
    records for it, which every reader drops."""
    world = small_world()
    world.prompt_configs = {
        ds: replace(cfg, question_forms=(*cfg.question_forms, PromptTemplate("")))
        for ds, cfg in world.prompt_configs.items()
    }
    world.records = [*world.records, *(replace(r, prompt_variant_id="q2-o0")
                                       for r in world.records if r.prompt_variant_id == "q0-o0")]
    return world


def _outcome(build, *args):
    try:
        return build(*args)
    except IntegrityError as exc:
        return type(exc), str(exc)


def assert_same_grid(world, records=None):
    want = _outcome(object_grid, world, records)
    got = _outcome(QueryGrid.build, world, records)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, QueryGrid)
    assert got.models == want["models"]
    assert [(ds, s.sample_id, v.variant_id) for ds, s, v in got.queries] == want["queries"]
    assert got.spans == want["spans"]
    np.testing.assert_array_equal(got.variant_index, want["variant_index"])
    for name in ("covered", "correct", "predicted"):
        np.testing.assert_array_equal(getattr(got, name), want[name])
    assert got.table.counts == want["counts"]


class TestGridMatchesObjectPath:
    @pytest.mark.parametrize("make", [small_world, empty_question_world, make_micro_world])
    def test_whole_and_shuffled(self, make):
        world = make()
        assert_same_grid(world)
        records = list(world.records)
        for seed in range(3):
            random.Random(seed).shuffle(records)
            assert_same_grid(world, records)

    @pytest.mark.parametrize("make", [small_world, empty_question_world])
    def test_partial(self, make):
        world = make()
        records = list(world.records)
        rng = random.Random(1)
        for keep in (0.9, 0.5, 0.1):
            assert_same_grid(world, [r for r in records if rng.random() < keep])
        assert_same_grid(world, [r for r in records if r.model_id != "b"])
        assert_same_grid(world, [r for r in records if r.dataset_id == "ds01"])

    def test_invalid_variant_only(self):
        world = empty_question_world()
        only = [r for r in world.records if r.prompt_variant_id == "q2-o0"]
        assert only
        assert_same_grid(world, only)
        assert not QueryGrid.build(world, only).covered.any()

    def test_empty(self):
        world = small_world()
        assert_same_grid(world, [])
        grid = QueryGrid.build(world, [])
        assert len(grid.table) == 0 and not grid.covered.any()

    @pytest.mark.parametrize("seed", range(40))
    def test_several_faults_report_the_same_first_one(self, seed):
        # of several faults, both paths raise for the same record with the same words
        world = small_world()
        rng = random.Random(seed)
        records = list(world.records)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(records))
            records[i] = FAULTS[rng.choice(sorted(FAULTS))](records[i], rng)
        if rng.random() < 0.3:
            records.append(records[rng.randrange(len(records))])
        rng.shuffle(records)
        assert_same_grid(world, records)


FAULTS = {
    "no_config": lambda r, rng: replace(r, dataset_id="ds99"),
    "unknown_sample": lambda r, rng: replace(r, sample_id=f"ghost{rng.randrange(3)}"),
    "outside_pool": lambda r, rng: replace(r, model_id="zeta"),
    "out_of_range": lambda r, rng: replace(r, predicted_index=rng.choice([-1, 9])),
    "inconsistent": lambda r, rng: replace(r, correct=not r.correct),
    "invalid_variant": lambda r, rng: replace(r, prompt_variant_id="q7-o0"),
}

# one damaged records.jsonl per check: line 7 (ds00-s00003, q0-o0, model a)
# edited, or repeated at the end; and the words the record-object path used
SINGLE_FAULTS = {
    "no_config": (lambda row: {**row, "dataset_id": "ds99"},
                  "record references dataset 'ds99' with no prompt config"),
    "duplicate": (None, "duplicate record for model a on ds00/ds00-s00003/q0-o0"),
    "unknown_sample": (lambda row: {**row, "sample_id": "ghost"},
                       "record references unknown sample ds00/ghost"),
    "outside_pool": (lambda row: {**row, "model_id": "zeta"},
                     "record of model 'zeta' outside the pool ['a', 'b', 'c']"),
    "out_of_range": (lambda row: {**row, "predicted_index": 9, "correct": False},
                     "record for ds00-s00003: predicted_index 9 outside option range"),
    "inconsistent": (lambda row: {**row, "correct": not row["correct"]},
                     "record for ds00-s00003: correct flag inconsistent with predicted_index"),
    "invalid_variant": (lambda row: {**row, "prompt_variant_id": "q7-o0"},
                        "record references prompt variant 'q7-o0' that dataset 'ds00' "
                        "does not define"),
}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_single_fault_file_fails_as_before(tmp_path, fault):
    save_world(small_world(), tmp_path)
    path = tmp_path / "records.jsonl"
    lines = path.read_text().splitlines()
    edit, message = SINGLE_FAULTS[fault]
    if edit is None:
        lines.append(lines[6])
    else:
        lines[6] = json.dumps(edit(json.loads(lines[6])), sort_keys=True)
    path.write_text("".join(line + "\n" for line in lines))
    world = load_world(tmp_path)
    assert _outcome(QueryGrid.build, world) == (IntegrityError, message)
    assert _outcome(object_grid, world) == (IntegrityError, message)


def test_accuracy_check_reports_the_first_faulty_record():
    world = small_world()
    samples = world.sample_index()
    records = list(world.records)
    records[20] = replace(records[20], correct=not records[20].correct)
    records[5] = replace(records[5], predicted_index=-3)
    records[30] = replace(records[30], sample_id="ghost")
    with pytest.raises(IntegrityError, match="record for ds00-s00002: predicted_index -3 "):
        aggregate_accuracy(records, samples)
    with pytest.raises(IntegrityError, match="inconsistent"):
        aggregate_accuracy(records[6:], samples)
    with pytest.raises(IntegrityError, match="unknown sample ds01/ghost"):
        aggregate_accuracy(records[21:], samples)


class TestRecords:
    def test_of_iter_and_equality(self):
        world = small_world()
        records = list(world.records)
        table = Records.of(records)
        assert Records.of(table) is table
        assert list(table) == records and len(table) == len(records)
        assert table == world.records and table != Records.of(records[:-1])
        flipped = [*records[:-1], replace(records[-1], correct=not records[-1].correct)]
        assert table != Records.of(flipped)
        assert Records.of([]) == Records.of(iter(())) and len(Records.of([])) == 0

    def test_world_holds_a_table(self):
        world = make_micro_world()
        assert isinstance(world.records, Records)

    def test_synth_records_in_dataset_model_sample_variant_order(self):
        world = small_world()
        keys = [(r.dataset_id, r.model_id, r.sample_id, r.prompt_variant_id)
                for r in world.records]
        assert keys == sorted(set(keys)) and len(keys) == 2 * 3 * 5 * 2
        samples = world.sample_index()
        for r in world.records:
            sample = samples[(r.dataset_id, r.sample_id)]
            assert r.correct == (r.predicted_index == sample.gold_index)

    def test_writer_matches_json_dumps_and_reader_round_trips(self, tmp_path):
        world = empty_question_world()
        save_records(world.records, tmp_path / "template.jsonl")
        write_jsonl(tmp_path / "dumps.jsonl", (r.to_dict() for r in world.records))
        assert (tmp_path / "template.jsonl").read_bytes() == \
            (tmp_path / "dumps.jsonl").read_bytes()
        assert Records.load(tmp_path / "template.jsonl") == Records.of(world.records)

    def test_blocks_and_odd_lines_read_as_line_by_line(self, tmp_path, monkeypatch):
        import taskrouter.core as core

        monkeypatch.setattr(core, "_READ_BLOCK_BYTES", 300)
        world = small_world()
        path = tmp_path / "records.jsonl"
        save_records(world.records, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b"\n", b"\r\n")
        lines[8] = b"  " + lines[8]
        lines.insert(12, b"\n")
        lines.insert(20, b" \t\n")
        path.write_bytes(b"".join(lines))
        assert Records.load(path) == world.records
        assert list(Records.load(path)) == object_records(path)

    @pytest.mark.parametrize("line, error, words", [
        (b'{"correct": tru', InvalidInputError, "records.jsonl:8: malformed JSON"),
        (b"[1, 2]", InvalidInputError, "records.jsonl:8: not a JSON object"),
        (b'{"a": "\xff"}', InvalidInputError, "records.jsonl:8: not UTF-8"),
        (b'{"correct": true}', IntegrityError, "records.jsonl:8: missing field 'predicted_index'"),
        (b'{"correct": 1, "predicted_index": 0}', InvalidInputError,
         "correct must be true or false, got 1"),
        (b'{"correct": true, "predicted_index": 0, "sample_id": 5, "dataset_id": "d", '
         b'"model_id": "m", "prompt_variant_id": "v"}', InvalidInputError,
         "sample_id must be a string, got 5"),
        (b'{"correct": true, "predicted_index": 9223372036854775808, "sample_id": "s", '
         b'"dataset_id": "d", "model_id": "m", "prompt_variant_id": "v"}', InvalidInputError,
         "predicted_index 9223372036854775808 outside the int64 range"),
    ])
    def test_a_bad_line_fails_as_line_by_line(self, tmp_path, monkeypatch, line, error, words):
        import taskrouter.core as core

        monkeypatch.setattr(core, "_READ_BLOCK_BYTES", 500)
        path = tmp_path / "records.jsonl"
        save_records(small_world().records, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[7] = line + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(error) as got:
            Records.load(path)
        assert words in str(got.value)
        with pytest.raises(error) as want:
            object_records(path)
        assert str(got.value) == str(want.value)
