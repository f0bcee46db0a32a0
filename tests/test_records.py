"""The columnar record table: its reader and writer, and the query grid
it feeds, checked against the record-object reference in ``oracles``."""

from __future__ import annotations

import gc
import json
import random
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (AccuracyTable, FlakyBackend, accuracy_table, filter_valid_prompts,
                     object_grid, object_records, sample_index)

import taskrouter.core as core
from conftest import make_micro_world
from taskrouter import CoverageError, IntegrityError, InvalidInputError, PromptTemplate
from taskrouter.core import (DatasetManifest, ExecutionRecord, IdColumn, QueryGrid, Records,
                             aggregate_accuracy, load_world, save_records, save_world,
                             write_jsonl)
from taskrouter.prompts import prompt_variants
from taskrouter.scoring import SeededEmbeddingBackend, evaluate
from taskrouter.synth import WorldSpec, generate_world


def small_world():
    """2 datasets x 5 samples, 3 models, 2 question forms."""
    return generate_world(WorldSpec(
        n_datasets=2, samples_per_dataset=5, options_range=(2, 4),
        competence={"a": (0.8, 0.3), "b": (0.4, 0.7), "c": (0.5, 0.5)},
        signal_mode="none", question_forms_per_dataset=2, seed=7,
    ))


def many_forms_world():
    """small_world with 7 samples and 12 question forms, whose variant ids
    sort in another order than the canonical one (q10-o0 before q2-o0)."""
    return generate_world(WorldSpec(
        n_datasets=2, samples_per_dataset=7, options_range=(2, 4),
        competence={"a": (0.8, 0.3), "b": (0.4, 0.7), "c": (0.5, 0.5)},
        signal_mode="none", question_forms_per_dataset=12, seed=7,
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


def with_empty_dataset(make, at):
    """``make`` with a dataset of no samples at position ``at`` of
    ``world.datasets``: its span is empty, so it must claim no row."""
    def make_world():
        world = make()
        datasets = list(world.datasets.items())
        datasets.insert(at, ("empty", DatasetManifest("empty", "recognition", (), "empty")))
        world.datasets = dict(datasets)
        config = next(iter(world.prompt_configs.values()))
        world.prompt_configs = {**world.prompt_configs,
                                "empty": replace(config, dataset_id="empty")}
        return world
    make_world.__name__ = f"{make.__name__}_empty_at_{at}"
    return make_world


# every row of these is read at a dataset boundary: many variants per sample,
# and an empty dataset first, in the middle and last
WORLDS = [small_world, empty_question_world, make_micro_world, many_forms_world,
          with_empty_dataset(make_micro_world, 0), with_empty_dataset(make_micro_world, 1),
          with_empty_dataset(small_world, 1), with_empty_dataset(small_world, 2)]


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
    rows = range(len(got.variant_index))
    assert [(ds, s.sample_id, v.variant_id) for ds, s, v in got.queries(rows)] == want["queries"]
    assert got.spans == want["spans"]
    np.testing.assert_array_equal(got.sample_index, want["sample_index"])
    np.testing.assert_array_equal(got.variant_index, want["variant_index"])
    for name in ("covered", "correct", "predicted"):
        np.testing.assert_array_equal(getattr(got, name), want[name])
    assert_same_counts(got, want["counts"])
    assert_errors_name_the_rows(got, want["queries"])


def assert_errors_name_the_rows(grid, queries):
    """``require_coverage`` and ``outcome`` name the first and last row of
    the last dataset with rows as ``object_grid``'s ``queries`` name them."""
    spans = [span for span in grid.spans.values() if len(span)]
    if not spans:
        return
    ends = sorted({spans[-1].start, spans[-1].stop - 1})
    for i in ends:
        with pytest.raises(CoverageError) as raised:
            grid.outcome([i], ["nobody"])
        assert str(raised.value) == ("no recorded outcome for routed model 'nobody' on "
                                     + "/".join(queries[i]))
    covered = np.ones_like(grid.covered)
    covered[ends, 0] = False
    with pytest.raises(CoverageError) as raised:
        replace(grid, covered=covered).require_coverage()
    assert str(raised.value) == (
        f"{len(ends)} (sample, variant) groups lack full model coverage: "
        + ", ".join(f"{'/'.join(queries[i])} missing [{grid.models[0]!r}]" for i in ends))
    assert raised.value.gaps == [(*queries[i], (grid.models[0],)) for i in ends]


def assert_same_counts(grid, counts):
    """``grid.counts`` of each dataset equals ``object_grid``'s ``counts``."""
    assert list(grid.variants) == list(counts)
    for ds, (rights, totals) in counts.items():
        got_rights, got_totals = grid.counts(ds)
        assert got_rights.tolist() == rights.tolist()
        assert got_totals.tolist() == totals.tolist()


class TestGridMatchesObjectPath:
    @pytest.mark.parametrize("make", WORLDS)
    def test_whole_and_shuffled(self, make):
        world = make()
        assert_same_grid(world)
        records = list(world.records)
        for seed in range(3):
            random.Random(seed).shuffle(records)
            assert_same_grid(world, records)

    @pytest.mark.parametrize("make", WORLDS)
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
        assert not grid.covered.any()
        for ds in world.datasets:
            assert not grid.counts(ds)[1].any() and grid.marginals(ds) == {}

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


@given(make=st.sampled_from([small_world, empty_question_world, make_micro_world,
                             many_forms_world]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_grid_counts_and_marginals_equal_the_references(make, data):
    # any subset of the records, in any order: each dataset's counts are the
    # record-object path's and its marginals the reference table's, bit for bit
    world = make()
    records = list(world.records)
    keep = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
    records = data.draw(st.permutations([r for r, k in zip(records, keep) if k]))
    grid = QueryGrid.build(world, records)
    assert_same_counts(grid, object_grid(world, records)["counts"])
    valid = filter_valid_prompts(records, world.prompt_configs)
    table = accuracy_table(valid) if valid else AccuracyTable()
    for ds in world.datasets:
        expected = {m: table.marginal(m, ds) for m in grid.models if table.variants(m, ds)}
        assert grid.marginals(ds) == expected


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
    samples = sample_index(world)
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
        samples = sample_index(world)
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
        loaded = Records.load(path)
        assert loaded == world.records
        assert list(loaded) == object_records(path)
        assert_encoded(loaded)  # the blocks' ids, in order of first appearance

    def test_saved_non_ascii_ids_load_without_the_line_by_line_reader(self, tmp_path,
                                                                      monkeypatch):
        # save writes such ids as \uXXXX escapes, which the line pattern reads
        import taskrouter.core as core

        def line_by_line(path, first_lineno, lines):
            raise AssertionError(f"block at line {first_lineno} left the line pattern")

        monkeypatch.setattr(core, "_check_block", line_by_line)
        world = small_world()
        world.records = [replace(r, sample_id=f"é{r.sample_id}\U0001f600",
                                 dataset_id=f"数据{r.dataset_id}", model_id=f'"{r.model_id}\\',
                                 prompt_variant_id=f"{r.prompt_variant_id}\u2028")
                         for r in world.records]
        save_world(world, tmp_path)
        assert b"\\u00e9" in (tmp_path / "records.jsonl").read_bytes()
        assert list(load_world(tmp_path).records) == world.records

    @pytest.mark.parametrize("line, error, words", [
        (b'{"correct": tru', InvalidInputError, "records.jsonl:8: malformed JSON"),
        (b"[1, 2]", InvalidInputError, "records.jsonl:8: not a JSON object"),
        (b'{"a": "\xff"}', InvalidInputError, "records.jsonl:8: not UTF-8"),
        (b'{"correct": true}', IntegrityError, "records.jsonl:8: missing field 'predicted_index'"),
        (b'{"correct": 1, "predicted_index": 0}', InvalidInputError,
         "records.jsonl:8: field 'correct' must be a bool"),
        (b'{"correct": true, "predicted_index": 0, "sample_id": 5, "dataset_id": "d", '
         b'"model_id": "m", "prompt_variant_id": "v"}', InvalidInputError,
         "records.jsonl:8: field 'sample_id' must be a string"),
        (b'{"correct": true, "predicted_index": 9223372036854775808, "sample_id": "s", '
         b'"dataset_id": "d", "model_id": "m", "prompt_variant_id": "v"}', InvalidInputError,
         "records.jsonl:8: predicted_index 9223372036854775808 outside the int64 range"),
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


def assert_encoded(table):
    """Each id column holds the ids its rows use, in order of first
    appearance, exactly as ``IdColumn.encode`` of its rows does."""
    for column in table.ids():
        want = IdColumn.encode(column.tolist())
        assert column.values == want.values
        assert column.codes.dtype == np.int32
        np.testing.assert_array_equal(column.codes, want.codes)


# few letters, so tables share ids as well as hold their own
_IDS = st.text(st.sampled_from('ab\\"é数\U0001f600\u2028'), max_size=3)
_ROWS = st.tuples(_IDS, _IDS, _IDS, _IDS, st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans())


@given(st.lists(st.lists(_ROWS, max_size=6), max_size=4))
@settings(max_examples=150, deadline=None)
def test_concat_is_the_table_of_the_chained_rows(row_lists):
    tables = [Records.from_columns(*zip(*rows)) for rows in row_lists]
    chained = [ExecutionRecord(*row) for rows in row_lists for row in rows]
    joined = Records.concat(tables)
    assert joined == Records.of(chained) and list(joined) == chained
    assert_encoded(joined)
    # a file read in blocks of a line or two joins its blocks alike
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(core, "_READ_BLOCK_BYTES", 300):
        save_records(joined, Path(tmp) / "records.jsonl")
        loaded = Records.load(Path(tmp) / "records.jsonl")
    assert list(loaded) == chained
    assert_encoded(loaded)


@pytest.mark.parametrize("failing", [{"micro/s1"}, {"micro/s0", "micro/s1", "micro/s2"}])
def test_a_sample_skipped_on_every_variant_is_in_no_value_list(failing):
    world = make_micro_world(n_samples=3, with_empty_question=False)
    manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
    run = evaluate(FlakyBackend(SeededEmbeddingBackend(seed=1, dim=4), failing), manifest, config)
    scored = [s.sample_id for s in manifest.samples if s.image_ref not in failing]
    assert isinstance(run.records, Records)
    assert run.skip_count == len(failing) * len(prompt_variants(config))
    assert run.records.sample_id.values == tuple(scored)
    assert run.records.dataset_id.values == (("micro",) if scored else ())
    assert_encoded(run.records)


@pytest.fixture
def collector_on():
    """The cyclic collector on for the test, and back as it was after."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("read", [load_world, core.load_tasks])
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("torn", [False, True])
def test_a_world_read_leaves_the_collector_as_it_found_it(tmp_path, collector_on, read,
                                                          enabled, torn):
    save_world(small_world(), tmp_path)
    if torn:  # load_tasks never reads the records, so only load_world raises
        records = tmp_path / "records.jsonl"
        records.write_bytes(records.read_bytes()[:-20])
    seen = []

    def watch(real):
        def watched(path):
            seen.append((real.__name__, gc.isenabled()))
            return real(path)
        return watched

    (gc.enable if enabled else gc.disable)()
    with mock.patch.object(core, "load_manifests", watch(core.load_manifests)), \
            mock.patch.object(core, "load_metadata", watch(core.load_metadata)):
        if torn and read is load_world:
            with pytest.raises(InvalidInputError, match="records.jsonl:"):
                read(tmp_path)
        else:
            read(tmp_path)
    assert gc.isenabled() is enabled
    paused = [("load_manifests", False), ("load_metadata", False)]  # while the files are read
    assert seen == (paused if read is load_world else paused[:1])


def test_a_world_read_pauses_once_when_nested(tmp_path, collector_on):
    save_world(small_world(), tmp_path)
    with core._gc_paused():
        load_world(tmp_path)
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_cycle_made_before_a_world_read_is_still_collected(tmp_path, collector_on):
    class Node:
        pass

    save_world(small_world(), tmp_path)
    gc.disable()  # so that nothing collects the cycle before the read
    node = Node()
    node.self = node
    gone = weakref.ref(node)
    del node
    load_world(tmp_path)
    assert gone() is not None
    gc.collect()  # a frozen or otherwise kept object would survive this
    assert gone() is None
