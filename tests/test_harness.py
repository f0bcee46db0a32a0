"""Harness: LODO, ablations, fold isolation, and determinism."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from taskrouter import (
    CoverageError,
    IntegrityError,
    InvalidInputError,
    QueryGrid,
    SerializationFlags,
    build_router_dataset,
    run_lodo,
)
from taskrouter.harness import run_ablation, write_run_manifest
from taskrouter.router import FeaturizerConfig, TrainConfig
from taskrouter.routerdata import ALL_FLAG_COMBOS
from taskrouter.synth import WorldSpec, generate_world

from conftest import keyword_world_spec, make_micro_world
from oracles import accuracy_table, filter_valid_prompts, sample_index, table_average

# unit-test schedule: hotter learning rate, fewer steps, smaller hash space
FAST_TRAIN = TrainConfig(learning_rate=0.05, max_iterations=800, eval_every=200)
FAST_FEATS = FeaturizerConfig(ngram_orders=(2, 3, 4), hash_dim=2 ** 14)


@pytest.fixture(scope="module")
def paired_world():
    return generate_world(keyword_world_spec(
        samples_per_dataset=60, paired=True, seed=31,
    ))


class TestRunLodo:
    def test_shared_best_model_transfers_exactly(self):
        # two datasets, same always-correct best model: the held-out router
        # accuracy equals that model's marginal on the held-out set
        spec = WorldSpec(
            n_datasets=2, samples_per_dataset=50, options_range=(3, 3),
            competence={"star": (1.0, 1.0), "dud": (0.3, 0.3), "mid": (0.5, 0.5)},
            signal_mode="prompt_keyword", question_forms_per_dataset=1, seed=12,
        )
        world = generate_world(spec)
        result = run_lodo(world, flags=SerializationFlags(True, False),
                          train_config=FAST_TRAIN, featurizer=FAST_FEATS)
        table = accuracy_table(world.records, sample_index(world))
        for ds, fold in result.folds.items():
            assert fold.status == "ok"
            assert fold.router_accuracy == pytest.approx(table.marginal("star", ds))

    def test_transferable_world_beats_average(self, paired_world):
        world = paired_world
        result = run_lodo(world, flags=SerializationFlags(True, False),
                          train_config=replace(FAST_TRAIN, seed=1), featurizer=FAST_FEATS)
        table = accuracy_table(
            filter_valid_prompts(world.records, world.prompt_configs),
            sample_index(world),
        )
        assert not result.failed_folds
        for ds, fold in result.folds.items():
            assert fold.router_accuracy >= table_average(table, ds)

    def test_fold_corpora_never_contain_heldout_dataset(self, tmp_path, paired_world):
        world = paired_world
        run_lodo(world, flags=SerializationFlags(True, False),
                 train_config=replace(FAST_TRAIN, seed=2), featurizer=FAST_FEATS, out_dir=tmp_path)
        for ds in world.datasets:
            fold_dir = tmp_path / f"fold_{ds}"
            for split in ("train", "validate", "test"):
                corpus = fold_dir / f"{split}.txt"
                index = corpus.with_name(corpus.name + ".index.jsonl").read_text().splitlines()
                assert len(index) == len(corpus.read_text().splitlines())
                for line in index:
                    assert json.loads(line)["dataset_id"] != ds
            metrics = json.loads((fold_dir / "metrics.json").read_text())
            assert metrics["status"] == "ok"
            assert (fold_dir / "router.bin").exists()

    def test_deterministic_artifacts(self, tmp_path, paired_world):
        world = paired_world
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            run_lodo(world, flags=SerializationFlags(True, False),
                     train_config=replace(FAST_TRAIN, seed=3), featurizer=FAST_FEATS, out_dir=out)
            outs.append(out)
        a, b = outs
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        for ds in world.datasets:
            assert (a / f"fold_{ds}" / "router.bin").read_bytes() == \
                (b / f"fold_{ds}" / "router.bin").read_bytes()

    def test_report_rebuildable_from_fold_artifacts(self, tmp_path, paired_world):
        from taskrouter.baselines import build_comparison_report

        world = paired_world
        run_lodo(world, flags=SerializationFlags(True, False),
                 train_config=replace(FAST_TRAIN, seed=11), featurizer=FAST_FEATS,
                 out_dir=tmp_path)
        accuracies = {}
        failed = []
        for ds in world.datasets:
            metrics = json.loads((tmp_path / f"fold_{ds}" / "metrics.json").read_text())
            if metrics["status"] == "ok":
                accuracies[ds] = metrics["router_accuracy"]
            else:
                failed.append(ds)
        rebuilt = build_comparison_report(
            QueryGrid.build(world), router_accuracies=accuracies, failed_folds=failed
        )
        rebuilt.write_csv(tmp_path / "rebuilt.csv")
        assert (tmp_path / "rebuilt.csv").read_bytes() == \
            (tmp_path / "report.csv").read_bytes()
        rebuilt.write_json(tmp_path / "rebuilt.json")
        assert (tmp_path / "rebuilt.json").read_bytes() == \
            (tmp_path / "report.json").read_bytes()

    def test_failed_fold_marked_and_run_continues(self, tmp_path):
        # one large and two tiny datasets: holding out the large one leaves
        # fewer than 10 examples, so that fold fails at the split stage
        spec = WorldSpec(
            n_datasets=3, samples_per_dataset=1, options_range=(2, 2),
            competence={"a": (1.0, 1.0, 1.0), "b": (0.2, 0.2, 0.2)},
            signal_mode="none", question_forms_per_dataset=1, seed=4,
        )
        world = generate_world(spec)
        big = generate_world(WorldSpec(
            n_datasets=3, samples_per_dataset=40, options_range=(2, 2),
            competence={"a": (1.0, 1.0, 1.0), "b": (0.2, 0.2, 0.2)},
            signal_mode="none", question_forms_per_dataset=1, seed=4,
        ))
        # splice: ds00 large, ds01/ds02 tiny
        world.datasets["ds00"] = big.datasets["ds00"]
        world.metadata.update(
            {s.sample_id: big.metadata[s.sample_id]
             for s in big.datasets["ds00"].samples}
        )
        world.records = [r for r in world.records if r.dataset_id != "ds00"] + [
            r for r in big.records if r.dataset_id == "ds00"
        ]
        result = run_lodo(world, flags=SerializationFlags(True, False),
                          train_config=replace(FAST_TRAIN, seed=5), featurizer=FAST_FEATS,
                          out_dir=tmp_path)
        assert result.folds["ds00"].status == "failed"
        assert "ds00" in result.report.failed_folds
        assert result.folds["ds01"].status == "ok"
        assert result.folds["ds02"].status == "ok"
        metrics = json.loads((tmp_path / "fold_ds00" / "metrics.json").read_text())
        assert metrics["status"] == "failed"
        # the report still carries the other strategies for every dataset
        assert result.report.cell("ds00", "oracle") is not None

    def test_each_corpus_line_is_hashed_once(self, monkeypatch, paired_world):
        # counted at the one hashing primitive: training, validation and
        # fold replay all read the run's one feature matrix
        hashed = _count_hashed_lines(monkeypatch)
        flags = SerializationFlags(True, False)
        result = run_lodo(paired_world, flags=flags,
                          train_config=FAST_TRAIN, featurizer=FAST_FEATS)
        assert len(result.folds) == 4 and not result.failed_folds
        corpus = build_router_dataset(QueryGrid.build(paired_world), flags)
        assert sorted(hashed) == sorted(corpus.inputs)

    def test_each_covered_row_is_serialized_once(self, monkeypatch):
        # folds replay the corpus lines instead of serializing their rows again
        from taskrouter import router, routerdata

        world = generate_world(keyword_world_spec(question_forms=2))
        serialized = []
        real = routerdata.router_inputs  # every row's input is made here

        def counting(grid, rows, flags):
            serialized.extend(np.asarray(rows).tolist())
            return real(grid, rows, flags)

        for module in (routerdata, router):
            monkeypatch.setattr(module, "router_inputs", counting)
        result = run_lodo(world, flags=SerializationFlags(True, False),
                          train_config=FAST_TRAIN, featurizer=FAST_FEATS)
        assert len(result.folds) == 4 and not result.failed_folds
        covered = int(QueryGrid.build(world).covered.any(axis=1).sum())
        assert covered == 800
        assert len(serialized) == len(set(serialized)) == covered

    def test_dataset_without_records_fails_before_any_fold(self, tmp_path, capsys,
                                                           paired_world):
        from taskrouter.cli import main
        from taskrouter.core import save_world

        # a dataset in the middle: its corpus range is empty, between two others
        empty = list(paired_world.datasets)[1]
        world = replace(paired_world,
                        records=[r for r in paired_world.records if r.dataset_id != empty])
        with pytest.raises(InvalidInputError, match=f"no recorded queries in datasets "
                                                    f"\\['{empty}'\\]"):
            run_lodo(world, flags=SerializationFlags(True, False), train_config=FAST_TRAIN,
                     featurizer=FAST_FEATS, out_dir=tmp_path / "lodo")
        save_world(world, tmp_path / "world")
        assert main(["--out", str(tmp_path / "cli"), "lodo", "run",
                     "--world", str(tmp_path / "world")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "InvalidInputError",
                                      "message": f"no recorded queries in datasets ['{empty}']"}
        assert not list(tmp_path.glob("*/fold_*"))

    def test_heldout_example_in_fold_corpus_fails_the_fold(self, monkeypatch, paired_world):
        from taskrouter import harness

        flags = SerializationFlags(True, False)
        corpus = build_router_dataset(QueryGrid.build(paired_world), flags)
        # one corpus position per dataset
        strays = list({ds: i for i, (ds, _, _) in
                       enumerate(corpus.grid.queries(corpus.rows))}.values())
        real = harness.split_80_10_10

        def leaky(positions, seed):
            train, validate, test = real(positions, seed)
            return train + strays, validate, test

        monkeypatch.setattr(harness, "split_80_10_10", leaky)
        result = run_lodo(paired_world, flags=flags,
                          train_config=FAST_TRAIN, featurizer=FAST_FEATS)
        assert result.failed_folds == list(paired_world.datasets)
        assert all("held-out" in fold.error for fold in result.folds.values())

    @pytest.mark.parametrize("damage, error", [
        ("coverage_gap", CoverageError), ("bad_record", IntegrityError),
    ])
    def test_damaged_records_fail_before_any_fold(self, damage, error, tmp_path,
                                                 paired_world):
        *records, last = paired_world.records
        if damage == "bad_record":
            records.append(replace(last, correct=not last.correct))
        world = replace(paired_world, records=records)
        with pytest.raises(error):
            run_lodo(world, flags=SerializationFlags(True, False),
                     train_config=FAST_TRAIN, featurizer=FAST_FEATS, out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    def test_one_grid_per_entry_point(self, monkeypatch, tmp_path, paired_world):
        from taskrouter.cli import main
        from taskrouter.core import save_world

        builds = []
        real = QueryGrid.build.__func__

        def counted(cls, *args, **kwargs):
            builds.append(1)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(QueryGrid, "build", classmethod(counted))
        assert len(paired_world.datasets) == 4
        run_lodo(paired_world, flags=SerializationFlags(True, False),
                 train_config=FAST_TRAIN, featurizer=FAST_FEATS)
        assert len(builds) == 1
        in_distribution(paired_world, SerializationFlags(True, False),
                        train_config=FAST_TRAIN, featurizer=FAST_FEATS)
        assert len(builds) == 2
        save_world(paired_world, tmp_path / "world")
        assert main(["--out", str(tmp_path / "report"), "baselines", "report",
                     "--world", str(tmp_path / "world")]) == 0
        assert len(builds) == 3

    def test_needs_two_datasets_and_models(self):
        world = make_micro_world()
        with pytest.raises(InvalidInputError):
            run_lodo(world)


def in_distribution(world, flags, **kwargs) -> dict[str, float]:
    """The in-distribution column of a one-combination ablation under ``flags``."""
    return run_ablation(world, flag_grid=(flags,), include_in_distribution=True,
                        **kwargs).in_distribution


def _count_hashed_lines(monkeypatch) -> list[str]:
    """Every line ``router._hash_chunk`` hashes from now on, in call order."""
    from taskrouter import router

    hashed = []
    real = router._hash_chunk

    def counting(config, texts):
        hashed.extend(texts)
        return real(config, texts)

    monkeypatch.setattr(router, "_hash_chunk", counting)
    return hashed


class TestAblation:
    def test_four_corpora_match_flag_rules(self, tmp_path, paired_world):
        result = run_ablation(
            paired_world, train_config=replace(FAST_TRAIN, seed=6), featurizer=FAST_FEATS,
            out_dir=tmp_path, flag_grid=ALL_FLAG_COMBOS,
        )
        assert set(result.columns) == {
            "md-on_ro-on", "md-on_ro-off", "md-off_ro-on", "md-off_ro-off"
        }
        for flags in ALL_FLAG_COMBOS:
            fold_dir = tmp_path / flags.tag / "fold_ds00"
            lines = (fold_dir / "train.txt").read_text().splitlines()
            assert lines
            for line in lines[:20]:
                assert line.startswith("[img]") == flags.include_metadata
                assert (";;;[" in line.split("[SEP]")[0]) == flags.include_response_options
        csv_text = (tmp_path / "ablation.csv").read_text()
        assert csv_text.startswith("dataset,md-on_ro-on,md-on_ro-off,"
                                   "md-off_ro-on,md-off_ro-off")

    def test_each_corpus_line_is_hashed_once_per_flag_combination(self, monkeypatch,
                                                                   paired_world):
        # once per combination's corpus; the in-distribution split trains on
        # the first combination's feature rows
        hashed = _count_hashed_lines(monkeypatch)
        grid = (SerializationFlags(True, False), SerializationFlags(False, True))
        run_ablation(paired_world, train_config=replace(FAST_TRAIN, seed=7), featurizer=FAST_FEATS,
                     flag_grid=grid, include_in_distribution=True)
        query_grid = QueryGrid.build(paired_world)
        lines = [line for flags in grid for line in build_router_dataset(query_grid, flags).inputs]
        assert sorted(hashed) == sorted(lines)

    def test_in_distribution_column(self, paired_world):
        result = run_ablation(
            paired_world, train_config=replace(FAST_TRAIN, seed=7), featurizer=FAST_FEATS,
            flag_grid=(SerializationFlags(True, False),),
            include_in_distribution=True,
        )
        assert result.in_distribution is not None
        assert set(result.in_distribution) <= set(paired_world.datasets)
        for acc in result.in_distribution.values():
            assert 0.0 <= acc <= 1.0

    def test_in_distribution_close_to_perfect_on_keyword_world(self, paired_world):
        ind = in_distribution(
            paired_world, SerializationFlags(False, False),
            train_config=replace(FAST_TRAIN, seed=8), featurizer=FAST_FEATS,
        )
        values = list(ind.values())
        assert sum(values) / len(values) >= 0.9

    def test_in_distribution_replays_the_test_split(self):
        # the test split's rows, found by provenance, routed from their corpus
        # lines; a world without signal leaves the router short of perfect
        from taskrouter import split_80_10_10
        from conftest import train_on_examples
        from oracles import reference_corpus

        world = generate_world(WorldSpec(
            n_datasets=2, samples_per_dataset=40, options_range=(3, 3),
            competence={"x": (0.7, 0.4), "y": (0.4, 0.7), "z": (0.5, 0.5)},
            signal_mode="none", seed=5,
        ))
        flags = SerializationFlags(True, True)
        got = in_distribution(world, flags, train_config=replace(FAST_TRAIN, seed=3),
                              featurizer=FAST_FEATS)
        grid = QueryGrid.build(world)
        examples = reference_corpus(grid, flags)
        train, validate, test = split_80_10_10(examples, seed=3)
        model = train_on_examples(train, validate, config=replace(FAST_TRAIN, seed=3),
                                  flags=flags, featurizer=FAST_FEATS, vocabulary=grid.models)
        row = {(s.sample_id, ds, v.variant_id): i for i, (ds, s, v)
               in enumerate(grid.queries(range(len(grid.variant_index))))}
        hits = {}
        for ex in test:
            choice = grid.models.index(model.route_text(ex.serialized_input))
            hit = bool(grid.correct[row[ex.provenance], choice])
            hits.setdefault(ex.provenance[1], []).append(hit)
        assert got == {ds: sum(v) / len(v) for ds, v in sorted(hits.items())}
        assert min(got.values()) < 1.0


class TestPlumbing:
    def test_run_manifest(self, tmp_path):
        f = tmp_path / "input.bin"
        f.write_bytes(b"payload")
        large = tmp_path / "large.bin"  # hashed in several blocks
        large.write_bytes(bytes(range(256)) * 10_000)
        path = write_run_manifest(
            tmp_path, config={"x": 1}, seeds={"master": 5}, input_files=[f, large]
        )
        manifest = json.loads(path.read_text())
        assert manifest["seeds"] == {"master": 5}
        assert len(manifest["config_sha256"]) == 64
        assert manifest["input_digests"]["input.bin"] == \
            "239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e5"
        assert manifest["input_digests"]["large.bin"] == \
            hashlib.sha256(large.read_bytes()).hexdigest()
