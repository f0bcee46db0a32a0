"""CLI: the full pipeline end to end, plus error-record behavior."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskrouter.cli import main
from taskrouter.core import DatasetManifest, World, save_world
from taskrouter.prompts import DatasetPromptConfig

from conftest import keyword_world_spec


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = keyword_world_spec(samples_per_dataset=40, paired=True, seed=23)
    spec_path = root / "spec.json"
    spec.save(spec_path)
    out = root / "world"
    code = main(["--out", str(out), "synth", "generate", "--spec", str(spec_path)])
    assert code == 0
    return out


FAST = ["--learning-rate", "0.05", "--max-iterations", "400",
        "--eval-every", "200", "--hash-dim", "4096"]


def test_synth_generate_files(world_dir):
    for name in ("datasets.jsonl", "prompt_configs.json", "metadata.jsonl",
                 "records.jsonl", "world.json", "world_spec.json"):
        assert (world_dir / name).exists()


def test_prompts_expand_variants(capsys):
    assert main(["prompts", "expand", "--dataset", "cifar100"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 9
    assert out[0].startswith("q0-o0\t")


def test_prompts_expand_concrete(world_dir, capsys):
    sample_id = "ds00-s00000"
    code = main(["prompts", "expand", "--dataset", str(world_dir / "prompt_configs_probe"),
                 "--world", str(world_dir), "--sample-id", sample_id])
    # unknown config spec: must fail with an error record
    assert code == 1

    config_path = world_dir / "ds00_config.json"
    configs = json.loads((world_dir / "prompt_configs.json").read_text())
    config_path.write_text(json.dumps(configs["ds00"]))
    capsys.readouterr()
    code = main(["prompts", "expand", "--dataset", str(config_path),
                 "--world", str(world_dir), "--sample-id", sample_id])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    # one line per (variant, option): 1 question form x 4 options
    assert len(lines) == 4
    assert all("\t" in line for line in lines)


def test_eval_run_gold_backend(world_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main(["--out", str(out), "eval", "run", "--world", str(world_dir),
                 "--backend", "gold", "--family", "embedding",
                 "--model-id", "probe"])
    assert code == 0
    summary = json.loads((out / "eval_summary.json").read_text())
    assert summary["skipped"] == 0
    assert summary["records"] > 0
    records = (out / "records.jsonl").read_text().strip().splitlines()
    assert len(records) == summary["records"]
    assert all(json.loads(r)["correct"] for r in records)


def _tasks_only(world):
    for name in ("records.jsonl", "metadata.jsonl", "world.json"):
        (world / name).unlink()


def _cut_mid_line(name):
    def cut(world):
        path = world / name
        data = path.read_bytes()
        path.write_bytes(data[:data.rindex(b"\n", 0, -1) + 20])
    return cut


@pytest.mark.parametrize("damage", [_tasks_only, _cut_mid_line("records.jsonl"),
                                    _cut_mid_line("metadata.jsonl")],
                         ids=["tasks_only", "cut_records", "cut_metadata"])
def test_eval_run_reads_only_the_task_files(damage, world_dir, tmp_path, capsys):
    # scoring reads datasets.jsonl and prompt_configs.json alone, so a world
    # not scored yet, or one whose other files are damaged, scores the same
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    damage(world)
    outputs = []
    for where in (world_dir, world):
        out = tmp_path / f"eval{len(outputs)}"
        assert main(["--out", str(out), "eval", "run", "--world", str(where),
                     "--backend", "seeded", "--family", "embedding"]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("records.jsonl", "eval_summary.json")])
    assert outputs[0][0] and outputs[1] == outputs[0]


def test_prompts_expand_reads_only_the_task_files(world_dir, tmp_path, capsys):
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    _tasks_only(world)
    config = tmp_path / "ds00_config.json"
    config.write_text(json.dumps(json.loads((world / "prompt_configs.json").read_text())["ds00"]))
    printed = []
    for where in (world_dir, world):
        assert main(["prompts", "expand", "--dataset", str(config), "--world", str(where),
                     "--sample-id", "ds00-s00000"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] and printed[1] == printed[0]


def test_python_dash_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys

    import taskrouter

    env = {**os.environ, "PYTHONPATH": str(Path(taskrouter.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-m", "taskrouter", "prompts", "expand",
                           "--dataset", "cifar100"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("q0-o0\t")


@pytest.mark.parametrize("datasets", [0, 1])
def test_eval_run_on_a_world_without_samples_writes_no_records(datasets, world_dir, tmp_path,
                                                                capsys):
    ids = ["ds00"][:datasets]
    configs = json.loads((world_dir / "prompt_configs.json").read_text())
    save_world(World(datasets={ds: DatasetManifest(ds, "recognition", (), ds) for ds in ids},
                     prompt_configs={ds: DatasetPromptConfig.from_dict(configs[ds]) for ds in ids},
                     metadata={}, records=[], model_pool=["m0"], seed=0), tmp_path / "world")
    if not datasets:  # the report already reads such a world
        assert main(["--out", str(tmp_path / "base"), "baselines", "report",
                     "--world", str(tmp_path / "world")]) == 0
    out = tmp_path / "eval"
    assert main(["--out", str(out), "eval", "run", "--world", str(tmp_path / "world"),
                 "--backend", "gold", "--family", "embedding"]) == 0
    summary = {"backend": "gold-embed", "family": "embedding", "records": 0, "skipped": 0}
    assert json.loads((out / "eval_summary.json").read_text()) == summary
    assert (out / "records.jsonl").read_bytes() == b""


def test_routerdata_build_counts(world_dir, tmp_path, capsys):
    out = tmp_path / "rd"
    code = main(["--out", str(out), "--seed", "5", "routerdata", "build",
                 "--world", str(world_dir), "--flags", "md=on,ro=off"])
    assert code == 0
    counts = json.loads((out / "counts.json").read_text())
    assert counts["flags"] == {"include_metadata": True,
                               "include_response_options": False}
    assert counts["counts"]["raw_records"] >= counts["counts"]["valid_records"]
    n = counts["counts"]["examples"]
    assert counts["splits"] == {"train": (8 * n) // 10, "validate": n // 10,
                                "test": n - (8 * n) // 10 - n // 10}
    for split in ("train", "validate", "test"):
        assert (out / f"{split}.txt").exists()
        assert (out / f"{split}.txt.index.jsonl").exists()


def test_router_train_and_route(world_dir, tmp_path, capsys, monkeypatch):
    out = tmp_path / "router"
    code = main(["--out", str(out), "--seed", "3", "router", "train",
                 "--world", str(world_dir), "--flags", "md=off,ro=off", *FAST])
    assert code == 0
    router_path = out / "router.bin"
    assert router_path.exists()
    capsys.readouterr()

    # route an explicit serialized input line
    line = "[prompt][sig-m0] What should we call this? This is "
    assert main(["router", "route", "--router", str(router_path),
                 "--input", line]) == 0
    choice = capsys.readouterr().out.strip()
    assert choice == "m0"

    # and via stdin
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(line + "\n"))
    assert main(["router", "route", "--router", str(router_path)]) == 0
    assert capsys.readouterr().out.strip() == "m0"


def test_router_routes_each_held_out_corpus_line_to_its_label(world_dir, tmp_path, capsys,
                                                              monkeypatch):
    # with one seed, routerdata build and router train split the corpus
    # alike, so the test split's lines are held out from training; the
    # keyword world's label is in each prompt, and routing a line's input
    # (the part before [SEP]) picks it
    import io

    args = ["--world", str(world_dir), "--flags", "md=on,ro=off"]
    assert main(["--out", str(tmp_path / "corpus"), "--seed", "3", "routerdata", "build",
                 *args]) == 0
    assert main(["--out", str(tmp_path / "router"), "--seed", "3", "router", "train", *args,
                 *FAST]) == 0
    router = str(tmp_path / "router" / "router.bin")
    inputs, labels = zip(*(line.split("[SEP]model::")
                           for line in (tmp_path / "corpus" / "test.txt").read_text().splitlines()))
    labels = [label.split("[response]")[0] for label in labels]
    capsys.readouterr()
    assert main(["router", "route", "--router", router, "--input", inputs[0]]) == 0
    assert capsys.readouterr().out == labels[0] + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(i + "\n" for i in inputs)))
    assert main(["router", "route", "--router", router]) == 0
    assert capsys.readouterr().out.splitlines() == labels and len(set(labels)) > 1


def test_log_level_shows_the_package_info_lines(world_dir, tmp_path, capsys):
    args = ["router", "train", "--world", str(world_dir), *FAST]
    assert main(["--out", str(tmp_path / "quiet"), *args]) == 0
    assert capsys.readouterr().err == ""
    assert main(["--log-level", "info", "--out", str(tmp_path / "loud"), *args]) == 0
    err = capsys.readouterr().err
    assert "INFO taskrouter.router: step 200: validation label accuracy" in err
    # the level and the handler last only for the call
    assert main(["--out", str(tmp_path / "quiet"), *args]) == 0
    assert capsys.readouterr().err == ""


def test_bad_log_level_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "loud", "synth", "generate", "--spec", "x.json"])
    assert exc.value.code == 2
    assert "invalid choice: 'loud'" in capsys.readouterr().err


@pytest.fixture(scope="module")
def plain_corpus(world_dir):
    """The router corpus of ``world_dir`` under ``--flags md=off,ro=off``."""
    from taskrouter import QueryGrid, SerializationFlags, build_router_dataset, load_world

    return build_router_dataset(QueryGrid.build(load_world(world_dir)),
                                SerializationFlags(False, False))


def test_router_train_hashes_each_training_line_once(world_dir, plain_corpus, tmp_path,
                                                       monkeypatch):
    # 40 steps of one line read 40 of the 128 training lines; only those and
    # the validation lines are hashed, each once: validation is scored from
    # the rows featurized before the first step, at every evaluation
    from oracles import reference_batches
    from taskrouter import TrainConfig, router, split_80_10_10

    hashed = []
    real = router._hash_chunk

    def counting(config, texts):
        hashed.extend(texts)
        return real(config, texts)

    monkeypatch.setattr(router, "_hash_chunk", counting)
    assert main(["--out", str(tmp_path), "--seed", "3", "router", "train",
                 "--world", str(world_dir), "--flags", "md=off,ro=off", *FAST,
                 "--max-iterations", "40", "--eval-every", "20"]) == 0
    train, validate, _ = split_80_10_10(range(len(plain_corpus)), seed=3)
    read = {int(i) for batch in reference_batches(len(train), TrainConfig(max_iterations=40,
                                                                          seed=3))
            for i in batch}
    assert len(read) == 40 < len(train)
    assert sorted(hashed) == sorted(plain_corpus.inputs[p]
                                    for p in [*(train[i] for i in read), *validate])


@given(batch_size=st.integers(1, 4), n_train=st.integers(1, 30), n_validate=st.integers(0, 8),
       max_iterations=st.integers(1, 70), seed=st.integers(0, 3))
# one line a step for fewer and for more steps than the split has lines; a
# batch of 3 that does not divide 20 lines, below and above the split; no
# validation lines
@example(batch_size=1, n_train=30, n_validate=5, max_iterations=12, seed=0)
@example(batch_size=1, n_train=10, n_validate=5, max_iterations=45, seed=1)
@example(batch_size=3, n_train=20, n_validate=4, max_iterations=4, seed=2)
@example(batch_size=3, n_train=20, n_validate=4, max_iterations=50, seed=2)
@example(batch_size=2, n_train=15, n_validate=0, max_iterations=30, seed=3)
@settings(max_examples=25, deadline=None)
def test_router_train_writes_the_reference_router(world_dir, plain_corpus, batch_size,
                                                  n_train, n_validate, max_iterations, seed):
    # the split is cut to the drawn sizes: split_80_10_10 never leaves the
    # validation lines empty, and a small split makes the budget outrun it
    from unittest import mock

    from oracles import reference_router_train
    from taskrouter import SerializationFlags, TrainConfig, cli
    from taskrouter.router import FeaturizerConfig

    real = cli.split_80_10_10
    cut = []

    def split(examples, seed):
        train, validate, test = real(examples, seed)
        cut[:] = train[:n_train], validate[:n_validate]
        return (*cut, test)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "split_80_10_10", split):
        assert main(["--out", tmp, "--seed", str(seed), "router", "train",
                     "--world", str(world_dir), "--flags", "md=off,ro=off",
                     "--learning-rate", "0.05", "--batch-size", str(batch_size),
                     "--max-iterations", str(max_iterations), "--eval-every", "7",
                     "--hash-dim", "4096"]) == 0
        config = TrainConfig(learning_rate=0.05, batch_size=batch_size,
                             max_iterations=max_iterations, eval_every=7, seed=seed)
        reference_router_train(plain_corpus, *cut, config, FeaturizerConfig(hash_dim=4096),
                               SerializationFlags(False, False)).save(Path(tmp) / "ref.bin")
        assert (Path(tmp) / "router.bin").read_bytes() == (Path(tmp) / "ref.bin").read_bytes()


def test_baselines_report(world_dir, tmp_path, capsys):
    out = tmp_path / "base"
    code = main(["--out", str(out), "baselines", "report",
                 "--world", str(world_dir)])
    assert code == 0
    text = (out / "report.csv").read_text()
    assert text.startswith("dataset,chance,average,voting,router,oracle,upper_bound")
    assert "cost_over_n_models,-,O(1),O(N),O(1),O(N),O(N)" in text
    assert capsys.readouterr().out == text


def test_baselines_report_router_column_replays_each_recorded_query(world_dir, tmp_path,
                                                                     capsys):
    # each dataset's router cell: per prompt variant, the rate of queries on
    # which the model the router picks for the query's line alone was
    # recorded correct, averaged over the variants, to the report's 0.1 point.
    # A router of random weights picks unlike a trained one, which is right
    # on every query of this world.
    import csv

    import numpy as np

    from oracles import exact_choice, reference_corpus
    from taskrouter.core import QueryGrid, load_world
    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    world = load_world(world_dir)
    rng, feats = np.random.default_rng(5), FeaturizerConfig(hash_dim=64)
    models = tuple(sorted(world.model_pool))
    router_path = tmp_path / "router.bin"
    RouterModel(models, feats, SerializationFlags(True, False), 0,
                rng.normal(size=(len(models), feats.hash_dim)),
                rng.normal(size=len(models))).save(router_path)
    out = tmp_path / "report"
    assert main(["--out", str(out), "baselines", "report", "--world", str(world_dir),
                 "--router", str(router_path)]) == 0
    router = RouterModel.load(router_path)
    correct = {(r.model_id, r.sample_id, r.prompt_variant_id): r.correct
               for r in world.records}
    hits: dict[str, dict[str, list[bool]]] = {}
    for example in reference_corpus(QueryGrid.build(world), router.flags):
        sample_id, ds_id, variant_id = example.provenance
        model = router.vocabulary[exact_choice(router, example.serialized_input)]
        hits.setdefault(ds_id, {}).setdefault(variant_id, []).append(
            correct[(model, sample_id, variant_id)])
    with open(out / "report.csv", newline="") as fh:
        cells = {row["dataset"]: row["router"] for row in csv.DictReader(fh)}
    assert sorted(hits) == sorted(world.datasets)
    wants = []
    for ds_id, by_variant in hits.items():
        wants.append(100 * sum(sum(h) / len(h) for h in by_variant.values()) / len(by_variant))
        assert abs(float(cells[ds_id]) - wants[-1]) <= 0.05 + 1e-9, ds_id
    assert 0 < min(wants) and max(wants) < 100


def test_lodo_run(world_dir, tmp_path, capsys):
    out = tmp_path / "lodo"
    code = main(["--out", str(out), "--seed", "2", "lodo", "run",
                 "--world", str(world_dir), "--flags", "md=on,ro=off", *FAST])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "run_manifest.json").exists()
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed_folds"] == []
    for ds in ("ds00", "ds01", "ds02", "ds03"):
        assert (out / f"fold_{ds}" / "router.bin").exists()


def test_ablation_run(world_dir, tmp_path, capsys):
    out = tmp_path / "abl"
    code = main(["--out", str(out), "--seed", "2", "ablation", "run",
                 "--world", str(world_dir), *FAST])
    assert code == 0
    assert (out / "ablation.csv").exists()
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["columns"]) == {
        "md-on_ro-on", "md-on_ro-off", "md-off_ro-on", "md-off_ro-off"
    }


def test_ablation_run_in_distribution_adds_one_column(world_dir, tmp_path, capsys):
    # the in-distribution split of the first combination's corpus adds a
    # last column and leaves the held-out columns as a run without it
    import csv

    tables = []
    for extra in ([], ["--in-distribution"]):
        out = tmp_path / f"abl{len(tables)}"
        assert main(["--out", str(out), "--seed", "2", "ablation", "run",
                     "--world", str(world_dir), *FAST, *extra]) == 0
        with open(out / "ablation.csv", newline="") as fh:
            tables.append(list(csv.reader(fh)))
    assert [row[:-1] for row in tables[1]] == tables[0]
    assert tables[1][0][-1] == "in_distribution"
    datasets = [row[0] for row in tables[1][1:-1]]
    assert datasets == ["ds00", "ds01", "ds02", "ds03"]
    cells = [float(row[-1]) for row in tables[1][1:]]
    assert min(cells) >= 90.0 and cells[-1] == pytest.approx(sum(cells[:-1]) / 4, abs=0.1)


def test_error_record_on_failure(tmp_path, capsys):
    code = main(["synth", "generate", "--spec", str(tmp_path / "missing.json")])
    assert code == 1
    err = capsys.readouterr().err.strip()
    record = json.loads(err)
    assert set(record) == {"error", "message"}


@pytest.mark.parametrize("damage", ["truncated", "trailing_bytes", "nan_weights"])
def test_router_route_rejects_damaged_router_file(damage, tmp_path, capsys):
    import numpy as np

    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    feats = FeaturizerConfig(hash_dim=64)
    weights = np.ones((2, feats.hash_dim))
    if damage == "nan_weights":
        weights[1, 7] = np.nan
    path = tmp_path / "router.bin"
    RouterModel(("a", "b"), feats, SerializationFlags(False, False), 0,
                weights, np.zeros(2)).save(path)
    data = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(data[:-13])
    elif damage == "trailing_bytes":
        path.write_bytes(data + b"junk")
    code = main(["router", "route", "--router", str(path), "--input", "[prompt]x"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "InvalidInputError"


def test_router_route_names_a_stdin_line_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    import io

    import numpy as np

    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    feats = FeaturizerConfig(hash_dim=64)
    path = tmp_path / "router.bin"
    RouterModel(("a", "b"), feats, SerializationFlags(False, False), 0,
                np.ones((2, feats.hash_dim)), np.zeros(2)).save(path)
    # a pipe as Python reads it in UTF-8 mode: a bad byte becomes a lone surrogate
    piped = b"[prompt]hello\n[prompt]bad \xff byte\n"
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(piped), encoding="utf-8", errors="surrogateescape"))
    code = main(["router", "route", "--router", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # the lines are routed as one batch, or not at all
    record = json.loads(captured.err.strip())
    assert record["error"] == "InvalidInputError"
    assert record["message"].startswith("stdin:2: ")
    # text that is not ASCII but is UTF-8 still routes
    monkeypatch.setattr("sys.stdin", io.StringIO("[prompt]h\u00e9llo\n\n[prompt]\u732b\n"))
    assert main(["router", "route", "--router", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_router_route_names_an_input_argument_that_is_not_utf8(tmp_path, capsys):
    import numpy as np

    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    feats = FeaturizerConfig(hash_dim=64)
    path = tmp_path / "router.bin"
    RouterModel(("a", "b"), feats, SerializationFlags(False, False), 0,
                np.ones((2, feats.hash_dim)), np.zeros(2)).save(path)
    # an argument as Python decodes argv in UTF-8: a bad byte becomes a lone surrogate
    bad = b"[prompt]bad \xff byte".decode("utf-8", "surrogateescape")
    assert main(["router", "route", "--router", str(path), "--input", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["error"] == "InvalidInputError"
    assert record["message"] == "--input:1: not valid UTF-8 at character 12"
    assert main(["router", "route", "--router", str(path), "--input", "[prompt]h\u00e9llo"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_truncated_records_file_names_file_and_line(world_dir, tmp_path, capsys):
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    records = world / "records.jsonl"
    data = records.read_bytes()
    records.write_bytes(data[:-20])  # cut the last line part way, as a torn write would
    last_line = data.count(b"\n")
    code = main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"
    assert f"records.jsonl:{last_line}" in record["message"]


def test_record_missing_a_field_names_file_line_and_field(world_dir, tmp_path, capsys):
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    records = world / "records.jsonl"
    rows = [json.loads(line) for line in records.read_text().splitlines()]
    del rows[2]["correct"]
    records.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code = main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "IntegrityError"
    assert "records.jsonl:3: missing field 'correct'" in record["message"]


def test_cut_world_json_names_the_file(world_dir, tmp_path, capsys):
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    info = world / "world.json"
    info.write_bytes(info.read_bytes()[:30])
    code = main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"
    assert "world.json" in record["message"]


@pytest.mark.parametrize("name, id_field", [("datasets.jsonl", "dataset_id"),
                                           ("metadata.jsonl", "sample_id")])
def test_repeated_id_in_a_world_file_names_file_and_line(name, id_field, world_dir, tmp_path,
                                                         capsys):
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    path = world / name
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines) + lines[0])  # a later copy must not win silently
    code = main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"] == "IntegrityError"
    assert f"{name}:{len(lines) + 1}: repeats {id_field}" in record["message"]


def test_sample_id_shared_by_two_datasets_names_both(world_dir, tmp_path, capsys):
    # world metadata is keyed by sample id, so the two samples would share a row
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    path = world / "datasets.jsonl"
    first, second, *rest = [json.loads(line) for line in path.read_text().splitlines()]
    taken = first["samples"][0]["sample_id"]
    second["samples"][3]["sample_id"] = taken
    path.write_text("".join(json.dumps(m) + "\n" for m in [first, second, *rest]))
    code = main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"] == "IntegrityError"
    assert record["message"] == (
        f"{path}:2: sample_id {taken!r} of dataset {second['dataset_id']!r} "
        f"repeats one of dataset {first['dataset_id']!r}")


def test_router_that_needs_absent_metadata_names_the_sample(world_dir, tmp_path, capsys):
    import shutil

    import numpy as np

    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    path = world / "metadata.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    dropped = json.loads(lines[3])["sample_id"]
    path.write_text("".join(lines[:3] + lines[4:]))
    models = json.loads((world / "world.json").read_text())["model_pool"]
    feats = FeaturizerConfig(hash_dim=64)
    router = tmp_path / "router.bin"
    RouterModel(tuple(sorted(models)), feats, SerializationFlags(True, True), 0,
                np.zeros((len(models), feats.hash_dim)), np.zeros(len(models))).save(router)
    code = main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world), "--router", str(router)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    record = json.loads(err.strip())
    assert record["error"] == "InvalidInputError"
    assert f"sample {dropped} has none" in record["message"]


@pytest.mark.parametrize("damage, error", [("coverage_gap", "CoverageError"),
                                           ("dataset_without_records", "InvalidInputError")])
def test_damaged_world_fails_the_report_alike_with_a_router(damage, error, world_dir, tmp_path,
                                                            capsys):
    # the router column is replayed only after the coverage check, and the
    # report names a dataset that has no records
    import shutil

    import numpy as np

    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    records = world / "records.jsonl"
    rows = [json.loads(line) for line in records.read_text().splitlines()]
    if damage == "coverage_gap":
        del rows[-1]
    else:
        rows = [row for row in rows if row["dataset_id"] != "ds01"]
    records.write_text("".join(json.dumps(row) + "\n" for row in rows))
    models = json.loads((world / "world.json").read_text())["model_pool"]
    feats = FeaturizerConfig(hash_dim=64)
    router = tmp_path / "router.bin"
    RouterModel(tuple(sorted(models)), feats, SerializationFlags(True, True), 0,
                np.zeros((len(models), feats.hash_dim)), np.zeros(len(models))).save(router)
    errors = []
    for extra in ([], ["--router", str(router)]):
        assert main(["--out", str(tmp_path / "report"), "baselines", "report",
                     "--world", str(world), *extra]) == 1
        errors.append(json.loads(capsys.readouterr().err.strip()))
    assert errors[0] == errors[1]
    assert errors[0]["error"] == error


@pytest.mark.parametrize("case, error", [
    ("ngram_orders", "InvalidInputError"),
    ("config_list", "InvalidInputError"),
    ("config_batch_size", "InvalidInputError"),
])
def test_bad_option_values_end_in_error_record(case, error, world_dir, tmp_path, capsys):
    argv = ["--out", str(tmp_path / "lodo"), "lodo", "run", "--world", str(world_dir), *FAST]
    if case == "ngram_orders":
        argv += ["--ngram-orders", "2,x"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            [1, 2] if case == "config_list" else {"train": {"batch_size": "x"}}))
        argv = ["--config", str(config), *argv]
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == error


@pytest.mark.parametrize("flag, value, message", [
    ("--ngram-orders", "2,x", "'2,x': invalid literal for int() with base 10: 'x'"),
    ("--ngram-orders", "3,,4", "'3,,4': invalid literal for int() with base 10: ''"),
    ("--ngram-orders", "0", "'0': bad n-gram orders (0,)"),
    ("--ngram-orders", "2,-1", "'2,-1': bad n-gram orders (2, -1)"),
    ("--hash-dim", "1", "1: hash_dim must be between 2 and 2^48"),
    ("--learning-rate", "0", "0.0: all training parameters must be positive and finite"),
    ("--batch-size", "0", "0: all training parameters must be positive and finite"),
    ("--eval-every", "-1", "-1: all training parameters must be positive and finite"),
])
def test_bad_training_flags_name_the_flag_and_value(flag, value, message, world_dir,
                                                    tmp_path, capsys):
    assert main(["--out", str(tmp_path / "lodo"), "lodo", "run", "--world", str(world_dir),
                 *FAST, flag, value]) == 1
    assert json.loads(capsys.readouterr().err.strip()) == {
        "error": "InvalidInputError", "message": f"{flag} {message}"}
    assert not (tmp_path / "lodo").exists()


@pytest.mark.parametrize("case", ["spec_count", "metadata_dims", "config_hash_dim",
                                  "config_seed"])
def test_overflowing_json_number_ends_in_error_record(case, world_dir, tmp_path, capsys):
    # JSON 1e400 parses to infinity, a float: a field that must be an int
    # refuses it
    import shutil

    huge = tmp_path / "huge.json"
    if case == "spec_count":
        huge.write_text(json.dumps(keyword_world_spec().to_dict()).replace(
            '"n_datasets": 4', '"n_datasets": 1e400'))
        argv = ["--out", str(tmp_path / "world"), "synth", "generate", "--spec", str(huge)]
    elif case == "metadata_dims":
        world = tmp_path / "world"
        shutil.copytree(world_dir, world)
        path = world / "metadata.jsonl"
        first, *rest = path.read_text().splitlines(keepends=True)
        row = json.loads(first)
        row["dims"] = "DIMS"
        path.write_text(json.dumps(row).replace('"DIMS"', "[1e400, 8, 3]") + "\n"
                        + "".join(rest))
        argv = ["--out", str(tmp_path / "rd"), "routerdata", "build", "--world", str(world)]
    else:
        huge.write_text('{"featurizer": {"hash_dim": 1e400}}' if case == "config_hash_dim"
                        else '{"seed": 1e400}')
        # FAST without its --hash-dim, which would override the config's
        argv = ["--config", str(huge), "--out", str(tmp_path / "out"), "router", "train",
                "--world", str(world_dir), *FAST[:6]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    assert json.loads(line)["error"] == "InvalidInputError"


@pytest.mark.parametrize("config, field", [
    ({"featurizer": {"lowercase": "false"}}, "lowercase"),
    ({"featurizer": {"hash_dim": 4096.7}}, "hash_dim"),
    ({"featurizer": {"ngram_orders": [2, "3"]}}, "ngram_orders"),
    ({"train": {"learning_rate": True}}, "learning_rate"),
    ({"seed": "3"}, "seed"),
], ids=["lowercase", "hash_dim", "ngram_orders", "learning_rate", "seed"])
def test_mistyped_config_field_ends_in_error_record(config, field, world_dir, tmp_path,
                                                    capsys):
    # a value of the wrong JSON type is refused, not coerced into another router
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "router"
    # FAST without its --learning-rate and --hash-dim, which would override the config's
    assert main(["--config", str(path), "--out", str(out), "router", "train",
                 "--world", str(world_dir), *FAST[2:6]]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    record = json.loads(line)
    assert record["error"] == "InvalidInputError"
    assert f"field {field!r}" in record["message"]
    assert not (out / "router.bin").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_learning_rate_ends_in_error_record(value, world_dir, tmp_path, capsys):
    out = tmp_path / "router"
    argv = ["--out", str(out), "router", "train", "--world", str(world_dir), *FAST]
    argv[argv.index("--learning-rate") + 1] = value
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip())["error"] == "InvalidInputError"
    assert not (out / "router.bin").exists()


def test_error_record_on_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    spec = keyword_world_spec().to_dict()
    spec["options_range"] = [9, 2]
    bad.write_text(json.dumps(spec))
    code = main(["synth", "generate", "--spec", str(bad)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "InvalidInputError"


def test_config_file_defaults(world_dir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 4,
        "train": {"learning_rate": 0.05, "max_iterations": 200, "eval_every": 100},
        "featurizer": {"ngram_orders": [2, 3], "hash_dim": 2048, "lowercase": True},
    }))
    out = tmp_path / "trained"
    code = main(["--config", str(config), "--out", str(out), "router", "train",
                 "--world", str(world_dir), "--flags", "md=off,ro=off"])
    assert code == 0
    from taskrouter.router import RouterModel

    model = RouterModel.load(out / "router.bin")
    assert model.featurizer.hash_dim == 2048
    assert model.seed == 4


def test_failed_allocation_ends_in_error_record(world_dir, tmp_path, capsys, monkeypatch):
    # a real oversized allocation fails fast or not depending on the host's
    # overcommit policy, so the training call raises it instead
    from taskrouter import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "train_router", out_of_memory)
    code = main(["--out", str(tmp_path / "trained"), "router", "train",
                 "--world", str(world_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert json.loads(err.strip()) == {"error": "MemoryError",
                                       "message": "Unable to allocate 8.00 TiB for an array"}


def _rewrite_jsonl(path, lineno, edit):
    """Apply ``edit`` to the JSON object on line ``lineno`` (from 1) of ``path``."""
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[lineno - 1])
    edit(row)
    lines[lineno - 1] = json.dumps(row) + "\n"
    path.write_text("".join(lines))


def _rewrite_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def _router_file(path, **header_fields):
    """A two-model router file whose header has ``header_fields`` replaced."""
    import struct

    import numpy as np

    from taskrouter.router import FeaturizerConfig, RouterModel
    from taskrouter.routerdata import SerializationFlags

    RouterModel(vocabulary=("a", "b"), featurizer=FeaturizerConfig(hash_dim=8),
                flags=SerializationFlags(False, False), seed=0, weights=np.zeros((2, 8)),
                bias=np.zeros(2)).save(path)
    data = path.read_bytes()
    start = len(RouterModel.MAGIC) + 4
    (length,) = struct.unpack_from("<I", data, len(RouterModel.MAGIC))
    header = {**json.loads(data[start:start + length]), **header_fields}
    blob = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(RouterModel.MAGIC + struct.pack("<I", len(blob)) + blob
                     + data[start + length:])


def _damage_datasets(world):
    _rewrite_jsonl(world / "datasets.jsonl", 2,
                   lambda row: row["samples"][3].update(response_options="abc"))


def _damage_metadata(world):
    _rewrite_jsonl(world / "metadata.jsonl", 5, lambda row: row.update(dims=[8, 8, True]))


def _damage_datasets_id(world):
    _rewrite_jsonl(world / "datasets.jsonl", 2, lambda row: row.update(dataset_id=["ds01"]))


def _damage_metadata_id(world):
    _rewrite_jsonl(world / "metadata.jsonl", 5, lambda row: row.update(sample_id=5))


def _damage_records(world):
    _rewrite_jsonl(world / "records.jsonl", 3, lambda row: row.update(correct=1))


def _damage_prompt_configs(world):
    _rewrite_json(world / "prompt_configs.json",
                  lambda configs: configs["ds01"].update(question_forms="ab"))


def _damage_world_pool(world):
    _rewrite_json(world / "world.json", lambda info: info.update(model_pool="m0"))


def _damage_world_seed(world):
    _rewrite_json(world / "world.json", lambda info: info.update(seed=True))


# (case, damage to a copy of the world, where the message must point, the field)
WORLD_FAULTS = [
    ("datasets", _damage_datasets, "datasets.jsonl:2: ", "response_options"),
    ("datasets_id", _damage_datasets_id, "datasets.jsonl:2: ", "dataset_id"),
    ("metadata", _damage_metadata, "metadata.jsonl:5: ", "dims"),
    ("metadata_id", _damage_metadata_id, "metadata.jsonl:5: ", "sample_id"),
    ("records", _damage_records, "records.jsonl:3: ", "correct"),
    ("prompt_configs", _damage_prompt_configs, "prompt_configs.json: ds01: ", "question_forms"),
    ("world_pool", _damage_world_pool, "world.json: ", "model_pool"),
    ("world_seed", _damage_world_seed, "world.json: ", "seed"),
]
# (case, --config file, where the message must point, the field)
CONFIG_FAULTS = [
    ("seed", {"seed": "3"}, "config.json: ", "seed"),
    ("out", {"out": 5}, "config.json: ", "out"),
    ("train_pairs", {"train": [["batch_size", 2]]}, "config.json: section 'train': ", "train"),
    ("train_field", {"train": {"batch_size": True}}, "config.json: section 'train': ",
     "batch_size"),
    ("featurizer_field", {"featurizer": {"hash_dim": "4096"}},
     "config.json: section 'featurizer': ", "hash_dim"),
]
# (case, spec field replaced, the value)
SPEC_FAULTS = [("spec_count", "n_datasets", 2.9), ("spec_seed", "seed", True),
               ("spec_range", "options_range", "24")]
HEADER_FAULTS = [("header_vocabulary", "vocabulary", "ab"), ("header_seed", "seed", "3"),
                 ("header_shape", "weights_shape", [2, 8.0])]


def _error_record(capsys) -> dict:
    """The one JSON error record on stderr, which holds no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.strip().splitlines()
    return json.loads(line)


@pytest.mark.parametrize("damage, where, field", [c[1:] for c in WORLD_FAULTS],
                         ids=[c[0] for c in WORLD_FAULTS])
def test_mistyped_world_field_names_file_line_and_field(damage, where, field, world_dir,
                                                        tmp_path, capsys):
    # a field of the wrong JSON type is refused, not coerced into another world
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    damage(world)
    assert main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)]) == 1
    record = _error_record(capsys)
    assert record["error"] == "InvalidInputError"
    assert f"{where}field {field!r} must be" in record["message"]


@pytest.mark.parametrize("config, where, field", [c[1:] for c in CONFIG_FAULTS],
                         ids=[c[0] for c in CONFIG_FAULTS])
def test_mistyped_config_section_names_file_section_and_field(config, where, field, world_dir,
                                                              tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a refused "out" must not leave a directory behind elsewhere
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["--config", "config.json", "router", "train", "--world", str(world_dir),
                 "--flags", "md=off,ro=off"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "InvalidInputError"
    assert record["message"].startswith(f"{where}field {field!r} must be")
    assert not (tmp_path / "router_out" / "router.bin").exists()


# (case, --config file, the message's start): keys that nothing reads
UNREAD_CONFIG_KEYS = [
    ("sed", {"sed": 3}, "config.json: unknown top-level key 'sed'"),
    ("train_max_iteration", {"train": {"max_iteration": 5}},
     "config.json: section 'train': unknown key 'max_iteration'"),
    ("featurizr", {"featurizr": {"hash_dim": 8}},
     "config.json: unknown top-level key 'featurizr'"),
    ("featurizer_hashdim", {"featurizer": {"hashdim": 8}},
     "config.json: section 'featurizer': unknown key 'hashdim'"),
    ("train_seed", {"train": {"seed": 9}},
     "config.json: section 'train': field 'seed' is refused: the run's seed is the top-level "
     "'seed' or --seed"),
]


@pytest.mark.parametrize("config, message", [c[1:] for c in UNREAD_CONFIG_KEYS],
                         ids=[c[0] for c in UNREAD_CONFIG_KEYS])
def test_config_key_that_nothing_reads_is_refused(config, message, world_dir, tmp_path, capsys,
                                                  monkeypatch):
    # a mistyped key would otherwise leave its setting at the default unnoticed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["--config", "config.json", "router", "train", "--world", str(world_dir),
                 "--flags", "md=off,ro=off", *FAST[2:6]]) == 1
    record = _error_record(capsys)
    assert record["error"] == "InvalidInputError"
    assert record["message"].startswith(message)
    assert not (tmp_path / "router_out").exists()


def _command_args(name, world_dir, tmp_path):
    """The arguments of a run of command ``name`` on the CLI test world."""
    if name == "synth generate":
        keyword_world_spec().save(tmp_path / "spec.json")
        return ["synth", "generate", "--spec", str(tmp_path / "spec.json")]
    if name == "router route":
        _router_file(tmp_path / "router.bin")
        return ["router", "route", "--router", str(tmp_path / "router.bin"), "--input", "x"]
    if name == "prompts expand":
        return ["prompts", "expand", "--dataset", "cifar100"]
    return [*name.split(), "--world", str(world_dir)]


@pytest.mark.parametrize("command", ["eval run", "routerdata build", "baselines report",
                                     "synth generate", "router route", "prompts expand"])
def test_every_command_checks_the_whole_config_before_any_work(command, world_dir, tmp_path,
                                                               capsys):
    # a section the command does not use is checked all the same
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"learning_rate": "x"}}))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out),
                 *_command_args(command, world_dir, tmp_path)]) == 1
    record = _error_record(capsys)
    assert record["error"] == "InvalidInputError"
    assert record["message"].startswith(
        f"{config}: section 'train': field 'learning_rate' must be")
    assert not out.exists()


def test_synth_generate_takes_the_config_seed_as_it_takes_the_flag(tmp_path):
    spec = keyword_world_spec(samples_per_dataset=20)
    assert spec.seed != 5
    spec.save(tmp_path / "spec.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5}))
    generate = ["synth", "generate", "--spec", str(tmp_path / "spec.json")]
    assert main(["--config", str(config), "--out", str(tmp_path / "by_config"), *generate]) == 0
    assert main(["--seed", "5", "--out", str(tmp_path / "by_flag"), *generate]) == 0
    assert main(["--out", str(tmp_path / "by_spec"), *generate]) == 0
    names = sorted(p.name for p in (tmp_path / "by_flag").iterdir())
    assert sorted(p.name for p in (tmp_path / "by_config").iterdir()) == names

    def read(where):
        return [(tmp_path / where / name).read_bytes() for name in names]

    assert read("by_config") == read("by_flag")
    assert read("by_spec") != read("by_flag")


@pytest.mark.parametrize("field, value", [c[1:] for c in SPEC_FAULTS],
                         ids=[c[0] for c in SPEC_FAULTS])
def test_mistyped_spec_field_names_file_and_field(field, value, tmp_path, capsys):
    spec = keyword_world_spec().to_dict()
    spec[field] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["--out", str(tmp_path / "world"), "synth", "generate",
                 "--spec", str(path)]) == 1
    record = _error_record(capsys)
    assert record["error"] == "InvalidInputError"
    assert record["message"] == f"{path}: field {field!r} must be " + {
        "n_datasets": "an int", "seed": "an int", "options_range": "a list of ints"}[field]
    assert not (tmp_path / "world").exists()


@pytest.mark.parametrize("field, value", [c[1:] for c in HEADER_FAULTS],
                         ids=[c[0] for c in HEADER_FAULTS])
def test_mistyped_router_header_field_names_file_and_field(field, value, tmp_path, capsys):
    path = tmp_path / "router.bin"
    _router_file(path, **{field: value})
    assert main(["router", "route", "--router", str(path), "--input", "[prompt]x"]) == 1
    record = _error_record(capsys)
    assert record["error"] == "InvalidInputError"
    assert record["message"].startswith(f"{path}: bad router header: field {field!r} must be")


def test_prompt_config_under_another_dataset_id_names_file_and_key(world_dir, tmp_path,
                                                                    capsys):
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    _rewrite_json(world / "prompt_configs.json",
                  lambda configs: configs["ds00"].update(dataset_id="ds01"))
    assert main(["--out", str(tmp_path / "report"), "baselines", "report",
                 "--world", str(world)]) == 1
    record = _error_record(capsys)
    assert record["error"] == "IntegrityError"
    assert "prompt_configs.json: ds00: " in record["message"]
    assert "'ds01'" in record["message"]


def _drop_last_record(world):
    records = world / "records.jsonl"
    records.write_text("".join(records.read_text().splitlines(keepends=True)[:-1]))


def _drop_prompt_config(world):
    _rewrite_json(world / "prompt_configs.json", lambda configs: configs.pop("ds01"))


def _unrecorded_dataset(world):
    records = world / "records.jsonl"
    records.write_text("".join(line for line in records.read_text().splitlines(keepends=True)
                               if json.loads(line)["dataset_id"] != "ds01"))


def _empty_dataset(world):
    _rewrite_jsonl(world / "datasets.jsonl", 2, lambda row: row.update(samples=[], size=0))
    _unrecorded_dataset(world)


def _out_names_a_file(world):
    import shutil

    shutil.rmtree(world)  # a command that read the world would fail on that instead
    (world.parent / "out").mkdir()
    (world.parent / "out" / "run").write_text("a file\n")


def _out_lies_under_a_file(world):
    import shutil

    shutil.rmtree(world)
    (world.parent / "out").write_text("a file\n")


# (case, command, damage to a copy of the world, error, part of the message)
FAILING_COMMANDS = [
    ("lodo_flags", ["lodo", "run", "--flags", "md=maybe"], None, "InvalidInputError",
     "bad flag 'md=maybe'"),
    ("routerdata_flags", ["routerdata", "build", "--flags", "ro=maybe"], None,
     "InvalidInputError", "bad flag 'ro=maybe'"),
    ("router_train_flags", ["router", "train", "--flags", "md"], None, "InvalidInputError",
     "bad flag 'md'"),
    ("report_unreadable_router", ["baselines", "report", "--router", "junk.bin"], None,
     "InvalidInputError", "junk.bin"),
    ("eval_constant_generative", ["eval", "run", "--backend", "constant",
                                  "--family", "generative"], None, "InvalidInputError",
     "constant mock is embedding-only"),
    ("lodo_coverage_gap", ["lodo", "run", *FAST], _drop_last_record, "CoverageError", ""),
    ("ablation_coverage_gap", ["ablation", "run", *FAST], _drop_last_record, "CoverageError",
     ""),
    ("missing_prompt_config", ["eval", "run"], _drop_prompt_config, "IntegrityError",
     "prompt_configs.json: no prompt config for dataset 'ds01'"),
    ("empty_dataset", ["baselines", "report"], _empty_dataset, "InvalidInputError",
     "dataset 'ds01' holds no samples"),
    ("out_names_a_file", ["lodo", "run"], _out_names_a_file, "InvalidInputError",
     "out/run' is an existing file"),
    ("out_lies_under_a_file", ["lodo", "run"], _out_lies_under_a_file, "InvalidInputError",
     "out' is an existing file"),
]


@pytest.mark.parametrize("command, damage, error, message", [c[1:] for c in FAILING_COMMANDS],
                         ids=[c[0] for c in FAILING_COMMANDS])
def test_failing_command_leaves_no_output_directory(command, damage, error, message, world_dir,
                                                    tmp_path, capsys, monkeypatch):
    # an output directory appears with the first file written into it, so a
    # command that fails on a later input leaves none behind
    import shutil

    monkeypatch.chdir(tmp_path)
    (tmp_path / "junk.bin").write_bytes(b"junk")
    world, out = tmp_path / "world", tmp_path / "out" / "run"
    shutil.copytree(world_dir, world)
    if damage is not None:
        damage(world)
    verb, rest = command[:2], command[2:]
    assert main(["--out", str(out), *verb, "--world", str(world), *rest]) == 1
    record = _error_record(capsys)
    assert record["error"] == error
    assert message in record["message"]
    assert not out.is_dir()
    assert (tmp_path / "out").exists() == (damage in (_out_names_a_file, _out_lies_under_a_file))


def test_a_dataset_without_records_is_refused_alike(world_dir, tmp_path, capsys):
    # lodo run and baselines report, with a router or without, refuse a
    # dataset that has samples but no records with one error record, and
    # before any output
    import shutil

    world = tmp_path / "world"
    shutil.copytree(world_dir, world)
    _unrecorded_dataset(world)
    _router_file(tmp_path / "router.bin")
    commands = {"lodo": ["lodo", "run", "--world", str(world), *FAST],
                "report": ["baselines", "report", "--world", str(world)],
                "replay": ["baselines", "report", "--world", str(world),
                           "--router", str(tmp_path / "router.bin")]}
    for name, command in commands.items():
        assert main(["--out", str(tmp_path / name), *command]) == 1
        assert _error_record(capsys) == {"error": "InvalidInputError",
                                         "message": "no recorded queries in datasets ['ds01']"}
        assert not (tmp_path / name).exists()
