"""CLI: the full pipeline end to end, plus error-record behavior."""

import json

import pytest

from taskrouter.cli import main

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


def test_router_train_hashes_each_training_line_once(world_dir, tmp_path, monkeypatch):
    from taskrouter import (QueryGrid, SerializationFlags, build_router_dataset, load_world,
                            router, split_80_10_10)

    hashed = []
    real = router.featurize_batch

    def counting(texts, config):
        hashed.extend(texts)
        return real(texts, config)

    monkeypatch.setattr(router, "featurize_batch", counting)
    assert main(["--out", str(tmp_path), "--seed", "3", "router", "train",
                 "--world", str(world_dir), "--flags", "md=off,ro=off", *FAST]) == 0
    corpus = build_router_dataset(QueryGrid.build(load_world(world_dir)),
                                  SerializationFlags(False, False))
    train, _, _ = split_80_10_10(corpus, seed=3)
    assert sorted(hashed) == sorted(ex.serialized_input for ex in train)


def test_baselines_report(world_dir, tmp_path, capsys):
    out = tmp_path / "base"
    code = main(["--out", str(out), "baselines", "report",
                 "--world", str(world_dir)])
    assert code == 0
    text = (out / "report.csv").read_text()
    assert text.startswith("dataset,chance,average,voting,router,oracle,upper_bound")
    assert "cost_over_n_models,-,O(1),O(N),O(1),O(N),O(N)" in text
    assert capsys.readouterr().out == text


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


@pytest.mark.parametrize("case, error", [
    ("ngram_orders", "ValueError"),
    ("config_list", "InvalidInputError"),
    ("config_batch_size", "TypeError"),
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
