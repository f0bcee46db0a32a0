"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime. Budgets are asserted, not aspirational.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time

import numpy as np

from taskrouter import (
    RouterExample,
    SerializationFlags,
    builtin_prompt_configs,
    build_router_dataset,
    evaluate_router,
    parse_example,
    predict_contrastive,
    predict_generative,
    prompt_variants,
    select_best_model,
    serialize_example,
    split_80_10_10,
    train_router,
)
from taskrouter.baselines import (
    average_baseline,
    chance_uniform,
    oracle_accuracy,
    upper_bound_accuracy,
    voting_accuracy,
)
from taskrouter.cli import main as cli_main
from taskrouter.core import QueryGrid, Sample
from taskrouter.harness import run_ablation, run_lodo
from taskrouter.router import (
    FeaturizerConfig,
    RouterModel,
    TrainConfig,
    featurize,
    featurize_batch,
)
from taskrouter.routerdata import ALL_FLAG_COMBOS
from taskrouter.synth import WorldSpec, generate_world

from conftest import keyword_world_spec, train_on_examples
from oracles import (accuracy_table, batch_loss, reference_train, sample_index,
                     softmax_loss_and_grads, table_average, table_oracle)
from test_routerdata import (
    REFERENCE_FIELDS,
    REFERENCE_LINE,
    brute_force_label,
    random_parsed_fields,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s, budget {self.seconds:.0f}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.seconds}s"
            )
        else:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_1_format_fidelity():
    with Budget("criterion 1: format fidelity", 5.0):
        # the golden record, byte for byte, from its field values
        line = serialize_example(**REFERENCE_FIELDS, flags=SerializationFlags(True, True))
        assert line == REFERENCE_LINE

        # parse . serialize is the identity on 1,000 random records under
        # every flag combination
        rng = random.Random(20240818)
        for flags in ALL_FLAG_COMBOS:
            for _ in range(1000):
                fields = random_parsed_fields(rng, flags)
                serialized = serialize_example(**fields, flags=flags)
                parsed = parse_example(serialized)
                assert parsed.reserialize() == serialized
                assert parsed.metadata == fields["metadata"]
                assert parsed.prompt_text == fields["prompt_text"]
                assert parsed.options == (
                    tuple(fields["options"]) if fields["options"] is not None else None
                )
                assert parsed.model_id == fields["model_id"]
                assert parsed.correct == fields["correct"]


def test_criterion_2_grammar_fidelity():
    with Budget("criterion 2: grammar fidelity", 1.0):
        configs = builtin_prompt_configs()
        expected = {
            "cifar100": 9, "oodcv": 9, "weather": 6, "skin_cancer": 6,
            "hateful_memes": 8, "scienceqa": 5, "vg_attribution": 3,
            "vg_relation": 3, "abstract_scenes_vqa": 3,
            "binary_abstract_scenes": 3,
        }
        for ds, count in expected.items():
            assert len(prompt_variants(configs[ds])) == count, ds
        assert configs["cifar100"].renames == {
            "aquarium_fish": "aquarium fish",
            "pickup_truck": "pickup truck",
            "lawn_mower": "lawn mower",
            "sweet_pepper": "pepper",
            "maple_tree": "maple",
            "oak_tree": "oak",
            "palm_tree": "palm",
            "pine_tree": "pine",
            "willow_tree": "willow",
        }
        assert configs["oodcv"].renames == {
            "aeroplane": "plane", "diningtable": "table",
        }

        # exemplar strings, produced verbatim
        from taskrouter.prompts import variant_by_id, closed_prompt_set

        cfg = configs["cifar100"]
        sample = Sample("s", "cifar100", "img", {}, ("beaver", "aquarium_fish"), 0)
        full = closed_prompt_set(sample, cfg, variant_by_id(cfg, "q2-o2"))
        assert full[1] == "What is this? This is an aquarium fish"
        short = closed_prompt_set(sample, cfg, variant_by_id(cfg, "q1-o2"))
        assert short[0] == "This is a beaver"


def test_criterion_3_labeling_oracle():
    with Budget("criterion 3: labeling oracle", 1.0):
        rng = random.Random(777)
        models = ["m0", "m1", "m2", "m3"]
        checked = 0
        for pattern in range(16):
            correct = {m: bool((pattern >> i) & 1) for i, m in enumerate(models)}
            for _ in range(50):
                avgs = {m: rng.random() for m in models}
                assert select_best_model(correct, avgs) == \
                    brute_force_label(correct, avgs)
                checked += 1
        assert checked == 16 * 50


def test_criterion_4_scoring_oracles():
    with Budget("criterion 4: scoring oracles", 10.0):
        rng = np.random.default_rng(4242)

        # contrastive prediction == explicit dot-product argmax, 1,000 times
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            v = rng.normal(size=dim)
            m = rng.normal(size=(10, dim))
            scores = [sum(float(v[k]) * float(m[o, k]) for k in range(dim))
                      for o in range(10)]
            best = 0
            for o in range(1, 10):
                if scores[o] > scores[best]:
                    best = o
            assert predict_contrastive(v, m).predicted_index == best

        # generative sum/mean agree on 1,000 equal-length instances
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            length = int(rng.integers(1, 5))
            lps = (-rng.uniform(0.01, 4.0, size=(n, length))).tolist()
            assert (predict_generative(lps, "sum").predicted_index
                    == predict_generative(lps, "mean").predicted_index)

        # the hand-computed divergent example
        lps = [[-1.0], [-0.4, -0.4, -0.4]]
        assert predict_generative(lps, "sum").predicted_index == 0
        assert predict_generative(lps, "mean").predicted_index == 1

        # analytic gradients vs central finite differences, 10 mini-batches
        config = FeaturizerConfig(ngram_orders=(2, 3), hash_dim=512)
        texts = [f"[prompt]sig-{i} filler text {i * 7}" for i in range(12)]
        feats = [featurize(t, config) for t in texts]
        k, eps = 4, 1e-6
        for _ in range(10):
            weights = rng.normal(scale=0.1, size=(k, config.hash_dim))
            bias = rng.normal(scale=0.1, size=k)
            picks = rng.choice(len(feats), size=3, replace=False)
            batch = [feats[i] for i in picks]
            labels = [int(rng.integers(k)) for _ in batch]
            _, grad_bias, cols, grad_cols = softmax_loss_and_grads(
                weights, bias, batch, labels)
            for j in range(k):
                hi, lo = bias.copy(), bias.copy()
                hi[j] += eps
                lo[j] -= eps
                fd = (batch_loss(weights, hi, batch, labels)
                      - batch_loss(weights, lo, batch, labels)) / (2 * eps)
                rel = abs(fd - grad_bias[j]) / max(abs(fd), abs(grad_bias[j]), 1e-10)
                assert rel <= 1e-4
            for pos, col in enumerate(cols[:4].tolist()):
                for j in range(k):
                    hi, lo = weights.copy(), weights.copy()
                    hi[j, col] += eps
                    lo[j, col] -= eps
                    fd = (batch_loss(hi, bias, batch, labels)
                          - batch_loss(lo, bias, batch, labels)) / (2 * eps)
                    a = grad_cols[j, pos]
                    rel = abs(fd - a) / max(abs(fd), abs(a), 1e-10)
                    assert rel <= 1e-4

        # those gradients are the reference's; the package's bucket-major SGD
        # takes the reference loop's steps bit for bit, at batch sizes 1 and 3
        vocab = tuple(f"m{j}" for j in range(k))
        examples = [RouterExample(t, vocab[i % k], ("s", "d", "q"),
                                  f"{t}[SEP]model::{vocab[i % k]}[response]"
                                  f"correct::True;;;avg_accuracy::1.00000")
                    for i, t in enumerate(texts)]
        for batch_size in (1, 3):
            train_config = TrainConfig(learning_rate=0.5, batch_size=batch_size,
                                       max_iterations=40, eval_every=10, seed=batch_size)
            model = train_on_examples(examples[:9], examples[9:], config=train_config,
                                      flags=SerializationFlags(False, False),
                                      featurizer=config, vocabulary=vocab)
            weights, bias = reference_train(examples[:9], examples[9:], train_config, config,
                                            vocab)
            assert model.weights.tobytes() == weights.tobytes()
            assert model.bias.tobytes() == bias.tobytes()


def test_criterion_5_baseline_ordering():
    with Budget("criterion 5: baseline ordering", 60.0):
        feats = FeaturizerConfig(ngram_orders=(2, 3, 4), hash_dim=2 ** 12)
        tol = 1e-12
        violations = 0
        for trial in range(100):
            rng = np.random.default_rng(5000 + trial)
            competence = {
                f"m{i}": tuple(rng.uniform(0.05, 0.95, size=3)) for i in range(4)
            }
            world = generate_world(WorldSpec(
                n_datasets=3, samples_per_dataset=500, options_range=(2, 6),
                competence=competence, signal_mode="none",
                question_forms_per_dataset=1, seed=9000 + trial,
            ))
            table = accuracy_table(world.records, sample_index(world))
            router = RouterModel(
                vocabulary=tuple(sorted(world.model_pool)), featurizer=feats,
                flags=SerializationFlags(True, True), seed=trial,
                weights=rng.normal(size=(4, feats.hash_dim)),
                bias=rng.normal(size=4),
            )
            grid = QueryGrid.build(world)
            for ds in world.datasets:
                replay = evaluate_router(router, grid, ds)
                upper = upper_bound_accuracy(grid, ds)
                oracle = table_oracle(table, ds)
                average = table_average(table, ds)
                assert (oracle_accuracy(grid, ds), average_baseline(grid, ds)) == (oracle, average)
                voting = voting_accuracy(grid, ds)
                if not (upper + tol >= oracle and oracle + tol >= average
                        and upper + tol >= voting and upper + tol >= replay):
                    violations += 1
        assert violations == 0

        # chance is exactly 1/K on fixed-K worlds
        for k, expected in ((100, 0.01), (2, 0.5), (4, 0.25)):
            world = generate_world(WorldSpec(
                n_datasets=1, samples_per_dataset=50, options_range=(k, k),
                competence={"m": (0.5,)}, signal_mode="none", seed=k,
            ))
            got = chance_uniform(world.datasets["ds00"].samples)
            assert got == expected


def test_criterion_6_router_learning():
    with Budget("criterion 6: router learning", 120.0):
        flags = SerializationFlags(True, False)

        # held-in: 4 datasets x 250 samples x 2 valid variants = 2,000 examples
        spec = keyword_world_spec(
            n_datasets=4, samples_per_dataset=250, question_forms=2, seed=61,
        )
        world = generate_world(spec)
        grid = QueryGrid.build(world)
        corpus = build_router_dataset(grid, flags)
        assert len(corpus) == 2000
        train, validate, test = split_80_10_10(range(len(corpus)), seed=6)
        model = train_router(  # default TrainConfig: the reference budget
            featurize_batch(corpus.inputs, FeaturizerConfig()), corpus.labels, train, validate,
            config=TrainConfig(), flags=flags, vocabulary=grid.models,
        )
        label_acc = sum(
            model.route_text(corpus.inputs[p]) == grid.models[corpus.labels[p]] for p in test
        ) / len(test)
        assert label_acc >= 0.99

        replay = {ds: evaluate_router(model, grid, ds) for ds in world.datasets}
        upper = {ds: upper_bound_accuracy(grid, ds) for ds in world.datasets}
        replay_avg = sum(replay.values()) / len(replay)
        optimum_avg = sum(upper.values()) / len(upper)
        assert replay_avg >= optimum_avg - 0.01

        # LODO on a transferable world: the held-out dataset shares its
        # keyword with a training dataset
        lodo_world = generate_world(keyword_world_spec(
            n_datasets=4, samples_per_dataset=250, paired=True,
            question_forms=1, seed=62,
        ))
        result = run_lodo(lodo_world, flags=flags, train_config=TrainConfig(seed=63))
        table = accuracy_table(lodo_world.records, sample_index(lodo_world))
        assert not result.failed_folds
        for ds, fold in result.folds.items():
            assert fold.router_accuracy >= table_average(table, ds), ds


def _band_world(seed: int, option_signal_free: bool = True) -> WorldSpec:
    """Four datasets in two metadata bands; each band's designated model is
    perfect there, the other band's designated model is mediocre, fillers
    are weak. Prompts are identical across datasets, and (with a degenerate
    option range) so are the response options."""
    competence = {
        "m0": (1.0, 1.0, 0.55, 0.55),
        "m1": (0.55, 0.55, 1.0, 1.0),
        "m2": (0.3, 0.3, 0.3, 0.3),
        "m3": (0.3, 0.3, 0.3, 0.3),
    }
    return WorldSpec(
        n_datasets=4, samples_per_dataset=300, options_range=(4, 4),
        competence=competence, signal_mode="metadata_band",
        question_forms_per_dataset=1, seed=seed,
    )


def test_criterion_7_ablation_directionality():
    with Budget("criterion 7: ablation directionality", 120.0):
        world = generate_world(_band_world(seed=71))
        result = run_ablation(
            world,
            train_config=TrainConfig(learning_rate=0.05, max_iterations=1500,
                                     eval_every=500, seed=72),
            featurizer=FeaturizerConfig(ngram_orders=(2, 3, 4), hash_dim=2 ** 14),
            flag_grid=ALL_FLAG_COMBOS,
        )
        avg = {tag: result.average(tag) for tag in result.columns}

        # metadata on beats metadata off by at least 5 points
        assert avg["md-on_ro-on"] >= avg["md-off_ro-on"] + 0.05
        assert avg["md-on_ro-off"] >= avg["md-off_ro-off"] + 0.05

        # with no option signal, response options change nothing material
        assert abs(avg["md-on_ro-on"] - avg["md-on_ro-off"]) <= 0.02
        assert abs(avg["md-off_ro-on"] - avg["md-off_ro-off"]) <= 0.02


def test_criterion_8_cli_determinism(tmp_path):
    with Budget("criterion 8: CLI determinism", 120.0):
        spec = keyword_world_spec(samples_per_dataset=40, paired=True, seed=81)
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)
        fast = ["--learning-rate", "0.05", "--max-iterations", "300",
                "--eval-every", "100", "--hash-dim", "4096"]

        def pipeline(root):
            world = root / "world"
            assert cli_main(["--out", str(world), "synth", "generate",
                             "--spec", str(spec_path)]) == 0
            assert cli_main(["--out", str(root / "corpus"), "--seed", "7",
                             "routerdata", "build", "--world", str(world),
                             "--flags", "md=on,ro=off"]) == 0
            assert cli_main(["--out", str(root / "router"), "--seed", "7",
                             "router", "train", "--world", str(world),
                             "--flags", "md=on,ro=off", *fast]) == 0
            assert cli_main(["--out", str(root / "lodo"), "--seed", "7",
                             "lodo", "run", "--world", str(world),
                             "--flags", "md=on,ro=off", *fast]) == 0
            assert cli_main(["--out", str(root / "report"), "baselines",
                             "report", "--world", str(world), "--router",
                             str(root / "router" / "router.bin")]) == 0

        run_a, run_b = tmp_path / "a", tmp_path / "b"
        pipeline(run_a)
        pipeline(run_b)

        to_compare = [
            ("corpus", "train.txt"),
            ("corpus", "validate.txt"),
            ("corpus", "test.txt"),
            ("corpus", "counts.json"),
            ("router", "router.bin"),
            ("lodo", "report.csv"),
            ("lodo", "report.json"),
            ("lodo", "run_manifest.json"),
            ("report", "report.csv"),
            ("report", "report.json"),
        ] + [("lodo", f"fold_ds{i:02d}/router.bin") for i in range(4)]
        for parts in to_compare:
            a = run_a.joinpath(*parts)
            b = run_b.joinpath(*parts)
            assert a.read_bytes() == b.read_bytes(), parts

        # world files themselves are deterministic too
        for name in ("datasets.jsonl", "metadata.jsonl", "records.jsonl",
                     "prompt_configs.json", "world.json"):
            assert (run_a / "world" / name).read_bytes() == \
                (run_b / "world" / name).read_bytes(), name
