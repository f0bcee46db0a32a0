"""Persisted artifacts pinned by sha256, and their independence of record
order.

The digests were recorded with the implementation that regrouped records
per consumer; any change to labeling, the baselines, router replay or the
LODO loop that alters a byte of a report, corpus or router file fails here.
"""

import hashlib
import json
import os
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from taskrouter import (
    ExecutionRecord,
    QueryGrid,
    RouterModel,
    SerializationFlags,
    build_comparison_report,
    build_router_dataset,
    generate_world,
    run_lodo,
    split_80_10_10,
    train_router,
)
from taskrouter import wire
from taskrouter.prompts import PromptTemplate, render, rendered_options
from taskrouter.router import FeaturizerConfig, TrainConfig, evaluate_router, featurize_batch
from taskrouter.routerdata import ALL_FLAG_COMBOS, router_inputs, save_corpus, serialize_input
from taskrouter.scoring import evaluate, make_mock_backend
from taskrouter.synth import WorldSpec
from oracles import FlakyBackend

from conftest import keyword_world_spec

FLAGS = SerializationFlags(True, True)
FEATS = FeaturizerConfig(hash_dim=256)
TRAIN = TrainConfig(learning_rate=0.05, max_iterations=60, eval_every=20)


def four_form_world():
    """3 datasets x 37 samples, 2-6 options, 4 question forms, no signal."""
    return generate_world(WorldSpec(
        n_datasets=3, samples_per_dataset=37, options_range=(2, 6),
        competence={"m0": (0.7, 0.4, 0.5), "m1": (0.5, 0.6, 0.5),
                    "m2": (0.3, 0.5, 0.6), "m3": (0.6, 0.5, 0.4)},
        signal_mode="none", question_forms_per_dataset=4, seed=0,
    ))


def empty_question_world():
    """A generated 2-form world whose datasets gain a third, empty question
    form; its records sit after each model's last valid-variant record and
    must be filtered out everywhere."""
    world = generate_world(WorldSpec(
        n_datasets=2, samples_per_dataset=20, options_range=(3, 4),
        competence={"a": (0.8, 0.3), "b": (0.4, 0.7), "c": (0.5, 0.5)},
        signal_mode="none", question_forms_per_dataset=2, seed=3,
    ))
    world.prompt_configs = {
        ds: replace(cfg, question_forms=(*cfg.question_forms, PromptTemplate("")))
        for ds, cfg in world.prompt_configs.items()
    }
    records = []
    for rec in world.records:
        records.append(rec)
        if rec.prompt_variant_id == "q1-o0":
            records.append(replace(rec, prompt_variant_id="q2-o0"))
    world.records = records
    return world


def fixed_router(world) -> RouterModel:
    rng = np.random.default_rng(11)
    k = len(world.model_pool)
    return RouterModel(
        vocabulary=tuple(sorted(world.model_pool)), featurizer=FEATS, flags=FLAGS,
        seed=0, weights=rng.normal(size=(k, FEATS.hash_dim)), bias=rng.normal(size=k),
    )


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def report_and_corpus_digests(world, out) -> dict[str, str]:
    out.mkdir(parents=True, exist_ok=True)
    grid = QueryGrid.build(world)
    router = fixed_router(world)
    report = build_comparison_report(grid, router_accuracies={
        ds: evaluate_router(router, grid, ds) for ds in world.datasets})
    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    corpus = build_router_dataset(grid, FLAGS)
    for name, split in zip(("train", "validate", "test"),
                           split_80_10_10(range(len(corpus)), seed=5)):
        save_corpus(corpus, split, out / f"{name}.txt")
    return {p.name: _sha(p) for p in sorted(out.iterdir())}


def lodo_digests(world, out) -> dict[str, str]:
    run_lodo(world, flags=FLAGS, train_config=replace(TRAIN, seed=2), featurizer=FEATS,
             out_dir=out)
    paths = [out / "report.json"] + sorted(out.glob("fold_*/router.bin"))
    return {str(p.relative_to(out)): _sha(p) for p in paths}


GOLDEN = {
    "four_form": {
        "lodo/fold_ds00/router.bin":
            "c756f8ebdf4a4fd0757e9536b51ef515a2e9a6ffa40a91d1447d93d9dd3431dc",
        "lodo/fold_ds01/router.bin":
            "d35573855969525646ebafcdd79b5f96b3184c53b2d3aedeacc7d8d6067f7393",
        "lodo/fold_ds02/router.bin":
            "e88a7a1a95de6b6e802886415f8f5519e5977241c075f1712ed192b1ba3dbf49",
        "lodo/report.json":
            "fc1accec02986830f2ff8822ad2a6f179f53996e102c68dbc083b5b3a10519c5",
        "report.csv":
            "4560e7e58e0521531e9ccad4c3b12d8f74c07f97fab368f55ebbffc3fbca4aff",
        "report.json":
            "5127ac7e4b0c0c0f0429bbe2fae3ddadcb647aeda0615d186c4f0abb4df17ee8",
        "test.txt":
            "c5bf52f997f5a124722ba500d52a9c60956b30fbbe7650480ad1039ff541dd0b",
        "test.txt.index.jsonl":
            "2202ad56600253402b2465eca52bde0d3bffe88d5428f08989e44c1f2cda0053",
        "train.txt":
            "e189f74977eb130032ed03a29b1c4e9169044fe52da63f979cf3cb5d2bbecb73",
        "train.txt.index.jsonl":
            "d84321ea3f0aa39c4c32fdbfcaed0387d9fa40541734858f41f481ca28010a5c",
        "validate.txt":
            "f7c460e73805154cbea59b0f273cf7e8d50febdced602f434f6751c74975937d",
        "validate.txt.index.jsonl":
            "e864c8970cac077ca74258ba344dcf83828993981c548acf1030cc46c2a410d8",
    },
    "empty_question": {
        "lodo/fold_ds00/router.bin":
            "ba95fa6a909c7c0d380ad1f63ab02e83c8bfcf73873e3e690a67a15a1e791cb2",
        "lodo/fold_ds01/router.bin":
            "bcbee2e10167dc15034e4873640b2466dd98c7a0f2f7724de21917089b27a276",
        "lodo/report.json":
            "1b18ffdb3815111c349830063bd6e9ff11ca6281b2dd9027b3e80b836edeb432",
        "report.csv":
            "7d5a5dbc1553d67dc628dc3146733697701bf44ccdd56ffa7f29766bf46f1dc7",
        "report.json":
            "a19809ccba66d8dbea0897108dfb3a73bf5c3f2c2fc70c070c5cd855341c4871",
        "test.txt":
            "35502c18b19db77c3292247b23ccd1306b537286c73d1ea78a71be07e1b8d87e",
        "test.txt.index.jsonl":
            "2fbdbd076b2b74cb64c82aa63ab135d17be5dd73e4bc646782679412a041d4f9",
        "train.txt":
            "56862509293585268ece9f19d778b55ed89f7aa342c32f052d42687deca00b6b",
        "train.txt.index.jsonl":
            "7ec5d1549149b8ce6368d09ca2a648c27bf773db6f8788fcc0322a97b099d7c0",
        "validate.txt":
            "c095d0055339d228e412aeac547345cc7f4ec51372d4c40786ea767c058ef520",
        "validate.txt.index.jsonl":
            "f7bfa07aadcb3b199aa3b32c1476fcee5d04dede408696a43d2cb3ed70b1388f",
    },
}

WORLDS = {"four_form": four_form_world, "empty_question": empty_question_world}

# router.bin of a 3-example mini-batch run that reshuffles once (150 steps
# over 355 training examples), recorded with the per-column SGD update
MINI_BATCH_ROUTER = "14e21830855bc94ad2a8a6aba94af617a42ae509756ef85cb620d7cfe5526dd2"


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_artifacts_match_recorded_digests(name, tmp_path):
    world = WORLDS[name]()
    got = report_and_corpus_digests(world, tmp_path / "report")
    got.update({f"lodo/{k}": v for k, v in lodo_digests(world, tmp_path / "lodo").items()})
    assert got == GOLDEN[name]


@pytest.mark.parametrize("flags", ALL_FLAG_COMBOS, ids=lambda flags: flags.tag)
@pytest.mark.parametrize("name", sorted(WORLDS))
def test_router_inputs_equal_serialize_input_row_by_row(name, flags):
    # router_inputs formats a sample's [img] segment once for all its rows
    world = WORLDS[name]()
    grid = QueryGrid.build(world)
    rows, expected = range(len(grid.variant_index)), []
    for ds, sample, variant in grid.queries(rows):
        config = world.prompt_configs[ds]
        options = rendered_options(sample, config, variant)
        expected.append(serialize_input(world.metadata[sample.sample_id],
                                        render(variant.question, sample, config),
                                        options if flags.include_response_options else None,
                                        flags))
    assert router_inputs(grid, rows, flags) == expected


def test_mini_batch_router_matches_recorded_digest(tmp_path):
    corpus = build_router_dataset(QueryGrid.build(four_form_world()), FLAGS)
    train, validate, _ = split_80_10_10(range(len(corpus)), seed=5)
    # every model labels a training example, so the vocabulary of the
    # training labels is the grid's model pool and the codes index it as they are
    assert {corpus.grid.models[c] for c in corpus.labels[train]} == set(corpus.grid.models)
    config = replace(TRAIN, batch_size=3, max_iterations=150, eval_every=50, seed=4)
    model = train_router(featurize_batch(corpus.inputs, FEATS), corpus.labels, train, validate,
                         config=config, flags=FLAGS, vocabulary=corpus.grid.models)
    model.save(tmp_path / "router.bin")
    assert _sha(tmp_path / "router.bin") == MINI_BATCH_ROUTER


def test_report_and_corpus_independent_of_record_order(tmp_path):
    world = four_form_world()
    baseline = report_and_corpus_digests(world, tmp_path / "generated")
    records = list(world.records)
    for seed in range(3):
        random.Random(seed).shuffle(records)
        world.records = records
        assert report_and_corpus_digests(world, tmp_path / f"shuffled{seed}") == baseline


def test_out_of_pool_record_is_rejected():
    from taskrouter import IntegrityError

    world = four_form_world()
    rec = next(iter(world.records))
    world.records = [*world.records, ExecutionRecord(
        rec.sample_id, rec.dataset_id, "stranger", rec.prompt_variant_id,
        rec.predicted_index, rec.correct,
    )]
    with pytest.raises(IntegrityError):
        build_comparison_report(QueryGrid.build(world))
    with pytest.raises(IntegrityError):
        build_router_dataset(QueryGrid.build(world), FLAGS)


# ---------------------------------------------------------------------------
# The request lines a wire client sends while ``evaluate`` scores a fixed
# keyword world, pinned by sha256. Recorded before scoring jobs and wire
# requests were read from one op table; any change to which jobs are asked,
# their order, merging, chunking or retries, or to a request's bytes fails
# here.

def _serve(backend, rin, rout, max_batch: bool) -> None:
    """``wire.serve_backend``, or one whose ``info`` advertises no
    ``max_batch`` (so the client sends plain lines)."""
    if max_batch:
        return wire.serve_backend(backend, rin, rout)
    for line in rin:
        req = json.loads(line)
        reply = {"ok": True, "result": None} if req["op"] == "shutdown" else \
            wire._answer(backend, req)
        if req["op"] == "info":
            del reply["result"]["max_batch"]
        rout.write(json.dumps(reply) + "\n")
        rout.flush()
        if req["op"] == "shutdown":
            return


def request_transcript(backend, max_batch, monkeypatch) -> list[bytes]:
    """Every request line a client sends to ``backend`` served in a thread
    at ``max_batch`` (``None``: advertised by no ``max_batch``), from its
    ``info`` to its ``shutdown``, while ``evaluate`` scores each dataset."""
    world = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=12,
                                              question_forms=2, seed=5))
    sent = []
    send = wire.WireBackendClient._send

    def recording(self, data, deadline):
        sent.append(bytes(data))
        return send(self, data, deadline)

    monkeypatch.setattr(wire.WireBackendClient, "_send", recording)
    monkeypatch.setattr(wire, "MAX_BATCH", max_batch or wire.MAX_BATCH)
    c2s_read, c2s_write = os.pipe()
    s2c_read, s2c_write = os.pipe()
    files = [os.fdopen(fd, mode) for fd, mode in
             ((c2s_read, "r"), (c2s_write, "w"), (s2c_read, "r"), (s2c_write, "w"))]
    server = threading.Thread(target=_serve, args=(backend, files[0], files[3], bool(max_batch)),
                              daemon=True)
    server.start()
    try:
        client = wire.WireBackendClient(files[2], files[1])
        for ds_id, manifest in world.datasets.items():
            evaluate(client, manifest, world.prompt_configs[ds_id])
        client.shutdown()
        server.join(timeout=10)
    finally:
        for fh in files:
            fh.close()
    return sent


def _request_backend(case: str):
    """``embedding`` and ``generative``: seeded mocks; ``-flaky``: two
    images fail (so their second variants ask again on plain lines);
    ``-volatile``: the same failures, and no ``deterministic`` promise."""
    family = case.split("-")[0]
    backend = make_mock_backend("seeded", family, seed=3, dim=4)
    if "flaky" in case or "volatile" in case:
        backend = FlakyBackend(backend, failing_refs={"ds00/ds00-s00003", "ds01/ds01-s00007"})
    if "volatile" in case:
        backend.info = replace(backend.info, deterministic=False)
    return backend


REQUEST_GOLDEN = {
    ("embedding", 256): (4, "c0ec148aa1dc244680e0dc38461d57f2d2d1c312572c81d005dffbd60d63b2c2"),
    ("embedding", 7): (6, "46da2eea43c570da7d636c4a18798ac0590df1137f2627b4d48c27c368bd51c1"),
    ("embedding", None): (30, "47d64afb0000120796efced177f0de43b9c875a57086907f9f3895ee75d4de83"),
    ("embedding-flaky", 256): (6, "12eead129b277ae86d769ce1643904d619bdd62853554e9bd0c1eeca91d6b187"),
    ("embedding-flaky", 7): (8, "7f651e3d42721af9334b0c5694c0d04fa25c343e423111d9736fd81e6a68abfd"),
    ("embedding-flaky", None):
        (32, "7e2d63806052361ebd9e814d68c01a4ad50b5c29fde0b443055bb437d7efe89e"),
    ("embedding-volatile", 256):
        (4, "7ab4c6d816f2833141940f34d2c6cd3114356514365c53502bb6e8972551df9a"),
    ("embedding-volatile", 7):
        (16, "725ee3d42f82f4e9f42d7c4b76470c0ed8356137c0eb26bb160e11042cbeb9a7"),
    ("embedding-volatile", None):
        (98, "ab76e3e0c0749b405761c608913319a9d62c21648be24644d831972ac65bdb4c"),
    ("generative", 256): (4, "8e491787a004f9f8d9256c12f04d1ea44dda6de650684126a5ee2056c2dee66c"),
    ("generative", 7): (10, "bb2ad747480ae1abb3cb6aad039e55a1f16dc5cc53189b5d991e1985ae2290fb"),
    ("generative", None): (50, "d8b1fd2b00b2fbb4a48e6c4596bde83b5a0550873d8e7cf9d41963d6a13fd4f5"),
}


@pytest.mark.parametrize("max_batch", [256, 7, None])
@pytest.mark.parametrize("case", ["embedding", "embedding-flaky", "embedding-volatile",
                                  "generative"])
def test_wire_requests_match_recorded_digests(case, max_batch, monkeypatch):
    sent = request_transcript(_request_backend(case), max_batch, monkeypatch)
    assert sent[0] == b'{"op": "info"}\n' and sent[-1] == b'{"op": "shutdown"}\n'
    digest = hashlib.sha256(b"".join(sent)).hexdigest()
    assert (len(sent), digest) == REQUEST_GOLDEN[case, max_batch]
