"""Wire protocol: client/server round trips, error propagation, and the
stdio server subprocess."""

import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from taskrouter import BackendError
from taskrouter.core import save_records, save_world
from taskrouter.prompts import closed_prompt_set, prompt_variants
from taskrouter.scoring import (
    GoldEmbeddingBackend,
    SeededEmbeddingBackend,
    SeededLogprobBackend,
    evaluate,
    gold_index_by_ref,
    make_mock_backend,
)
from taskrouter.synth import generate_world
from taskrouter import wire
from taskrouter.wire import SubprocessBackend, WireBackendClient, serve_backend
from oracles import (FlakyBackend, RowCountBackend, accuracy_table,
                     query_by_query_embedding_outcomes)

from conftest import keyword_world_spec, make_micro_world


class _PipePair:
    """A served backend reachable over OS pipes from the same process."""

    def __init__(self, backend):
        c2s_read, c2s_write = os.pipe()
        s2c_read, s2c_write = os.pipe()
        self.server_in = os.fdopen(c2s_read, "r")
        self.client_out = os.fdopen(c2s_write, "w")
        self.client_in = os.fdopen(s2c_read, "r")
        self.server_out = os.fdopen(s2c_write, "w")
        self.thread = threading.Thread(
            target=serve_backend, args=(backend, self.server_in, self.server_out),
            daemon=True,
        )
        self.thread.start()
        self.client = WireBackendClient(self.client_in, self.client_out)

    def close(self):
        self.client.shutdown()
        self.thread.join(timeout=5)
        for fh in (self.client_out, self.client_in, self.server_in, self.server_out):
            try:
                fh.close()
            except OSError:
                pass


@pytest.fixture
def micro_world():
    return make_micro_world(n_samples=4, models=("only",), with_empty_question=False)


def test_embedding_round_trip(micro_world):
    manifest = micro_world.datasets["micro"]
    inner = GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only")
    pair = _PipePair(inner)
    try:
        assert pair.client.info.name == "only"
        assert pair.client.info.family == "embedding"
        v = pair.client.embed_image("micro/s0")
        np.testing.assert_array_equal(v, inner.embed_image("micro/s0"))
        m = pair.client.embed_texts(["red", "blue"])
        np.testing.assert_array_equal(m, inner.embed_texts(["red", "blue"]))
    finally:
        pair.close()


def test_generative_round_trip():
    inner = SeededLogprobBackend(seed=9, name="gen")
    pair = _PipePair(inner)
    try:
        got = pair.client.option_token_logprobs("img", ["a", "b"])
        assert got == inner.option_token_logprobs("img", ["a", "b"])
    finally:
        pair.close()


def test_error_propagates_as_backend_error(micro_world):
    manifest = micro_world.datasets["micro"]
    inner = GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only")
    pair = _PipePair(inner)
    try:
        with pytest.raises(BackendError):
            pair.client.embed_image("no/such/ref")
        # the channel survives an error and keeps serving
        assert pair.client.embed_image("micro/s1") is not None
    finally:
        pair.close()


@pytest.mark.parametrize("rows", [3, 5])
def test_wrong_number_of_embedding_rows_over_the_wire_is_a_skip(rows):
    world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=8))
    (ds_id, manifest), = world.datasets.items()
    config = world.prompt_configs[ds_id]
    pair = _PipePair(RowCountBackend(SeededEmbeddingBackend(seed=2, dim=8, name="only"), rows))
    try:
        run = evaluate(pair.client, manifest, config)
    finally:
        pair.close()
    assert list(run.records) == []
    assert run.skip_count == len(manifest.samples) * len(prompt_variants(config))
    assert {n.error for n in run.skipped} == {
        f"backend only returned {rows} embedding rows for 4 prompts"}


@pytest.mark.parametrize("req, error", [
    ({"op": "embed_texts", "prompts": "abc"}, "field 'prompts' must be a list of strings"),
    ({"op": "embed_texts", "prompts": ["a", 1]}, "field 'prompts' must be a list of strings"),
    ({"op": "embed_image", "image_ref": ["x"]}, "field 'image_ref' must be a string"),
    ({"op": "logprobs", "image_ref": "x", "prompts": "ab"},
     "field 'prompts' must be a list of strings"),
    ({"op": "logprobs", "image_ref": 7, "prompts": ["a"]}, "field 'image_ref' must be a string"),
])
def test_wrong_typed_job_field_gets_an_error_reply(req, error):
    backend = SeededEmbeddingBackend(seed=1, dim=4, name="only")
    if req["op"] == "logprobs":
        backend = SeededLogprobBackend(seed=1, name="only")
    assert wire._answer(backend, req) == {"ok": False, "error": error}
    assert wire._answer(backend, {"op": "batch", "jobs": [req]}) == {
        "ok": True, "result": [{"ok": False, "error": error}]}


def test_evaluate_through_wire_matches_in_process(micro_world):
    manifest = micro_world.datasets["micro"]
    config = micro_world.prompt_configs["micro"]
    inner = GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only")
    direct = evaluate(inner, manifest, config)
    pair = _PipePair(inner)
    try:
        wired = evaluate(pair.client, manifest, config)
    finally:
        pair.close()
    assert wired.records == direct.records
    assert accuracy_table(wired.records).marginal("only", "micro") == 1.0


def test_stdio_server_subprocess(tmp_path, micro_world):
    world_dir = tmp_path / "world"
    save_world(micro_world, world_dir)
    backend = SubprocessBackend([
        sys.executable, "-m", "taskrouter.wire",
        "--kind", "gold", "--family", "embedding",
        "--world", str(world_dir), "--dim", "2", "--name", "only",
    ])
    try:
        assert backend.info.name == "only"
        manifest = micro_world.datasets["micro"]
        run = evaluate(backend, manifest, micro_world.prompt_configs["micro"])
        assert all(r.correct for r in run.records)
    finally:
        backend.close()


def test_gold_server_reads_only_the_manifests(tmp_path, micro_world, spawned):
    # the gold answers are in datasets.jsonl; damaged records or metadata do not matter
    world_dir = tmp_path / "world"
    save_world(micro_world, world_dir)
    (world_dir / "records.jsonl").write_bytes(b'{"correct": tru\n\xff\n')
    (world_dir / "metadata.jsonl").write_bytes(b"[]\n")
    backend = SubprocessBackend([
        sys.executable, "-m", "taskrouter.wire", "--kind", "gold", "--family", "embedding",
        "--world", str(world_dir), "--dim", "2", "--name", "only",
    ])
    try:
        run = evaluate(backend, micro_world.datasets["micro"], micro_world.prompt_configs["micro"])
    finally:
        backend.close()
    assert run.skip_count == 0 and len(run.records) == 4
    assert all(r.correct for r in run.records)
    assert _reaped(spawned)


# A fake server: answers ``info`` with INFO and runs ACTION for any other
# request, then AFTER_EOF once its stdin closes. It imports nothing slow, so
# it answers ``info`` well inside the default reply deadline.
_FAKE_SERVER = """\
import json, sys, time

INFO = __INFO__

def reply(result):
    sys.stdout.write(json.dumps({"ok": True, "result": result}) + "\\n")
    sys.stdout.flush()

for line in sys.stdin:
    if json.loads(line)["op"] == "info":
        reply(INFO)
    else:
        __ACTION__
__AFTER_EOF__
"""
_INFO = {"name": "fake", "family": "embedding", "deterministic": True}


def _fake_server(tmp_path, action="reply([1.0, 0.0])", after_eof="pass", info=_INFO):
    script = tmp_path / "server.py"
    script.write_text(_FAKE_SERVER.replace("__INFO__", repr(info))
                      .replace("__ACTION__", action).replace("__AFTER_EOF__", after_eof))
    return [sys.executable, str(script)]


@pytest.fixture
def spawned(monkeypatch):
    """Every server process started during the test; any left alive at the
    end is killed, so a failing test leaks none."""
    procs = []
    popen = subprocess.Popen

    def record(*args, **kwargs):
        procs.append(popen(*args, **kwargs))
        return procs[-1]

    monkeypatch.setattr(wire.subprocess, "Popen", record)
    yield procs
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _reaped(procs) -> bool:
    return bool(procs) and all(proc.returncode is not None for proc in procs)


def _short_deadlines(monkeypatch):
    monkeypatch.setattr(wire, "REPLY_TIMEOUT_S", 0.5)
    monkeypatch.setattr(wire, "CLOSE_TIMEOUT_S", 0.5)


def test_server_that_cannot_start_raises_backend_error(tmp_path, monkeypatch):
    opened = []
    temporary_file = wire.tempfile.TemporaryFile

    def recording():
        opened.append(temporary_file())
        return opened[-1]

    monkeypatch.setattr(wire.tempfile, "TemporaryFile", recording)
    missing = tmp_path / "no-such-server"
    with pytest.raises(BackendError, match="cannot start wire backend") as caught:
        SubprocessBackend([str(missing), "--flag"])
    assert str([str(missing), "--flag"]) in str(caught.value)
    assert "No such file or directory" in str(caught.value)
    assert len(opened) == 1 and opened[0].closed  # the stderr file is not leaked


def test_server_that_exits_at_start_reports_its_stderr(spawned):
    # the gold mock cannot start without a world, and says so on stderr
    with pytest.raises(BackendError, match="gold backend needs manifests"):
        SubprocessBackend([sys.executable, "-m", "taskrouter.wire", "--kind", "gold"])
    assert _reaped(spawned)


def test_server_silent_at_start_times_out(spawned, monkeypatch):
    _short_deadlines(monkeypatch)
    start = time.monotonic()
    with pytest.raises(BackendError, match="no reply within 0.5 s"):
        SubprocessBackend([sys.executable, "-c", "import time; time.sleep(600)"])
    assert time.monotonic() - start < 10
    assert _reaped(spawned)


def test_stalled_server_times_out_and_is_killed_on_close(spawned, tmp_path, monkeypatch):
    backend = SubprocessBackend(_fake_server(tmp_path, action="time.sleep(600)"))
    _short_deadlines(monkeypatch)
    start = time.monotonic()
    with pytest.raises(BackendError, match="no reply within"):
        backend.embed_image("img")
    # a late reply would answer the wrong request, so the channel stays broken
    with pytest.raises(BackendError, match="no reply within"):
        backend.embed_texts(["a"])
    with pytest.raises(BackendError, match="did not exit"):
        backend.close()
    assert time.monotonic() - start < 10
    assert _reaped(spawned)


def test_dying_server_error_carries_its_stderr(spawned, tmp_path):
    backend = SubprocessBackend(_fake_server(
        tmp_path, action="sys.stderr.write('fake model lost\\n'); sys.exit(3)"))
    with pytest.raises(BackendError, match="closed the channel.*fake model lost"):
        backend.embed_image("img")
    backend.close()
    assert spawned[0].returncode == 3


def test_reply_split_across_reads_is_joined(spawned, tmp_path):
    backend = SubprocessBackend(_fake_server(tmp_path, action=(
        "sys.stdout.write('{\"ok\": true, '); sys.stdout.flush(); time.sleep(0.05); "
        "sys.stdout.write('\"result\": [2.0]}\\n'); sys.stdout.flush()")))
    try:
        np.testing.assert_array_equal(backend.embed_image("img"), [2.0])
        np.testing.assert_array_equal(backend.embed_image("img"), [2.0])
    finally:
        backend.close()
    assert _reaped(spawned)


@pytest.mark.parametrize("junk", [b"<html>busy</html>", b"\xff\xfe", b"[1, 2]",
                                  b'{"ok": true}', b'{"result": 1}'])
def test_junk_reply_breaks_the_channel(junk, spawned, tmp_path):
    backend = SubprocessBackend(_fake_server(
        tmp_path, action=f"sys.stdout.buffer.write({junk!r} + b'\\n'); sys.stdout.flush()"))
    with pytest.raises(BackendError, match="malformed wire response"):
        backend.embed_image("img")
    with pytest.raises(BackendError, match="malformed wire response"):
        backend.embed_image("img")
    backend.close()
    assert _reaped(spawned)


def test_server_ignoring_shutdown_is_killed(spawned, tmp_path, monkeypatch):
    backend = SubprocessBackend(_fake_server(tmp_path, action="reply([1.0])",
                                         after_eof="time.sleep(600)"))
    np.testing.assert_array_equal(backend.embed_image("img"), [1.0])
    _short_deadlines(monkeypatch)
    start = time.monotonic()
    with pytest.raises(BackendError, match="did not exit within 0.5 s"):
        backend.close()
    assert time.monotonic() - start < 10
    assert _reaped(spawned)


@pytest.mark.parametrize("info, field", [
    ({"family": "embedding"}, "name"),
    ({"name": 7, "family": "embedding"}, "name"),
    ({"name": "x", "family": "vision"}, "family"),
    ({"name": "x", "family": "embedding", "deterministic": "yes"}, "deterministic"),
    ({"name": "x", "family": "embedding", "deterministic": 1}, "deterministic"),
    (["x", "embedding"], "object"),
    ({"name": "x", "family": "generative", "max_batch": 0}, "max_batch"),
    ({"name": "x", "family": "generative", "max_batch": -1}, "max_batch"),
    ({"name": "x", "family": "generative", "max_batch": "2"}, "max_batch"),
    ({"name": "x", "family": "generative", "max_batch": True}, "max_batch"),
])
def test_info_reply_is_checked_field_by_field(info, field, spawned, tmp_path):
    with pytest.raises(BackendError, match=field):
        SubprocessBackend(_fake_server(tmp_path, info=info))
    assert _reaped(spawned)


def test_info_without_deterministic_makes_no_promise(spawned, tmp_path):
    backend = SubprocessBackend(_fake_server(tmp_path, info={"name": "x", "family": "generative"}))
    try:
        assert backend.info.deterministic is False
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# The batch op: many generative queries per round trip.

def _run_records(runs, path):
    save_records([r for run in runs for r in run.records], path)
    return path.read_bytes()


def _evaluate_all(backend, world):
    return [evaluate(backend, manifest, world.prompt_configs[ds_id])
            for ds_id, manifest in world.datasets.items()]


# Answers ``info`` without ``max_batch`` and plain ``logprobs`` ops like the
# seeded generative mock; any other op is an error.
_UNBATCHED_SERVER = """\
import json, sys
from taskrouter.scoring import SeededLogprobBackend

backend = SeededLogprobBackend(seed=__SEED__)
for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "info":
        reply = {"ok": True, "result": {"name": "seeded-gen", "family": "generative",
                                        "deterministic": True}}
    elif req["op"] == "logprobs":
        lps = backend.option_token_logprobs(req["image_ref"], req["prompts"])
        reply = {"ok": True, "result": [[float(x) for x in row] for row in lps]}
    elif req["op"] == "shutdown":
        break
    else:
        reply = {"ok": False, "error": "unknown op " + req["op"]}
    sys.stdout.write(json.dumps(reply) + "\\n")
    sys.stdout.flush()
"""


def test_generative_records_are_the_same_in_process_batched_and_unbatched(tmp_path, spawned):
    # two datasets of 300 queries each: every dataset takes two batches
    world = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=300, seed=5))
    seed = 3
    direct = _run_records(_evaluate_all(SeededLogprobBackend(seed=seed), world),
                          tmp_path / "direct.jsonl")
    script = tmp_path / "unbatched.py"
    script.write_text(_UNBATCHED_SERVER.replace("__SEED__", str(seed)))
    commands = {
        "batched": [sys.executable, "-m", "taskrouter.wire", "--kind", "seeded",
                    "--family", "generative", "--seed", str(seed)],
        "unbatched": [sys.executable, str(script)],
    }
    for name, command in commands.items():
        backend = SubprocessBackend(command)
        try:
            assert backend._max_batch == (wire.MAX_BATCH if name == "batched" else 1)
            runs = _evaluate_all(backend, world)
        finally:
            backend.close()
        assert sum(run.skip_count for run in runs) == 0
        assert _run_records(runs, tmp_path / f"{name}.jsonl") == direct, name
    assert len(direct.splitlines()) == 600
    assert _reaped(spawned)


def test_round_trips_are_info_one_batch_per_max_batch_queries_and_shutdown(monkeypatch):
    monkeypatch.setattr(wire, "MAX_BATCH", 7)
    world = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=10, seed=5))
    ops = []
    call = WireBackendClient._call

    def counting(self, req):
        ops.append(req["op"])
        return call(self, req)

    monkeypatch.setattr(WireBackendClient, "_call", counting)
    pair = _PipePair(SeededLogprobBackend(seed=1))
    try:
        runs = _evaluate_all(pair.client, world)
    finally:
        pair.close()
    queries = [len(run.records) for run in runs]
    assert queries == [10, 10]
    assert ops == ["info"] + ["batch"] * sum(math.ceil(q / 7) for q in queries) + ["shutdown"]


def test_one_failing_job_skips_only_its_query(micro_world):
    manifest, config = micro_world.datasets["micro"], micro_world.prompt_configs["micro"]
    inner = SeededLogprobBackend(seed=2, name="only")
    pair = _PipePair(FlakyBackend(inner, failing_refs={"micro/s1"}))
    try:
        run = evaluate(pair.client, manifest, config)
    finally:
        pair.close()
    assert [(n.sample_id, n.error) for n in run.skipped] == [
        ("s1", "simulated failure for micro/s1")]
    expected = evaluate(inner, manifest, config).records
    assert list(run.records) == [r for r in expected if r.sample_id != "s1"]


_GEN_INFO = {"name": "fake", "family": "generative", "deterministic": True, "max_batch": 2}
# answer each job of a batch with equal scores for its prompts
_ANSWER_BATCH = ("reply([{'ok': True, 'result': [[-1.0]] * len(job['prompts'])} "
                 "for job in json.loads(line)['jobs']])")


def test_server_dying_mid_batch_skips_that_batch_and_the_rest(spawned, tmp_path):
    world = make_micro_world(n_samples=6, models=("only",), with_empty_question=False)
    manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
    # the first batch is answered; the server dies on the second
    action = ("if globals().get('answered'): sys.stderr.write('fake model lost\\n'); sys.exit(3)\n"
              f"        answered = True; {_ANSWER_BATCH}")
    backend = SubprocessBackend(_fake_server(tmp_path, action=action, info=_GEN_INFO))
    try:
        run = evaluate(backend, manifest, config)
    finally:
        backend.close()
    assert [r.sample_id for r in run.records] == ["s0", "s1"]
    assert [n.sample_id for n in run.skipped] == ["s2", "s3", "s4", "s5"]
    errors = {n.error for n in run.skipped}
    assert len(errors) == 1 and "closed the channel" in errors.pop()
    assert spawned[0].returncode == 3


def test_stalled_batch_times_out_and_is_killed_on_close(spawned, tmp_path, monkeypatch):
    backend = SubprocessBackend(_fake_server(tmp_path, action="time.sleep(600)",
                                             info=_GEN_INFO))
    _short_deadlines(monkeypatch)
    start = time.monotonic()
    outcomes = backend.run_many([("logprobs", "a", ["x"]), ("logprobs", "b", ["y"]),
                                 ("logprobs", "c", ["z"])])
    assert len(outcomes) == 3
    for outcome in outcomes:
        assert isinstance(outcome, BackendError) and "no reply within" in str(outcome)
    with pytest.raises(BackendError, match="did not exit"):
        backend.close()
    assert time.monotonic() - start < 10
    assert _reaped(spawned)


def test_server_that_stops_reading_fails_a_large_batch_in_bounded_time(spawned, tmp_path,
                                                                       monkeypatch):
    # the server answers info, then reads nothing: a batch line larger than
    # the pipe buffer cannot be written whole
    script = ("import json, sys, time\n"
              f"sys.stdout.write(json.dumps({{'ok': True, 'result': {_GEN_INFO!r}}}) + '\\n')\n"
              "sys.stdout.flush(); time.sleep(600)\n")
    backend = SubprocessBackend([sys.executable, "-c", script])
    _short_deadlines(monkeypatch)
    start = time.monotonic()
    outcomes = backend.run_many([("logprobs", "a", ["p" * (1 << 17)])] * 2)
    assert all(isinstance(o, BackendError) and "took no request within" in str(o)
               for o in outcomes)
    with pytest.raises(BackendError, match="did not exit"):
        backend.close()
    assert time.monotonic() - start < 10
    assert _reaped(spawned)


@pytest.mark.parametrize("result", ["[{'ok': True, 'result': [[-1.0]]}]",
                                    "[{'ok': True, 'result': [[-1.0]]}, 7]",
                                    "[{'ok': True, 'result': [[-1.0]]}, {'ok': True}]",
                                    "{'ok': True}"])
def test_malformed_batch_reply_breaks_the_channel(result, spawned, tmp_path):
    backend = SubprocessBackend(_fake_server(tmp_path, action=f"reply({result})",
                                             info=_GEN_INFO))
    jobs = [("logprobs", "a", ["x"]), ("logprobs", "b", ["y"])]
    for _ in range(2):  # broken for good: the next call fails the same way
        outcomes = backend.run_many(jobs)
        assert len(outcomes) == 2
        assert all(isinstance(o, BackendError) and "malformed wire response" in str(o)
                   for o in outcomes)
    backend.close()
    assert _reaped(spawned)


def test_server_without_max_batch_gets_only_logprobs_ops(spawned, tmp_path, micro_world):
    manifest, config = micro_world.datasets["micro"], micro_world.prompt_configs["micro"]
    action = ("req = json.loads(line); sys.stdout.write(json.dumps("
              "{'ok': True, 'result': [[-1.0]] * len(req['prompts'])} if req['op'] == 'logprobs' "
              "else {'ok': False, 'error': 'unknown op ' + req['op']}) + '\\n'); "
              "sys.stdout.flush()")
    info = {k: v for k, v in _GEN_INFO.items() if k != "max_batch"}
    backend = SubprocessBackend(_fake_server(tmp_path, action=action, info=info))
    try:
        assert backend._max_batch == 1
        run = evaluate(backend, manifest, config)
    finally:
        backend.close()
    assert run.skip_count == 0 and len(run.records) == 4
    assert {r.predicted_index for r in run.records} == {0}


@pytest.mark.parametrize("job, error", [
    ({"op": "batch", "jobs": []}, "'batch' cannot be a batch job"),
    ({"op": "info"}, "'info' cannot be a batch job"),
    ({"op": "shutdown"}, "'shutdown' cannot be a batch job"),
    ({"op": "nope"}, "unknown op 'nope'"),
    ({"op": "logprobs", "prompts": ["a"]}, "'image_ref'"),
])
def test_batch_answers_each_job_as_if_sent_alone(job, error):
    pair = _PipePair(SeededLogprobBackend(seed=4))
    good = {"op": "logprobs", "image_ref": "img", "prompts": ["a", "b"]}
    try:
        replies = pair.client._call({"op": "batch", "jobs": [good, job, good]})
        alone = pair.client.option_token_logprobs("img", ["a", "b"])
        # the server keeps serving after a batch holding a bad job
        assert pair.client._call({"op": "batch", "jobs": []}) == []
    finally:
        pair.close()
    assert replies[0] == replies[2] == {"ok": True, "result": alone}
    assert replies[1]["ok"] is False and error in replies[1]["error"]


# ---------------------------------------------------------------------------
# The embedding family on the batch op: each distinct image and prompt list
# per dataset, max_batch jobs to a line.

def _embedding_jobs(world, ds_id, deterministic=True):
    """The embedding jobs one evaluate call makes on a dataset: each
    query's image, then its prompt list, each distinct one once when the
    backend is deterministic."""
    config = world.prompt_configs[ds_id]
    jobs = []
    for sample in world.datasets[ds_id].samples:
        for variant in prompt_variants(config):
            jobs += [("img", sample.image_ref),
                     ("txt", tuple(closed_prompt_set(sample, config, variant)))]
    return list(dict.fromkeys(jobs)) if deterministic else jobs


@pytest.mark.parametrize("max_batch", [wire.MAX_BATCH, 7])
def test_embedding_round_trips_are_info_one_batch_per_max_batch_jobs_and_shutdown(
        max_batch, monkeypatch):
    monkeypatch.setattr(wire, "MAX_BATCH", max_batch)
    world = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=10,
                                              question_forms=2, seed=5))
    ops = []
    call = WireBackendClient._call

    def counting(self, req):
        ops.append((req["op"], len(req.get("jobs", ()))))
        return call(self, req)

    monkeypatch.setattr(WireBackendClient, "_call", counting)
    pair = _PipePair(SeededEmbeddingBackend(seed=1, dim=4))
    try:
        runs = _evaluate_all(pair.client, world)
    finally:
        pair.close()
    assert [len(run.records) for run in runs] == [20, 20]
    batches = []
    for ds_id in world.datasets:
        n = len(_embedding_jobs(world, ds_id))
        assert n == 12  # 10 images and 2 prompt lists
        batches += [("batch", min(max_batch, n - start)) for start in range(0, n, max_batch)]
    assert len(batches) == sum(math.ceil(12 / max_batch) for _ in world.datasets)
    assert ops == [("info", 0)] + batches + [("shutdown", 0)]


# Serves the seeded embedding mock on plain ops only: ``info`` carries no
# ``max_batch``, any other op is an error, and every request line is copied
# to LOG as received.
_UNBATCHED_EMBEDDING_SERVER = """\
import json, sys
from taskrouter.scoring import SeededEmbeddingBackend

backend = SeededEmbeddingBackend(seed=__SEED__, dim=4)
log = open(__LOG__, "a")
for line in sys.stdin:
    log.write(line)
    log.flush()
    req = json.loads(line)
    if req["op"] == "info":
        reply = {"ok": True, "result": {"name": "seeded-embed", "family": "embedding",
                                        "deterministic": __DETERMINISTIC__}}
    elif req["op"] == "embed_image":
        reply = {"ok": True, "result": [float(x) for x in backend.embed_image(req["image_ref"])]}
    elif req["op"] == "embed_texts":
        mat = backend.embed_texts(req["prompts"])
        reply = {"ok": True, "result": [[float(x) for x in row] for row in mat]}
    elif req["op"] == "shutdown":
        break
    else:
        reply = {"ok": False, "error": "unknown op " + req["op"]}
    sys.stdout.write(json.dumps(reply) + "\\n")
    sys.stdout.flush()
"""


@pytest.mark.parametrize("deterministic", [True, False])
def test_server_without_max_batch_gets_the_plain_embedding_lines(deterministic, tmp_path,
                                                                  spawned):
    # the same world is scored by evaluate and by the query-by-query loop,
    # each through its own server; both servers must read the same bytes
    world = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=15,
                                              question_forms=2, seed=5))
    logs = {}
    for name in ("batched", "looped"):
        logs[name] = tmp_path / f"{name}.log"
        script = tmp_path / f"{name}.py"
        script.write_text(_UNBATCHED_EMBEDDING_SERVER.replace("__SEED__", "2")
                          .replace("__LOG__", repr(str(logs[name])))
                          .replace("__DETERMINISTIC__", repr(deterministic)))
        backend = SubprocessBackend([sys.executable, str(script)])
        try:
            assert backend._max_batch == 1 and backend.info.deterministic is deterministic
            for ds_id, manifest in world.datasets.items():
                config = world.prompt_configs[ds_id]
                if name == "batched":
                    run = evaluate(backend, manifest, config)
                    assert run.skip_count == 0 and len(run.records) == 30
                else:
                    queries = [(s, v) for s in manifest.samples for v in prompt_variants(config)]
                    query_by_query_embedding_outcomes(backend, config, queries)
        finally:
            backend.close()
    sent = logs["batched"].read_bytes()
    assert sent == logs["looped"].read_bytes()
    lines = sent.splitlines()
    jobs = sum(len(_embedding_jobs(world, ds, deterministic)) for ds in world.datasets)
    assert len(lines) == 1 + jobs + 1  # info, the jobs, shutdown
    assert not any(b'"batch"' in line for line in lines)
    assert _reaped(spawned)


@pytest.mark.parametrize("kind", ["gold", "seeded"])
@pytest.mark.parametrize("max_batch", [wire.MAX_BATCH, 5])
def test_embedding_records_are_the_same_in_process_and_over_the_wire(kind, max_batch,
                                                                      monkeypatch, tmp_path):
    monkeypatch.setattr(wire, "MAX_BATCH", max_batch)
    world = generate_world(keyword_world_spec(n_datasets=2, samples_per_dataset=40,
                                              question_forms=2, seed=9))
    inner = make_mock_backend(kind, "embedding", seed=3, manifests=world.datasets.values(),
                              dim=4)
    direct = _run_records(_evaluate_all(inner, world), tmp_path / "direct.jsonl")
    pair = _PipePair(inner)
    try:
        runs = _evaluate_all(pair.client, world)
    finally:
        pair.close()
    assert sum(run.skip_count for run in runs) == 0
    assert _run_records(runs, tmp_path / "wired.jsonl") == direct
    assert len(direct.splitlines()) == 160


_EMBED_INFO = {"name": "fake", "family": "embedding", "deterministic": True, "max_batch": 2}
# answer each job of a batch: the image as e_0, each prompt as e_0
_ANSWER_EMBED_BATCH = ("reply([{'ok': True, 'result': [1.0, 0.0] if job['op'] == 'embed_image' "
                       "else [[1.0, 0.0]] * len(job['prompts'])} "
                       "for job in json.loads(line)['jobs']])")


def test_server_dying_mid_embedding_batch_skips_that_batch_and_the_rest(spawned, tmp_path):
    world = make_micro_world(n_samples=6, models=("only",))
    manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
    # jobs: s0, both prompt lists, s1, ..., s5; the first batch (s0 and one
    # prompt list) is answered and the server dies on the second
    action = ("if globals().get('answered'): sys.stderr.write('fake model lost\\n'); sys.exit(3)\n"
              f"        answered = True; {_ANSWER_EMBED_BATCH}")
    backend = SubprocessBackend(_fake_server(tmp_path, action=action, info=_EMBED_INFO))
    try:
        run = evaluate(backend, manifest, config)
    finally:
        backend.close()
    variants = [v.variant_id for v in prompt_variants(config)]
    assert [(r.sample_id, r.prompt_variant_id) for r in run.records] == [("s0", variants[0])]
    assert len(run.skipped) == 11
    assert run.skipped[0].sample_id == "s0" and run.skipped[0].prompt_variant_id == variants[1]
    errors = {n.error for n in run.skipped}
    assert len(errors) == 1 and "closed the channel" in errors.pop()
    assert spawned[0].returncode == 3


@pytest.mark.parametrize("result", ["[{'ok': True, 'result': [1.0]}]",
                                    "[{'ok': True, 'result': [1.0]}, 7]",
                                    "[{'ok': True, 'result': [1.0]}, {'ok': True}]",
                                    "{'ok': True}", "[1.0, 0.0]"])
def test_malformed_embedding_batch_reply_breaks_the_channel(result, spawned, tmp_path):
    backend = SubprocessBackend(_fake_server(tmp_path, action=f"reply({result})",
                                             info=_EMBED_INFO))
    jobs = [("embed_image", "a"), ("embed_texts", ("x", "y"))]
    for _ in range(2):  # broken for good: the next call fails the same way
        outcomes = backend.run_many(jobs)
        assert len(outcomes) == 2
        assert all(isinstance(o, BackendError) and "malformed wire response" in str(o)
                   for o in outcomes)
    with pytest.raises(BackendError, match="malformed wire response"):
        backend.embed_image("a")
    backend.close()
    assert _reaped(spawned)


def test_embedding_retry_contract_holds_over_the_wire(monkeypatch):
    world = make_micro_world(n_samples=6, models=("only",))
    manifest, config = world.datasets["micro"], world.prompt_configs["micro"]
    reqs = []
    call = WireBackendClient._call

    def recording(self, req):
        reqs.append(req)
        return call(self, req)

    monkeypatch.setattr(WireBackendClient, "_call", recording)
    inner = GoldEmbeddingBackend(gold_index_by_ref([manifest]), dim=2, name="only")
    pair = _PipePair(FlakyBackend(inner, failing_refs={"micro/s0", "micro/s3"}))
    try:
        run = evaluate(pair.client, manifest, config)
    finally:
        pair.close()
    variants = [v.variant_id for v in prompt_variants(config)]
    assert sorted((n.sample_id, n.prompt_variant_id) for n in run.skipped) == sorted(
        (sample_id, v) for sample_id in ("s0", "s3") for v in variants)
    assert {n.error for n in run.skipped} == {
        "simulated failure for micro/s0", "simulated failure for micro/s3"}
    assert list(run.records) == [r for r in evaluate(inner, manifest, config).records
                                 if r.sample_id not in ("s0", "s3")]
    # each failing image is asked once in the batch, and once more, on a
    # plain line, for its second variant
    assert [r["op"] for r in reqs] == ["info", "batch", "embed_image", "embed_image", "shutdown"]
    batch_refs = [job.get("image_ref") for job in reqs[1]["jobs"]]
    assert batch_refs.count("micro/s0") == batch_refs.count("micro/s3") == 1
    assert sorted(r["image_ref"] for r in reqs[2:4]) == ["micro/s0", "micro/s3"]


# Serves BACKEND, a seeded mock, except that the first answer to each job
# in WRONG (JSON text of an object keyed by its request's JSON) is WRONG's
# result; a job asked again gets the mock's answer.
_WRONG_SHAPE_SERVER = """\
import json, sys
from taskrouter.scoring import SeededEmbeddingBackend, SeededLogprobBackend
from taskrouter.wire import _answer

backend = __BACKEND__
wrong = json.loads(__WRONG__)

def answer(req):
    result = wrong.pop(json.dumps(req, sort_keys=True), None)
    return _answer(backend, req) if result is None else {"ok": True, "result": result}

for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "shutdown":
        break
    reply = ({"ok": True, "result": [answer(job) for job in req["jobs"]]}
             if req["op"] == "batch" else answer(req))
    sys.stdout.write(json.dumps(reply) + "\\n")
    sys.stdout.flush()
"""


def _wrong_shape_server(backend: str, wrong: dict) -> str:
    return (_WRONG_SHAPE_SERVER.replace("__BACKEND__", backend)
            .replace("__WRONG__", repr(json.dumps(wrong))))


def test_wrong_shape_embedding_results_skip_only_their_queries(spawned, tmp_path):
    world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=6,
                                              question_forms=2))
    (ds_id, manifest), = world.datasets.items()
    config = world.prompt_configs[ds_id]
    first, last = manifest.samples[0], manifest.samples[-1]
    v0 = prompt_variants(config)[0]
    prompts = closed_prompt_set(first, config, v0)
    wrong = {  # a matrix for an image, ragged rows for a prompt list
        json.dumps({"op": "embed_image", "image_ref": last.image_ref}, sort_keys=True):
            [[1.0, 0.0, 0.0, 0.0]] * 2,
        json.dumps({"op": "embed_texts", "prompts": prompts}, sort_keys=True):
            [[1.0, 0.0, 0.0, 0.0]] * (len(prompts) - 1) + [[1.0]],
    }
    script = tmp_path / "server.py"
    script.write_text(_wrong_shape_server("SeededEmbeddingBackend(seed=2, dim=4)", wrong))
    backend = SubprocessBackend([sys.executable, str(script)])
    try:
        run = evaluate(backend, manifest, config)
    finally:
        backend.close()
    (ragged, matrix) = run.skipped
    assert (ragged.sample_id, ragged.prompt_variant_id) == (first.sample_id, v0.variant_id)
    assert ragged.error.startswith("embed_texts result is not a 2-D array: ")
    assert (matrix.sample_id, matrix.prompt_variant_id) == (last.sample_id, v0.variant_id)
    assert matrix.error == ("embed_image result must be a 1-D array of reals, "
                            "got shape (2, 4) of float64")
    skipped = {(n.sample_id, n.prompt_variant_id) for n in run.skipped}
    expected = evaluate(SeededEmbeddingBackend(seed=2, dim=4), manifest, config).records
    assert list(run.records) == [r for r in expected
                                 if (r.sample_id, r.prompt_variant_id) not in skipped]
    assert len(run.records) == len(expected) - 2
    assert _reaped(spawned)


def test_wrong_shape_logprob_results_skip_only_their_queries(spawned, tmp_path):
    # a bool, a dict, a ragged row and a JSON NaN, each in one query's answer
    world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=6,
                                              question_forms=2))
    (ds_id, manifest), = world.datasets.items()
    config = world.prompt_configs[ds_id]
    v0 = prompt_variants(config)[0]
    samples = manifest.samples[:4]
    wrong_rows = [
        lambda n: [[True]] * n,
        lambda n: [{"a": 1}] + [[-1.0]] * (n - 1),
        lambda n: [[-1.0, [-2.0]]] + [[-1.0]] * (n - 1),
        lambda n: [[-1.0, math.nan]] * n,
    ]
    wrong = {}
    for sample, rows in zip(samples, wrong_rows):
        prompts = closed_prompt_set(sample, config, v0)
        request = {"op": "logprobs", "image_ref": sample.image_ref, "prompts": prompts}
        wrong[json.dumps(request, sort_keys=True)] = rows(len(prompts))
    script = tmp_path / "server.py"
    script.write_text(_wrong_shape_server("SeededLogprobBackend(seed=2)", wrong))
    backend = SubprocessBackend([sys.executable, str(script)])
    try:
        run = evaluate(backend, manifest, config)
    finally:
        backend.close()
    assert [(n.sample_id, n.prompt_variant_id) for n in run.skipped] == \
        [(s.sample_id, v0.variant_id) for s in samples]
    assert [n.error for n in run.skipped] == [
        "logprobs result row 0 must hold finite reals, got bool in a row of 1",
        "logprobs result row 0 must be a non-empty list of reals, got dict",
        "logprobs result row 0 must hold finite reals, got a list of 1 in a row of 2",
        "logprobs result row 0 must hold finite reals, got nan in a row of 2",
    ]
    skipped = {(n.sample_id, n.prompt_variant_id) for n in run.skipped}
    expected = evaluate(SeededLogprobBackend(seed=2), manifest, config).records
    assert list(run.records) == [r for r in expected
                                 if (r.sample_id, r.prompt_variant_id) not in skipped]
    assert len(run.records) == len(expected) - 4
    assert _reaped(spawned)


def test_non_finite_embedding_results_skip_only_their_queries(spawned, tmp_path):
    # JSON NaN, Infinity and 1e400 decode as floats; an embedding holding
    # one is refused like a logprob row holding one
    world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=6,
                                              question_forms=2))
    (ds_id, manifest), = world.datasets.items()
    config = world.prompt_configs[ds_id]
    first, last = manifest.samples[0], manifest.samples[-1]
    v0 = prompt_variants(config)[0]
    prompts = closed_prompt_set(first, config, v0)
    wrong = {
        json.dumps({"op": "embed_texts", "prompts": prompts}, sort_keys=True):
            [[math.nan, 1.0, 0.0, 0.0], [2.0, math.inf, 0.0, 0.0]]
            + [[1.0, 0.0, 0.0, 0.0]] * (len(prompts) - 2),
        json.dumps({"op": "embed_image", "image_ref": last.image_ref}, sort_keys=True):
            [1.0, -math.inf, 0.0, 0.0],
    }
    script = tmp_path / "server.py"
    script.write_text(_wrong_shape_server("SeededEmbeddingBackend(seed=2, dim=4)", wrong))
    backend = SubprocessBackend([sys.executable, str(script)])
    try:
        run = evaluate(backend, manifest, config)
    finally:
        backend.close()
    assert [(n.sample_id, n.prompt_variant_id, n.error) for n in run.skipped] == [
        (first.sample_id, v0.variant_id, "embed_texts result must hold finite reals, got nan"),
        (last.sample_id, v0.variant_id, "embed_image result must hold finite reals, got -inf"),
    ]
    skipped = {(n.sample_id, n.prompt_variant_id) for n in run.skipped}
    expected = evaluate(SeededEmbeddingBackend(seed=2, dim=4), manifest, config).records
    assert list(run.records) == [r for r in expected
                                 if (r.sample_id, r.prompt_variant_id) not in skipped]
    assert _reaped(spawned)


@pytest.mark.parametrize("op, ndim", [("embed_image", 1), ("embed_texts", 2)])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_embedding_decoders_refuse_non_finite_values(op, ndim, bad):
    result = [1.0, bad] if ndim == 1 else [[1.0, 2.0], [3.0, bad]]
    decode = wire._JOBS[op][2]
    with pytest.raises(BackendError, match=f"^{op} result must hold finite reals, got "):
        decode(json.loads(json.dumps(result)))
    assert decode([1e308, -2] if ndim == 1 else [[1e308], [-2]]).dtype == np.float64


class _NonFiniteBackend:
    """A seeded backend whose answers to one image ref, and for the
    embedding family to one prompt list, hold ``value``."""

    def __init__(self, family, value, image_ref, prompts=None):
        self._inner = make_mock_backend("seeded", family, seed=2, dim=4, name="only")
        self.info = self._inner.info
        self._value, self._ref, self._prompts = value, image_ref, prompts

    def embed_image(self, image_ref):
        v = self._inner.embed_image(image_ref)
        if image_ref == self._ref:
            v[2] = self._value
        return v

    def embed_texts(self, prompts):
        m = self._inner.embed_texts(prompts)
        if list(prompts) == self._prompts:
            m[1, 0] = self._value
        return m

    def option_token_logprobs(self, image_ref, prompts):
        rows = self._inner.option_token_logprobs(image_ref, prompts)
        if image_ref == self._ref:
            rows[1][3] = self._value
        return rows


@pytest.mark.parametrize("family", ["embedding", "generative"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_answers_are_the_same_skips_in_process_and_over_the_wire(family, value):
    # in process, argmax would pick a NaN-scored option, and max() an
    # option by its position; both paths skip the query with the wire's error
    world = generate_world(keyword_world_spec(n_datasets=1, samples_per_dataset=6,
                                              question_forms=2))
    (ds_id, manifest), = world.datasets.items()
    config = world.prompt_configs[ds_id]
    first, last = manifest.samples[0], manifest.samples[-1]
    v0, v1 = prompt_variants(config)
    prompts = closed_prompt_set(first, config, v0)  # every sample's, under v0
    backend = _NonFiniteBackend(family, value, last.image_ref, prompts)
    direct = evaluate(backend, manifest, config)
    pair = _PipePair(backend)
    try:
        wired = evaluate(pair.client, manifest, config)
    finally:
        pair.close()
    if family == "embedding":
        # the image is taken, and refused, before the prompt list
        expected = [(s.sample_id, v0.variant_id, f"embed_texts result must hold finite reals, "
                                                 f"got {value!r}") for s in manifest.samples[:-1]]
        expected += [(last.sample_id, v.variant_id, f"embed_image result must hold finite "
                                                    f"reals, got {value!r}") for v in (v0, v1)]
    else:
        expected = [(last.sample_id, v.variant_id, f"logprobs result row 1 must hold finite "
                                                   f"reals, got {value!r} in a row of 4")
                    for v in (v0, v1)]
    for run in (direct, wired):
        assert [(n.sample_id, n.prompt_variant_id, n.error) for n in run.skipped] == expected
    skipped = {(sample_id, variant_id) for sample_id, variant_id, _ in expected}
    clean = evaluate(make_mock_backend("seeded", family, seed=2, dim=4, name="only"),
                     manifest, config)
    assert list(direct.records) == list(wired.records) == [
        r for r in clean.records if (r.sample_id, r.prompt_variant_id) not in skipped]
