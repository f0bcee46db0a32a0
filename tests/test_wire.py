"""Wire protocol: client/server round trips, error propagation, and the
stdio server subprocess."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from taskrouter import BackendError
from taskrouter.core import aggregate_accuracy, save_world
from taskrouter.scoring import (
    GoldEmbeddingBackend,
    SeededLogprobBackend,
    evaluate,
    gold_index_by_ref,
)
from taskrouter import wire
from taskrouter.wire import SubprocessBackend, WireBackendClient, serve_backend

from conftest import make_micro_world


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
    table = aggregate_accuracy(wired.records)
    assert table.marginal("only", "micro") == 1.0


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
