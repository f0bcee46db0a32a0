"""Line-delimited wire protocol for out-of-process scoring backends.

Each message is one JSON object per line. Requests:

    {"op": "info"}
    {"op": "embed_image", "image_ref": "..."}
    {"op": "embed_texts", "prompts": ["...", ...]}
    {"op": "logprobs", "image_ref": "...", "prompts": ["...", ...]}
    {"op": "batch", "jobs": [<request>, ...]}
    {"op": "shutdown"}

Responses carry {"ok": true, "result": ...} with arrays of reals, or
{"ok": false, "error": "..."}, also for an ``image_ref`` that is not a
string or ``prompts`` that are not a list of strings. The ``info`` result
holds ``name`` (a string), ``family`` (``embedding`` or ``generative``)
and, optionally, ``deterministic`` (a bool, false when absent) and
``max_batch`` (a positive int, 1 when absent).

A ``batch`` is answered with one line whose result holds one reply per job,
in order: each the object that job would get if sent alone, so one failing
job does not fail the others. ``batch``, ``info`` and ``shutdown`` cannot
be jobs. A client sends at most ``max_batch`` jobs per batch, and none to a
server that advertises no ``max_batch``: that server gets the same jobs as
plain lines, one per round trip.

A scoring job is ``(op, *args)``, named by its wire op; ``_JOBS`` maps it
to its request fields. ``evaluate`` hands the client one dataset's jobs at
a time through ``run_many``: one ``logprobs`` job per generative query, or
one ``embed_image`` per image and one ``embed_texts`` per prompt list, each
distinct one once when the server promises ``deterministic``. A dataset
costs ``ceil(jobs / max_batch)`` round trips.

The client waits at most ``REPLY_TIMEOUT_S`` for each request to be taken
and its reply line to come, a whole batch included, so a server picks its
``max_batch`` to answer that many jobs well inside that deadline. The
module can also serve the builtin mock backends on stdio: ``python -m
taskrouter.wire --kind seeded --family embedding --world <dir>``; it
advertises ``MAX_BATCH``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .errors import BackendError, InvalidInputError
from .scoring import EMBEDDING, GENERATIVE, BackendInfo, make_mock_backend, run_job

REPLY_TIMEOUT_S = 60.0  # longest wait for one reply, server start-up included
CLOSE_TIMEOUT_S = 10.0  # longest wait for a server to exit after shutdown
MAX_BATCH = 256  # jobs per batch the builtin server advertises; 1024 was no faster


def serve_backend(backend, rin: IO[str], rout: IO[str]) -> None:
    """Answer wire requests against an in-process backend until shutdown/EOF."""
    for line in rin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
        except ValueError as exc:
            _reply(rout, {"ok": False, "error": str(exc)})
            continue
        if isinstance(req, dict) and req.get("op") == "shutdown":
            _reply(rout, {"ok": True, "result": None})
            return
        _reply(rout, _answer(backend, req))


def _answer(backend, req, in_batch: bool = False) -> dict:
    """The reply object to one request (a job, when ``in_batch``)."""
    try:
        op = req["op"]
        if op in ("batch", "info", "shutdown") and in_batch:
            raise BackendError(f"op {op!r} cannot be a batch job")
        if op in _JOBS:
            fields, encode, _ = _JOBS[op]
            result = encode(run_job(backend, [_field(req, f) for f in fields]))
        elif op == "batch":
            if not isinstance(req["jobs"], list):
                raise BackendError("batch field 'jobs' must be a list")
            result = [_answer(backend, job, in_batch=True) for job in req["jobs"]]
        elif op == "info":
            info: BackendInfo = backend.info
            result = {
                "name": info.name,
                "family": info.family,
                "deterministic": info.deterministic,
                "max_batch": MAX_BATCH,
            }
        else:
            raise BackendError(f"unknown op {op!r}")
    except Exception as exc:  # noqa: BLE001 - protocol errors go on the wire
        return {"ok": False, "error": str(exc)}
    return {"ok": True, "result": result}


def _field(req: dict, name: str):
    """A job request's field, checked: a string ``image_ref`` and a list of
    strings ``prompts``."""
    value = req[name]
    if name == "image_ref" and not isinstance(value, str):
        raise BackendError("field 'image_ref' must be a string")
    if name == "prompts" and not (isinstance(value, list)
                                  and all(isinstance(p, str) for p in value)):
        raise BackendError("field 'prompts' must be a list of strings")
    return value


def _vector(values) -> list[float]:
    return [float(x) for x in values]


def _rows(rows) -> list[list[float]]:
    return [[float(x) for x in row] for row in rows]


def _reals(op: str, ndim: int):
    """The client's reading of an ``op`` result: an array of reals with
    ``ndim`` axes, else BackendError naming the op and the shape."""
    def decode(result) -> np.ndarray:
        try:
            array = np.asarray(result)
        except ValueError as exc:  # a ragged list
            raise BackendError(f"{op} result is not a {ndim}-D array: {exc}") from exc
        if array.ndim != ndim or array.dtype.kind not in "iuf":
            raise BackendError(f"{op} result must be a {ndim}-D array of reals, got shape "
                               f"{array.shape} of {array.dtype}")
        return array.astype(np.float64, copy=False)
    return decode


# Each scoring job ``(op, *args)`` (see ``scoring.run_job``) on the wire: the
# request field that carries each item of the job, in order; how the server
# writes the backend's answer; and how the client reads the reply's result.
_JOBS = {
    "embed_image": (("op", "image_ref"), _vector, _reals("embed_image", 1)),
    "embed_texts": (("op", "prompts"), _rows, _reals("embed_texts", 2)),
    "logprobs": (("op", "image_ref", "prompts"), _rows, lambda result: result),
}


def _request(job: tuple) -> dict:
    return dict(zip(_JOBS[job[0]][0], job))


def _reply(rout: IO[str], payload: dict) -> None:
    rout.write(json.dumps(payload, sort_keys=True) + "\n")
    rout.flush()


class WireBackendClient:
    """Client side of the wire protocol; usable wherever an in-process
    backend is. Not safe for concurrent calls (one request in flight).

    A request the server does not take, or a reply that does not come,
    within ``REPLY_TIMEOUT_S``, a closed channel or a line that is not a
    reply object raises ``BackendError`` and breaks the channel: every later
    call raises too, because a late or extra line would be taken as the
    reply to the next request."""

    def __init__(self, rin: IO[str], rout: IO[str]):
        # both ends are used through their descriptors, never through the
        # file objects: a reply held in ``rin``'s buffer would not wake
        # poll(), and a blocking write to a server that stopped reading
        # would wait without bound
        self._rin = rin
        self._rout = rout
        self._fd = rin.fileno()
        self._out_fd = rout.fileno()
        os.set_blocking(self._out_fd, False)
        self._poll = select.poll()
        self._poll.register(self._fd, select.POLLIN)
        self._out_poll = select.poll()
        self._out_poll.register(self._out_fd, select.POLLOUT)
        self._pending = bytearray()  # bytes received after the last reply line
        self._broken: str | None = None
        self.info, self._max_batch = _parse_info(self._call({"op": "info"}))

    def _call(self, req: dict):
        if self._broken is not None:
            raise BackendError(self._broken)
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        self._send((json.dumps(req, sort_keys=True) + "\n").encode("utf-8"), deadline)
        line = self._read_line(deadline)
        try:
            resp = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise self._break(f"malformed wire response: {exc}") from exc
        if not _is_reply(resp):
            raise self._break(f"malformed wire response: {bytes(line[:200])!r}")
        if resp["ok"] is not True:
            raise _error(resp)
        return resp["result"]

    def _send(self, data: bytes, deadline: float) -> None:
        view = memoryview(data)
        while True:
            try:
                view = view[os.write(self._out_fd, view):]
            except BlockingIOError:
                pass
            except OSError as exc:
                raise self._break(f"wire backend closed the channel ({exc})") from exc
            if not view:
                return
            if not self._out_poll.poll(_wait_ms(deadline)):
                raise self._break(f"wire backend took no request within {REPLY_TIMEOUT_S} s")

    def _read_line(self, deadline: float) -> bytearray:
        scanned = 0  # no newline before this offset
        while (end := self._pending.find(b"\n", scanned)) < 0:
            scanned = len(self._pending)
            if not self._poll.poll(_wait_ms(deadline)):
                raise self._break(f"wire backend sent no reply within {REPLY_TIMEOUT_S} s")
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                raise self._break("wire backend closed the channel")
            self._pending += chunk
        line = self._pending[:end]
        del self._pending[:end + 1]
        return line

    def _break(self, message: str) -> BackendError:
        """Mark the channel unusable and return the error to raise."""
        self._broken = message
        return BackendError(message)

    def embed_image(self, image_ref: str) -> np.ndarray:
        return self._one(("embed_image", image_ref))

    def embed_texts(self, prompts: Sequence[str]) -> np.ndarray:
        return self._one(("embed_texts", list(prompts)))

    def option_token_logprobs(self, image_ref: str, prompts: Sequence[str]):
        return self._one(("logprobs", image_ref, list(prompts)))

    def _one(self, job: tuple):
        return _JOBS[job[0]][2](self._call(_request(job)))

    def run_many(self, jobs: Sequence[tuple]) -> list:
        """The answer to each scoring job, as ``scoring.run_job`` on this
        client returns it, or the exception it failed with, in job order
        (see ``_many``)."""
        out = []
        for job, result in zip(jobs, self._many([_request(job) for job in jobs])):
            try:
                out.append(result if isinstance(result, BackendError)
                           else _JOBS[job[0]][2](result))
            except BackendError as exc:
                out.append(exc)
        return out

    def _many(self, reqs: list[dict]) -> list:
        """The result of each request, or the ``BackendError`` it failed
        with, in request order. Requests go ``max_batch`` to a ``batch``
        line, or one to a plain line when the server advertises no
        ``max_batch``. When the channel breaks, every request of the batch
        in flight and after it fails."""
        size = self._max_batch
        out = []
        for start in range(0, len(reqs), size):
            chunk = reqs[start:start + size]
            try:
                out.extend(self._batch(chunk) if size > 1 else [self._call(chunk[0])])
            except BackendError as exc:
                out.extend([exc] * len(chunk))
        return out

    def _batch(self, reqs: list[dict]) -> list:
        replies = self._call({"op": "batch", "jobs": reqs})
        if not (isinstance(replies, list) and len(replies) == len(reqs)
                and all(_is_reply(r) for r in replies)):
            raise self._break(f"malformed wire response: a batch of {len(reqs)} jobs "
                              f"answered with {str(replies)[:200]}")
        return [r["result"] if r["ok"] is True else _error(r) for r in replies]

    def shutdown(self) -> None:
        try:
            self._call({"op": "shutdown"})
        except BackendError:
            pass


def _wait_ms(deadline: float) -> int:
    return max(0, round((deadline - time.monotonic()) * 1000))


def _is_reply(obj) -> bool:
    """A reply object: ``ok`` true with a ``result``, or ``ok`` not true."""
    return isinstance(obj, dict) and "ok" in obj and (obj["ok"] is not True or "result" in obj)


def _error(reply: dict) -> BackendError:
    return BackendError(str(reply.get("error", "wire backend error")))


def _parse_info(d) -> tuple[BackendInfo, int]:
    """The ``info`` reply, checked field by field, and its ``max_batch``."""
    if not isinstance(d, dict):
        raise BackendError(f"info reply must be an object, got {d!r}")
    if not isinstance(d.get("name"), str):
        raise BackendError(f"info field 'name' must be a string, got {d.get('name')!r}")
    if d.get("family") not in (EMBEDDING, GENERATIVE):
        raise BackendError(f"info field 'family' must be {EMBEDDING!r} or "
                           f"{GENERATIVE!r}, got {d.get('family')!r}")
    deterministic = d.get("deterministic", False)
    if not isinstance(deterministic, bool):
        raise BackendError(
            f"info field 'deterministic' must be true or false, got {deterministic!r}")
    max_batch = d.get("max_batch", 1)
    if type(max_batch) is not int or max_batch < 1:
        raise BackendError(
            f"info field 'max_batch' must be a positive integer, got {max_batch!r}")
    info = BackendInfo(name=d["name"], family=d["family"], deterministic=deterministic)
    return info, max_batch


class SubprocessBackend(WireBackendClient):
    """Spawn a backend server command and speak the wire protocol over its
    stdio.

    The server's stderr goes to an unnamed temporary file (a pipe nobody
    reads could fill and stall a chatty server), and its tail is added to
    the ``BackendError`` when the channel fails."""

    def __init__(self, command: Sequence[str]):
        command = list(command)
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
            )
        except OSError as exc:
            self._stderr.close()
            raise BackendError(f"cannot start wire backend {command}: {exc}") from exc
        try:
            super().__init__(self._proc.stdout, self._proc.stdin)
        except BaseException:
            self._proc.kill()
            self._release()
            raise

    def _break(self, message: str) -> BackendError:
        self._stderr.seek(0, os.SEEK_END)
        self._stderr.seek(max(0, self._stderr.tell() - 2000))
        tail = self._stderr.read().decode("utf-8", "replace").strip()
        return super()._break(f"{message}; server stderr: {tail}" if tail else message)

    def close(self) -> None:
        """Shut the server down and reap it. A server that has not exited
        ``CLOSE_TIMEOUT_S`` after its stdin closes is killed, and
        ``BackendError`` raised."""
        self.shutdown()
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # the server is gone; _release reaps it
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            raise self._break(
                f"wire backend did not exit within {CLOSE_TIMEOUT_S} s of shutdown; killed it"
            ) from None
        finally:
            self._release()

    def _release(self) -> None:
        """Reap the server and close every file shared with it."""
        self._proc.wait()
        for fh in (self._proc.stdin, self._proc.stdout, self._stderr):
            try:
                fh.close()
            except OSError:
                pass


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve a builtin mock backend over stdio."
    )
    parser.add_argument("--kind", default="seeded",
                        choices=["gold", "constant", "seeded"])
    parser.add_argument("--family", default=EMBEDDING,
                        choices=[EMBEDDING, GENERATIVE])
    parser.add_argument("--name", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=128)
    parser.add_argument("--world", default=None,
                        help="world directory (required for the gold mock)")
    args = parser.parse_args(argv)

    manifests = None
    if args.world is not None:
        from .core import load_manifests

        manifests = load_manifests(Path(args.world) / "datasets.jsonl")
    try:
        backend = make_mock_backend(
            args.kind, args.family, name=args.name, seed=args.seed,
            manifests=manifests, dim=args.dim,
        )
    except InvalidInputError as exc:
        print(json.dumps({"ok": False, "error": str(exc)}), file=sys.stderr)
        return 2
    serve_backend(backend, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
