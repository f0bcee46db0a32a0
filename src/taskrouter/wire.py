"""Line-delimited wire protocol for out-of-process scoring backends.

Each message is one JSON object per line. Requests:

    {"op": "info"}
    {"op": "embed_image", "image_ref": "..."}
    {"op": "embed_texts", "prompts": ["...", ...]}
    {"op": "logprobs", "image_ref": "...", "prompts": ["...", ...]}
    {"op": "shutdown"}

Responses carry {"ok": true, "result": ...} with arrays of reals, or
{"ok": false, "error": "..."}. The module can also serve the builtin mock
backends on stdio: ``python -m taskrouter.wire --kind seeded --family
embedding --world <dir>``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import IO, Sequence

import numpy as np

from .errors import BackendError, InvalidInputError
from .scoring import EMBEDDING, GENERATIVE, BackendInfo, make_mock_backend


def serve_backend(backend, rin: IO[str], rout: IO[str]) -> None:
    """Answer wire requests against an in-process backend until shutdown/EOF."""
    for line in rin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
            op = req["op"]
            if op == "shutdown":
                _reply(rout, {"ok": True, "result": None})
                return
            if op == "info":
                info: BackendInfo = backend.info
                result = {
                    "name": info.name,
                    "family": info.family,
                    "deterministic": info.deterministic,
                }
            elif op == "embed_image":
                result = [float(x) for x in backend.embed_image(req["image_ref"])]
            elif op == "embed_texts":
                mat = backend.embed_texts(req["prompts"])
                result = [[float(x) for x in row] for row in mat]
            elif op == "logprobs":
                lps = backend.option_token_logprobs(req["image_ref"], req["prompts"])
                result = [[float(x) for x in row] for row in lps]
            else:
                raise BackendError(f"unknown op {op!r}")
            _reply(rout, {"ok": True, "result": result})
        except Exception as exc:  # noqa: BLE001 - protocol errors go on the wire
            _reply(rout, {"ok": False, "error": str(exc)})


def _reply(rout: IO[str], payload: dict) -> None:
    rout.write(json.dumps(payload, sort_keys=True) + "\n")
    rout.flush()


class WireBackendClient:
    """Client side of the wire protocol; usable wherever an in-process
    backend is. Not safe for concurrent calls (one request in flight)."""

    def __init__(self, rin: IO[str], rout: IO[str]):
        self._rin = rin
        self._rout = rout
        d = self._call({"op": "info"})
        self.info = BackendInfo(
            name=d["name"],
            family=d["family"],
            deterministic=d.get("deterministic", True),
        )

    def _call(self, req: dict):
        self._rout.write(json.dumps(req, sort_keys=True) + "\n")
        self._rout.flush()
        line = self._rin.readline()
        if not line:
            raise BackendError("wire backend closed the channel")
        try:
            resp = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BackendError(f"malformed wire response: {exc}") from exc
        if not resp.get("ok"):
            raise BackendError(resp.get("error", "wire backend error"))
        return resp["result"]

    def embed_image(self, image_ref: str) -> np.ndarray:
        return np.asarray(self._call({"op": "embed_image", "image_ref": image_ref}),
                          dtype=np.float64)

    def embed_texts(self, prompts: Sequence[str]) -> np.ndarray:
        result = self._call({"op": "embed_texts", "prompts": list(prompts)})
        return np.asarray(result, dtype=np.float64)

    def option_token_logprobs(self, image_ref: str, prompts: Sequence[str]):
        return self._call(
            {"op": "logprobs", "image_ref": image_ref, "prompts": list(prompts)}
        )

    def shutdown(self) -> None:
        try:
            self._call({"op": "shutdown"})
        except BackendError:
            pass


class SubprocessBackend(WireBackendClient):
    """Spawn a backend server command and speak the wire protocol over its
    stdio."""

    def __init__(self, command: Sequence[str]):
        self._proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        super().__init__(self._proc.stdout, self._proc.stdin)

    def close(self) -> None:
        self.shutdown()
        self._proc.stdin.close()
        self._proc.wait(timeout=10)


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
        from .core import load_world

        manifests = list(load_world(args.world).datasets.values())
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
