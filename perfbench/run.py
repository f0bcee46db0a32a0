"""taskrouter benchmark.

Run from the root of a source checkout (the package is imported from
./src, never from site-packages):

    python3 perfbench/run.py --workload lodo-keyword --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
Details (every sample, the environment, per-flow span breakdown, the
validation curves) go to ``.perfbench_out/<workload>-seed<n>-trace<t>.json``.
See perfbench/README.md for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from layers import percentile
from pipeline import Ledger, Pipeline, Shape, Workload
from speed import Calibrator

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_digests.json"
OUT = Path(".perfbench_out")
SETUPS = 3  # set-ups per run; setup_s is their median

PROBE = Shape(datasets=4, samples=100, forms=2)
WIDE = Shape(datasets=16, samples=250, forms=2)
WORKLOADS = {
    # the criterion-6 LODO world: 4 datasets x 250 samples, paired keywords
    "lodo-keyword": Workload(
        "lodo-keyword", main=Shape(4, 250, 1), probe=PROBE,
        hosts={"lodo": "main", "replay": "probe", "eval": "probe"},
        lodo_budget=(1500, 500), check_lodo_meaning=True),
    "replay-wide": Workload(
        "replay-wide", main=WIDE, probe=PROBE,
        hosts={"lodo": "probe", "replay": "main", "eval": "probe"},
        lodo_budget=(100, 50), check_lodo_meaning=False),
    "eval-wire": Workload(
        "eval-wire", main=WIDE, probe=PROBE,
        hosts={"lodo": "probe", "replay": "probe", "eval": "main"},
        lodo_budget=(100, 50), check_lodo_meaning=False),
}
CANARY_SEED = 20241017
CANARY = Workload("canary", main=Shape(4, 12, 2), probe=Shape(4, 12, 2),
                  hosts={"lodo": "main", "replay": "main", "eval": "main"},
                  lodo_budget=(30, 10), check_lodo_meaning=False)

E2E_UNITS = {
    "setup_s": "s",
    "lodo_s": "s",
    "corpus_s": "s",
    "report_s": "s",
    "route_qps": "1/s",
    "route_p50_us": "us",
    "eval_embed_qps": "1/s",
    "eval_embed_unique_qps": "1/s",
    "eval_embed_wire_qps": "1/s",
    "eval_gen_wire_qps": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def toy(w: Workload) -> Workload:
    """The same workload at a size the self-test runs in seconds."""
    return Workload(w.name, main=Shape(min(w.main.datasets, 6), 12, w.main.forms),
                    probe=Shape(4, 10, 2), hosts=w.hosts, lodo_budget=(20, 10),
                    check_lodo_meaning=False)


def import_package() -> Path:
    """Put ./src first on the import path (for this process and the wire
    server children) and check the package really comes from there."""
    src = (Path.cwd() / "src").resolve()
    if not (src / "taskrouter" / "__init__.py").is_file():
        sys.exit(f"perfbench: no taskrouter sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    import taskrouter

    if not Path(taskrouter.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: imported taskrouter from {taskrouter.__file__}, not {src}")
    return src


def pin_to_one_cpu() -> dict:
    """Run this process and its wire server children on one vCPU, so the
    speed kernel samples the vCPU that does all of the work (vCPUs change
    speed independently of each other)."""
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    return {"cpus_usable": len(usable), "pinned_cpu": min(usable)}


def environment(src: Path) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for p in sorted((src / "taskrouter").rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\x00" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": h.hexdigest(),
    }


def run_canary(root: Path, ledger: Ledger, record: bool) -> dict:
    """Every flow once on a tiny fixed-seed world; its output digests must
    equal the reference digests recorded in reference_digests.json."""
    pipe = Pipeline(CANARY, CANARY_SEED, root / "canary", ledger)
    pipe.setup()
    pipe.iteration()
    if record:
        REFERENCE.write_text(json.dumps(
            {"seed": CANARY_SEED, "digests": pipe.digests}, indent=2, sort_keys=True) + "\n")
        return pipe.digests
    want = json.loads(REFERENCE.read_text())["digests"]
    for key in sorted(set(want) | set(pipe.digests)):
        ledger.check(want.get(key) == pipe.digests.get(key),
                     f"canary digest {key} differs from the reference")
    return pipe.digests


def measure(pipe: Pipeline, seconds: float):
    """Iterations of every flow until the next one would end more than half
    an iteration past ``seconds``; at least one. Also returns the peak RSS
    after the first iteration, which does not depend on how many fit."""
    samples: dict[str, list[float]] = defaultdict(list)
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for key, value in pipe.iteration().items():
            samples[key].append(value)
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + statistics.mean(walls) / 2 > seconds:
            return samples, walls, peak_rss_mb


def end_to_end(pipe: Pipeline, ledger: Ledger, seconds: float, detail: dict) -> dict:
    setups = [pipe.setup() for _ in range(SETUPS)]
    samples, walls, peak_rss_mb = measure(pipe, seconds)
    values = {key: statistics.median(v) for key, v in samples.items()}
    values["setup_s"] = statistics.median(setups)
    values["route_p50_us"] = percentile(pipe.latencies_us, 50)
    values["peak_rss_mb"] = peak_rss_mb
    values["ok_frac"] = 1.0 - ledger.failed / max(ledger.attempted, 1)
    # the tail is kept out of the metrics: on a shared host it follows the
    # host's millisecond stalls more than the program (README)
    detail.update(setups_s=setups, iteration_walls_s=walls, samples=samples,
                  latency_samples=len(pipe.latencies_us),
                  route_p90_us=percentile(pipe.latencies_us, 90),
                  route_p99_us=percentile(pipe.latencies_us, 99),
                  speed_factors=pipe.calibrator.factors)
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}


def per_layer(pipe: Pipeline, detail: dict) -> dict:
    """Traced set-up, then one untraced and one traced iteration. The
    tracing overhead is the traced minus the untraced iteration time, both
    at the reference speed (speed.py), since the host's speed changes more
    between two iterations than tracing does."""
    from layers import KEEP_DURATIONS, LayerObserver, flow_breakdown, layer_metrics, probes
    from tracer import Tracer

    tracer = Tracer(keep_durations=KEEP_DURATIONS)
    obs = LayerObserver(tracer)
    calibrator = Calibrator()

    def traced(fn):
        tracer.install(probes(obs))
        obs.attach()
        pipe.tracer = tracer
        try:
            fn()
        finally:
            pipe.tracer = None
            obs.detach()
            tracer.uninstall()

    traced(pipe.setup)
    with calibrator.stopwatch() as untraced:
        pipe.iteration()
    pipe.folds_failed = pipe.wire_bytes = 0  # count the traced iteration only
    with calibrator.stopwatch() as traced_run:
        traced(pipe.iteration)
    detail.update(untraced_iteration_s=untraced.ref_s, traced_iteration_s=traced_run.ref_s,
                  flows=flow_breakdown(tracer), train_curves=obs.curves)
    return layer_metrics(tracer, obs, pipe, traced_run.ref_s - untraced.ref_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--record-reference", action="store_true",
                        help="run only the canary and write reference_digests.json")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")

    src = import_package()
    pinning = pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    tag = "reference" if args.record_reference else \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    ledger = Ledger()
    detail = {"environment": {**environment(src), **pinning}, "args": vars(args)}
    try:
        run_canary(work, ledger, record=args.record_reference)
        if args.record_reference:
            print(f"wrote {REFERENCE}", file=sys.stderr)
            return 0 if ledger.failed == 0 else 1
        workload = WORKLOADS[args.workload]
        if args.size == "toy":
            workload = toy(workload)
        pipe = Pipeline(workload, args.seed, work / "run", ledger,
                        calibrator=None if args.trace else Calibrator())
        if args.trace:
            metrics = per_layer(pipe, detail)
        else:
            metrics = end_to_end(pipe, ledger, args.seconds, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(metrics=metrics, attempted=ledger.attempted, failed=ledger.failed,
                  problems=ledger.problems)
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for problem in ledger.problems:
        print(f"[perfbench] FAILED {problem}", file=sys.stderr)
    print(json.dumps({"environment": detail["environment"]}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
