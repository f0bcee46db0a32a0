"""What the benchmark runs: synthetic worlds, the set-up, the CLI flows and
stdio-wire scoring, and the checks on every output.

Every flow goes through a public entry point of the package
(``taskrouter.cli.main``, ``scoring.evaluate``, ``wire.SubprocessBackend``,
``RouterModel.load``/``route_text``), one flow at a time, in this process,
with at most one wire server child alive.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from speed import plain_stopwatch

MODELS = ("m0", "m1", "m2", "m3")
OPTIONS = 4  # every world has exactly this many options; the wire --dim
FLAGS = "md=on,ro=on"
PRETRAIN = (200, 100)  # router pre-train in set-up: SGD steps, validate every
LATENCY_CALLS = 4000  # closed-loop route_text calls per iteration
# Short flows on the probe world run this many times per iteration and
# report their median: one run of each is too brief to time steadily.
PROBE_REPEATS = 3
# On the probe world, router route gets its inputs this many times over in
# one call, for the same reason; on the main world every input once.
PROBE_ROUTE_PASSES = 4


@dataclass(frozen=True)
class Shape:
    datasets: int
    samples: int
    forms: int  # question forms per dataset = prompt variants per sample

    @property
    def queries(self) -> int:
        return self.datasets * self.samples * self.forms


@dataclass(frozen=True)
class Workload:
    """One benchmark workload. ``hosts`` names the world each flow group
    runs on: "main" is the world the workload is about, "probe" a small
    world that keeps every end-to-end metric measured at a minor cost."""

    name: str
    main: Shape
    probe: Shape
    hosts: dict  # group ("lodo" | "replay" | "eval") -> "main" | "probe"
    lodo_budget: tuple[int, int]  # SGD steps per fold, validate every
    check_lodo_meaning: bool


def keyword_spec(shape: Shape, seed: int) -> dict:
    """A paired prompt_keyword world: consecutive datasets share their
    competence-1.0 model (and so their prompt keyword); every other model
    is right 30% of the time."""
    competence = {
        model: [1.0 if i == (d // 2) % len(MODELS) else 0.3 for d in range(shape.datasets)]
        for i, model in enumerate(MODELS)
    }
    return {
        "n_datasets": shape.datasets,
        "samples_per_dataset": shape.samples,
        "options_range": [OPTIONS, OPTIONS],
        "competence": competence,
        "signal_mode": "prompt_keyword",
        "question_forms_per_dataset": shape.forms,
        "seed": seed,
    }


def unique_prompt_copy(world):
    """The same world with one unique context value per sample rendered
    into every question, so no prompt repeats across samples."""
    from taskrouter.core import DatasetManifest, World
    from taskrouter.prompts import DatasetPromptConfig, PromptTemplate

    configs, datasets = {}, {}
    for ds_id, cfg in world.prompt_configs.items():
        configs[ds_id] = DatasetPromptConfig(
            dataset_id=cfg.dataset_id,
            question_forms=tuple(PromptTemplate("{ref}: " + q.template_text)
                                 for q in cfg.question_forms),
            option_forms=cfg.option_forms,
            renames=cfg.renames,
            class_names=cfg.class_names,
            context_keys=(*cfg.context_keys, "ref"),
            article_exceptions=cfg.article_exceptions,
        )
        manifest = world.datasets[ds_id]
        datasets[ds_id] = DatasetManifest(
            dataset_id=ds_id,
            task_kind=manifest.task_kind,
            samples=tuple(dataclasses.replace(s, context={**s.context, "ref": s.sample_id})
                          for s in manifest.samples),
            prompt_config_ref=manifest.prompt_config_ref,
        )
    return World(datasets=datasets, prompt_configs=configs, metadata=world.metadata,
                 records=world.records, model_pool=world.model_pool, seed=world.seed)


def tree_digest(path: Path) -> str:
    """sha256 over the relative paths and bytes of every file under path."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(path.parent if path.is_file() else path)).encode())
        h.update(b"\x00")
        h.update(p.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


class Ledger:
    """Operations attempted and failed, with a note for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> bool:
        self.record(1, 0 if ok else 1, what)
        return ok


@dataclass
class CliRun:
    rc: int
    stdout: str
    stderr: str
    seconds: float


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Pipeline:
    """Set-up and one iteration of every flow for a workload and seed.

    Digests of each flow's outputs are kept from its first run; a later
    run that differs is a failed operation (outputs must be byte-identical
    for a seed). ``digests`` is what the canary compares with the
    reference file.
    """

    def __init__(self, workload: Workload, seed: int, root: Path, ledger: Ledger,
                 calibrator=None):
        self.w = workload
        self.seed = seed
        self.root = root
        self.ledger = ledger
        self.calibrator = calibrator
        self._stopwatch = calibrator.stopwatch if calibrator else plain_stopwatch
        self.tracer = None  # set while a traced phase runs
        self.digests: dict[str, str] = {}
        self.folds_failed = 0
        self.wire_bytes = 0
        self.latencies_us: list[float] = []
        self.route_lines: list[str] | None = None
        self.route_choices: list[str] | None = None
        self._router = None
        self._eval_world = None

    # -- helpers ------------------------------------------------------------

    def _dir(self, which: str) -> Path:
        return self.root / "worlds" / which

    def _shape(self, group: str) -> Shape:
        return self.w.main if self.w.hosts[group] == "main" else self.w.probe

    def _world(self, group: str) -> str:
        return str(self._dir(self.w.hosts[group]))

    def _span(self, name: str):
        return self.tracer.span(f"flow.{name}") if self.tracer else nullcontext()

    def _cli(self, name: str, argv: list[str], stdin_text: str | None = None) -> CliRun:
        from taskrouter import cli

        out, err = io.StringIO(), io.StringIO()
        saved_stdin = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            with self._stopwatch() as watch, self._span(name), \
                    redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except (Exception, SystemExit):  # noqa: BLE001 - a crash is a failed operation
            rc = -1
            err.write(traceback.format_exc())
        finally:
            sys.stdin = saved_stdin
        run = CliRun(rc, out.getvalue(), err.getvalue(), watch.ref_s)
        if not self.ledger.check(rc == 0 and not _error_record(run.stderr), f"cli {name}"):
            print(f"[perfbench] {name} exited {rc}: {run.stderr.strip()[-2000:]}",
                  file=sys.stderr)
        return run

    def _same(self, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        self.ledger.check(first == digest, f"digest {key} differs between runs")

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        """Generate and save the worlds, derive the no-repeat copy of the
        eval world and pre-train the replay router. Returns the seconds
        these steps took, at the reference speed when calibrated."""
        from taskrouter.core import load_world, save_world

        shutil.rmtree(self.root / "worlds", ignore_errors=True)
        seconds = 0.0
        for which in sorted(set(self.w.hosts.values())):
            shape = self.w.main if which == "main" else self.w.probe
            spec = _fresh(self.root / "specs" / which) / "spec.json"
            spec.write_text(json.dumps(keyword_spec(shape, self.seed)))
            seconds += self._cli(f"synth_{which}", [
                "--out", str(self._dir(which)), "synth", "generate", "--spec", str(spec),
            ]).seconds
        with self._stopwatch() as watch, self._span("unique_copy"):
            save_world(unique_prompt_copy(load_world(self._world("eval"))),
                       self._dir("unique"))
        seconds += watch.ref_s
        steps, every = PRETRAIN
        seconds += self._cli("pretrain", [
            "--out", str(_fresh(self.root / "router")), "--seed", str(self.seed),
            "router", "train", "--world", self._world("replay"), "--flags", FLAGS,
            "--max-iterations", str(steps), "--eval-every", str(every),
        ]).seconds
        self._same("setup.worlds", tree_digest(self.root / "worlds"))
        self._same("setup.router", tree_digest(self.root / "router"))
        self._router = None
        return seconds

    # -- flows --------------------------------------------------------------

    def iteration(self) -> dict[str, float]:
        """Run every flow once. Returns the end-to-end measurements, every
        time at the reference speed when calibrated."""
        evals = self._shape("eval").queries
        m = {
            "lodo_s": self.lodo(),
            "corpus_s": self._repeat("replay", self.corpus),
            "report_s": self._repeat("replay", self.report),
        }
        m["route_qps"] = len(self.route_inputs) / self._repeat("replay", self.route)
        for _ in range(PROBE_REPEATS if self.w.hosts["replay"] == "probe" else 1):
            self.latencies_us.extend(self.latency())
        m["eval_embed_qps"] = evals / self._repeat(
            "eval", self.eval_run, "eval_embed", self._world("eval"))
        m["eval_embed_unique_qps"] = evals / self._repeat(
            "eval", self.eval_run, "eval_unique", str(self._dir("unique")))
        m["eval_embed_wire_qps"] = evals / self.wire("embedding")
        m["eval_gen_wire_qps"] = evals / self.wire("generative")
        return m

    def _repeat(self, group: str, flow, *args) -> float:
        """Median seconds of a flow: PROBE_REPEATS runs on the probe world,
        one on the main world."""
        runs = PROBE_REPEATS if self.w.hosts[group] == "probe" else 1
        return statistics.median(flow(*args) for _ in range(runs))

    def lodo(self) -> float:
        steps, every = self.w.lodo_budget
        out = _fresh(self.root / "out" / "lodo")
        run = self._cli("lodo", [
            "--out", str(out), "--seed", str(self.seed), "lodo", "run",
            "--world", self._world("lodo"), "--flags", FLAGS,
            "--max-iterations", str(steps), "--eval-every", str(every),
        ])
        folds = self._shape("lodo").datasets
        failed = folds
        if run.rc == 0:
            failed = len(json.loads(run.stdout.strip().splitlines()[-1])["failed_folds"])
        self.folds_failed += failed
        self.ledger.record(folds, failed, "lodo folds")
        self._same("lodo", tree_digest(out))
        if self.w.check_lodo_meaning and run.rc == 0:
            avg = json.loads((out / "report.json").read_text())["averages"]
            self.ledger.check(avg["router"] is not None and avg["router"] >= avg["average"],
                              "lodo router column below the average baseline")
        return run.seconds

    def corpus(self) -> float:
        out = _fresh(self.root / "out" / "corpus")
        run = self._cli("corpus", ["--out", str(out), "--seed", str(self.seed),
                                   "routerdata", "build", "--world", self._world("replay"),
                                   "--flags", FLAGS])
        if run.rc == 0:
            counts = json.loads((out / "counts.json").read_text())["counts"]
            self.ledger.check(counts["examples"] == self._shape("replay").queries,
                              "corpus example count")
        self._same("corpus", tree_digest(out))
        if self.route_lines is None and run.rc == 0:
            self.route_lines = [
                line.split("[SEP]", 1)[0]
                for name in ("train.txt", "validate.txt", "test.txt")
                for line in (out / name).read_text().splitlines() if line
            ]
        return run.seconds

    def report(self) -> float:
        out = _fresh(self.root / "out" / "report")
        run = self._cli("report", ["--out", str(out), "baselines", "report",
                                   "--world", self._world("replay"),
                                   "--router", str(self.root / "router" / "router.bin")])
        if run.rc == 0:
            cells = json.loads((out / "report.json").read_text())["cells"]
            ok = all(
                cells["router"][ds] is not None
                and cells["average"][ds] <= cells["oracle"][ds] <= cells["upper_bound"][ds]
                and cells["voting"][ds] <= cells["upper_bound"][ds]
                and cells["router"][ds] <= cells["upper_bound"][ds]
                for ds in cells["chance"]
            )
            self.ledger.check(ok, "report strategy ordering")
        self._same("report", tree_digest(out))
        return run.seconds

    @property
    def route_inputs(self) -> list[str]:
        """What router route receives: every serialized input of the world,
        PROBE_ROUTE_PASSES times over on the probe world."""
        passes = PROBE_ROUTE_PASSES if self.w.hosts["replay"] == "probe" else 1
        return (self.route_lines or []) * passes

    def route(self) -> float:
        lines = self.route_inputs
        run = self._cli("route", ["router", "route", "--router",
                                  str(self.root / "router" / "router.bin")],
                        stdin_text="".join(line + "\n" for line in lines))
        choices = run.stdout.splitlines()
        self.ledger.check(bool(lines) and len(choices) == len(lines)
                          and set(choices) <= set(MODELS), "route output")
        self._same("route", hashlib.sha256(run.stdout.encode()).hexdigest())
        self.route_choices = choices[:len(self.route_lines or ())]
        return run.seconds

    def latency(self) -> list[float]:
        """Closed loop: one route_text call at a time from a loaded router.
        Returns each call's latency in microseconds, at the reference speed
        when calibrated. The speed kernel runs between calls, every 50
        calls, never inside a timed call."""
        from taskrouter.router import RouterModel

        if self._router is None:
            self._router = RouterModel.load(self.root / "router" / "router.bin")
        lines = self.route_lines or []
        if not lines:
            self.ledger.check(False, "latency needs routed inputs")
            return []
        got, latencies, ticks, clock = [], [], [], time.perf_counter_ns
        with self._span("latency"):
            for i in range(LATENCY_CALLS):
                if self.calibrator and i % 50 == 0:
                    self.calibrator.tick(ticks)
                t0 = clock()
                choice = self._router.route_text(lines[i % len(lines)])
                latencies.append((clock() - t0) / 1000.0)
                got.append(choice)
        choices = self.route_choices or []
        want = [choices[i % len(lines)] for i in range(LATENCY_CALLS)] \
            if len(choices) == len(lines) else None
        self.ledger.check(got == want, "route_text disagrees with router route")
        factor = self.calibrator.factor(ticks) if self.calibrator else 1.0
        return [us * factor for us in latencies]

    def eval_run(self, key: str, world_dir: str) -> float:
        out = _fresh(self.root / "out" / key)
        run = self._cli(key, ["--out", str(out), "--seed", str(self.seed), "eval", "run",
                              "--world", world_dir, "--backend", "seeded",
                              "--family", "embedding"])
        queries = self._shape("eval").queries
        if run.rc != 0:
            return float("inf")
        summary = json.loads((out / "eval_summary.json").read_text())
        self.ledger.record(queries, summary["skipped"], f"{key} evaluations skipped")
        self.ledger.check(summary["records"] == queries, f"{key} record count")
        self._same(key, tree_digest(out / "records.jsonl"))
        return run.seconds

    def wire(self, family: str) -> float:
        """Score the eval world through one stdio wire server, once per pass
        (PROBE_REPEATS passes on the probe world). Returns the median
        scoring seconds of a pass; spawning the server is excluded (it is
        wire.spawn_s)."""
        from taskrouter.core import load_world, save_records
        from taskrouter.errors import BackendError
        from taskrouter.scoring import evaluate
        from taskrouter.wire import SubprocessBackend

        if self._eval_world is None:
            self._eval_world = load_world(self._world("eval"))
        world = self._eval_world
        cmd = [sys.executable, "-m", "taskrouter.wire", "--kind", "seeded",
               "--family", family, "--seed", str(self.seed), "--dim", str(OPTIONS)]
        passes = PROBE_REPEATS if self.w.hosts["eval"] == "probe" else 1
        queries = self._shape("eval").queries
        runs = []  # (seconds, records) per pass
        with self._span(f"wire_{family}"):
            client = None
            try:
                client = SubprocessBackend(cmd)
                # read before closing: a reaped child's own I/O is added to ours
                io0 = _proc_io()
                for _ in range(passes):
                    records, skips = [], 0
                    with self._stopwatch() as watch:
                        for ds_id, manifest in world.datasets.items():
                            run = evaluate(client, manifest, world.prompt_configs[ds_id],
                                           max_workers=1)
                            records.extend(run.records)
                            skips += run.skip_count
                    self.ledger.record(queries, skips, f"wire {family} evaluations skipped")
                    runs.append((watch.ref_s, records))
                self.wire_bytes += _proc_io() - io0
            except BackendError as exc:
                self.ledger.check(False, f"wire {family}: {exc}")
            finally:
                if client is not None:
                    _close(client)
        if not self.ledger.check(len(runs) == passes, f"wire {family} passes"):
            return float("inf")
        for seconds, records in runs:
            if not self.ledger.check(len(records) == queries and seconds > 0,
                                     f"wire {family} record count"):
                return float("inf")
            out = _fresh(self.root / "out" / f"wire_{family}") / "records.jsonl"
            save_records(records, out)
            digest = tree_digest(out)
            self._same(f"wire_{family}", digest)
            if family == "embedding":
                self.ledger.check(digest == self.digests.get("eval_embed"),
                                  "wire records differ from in-process eval run")
        return statistics.median(seconds for seconds, _ in runs)


def _error_record(stderr: str) -> bool:
    """True when stderr holds the CLI's JSON error record."""
    for line in stderr.splitlines():
        line = line.strip()
        if line.startswith("{") and '"error"' in line:
            return True
    return False


def _proc_io() -> int:
    """Bytes this process has read and written so far (pipes included)."""
    try:
        fields = dict(line.split(": ") for line in
                      Path("/proc/self/io").read_text().splitlines())
    except OSError:
        return 0
    return int(fields["rchar"]) + int(fields["wchar"])


def _close(client) -> None:
    """Shut the server down and wait for it; kill it if it will not end."""
    try:
        client.close()
    except Exception:  # noqa: BLE001 - make sure the child is gone regardless
        proc = getattr(client, "_proc", None)
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
