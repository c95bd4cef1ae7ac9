"""Measurement core: run a workload's passes, check every output, reduce.

Load model: a closed loop, one caller in one process (jobs=1, no pool).
The next run starts when the previous one returns; arrivals exist only
in modeled time.  A *run* is one sweep point with one seed, executed
cold exactly as ``ldlp-experiment run --jobs 1 --no-cache`` executes a
point: ``SweepPoint.execute`` under a metrics-only
``Recorder(keep_spans=False)``.  Passes repeat with seeds ``S, S+1, ...``
until ``seconds`` have elapsed, always finishing the current pass.
Every run is timed between two calibration-kernel samples
(:mod:`simbench.calibrate`), which turn its wall time into reference
seconds.

A run fails when it raises, when ``offered != completed + dropped``,
when it reports non-zero ``conservation_violations``, when its
canonical-JSON digest differs from ``expected/digests.json`` (recorded
for run seeds 0..31), when an every-8th ``poisson``/``bellcore`` run
replayed on ``engine="scalar"`` is not byte-identical, or - when
traced - when the traced digest differs from the untraced one.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from repro.harness.cache import canonical_json
from repro.harness.points import SweepPoint
from repro.obs.runtime import Recorder, recording

from . import ROOT
from .calibrate import calibrated
from .tracing import LAYER_NAMES, LayerTotals, Tracer, self_times
from .workloads import REPLAYED

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected" / "digests.json"
PROBE = HERE / "setup_probe.py"

#: Run seeds 0..EXPECTED_SEEDS-1 have recorded digests.
EXPECTED_SEEDS = 32
#: Every REPLAY_EVERY-th run of a REPLAYED workload is replayed on scalar.
REPLAY_EVERY = 8
#: Fresh interpreters timed for ``setup_s``.
SETUP_SPAWNS = 9

#: Children get one BLAS thread each: the host has two vCPUs.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass
class Run:
    """Outcome of one (point, seed) run."""

    key: str
    seed: int
    pass_no: int
    wall_s: float = 0.0
    ref_s: float = 0.0
    messages: int = 0
    digest: str = ""
    counters: dict[str, float] = field(default_factory=dict)
    failure: str | None = None


def load_expected() -> dict[str, dict[str, list[str]]]:
    """The recorded digests: workload -> point key -> digest per seed."""
    return json.loads(EXPECTED_PATH.read_text())


def digest(result: Any) -> str:
    """Short SHA-256 of a result's canonical JSON."""
    return hashlib.sha256(canonical_json(result).encode()).hexdigest()[:16]


def with_seed(point: SweepPoint, seed: int, **params: Any) -> SweepPoint:
    """The point restricted to one seed (plus any parameter overrides)."""
    return replace(point, params={**point.params, "seeds": [seed], **params})


def execute(point: SweepPoint) -> tuple[Any, dict[str, float]]:
    """Run a point as the harness does: (result, obs counters)."""
    recorder = Recorder(keep_spans=False)
    with recording(recorder):
        result = point.execute()
    return result, recorder.counters.as_dict()


def run_result(result: dict[str, Any]) -> dict[str, Any]:
    """The (merged) ``RunResult`` dict inside any point's result."""
    if "offered" in result:
        return result
    inner = result["result"]
    return inner["run"] if "run" in inner else inner["aggregate"]


def audit(result: dict[str, Any]) -> str | None:
    """The conservation checks every run gets; a reason when one fails."""
    run = run_result(result)
    if run["offered"] != run["completed"] + run["dropped"]:
        return (
            f"offered {run['offered']} != completed {run['completed']} "
            f"+ dropped {run['dropped']}"
        )
    if result.get("conservation_violations", 0):
        return f"conservation_violations = {result['conservation_violations']}"
    return None


def passes(
    points: list[SweepPoint], seed: int, seconds: float
) -> Iterator[tuple[int, SweepPoint, int]]:
    """(pass number, point, run seed) until ``seconds`` have elapsed."""
    deadline = perf_counter() + seconds
    pass_no = 0
    while True:
        for point in points:
            yield pass_no, point, seed + pass_no
        pass_no += 1
        if perf_counter() >= deadline:
            return


def warm_up(points: list[SweepPoint], seed: int) -> None:
    """One untimed run per point function, so lazy imports are done."""
    for func in dict.fromkeys(point.func for point in points):
        point = next(point for point in points if point.func == func)
        execute(with_seed(point, seed))


def run_checked(
    workload: str,
    point: SweepPoint,
    seed: int,
    pass_no: int,
    expected: dict[str, dict[str, list[str]]],
) -> Run:
    """Execute and time one run and apply every check that needs no replay."""
    run = Run(point.key, seed, pass_no)
    seeded = with_seed(point, seed)
    try:
        (result, run.counters), run.wall_s, scale = calibrated(lambda: execute(seeded))
    except Exception:
        run.failure = "raised:\n" + traceback.format_exc()
        return run
    run.ref_s = run.wall_s * scale
    run.messages = int(run_result(result)["offered"])
    run.digest = digest(result)
    run.failure = audit(result)
    recorded = expected.get(workload, {}).get(point.key, [])
    if run.failure is None and seed < len(recorded) and recorded[seed] != run.digest:
        run.failure = f"digest {run.digest} != recorded {recorded[seed]}"
    return run


def replay_scalar(point: SweepPoint, run: Run) -> None:
    """Re-run on the scalar reference engine; mark the run if it differs."""
    result, _ = execute(with_seed(point, run.seed, engine="scalar"))
    if digest(result) != run.digest:
        run.failure = "scalar replay differs from the vec result"


def report_failures(workload: str, runs: list[Run]) -> None:
    """Print each failed run to stderr."""
    for run in runs:
        if run.failure is not None:
            print(
                f"FAILED {workload} {run.key} seed={run.seed}: {run.failure}",
                file=sys.stderr,
            )


def percentile90(values: list[float]) -> float:
    """The 90th percentile (``statistics.quantiles``' exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


# ----------------------------------------------------------------------
# End-to-end measurement


@dataclass
class Measurement:
    """One untraced invocation: its runs and set-up samples.

    ``setup`` holds (wall, reference) seconds per fresh interpreter.
    """

    runs: list[Run]
    setup: list[tuple[float, float]]

    @property
    def failed(self) -> int:
        return sum(run.failure is not None for run in self.runs)

    def metrics(self) -> dict[str, tuple[float, str, int, float]]:
        """name -> (value, unit, sample count, raw wall-clock value).

        ``msgs_per_s`` is the throughput of a median pass: the messages
        offered over the time taken, each summed over the points of the
        pass from that point's median across passes.
        """
        ok = [run for run in self.runs if run.failure is None]
        if not ok:
            raise RuntimeError("every run failed; nothing to measure")
        by_point: dict[str, list[Run]] = {}
        for run in ok:
            by_point.setdefault(run.key, []).append(run)

        def median_pass(attribute: str) -> float:
            return sum(
                statistics.median(getattr(run, attribute) for run in runs)
                for runs in by_point.values()
            )

        messages = median_pass("messages")
        num_passes = len({run.pass_no for run in ok})
        ref_ms = [1e3 * run.ref_s for run in ok]
        wall_ms = [1e3 * run.wall_s for run in ok]
        setup_wall = statistics.median(wall for wall, _ in self.setup)
        setup_ref = statistics.median(ref for _, ref in self.setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "msgs_per_s": (
                messages / median_pass("ref_s"), "msg/s", num_passes,
                messages / median_pass("wall_s"),
            ),
            "run_ms_p50": (
                statistics.median(ref_ms), "ms", len(ok), statistics.median(wall_ms)
            ),
            "run_ms_p90": (percentile90(ref_ms), "ms", len(ok), percentile90(wall_ms)),
            "setup_s": (setup_ref, "s", len(self.setup), setup_wall),
            "peak_rss_mb": (rss_mb, "MiB", 1, rss_mb),
        }


def probe_command(point: SweepPoint, *flags: str) -> list[str]:
    """A fresh interpreter that imports the point's module and builds a scheduler."""
    return [sys.executable, *flags, str(PROBE), point.func]


def spawn(command: list[str]) -> subprocess.CompletedProcess:
    """Run a child to completion (one at a time), capturing its output."""
    return subprocess.run(
        command, check=True, capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )


def measure_setup(point: SweepPoint, spawns: int) -> list[tuple[float, float]]:
    """(wall, reference) set-up seconds of ``spawns`` fresh interpreters.

    One untimed spawn first writes any missing bytecode caches, so the
    timed ones all measure warm imports.
    """
    command = probe_command(point)
    spawn(command)
    samples = []
    for _ in range(spawns):
        done, _, scale = calibrated(lambda: spawn(command))
        elapsed = float(done.stdout.split()[-1])
        samples.append((elapsed, elapsed * scale))
    return samples


def measure(
    workload: str,
    points: list[SweepPoint],
    seed: int,
    seconds: float,
    spawns: int = SETUP_SPAWNS,
) -> Measurement:
    """Time ``workload``'s passes untraced, checking every run."""
    expected = load_expected()
    setup = measure_setup(points[0], spawns)
    warm_up(points, seed)
    runs = []
    for index, (pass_no, point, run_seed) in enumerate(passes(points, seed, seconds)):
        run = run_checked(workload, point, run_seed, pass_no, expected)
        if workload in REPLAYED and index % REPLAY_EVERY == 0 and run.failure is None:
            replay_scalar(point, run)
        runs.append(run)
    report_failures(workload, runs)
    return Measurement(runs, setup)


# ----------------------------------------------------------------------
# Traced measurement


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class TraceResult:
    """One traced invocation: the traced runs and per-layer metrics."""

    runs: list[Run]
    metrics: dict[str, tuple[float, str]]
    missing: list[str]

    @property
    def failed(self) -> int:
        return sum(run.failure is not None for run in self.runs)


def import_times(point: SweepPoint) -> dict[str, float]:
    """Import milliseconds of repro's own modules, numpy and networkx.

    From one ``-X importtime`` spawn: ``repro`` sums the self time of
    every ``repro.*`` module; numpy and networkx are the cumulative
    time of their top-level package.
    """
    done = spawn(probe_command(point, "-X", "importtime"))
    totals = {"repro": 0.0, "numpy": 0.0, "networkx": 0.0}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "repro" or name.startswith("repro."):
            totals["repro"] += float(self_us) / 1e3
        elif name in ("numpy", "networkx"):
            totals[name] = float(cumulative_us) / 1e3
    return totals


def write_spans(
    path: Path, workload: str, run_id: int, run: Run, spans: dict[str, Any]
) -> None:
    """One run's spans as JSON: [layer, start_us, end_us, parent] rows."""
    origin = float(spans["start"][0]) if len(spans["start"]) else 0.0
    rows = [
        [int(layer), round((start - origin) * 1e6, 2), round((end - origin) * 1e6, 2), int(parent)]
        for layer, start, end, parent in zip(
            spans["layer"], spans["start"], spans["end"], spans["parent"]
        )
    ]
    path.write_text(json.dumps({
        "workload": workload,
        "run": run_id,
        "point": run.key,
        "seed": run.seed,
        "layers": list(LAYER_NAMES),
        "columns": ["layer", "start_us", "end_us", "parent"],
        "spans": rows,
    }))


def trace(
    workload: str,
    points: list[SweepPoint],
    seed: int,
    seconds: float,
    out_dir: Path,
) -> TraceResult:
    """Run each run untraced then traced; reduce spans to layer metrics.

    Span files for the first pass go to ``out_dir``, one per run.
    """
    expected = load_expected()
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.json"):
        stale.unlink()
    imports, _, import_scale = calibrated(lambda: import_times(points[0]))
    warm_up(points, seed)
    tracer = Tracer()
    totals = LayerTotals()
    counters: dict[str, float] = {}
    overheads = []
    messages = 0
    runs = []
    for index, (pass_no, point, run_seed) in enumerate(passes(points, seed, seconds)):
        plain = run_checked(workload, point, run_seed, pass_no, expected)
        tracer.reset()
        with tracer.installed():
            run = run_checked(workload, point, run_seed, pass_no, expected)
        runs.append(run)
        if plain.failure is not None:
            run.failure = run.failure or f"untraced run failed: {plain.failure}"
        elif run.failure is None and run.digest != plain.digest:
            run.failure = f"traced digest {run.digest} != untraced {plain.digest}"
        if run.failure is not None:
            continue
        spans = tracer.spans()
        if bool((self_times(spans) < -1e-9).any()):
            run.failure = "a span's children cover more than the span"
            continue
        totals.add(spans)
        overheads.append(run.ref_s / plain.ref_s)
        messages += run.messages
        for name, value in run.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        if pass_no == 0:
            write_spans(out_dir / f"run{index:03d}.json", workload, index, run, spans)
    report_failures(workload, runs)
    ok_runs = len(overheads)
    steps = counters.get("scheduler.service_steps", 0.0)
    metrics: dict[str, tuple[float, str]] = {
        f"{layer}.self_share": (totals.share(layer), "fraction") for layer in LAYER_NAMES
    }
    metrics.update({
        "vec.fallback_frac": (1.0 - _ratio(tracer.vec_driven, ok_runs), "fraction"),
        "vec.plans_per_step": (_ratio(totals.count("cache.plan_compile"), steps), "1/step"),
        "scheduler.msgs_per_step": (
            _ratio(counters.get("messages.completions", 0.0), steps), "msg/step"
        ),
        "scheduler.drop_frac": (
            _ratio(counters.get("messages.drops", 0.0), counters.get("messages.arrivals", 0.0)),
            "fraction",
        ),
        "binding.charge.calls_per_msg": (
            _ratio(totals.count("binding.charge"), messages), "1/msg"
        ),
        "cache.probe.calls_per_msg": (_ratio(totals.count("cache.probe"), messages), "1/msg"),
        "flows.hit_ratio": (
            _ratio(counters.get("flows.hits", 0.0), counters.get("flows.lookups", 0.0)),
            "fraction",
        ),
        "flows.lookups_per_msg": (_ratio(counters.get("flows.lookups", 0.0), messages), "1/msg"),
        "obs.calls_per_msg": (_ratio(totals.count("obs"), messages), "1/msg"),
        "trace_overhead": (statistics.median(overheads) if overheads else 0.0, "x"),
    })
    for package, ms in imports.items():
        metrics[f"setup.{package}_ms"] = (ms * import_scale, "ms")
    return TraceResult(runs, metrics, tracer.missing)


def default_trace_dir(workload: str) -> Path:
    """Where ``--trace 1`` writes span files, inside the checkout."""
    return ROOT / ".simbench" / "trace" / workload


# ----------------------------------------------------------------------
# Recording the expected digests


def record_expected(
    workloads: dict[str, list[SweepPoint]],
) -> dict[str, dict[str, list[str]]]:
    """Digests of every point at run seeds 0..EXPECTED_SEEDS-1.

    Every recorded run must pass the conservation audit; the result is
    what ``expected/digests.json`` holds.
    """
    recorded: dict[str, dict[str, list[str]]] = {}
    for workload, points in workloads.items():
        for point in points:
            digests = []
            for seed in range(EXPECTED_SEEDS):
                result, _ = execute(with_seed(point, seed))
                failure = audit(result)
                if failure is not None:
                    raise RuntimeError(f"{workload} {point.key} seed={seed}: {failure}")
                digests.append(digest(result))
            recorded.setdefault(workload, {})[point.key] = digests
    return recorded
