"""Host-time benchmark of the iMARS serving simulator.

    python3 hostbench/run.py --workload small-4shard --seed 0 --seconds 35 --trace 0

Runs one workload (see ``hostbench/workloads.py``) through the public
serving API in this process, repeating set-up + ``ServingSession.run``
until ``--seconds`` have passed.  "host" metrics are the simulator's own
wall-clock; "sim" metrics are the modelled iMARS time and energy, which
are outputs of the paper's model and must repeat exactly.

* ``--trace 0`` prints the end-to-end metrics: medians over the timed
  repetitions (a short untimed warm-up repetition runs first), each
  repetition's times scaled to reference host speed by a probe loop that
  runs no project code (:func:`host_speed_ms`).  The unscaled figures
  are in the manifest under ``as_measured``.
* ``--trace 1`` alternates untraced and traced repetitions and prints the
  per-layer metrics of the traced ones (``hostbench/layers.py``) plus the
  tracing overhead.

Every repetition's simulated outputs are hashed (``workloads.digest``);
the run is correct only if all digests agree, match the recorded
reference for this seed when there is one (``reference_digests.json``),
and a sample of recommendations matches the scalar oracle.  Stdout ends
with a manifest line and then one JSON result line; the same data, plus
the spans of the last traced repetition, is written to
``hostbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, and keep the checkout free
# of bytecode files: the benchmark writes only under hostbench/out/.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference_digests.json"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"hostbench: no repro sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from hostbench import layers, workloads  # noqa: E402

#: Relative tolerance on "self times + unattributed = wall-clock".
ATTRIBUTION_TOLERANCE = 1e-6

#: One untraced repetition in this many does the whole set-up.
FULL_SETUP_EVERY = 3

#: Requests served by the untimed warm-up repetition.
WARMUP_REQUESTS = 200

#: A round figure near what :func:`host_speed_ms` takes on a 2.1 GHz
#: SkylakeX vCPU with OpenBLAS on one thread; host timings are reported
#: as if every repetition had run at the speed this figure stands for.
REFERENCE_SPEED_MS = 10.0

_PROBE = np.random.default_rng(0)
_PROBE_TABLE = _PROBE.normal(size=(512, 32))
_PROBE_MATRIX = _PROBE.normal(size=(32, 32))
_PROBE_ROWS = _PROBE.integers(0, 512, size=4000).tolist()


def host_speed_ms() -> float:
    """Milliseconds for a fixed loop that runs no project code.

    It mixes what the serving path does -- small numpy gathers and
    matmuls driven from Python, dict and list bookkeeping -- so a shared
    host's speed swings (other tenants, clock changes) move it roughly as
    they move the benchmark, while a change to the program cannot.  Being
    Python-heavy, it over-corrects numpy-bound work (full-1shard) somewhat.
    """
    start = time.perf_counter_ns()
    seen = {}
    total = 0.0
    for step, row in enumerate(_PROBE_ROWS):
        total += float((_PROBE_TABLE[row] @ _PROBE_MATRIX)[3])
        seen[(step % 61, step % 7)] = total
        sorted((step, row, total))
    return (time.perf_counter_ns() - start) / 1e6


def _openblas():
    """(core type, thread count) of numpy's bundled OpenBLAS, if found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        library = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                core = getattr(library, f"{prefix}_get_corename{suffix}", None)
                threads = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
                if core is not None and threads is not None:
                    core.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return core().decode(), int(threads())
    return "unknown", -1


def _git_sha() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, system) -> dict:
    core, threads = _openblas()
    params = dict(workloads.WORKLOADS[args.workload])
    params.pop("why")
    if args.requests is not None:
        params["num_requests"] = args.requests
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_core": core,
        "openblas_threads": threads,
        "nproc": os.cpu_count(),
        "params": params,
        "derived": system.derived,
    }


def repetition(args, system=None, traced: bool = False, keep: bool = False,
               num_requests=None):
    """Set up, then time one ``ServingSession.run``; returns the timings
    and the system the repetition ran on.

    Without ``system`` the whole workload is set up -- dataset, models,
    calibration, fleet, traffic, session -- and timed as ``setup_s``;
    with one, only a cold fleet, its traffic and session are built on it.
    With ``traced`` the layer wrappers record spans during the timed run.
    The built instance and full result are kept only with ``keep``, so
    peak memory does not grow with the repetition count.
    """
    probes = [host_speed_ms()]
    start = time.perf_counter()
    full = system is None
    if full:
        system = workloads.build_system(args.workload)
    built = workloads.build(system, args.seed, num_requests or args.requests)
    setup_s = time.perf_counter() - start
    batch_ns: list = []
    recorder = layers.SpanRecorder() if traced else None
    layers.time_scheduler(built.session, batch_ns, recorder)
    probes.append(host_speed_ms())
    gc.collect()
    with layers.patched(recorder) if traced else contextlib.nullcontext():
        start_ns = time.perf_counter_ns()
        result = built.session.run(built.requests)
        report = result.report
        wall_ns = time.perf_counter_ns() - start_ns
    probes.append(host_speed_ms())
    telemetry = built.session.telemetry
    return {
        "built": built if keep else None,
        "result": result if keep else None,
        "report": report,
        "phases": {**(system.setup_s if full else {}), **built.setup_s},
        "setup_s": setup_s if full else None,
        "wall_ns": wall_ns,
        "batch_ns": batch_ns,
        "batches": len(result.batches),
        "requests": len(built.requests),
        "repo_spans": len(telemetry.tracer.spans) if telemetry is not None else 0,
        "digest": workloads.digest(result),
        "recorder": recorder,
        # Host-speed scale of the set-up and of the timed run.
        "setup_scale": REFERENCE_SPEED_MS / statistics.mean(probes[:2]),
        "run_scale": REFERENCE_SPEED_MS / statistics.mean(probes[1:]),
    }, system


def end_to_end(reps) -> dict:
    """Medians over the timed repetitions, at reference host speed.

    Each repetition's times are scaled by its host-speed probes
    (:func:`host_speed_ms`), so a shared host's speed swings cancel while
    any change in the program's own cost shows.  Batch percentiles pool
    every repetition's batches (their count is in the manifest).
    """
    batch_ms = np.concatenate(
        [np.asarray(rep["batch_ns"], dtype=np.float64) * rep["run_scale"] for rep in reps]
    ) / 1e6
    return {
        "host_req_per_s": (
            statistics.median(
                rep["requests"] / (rep["wall_ns"] * rep["run_scale"] / 1e9) for rep in reps
            ),
            "req/s",
        ),
        "host_batch_ms_p50": (float(np.percentile(batch_ms, 50)), "ms"),
        "host_batch_ms_p90": (float(np.percentile(batch_ms, 90)), "ms"),
        "setup_s": (
            statistics.median(
                rep["setup_s"] * rep["setup_scale"] for rep in reps if rep["setup_s"] is not None
            ),
            "s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "answered_share": (1.0 - simulated(reps[0]["report"])["failed_share"], "ratio"),
    }


def as_measured(reps) -> dict:
    """The unscaled wall-clock figures, for the manifest."""
    batch_ms = np.concatenate([np.asarray(rep["batch_ns"], dtype=np.float64) for rep in reps]) / 1e6
    return {
        "host_req_per_s": statistics.median(
            rep["requests"] / (rep["wall_ns"] / 1e9) for rep in reps
        ),
        "host_batch_ms_p50": float(np.percentile(batch_ms, 50)),
        "host_batch_ms_p90": float(np.percentile(batch_ms, 90)),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps if rep["setup_s"] is not None),
        "host_speed_scale": statistics.median(rep["run_scale"] for rep in reps),
    }


def per_layer(untraced, traced) -> dict:
    metrics = layers.layer_metrics(traced)
    untraced_rate = statistics.median(rep["requests"] / rep["wall_ns"] for rep in untraced)
    traced_rate = statistics.median(rep["requests"] / rep["wall_ns"] for rep in traced)
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    phases = [rep["phases"] for rep in untraced + traced]
    names = {"dataset": "setup.dataset_s", "models": "setup.models_s",
             "calibrate": "setup.calibrate_s", "engine_build": "setup.engine_build_s",
             "session": "setup.session_s", "traffic": "traffic.generate_s"}
    for phase, metric in names.items():
        metrics[metric] = (
            statistics.median(timing[phase] for timing in phases if phase in timing),
            "s",
        )
    return metrics


def simulated(report) -> dict:
    """The run's simulated outputs, for the manifest."""
    return {
        "sim_p95_ms": report.p95_ms,
        "sim_uj_per_req": report.energy_per_request_uj,
        "failed_share": (report.failed_count + report.shed_count) / report.num_requests,
    }


def check(args, reps, traced) -> list:
    """Correctness problems of the run (empty when it is correct)."""
    problems = []
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        problems.append(f"simulated outputs differ between repetitions: {sorted(digests)}")
    if len({rep["batches"] for rep in reps}) != 1:
        problems.append("repetitions dispatched different batch sequences")
    if traced and {rep["digest"] for rep in traced} != {reps[0]["digest"]}:
        problems.append("traced run's simulated outputs differ from the untraced run's")
    if args.requests is None and REFERENCE.is_file():
        recorded = json.loads(REFERENCE.read_text())["digests"].get(args.workload, {})
        want = recorded.get(str(args.seed))
        if want is not None and want != reps[0]["digest"]:
            problems.append(f"digest {reps[0]['digest']} != recorded reference {want}")
    mismatches = workloads.oracle_mismatches(reps[0]["built"], reps[0]["result"])
    if mismatches:
        problems.append(f"{mismatches} sampled recommendations differ from the scalar oracle")
    if traced:
        wall_s = sum(rep["wall_ns"] for rep in traced) / 1e9
        gap_s = layers.attribution_gap_s(traced)
        unattributed_s = layers.layer_metrics(traced)["unattributed_s"][0]
        if gap_s > ATTRIBUTION_TOLERANCE * wall_s or unattributed_s < 0.0:
            problems.append(
                f"self times do not add up: gap {gap_s:.3g}s, "
                f"unattributed {unattributed_s:.3g}s"
            )
    return problems


def measure(args):
    """Warm up, then repeat until ``--seconds`` have passed.

    Every :data:`FULL_SETUP_EVERY`-th untraced repetition sets the whole
    workload up, so set-up time is sampled across the run; the others
    reuse its dataset and models.
    """
    # Warm-up: pays first-call costs and builds the first system.
    _, system = repetition(args, num_requests=WARMUP_REQUESTS)
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        full = len(untraced) % FULL_SETUP_EVERY == 0
        rep, system = repetition(args, None if full else system, keep=not untraced)
        untraced.append(rep)
        if args.trace:
            traced.append(repetition(args, system, traced=True, keep=not traced)[0])
        if time.perf_counter() >= deadline and len(untraced) >= 3:
            return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="override the workload's request count (smoke runs; no reference digest)",
    )
    args = parser.parse_args(argv)

    try:
        untraced, traced = measure(args)
        reps = untraced + traced
        problems = check(args, reps, traced)
    except Exception:
        # An exception is a failed run: report it as such.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for problem in problems:
        print(f"hostbench: {problem}", file=sys.stderr)
    attempted = sum(rep["requests"] for rep in reps)
    failed = attempted if problems else 0
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    info = manifest(args, reps[0]["built"].system)
    info["repetitions"] = {"untraced": len(untraced), "traced": len(traced)}
    info["batches_per_repetition"] = untraced[0]["batches"]
    info["digest"] = reps[0]["digest"]
    info["timed_batches"] = sum(rep["batches"] for rep in untraced)
    info["simulated"] = simulated(reps[0]["report"])
    info["as_measured"] = as_measured(untraced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    dump = {"manifest": info, "problems": problems, "result": result}
    if traced:
        dump["spans"] = traced[-1]["recorder"].as_json()
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dump))
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
