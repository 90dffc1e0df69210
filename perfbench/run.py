"""Benchmark of kuranil's command-line workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads (see ``WORKLOADS``): ``certify`` runs ``kuranil verify`` on each
catalog entry, ``frames`` runs ``kuranil analyze --json`` on parallelisable
algebras in their published frame and in a seeded random frame, ``general``
runs ``kuranil analyze --general --json`` on the same algebras.  One client
thread sends requests in a closed loop through ``kuranil.cli.main``, in this
process.  A pass is one round over the workload's requests; passes repeat
while the next one is expected to end within ``--seconds``.

Every time is reported in reference seconds (see ``SpeedSampler``): the
measured seconds divided by how much slower than the reference the machine
ran a fixed calibration chunk at the same time.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs every pass twice, untraced and then traced (see ``spans.py``), and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list the machine, the seed
and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import Tracer, metric_unit  # noqa: E402

WORKLOADS = {
    "certify": "kuranil verify per catalog entry; Gröbner-bound headline",
    "frames": "kuranil analyze per algebra, published and seeded random frame",
    "general": "kuranil analyze --general per algebra; Hodge/linalg-bound",
}

# Fresh interpreters timed before the passes for setup_s (or catalog.import_s).
SETUP_REPEATS = 11

# A certify run makes one pass of 16 requests, too few for request
# percentiles: its p50_ms and p90_ms are taken over passes, each one verify
# sweep of the catalog, which is also how the catalog is certified.
PASS_LATENCY = ("certify",)

# Machine-speed calibration (see SpeedSampler): one calibration chunk every
# SAMPLE_INTERVAL_S of a pass.  A reference second is the time in which the
# reference machine, whose chunk takes REFERENCE_CHUNK_S, does the same
# work; a vCPU of a shared 2-vCPU Intel Xeon VM takes about 1.4 ms when the
# host is quiet.  SETUP_CAL_CHUNKS are timed before and after each set-up
# sample.
SAMPLE_INTERVAL_S = 0.05
REFERENCE_CHUNK_S = 0.0015
SETUP_CAL_CHUNKS = 10

# Half-width, in percentile points, of the band percentile() averages over.
PERCENTILE_BAND = 8

CHECKS = ("invariants", "h1-annotation", "expected-generators", "reducibility",
          "cylinder-dim", "component-containment", "intersection", "h1",
          "second-order", "third-order")


def machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"cpu {cpu}")


def fresh_import(extra: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *extra, "-c", "import kuranil"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True)


_CAL_A = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(5)}
_CAL_B = {(i, j): Fraction(j - 3, i + 1) for i in range(4) for j in range(3)}


def calibration_chunk() -> float:
    """Seconds of one fixed product of two small polynomials with Fraction
    coefficients, the arithmetic kuranil spends its time in."""
    start = time.perf_counter()
    product: dict = {}
    for (i, j), c in _CAL_A.items():
        for (k, m), d in _CAL_B.items():
            key = (i + k, j + m)
            product[key] = product.get(key, 0) + c * d
    return time.perf_counter() - start


class SpeedSampler:
    """How much slower than the reference the machine runs during a pass.

    The host is shared, and its speed drifts by a third from one minute to
    the next, and by half within seconds, for kuranil and the chunk alike.
    Inside ``with``, a SIGALRM handler times one calibration chunk every
    SAMPLE_INTERVAL_S, in this thread between two bytecodes of whatever
    runs, so the samples cover the pass evenly, long requests included.
    ``spent`` is the wall time the handler took, to take out of the times
    it fell in.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.chunks.append(calibration_chunk())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def factor(self) -> float:
        if not self.chunks:  # a pass shorter than one interval
            self.chunks.append(calibration_chunk())
        return statistics.fmean(self.chunks) / REFERENCE_CHUNK_S


def reference_seconds(probe) -> float:
    """``probe()``'s seconds, in reference seconds: divided by the speed
    factor of SETUP_CAL_CHUNKS chunks timed before it and as many after."""
    before = [calibration_chunk() for _ in range(SETUP_CAL_CHUNKS)]
    seconds = probe()
    after = [calibration_chunk() for _ in range(SETUP_CAL_CHUNKS)]
    return seconds / (statistics.fmean(before + after) / REFERENCE_CHUNK_S)


def setup_seconds() -> float:
    """Wall time of a fresh interpreter until ``import kuranil`` returns."""
    start = time.perf_counter()
    fresh_import([])
    return time.perf_counter() - start


def catalog_import_seconds() -> float:
    """Self time of importing ``kuranil.catalog``, which validates every entry."""
    stderr = fresh_import(["-X", "importtime"]).stderr
    for line in stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "kuranil.catalog":
            return int(fields[0].rsplit(None, 1)[-1]) / 1e6
    raise RuntimeError("kuranil.catalog missing from -X importtime output")


def make_pass(workload: str, seed: int, index: int, reference: dict):
    """The requests of pass ``index`` as (label, callable) pairs, and the
    dict that certify requests add verify's per-check seconds to."""
    checks: dict[str, float] = {}
    if workload == "certify":
        requests = [(name, lambda name=name: workloads.certify_request(name, checks))
                    for name in workloads.CATALOG]
    elif workload == "frames":
        rng = random.Random(seed * 1_000_003 + index)
        paths = workloads.write_random_frames(
            workloads.ALGEBRAS, rng, os.path.join(WORK, str(os.getpid())))
        requests = []
        for salamon, path in zip(workloads.ALGEBRAS, paths):
            expected = reference["frames"][salamon]
            requests.append((salamon, lambda s=salamon, e=expected:
                             workloads.analyze_request(s, e)))
            requests.append((f"{salamon} in {path}", lambda p=path, e=expected:
                             workloads.analyze_request(p, e)))
    else:
        requests = []
        for target, nu in workloads.general_targets(reference["frames"]):
            h1 = workloads.expected_h1(target, reference["frames"])
            gens = reference["general"][target]["obstruction_generators"]
            requests.append((target, lambda t=target, n=nu, h=h1, g=gens:
                             workloads.general_request(t, n, h, g)))
    return requests, checks


def run_pass(requests) -> tuple[float, float, list[float], list[str], float]:
    """Wall and CPU seconds of one pass and its request latencies, all in
    reference seconds; failures; the pass's speed factor."""
    raw, failures, cpu = [], [], 0.0
    with SpeedSampler() as speed:
        for label, request in requests:
            spent, cpu0, start = speed.spent, time.process_time(), time.perf_counter()
            try:
                ok, detail = request()
            except Exception as exc:  # a crash is a failed request
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            # The chunks are CPU-bound, so their wall time is their CPU time.
            spent = speed.spent - spent
            raw.append(time.perf_counter() - start - spent)
            cpu += time.process_time() - cpu0 - spent
            if not ok:
                failures.append(f"{label}: {detail}")
    factor = speed.factor
    latencies = [t / factor for t in raw]
    return sum(latencies), cpu / factor, latencies, failures, factor


def percentile(values: list[float], q: int) -> float:
    """Smoothed percentile: the mean of the values ranked from q-8 % to
    q+8 %.  Latencies cluster by algebra, and a single order statistic jumps
    between clusters when a few requests swap places."""
    ranked = sorted(values)
    lo = min(int((q - PERCENTILE_BAND) / 100 * len(ranked)), len(ranked) - 1)
    hi = math.ceil((q + PERCENTILE_BAND) / 100 * len(ranked))
    return statistics.fmean(ranked[lo:hi])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kuranil", "__init__.py")):
        print(f"error: no kuranil sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    print(f"machine: {machine()}")
    print(f"workload: {args.workload} ({WORKLOADS[args.workload]}), "
          f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")

    # Set-up samples are taken before the passes and after each one, so that
    # their median spans the run rather than one moment of it.
    setup_probe = catalog_import_seconds if args.trace else setup_seconds
    fresh_import([])  # writes the bytecode cache, which users have too
    setup_samples = [reference_seconds(setup_probe)
                     for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, SRC)
    import kuranil.cli  # noqa: F401  (import outside the timed passes)

    reference = workloads.load_reference()
    tracer = Tracer() if args.trace else None
    walls, cpus, factors, failures, layers, checks = [], [], [], [], [], []
    by_request: dict[str, list[float]] = {}
    attempted = 0
    started = time.perf_counter()
    try:
        for index in itertools.count():
            requests, check_seconds = make_pass(args.workload, args.seed,
                                                index, reference)
            wall, cpu, lat, bad, factor = run_pass(requests)
            walls.append(wall)
            factors.append(factor)
            cpus.append(cpu)
            for (label, _), seconds in zip(requests, lat):
                by_request.setdefault(label, []).append(seconds)
            failures.extend(bad)
            checks.append({k: v / factor for k, v in check_seconds.items()})
            attempted += len(requests)
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    traced_wall, _, _, bad, traced_factor = run_pass(requests)
                finally:
                    tracer.uninstall()
                failures.extend(bad)
                attempted += len(requests)
                layer = {k: v / traced_factor if metric_unit(k) == "s" else v
                         for k, v in tracer.metrics().items()}
                layer["trace.overhead_share"] = traced_wall / wall - 1
                layers.append(layer)
            setup_samples.append(reference_seconds(setup_probe))
            # Stop unless one more pass of the mean length ends in time.
            elapsed = time.perf_counter() - started
            if elapsed * (index + 2) / (index + 1) > args.seconds:
                break
    finally:
        shutil.rmtree(os.path.join(WORK, str(os.getpid())), ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run still uses it

    setup_name = "catalog.import_s" if args.trace else "setup_s"
    metrics = {setup_name: (statistics.median(setup_samples), "s")}
    if tracer is None:
        # One latency per request: its median over the run's passes, so that
        # a slow moment of the machine in one pass does not shift the
        # percentiles.  A random-frame request keeps its label from pass to
        # pass, with a new frame each time.
        latencies = (walls if args.workload in PASS_LATENCY else
                     [statistics.median(v) for v in by_request.values()])
        metrics.update({
            "pass_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        })
    else:
        for key in layers[0]:
            metrics[key] = (statistics.median(p[key] for p in layers),
                            metric_unit(key))
        for check in CHECKS:
            metrics[f"cli.check.{check}.s"] = (
                statistics.median(c.get(check, 0.0) for c in checks), "s")

    print(f"passes {len(walls)}, requests {attempted}, failed {len(failures)}")
    print("untraced pass speed factors: "
          + " ".join(f"{f:.3f}" for f in factors))
    print("untraced pass reference seconds: " + " ".join(f"{w:.3f}" for w in walls))
    for line in failures[:20]:
        print(f"FAILED {line}")
    for key, (value, unit) in metrics.items():
        print(f"{key:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
