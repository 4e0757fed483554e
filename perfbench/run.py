"""lybandit benchmark: runs one workload and prints its metrics.

Usage (from the root of a lybandit checkout)::

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Untraced (``--trace 0``) it reports the end-to-end metrics of one workload:
``wall_s``, ``pulls_per_s``, ``setup_s`` and ``peak_rss_mb``, with the
correctness gate's verdict (``failed_frac`` and the ``attempted`` / ``failed``
cell counts).  Traced (``--trace 1``) it runs the workload once untraced and
once under the span tracer and reports the per-layer metrics.  The last line
of stdout is one JSON object; see ``perfbench/README.md``.

Every workload is the lybandit CLI on one generated config, run in fresh
single-threaded processes that import the package from ``src/``; nothing
under ``src/`` is modified.  Each child is timed between two runs of the fixed
reference load ``refload.py``, and times are reported relative to it (see
``HostGauge``), so that the host's changing speed cancels out.
"""

from __future__ import annotations

import os

# single-threaded children and in-process checks, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LYON_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150.0
MIN_INVOCATIONS = 3  # least workload invocations per run; wall_s is their median
MAX_MEASURE_S = 100.0  # no invocation starts that would end after this long
# Host-speed scale of every reported time: a child's wall time is divided by
# the mean wall time of the refload.py samples taken just before and after it
# and multiplied by REF_S, refload.py's wall time on the machine described in
# baseline.json.  The times read as seconds on that machine at its usual speed.
REF_S = 0.30
# threads2_speedup cell: lyon on the lyon-k50 instance, two 1024-run chunks
THREADS_CELL = {"budget": 60.0, "runs": 2048, "reps": 2}
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Invocation:
    code: int
    wall_s: float
    rss_mb: float
    outputs: list[bytes]
    scaled_s: float = 0.0  # wall_s on the REF_S scale


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to its end; (exit code, spawn-to-exit seconds, peak RSS MB)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"child {argv[1:4]} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class HostGauge:
    """Samples of refload.py's wall time, taken around every timed child.

    On a shared host the speed of a core moves by a third within minutes,
    while a fresh-process reference run beside a child slows with it.  The
    ratio of the two is the part of the time the program is responsible for.
    """

    def __init__(self, rundir: Path):
        self.argv = [sys.executable, str(HERE / "refload.py")]
        self.log = rundir / "refload.log"
        self.samples = [self.sample()]

    def sample(self) -> float:
        code, wall, _ = spawn(self.argv, self.log)
        if code != 0:
            raise RuntimeError(f"refload.py exited {code}")
        return wall

    def scale(self, wall: float) -> float:
        """``wall`` of the child that just ended, on the REF_S scale."""
        before = self.samples[-1]
        self.samples.append(self.sample())
        return REF_S * wall / ((before + self.samples[-1]) / 2)


def setup_sampler(config: Path, rundir: Path, gauge: HostGauge):
    """Returns (samples, sample): ``sample()`` appends one wall time of
    ``lybandit oracle`` on the config, on the REF_S scale.  One warm-up
    invocation runs first."""
    argv = [sys.executable, "-m", "lybandit.cli", "oracle", "--config", str(config)]
    samples: list[float] = []

    def sample() -> None:
        code, wall, _ = spawn(argv, rundir / "oracle.log")
        if code != 0:
            raise RuntimeError(f"lybandit oracle exited {code}")
        samples.append(gauge.scale(wall))

    sample()
    samples.clear()
    return samples, sample


class Result:
    """Cells attempted / failed, problems found and metric values of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict[str, object] = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def repeat(invoke, seconds: float, between) -> list:
    """Alternate ``between`` and ``invoke`` for about ``seconds``.

    Invocations go on until one more pair would overrun ``seconds``, but at
    least ``MIN_INVOCATIONS`` run, so the median and the byte comparison
    across invocations always have several samples.  ``between`` (one set-up
    sample) runs before each invocation, so set-up samples are spread over the
    same stretch of time as the workload's.  No pair starts that would end
    after ``MAX_MEASURE_S``.
    """
    done, t0 = [], time.perf_counter()
    while True:
        between()
        done.append(invoke(len(done)))
        spent = time.perf_counter() - t0
        projected = spent * (len(done) + 1) / len(done)
        if projected > MAX_MEASURE_S:
            return done
        if len(done) >= MIN_INVOCATIONS and projected > seconds:
            return done


def cli_inputs(name: str, seed: int, rundir: Path):
    """(CLI command, config path, parsed config) of a workload."""
    from lybandit.cli import load_config

    command, make = {
        "lyon-k50": ("run", workloads.lyon_k50_config),
        "short-episodes": ("sweep", workloads.short_episodes_config),
    }[name]
    path = workloads.write_json(make(seed), rundir / "config.json")
    config = load_config(path)
    workloads.check_feasible(config.instance)
    return command, path, config


def run_cli_workload(name: str, seed: int, seconds: float, trace: bool,
                     rundir: Path, result: Result) -> None:
    command, config_path, config = cli_inputs(name, seed, rundir)
    gauge = HostGauge(rundir)
    setup, sample_setup = setup_sampler(config_path, rundir, gauge)

    def invoke(i: int, traced: bool = False) -> Invocation:
        out = rundir / f"out{i}.csv"
        args = [command, "--config", str(config_path), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), str(rundir / "spans"), *args]
        else:
            argv = [sys.executable, "-m", "lybandit.cli", *args]
        code, wall, rss = spawn(argv, rundir / f"cli{i}.log")
        scaled = gauge.scale(wall)
        files = [out]
        if command == "sweep":
            files.append(out.with_name(out.stem + "_scaling.csv"))
        outputs = [f.read_bytes() if f.exists() else b"" for f in files]
        for f in files:
            f.unlink(missing_ok=True)
        return Invocation(code, wall, rss, outputs, scaled)

    if trace:
        runs = [invoke(0), invoke(1, traced=True)]
    else:
        runs = repeat(invoke, seconds, sample_setup)

    # --- correctness gate (outside every timed region) ---
    keys = gate.cell_keys(config)
    reference = runs[0].outputs
    rows, cell_bad = {}, set()
    if runs[0].code == 0:
        rows, _ = gate.csv_rows(reference[0].decode("utf-8"), config, [])
        cell_bad |= gate.wald_cells(rows, config, result.problems)
        cell_bad |= gate.lockstep_cells(config, result.problems)
    for i, inv in enumerate(runs):
        result.attempted += len(keys)
        if inv.code != 0:
            result.failed += len(keys)
            continue
        if inv.outputs != reference:
            result.problems.append(f"invocation {i} wrote different CSV bytes")
            result.failed += len(keys)
            continue
        _, row_bad = gate.csv_rows(inv.outputs[0].decode("utf-8"), config, result.problems)
        result.failed += len(row_bad | cell_bad)

    result.info["invocations"] = len(runs)
    result.info["unscaled_wall_s_each"] = [round(inv.wall_s, 4) for inv in runs]
    result.info["refload_s_median"] = round(statistics.median(gauge.samples[1:]), 4)
    result.info["csv_sha256"] = hashlib.sha256(b"".join(reference)).hexdigest()
    pulls = gate.csv_pulls(rows) if rows else 0
    result.info["pulls"] = pulls
    if not trace:
        wall = statistics.median(inv.scaled_s for inv in runs)
        result.metrics["wall_s"] = (wall, "s")
        result.metrics["pulls_per_s"] = (pulls / wall, "1/s")
        result.metrics["setup_s"] = (statistics.median(setup), "s")
        result.metrics["peak_rss_mb"] = (statistics.median(inv.rss_mb for inv in runs), "MB")
        return
    layer_metrics(rundir / "spans", result)
    result.metrics["cli.csv_bytes"] = (float(sum(map(len, runs[1].outputs))), "bytes")
    result.metrics["trace.overhead_frac"] = (runs[1].scaled_s / runs[0].scaled_s - 1.0, "ratio")


# ---------------------------------------------------------------------------
# traced-run extras
# ---------------------------------------------------------------------------


def layer_metrics(prefix: Path, result: Result) -> None:
    if not Path(f"{prefix}.json").exists():
        result.problems.append("traced child wrote no spans")
        return
    meta, records = tracing.load(prefix)
    result.metrics.update(tracing.layer_metrics(meta, records))
    result.info["absent"] = meta["absent"]
    result.info["spans"] = int(records.shape[0])


def threads2_speedup(seed: int, rundir: Path, result: Result) -> None:
    """Wall time of one multi-chunk lyon-k50 cell at threads=1 over threads=2."""
    from lybandit.cli import load_config
    from lybandit.harness import run_batch

    path = workloads.write_json(workloads.lyon_k50_config(seed), rundir / "k50.json")
    config = load_config(path)
    config = replace(
        config,
        policies=config.policies[:1],
        budgets=(THREADS_CELL["budget"],),
        runs=THREADS_CELL["runs"],
    )
    times = {1: [], 2: []}
    cells = {}
    try:
        for rep in range(THREADS_CELL["reps"]):
            for threads in ((1, 2) if rep % 2 == 0 else (2, 1)):
                t0 = time.perf_counter()
                agg = run_batch(config, threads=threads)
                times[threads].append(time.perf_counter() - t0)
                cells[threads] = agg.cells
    except TypeError as exc:  # the threads argument is gone
        result.info["absent"] = result.info.get("absent", []) + [f"run_batch(threads=): {exc}"]
        result.metrics["harness.threads2_speedup"] = (0.0, "ratio")
        return
    if repr(cells[1]) != repr(cells[2]):
        result.problems.append("threads=2 changed the aggregated cell")
    speedup = statistics.median(times[1]) / statistics.median(times[2])
    result.metrics["harness.threads2_speedup"] = (speedup, "ratio")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    rundir = ROOT / ".perfbench_runs" / f"{name}-{seed}-{trace:d}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        run_cli_workload(name, seed, seconds, trace, rundir, result)
        if trace:
            threads2_speedup(seed, rundir, result)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:
            pass
    return result


def summary(name: str, result: Result) -> None:
    print(f"[{name}] correct={result.correct} cells={result.attempted} "
          f"failed_frac={result.failed / max(1, result.attempted):.4g} "
          f"({result.failed}/{result.attempted})")
    for key, (value, unit) in result.metrics.items():
        print(f"  {key:<28} {value:>16.6g} {unit}")
    for key, value in result.info.items():
        print(f"  {key:<28} {value}")
    for problem in result.problems[:20]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = SRC / "lybandit" / "__init__.py"
    if not package.is_file():
        print(f"error: {ROOT} is not a lybandit checkout (needs src/lybandit)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lybandit

    if Path(lybandit.__file__).resolve() != package.resolve():
        print(f"error: imported lybandit from {lybandit.__file__}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = Result()
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summary(name, result)
        total.attempted += result.attempted
        total.failed += result.failed
        total.problems += result.problems
        prefix = f"{name}." if len(names) > 1 else ""
        for key, metric in result.metrics.items():
            total.metrics[prefix + key] = metric
    print(total.line(), flush=True)
    return 0 if total.correct else 1


if __name__ == "__main__":
    sys.exit(main())
