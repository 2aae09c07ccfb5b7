"""voskit benchmark: times the CLI stages of one workload and checks their
outputs.

    python3 perfbench/run.py --workload pipeline-480p --seed 1 --seconds 30 --trace 0

Run from the root of a voskit checkout; the program is imported from its
``src/``. With ``--trace 0`` every stage runs as its own ``python -m
voskit.cli`` subprocess and the end-to-end metrics are printed. With
``--trace 1`` the stages run in this process through ``voskit.cli.main``,
once untraced and once traced, and the per-layer metrics are printed. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Result records, span dumps and per-layer tables go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    WORKLOADS,
    StageRun,
    digest_mismatches,
    program_seed,
    stage_argv,
    tree_digest,
)

# One BLAS thread: the program's matrices are small (64-wide MLP layers,
# 16x16 grids), and a second thread on a shared two-core machine only adds
# run-to-run noise. Recorded in every result.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Repetitions every untraced run makes, so that artifact digests are compared
# across repetitions; a run cut short of them counts one failed operation.
MIN_REPS = 2
VERSION_REPEATS = 3
IMPORT_REPEATS = 3
STAGE_TIMEOUT_S = 120.0
# While a child runs, this process times the reference computation every
# SAMPLE_EVERY_S on its own thread (on the other CPU), so that the samples
# see the host's speed during the stage, not between stages.
SAMPLE_EVERY_S = 0.5
# The reference computation's wall time on the machine the benchmark was
# calibrated on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS
# thread). setup_s is reported in seconds at that reference speed.
REF_NOMINAL_S = 0.035
# Start no new repetition that would end later than this after launch.
DEADLINE_S = 160.0
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

END_TO_END = {
    "setup_s": "s",
    "total_rel": "ref",
    "peak_rss_mb": "MB",
}

ENV_PROBE = (
    "import json, sys, numpy, scipy, voskit.cli; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'voskit': voskit.__version__}))"
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import voskit.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, set-up failed)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, cwd: Path, log: Path) -> tuple[int, str, str, float, float, float]:
    """Run ``python <args>`` in cwd and wait for it. Returns (exit code,
    stdout, stderr, wall seconds, peak RSS in MB, CPU seconds) of that child."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss / 1024.0, cpu


def run_cli(argv, cwd: Path, log: Path):
    return run_child(["-m", "voskit.cli", *argv], cwd, log)


# --- environment record -----------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    return tree_digest(str(ROOT), ["src"], "")


def environment(args, versions: dict) -> dict:
    return {
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "loadavg_before": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- set-up -----------------------------------------------------------------


def reference_seconds() -> float:
    """Wall time of a fixed computation in this process: a Python loop and
    small numpy operations, the kinds of work voskit does. Its time tracks
    the host's current speed."""
    import numpy as np

    small = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for _ in range(2_000):
        (small * small + small).sum()
    return time.perf_counter() - start


@contextlib.contextmanager
def host_speed():
    """Yield a list that fills with reference timings, one at entry and one
    every SAMPLE_EVERY_S until the block ends."""
    samples: list[float] = []
    stop = threading.Event()

    def sample():
        samples.append(reference_seconds())
        while not stop.wait(SAMPLE_EVERY_S):
            samples.append(reference_seconds())

    thread = threading.Thread(target=sample, daemon=True)
    thread.start()
    try:
        yield samples
    finally:
        stop.set()
        thread.join()


def setup_once(workload, seed: int, directory: Path) -> tuple[float, dict]:
    """Write the inputs, check the program imports, run the workload's set-up
    commands. Returns (seconds taken, program versions)."""
    start = time.perf_counter()
    inputs = directory / INPUTS
    inputs.mkdir(parents=True)
    commands = workload.prepare(str(inputs), seed)
    code, out, err, *_ = run_child(["-c", ENV_PROBE], inputs, directory / "logs" / "probe")
    if code != 0:
        raise BenchError(f"voskit does not import from {SRC}:\n{err.strip()}")
    versions = json.loads(out.strip().splitlines()[-1])
    for k, argv in enumerate(commands):
        code, _, err, *_ = run_cli(argv, inputs, directory / "logs" / f"setup{k}")
        if code != 0:
            raise BenchError(f"set-up command {argv} exited {code}:\n{err.strip()}")
    return time.perf_counter() - start, versions


def set_up(workload, seed: int, work: Path, repeats: int) -> tuple[list[float], list[float], dict]:
    """Set up ``repeats`` times from scratch; the last one's inputs are kept
    at work/inputs. Returns the set-up wall times, the reference timings
    taken during them, and the program versions."""
    times, refs, versions = [], [], {}
    for k in range(repeats):
        directory = work / f"setup-{k}"
        with host_speed() as samples:
            t, versions = setup_once(workload, seed, directory)
        times.append(t)
        refs.extend(samples)
        if k < repeats - 1:
            shutil.rmtree(directory)
    (work / f"setup-{repeats - 1}" / INPUTS).rename(work / INPUTS)
    return times, refs, versions


# --- untraced subprocess run (--trace 0) ------------------------------------


def run_rep_subprocess(workload, seed: int, rep_dir: Path) -> tuple[dict[str, StageRun], float]:
    """One repetition. Returns its stage runs and the mean reference timing
    while they ran."""
    rep_dir.mkdir(parents=True)
    runs = {}
    with host_speed() as samples:
        for stage in workload.stages:
            code, out, _, wall, rss, cpu = run_cli(
                stage_argv(stage, program_seed(seed)), rep_dir, rep_dir / "logs" / stage.label
            )
            runs[stage.label] = StageRun(stage, code, out, wall, rss, cpu)
    # Digests are taken after the sampler stops, so that hashing in this
    # process does not hold up its samples.
    for run in runs.values():
        run.digest = tree_digest(str(rep_dir), run.stage.artifacts, run.stdout)
    return runs, statistics.mean(samples)


def version_times(work: Path) -> list[float]:
    """Wall times of `voskit --version` in fresh interpreters."""
    walls = []
    for k in range(VERSION_REPEATS):
        code, out, err, wall, *_ = run_cli(["--version"], work, work / "logs" / f"version{k}")
        if code != 0 or not out.startswith("voskit "):
            raise BenchError(f"voskit --version failed:\n{err.strip()[-2000:]}")
        walls.append(wall)
    return walls


def repeat(min_reps: int, seconds: float, launched: float, run_rep) -> list[dict[str, StageRun]]:
    """Run ``min_reps`` repetitions, then more until ``seconds`` are used,
    starting none whose end (judged by the last one's time) would fall more
    than DEADLINE_S after launch. Only that deadline returns fewer than
    ``min_reps``."""
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(run_rep(len(reps)))
        now = time.perf_counter()
        took = now - t0
        past_deadline = now - launched + took > DEADLINE_S
        if len(reps) < min_reps:
            if past_deadline:
                break
            continue
        if past_deadline or now - start + took > seconds:
            break
    return reps


def judge(workload, reps) -> tuple[list[dict[str, list[str]]], int, int]:
    """Per-repetition failure lists (output checks plus artifact digests
    against the first repetition), the number of operations attempted and
    the number failed. Each stage run is one operation; the comparison of
    digests across MIN_REPS repetitions is one more, failed when the run
    made fewer."""
    verdicts = [workload.check(runs) for runs in reps]
    for k, labels in digest_mismatches(reps).items():
        for label in labels:
            verdicts[k][label].append("artifact digest differs from repetition 0")
    attempted = sum(len(runs) for runs in reps)
    failed = sum(1 for v in verdicts for msgs in v.values() if msgs)
    if len(reps) < MIN_REPS:
        attempted += 1
        failed += 1
    return verdicts, attempted, failed


def quality(reps) -> dict[str, float]:
    """Result-quality numbers the stages print (first repetition)."""
    runs = reps[0]
    out = {}
    if "eval_corrupted" in runs:
        out["jf_corrupted"] = workloads.parse_jf(runs["eval_corrupted"].stdout)
    if "eval_filtered" in runs:
        out["jf_filtered"] = workloads.parse_jf(runs["eval_filtered"].stdout)
    if "train" in runs:
        out["train_loss"] = workloads.parse_train_loss(runs["train"].stdout)
    if "gradcheck" in runs:
        results = workloads.parse_gradcheck(runs["gradcheck"].stdout)
        if results:
            out["gradcheck_worst_margin"] = max(err / tol for err, tol, _ in results.values())
    return out


def untraced(args, workload, work: Path, launched: float):
    setup_times, setup_refs, versions = set_up(workload, args.seed, work, SETUP_REPEATS)
    env = environment(args, versions)
    refs: list[float] = []

    def one_rep(k):
        runs, ref = run_rep_subprocess(workload, args.seed, work / f"rep-{k}")
        refs.append(ref)
        shutil.rmtree(work / f"rep-{k}")
        return runs

    reps = repeat(MIN_REPS, args.seconds, launched, one_rep)
    verdicts, attempted, failed = judge(workload, reps)
    totals = [sum(r.wall_s for r in runs.values()) for runs in reps]
    total_s = statistics.median(totals)
    # Each time is divided by the reference timings taken while it ran, so
    # that the host's speed drift cancels. A set-up of about 1.3 s holds only
    # a few samples, so all set-ups share the pooled ones.
    metrics = {
        "setup_s": REF_NOMINAL_S * statistics.median(setup_times) / statistics.mean(setup_refs),
        "total_rel": statistics.median(t / ref for t, ref in zip(totals, refs)),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs.values()) for runs in reps),
    }
    stages = {
        stage.label: {
            "kind": stage.kind,
            "wall_s": [runs[stage.label].wall_s for runs in reps],
            "rss_mb": [runs[stage.label].rss_mb for runs in reps],
            "cpu_s": [runs[stage.label].cpu_s for runs in reps],
            "digest": [runs[stage.label].digest for runs in reps],
            "failures": [v[stage.label] for v in verdicts],
        }
        for stage in workload.stages
    }
    record = {
        "environment": env,
        "setup_s": setup_times,
        "setup_reference_s": setup_refs,
        "repetitions": len(reps),
        "total_s": total_s,
        "reference_s": refs,
        "stages": stages,
        "quality": quality(reps),
    }
    return metrics, END_TO_END, attempted, failed, record


# --- traced in-process run (--trace 1) --------------------------------------


def import_times(work: Path) -> tuple[float, float]:
    """Medians over fresh interpreters of the wall time of ``import
    voskit.cli`` and of the cumulative import time of ``scipy.signal``
    within it (0 when voskit no longer imports it)."""
    totals, signal = [], []
    for k in range(IMPORT_REPEATS):
        code, out, err, *_ = run_child(
            ["-X", "importtime", "-c", IMPORT_PROBE], work, work / "logs" / f"import{k}"
        )
        if code != 0:
            raise BenchError(f"import voskit.cli failed:\n{err.strip()[-2000:]}")
        totals.append(float(out.strip().splitlines()[-1]))
        us = 0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.signal":
                us = int(parts[1])
        signal.append(us / 1e6)
    return statistics.median(totals), statistics.median(signal)


def run_in_process(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def run_rep_in_process(cli, workload, seed: int, rep_dir: Path, tracer=None):
    rep_dir.mkdir(parents=True)
    runs = {}
    cwd = os.getcwd()
    os.chdir(rep_dir)
    try:
        for stage in workload.stages:
            argv = stage_argv(stage, program_seed(seed))
            start = time.perf_counter()
            if tracer is None:
                code, out = run_in_process(cli, argv)
            else:
                code, out = tracer.stage(stage.label, lambda: run_in_process(cli, argv))
            run = StageRun(stage, code, out, time.perf_counter() - start)
            run.digest = tree_digest(str(rep_dir), stage.artifacts, out)
            runs[stage.label] = run
    finally:
        os.chdir(cwd)
    return runs


def write_spans(path: Path, tracers) -> None:
    with gzip.open(path, "wt") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps({
                    "run": tracer.run_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


def traced(args, workload, work: Path, launched: float):
    _, _, versions = set_up(workload, args.seed, work, 1)
    env = environment(args, versions)
    import_s, signal_s = import_times(work)
    version_s = statistics.median(version_times(work))

    sys.path.insert(0, str(SRC))
    import voskit.cli as cli

    pairs = []  # (untraced runs, traced runs, tracer)

    def one_pair(k):
        plain = run_rep_in_process(cli, workload, args.seed, work / f"plain-{k}")
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-rep{k}")
        uninstall = tracing.install(tracer)
        try:
            traced_runs = run_rep_in_process(cli, workload, args.seed, work / f"traced-{k}", tracer)
        finally:
            uninstall()
        shutil.rmtree(work / f"plain-{k}")
        shutil.rmtree(work / f"traced-{k}")
        pairs.append((plain, traced_runs, tracer))
        return plain

    # One untraced/traced pair is enough: per-layer metrics have no bound.
    # Its two repetitions give the digest comparison MIN_REPS asks for.
    repeat(1, args.seconds, launched, one_pair)
    reps = [r for p in pairs for r in p[:2]]
    verdicts, attempted, failed = judge(workload, reps)

    per_pair = []
    for plain, traced_runs, tracer in pairs:
        m = tracing.span_metrics(tracer.spans, tracer.counters)
        m["cli.import_s"] = import_s
        m["cli.import_scipy_signal_s"] = signal_s
        m["cli.version_s"] = version_s
        for kind in workloads.STAGE_KINDS:
            m[f"stage.{kind}.s"] = sum(r.wall_s for r in plain.values() if r.stage.kind == kind)
        q = quality([plain])
        for key in ("jf_corrupted", "jf_filtered", "train_loss"):
            value = q.get(key)
            m[f"quality.{key}"] = value if value is not None and math.isfinite(value) else 0.0
        untraced_s = sum(r.wall_s for r in plain.values())
        traced_s = sum(r.wall_s for r in traced_runs.values())
        m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        per_pair.append(m)
    metrics = {name: statistics.median(m[name] for m in per_pair) for name in tracing.LAYER_METRICS}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    write_spans(RESULTS / f"{stem}-spans.jsonl.gz", [p[2] for p in pairs])
    rows = tracing.layer_table(pairs[-1][2].spans)
    table = tracing.format_table(rows)
    dominant = tracing.dominant_layers(rows)
    (RESULTS / f"{stem}-layers.txt").write_text(
        table + "\n\ndominant layer per stage: " + json.dumps(dominant) + "\n"
    )
    print(table)
    print("dominant layer per stage: " + json.dumps(dominant))
    record = {
        "environment": env,
        "pairs": len(pairs),
        "dominant_layer": dominant,
        "layer_table": [list(r) for r in rows],
        "failures": verdicts,
    }
    units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    return metrics, units, attempted, failed, record


# --- main -------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    launched = time.perf_counter()
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "voskit" / "cli.py").is_file():
        print(f"error: no voskit sources at {SRC}; run from a voskit checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        mode = traced if args.trace else untraced
        metrics, units, attempted, failed, record = mode(args, workload, work, launched)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["environment"]["loadavg_after"] = list(os.getloadavg())
    bad_names = [n for n in metrics if not METRIC_NAME.match(n)]
    if bad_names:
        print(f"error: invalid metric names {bad_names}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    record["result"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    if args.trace == 0:
        for label, info in record["stages"].items():
            print(
                f"stage {label:<15} wall_s {statistics.median(info['wall_s']):8.3f}"
                f"  rss_mb {statistics.median(info['rss_mb']):7.1f}"
                f"  runs {len(info['wall_s'])}"
            )
        print(
            f"total_s {record['total_s']:.3f} (median over repetitions); reference "
            f"computation {statistics.mean(record['reference_s']):.4f} s (mean during stages)"
        )
        print("quality: " + json.dumps(record["quality"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
