"""ksep benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload eval-n10 --seed 1 --seconds 18 --trace 0

Run from anywhere inside a source checkout; ``ksep`` is imported from the
checkout's ``src`` (never from an installed copy), so in a directory that
holds only the benchmark the run fails with exit code 2 and prints no
result.  See ``perfbench/README.md`` for the workloads and metrics.

With ``--trace 0`` the last stdout line carries the end-to-end metrics,
their times scaled to a reference host speed (``hostspeed.py``);
with ``--trace 1`` it carries the per-layer metrics of a traced run (half
of the time untraced, half traced, so the tracing overhead is measured in
the same run).  The line before it is the environment block, and a full
record (environment, every job, referee results, spans) is written under
``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_SAMPLES = 3  # one in this process, the rest in fresh interpreters
STARTUP_SAMPLES = 3
EXIT_NO_PROGRAM = 2

WORKLOAD_IDS = {"eval-n10": 1, "detect-small": 2, "scan-ghz": 3, "cli-eval": 4}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ksep from this checkout's src, or exit without a result."""
    if not (SRC / "ksep" / "__init__.py").is_file():
        print(f"error: no ksep sources under {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)
    sys.path.insert(0, str(SRC))
    import ksep

    if Path(ksep.__file__).resolve().parent != SRC / "ksep":
        print(f"error: imported ksep from {ksep.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(EXIT_NO_PROGRAM)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


# --- running ------------------------------------------------------------------


def make_rng(seed: int, workload: str):
    import numpy as np

    return np.random.default_rng([seed, WORKLOAD_IDS[workload]])


def set_up(args, tracer, workdir: Path, host):
    """The workload and its set-up time in reference-host seconds (see hostspeed.py)."""
    from workloads import WORKLOADS  # imported before the clock starts

    workload, seconds, host_s = host.timed_setup(
        lambda: WORKLOADS[args.workload](make_rng(args.seed, args.workload), tracer, args.tiny, workdir)
    )
    return workload, host.scaled(seconds, host_s)


def setup_sample_in_child(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_loop(workload, seconds: float, tracer, records: list, tag: str, host) -> tuple[float, float]:
    """Closed loop, one client: whole rounds until ``seconds`` of job time.

    Returns the job time and the median calibration sample, taken after
    each job outside its timer (see hostspeed.py).
    """
    from checks import CheckFailed

    busy = 0.0
    samples: list = []
    round_no = 0
    while True:
        for job in workload.rounds[round_no % len(workload.rounds)]:
            tracer.job = f"{tag}{len(records)}"
            started = time.perf_counter()
            error = None
            try:
                raw = job.run(tracer)
            except Exception:  # a job that raises is a failed job, and the loop goes on
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - started
            busy += elapsed
            samples += host.samples_after(elapsed)
            info = {}
            if error is None:
                try:
                    info = job.check(raw)
                except CheckFailed as exc:
                    error = str(exc)
            records.append({"label": job.label, "seconds": elapsed, "error": error, **info})
        round_no += 1
        if busy >= seconds:
            return busy, statistics.median(samples)


def run_referees(workload, tracer) -> list:
    from checks import CheckFailed

    out = []
    for label, referee in workload.referees:
        tracer.job = "referee"
        try:
            referee(tracer)
            out.append({"label": label, "error": None})
        except CheckFailed as exc:
            out.append({"label": label, "error": str(exc)})
        except Exception:  # a referee that raises is a failed check
            out.append({"label": label, "error": traceback.format_exc(limit=3)})
    return out


def peak_rss_mb(workload: str) -> float:
    # ru_maxrss is in KiB on Linux; for cli-eval it is the largest child
    who = resource.RUSAGE_CHILDREN if workload == "cli-eval" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, setups, records, busy, host, host_s) -> dict:
    """Times in reference-host seconds: wall seconds scaled by the run's host speed (hostspeed.py)."""
    scaled = host.scaled
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "job_p50_s": metric(scaled(statistics.median(r["seconds"] for r in records), host_s), "s"),
        "jobs_per_s": metric(len(records) / scaled(busy, host_s), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(args.workload), "MB"),
    }


def cli_startup_s() -> float:
    from workloads import child_env

    samples = []
    for _ in range(STARTUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ksep.cli"], check=True, env=child_env(), timeout=120)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def main(argv=None) -> int:
    # on SIGTERM, unwind: a running job's subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    from hostspeed import HostSpeed
    from spans import NullTracer
    from workloads import CALIBRATION

    host = HostSpeed(CALIBRATION[args.workload])
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, setup_s = set_up(args, NullTracer(), workdir, host)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args.seed)
        print(json.dumps({"environment": env}), flush=True)
        if args.trace:
            record = traced_run(args, workdir, host)
        else:
            record = untraced_run(args, workdir, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["environment"] = env
    attempted = len(record["jobs"]) + len(record["referees"])
    failed = sum(1 for r in record["jobs"] + record["referees"] if r["error"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record.pop("metrics"),
    }
    record["fail_ratio"] = failed / attempted
    record["result"] = result
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for r in record["jobs"] + record["referees"]:
        if r["error"]:
            print(f"FAILED {r['label']}: {r['error']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def untraced_run(args, workdir: Path, host) -> dict:
    from layers import tail
    from spans import NullTracer

    tracer = NullTracer()
    workload, first_setup = set_up(args, tracer, workdir, host)
    setups = [first_setup] + [setup_sample_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
    records: list = []
    busy, host_s = run_loop(workload, args.seconds, tracer, records, "job", host)
    referees = run_referees(workload, tracer)
    metrics = end_to_end(args, setups, records, busy, host, host_s)
    return {
        "metrics": metrics,
        "setup_samples": setups,
        "host_s": host_s,
        "wall_job_p50_s": statistics.median(r["seconds"] for r in records),
        "job_tail_s": host.scaled(tail(r["seconds"] for r in records), host_s),
        "jobs": records,
        "referees": referees,
    }


def traced_run(args, workdir: Path, host) -> dict:
    from layers import per_layer
    from spans import NullTracer, Tracer, layer_self_seconds

    tracer = Tracer()
    tracer.install()
    workload, _ = set_up(args, tracer, workdir, host)
    tracer.uninstall()
    untraced: list = []
    _, untraced_host = run_loop(workload, args.seconds / 2, NullTracer(), untraced, "untraced", host)
    traced: list = []
    tracer.install()
    _, traced_host = run_loop(workload, args.seconds / 2, tracer, traced, "job", host)
    tracer.uninstall()
    referee_tracer = Tracer()
    referees = run_referees(workload, referee_tracer)
    startup = cli_startup_s() if args.workload == "cli-eval" else 0.0
    metrics = per_layer(
        tracer, untraced, traced, referees, referee_tracer.spans, startup, host.scaled, untraced_host, traced_host
    )
    return {
        "metrics": metrics,
        "host_s": [untraced_host, traced_host],
        "jobs": untraced + traced,
        "referees": referees,
        "layer_self_s": layer_self_seconds(tracer.spans),
        **tracer.to_json(),
    }


if __name__ == "__main__":
    sys.exit(main())
