"""Per-layer metrics of a traced run, computed from its spans.

Layers are ksep's modules.  Times are means per call (self time where the
name says so); counts are per job or per plan build, so that a run that
fits more jobs into its time budget does not read as more work per job.
A metric whose layer the workload does not exercise, or whose wrapped name
no longer exists (listed as ``absent`` in the run record), reads 0.
"""

from __future__ import annotations

import statistics

from spans import END, EXTRA, JOB, NAME, durations

# name -> (unit, definition); BENCHMARK.json lists the same names
PER_LAYER = {
    "partitions.plan_s": ("s", "mean seconds per partition-plan build, swap sets included"),
    "partitions.partitions": ("count", "partitions enumerated per plan build"),
    "partitions.swap_sets": ("count", "swap sets built per plan build"),
    "criterion.evaluate_s": ("s", "mean self seconds per evaluate call"),
    "criterion.evaluate_calls": ("count", "evaluate calls per job"),
    "criterion.partitions_per_s": ("1/s", "partition terms per second of evaluate self time"),
    "criterion.parallel_s": ("s", "mean self seconds per evaluate_parallel call"),
    "search.optimize_s": ("s", "mean self seconds per optimize_probe call"),
    "search.evals": ("count", "search evaluations per job, restarts*(max_iters+1)+1 per search"),
    "search.evals_per_s": ("1/s", "search evaluations per second of optimize_probe time"),
    "search.scan_steps": ("count", "optimizer runs per scan"),
    "search.scan_s": ("s", "mean seconds per scan_noise call"),
    "search.detect_ratio": ("ratio", "share of W_3 searches that detect"),
    "states.build_s": ("s", "seconds building states during set-up"),
    "states.white_noise_s": ("s", "mean seconds per white_noise call"),
    "states.white_noise_calls": ("count", "white_noise calls per job"),
    "states.validate_s": ("s", "mean seconds per DensityMatrix.validate call"),
    "linalg.check_density_s": ("s", "mean self seconds per check_density call"),
    "oracle.check_s": ("s", "mean seconds per oracle_evaluate call in the referee checks"),
    "cli.startup_s": ("s", "median seconds of a bare 'import ksep.cli' in a fresh interpreter"),
    "cli.self_wall_s": ("s", "median of the CLI manifest's wall_time_ms"),
    "cli.overhead_s": ("s", "median CLI job wall time outside its own manifest wall time"),
    "job_tail_s": ("s", "untraced job time at the highest percentile with >= 10 jobs beyond it, in reference-host seconds"),
    "fail_ratio": ("ratio", "failed jobs and referee checks over all attempted"),
    "trace.overhead_s": ("s", "traced job_p50_s minus untraced job_p50_s, each in reference-host seconds"),
    "host.calibration_s": ("s", "median time of the workload's calibration task over the untraced half"),
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(durations) -> float:
    """Job time at the highest percentile with >= 10 jobs beyond it; the slowest job when there are fewer than 11."""
    ordered = sorted(durations)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def per_layer(tracer, untraced, traced, referees, oracle_spans, startup_s, scaled, untraced_host, traced_host) -> dict:
    """Span times are wall seconds; job_tail_s and trace.overhead_s are scaled like job_p50_s."""
    spans = [s for s in tracer.spans if s[END] is not None]
    inclusive, self_time = durations(spans)

    def select(name, jobs_only=True):
        return [
            i for i, s in enumerate(spans) if s[NAME] == name and (not jobs_only or s[JOB].startswith("job"))
        ]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    jobs = len(traced)
    plans = select("partitions.plan", jobs_only=False)
    evals = select("criterion.evaluate")
    parallel = select("criterion.evaluate_parallel")
    optimize = select("search.optimize_probe")
    scans = select("search.scan_noise")
    noise = select("states.white_noise")
    validate = select("states.validate")
    density = select("linalg.check_density")
    builds = [i for i, s in enumerate(spans) if s[NAME] == "states.build" and s[JOB] == "setup"]
    search_evals = sum(spans[i][EXTRA] or 0 for i in optimize)
    w3 = [r for r in untraced + traced if "w3_detected" in r]
    cli = [r for r in untraced if "self_wall_s" in r]
    records = untraced + traced + referees
    oracle_in, _ = durations(oracle_spans)

    values = {
        "partitions.plan_s": mean(inclusive[i] for i in plans),
        "partitions.partitions": mean(spans[i][EXTRA] for i in plans),
        "partitions.swap_sets": _ratio(tracer.counts.get("partitions.swap_sets", 0), len(plans)),
        "criterion.evaluate_s": mean(self_time[i] for i in evals),
        "criterion.evaluate_calls": _ratio(len(evals), jobs),
        "criterion.partitions_per_s": _ratio(
            sum(spans[i][EXTRA] or 0 for i in evals), sum(self_time[i] for i in evals)
        ),
        "criterion.parallel_s": mean(self_time[i] for i in parallel),
        "search.optimize_s": mean(self_time[i] for i in optimize),
        "search.evals": _ratio(search_evals, jobs),
        "search.evals_per_s": _ratio(search_evals, sum(inclusive[i] for i in optimize)),
        "search.scan_steps": mean(spans[i][EXTRA] for i in scans),
        "search.scan_s": mean(inclusive[i] for i in scans),
        "search.detect_ratio": _ratio(sum(r["w3_detected"] for r in w3), len(w3)),
        "states.build_s": sum(inclusive[i] for i in builds),
        "states.white_noise_s": mean(inclusive[i] for i in noise),
        "states.white_noise_calls": _ratio(len(noise), jobs),
        "states.validate_s": mean(inclusive[i] for i in validate),
        "linalg.check_density_s": mean(self_time[i] for i in density),
        "oracle.check_s": mean(d for s, d in zip(oracle_spans, oracle_in) if s[NAME] == "oracle.oracle_evaluate"),
        "cli.startup_s": startup_s,
        "cli.self_wall_s": _median(r["self_wall_s"] for r in cli),
        "cli.overhead_s": _median(r["seconds"] - r["self_wall_s"] for r in cli),
        "job_tail_s": scaled(tail(r["seconds"] for r in untraced), untraced_host),
        "fail_ratio": _ratio(sum(1 for r in records if r["error"]), len(records)),
        "trace.overhead_s": scaled(_median(r["seconds"] for r in traced), traced_host)
        - scaled(_median(r["seconds"] for r in untraced), untraced_host),
        "host.calibration_s": untraced_host,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in PER_LAYER.items()}
