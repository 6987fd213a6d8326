"""Command line front end.

Machine-readable output (JSON by default, CSV where it makes sense) goes
to stdout; human diagnostics go to stderr.  Exit codes: 0 inconclusive or
plain success, 10 non-k-separability detected, 1 internal consistency
check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .criterion import (
    DEFAULT_TOLERANCE,
    CriterionReport,
    ProductProbe,
    evaluate,
)
from .errors import FormatError, GuardError, KsepError, ParameterError
from .oracle import equivalence_campaign
from .partitions import MAX_PARTITIONS, enumerate_kpartitions, stirling2
from .search import (
    BASIS_PAIR,
    GHZ_PAIR,
    RANDOM,
    SearchConfig,
    canonical_probe,
    optimize_probe,
    scan_noise,
)
from .states import (
    DensityMatrix,
    _read_json,
    ghz,
    load_state,
    maximally_mixed,
    w_state,
    white_noise,
)

EXIT_OK = 0
EXIT_INTERNAL_CHECK = 1
EXIT_INPUT = 2
EXIT_DETECTED = 10

ORACLE_CHECK_THRESHOLD = 1e-10


# --- input parsing -----------------------------------------------------------


def _parse_family(descriptor: str) -> DensityMatrix:
    """Build a state from a family descriptor like ``ghz:n=3,d=2``.

    Families: ghz:n=N[,d=D]; w:n=N; mixed:I,n=N[,d=D];
    noisy-ghz:n=N,p=P[,d=D].
    """
    name, _, rest = descriptor.partition(":")
    kv: dict[str, str] = {}
    flags: list[str] = []
    if rest:
        for token in rest.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                kv[key.strip()] = value.strip()
            else:
                flags.append(token)

    def want_int(key):
        if key not in kv:
            raise FormatError(f"family {descriptor!r}: missing {key}=...")
        try:
            return int(kv[key])
        except ValueError:
            raise FormatError(f"family {descriptor!r}: {key}={kv[key]!r} is not an integer")

    def want_float(key):
        if key not in kv:
            raise FormatError(f"family {descriptor!r}: missing {key}=...")
        try:
            return float(kv[key])
        except ValueError:
            raise FormatError(f"family {descriptor!r}: {key}={kv[key]!r} is not a number")

    def opt_int(key, default):
        return int(kv[key]) if key in kv else default

    if name == "ghz":
        return ghz(want_int("n"), opt_int("d", 2)).to_density()
    if name == "w":
        return w_state(want_int("n")).to_density()
    if name == "mixed":
        if flags != ["I"]:
            raise FormatError(
                f"family {descriptor!r}: only the maximally mixed form 'mixed:I,n=N' is supported"
            )
        n = want_int("n")
        d = opt_int("d", 2)
        if n < 1 or d < 2:
            raise FormatError(f"family {descriptor!r}: need n >= 1 and d >= 2")
        return maximally_mixed((d,) * n)
    if name == "noisy-ghz":
        target = ghz(want_int("n"), opt_int("d", 2)).to_density()
        return white_noise(target, want_float("p"))
    raise FormatError(
        f"unknown family {name!r}; expected ghz, w, mixed or noisy-ghz"
    )


def _load_state_arg(args) -> tuple[DensityMatrix, str]:
    if args.family is not None:
        return _parse_family(args.family), f"family:{args.family}"
    rho = load_state(args.state)
    return rho, f"state:{args.state}"


def _resolve_probe(spec: str, dims, rng: np.random.Generator) -> ProductProbe:
    if spec == GHZ_PAIR:
        return canonical_probe(GHZ_PAIR, dims)
    if spec == RANDOM:
        return canonical_probe(RANDOM, dims, rng=rng)
    if spec.startswith(BASIS_PAIR):
        _, _, rest = spec.partition(":")
        try:
            i1, i2 = (int(tok) for tok in rest.split(","))
        except ValueError:
            raise FormatError(
                f"probe {spec!r}: expected basis-pair:IDX1,IDX2"
            )
        return canonical_probe(BASIS_PAIR, dims, indices=(i1, i2))
    if os.path.exists(spec):
        return ProductProbe.from_json_dict(_read_json(spec), dims)
    raise FormatError(
        f"probe {spec!r} is neither a known style (ghz-pair, random, basis-pair:i,j) nor a file"
    )


# --- output helpers ----------------------------------------------------------


def _manifest(command: str, inputs: list[str], seed: int, started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "tool_version": __version__,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
    }


def _print_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _print_csv(header, rows) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def _report_csv(report: CriterionReport):
    header = ["k", "lhs", "first_term", "verdict", "tolerance"]
    row = [report.k, repr(report.lhs), repr(report.first_term), report.verdict, repr(report.tolerance)]
    return header, [row]


def _emit_report(args, manifest: dict, report: CriterionReport, extra: dict | None = None) -> int:
    if args.format == "csv":
        header, rows = _report_csv(report)
        _print_csv(header, rows)
    else:
        payload = {"manifest": manifest, "report": report.to_json_dict()}
        if extra:
            payload.update(extra)
        _print_json(payload)
    return EXIT_DETECTED if report.detected else EXIT_OK


# --- subcommands -------------------------------------------------------------


def _cmd_eval(args) -> int:
    started = time.perf_counter()
    rho, state_desc = _load_state_arg(args)
    rho.validate()
    rng = np.random.default_rng(args.seed)
    probe = _resolve_probe(args.probe, rho.dims, rng)
    report = evaluate(rho, probe, args.k, args.tolerance)
    manifest = _manifest(
        "eval",
        [state_desc, f"probe:{args.probe}", f"k={args.k}"],
        args.seed,
        started,
    )
    return _emit_report(args, manifest, report)


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        step_init=args.step_init,
        step_decay=args.step_decay,
        seed=args.seed,
        convergence_eps=args.eps,
    )


def _cmd_detect(args) -> int:
    started = time.perf_counter()
    rho, state_desc = _load_state_arg(args)
    rho.validate()
    cfg = _search_config(args)
    report = optimize_probe(rho, args.k, cfg, args.tolerance)
    manifest = _manifest("detect", [state_desc, f"k={args.k}"], args.seed, started)
    manifest["search_config"] = cfg.to_json_dict()
    return _emit_report(args, manifest, report, extra={"probe": report.probe.to_json_dict()})


def _cmd_scan(args) -> int:
    started = time.perf_counter()
    rho, state_desc = _load_state_arg(args)
    rho.validate()
    cfg = _search_config(args)
    result = scan_noise(rho, args.k, args.resolution, cfg, args.tolerance)
    manifest = _manifest(
        "scan",
        [state_desc, f"k={args.k}", f"resolution={args.resolution}"],
        args.seed,
        started,
    )
    manifest["search_config"] = cfg.to_json_dict()
    if args.format == "csv":
        if args.trace:
            _print_csv(
                ["phase", "p", "lhs", "detected"],
                [
                    [e.phase, repr(e.p), repr(e.lhs), "true" if e.detected else "false"]
                    for e in result.trace
                ],
            )
        else:
            _print_csv(
                ["p_star", "p_lo", "p_hi", "grid_fallback", "evaluations"],
                [
                    [
                        repr(result.p_star),
                        repr(result.bracket[0]),
                        repr(result.bracket[1]),
                        "true" if result.grid_fallback else "false",
                        result.evaluations,
                    ]
                ],
            )
    else:
        _print_json(
            {
                "manifest": manifest,
                "result": result.to_json_dict(include_trace=args.trace),
            }
        )
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    started = time.perf_counter()
    summary = equivalence_campaign(
        args.n, args.dmax, args.trials, args.seed, threshold=ORACLE_CHECK_THRESHOLD
    )
    manifest = _manifest(
        "oracle-check",
        [f"n={args.n}", f"dmax={args.dmax}", f"trials={args.trials}"],
        args.seed,
        started,
    )
    if args.format == "csv":
        _print_csv(
            ["trials", "comparisons", "max_term_deviation", "max_lhs_deviation", "passed"],
            [
                [
                    summary.trials,
                    summary.comparisons,
                    repr(summary.max_term_deviation),
                    repr(summary.max_lhs_deviation),
                    "true" if summary.passed else "false",
                ]
            ],
        )
    else:
        _print_json({"manifest": manifest, "summary": summary.to_json_dict()})
    if not summary.passed:
        print(
            f"oracle-check FAILED: max term deviation {summary.max_term_deviation:.3e}, "
            f"max lhs deviation {summary.max_lhs_deviation:.3e} "
            f"(threshold {ORACLE_CHECK_THRESHOLD:.1e})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL_CHECK
    return EXIT_OK


def _cmd_partitions(args) -> int:
    started = time.perf_counter()
    if not 1 <= args.k <= args.n <= 20:
        raise ParameterError(f"need 1 <= k <= n <= 20, got n={args.n}, k={args.k}")
    count = stirling2(args.n, args.k)
    manifest = _manifest(
        "partitions", [f"n={args.n}", f"k={args.k}"], args.seed, started
    )
    if args.count_only:
        if args.format == "csv":
            _print_csv(["n", "k", "count"], [[args.n, args.k, count]])
        else:
            _print_json(
                {"manifest": manifest, "n": args.n, "k": args.k, "count": count}
            )
        return EXIT_OK
    if count > MAX_PARTITIONS:
        raise GuardError(
            f"{count} partitions is too many to list; use --count-only"
        )
    notations = [part.notation() for part in enumerate_kpartitions(args.n, args.k)]
    if args.format == "csv":
        _print_csv(["partition"], [[s] for s in notations])
    else:
        _print_json(
            {
                "manifest": manifest,
                "n": args.n,
                "k": args.k,
                "count": count,
                "partitions": notations,
            }
        )
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="seed for every random draw")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="detection threshold on the test value",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="stdout format"
    )


def _add_state_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", help="path to a state JSON file")
    group.add_argument(
        "--family",
        help="family descriptor, e.g. ghz:n=3,d=2 | w:n=4 | mixed:I,n=3 | noisy-ghz:n=3,p=0.6",
    )


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--restarts", type=int, default=32)
    parser.add_argument("--max-iters", type=int, default=500, dest="max_iters")
    parser.add_argument("--step-init", type=float, default=0.3, dest="step_init")
    parser.add_argument("--step-decay", type=float, default=0.97, dest="step_decay")
    parser.add_argument(
        "--eps", type=float, default=1e-10, help="stop a restart once the step is below this"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksep",
        description="Detect non-k-separability of multipartite states via two-copy permutation tests.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the criterion for one probe")
    _add_state_source(p_eval)
    p_eval.add_argument(
        "--probe",
        required=True,
        help="ghz-pair | random | basis-pair:IDX1,IDX2 | path to a probe JSON file",
    )
    p_eval.add_argument("--k", type=int, required=True)
    _add_common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_detect = sub.add_parser("detect", help="search for a violating probe")
    _add_state_source(p_detect)
    p_detect.add_argument("--k", type=int, required=True)
    _add_search_flags(p_detect)
    _add_common(p_detect)
    p_detect.set_defaults(func=_cmd_detect)

    p_scan = sub.add_parser("scan", help="white-noise robustness threshold")
    _add_state_source(p_scan)
    p_scan.add_argument("--k", type=int, required=True)
    p_scan.add_argument("--resolution", type=float, default=1e-3)
    p_scan.add_argument(
        "--trace", action="store_true", help="include every optimizer run in the output"
    )
    _add_search_flags(p_scan)
    _add_common(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the fast path against explicit operators"
    )
    p_oracle.add_argument("--n", type=int, default=3)
    p_oracle.add_argument("--dmax", type=int, default=2)
    p_oracle.add_argument("--trials", type=int, default=100)
    _add_common(p_oracle)
    p_oracle.set_defaults(func=_cmd_oracle_check)

    p_parts = sub.add_parser("partitions", help="list partitions into k blocks")
    p_parts.add_argument("--n", type=int, required=True)
    p_parts.add_argument("--k", type=int, required=True)
    p_parts.add_argument("--count-only", action="store_true", dest="count_only")
    _add_common(p_parts)
    p_parts.set_defaults(func=_cmd_partitions)

    return parser


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of calling sys.exit."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
