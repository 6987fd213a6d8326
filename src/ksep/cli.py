"""Command line front end.

Machine-readable output (JSON by default, CSV where it makes sense) goes
to stdout; human diagnostics go to stderr.  Exit codes: 0 inconclusive or
plain success, 10 non-k-separability detected, 1 internal consistency
check failed, 2 bad input.

Every subcommand only computes: it returns a ``_Run`` and ``main`` times
it, builds the manifest and writes the JSON or CSV.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from . import __version__
from .criterion import DEFAULT_TOLERANCE, CriterionReport, ProductProbe, evaluate
from .errors import FormatError, GuardError, KsepError, ParameterError
from .oracle import equivalence_campaign
from .partitions import _CHUNK, MAX_PARTITIONS, _label_rows, _notations, stirling2
from .search import BASIS_PAIR, GHZ_PAIR, RANDOM, SearchConfig, canonical_probe, optimize_probe, scan_noise
from .states import DensityMatrix, NoisyPureState, _check_dense_dim, _read_json, ghz, load_state, maximally_mixed, w_state, white_noise

EXIT_OK = 0
EXIT_INTERNAL_CHECK = 1
EXIT_INPUT = 2
EXIT_DETECTED = 10

ORACLE_CHECK_THRESHOLD = 1e-10


# --- input parsing -----------------------------------------------------------


# family -> (flags, keys as key -> (type, default; None if required), builder
# taking the key values in key order).  The ket families are built as kets
# under white noise, the maximally mixed state densely.
_FAMILIES = {
    "ghz": ((), {"n": (int, None), "d": (int, 2)}, lambda n, d: white_noise(ghz(n, d), 1.0)),
    "w": ((), {"n": (int, None)}, lambda n: white_noise(w_state(n), 1.0)),
    "mixed": (("I",), {"n": (int, None), "d": (int, 2)}, lambda n, d: maximally_mixed((d,) * n)),
    "noisy-ghz": (
        (),
        {"n": (int, None), "p": (float, None), "d": (int, 2)},
        lambda n, p, d: white_noise(ghz(n, d), p),
    ),
}
_TYPE_NOUNS = {int: "an integer", float: "a number"}


def _parse_family(descriptor: str) -> DensityMatrix | NoisyPureState:
    """Build a state from a family descriptor like ``ghz:n=3,d=2``.

    Families: ghz:n=N[,d=D]; w:n=N; mixed:I,n=N[,d=D];
    noisy-ghz:n=N,p=P[,d=D].  An unknown family, flag or key, a missing key
    and a value that is not of its key's type raise FormatError; a state of
    dimension d^n over MAX_DENSE_DIM raises GuardError before it is built.
    ghz, w and noisy-ghz give a ``NoisyPureState`` (p = 1 for the first
    two), mixed a ``DensityMatrix``.
    """
    name, _, rest = descriptor.partition(":")
    if name not in _FAMILIES:
        raise FormatError(f"unknown family {name!r}; expected ghz, w, mixed or noisy-ghz")
    want_flags, keys, build = _FAMILIES[name]
    kv: dict[str, str] = {}
    flags: list[str] = []
    for token in filter(None, (t.strip() for t in rest.split(","))):
        if "=" in token:
            key, _, value = token.partition("=")
            kv[key.strip()] = value.strip()
        else:
            flags.append(token)
    if tuple(flags) != want_flags:
        raise FormatError(f"family {descriptor!r}: takes the flags {list(want_flags)}, got {flags}")
    unknown = sorted(kv.keys() - keys.keys())
    if unknown:
        raise FormatError(f"family {descriptor!r}: unknown key {unknown[0]!r}")
    values = {}
    for key, (kind, default) in keys.items():
        if key not in kv and default is None:
            raise FormatError(f"family {descriptor!r}: missing {key}=...")
        try:
            values[key] = kind(kv[key]) if key in kv else default
        except ValueError:
            raise FormatError(
                f"family {descriptor!r}: {key}={kv[key]!r} is not {_TYPE_NOUNS[kind]}"
            ) from None
    d = values.get("d", 2)
    if d >= 2:  # a smaller d is the builder's to report
        _check_dense_dim(itertools.repeat(d, values["n"]), f"family {descriptor!r}: ")
    return build(*values.values())


def _load_state_arg(args) -> tuple[DensityMatrix | NoisyPureState, str]:
    """The validated state named by ``--family`` or ``--state``, and its
    manifest input.  ``load_state`` validates a file while it reads it; a
    family's ``NoisyPureState`` is validated in O(D), without its matrix."""
    if args.family is not None:
        rho = _parse_family(args.family)
        rho.validate()
        return rho, f"family:{args.family}"
    return load_state(args.state), f"state:{args.state}"


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


# --- subcommands -------------------------------------------------------------


class _Run(NamedTuple):
    """What a subcommand computed: manifest ``inputs`` and extra
    ``manifest`` fields, the JSON ``fields`` after the manifest, the CSV
    ``table`` (one dict per row; the keys are the header) and the exit code."""

    inputs: list[str]
    fields: dict
    table: list[dict]
    code: int = EXIT_OK
    manifest: dict = {}


def _report_run(inputs, report: CriterionReport, fields: dict = {}, manifest: dict = {}) -> _Run:
    doc = report.to_json_dict()
    return _Run(
        inputs,
        {"report": doc, **fields},
        [{key: doc[key] for key in ("k", "lhs", "first_term", "verdict", "tolerance")}],
        EXIT_DETECTED if report.detected else EXIT_OK,
        manifest,
    )


def _cmd_eval(args) -> _Run:
    rho, state_desc = _load_state_arg(args)
    probe = _resolve_probe(args.probe, rho.dims, np.random.default_rng(args.seed))
    report = evaluate(rho, probe, args.k, args.tolerance)
    return _report_run([state_desc, f"probe:{args.probe}", f"k={args.k}"], report)


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        step_init=args.step_init,
        step_decay=args.step_decay,
        seed=args.seed,
        convergence_eps=args.eps,
    )


def _cmd_detect(args) -> _Run:
    rho, state_desc = _load_state_arg(args)
    cfg = _search_config(args)
    report = optimize_probe(rho, args.k, cfg, args.tolerance)
    return _report_run(
        [state_desc, f"k={args.k}"],
        report,
        {"probe": report.probe.to_json_dict()},
        {"search_config": cfg.to_json_dict()},
    )


def _cmd_scan(args) -> _Run:
    rho, state_desc = _load_state_arg(args)
    cfg = _search_config(args)
    doc = scan_noise(rho, args.k, args.resolution, cfg, args.tolerance).to_json_dict(
        include_trace=args.trace
    )
    p_lo, p_hi = doc["bracket"]
    summary = {
        "p_star": doc["p_star"], "p_lo": p_lo, "p_hi": p_hi,
        "grid_fallback": doc["grid_fallback"], "evaluations": doc["evaluations"],
    }
    return _Run(
        [state_desc, f"k={args.k}", f"resolution={args.resolution}"],
        {"result": doc},
        doc["trace"] if args.trace else [summary],
        manifest={"search_config": cfg.to_json_dict()},
    )


def _cmd_oracle_check(args) -> _Run:
    summary = equivalence_campaign(
        args.n, args.dmax, args.trials, args.seed, threshold=ORACLE_CHECK_THRESHOLD
    )
    if not summary.passed:
        print(
            f"oracle-check FAILED: max term deviation {summary.max_term_deviation:.3e}, "
            f"max lhs deviation {summary.max_lhs_deviation:.3e} "
            f"(threshold {ORACLE_CHECK_THRESHOLD:.1e})",
            file=sys.stderr,
        )
    doc = summary.to_json_dict()
    return _Run(
        [f"n={args.n}", f"dmax={args.dmax}", f"trials={args.trials}"],
        {"summary": doc},
        [{key: value for key, value in doc.items() if key != "threshold"}],
        EXIT_OK if summary.passed else EXIT_INTERNAL_CHECK,
    )


def _cmd_partitions(args) -> _Run:
    if not 1 <= args.k <= args.n <= 20:
        raise ParameterError(f"need 1 <= k <= n <= 20, got n={args.n}, k={args.k}")
    inputs = [f"n={args.n}", f"k={args.k}"]
    fields = {"n": args.n, "k": args.k, "count": stirling2(args.n, args.k)}
    if args.count_only:
        return _Run(inputs, fields, [fields])
    if fields["count"] > MAX_PARTITIONS:
        raise GuardError(
            f"{fields['count']} partitions is too many to list; use --count-only"
        )
    notations = _notations(_label_rows(args.n, args.k))
    return _Run(inputs, {**fields, "partitions": notations}, [{"partition": s} for s in notations])


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


# --- the one run path --------------------------------------------------------


def _cell(value):
    """A CSV cell: floats as their shortest round-trip repr, booleans as
    ``true``/``false``, anything else as written by ``csv``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


# stands in for a report's term list while the rest of the document is
# encoded; no command-line string can hold the NUL it encodes to
_TERMS = "\0terms"


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, with a report's term list written by
    one %-format per term instead of the pure-Python encoder.

    Only finite float values take the template: json writes ``NaN`` and
    ``Infinity`` where ``repr`` writes ``nan`` and ``inf``.
    """
    terms = doc.get("report", {}).get("terms")
    if not terms or not all(
        type(term["value"]) is float and math.isfinite(term["value"]) for term in terms
    ):
        return json.dumps(doc, indent=2)
    text = json.dumps({**doc, "report": {**doc["report"], "terms": _TERMS}}, indent=2)
    head, _, tail = text.partition(json.dumps(_TERMS))
    line = head[head.rfind("\n") + 1 :]
    pad = line[: len(line) - len(line.lstrip())]  # the indent of the "terms" key
    row = f'{pad}  {{\n{pad}    "partition": %s,\n{pad}    "value": %s\n{pad}  }}'
    # joined a chunk at a time: a row string for every term at once raised
    # the peak resident memory of a cold n=10, k=3 eval by 1.4 MB
    chunks = (
        ",\n".join(
            [
                row % (encode_basestring_ascii(term["partition"]), float.__repr__(term["value"]))
                for term in terms[start : start + _CHUNK]
            ]
        )
        for start in range(0, len(terms), _CHUNK)
    )
    return "".join([head, "[\n", ",\n".join(chunks), f"\n{pad}]", tail])


def main(argv=None) -> int:
    """Run the CLI; returns the exit code instead of calling sys.exit."""
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {args.seed}")
        run = args.func(args)
    except KsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(run.table[0])
        writer.writerows([_cell(v) for v in row.values()] for row in run.table)
        return run.code
    manifest = {
        "command": args.command,
        "inputs": run.inputs,
        "seed": args.seed,
        "tool_version": __version__,
        "wall_time_ms": int((time.perf_counter() - started) * 1000),
        **run.manifest,
    }
    print(_dumps({"manifest": manifest, **run.fields}))
    return run.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
