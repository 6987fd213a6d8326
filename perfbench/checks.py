"""Closed-form referees for the benchmark's correctness checks.

Every expected value here is derived from the physics, not recorded from a
previous run, so a change that moves the floats by rounding (a new
evaluation core) or reseeds the search keeps passing, while a wrong lhs or
a wrong threshold fails.  Nothing in this module imports ``ksep``.
"""

from __future__ import annotations

import json
import math

GHZ_PAIR_TOL = 1e-10
FIRST_TERM_TOL = 1e-12
ORACLE_TOL = 1e-10
SEPARABLE_TOL = 1e-9
REDUCE_TOL = 1e-9
EXIT_OK = 0
EXIT_DETECTED = 10


class CheckFailed(Exception):
    """An output disagrees with its closed form."""


def stirling2(n: int, k: int) -> int:
    """Partitions of n items into k nonempty blocks, by inclusion-exclusion."""
    total = sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // math.factorial(k)


def ghz_pair_lhs(n: int, p: float, k: int) -> float:
    """lhs of the ghz-pair probe on p*GHZ_n + (1-p)*I/2^n.

    With a = (1-p)/2^n every swapped diagonal weight is either p/2 + a (no
    site or all sites swapped) or a.  k=1 gives -a; k=2 has 2^(n-1)-1
    partitions, each the geometric mean of both kinds; for k >= 3 every
    swap set is a proper nonempty subset of the sites, so every one of the
    S(n,k) terms is a.
    """
    a = (1.0 - p) / 2**n
    if k == 1:
        return -a
    if k == 2:
        return p / 2 - (2 ** (n - 1) - 1) * math.sqrt(a * (p / 2 + a))
    return p / 2 - stirling2(n, k) * a


def scan_root(n: int) -> float:
    """White-noise weight p at which the k=2 ghz-pair lhs of GHZ_n crosses 0.

    The root of p^2/4 = N^2 a (p/2 + a) with N = 2^(n-1) - 1 and
    a = (1-p)/2^n, by bisection on (0, 1).
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ghz_pair_lhs(n, mid, 2) > 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def noisy_ghz_first_term(u, v, p: float) -> float:
    """|<u|rho|v>| for rho = p*GHZ_n + (1-p)*I/2^n, from the qubit factors.

    <u|GHZ> = (prod conj(u_m[0]) + prod conj(u_m[1]))/sqrt(2) and
    <u|v> = prod <u_m|v_m>, so no 2^n-dimensional vector is built.
    """
    def branch(factors, label, conj):
        amp = math.prod(complex(f[label]) for f in factors)
        return amp.conjugate() if conj else amp

    bra = (branch(u, 0, True) + branch(u, 1, True)) / math.sqrt(2)
    ket = (branch(v, 0, False) + branch(v, 1, False)) / math.sqrt(2)
    overlap = math.prod(
        sum(complex(x).conjugate() * complex(y) for x, y in zip(fu, fv)) for fu, fv in zip(u, v)
    )
    return abs(p * bra * ket + (1.0 - p) / 2 ** len(u) * overlap)


def expect_close(label: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r} within {tol:g}")


def check_report(label: str, summary: dict, n: int, k: int) -> None:
    """Shape of one evaluation: S(n,k) finite nonnegative terms, lhs = first - sum."""
    if summary["partitions"] != stirling2(n, k):
        raise CheckFailed(
            f"{label}: {summary['partitions']} partition terms, expected S({n},{k})={stirling2(n, k)}"
        )
    if not summary["terms_ok"]:
        raise CheckFailed(f"{label}: a partition term is negative or not finite")
    expect_close(f"{label} lhs", summary["lhs"], summary["first"] - summary["term_sum"], REDUCE_TOL)


def check_ghz_pair(label: str, lhs: float, n: int, p: float, k: int) -> None:
    expect_close(label, lhs, ghz_pair_lhs(n, p, k), GHZ_PAIR_TOL)


def check_separable(label: str, lhs: float) -> None:
    if not lhs <= SEPARABLE_TOL:
        raise CheckFailed(f"{label}: lhs {lhs!r} > {SEPARABLE_TOL:g} on a separable state")


def check_detected(label: str, lhs: float, tolerance: float) -> None:
    if not lhs > tolerance:
        raise CheckFailed(f"{label}: lhs {lhs!r} not above {tolerance:g}, expected a detection")


def check_scan(label: str, p_star: float, n: int, resolution: float) -> None:
    expect_close(f"{label} p*", p_star, scan_root(n), 2 * resolution)


def check_cli(label: str, exit_code: int, stdout: str, tolerance: float) -> dict:
    """Parse one ``ksep eval`` output; its exit code must match its lhs."""
    try:
        doc = json.loads(stdout)
        lhs = float(doc["report"]["lhs"])
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{label}: output is not an eval report ({exc})") from None
    want = EXIT_DETECTED if lhs > tolerance else EXIT_OK
    if exit_code != want:
        raise CheckFailed(f"{label}: exit code {exit_code} for lhs {lhs!r}, expected {want}")
    return doc
