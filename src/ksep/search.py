"""Stochastic search for violating probes and white-noise robustness scans.

The criterion only certifies non-k-separability when some product probe
pushes the test value above the tolerance, so the search below is a lower
bound machine: the best value found is achievable, but a non-positive
outcome never proves separability.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import criterion
from .criterion import (
    DEFAULT_TOLERANCE,
    NOT_K_SEPARABLE,
    CriterionReport,
    ProductProbe,
)
from .errors import GuardError, ParameterError
from .states import DensityMatrix, _checked_dims, _random_unit_factors, white_noise

GHZ_PAIR = "ghz-pair"
BASIS_PAIR = "basis-pair"
RANDOM = "random"
PROBE_STYLES = (GHZ_PAIR, BASIS_PAIR, RANDOM)

# most noise levels a dense fallback sweep may search, one full probe search
# each; the CLI default resolution 1e-3 needs 1 001
MAX_DENSE_POINTS = 10_001


@dataclass(frozen=True)
class SearchConfig:
    """Hill-climbing budget and seeding.

    Every random draw derives from ``seed``; restart r owns the substream
    seeded with ``seed ^ r``, so runs are reproducible.
    """

    restarts: int = 32
    max_iters: int = 500
    step_init: float = 0.3
    step_decay: float = 0.97
    seed: int = 1
    convergence_eps: float = 1e-10

    def __post_init__(self):
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ParameterError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.step_init > 0.0:
            raise ParameterError(f"step_init must be positive, got {self.step_init}")
        if not 0.0 < self.step_decay < 1.0:
            raise ParameterError(
                f"step_decay must lie strictly between 0 and 1, got {self.step_decay}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if not self.convergence_eps > 0.0:
            raise ParameterError(
                f"convergence_eps must be positive, got {self.convergence_eps}"
            )

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScanEvaluation:
    """One optimizer run inside a noise scan."""

    phase: str  # "grid", "bisect" or "dense"
    p: float
    lhs: float
    detected: bool


@dataclass(frozen=True)
class NoiseScanResult:
    """Detection threshold of a white-noise family.

    ``p_star`` is the smallest noise weight at which the search detected
    the state, bracketed by ``bracket`` (undetected below, detected at the
    top, equal endpoints in the degenerate cases).  ``grid_fallback`` marks
    scans where detection was not monotone on the coarse grid and a dense
    sweep replaced bisection.
    """

    p_star: float
    bracket: tuple[float, float]
    grid_fallback: bool
    evaluations: int
    probe_at_threshold: ProductProbe
    trace: tuple[ScanEvaluation, ...]

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.p_star <= hi:
            raise ParameterError(
                f"p_star {self.p_star} outside its bracket ({lo}, {hi})"
            )

    def to_json_dict(self, include_trace: bool = False) -> dict:
        out = {
            "p_star": self.p_star,
            "bracket": [self.bracket[0], self.bracket[1]],
            "grid_fallback": self.grid_fallback,
            "evaluations": self.evaluations,
            "probe_at_threshold": self.probe_at_threshold.to_json_dict(),
        }
        if include_trace:
            out["trace"] = [asdict(e) for e in self.trace]
        return out


def _basis_factors(dims, labels) -> tuple[np.ndarray, ...]:
    """The computational basis vector |labels[m]> at each site m."""
    return tuple(np.eye(d, dtype=np.complex128)[i] for d, i in zip(dims, labels))


def canonical_probe(
    style: str,
    dims,
    rng: np.random.Generator | None = None,
    indices: tuple[int, int] = (0, 0),
) -> ProductProbe:
    """Deterministic or seeded starting probes.

    ``ghz-pair``: copy 1 is all |0>, copy 2 all |d-1>; the pair that reads
    off the extremal off-diagonal element of GHZ-like states.
    ``basis-pair``: as above with the two basis labels from ``indices``.
    ``random``: sitewise random unit factors drawn from ``rng``.
    """
    dims = _checked_dims(dims)
    if style == GHZ_PAIR:
        return ProductProbe(
            _basis_factors(dims, [0] * len(dims)), _basis_factors(dims, [d - 1 for d in dims])
        )
    if style == BASIS_PAIR:
        i1, i2 = indices
        for d in dims:
            if not (0 <= i1 < d and 0 <= i2 < d):
                raise ParameterError(
                    f"basis indices {indices} out of range for site dimension {d}"
                )
        return ProductProbe(
            _basis_factors(dims, [i1] * len(dims)), _basis_factors(dims, [i2] * len(dims))
        )
    if style == RANDOM:
        if rng is None:
            raise ParameterError("style 'random' needs a generator")
        return ProductProbe(_random_unit_factors(dims, rng), _random_unit_factors(dims, rng))
    raise ParameterError(f"unknown probe style {style!r}, expected one of {PROBE_STYLES}")


def _perturbed(factors, step: float, rng: np.random.Generator):
    """Gaussian kick of scale ``step`` on every factor, renormalized sitewise."""
    out = []
    for f in factors:
        g = rng.standard_normal((2, f.shape[0]))
        cand = f + step * (g[0] + 1j * g[1])
        norm = float(np.linalg.norm(cand))
        out.append(f if norm == 0.0 else cand / norm)
    return out


def _climb(rho_mat, plan, u0, v0, rng, cfg: SearchConfig, history: list | None = None):
    """One hill-climbing restart; returns (best lhs, factors of the best probe).

    Every candidate goes through the evaluation core of ``criterion.evaluate``,
    so the best value equals the lhs of the report on the returned factors.
    The kick scale decays geometrically each iteration whether or not the
    candidate was accepted, and the best value never decreases.
    """
    u = list(u0)
    v = list(v0)
    first, terms = criterion._first_and_terms(rho_mat, u, v, plan)
    best = criterion._reduce_lhs(first, terms)
    if history is not None:
        history.append(best)
    step = cfg.step_init
    for _ in range(cfg.max_iters):
        if step < cfg.convergence_eps:
            break
        cand_u = _perturbed(u, step, rng)
        cand_v = _perturbed(v, step, rng)
        first, terms = criterion._first_and_terms(rho_mat, cand_u, cand_v, plan)
        value = criterion._reduce_lhs(first, terms)
        if value > best:
            best = value
            u = cand_u
            v = cand_v
        if history is not None:
            history.append(best)
        step *= cfg.step_decay
    return best, u, v


def _start_probe(restart: int, dims, rng: np.random.Generator) -> ProductProbe:
    # the two deterministic styles are always explored first
    if restart == 0:
        return canonical_probe(GHZ_PAIR, dims)
    if restart == 1:
        return canonical_probe(BASIS_PAIR, dims, indices=(0, 0))
    return canonical_probe(RANDOM, dims, rng=rng)


def optimize_probe(
    rho: DensityMatrix,
    k: int,
    cfg: SearchConfig,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CriterionReport:
    """Search for a product probe maximizing the test value at fixed k.

    Runs ``cfg.restarts`` independent hill climbs (restart 0 from the
    ghz-pair probe, restart 1 from the all-|0> basis pair, the rest from
    random probes) and reports the evaluation of the best probe found,
    ties resolved toward the lowest restart index.  Raises ParameterError
    for k outside 1..n and GuardError past the partition guard.
    """
    plan = criterion._partition_plan(rho.site_count, k)
    dims = rho.dims

    def run(restart: int):
        rng = np.random.default_rng(cfg.seed ^ restart)
        probe0 = _start_probe(restart, dims, rng)
        return _climb(rho.mat, plan, probe0.u, probe0.v, rng, cfg)

    results = [run(r) for r in range(cfg.restarts)]

    best_value, best_u, best_v = results[0]
    for value, u, v in results[1:]:
        if value > best_value:
            best_value, best_u, best_v = value, u, v
    probe = ProductProbe(tuple(best_u), tuple(best_v))
    return criterion.evaluate(rho, probe, k, tolerance)


def scan_noise(
    target: DensityMatrix,
    k: int,
    resolution: float,
    cfg: SearchConfig,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NoiseScanResult:
    """Locate the detection threshold of p*target + (1-p)*I/D in p.

    A 17-point coarse grid classifies each p by running the probe search;
    if detection is monotone in p the boundary is bisected down to
    ``resolution``, otherwise the scan falls back to a dense sweep of
    spacing ``resolution`` and reports the first detected point.  A sweep
    of more than MAX_DENSE_POINTS levels raises GuardError before it starts.
    """
    if not resolution > 0.0:
        raise ParameterError(f"resolution must be positive, got {resolution}")
    # a bad k fails here, before any search runs
    criterion._partition_plan(target.site_count, k)

    trace: list[ScanEvaluation] = []

    def run(p: float, phase: str):
        report = optimize_probe(white_noise(target, p), k, cfg, tolerance)
        detected = report.verdict == NOT_K_SEPARABLE
        trace.append(ScanEvaluation(phase=phase, p=p, lhs=report.lhs, detected=detected))
        return report, detected

    def result(p_star, bracket, fallback, probe):
        return NoiseScanResult(
            p_star=p_star,
            bracket=bracket,
            grid_fallback=fallback,
            evaluations=len(trace),
            probe_at_threshold=probe,
            trace=tuple(trace),
        )

    grid = [i / 16 for i in range(17)]
    flags = []
    reports = []
    for p in grid:
        report, detected = run(p, "grid")
        flags.append(detected)
        reports.append(report)

    if not any(flags):
        # undetectable even without noise
        return result(1.0, (1.0, 1.0), False, reports[-1].probe)

    first_hit = flags.index(True)
    monotone = all(flags[first_hit:])
    if not monotone:
        # detection flickers on the coarse grid; sweep densely instead
        steps = math.ceil(1.0 / resolution)
        if steps + 1 > MAX_DENSE_POINTS:
            raise GuardError(
                f"dense sweep at resolution {resolution} needs {steps + 1} searches, "
                f"more than the guard {MAX_DENSE_POINTS}"
            )
        dense = [min(i * resolution, 1.0) for i in range(steps + 1)]
        if dense[-1] != 1.0:
            dense.append(1.0)
        for p in dense:
            report, detected = run(p, "dense")
            if detected:
                return result(p, (max(p - resolution, 0.0), p), True, report.probe)
        return result(1.0, (1.0, 1.0), True, report.probe)

    if first_hit == 0:
        return result(0.0, (0.0, 0.0), False, reports[0].probe)

    lo = grid[first_hit - 1]
    hi = grid[first_hit]
    hit_probe = reports[first_hit].probe
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        report, detected = run(mid, "bisect")
        if detected:
            hi = mid
            hit_probe = report.probe
        else:
            lo = mid
    return result(hi, (lo, hi), False, hit_probe)
