"""Stochastic search for violating probes and white-noise robustness scans.

The criterion only certifies non-k-separability when some product probe
pushes the test value above the tolerance, so the search below is a lower
bound machine: the best value found is achievable, but a non-positive
outcome never proves separability.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from . import criterion
from .criterion import (
    DEFAULT_TOLERANCE,
    NOT_K_SEPARABLE,
    CriterionReport,
    ProductProbe,
)
from .errors import GuardError, ParameterError
from .states import DensityMatrix, NoisyPureState, PureState, _checked_dims, _random_unit_factors, white_noise

GHZ_PAIR = "ghz-pair"
BASIS_PAIR = "basis-pair"
RANDOM = "random"
PROBE_STYLES = (GHZ_PAIR, BASIS_PAIR, RANDOM)

# most noise levels a dense fallback sweep may search, one full probe search
# each; the CLI default resolution 1e-3 needs 1 001
MAX_DENSE_POINTS = 10_001

# most complex entries the restarts climbing in lockstep may hold in their
# largest array, R times the evaluation core's per-probe entries (2 D^2 / d^2
# on a dense state, 2 D / d on a noisy ket, or the plan's gathered swap-set
# factors if more; ``criterion._core_entries``) or the normals of their
# kicks, if larger: 2^20 entries, 16 MiB, the size of one 10-qubit density
# matrix.  Restarts past it climb in further batches, with the same results.
# A scan's grid levels share a batch only while all their restarts and each
# level's own entries (3 D^2 dense: its matrix, interleaved copy and slot in
# the stacked core input; D for a ket) fit.
MAX_BATCH_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SearchConfig:
    """Hill-climbing budget and seeding.

    Every random draw derives from ``seed``; restart r owns the substream
    seeded with ``seed ^ r``, so runs are reproducible.  (These substreams
    overlap across seeds: seed 2 restart 1 is seed 3 restart 0.)  All
    restarts advance in lockstep, one batched evaluation per iteration, and
    each restart reaches exactly the floats it would reach climbing alone,
    so results do not depend on how the restarts are split into batches.
    A noise scan climbs its grid levels together the same way: every level
    uses this one seed, so its starts and kicks are shared, and each level
    gets the bits of its own search.
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
        if not math.isfinite(self.step_init):
            raise ParameterError(f"step_init must be finite, got {self.step_init}")
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
        if not math.isfinite(self.convergence_eps):
            raise ParameterError(
                f"convergence_eps must be finite, got {self.convergence_eps}"
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


@lru_cache(maxsize=64)
def _kick_index(dims: tuple[int, ...]) -> dict[int, np.ndarray]:
    """Where the kick of every factor sits in one iteration's normal draws.

    One iteration draws a (2, d_m) block (real parts, then imaginary parts)
    per site, every site of copy u before those of copy v.  Per site
    dimension d the result holds the (2, n_d, 2, d) positions of that
    dimension's blocks, in the order of ``criterion._stack``.
    """
    # where site m's block starts within a copy, and where each copy starts
    offsets = 2 * np.cumsum((0,) + dims[:-1])
    copy = np.arange(2)[:, None, None, None] * 2 * sum(dims)
    index = {}
    for d, sites in criterion._groups(dims).items():
        part = np.arange(2)[None, None, :, None] * d
        index[d] = copy + offsets[list(sites)][None, :, None, None] + part + np.arange(d)
    return index


def _steps(cfg: SearchConfig) -> list[float]:
    """The kick scale of each iteration: step_init * step_decay^i while it
    stays at or above convergence_eps, at most max_iters of them."""
    steps = []
    step = cfg.step_init
    while len(steps) < cfg.max_iters and not step < cfg.convergence_eps:
        steps.append(step)
        step *= cfg.step_decay
    return steps


def _kicks(rngs, iters: int, dims) -> np.ndarray:
    """The normals of every restart's kicks, (R, iters, 4 * sum(dims)).

    Restart r draws all of its kicks in one call on its own generator
    ``rngs[r]``; that is the stream of one (2, d) draw per factor per
    iteration, copy u first.
    """
    width = 4 * sum(dims)
    draws = [rng.standard_normal(iters * width) for rng in rngs]
    return np.array(draws).reshape(len(rngs), iters, width)


def _perturbed(factors: dict[int, np.ndarray], step: float, draws: np.ndarray, dims):
    """Every factor kicked by ``step`` times complex normals, renormalized factor by factor.

    ``draws`` holds one iteration's (R, 4 * sum(dims)) normals (see
    ``_kicks``).  The norm is sqrt(re.re + im.im) with both dot products
    taken by ``np.vecdot``, the same floats as ``np.linalg.norm`` of one
    factor.  A factor whose kicked vector is exactly zero stays where it was.
    """
    out = {}
    for d, index in _kick_index(dims).items():
        f = factors[d]
        g = draws[:, index]
        cand = f + step * (g[..., 0, :] + 1j * g[..., 1, :])
        norm = np.sqrt(np.vecdot(cand.real, cand.real) + np.vecdot(cand.imag, cand.imag))
        zero = norm == 0.0
        if zero.any():
            cand[zero] = f[zero]
            norm[zero] = 1.0
        out[d] = cand / norm[..., None]
    return out


def _climb(rho, plan, starts, rngs, cfg: SearchConfig, history: list | None = None):
    """Hill-climb R restarts in lockstep on S states; returns (best lhs per row, factors).

    ``rho`` is one state or a list of S states of the same dims and of one
    kind, dense (``DensityMatrix``) or noisy kets (``NoisyPureState``).  Every
    state gets R rows, state-major: row s*R + r is restart r on state s, which
    starts from ``starts[r]`` and takes the kicks drawn from ``rngs[r]``,
    the same on every state.  The kick scale decays geometrically each
    iteration whether or not a candidate was accepted, so every row runs the
    same iterations, and one iteration is one kick of all S * R probes, one
    call of the evaluation core of ``criterion.evaluate`` on the candidates
    and one accept mask.  Each row therefore gets the floats it would get
    alone, and its best value equals the lhs of the report on its factors.
    ``factors`` is the ``criterion._stack`` of the best probes; the best
    values never decrease.
    """
    states = [rho] if isinstance(rho, (DensityMatrix, NoisyPureState)) else rho
    inter = criterion._interleaved(states)
    dims = starts[0].dims

    def lhs(factors):
        first, weights = criterion._weights(inter, factors)
        return criterion._reduce_lhs(first, criterion._terms(weights, plan.masks, plan.expo))

    steps = _steps(cfg)
    # drawn once, then the same starts and kicks for every state
    kicks = np.tile(_kicks(rngs, len(steps), dims), (len(states), 1, 1))
    factors = {
        d: np.tile(f, (len(states), 1, 1, 1)) for d, f in criterion._stack(starts, dims).items()
    }
    best = lhs(factors)
    if history is not None:
        history.append(best)
    for i, step in enumerate(steps):
        cand = _perturbed(factors, step, kicks[:, i], dims)
        value = lhs(cand)
        better = value > best
        best = np.where(better, value, best)
        factors = {d: np.where(better[:, None, None, None], cand[d], f) for d, f in factors.items()}
        if history is not None:
            history.append(best)
    return best, factors


def _start_probe(restart: int, dims, rng: np.random.Generator) -> ProductProbe:
    # the two deterministic styles are always explored first
    if restart == 0:
        return canonical_probe(GHZ_PAIR, dims)
    if restart == 1:
        return canonical_probe(BASIS_PAIR, dims, indices=(0, 0))
    return canonical_probe(RANDOM, dims, rng=rng)


def _search_levels(dims, states, k: int, cfg: SearchConfig, tolerance: float) -> list[CriterionReport]:
    """The report of ``optimize_probe`` on every state of ``states``, in order.

    ``states`` is an iterable of states with site dimensions ``dims``, one
    per level.  Every level runs the same seeded search, so the levels share their
    starts and kicks: they are drawn once per batch and climbed in lockstep,
    one core call per iteration for the whole batch.  The states are of
    one kind, dense or noisy kets, and the first one sizes the batches
    (``criterion._core_entries``): a batch holds whole levels only while
    all their restarts plus each level's own entries fit within
    MAX_BATCH_ENTRIES complex entries; otherwise it is one level, whose
    restarts climb in batches under the same cap.  ``states`` is read one
    batch at a time, so a generator builds each state only when its batch
    starts, and a batch's states are released before the next is built.
    Each report is the one ``optimize_probe`` gives on that state alone.
    """
    plan = criterion._partition_plan(len(dims), k)
    levels = iter(states)
    batch = [next(levels)]
    per_probe, per_level = criterion._core_entries(batch[0], [plan])
    # per restart: the largest array of the evaluation core and of the
    # plan's terms, and the normals of the kicks (two of them fill one
    # complex entry)
    entries = max(per_probe, 2 * cfg.max_iters * sum(dims))
    chunk = max(1, MAX_BATCH_ENTRIES // entries)
    per_batch = max(1, MAX_BATCH_ENTRIES // (cfg.restarts * entries + per_level))
    batch += itertools.islice(levels, per_batch - 1)

    reports = []
    while batch:
        best = [None] * len(batch)
        for lo in range(0, cfg.restarts, chunk):
            restarts = range(lo, min(lo + chunk, cfg.restarts))
            rngs = [np.random.default_rng(cfg.seed ^ r) for r in restarts]
            starts = [_start_probe(r, dims, rng) for r, rng in zip(restarts, rngs)]
            values, factors = _climb(batch, plan, starts, rngs, cfg)
            for row, value in enumerate(values.tolist()):
                s = row // len(restarts)
                # the first strictly greater value wins; a NaN never does
                if best[s] is None or value > best[s][0]:
                    best[s] = (value, factors, row)
        for rho, (_, factors, row) in zip(batch, best):
            probe = criterion._probe_at(factors, dims, row)
            reports.append(criterion.evaluate(rho, probe, k, tolerance))
        # release this batch's states before the next batch builds its own
        del batch, rho
        batch = list(itertools.islice(levels, per_batch))
    return reports


def optimize_probe(
    rho: DensityMatrix | NoisyPureState,
    k: int,
    cfg: SearchConfig,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CriterionReport:
    """Search for a product probe maximizing the test value at fixed k.

    Runs ``cfg.restarts`` independent hill climbs (restart 0 from the
    ghz-pair probe, restart 1 from the all-|0> basis pair, the rest from
    random probes) and reports the evaluation of the best probe found,
    ties resolved toward the lowest restart index.  The restarts climb in
    lockstep, in batches whose largest array stays within
    MAX_BATCH_ENTRIES complex entries; restart r keeps its own generator
    ``default_rng(cfg.seed ^ r)``, so the result does not depend on the
    batching.  Raises ParameterError for k outside 1..n or a tolerance that
    is not finite, and GuardError past the partition guard.
    """
    criterion._check_tolerance(tolerance)
    return _search_levels(rho.dims, [rho], k, cfg, tolerance)[0]


def scan_noise(
    target: DensityMatrix | PureState | NoisyPureState,
    k: int,
    resolution: float,
    cfg: SearchConfig,
    tolerance: float = DEFAULT_TOLERANCE,
) -> NoiseScanResult:
    """Locate the detection threshold of p*target + (1-p)*I/D in p.

    Every noise level is ``white_noise(target, p)``: dense for a
    ``DensityMatrix`` target, a ``NoisyPureState`` for a ket target.

    A 17-point coarse grid classifies each p by running the probe search;
    if detection is monotone in p the boundary is bisected down to
    ``resolution``, otherwise the scan falls back to a dense sweep of
    spacing ``resolution`` and reports the first detected point.  A sweep
    of more than MAX_DENSE_POINTS levels raises GuardError before it starts.
    The grid levels climb together in lockstep batches (``_search_levels``,
    as many whole levels per batch as MAX_BATCH_ENTRIES allows, each noisy
    state built when its batch starts); every level gets the bits its own
    ``optimize_probe`` would.  Bisection and the dense sweep search one
    level at a time.  A resolution that is not positive and finite, or a
    tolerance that is not finite, raises ParameterError before any search.
    """
    if not resolution > 0.0:
        raise ParameterError(f"resolution must be positive, got {resolution}")
    if not math.isfinite(resolution):
        raise ParameterError(f"resolution must be finite, got {resolution}")
    criterion._check_tolerance(tolerance)
    # a bad k fails here, before any search runs
    criterion._partition_plan(target.site_count, k)

    trace: list[ScanEvaluation] = []

    def record(p: float, phase: str, report) -> bool:
        detected = report.verdict == NOT_K_SEPARABLE
        trace.append(ScanEvaluation(phase=phase, p=p, lhs=report.lhs, detected=detected))
        return detected

    def run(p: float, phase: str):
        report = optimize_probe(white_noise(target, p), k, cfg, tolerance)
        return report, record(p, phase, report)

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
    noisy = (white_noise(target, p) for p in grid)
    reports = _search_levels(target.dims, noisy, k, cfg, tolerance)
    flags = [record(p, "grid", report) for p, report in zip(grid, reports)]

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
