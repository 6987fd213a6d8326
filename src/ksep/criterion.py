"""Two-copy permutation test for non-k-separability.

For a density matrix rho on n sites and a probe pair of product vectors
(phi1 = u_0 x ... x u_{n-1},  phi2 = v_0 x ... x v_{n-1}) the test value is

    lhs = |<phi1| rho |phi2>|
          - sum over partitions alpha of the sites into k blocks of
            ( prod over merged swap sets s of alpha of
              (<x1_s| rho |x1_s> <x2_s| rho |x2_s>)^multiplicity )^(1 / (2 k^2))

where (x1_s, x2_s) is the probe pair with the factors on the sites in s
exchanged between the two copies.  Every k-separable state keeps
lhs <= 0 for every product probe, so lhs > tolerance certifies that rho is
not k-separable (k = 2: genuine multipartite entanglement).

Every swapped vector x1_s is a product x_a whose site m carries v_m when
bit m of the label a is set and u_m otherwise (site 0 is the most
significant bit), and x2_s is x1 of the complement.  So all 2^n diagonal
weights W[a] = <x_a| rho |x_a> and the first term come out of one
contraction: rho, with one ket and one bra axis per site side by side (the
state's cached ``interleaved`` copy, built once per state), is contracted
site by site against the stacked pair [u_m; v_m], a D^2 pass that never
builds a probe vector.  A pure state under white noise,
rho = p |psi><psi| + (1 - p) I / D (``NoisyPureState``), is read from its
ket instead, a D pass with the same loop:
W[a] = p |<x_a|psi>|^2 + (1 - p) / D <x_a|x_a>, and the first term is
|p <phi1|psi><psi|phi2> + (1 - p) / D <phi1|phi2>|.  A partition term
then only gathers W[s] * W[complement of s] by integer masks from a plan
cached per (n, k).
The core evaluates a stack of R probes on each of S states at once, each
probe with the floats it would get alone: the probe search climbs all its
restarts, on every noise level of a scan's grid, through it,
``evaluate_batch`` scores many probes on one state, and ``evaluate`` is its
batch of one.
The two-copy operators are never materialized here (see ``oracle`` for the
explicit route).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    NormalizationError,
    NumericalError,
    ParameterError,
)
from .linalg import UNIT_NORM_TOL, kron_all
from .partitions import KPartition, _label_rows, _notations, _partitions_of, block_pairs
from .states import DensityMatrix, NoisyPureState, _complex_entries, _pairs

DEFAULT_TOLERANCE = 1e-9
# diagonal expectation values this far below zero are treated as rounding
DIAG_CLAMP = -1e-12

NOT_K_SEPARABLE = "not_k_separable"
INCONCLUSIVE = "inconclusive"

# cache key of the (first term, weights) pair of one (rho, probe)
_WEIGHTS = "weights"

# copies (0 = u, 1 = v) in the bras and kets of the forms <u|.|u>, <v|.|v>, <u|.|v>
_BRA_ROWS = np.array([0, 1, 0])
_KET_ROWS = np.array([0, 1, 1])


@dataclass(frozen=True)
class ProductProbe:
    """A pair of fully product vectors, stored as per-site unit factors."""

    u: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]

    def __post_init__(self):
        u = tuple(np.array(f, dtype=np.complex128) for f in self.u)
        v = tuple(np.array(f, dtype=np.complex128) for f in self.v)
        if not u or len(u) != len(v):
            raise DimensionError(
                f"probe copies have {len(u)} and {len(v)} factors, expected equal and >= 1"
            )
        for m, (fu, fv) in enumerate(zip(u, v)):
            for copy_name, f in (("u", fu), ("v", fv)):
                if f.ndim != 1 or f.shape[0] < 2:
                    raise DimensionError(
                        f"probe factor {copy_name}[{m}] has shape {f.shape}, expected a vector of dimension >= 2"
                    )
                norm = math.sqrt(np.vdot(f, f).real)
                if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
                    raise NormalizationError(
                        f"probe factor {copy_name}[{m}] has norm {norm!r}, expected 1"
                    )
                f.setflags(write=False)
            if fu.shape != fv.shape:
                raise DimensionError(
                    f"probe factors at site {m} have dimensions {fu.shape[0]} and {fv.shape[0]}"
                )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.u)

    @property
    def site_count(self) -> int:
        return len(self.u)

    def copy_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The two full probe vectors (Kronecker chains of the factors)."""
        return kron_all(self.u), kron_all(self.v)

    def swapped(self) -> "ProductProbe":
        """The probe with the two copies exchanged."""
        return ProductProbe(self.v, self.u)

    def to_json_dict(self) -> dict:
        """Factors as ``[re, im]`` pairs, the probe file format."""
        return {"u": [_pairs(f) for f in self.u], "v": [_pairs(f) for f in self.v]}

    @classmethod
    def from_json_dict(cls, doc, dims) -> "ProductProbe":
        """Parse the probe file format for a state with site dimensions ``dims``.

        Raises FormatError for a document that is not one factor of
        ``dims[m]`` ``[re, im]`` entries per site and copy, and
        NormalizationError for a factor that is not a unit vector.
        """
        if not isinstance(doc, dict) or "u" not in doc or "v" not in doc:
            raise FormatError("probe file needs 'u' and 'v' fields")

        def parse_copy(key):
            factors = doc[key]
            if not isinstance(factors, list) or len(factors) != len(dims):
                raise FormatError(
                    f"field {key!r} must list one factor per site ({len(dims)} sites)"
                )
            out = []
            for m, factor in enumerate(factors):
                if not isinstance(factor, list) or len(factor) != dims[m]:
                    raise FormatError(f"{key}[{m}] must have {dims[m]} [re, im] entries")
                out.append(_complex_entries(factor, lambda i: f"{key}[{m}][{i}]"))
            return tuple(out)

        return cls(parse_copy("u"), parse_copy("v"))


def _frozen(array) -> np.ndarray:
    """``array`` itself if it is a read-only ndarray, else a read-only copy."""
    array = np.asarray(array)
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


class PartitionTerms(Sequence):
    """The (``KPartition``, term) pairs of a report, held as arrays.

    ``rows`` is the (P, n) array of the partitions' label strings, ``k``
    their block count and ``values`` the (P,) float terms, in report order.
    A read-only sequence of P pairs: ``len``, iteration, indexing (negative
    indices too; a slice is another ``PartitionTerms``) and equality work as
    on the tuple ``tuple(zip(partitions, values))``, which it compares equal
    to in both directions and hashes like.  Each ``KPartition`` is built
    when its pair is read, so a report holds no object per partition.
    ``rows`` and ``values`` are read-only arrays: one given read-only is
    kept, a writable one is copied, so the constructor never changes the
    caller's arrays and writes to them do not reach the sequence.
    """

    __slots__ = ("rows", "k", "values")

    def __init__(self, rows: np.ndarray, k: int, values: np.ndarray):
        self.rows, self.k, self.values = _frozen(rows), k, _frozen(values)

    @classmethod
    def of_pairs(cls, pairs) -> "PartitionTerms":
        """The sequence of ``(KPartition, value)`` pairs given in that order."""
        pairs = tuple(pairs)
        if not pairs:
            return cls(np.zeros((0, 0), dtype=np.int8), 0, np.zeros(0))
        k = pairs[0][0].k
        rows = np.array([part.rgs for part, _value in pairs], dtype=np.min_scalar_type(-k))
        values = np.array([value for _part, value in pairs], dtype=np.float64)
        # both are new: marked read-only, they are taken without a copy
        rows.setflags(write=False)
        values.setflags(write=False)
        return cls(rows, k, values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return zip(_partitions_of(self.rows.shape[1], self.k, self.rows), self.values.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PartitionTerms(self.rows[index], self.k, self.values[index])
        i = range(len(self))[index]  # IndexError past either end
        part = next(_partitions_of(self.rows.shape[1], self.k, self.rows[i : i + 1]))
        return part, float(self.values[i])

    def __eq__(self, other):
        if isinstance(other, PartitionTerms):
            # equal label strings are equal partitions; NaN terms are unequal,
            # as two NaN floats in tuples are
            return np.array_equal(self.values, other.values) and (
                not len(self) or np.array_equal(self.rows, other.rows)
            )
        if isinstance(other, tuple):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one criterion evaluation.

    ``lhs`` equals ``first_term`` minus the sum of the partition terms, the
    terms listed in enumeration order of the partitions.  ``partition_terms``
    is a ``PartitionTerms``; any other sequence of (``KPartition``, value)
    pairs given for it is turned into one, in the order given.
    """

    k: int
    lhs: float
    first_term: float
    partition_terms: PartitionTerms
    probe: ProductProbe
    verdict: str
    tolerance: float

    def __post_init__(self):
        if not isinstance(self.partition_terms, PartitionTerms):
            object.__setattr__(self, "partition_terms", PartitionTerms.of_pairs(self.partition_terms))

    @property
    def detected(self) -> bool:
        return self.verdict == NOT_K_SEPARABLE

    def to_json_dict(self) -> dict:
        terms = self.partition_terms
        return {
            "k": self.k,
            "lhs": self.lhs,
            "first_term": self.first_term,
            "terms": [
                {"partition": notation, "value": value}
                for notation, value in zip(_notations(terms.rows), terms.values.tolist())
            ],
            "verdict": self.verdict,
            "tolerance": self.tolerance,
        }


class _Plan(NamedTuple):
    """Partitions of n sites into k blocks in enumeration order, as the
    (P, n) label strings of ``_label_rows``, with their merged swap sets as
    site bit masks (one row per partition, one column per swap set) and the
    exponent multiplicity / (2 k^2) of each column.  All three are
    read-only arrays, shared by every report of the plan."""

    rows: np.ndarray
    masks: np.ndarray
    expo: np.ndarray

    @property
    def partitions(self) -> tuple[KPartition, ...]:
        """The ``KPartition`` of every row, built on access."""
        k = int(self.rows[0].max()) + 1  # every row uses the labels 0..k-1
        return tuple(_partitions_of(self.rows.shape[1], k, self.rows))


def _swap_masks(rgs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit masks and exponents of the merged swap sets of the label rows ``rgs``."""
    count, n = rgs.shape  # n < 64 for int64 masks
    rows = np.arange(count)
    blocks = np.zeros((count, k), dtype=np.int64)
    for site in range(n):
        # site 0 is the most significant bit
        blocks[rows, rgs[:, site]] |= 1 << (n - 1 - site)
    pairs = block_pairs(k)
    masks = np.empty((count, len(pairs)), dtype=np.int64)
    for col, (i, j, _mult) in enumerate(pairs):
        np.bitwise_or(blocks[:, i], blocks[:, j], out=masks[:, col])
    expo = np.array([mult for _i, _j, mult in pairs]) * (1.0 / (2.0 * k * k))
    return masks, expo


@lru_cache(maxsize=64)
def _partition_plan(n: int, k: int) -> _Plan:
    """All partitions of n sites into k blocks with their swap-set masks.

    Raises ParameterError for k outside 1..n and GuardError, before
    enumerating, past MAX_PARTITIONS.
    """
    rgs = _label_rows(n, k)
    plan = _Plan(rgs, *_swap_masks(rgs, k))
    for array in plan:
        array.setflags(write=False)
    return plan


@lru_cache(maxsize=64)
def _swap_set_keys(n: int) -> tuple[frozenset, ...]:
    """The site set of every label 0..2^n-1, site 0 the most significant bit."""
    return tuple(
        frozenset(s for s in range(n) if label >> (n - 1 - s) & 1)
        for label in range(1 << n)
    )


@lru_cache(maxsize=64)
def _groups(dims: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The sites of each distinct site dimension d, in site order."""
    groups: dict[int, list[int]] = {}
    for m, d in enumerate(dims):
        groups.setdefault(d, []).append(m)
    return {d: tuple(sites) for d, sites in groups.items()}


@lru_cache(maxsize=64)
def _slots(dims: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Site m -> (d_m, position of m among the sites of dimension d_m)."""
    return tuple((d, _groups(dims)[d].index(m)) for m, d in enumerate(dims))


def _stack(probes, dims) -> dict[int, np.ndarray]:
    """The factors of R probes as one (R, 2, n_d, d) array per site dimension d.

    Row 0 holds copy u, row 1 copy v, and the n_d sites of dimension d follow
    in site order (``_groups``).  Mixed dims are not zero-padded into one
    array: padding changes the bits of a factor's norm.
    """
    return {
        d: np.array([[[p.u[m] for m in sites], [p.v[m] for m in sites]] for p in probes])
        for d, sites in _groups(dims).items()
    }


def _probe_at(factors: dict[int, np.ndarray], dims, r: int) -> ProductProbe:
    """Probe r of a stack made by ``_stack``."""
    slots = _slots(dims)
    return ProductProbe(
        tuple(factors[d][r, 0, j] for d, j in slots),
        tuple(factors[d][r, 1, j] for d, j in slots),
    )


def _interleaved(states):
    """The core's input for S states of equal dims and of one kind.

    Dense states give their ``interleaved`` copies stacked on a leading
    axis, a view of the cached copy for S = 1.  Noisy kets give the pair
    (kets, p): the kets as an (S, d0, d1, ...) array and their noise
    weights as an (S,) array.
    """
    if isinstance(states[0], NoisyPureState):
        kets = np.stack([state.pure.vec for state in states])
        return kets.reshape(len(states), *states[0].dims), np.array([state.p for state in states])
    if len(states) == 1:
        return states[0].interleaved[None]
    return np.stack([rho.interleaved for rho in states])


def _core_entries(state: DensityMatrix | NoisyPureState, plans) -> tuple[int, int]:
    """Complex entries the core holds for ``state``, per probe and per state.

    Per probe, its largest array: the core's largest product, 2 D^2 / d^2
    on a dense state and 2 D / d on a noisy ket (D the state dimension, d
    the last site's), or the swap-set factors ``_terms`` gathers for the
    largest of ``plans``, one float per mask (two fill one complex entry),
    if larger: at n=10, k=5 that is 318 938 entries, where a ket's core
    holds 1 024.  Per state, what a stacked batch of states holds: a dense
    state's matrix, interleaved copy and slot in ``_interleaved``'s stack,
    3 D^2, and a noisy ket's slot, D (the ket itself is shared by every
    noise level).
    """
    dim, d = state.dim, state.dims[-1]
    gathered = max(((plan.masks.size + 1) // 2 for plan in plans), default=0)
    if isinstance(state, NoisyPureState):
        return max(2 * dim // d, gathered), dim
    return max(2 * dim * dim // (d * d), gathered), 3 * dim * dim


def _weights(inter, factors) -> tuple[np.ndarray, np.ndarray]:
    """First terms |<phi1|rho|phi2>| and the 2^n swapped diagonal weights of probes.

    ``inter`` is the input of S states made by ``_interleaved`` and
    ``factors`` a stack of S * R probes (see ``_stack``), state-major: rows
    s*R .. s*R + R-1 are read against state s.  The result is (S * R,)
    first terms and (S * R, 2^n) weights, W[row, a] = <x_a| rho |x_a> with
    x_a as in the module docstring.  No call copies a state.  Every probe
    goes through the same matrix products as a batch of one, so its floats
    do not depend on the batch around it.  Tiny negative rounding is
    clamped to 0; a weight below DIAG_CLAMP in any row raises.
    """
    if isinstance(inter, tuple):
        first, weights = _ket_forms(*inter, factors)
    else:
        first, weights = _dense_forms(inter, factors)
    low = float(weights.min())
    if low < DIAG_CLAMP:
        raise NumericalError(
            f"diagonal expectation value {low!r} is more negative than "
            f"rounding allows ({DIAG_CLAMP}); the state is not positive semidefinite"
        )
    weights[weights < 0.0] = 0.0
    # hypot is the modulus abs() takes of a complex number, to the last bit
    return np.hypot(first.real, first.imag), weights


def _dense_forms(inter: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """``_weights`` before the clamp on the (S, d0, d0, d1, d1, ...) stack
    of dense states: the complex first terms and the real weights."""
    count = len(next(iter(factors.values())))
    levels = len(inter)
    # per site dimension d, the rows <u_m|.|u_m>, <v_m|.|v_m> and <u_m|.|v_m>
    # of every site, flattened over (ket, bra): (S * R, n_d, 3, d^2)
    forms = {}
    for d, f in factors.items():
        f = f.transpose(0, 2, 1, 3)
        bras = f.take(_BRA_ROWS, axis=2).conj()
        kets = f.take(_KET_ROWS, axis=2)
        forms[d] = (bras[..., :, None] * kets[..., None, :]).reshape(*f.shape[:2], 3, d * d)
    (d, j), *rest = reversed(_slots(inter.shape[1::2]))
    # the last site first, on a (state, probe) batch shape: each of the S
    # states against its own R probes
    site = forms[d][:, j].reshape(levels, -1, 3, d * d)
    rho = inter.reshape(levels, 1, -1, d * d)
    w = site[..., :2, :] @ rho.swapaxes(-1, -2)
    first = rho @ site[..., 2, :, None]
    for d, j in rest:
        site = forms[d][:, j]
        # contract the trailing site; its label axis goes in front, so site 0
        # ends up the most significant bit
        w = site[:, :2] @ w.reshape(count, -1, d * d).transpose(0, 2, 1)
        first = first.reshape(count, -1, d * d) @ site[:, 2, :, None]
    return first.reshape(count), w.reshape(count, -1).real.copy()


def _ket_forms(kets: np.ndarray, p: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """``_weights`` before the clamp on S noisy kets, (S, d0, d1, ...) with
    noise weights ``p``: the complex first terms and the real weights.

    The amplitudes <x_a|psi> come out of the dense route's loop with the
    bras [u_m; v_m]^* in place of the forms; the noise part needs only the
    Gram matrix of each site's pair [u_m; v_m].
    """
    count = len(next(iter(factors.values())))
    levels = len(kets)
    (d, j), *rest = reversed(_slots(kets.shape[1:]))
    pair = factors[d][:, :, j]
    bra = pair.conj()
    # the last site first, on a (state, probe) batch shape
    amp = bra.reshape(levels, -1, 2, d) @ kets.reshape(levels, 1, -1, d).swapaxes(-1, -2)
    gram = bra @ pair.swapaxes(-1, -2)
    norms = gram[:, (0, 1), (0, 1)].real
    overlap = gram[:, 0, 1]
    for d, j in rest:
        pair = factors[d][:, :, j]
        bra = pair.conj()
        # the trailing site's label axis goes in front, as in the dense route
        amp = bra @ amp.reshape(count, -1, d).transpose(0, 2, 1)
        gram = bra @ pair.swapaxes(-1, -2)
        norms = (gram[:, (0, 1), (0, 1)].real[:, :, None] * norms[:, None, :]).reshape(count, -1)
        overlap = overlap * gram[:, 0, 1]
    amp = amp.reshape(count, -1)
    p = np.repeat(p, count // levels)
    noise = (1.0 - p) / math.prod(kets.shape[1:])
    weights = p[:, None] * (amp.real * amp.real + amp.imag * amp.imag) + noise[:, None] * norms
    first = p * (amp[:, 0] * amp[:, -1].conj()) + noise * overlap
    return first, weights


def _probe_weights(rho: DensityMatrix | NoisyPureState, probe: ProductProbe, cache=None):
    """``_weights`` of one probe, as a batch of one.

    With a ``cache``, the pair is reused from it, and every swap set's
    (<x1|rho|x1>, <x2|rho|x2>) is stored under its site set, so the
    complement holds the same floats in exchanged roles.
    """
    if cache is not None and _WEIGHTS in cache:
        return cache[_WEIGHTS]
    result = _weights(_interleaved([rho]), _stack([probe], rho.dims))
    if cache is not None:
        cache[_WEIGHTS] = result
        listed = result[1][0].tolist()
        cache.update(zip(_swap_set_keys(rho.site_count), zip(listed, reversed(listed))))
    return result


def _terms(weights: np.ndarray, masks: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """Partition terms of R probes: products over each plan row of swap-set factors.

    ``weights`` is (R, 2^n); the result is (R, P).  The root is applied
    factor by factor, which is algebraically identical to rooting the full
    product but immune to underflow for large k.  A zero weight makes its
    factor 0 ** expo == 0 and so the whole term 0.
    """
    # x2 of a swap set is x1 of its complement, whose label is the reversed index
    pairs = weights * weights[:, ::-1]
    return (pairs.take(masks, axis=1) ** expo).prod(axis=-1)


def _reduce_lhs(first: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """lhs of each probe: its first term minus the sum of its row of terms.

    The sum runs in enumeration order, left to right (a cumulative sum,
    not numpy's pairwise ``sum``), so that the lhs is reproducible from the
    listed terms.
    """
    return first - terms.cumsum(axis=-1)[:, -1]


def _check_tolerance(tolerance: float) -> None:
    # a NaN or infinite threshold fixes every verdict in advance, and JSON
    # cannot hold it
    if not math.isfinite(tolerance):
        raise ParameterError(f"tolerance must be finite, got {tolerance}")


def _check_compatible(rho: DensityMatrix | NoisyPureState, probe: ProductProbe) -> None:
    if probe.dims != rho.dims:
        raise DimensionError(
            f"probe dims {probe.dims} do not match state dims {rho.dims}"
        )


def first_term(rho: DensityMatrix | NoisyPureState, probe: ProductProbe) -> float:
    """|<phi1| rho |phi2>|, the square root of the total-permutation term."""
    _check_compatible(rho, probe)
    return float(_probe_weights(rho, probe)[0][0])


def partition_term(
    rho: DensityMatrix | NoisyPureState,
    probe: ProductProbe,
    partition: KPartition,
    cache: dict | None = None,
) -> float:
    """The subtracted term contributed by one partition.

    ``cache`` may be shared between calls that use the same (rho, probe) to
    avoid recomputing swapped diagonal weights; never share it across
    different states or probes.
    """
    _check_compatible(rho, probe)
    if partition.n != rho.site_count:
        raise DimensionError(
            f"partition covers {partition.n} sites, state has {rho.site_count}"
        )
    _, weights = _probe_weights(rho, probe, cache)
    masks, expo = _swap_masks(np.array([partition.rgs]), partition.k)
    return float(_terms(weights, masks, expo)[0, 0])


def evaluate(
    rho: DensityMatrix | NoisyPureState,
    probe: ProductProbe,
    k: int,
    tolerance: float = DEFAULT_TOLERANCE,
    cache: dict | None = None,
) -> CriterionReport:
    """Evaluate the k-separability test for one state and probe.

    A verdict of ``not_k_separable`` requires lhs > tolerance; anything
    else is ``inconclusive`` (the test is one-sided).  A ``DensityMatrix``
    is assumed to satisfy the density-matrix invariants; run
    ``rho.validate()`` first when the input is untrusted.  A
    ``NoisyPureState`` is valid by construction.  ``cache`` as in
    ``partition_term``.
    Raises ParameterError for a tolerance that is not finite.
    """
    _check_tolerance(tolerance)
    _check_compatible(rho, probe)
    plan = _partition_plan(rho.site_count, k)
    first, weights = _probe_weights(rho, probe, cache)
    terms = _terms(weights, plan.masks, plan.expo)
    # a new array: marked read-only, the report takes it without a copy
    terms.setflags(write=False)
    lhs = float(_reduce_lhs(first, terms)[0])
    return CriterionReport(
        k=k,
        lhs=lhs,
        first_term=float(first[0]),
        partition_terms=PartitionTerms(plan.rows, k, terms[0]),
        probe=probe,
        verdict=NOT_K_SEPARABLE if lhs > tolerance else INCONCLUSIVE,
        tolerance=tolerance,
    )


def evaluate_batch(rho: DensityMatrix | NoisyPureState, probes, ks) -> np.ndarray:
    """The lhs of many probes on one state, at one or more k.

    Returns a (len(ks), len(probes)) array whose entry [i, r] equals
    ``evaluate(rho, probes[r], ks[i]).lhs`` bit for bit.  The probes go
    through the evaluation core in chunks whose largest array holds at most
    ``search.MAX_BATCH_ENTRIES`` complex entries, ``_core_entries`` per
    probe with the largest plan of ``ks``, and at least one probe; rows are
    independent, so the chunking does not change a bit.
    Raises ParameterError for no probes or a k outside 1..n, and GuardError
    past the partition guard, before any evaluation.
    """
    from .search import MAX_BATCH_ENTRIES  # read per call: search imports this module

    probes = list(probes)
    if not probes:
        raise ParameterError("evaluate_batch needs at least one probe")
    for probe in probes:
        _check_compatible(rho, probe)
    plans = [_partition_plan(rho.site_count, k) for k in ks]
    inter = _interleaved([rho])
    chunk = max(1, MAX_BATCH_ENTRIES // _core_entries(rho, plans)[0])
    out = np.empty((len(plans), len(probes)))
    for lo in range(0, len(probes), chunk):
        first, weights = _weights(inter, _stack(probes[lo : lo + chunk], rho.dims))
        for row, plan in zip(out, plans):
            row[lo : lo + chunk] = _reduce_lhs(first, _terms(weights, plan.masks, plan.expo))
    return out
