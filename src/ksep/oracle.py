"""Brute-force reference route for the two-copy permutation test.

Everything here works on the doubled space: the full probe vector
phi1 x phi2 of length D^2 and explicit permutations of the D^2 basis
labels.  It is deliberately independent of the fast path in ``criterion``,
which never leaves the single-copy space, so agreement between the two
routes is a strong end-to-end check.  A hard guard keeps D^2 <= 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .criterion import (
    INCONCLUSIVE,
    NOT_K_SEPARABLE,
    CriterionReport,
    DEFAULT_TOLERANCE,
    ProductProbe,
    _check_compatible,
    evaluate,
)
from .errors import GuardError, NumericalError, ParameterError
from .partitions import enumerate_kpartitions
from .search import RANDOM, _basis_factors, canonical_probe
from .states import DensityMatrix, random_density, mix, random_product_pure

TWO_COPY_GUARD = 4096
IMAG_TOL = 1e-12


def _check_guard(dim: int) -> None:
    if dim * dim > TWO_COPY_GUARD:
        raise GuardError(
            f"two-copy dimension {dim * dim} exceeds the guard {TWO_COPY_GUARD}"
        )


@dataclass(frozen=True)
class TwoCopyOperator:
    """A permutation of the D^2 two-copy basis labels, stored as an index map.

    ``index_map[label]`` is the image of basis label ``label``; the map is
    a self-inverse bijection for every swap set.
    """

    dim: int  # single-copy dimension D; the operator acts on D^2 labels
    index_map: np.ndarray

    def __post_init__(self):
        index_map = np.array(self.index_map, dtype=np.intp)
        if index_map.shape != (self.dim * self.dim,):
            raise ParameterError(
                f"index map has shape {index_map.shape}, expected ({self.dim * self.dim},)"
            )
        index_map.setflags(write=False)
        object.__setattr__(self, "index_map", index_map)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Apply the permutation to a two-copy vector.

        For a self-inverse permutation P maps amplitudes by index lookup:
        (P psi)[label] = psi[index_map[label]].
        """
        return vec[self.index_map]

    def as_matrix(self) -> np.ndarray:
        """Dense 0/1 matrix, for cross-checks at tiny sizes only."""
        size = self.dim * self.dim
        mat = np.zeros((size, size), dtype=np.complex128)
        mat[self.index_map, np.arange(size)] = 1.0
        return mat


def build_swap_operator(dims, sites) -> TwoCopyOperator:
    """Permutation exchanging the two copies on every site in ``sites``.

    Basis labels are a * D + b with a the copy-1 label and b the copy-2
    label; site digits are big-endian within each copy.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    dim = math.prod(dims)
    _check_guard(dim)
    sites = frozenset(int(s) for s in sites)
    if any(not 0 <= s < n for s in sites):
        raise ParameterError(f"swap sites {sorted(sites)} outside 0..{n - 1}")
    labels = np.arange(dim * dim, dtype=np.intp)
    a, b = np.divmod(labels, dim)
    new_a = np.zeros_like(a)
    new_b = np.zeros_like(b)
    place = dim
    for m in range(n):
        place //= dims[m]
        digit_a = (a // place) % dims[m]
        digit_b = (b // place) % dims[m]
        if m in sites:
            digit_a, digit_b = digit_b, digit_a
        new_a += digit_a * place
        new_b += digit_b * place
    return TwoCopyOperator(dim=dim, index_map=new_a * dim + new_b)


def total_swap_operator(dims) -> TwoCopyOperator:
    """The permutation exchanging the two copies wholesale."""
    return build_swap_operator(dims, range(len(dims)))


def _two_copy_form(rho_mat: np.ndarray, bra2: np.ndarray, ket2: np.ndarray) -> complex:
    """<bra2| rho x rho |ket2> without materializing the D^2 x D^2 product.

    Reshaping a two-copy vector to a D x D matrix M turns rho x rho into
    M -> rho M rho^T.
    """
    d = rho_mat.shape[0]
    ket_mat = ket2.reshape(d, d)
    return complex(np.vdot(bra2, (rho_mat @ ket_mat @ rho_mat.T).reshape(-1)))


def oracle_term(rho: DensityMatrix, probe: ProductProbe, sites) -> float:
    """<Phi| P^dagger (rho x rho) P |Phi> for the swap on ``sites``.

    Built entirely on the doubled space.  The value must be real; an
    imaginary part at or beyond 1e-12 raises NumericalError.
    """
    _check_compatible(rho, probe)
    _check_guard(rho.dim)
    phi1, phi2 = probe.copy_vectors()
    phi = np.kron(phi1, phi2)
    swapped = build_swap_operator(rho.dims, sites).apply(phi)
    value = _two_copy_form(rho.mat, swapped, swapped)
    if abs(value.imag) >= IMAG_TOL:
        raise NumericalError(
            f"two-copy expectation has imaginary part {value.imag!r} (>= {IMAG_TOL})"
        )
    return value.real


def oracle_evaluate(
    rho: DensityMatrix,
    probe: ProductProbe,
    k: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CriterionReport:
    """Evaluate the criterion entirely via explicit two-copy operators.

    The first term is sqrt(<Phi| rho x rho P_total |Phi>); each partition
    term multiplies the naive double product over all k^2 ordered block
    pairs before taking the global 1/(2 k^2) root, with no multiplicity
    merging, so the fast path's bookkeeping is exercised against the
    plainest possible computation.  Report schema matches ``evaluate``.
    """
    _check_compatible(rho, probe)
    _check_guard(rho.dim)
    partitions = list(enumerate_kpartitions(rho.site_count, k))
    phi1, phi2 = probe.copy_vectors()
    phi = np.kron(phi1, phi2)
    total = total_swap_operator(rho.dims)
    first_sq = _two_copy_form(rho.mat, phi, total.apply(phi))
    if abs(first_sq.imag) >= IMAG_TOL:
        raise NumericalError(
            f"total-permutation expectation has imaginary part {first_sq.imag!r}"
        )
    first_real = first_sq.real
    if first_real < 0.0:
        if first_real < -IMAG_TOL:
            raise NumericalError(
                f"total-permutation expectation {first_real!r} is negative"
            )
        first_real = 0.0
    first = math.sqrt(first_real)

    root = 1.0 / (2.0 * k * k)
    terms = []
    for part in partitions:
        blocks = part.blocks()
        product = 1.0
        for i in range(k):
            for j in range(k):
                sites = set(blocks[i]) | set(blocks[j])
                product *= oracle_term(rho, probe, sites)
        terms.append(product**root if product > 0.0 else 0.0)

    lhs_total = 0.0
    for t in terms:
        lhs_total += t
    lhs = first - lhs_total
    verdict = NOT_K_SEPARABLE if lhs > tolerance else INCONCLUSIVE
    return CriterionReport(
        k=k,
        lhs=lhs,
        first_term=first,
        partition_terms=tuple(zip(partitions, terms)),
        probe=probe,
        verdict=verdict,
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class CampaignSummary:
    """Result of a fast-path versus oracle equivalence campaign."""

    trials: int
    comparisons: int
    max_term_deviation: float
    max_lhs_deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return (
            self.max_term_deviation <= self.threshold
            and self.max_lhs_deviation <= self.threshold
        )

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "comparisons": self.comparisons,
            "max_term_deviation": self.max_term_deviation,
            "max_lhs_deviation": self.max_lhs_deviation,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def equivalence_campaign(
    n: int,
    dmax: int,
    trials: int,
    seed: int,
    threshold: float = 1e-10,
) -> CampaignSummary:
    """Compare fast-path and oracle evaluations on random cases.

    Each trial draws per-site dimensions from 2..dmax, a random state
    (alternating full-rank and low-rank product mixtures) and a random
    probe (every fifth trial a computational-basis probe, which exercises
    the exact-zero short circuits), then compares every partition term and
    the lhs for every k <= n.
    """
    if n < 1:
        raise ParameterError(f"need at least one site, got n={n}")
    if dmax < 2:
        raise ParameterError(f"dmax must be >= 2, got {dmax}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    _check_guard(dmax**n)
    rng = np.random.default_rng(seed)
    max_term_dev = 0.0
    max_lhs_dev = 0.0
    comparisons = 0
    for trial in range(trials):
        dims = tuple(int(d) for d in rng.integers(2, dmax + 1, size=n))
        if trial % 2 == 0:
            rho = random_density(dims, rng)
        else:
            count = int(rng.integers(1, 4))
            weights = rng.random(count)
            weights /= weights.sum()
            rho = mix(
                [
                    (float(w), random_product_pure(dims, rng).to_density())
                    for w in weights
                ]
            )
        if trial % 5 == 0:
            labels = [rng.integers(0, d, size=2) for d in dims]
            probe = ProductProbe(
                _basis_factors(dims, [i1 for i1, _ in labels]),
                _basis_factors(dims, [i2 for _, i2 in labels]),
            )
        else:
            probe = canonical_probe(RANDOM, dims, rng=rng)
        for k in range(1, n + 1):
            fast = evaluate(rho, probe, k)
            slow = oracle_evaluate(rho, probe, k)
            max_lhs_dev = max(max_lhs_dev, abs(fast.lhs - slow.lhs))
            for (pf, tf), (ps, ts) in zip(fast.partition_terms, slow.partition_terms):
                # both sides enumerate identically; a mismatch fails the campaign
                max_term_dev = max(max_term_dev, abs(tf - ts) if pf == ps else math.inf)
                comparisons += 1
    return CampaignSummary(
        trials=trials,
        comparisons=comparisons,
        max_term_deviation=max_term_dev,
        max_lhs_deviation=max_lhs_dev,
        threshold=threshold,
    )
