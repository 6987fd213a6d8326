"""Multipartite state containers, reference families and JSON persistence.

Sites are ordered big-endian: site 0 is the most significant factor of the
flat index, so for qubits the basis label of ``|b0 b1 ... b_{n-1}>`` is the
integer with binary digits b0 b1 ... b_{n-1}.
"""

from __future__ import annotations

import cmath
import json
import math
import string
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    GuardError,
    NormalizationError,
    ParameterError,
    StateValidationError,
    WeightError,
)
from .linalg import (
    DEFAULT_DENSITY_TOL,
    UNIT_NORM_TOL,
    DensityDiagnostics,
    _dominance_accepts,
    check_density,
    kron_all,
)

WEIGHT_SUM_TOL = 1e-12

# largest state dimension D the command line builds or reads densely: at
# D = 8192 one D x D complex array is 1 GiB, and a noisy GHZ state holds
# about five of them while it is built
MAX_DENSE_DIM = 4096


def _checked_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ParameterError("need at least one site")
    if any(d < 2 for d in out):
        raise ParameterError(f"every site dimension must be >= 2, got {out}")
    return out


def _check_dense_dim(dims, where: str = "") -> None:
    """Raise GuardError when a dense state on sites of dimensions ``dims``
    (any iterable of ints >= 2, read only as far as needed) would be larger
    than MAX_DENSE_DIM."""
    dim = 1
    for site, d in enumerate(dims):
        dim *= d
        if dim > MAX_DENSE_DIM:
            raise GuardError(
                f"{where}state dimension exceeds the guard {MAX_DENSE_DIM}: "
                f"sites 0..{site} already give {dim}"
            )


def _require_density(state, tol: float, where: str = "") -> None:
    """Raise StateValidationError unless ``state`` is a density matrix within ``tol``.

    ``state`` is a D x D array or a ``NoisyPureState``.  A noisy ket is judged
    by its closed-form record (``NoisyPureState.diagnostics``, O(D)).  A
    matrix that ``linalg._dominance_accepts`` accepts passes without an
    eigensolve; any other is judged by ``check_density``.  A rejection
    carries its record.  ``where`` starts the message (a file path and ": ").
    """
    if isinstance(state, NoisyPureState):
        diag = state.diagnostics(tol)
    elif _dominance_accepts(state, tol):
        return
    else:
        diag = check_density(state, tol)
    if not diag.accepted:
        raise StateValidationError(
            f"{where}not a valid density matrix: "
            f"hermiticity defect {diag.hermiticity_defect:.3e}, "
            f"trace defect {diag.trace_defect:.3e}, "
            f"min eigenvalue {diag.min_eigenvalue:.3e} (tol {tol:.1e})",
            diagnostics=diag,
        )


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix together with its per-site dimensions.

    Construction checks shapes and finiteness only; the hermiticity, trace
    and positivity invariants are verified on demand.  ``diagnostics``
    always eigensolves and reports the exact smallest eigenvalue.
    ``validate`` first tries Gershgorin's bound, O(D^2), which accepts every
    qubit GHZ state with or without white noise and the maximally mixed
    state; it eigensolves only a matrix the bound cannot accept (a W state,
    a qutrit GHZ state, a random density matrix), so its verdict is always
    the eigensolve's.  A pure state under white noise needs neither the
    matrix nor this check when it is held as a ``NoisyPureState``, as the
    command line's ket families are.

    The first evaluation of a state builds ``interleaved``, a read-only
    copy of ``mat`` in the site-by-site layout of the evaluation core, and
    keeps it for the state's lifetime, so that no evaluation copies
    ``mat``: one more D x D complex array per evaluated state (16 MiB at
    10 qubits).
    It is not a field, so equality, ``repr`` and ``dataclasses.replace``
    do not see it; a replaced state builds its own.
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        mat = np.array(self.mat, dtype=np.complex128)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise DimensionError(
                f"matrix shape {mat.shape} does not match dims {dims} (D={d})"
            )
        if not np.all(np.isfinite(mat)):
            raise ParameterError("matrix entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def site_count(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def interleaved(self) -> np.ndarray:
        """``mat`` with the ket and bra axes of each site side by side:
        shape (d0, d0, d1, d1, ...), axes (i0, j0, i1, j1, ...), contiguous."""
        n = self.site_count
        axes = [ax for m in range(n) for ax in (m, n + m)]
        out = np.ascontiguousarray(self.mat.reshape(self.dims + self.dims).transpose(axes))
        out.setflags(write=False)
        return out

    def diagnostics(self, tol: float = DEFAULT_DENSITY_TOL) -> DensityDiagnostics:
        return check_density(self.mat, tol)

    def validate(self, tol: float = DEFAULT_DENSITY_TOL) -> None:
        """Raise StateValidationError unless this is a density matrix within tol."""
        _require_density(self.mat, tol)


@dataclass(frozen=True)
class PureState:
    """A unit vector together with its per-site dimensions."""

    dims: tuple[int, ...]
    vec: np.ndarray

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        object.__setattr__(self, "dims", dims)
        vec = np.array(self.vec, dtype=np.complex128)
        d = math.prod(dims)
        if vec.shape != (d,):
            raise DimensionError(
                f"vector shape {vec.shape} does not match dims {dims} (D={d})"
            )
        if not np.all(np.isfinite(vec)):
            raise ParameterError("vector entries must be finite")
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise NormalizationError(f"state vector norm {norm!r} is not 1")
        vec.setflags(write=False)
        object.__setattr__(self, "vec", vec)

    @property
    def site_count(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(self.dims, np.outer(self.vec, self.vec.conj()))


def ghz(n: int, d: int = 2) -> PureState:
    """Uniform superposition of the n-fold repeated basis labels 0..d-1."""
    if n < 2:
        raise ParameterError(f"need at least two sites, got n={n}")
    if d < 2:
        raise ParameterError(f"site dimension must be >= 2, got d={d}")
    dim = d**n
    vec = np.zeros(dim, dtype=np.complex128)
    amp = 1.0 / math.sqrt(d)
    stride = (dim - 1) // (d - 1)  # index of |j j ... j> is j * (d^n-1)/(d-1)
    for j in range(d):
        vec[j * stride] = amp
    return PureState((d,) * n, vec)


def w_state(n: int) -> PureState:
    """Single-excitation superposition on n qubits."""
    if n < 2:
        raise ParameterError(f"need at least two sites, got n={n}")
    vec = np.zeros(2**n, dtype=np.complex128)
    amp = 1.0 / math.sqrt(n)
    for site in range(n):
        vec[1 << (n - 1 - site)] = amp  # site 0 is most significant
    return PureState((2,) * n, vec)


def product_pure(site_vecs) -> PureState:
    """Product state from per-site unit vectors."""
    factors = [np.asarray(v, dtype=np.complex128) for v in site_vecs]
    if not factors:
        raise ParameterError("need at least one site vector")
    dims = []
    for m, f in enumerate(factors):
        if f.ndim != 1:
            raise DimensionError(f"site {m} factor has shape {f.shape}, expected a vector")
        norm = float(np.linalg.norm(f))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise NormalizationError(f"site {m} factor norm {norm!r} is not 1")
        dims.append(f.shape[0])
    return PureState(tuple(dims), kron_all(factors))


def partition_product_pure(dims, blocks, block_vecs) -> PureState:
    """Pure state that factorizes across the given site partition.

    ``blocks`` are disjoint site tuples covering 0..n-1; ``block_vecs[i]``
    is a unit vector on the tensor factor of ``blocks[i]``, its axes ordered
    as the sites appear in the block tuple.
    """
    dims = _checked_dims(dims)
    n = len(dims)
    if n > len(string.ascii_lowercase):
        raise ParameterError(f"at most {len(string.ascii_lowercase)} sites supported")
    sites = [s for block in blocks for s in block]
    if sorted(sites) != list(range(n)):
        raise ParameterError("blocks must partition the sites 0..n-1")
    if len(blocks) != len(block_vecs):
        raise DimensionError(
            f"{len(blocks)} blocks but {len(block_vecs)} block vectors"
        )
    tensors = []
    for idx, (block, vec) in enumerate(zip(blocks, block_vecs)):
        arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
        want = math.prod(dims[m] for m in block)
        if arr.shape[0] != want:
            raise DimensionError(
                f"block {idx} vector has dimension {arr.shape[0]}, expected {want}"
            )
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise NormalizationError(f"block {idx} vector norm {norm!r} is not 1")
        tensors.append(arr.reshape([dims[m] for m in block]))
    letters = string.ascii_lowercase
    subscripts = (
        ",".join("".join(letters[m] for m in block) for block in blocks)
        + "->"
        + letters[:n]
    )
    full = np.einsum(subscripts, *tensors).reshape(-1)
    return PureState(dims, full)


def mix(components) -> DensityMatrix:
    """Convex mixture of density matrices from (weight, state) pairs."""
    comps = list(components)
    if not comps:
        raise WeightError("mixture needs at least one component")
    weights = [float(w) for w, _ in comps]
    states = [s for _, s in comps]
    for w in weights:
        if w < 0.0:
            raise WeightError(f"negative weight {w!r}")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightError(f"weights sum to {total!r}, expected 1")
    dims = states[0].dims
    for s in states[1:]:
        if s.dims != dims:
            raise DimensionError(f"mixture mixes dims {dims} and {s.dims}")
    acc = np.zeros_like(states[0].mat)
    for w, s in zip(weights, states):
        acc = acc + w * s.mat
    return DensityMatrix(dims, acc)


def maximally_mixed(dims) -> DensityMatrix:
    dims = _checked_dims(dims)
    d = math.prod(dims)
    return DensityMatrix(dims, np.eye(d, dtype=np.complex128) / d)


def _noise_weight(p) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ParameterError(f"noise parameter p={p!r} outside [0, 1]")
    return p


@dataclass(frozen=True)
class NoisyPureState:
    """The state p |psi><psi| + (1 - p) I / D, held as the ket psi and p.

    The evaluation core reads every weight from the D amplitudes of the
    ket (see ``criterion``), so the D x D matrix is never built.  The state
    is valid by construction: ``PureState`` checks the unit norm and the
    finiteness of psi, and the constructor checks 0 <= p <= 1.
    ``diagnostics`` and ``validate`` judge it from its spectrum in closed
    form, in O(D).  ``to_density`` gives the dense state,
    ``white_noise(pure.to_density(), p)``.
    """

    pure: PureState
    p: float

    def __post_init__(self):
        if not isinstance(self.pure, PureState):
            raise ParameterError(f"expected a PureState, got {type(self.pure).__name__}")
        object.__setattr__(self, "p", _noise_weight(self.p))

    @property
    def dims(self) -> tuple[int, ...]:
        return self.pure.dims

    @property
    def site_count(self) -> int:
        return self.pure.site_count

    @property
    def dim(self) -> int:
        return self.pure.dim

    def diagnostics(self, tol: float = DEFAULT_DENSITY_TOL) -> DensityDiagnostics:
        """The record ``check_density`` gives, in exact arithmetic on the
        floats of psi and p: the matrix is hermitian, its trace is
        p |psi|^2 + 1 - p, and its eigenvalues are (1 - p) / D, D - 1 times,
        and (1 - p) / D + p |psi|^2."""
        norm_sq = float(np.vdot(self.pure.vec, self.pure.vec).real)
        trace_defect = abs(self.p * (norm_sq - 1.0))
        min_eigenvalue = (1.0 - self.p) / self.dim
        return DensityDiagnostics(
            hermiticity_defect=0.0,
            trace_defect=trace_defect,
            min_eigenvalue=min_eigenvalue,
            tol=tol,
            accepted=trace_defect <= tol and min_eigenvalue >= -tol,
        )

    def validate(self, tol: float = DEFAULT_DENSITY_TOL) -> None:
        """Raise StateValidationError unless this is a density matrix within tol."""
        _require_density(self, tol)

    def to_density(self) -> DensityMatrix:
        return white_noise(self.pure.to_density(), self.p)


def white_noise(target, p: float):
    """Interpolate between the maximally mixed state (p=0) and target (p=1).

    A ``DensityMatrix`` target gives the dense mixture.  A ``PureState``
    gives the ``NoisyPureState`` (target, p), and a ``NoisyPureState``
    (pure, p0) gives (pure, p * p0), the same state as the dense double
    application.
    """
    p = _noise_weight(p)
    if isinstance(target, PureState):
        return NoisyPureState(target, p)
    if isinstance(target, NoisyPureState):
        return NoisyPureState(target.pure, p * target.p)
    d = target.dim
    mat = p * target.mat + ((1.0 - p) / d) * np.eye(d, dtype=np.complex128)
    return DensityMatrix(target.dims, mat)


def random_pure(dims, rng: np.random.Generator) -> PureState:
    """Haar-like random unit vector: normalized standard complex Gaussians."""
    dims = _checked_dims(dims)
    d = math.prod(dims)
    raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(dims, raw / np.linalg.norm(raw))


def _random_unit_factors(dims, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One normalized standard complex Gaussian vector per site, in site order."""
    factors = []
    for d in dims:
        raw = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        factors.append(raw / np.linalg.norm(raw))
    return tuple(factors)


def random_product_pure(dims, rng: np.random.Generator) -> PureState:
    """Sitewise random unit vectors, combined into a product state."""
    return product_pure(_random_unit_factors(_checked_dims(dims), rng))


def random_density(dims, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random density matrix G G^dagger / tr, G complex Gaussian."""
    dims = _checked_dims(dims)
    d = math.prod(dims)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(dims, mat)


# --- JSON persistence -------------------------------------------------------
#
# {"dims": [2, 2], "matrix": [[[re, im], ...], ...]}   dense density matrix
# {"dims": [2, 2], "vector": [[re, im], ...]}          pure state, stored as
#                                                      its outer product on load
# Floats are written via Python's repr, the shortest round-trip decimal, so
# save followed by load reproduces the matrix bit for bit.


def _pairs(a: np.ndarray) -> list:
    """A complex array as nested lists with one ``[re, im]`` pair per entry."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def save_state(state: DensityMatrix, path) -> None:
    """Write a density matrix as JSON (see the format note above)."""
    doc = {"dims": list(state.dims), "matrix": _pairs(state.mat)}
    with open(path, "w", encoding="utf-8") as fh:
        # dumps runs the C encoder; dump to a file would take the pure-Python one
        fh.write(json.dumps(doc) + "\n")


def _parse_pair(entry, where: str, finite: bool = False) -> complex:
    if (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    ):
        try:
            value = complex(float(entry[0]), float(entry[1]))
        except OverflowError:  # an integer too large for a float
            pass
        else:
            if not finite or cmath.isfinite(value):
                return value
            raise FormatError(f"{where}: expected a finite [re, im] pair, got {entry!r}")
    raise FormatError(f"{where}: expected a [re, im] pair, got {entry!r}")


def _complex_entries(entries: list, where, finite: bool = False) -> np.ndarray:
    """``[re, im]`` pairs as a complex vector, bit for bit as ``_parse_pair``
    reads them; the first entry ``i`` it refuses raises, named ``where(i)``.
    With ``finite``, an entry that is ``NaN``, infinite or past the float
    range (``1e400``) is refused too, in the same pass."""
    try:
        pairs = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):  # ragged, not numbers, 10**400
        pairs = np.empty(0)
    # exact types: np.array alone also takes True, "1.5", None and any sequence
    types = map(type, chain(entries, chain.from_iterable(entries)))
    if (
        pairs.shape == (len(entries), 2)
        and {list, tuple, int, float}.issuperset(types)
        and (not finite or np.isfinite(pairs).all())
    ):
        return pairs.view(np.complex128)[:, 0]
    return np.array(
        [_parse_pair(e, where(i), finite) for i, e in enumerate(entries)], dtype=np.complex128
    )


def _read_json(path):
    """The decoded JSON document in ``path``; FormatError if unreadable or invalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_state(path, tol: float = DEFAULT_DENSITY_TOL) -> DensityMatrix:
    """Read a state file, validate it and return the density matrix.

    Raises FormatError for anything that fails to parse, naming the first
    entry that is not a finite [re, im] pair before any arithmetic reads
    it, and StateValidationError (carrying diagnostics) when the parsed
    matrix is not a density matrix within ``tol``.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be an object")
    dims_field = doc.get("dims")
    if (
        not isinstance(dims_field, list)
        or not dims_field
        or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims_field)
    ):
        raise FormatError(f"{path}: field 'dims' must be a nonempty list of integers")
    if any(d < 2 for d in dims_field):
        raise FormatError(f"{path}: field 'dims' entries must be >= 2, got {dims_field}")
    _check_dense_dim(dims_field, f"{path}: ")
    dims = tuple(dims_field)
    d = math.prod(dims)

    if "matrix" in doc:
        rows = doc["matrix"]
        if not isinstance(rows, list) or len(rows) != d:
            got = len(rows) if isinstance(rows, list) else type(rows).__name__
            raise FormatError(f"{path}: field 'matrix' must be a {d}x{d} array, got {got} rows")
        mat = np.empty((d, d), dtype=np.complex128)
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != d:
                raise FormatError(f"{path}: matrix row {i} must have {d} entries")
            mat[i] = _complex_entries(row, lambda j: f"{path}: matrix entry ({i}, {j})", finite=True)
    elif "vector" in doc:
        entries = doc["vector"]
        if not isinstance(entries, list) or len(entries) != d:
            got = len(entries) if isinstance(entries, list) else type(entries).__name__
            raise FormatError(f"{path}: field 'vector' must have {d} entries, got {got}")
        vec = _complex_entries(entries, lambda i: f"{path}: vector entry {i}", finite=True)
        mat = np.outer(vec, vec.conj())
    else:
        raise FormatError(f"{path}: expected a 'matrix' or 'vector' field")

    _require_density(mat, tol, f"{path}: ")
    return DensityMatrix(dims, mat)
