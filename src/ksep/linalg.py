"""Dense complex linear algebra helpers shared by the other modules.

Vectors are 1-d ``numpy.ndarray`` of complex128, matrices are square 2-d
arrays in row-major layout.  Everything here is a pure function of its
arguments; nothing mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

# tolerance used when judging density-matrix invariants
DEFAULT_DENSITY_TOL = 1e-9
# tolerance used when judging unit normalization of vectors
UNIT_NORM_TOL = 1e-12
# complex entries in one block of rows of _dominance_accepts (1 MiB)
_BLOCK_ENTRIES = 1 << 16


def kron_all(factors) -> np.ndarray:
    """Left-to-right Kronecker chain of one or more vectors or matrices.

    The first factor is the most significant: for two vectors,
    result[i * dim(b) + j] = a[i] * b[j].
    """
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


@dataclass(frozen=True)
class DensityDiagnostics:
    """Measured defects of a candidate density matrix.

    hermiticity_defect: max entrywise |mat - mat^dagger|
    trace_defect:       |tr(mat) - 1|
    min_eigenvalue:     smallest eigenvalue of the hermitian part
    tol:                tolerance the matrix was judged against
    accepted:           all defects within tol (eigenvalues >= -tol)
    """

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    tol: float
    accepted: bool


def check_density(mat: np.ndarray, tol: float = DEFAULT_DENSITY_TOL) -> DensityDiagnostics:
    """Judge whether ``mat`` is a density matrix within ``tol``.

    Checks hermiticity, unit trace and positive semidefiniteness (smallest
    eigenvalue of the hermitian part >= -tol).  Never raises on bad input
    values; the verdict is carried in the returned record.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    herm_defect = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    trace_defect = float(abs(complex(np.trace(mat)) - 1.0))
    hermitian_part = 0.5 * (mat + mat.conj().T)
    min_eig = float(np.linalg.eigvalsh(hermitian_part)[0])
    accepted = herm_defect <= tol and trace_defect <= tol and min_eig >= -tol
    return DensityDiagnostics(
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
        tol=tol,
        accepted=accepted,
    )


def _dominance_accepts(mat: np.ndarray, tol: float) -> bool:
    """True when ``check_density(mat, tol)`` is sure to accept, shown in
    O(D^2) without an eigensolve; False when this cannot tell.

    The hermiticity and trace defects are the floats ``check_density``
    computes.  By Gershgorin's circle theorem every eigenvalue of the
    hermitian part H lies in a disc around some H_ii of radius
    r_i = sum_{j != i} |H_ij|, so min_i (H_ii - r_i) bounds the smallest
    from below; the bound is accepted when it is at least -tol + margin,
    with margin = 8 D eps ||H||_inf (eps the float64 machine epsilon) made
    of two parts:

    - at most D eps ||H||_inf for rounding in the bound itself: each |H_ij|
      has a relative error of at most eps, a sum of D - 1 nonnegative terms
      at most (D - 2) eps/2, and the subtraction rounds once more;
    - 7 D eps ||H||_inf for ``eigvalsh``, whose eigenvalues are those of
      H + E with ||E||_2 <= p(D) eps ||H||_2, p a modestly growing function
      of D (LAPACK Users' Guide, section 4.7), and ||H||_2 <= ||H||_inf
      for hermitian H.

    H holds the floats of ``check_density``'s hermitian part (the same sum,
    halved), so both judge one matrix.  It is built a block of rows at a
    time, so the pass needs about 1 MiB beside ``mat``.  A matrix with a
    non-finite entry is never accepted.
    """
    d = mat.shape[0]
    step = max(1, _BLOCK_ENTRIES // d)
    herm_defects = []
    diagonal = np.empty(d)
    radius = np.empty(d)
    # inf - inf and overflow warn; check_density reports such a matrix itself
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, d, step):
            rows = mat[lo:lo + step]
            # rows lo.. of mat^dagger, C-ordered so the sums read memory in order
            adjoint = np.conjugate(mat[:, lo:lo + step].T, order="C")
            herm_defects.append(np.max(np.abs(rows - adjoint)))
            hermitian = np.add(rows, adjoint, out=adjoint)
            hermitian *= 0.5
            at = np.arange(len(rows))
            diagonal[lo:lo + step] = hermitian[at, lo + at].real
            off = np.abs(hermitian)
            off[at, lo + at] = 0.0
            radius[lo:lo + step] = off.sum(axis=1)
        # np.max and np.min keep a NaN, so a non-finite entry fails below
        herm_defect = float(np.max(herm_defects))
        trace_defect = float(abs(complex(np.trace(mat)) - 1.0))
        margin = 8 * d * np.finfo(np.float64).eps * float(np.max(np.abs(diagonal) + radius))
        lowest = float(np.min(diagonal - radius))
    return herm_defect <= tol and trace_defect <= tol and lowest >= -tol + margin
