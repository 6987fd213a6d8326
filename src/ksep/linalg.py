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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor most significant.

    result[i * dim(b) + j] = a[i] * b[j]
    """
    return np.kron(a, b)


def kron_all(factors) -> np.ndarray:
    """Left-to-right Kronecker chain of one or more vectors or matrices."""
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def bilinear(mat: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """Sesquilinear form  x^dagger . mat . y  (x is conjugated)."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    d = mat.shape[0]
    if x.shape != (d,):
        raise DimensionError(f"left vector has shape {x.shape}, expected ({d},)")
    if y.shape != (d,):
        raise DimensionError(f"right vector has shape {y.shape}, expected ({d},)")
    return complex(np.vdot(x, mat @ y))


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
