"""Symmetric eigensolver: LAPACK's eigvalsh through numpy.

Everything above this module calls :func:`sym_eigenvalues`; nothing else in the
package computes eigenvalues of symmetric matrices by any other route.
"""

from __future__ import annotations

import numpy as np


def sym_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending float64 array.

    A (b, m, m) stack gives a (b, m) array whose row i is matrix i's
    eigenvalues, equal to solving it alone: LAPACK runs once per matrix.
    Symmetry is not validated here (see spectra.eig_symmetric for the
    validating entry point); only the lower triangle is read.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square, or a stack of square matrices")
    if a.shape[-1] == 0:
        raise ValueError("matrix must be nonempty")
    return np.linalg.eigvalsh(a, UPLO="L")
