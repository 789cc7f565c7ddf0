"""A fixed computation that measures how fast the machine runs right now.

It mixes the three kinds of work hodge-spectra spends its time on: a dense
LAPACK symmetric eigensolve, a SuperLU factorization of a sparse 2D
Laplacian, and interpreted Python.  It does not touch hodge_spectra, so a
change to the program cannot move it.
"""

import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg


class Reference:
    def __init__(self):
        a = np.random.default_rng(0).standard_normal((300, 300))
        self.dense = a + a.T
        n = 100
        line = sp.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
        eye = sp.identity(n)
        self.sparse = (sp.kron(line, eye) + sp.kron(eye, line)).tocsc()

    def seconds(self) -> float:
        start = time.perf_counter()
        scipy.linalg.eigh(self.dense)
        scipy.sparse.linalg.splu(self.sparse)
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - start
