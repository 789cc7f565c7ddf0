"""The evaluation-grid Laplacian L of a clamped box and its quadrature weights
M~, built node by node: the reference against which the tests check that a
fourth-order block's a is the Gram form L^T M~ L.  Also a second-order axis's
1D pencil as dense factors, for the tests that form its Kronecker sum."""

import numpy as np
import scipy.sparse as sp

from hodge_spectra.discretize import _axis_pencil


def dense_axis_pencil(axis):
    """The dense stiffness S and the weights w of a second-order axis's 1D pencil,
    `axis` being its (cells, spacing, derivative faces), from `_axis_pencil`."""
    main, off, weights = _axis_pencil(*axis)
    off = np.full(len(main) - 1, off)
    return np.diag(main) + np.diag(off, -1) + np.diag(off, 1), np.array(weights)


def evaluation_laplacian(domain):
    """L and M~, one row per evaluation node.

    The first rows are the (2n+1)-point Laplacian at the interior nodes, in
    flat order, with weight vol.  Then come the face rows, axis by axis,
    first face before last, one per interior node of the face's adjacent
    layer: the value is zero on the whole face and ghost reflection of the
    zero normal derivative leaves -2 u / h_k^2 of that interior node, with
    the trapezoidal weight halved in the normal direction.  Nodes on two
    faces or more have no row: every term of their Laplacian is zero.
    """
    cells, spacing, volume = domain.cells, domain.spacing, domain.cell_volume
    entries = []                                  # (row, col, value)
    for multi in np.ndindex(*cells):
        row = int(np.ravel_multi_index(multi, cells))
        diagonal = 0.0
        for k, h in enumerate(spacing):
            diagonal += 2.0 / h ** 2
            for step in (-1, 1):
                if 0 <= multi[k] + step < cells[k]:
                    neighbour = multi[:k] + (multi[k] + step,) + multi[k + 1:]
                    entries.append((row, int(np.ravel_multi_index(neighbour, cells)),
                                    -1.0 / h ** 2))
        entries.append((row, row, diagonal))
    weights = [volume] * domain.interior_count
    for k, h in enumerate(spacing):
        for layer in (0, cells[k] - 1):
            for multi in np.ndindex(*cells):
                if multi[k] == layer:
                    entries.append((len(weights), int(np.ravel_multi_index(multi, cells)),
                                    -2.0 / h ** 2))
                    weights.append(volume / 2.0)
    rows, cols, values = zip(*entries)
    laplacian = sp.csr_matrix((values, (rows, cols)),
                              shape=(len(weights), domain.interior_count))
    return laplacian, np.array(weights)


def gram_pencil(domain, mass: bool):
    """(L^T M~ L, B) of the clamped plate (mass) or buckling, in canonical CSR
    form like the assembled blocks; buckling's B is vol times L's interior rows."""
    laplacian, weights = evaluation_laplacian(domain)
    a = (laplacian.T @ sp.diags(weights) @ laplacian).tocsr()
    a.sort_indices()
    if mass:
        b = sp.identity(domain.interior_count, format="csr") * domain.cell_volume
    else:
        b = laplacian[:domain.interior_count] * domain.cell_volume
    return a, b
