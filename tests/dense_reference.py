"""Dense N x N constructions of the graph layer, kept as the tests' reference.

The library holds the neighbour graph as its edges and forms the raw data
matrices in closed form. These are the all-pairs versions it replaced: the
full distance matrix and its stable argsort, the dense similarity S and
Laplacian L, the complement graph, and the N x N reconstruction weights.
A full eigenvalue check of a preconditioned matrix's window sits with them.
"""

import numpy as np

from qmedr.linalg import hermitian_eig

# bytes of one row block's difference tensor in pairwise_sq_distances
_DIFF_BLOCK_BYTES = 2**20


def pairwise_sq_distances(x):
    """Squared distances between all rows, reduced in row blocks of _DIFF_BLOCK_BYTES at most."""
    n, f = x.shape
    rows = max(1, _DIFF_BLOCK_BYTES // (8 * n * f))
    out = np.empty((n, n))
    for s0 in range(0, n, rows):
        diff = x[s0 : s0 + rows, None, :] - x[None, :, :]
        out[s0 : s0 + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def spectrum_window_defect(mat, kappa):
    """How far the spectrum of a symmetric matrix strays outside [1/kappa, 1]."""
    w = hermitian_eig(mat).eigenvalues
    return float(max(0.0, 1.0 / kappa - w[0], w[-1] - 1.0))


def dense_knn_graph(x, k, sigma=None):
    """The all-pairs search: neighbours, their distances, sigma and the dense S."""
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = pairwise_sq_distances(x) + np.diag(np.full(n, np.inf))
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    if sigma is None:
        sigma = float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))
    neighbor = np.zeros((n, n), dtype=bool)
    neighbor[np.repeat(np.arange(n), k), nbrs.ravel()] = True
    with np.errstate(invalid="ignore"):  # inf / inf on the diagonal when sigma is infinite
        s = np.where(neighbor | neighbor.T, np.exp(-d2 / (2.0 * sigma**2)), 0.0)
    return nbrs, np.take_along_axis(d2, nbrs, axis=1), sigma, s, neighbor | neighbor.T


def laplacian(s):
    return np.diag(s.sum(axis=1)) - s


def complement(s):
    """The complement graph S'_ij = 1 - S_ij off the diagonal, its Laplacian and flags."""
    s_c = 1.0 - s
    np.fill_diagonal(s_c, 0.0)
    flags = ("degenerate_complement_graph",) if np.all(np.abs(s_c) < 1e-15) else ()
    return s_c, laplacian(s_c), flags


def edge_similarity(graph):
    """The dense S of an edge-list SimilarityGraph."""
    n = graph.degrees.size
    s = np.zeros((n, n))
    s[graph.a, graph.b] = graph.w
    s[graph.b, graph.a] = graph.w
    return s


def dense_weights(neighbors, weights):
    """The N x N reconstruction matrix W of npe_weights' (neighbors, weights)."""
    n = neighbors.shape[0]
    w = np.zeros((n, n))
    w[np.arange(n)[:, None], neighbors] = weights
    return w


def npe_weights_per_sample(x, k):
    """N x N reconstruction weights from the all-pairs search, one k x k solve per sample."""
    n = x.shape[0]
    nbrs = dense_knn_graph(x, k, sigma=1.0)[0]
    w = np.zeros((n, n))
    for i, row in enumerate(nbrs):
        diffs = x[i] - x[row]
        gram = diffs @ diffs.T
        gram = gram + 1e-8 * np.trace(gram) * np.eye(k)
        sol = np.linalg.solve(gram, np.ones(k))
        w[i, row] = sol / sol.sum()
    return w


def dense_raw_pairs(x, variant, k, sigma=None):
    """Raw (S1, S2), graph flags, complement norm and a rounding scale for each matrix.

    The scale of each matrix is max |X|^T |G| |X| for its dense middle factor
    G, which bounds the size of every term either construction adds up.
    """
    def scale(g):
        return float(np.max(np.abs(x).T @ np.abs(g) @ np.abs(x)))

    if variant == "ENPE":
        w = npe_weights_per_sample(x, k)
        w_sym = (w + w.T) / 2.0
        eye = np.eye(x.shape[0])
        return (x.T @ w_sym @ x, x.T @ x), (), None, (scale(w_sym), scale(eye))
    _, _, _, s, _ = dense_knn_graph(x, k, sigma)
    lap = laplacian(s)
    degrees = s.sum(axis=1)
    flags = ("disconnected_vertex",) if np.any(degrees <= 0) else ()
    if variant == "ELPP":
        if np.any(degrees <= 0):
            flags += ("degenerate_degree_matrix",)
        deg = np.diag(degrees)
        return (x.T @ lap @ x, x.T @ deg @ x), flags, None, (scale(lap), scale(deg))
    _, lap_c, comp_flags = complement(s)
    return ((x.T @ lap @ x, x.T @ lap_c @ x), flags + comp_flags, float(np.linalg.norm(lap_c)),
            (scale(lap), scale(lap_c)))
