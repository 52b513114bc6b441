"""Data-matrix construction for the four dimensionality-reduction variants.

Builds the k-nearest-neighbour similarity graph as its edges, the
neighborhood-reconstruction weights as N x k arrays, and the scatter
matrices, then assembles the (S1, S2) pair for each variant in closed form
from those, so memory stays linear in the sample count. Both matrices are
preconditioned into a bounded spectral window so the exponential pipeline
downstream has the conditioning it assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import as_square, hermitian_eig, spectral_norm

VARIANTS = ("ELPP", "EUDP", "ENPE", "EDA")

# EDA ranks by largest exponential eigenvalues; the others minimize
VARIANT_DIRECTIONS = {"ELPP": "smallest", "EUDP": "smallest", "ENPE": "smallest", "EDA": "largest"}

DEFAULT_KAPPA = 10.0


@dataclass(frozen=True)
class Dataset:
    """Sample matrix with one row per sample, plus cached row norms."""

    X: np.ndarray
    labels: np.ndarray | None = None
    row_norms: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        x = np.asarray(self.X, dtype=float)
        if x.ndim != 2:
            raise ValueError("X must be 2-D (samples by features)")
        if x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("need at least 1 sample and 1 feature")
        if not np.all(np.isfinite(x)):
            raise ValueError("X contains non-finite entries")
        object.__setattr__(self, "X", x)
        object.__setattr__(self, "row_norms", _row_norms(x))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (x.shape[0],):
                raise ValueError("labels must have one entry per sample")
            object.__setattr__(self, "labels", lab)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def normalized_rows(self) -> np.ndarray:
        norms = np.where(self.row_norms > 0, self.row_norms, 1.0)
        return self.X / norms[:, None]


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms; a row whose squares overflow or underflow to zero is scaled by its max |entry|."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(x, axis=1)
    bad = ~np.isfinite(norms) | ((norms == 0) & x.any(axis=1))
    if bad.any():
        scale = np.abs(x[bad]).max(axis=1)
        norms[bad] = scale * np.linalg.norm(x[bad] / scale[:, None], axis=1)
    return norms


@dataclass(frozen=True)
class SimilarityGraph:
    """Heat-kernel similarity over mutual k-nearest neighbors, held as its edges.

    Edge e joins samples ``a[e] < b[e]`` with weight ``w[e]`` in [0, 1]; each
    neighbour pair appears once, in (a, b) order, and every other pair has
    similarity 0. ``degrees`` is the diagonal of the degree matrix D, so the
    (PSD) Laplacian is L = D - S. Nothing here is N x N: at most N k edges.
    """

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    degrees: np.ndarray
    k: int
    sigma: float
    flags: tuple = ()


@dataclass(frozen=True)
class AffineSpectralMap:
    """The map ``A -> (A + shift*I) / scale`` applied during preconditioning."""

    shift: float
    scale: float

    def apply(self, a: np.ndarray) -> np.ndarray:
        return (a + self.shift * np.eye(a.shape[0])) / self.scale

    def to_dict(self) -> dict:
        return {"shift": self.shift, "scale": self.scale}


@dataclass(frozen=True)
class MedrProblem:
    """Preconditioned (S1, S2) pair for one algorithm variant.

    Both matrices are symmetric with spectra inside [1/kappa, 1]; ``maps``
    records the affine spectral transforms that were applied, so consumers
    know the solved problem is the preconditioned one. ``complement_fro`` is
    the Frobenius norm of the complement-graph Laplacian (EUDP only), which
    the cost expressions read. ``cache`` holds quantities derived from the
    pair, such as E = exp(-S2) exp(S1) and its spectrum, so each is formed
    once per problem.
    """

    variant: str
    s1: np.ndarray
    s2: np.ndarray
    kappa1: float
    kappa2: float
    maps: tuple[AffineSpectralMap, AffineSpectralMap]
    flags: tuple = ()
    complement_fro: float | None = None
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.s1.shape[0]


_DIFF_BLOCK_BYTES = 2**20


def pairwise_sq_distances(x: np.ndarray) -> np.ndarray:
    """Squared distances between all rows, reduced in row blocks of _DIFF_BLOCK_BYTES at most."""
    n, f = x.shape
    rows = max(1, _DIFF_BLOCK_BYTES // (8 * n * f))
    out = np.empty((n, n))
    for s0 in range(0, n, rows):
        diff = x[s0 : s0 + rows, None, :] - x[None, :, :]
        out[s0 : s0 + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _exact_sq_distances(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances of the pairs (rows[i], cols[i]), with the bits of pairwise_sq_distances."""
    step = max(1, _DIFF_BLOCK_BYTES // (8 * x.shape[1]))
    out = np.empty(rows.size)
    for s0 in range(0, rows.size, step):
        diff = x[rows[s0 : s0 + step]] - x[cols[s0 : s0 + step]]
        out[s0 : s0 + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _screen_margins(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared row norms, and per-row bounds M_i on |screen - exact| over row i.

    The Gram screen |x_i|^2 + |x_j|^2 - 2 x_i.x_j and the einsum distance each
    lie within gamma_{F+2} (|x_i| + |x_j|)^2 of the true squared distance
    (relative rounding), plus a few units of the smallest subnormal per
    product (underflow). M_i doubles both terms and takes |x_j| at its
    maximum. It is infinite where (2 (|x_i| + max|x|))^2 overflows, so a
    finite M_i means no step of row i's screen or exact distances overflows.
    """
    f = x.shape[1]
    sq = np.einsum("ij,ij->i", x, x)
    norms = np.sqrt(sq)
    gamma = (f + 4) * 2.0**-53 / (1.0 - (f + 4) * 2.0**-53)
    with np.errstate(over="ignore"):
        margins = gamma * (2.0 * (norms + norms.max())) ** 2 + (f + 4) * 2.0**-1072
    return sq, margins


def _screen_block(x: np.ndarray, sq: np.ndarray, blk: np.ndarray, start: int = 0) -> np.ndarray:
    """Gram screen |x_i|^2 + |x_j|^2 - 2 x_i.x_j of the rows blk against the rows from ``start``."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = x[blk] @ x[start:].T
        g *= -2.0
        g += sq[blk, None]
        g += sq[start:]
    return g


_KEY_BINS = 1 << 16


def _sort_keys(v: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the float64 values v; the map is its own inverse."""
    bits = np.ascontiguousarray(v, dtype=float).view(np.int64)
    return bits ^ ((bits >> 63) & np.int64(0x7FFFFFFFFFFFFFFF))


def _key_value(key: int) -> float:
    """The float64 whose sort key is ``key``, capped at +inf."""
    key = min(key, 0x7FF0000000000000)
    return float(_sort_keys(np.array([key], dtype=np.int64).view(float)).view(float)[0])


def _nearest_neighbors(x: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k nearest other rows and their exact squared distances.

    The result is the first k columns of a stable argsort of
    pairwise_sq_distances with an infinite diagonal, never the row itself,
    and those distances, but no N x N array is built. Row blocks of _DIFF_BLOCK_BYTES take the
    Gram screen g_ij = |x_i|^2 + |x_j|^2 - 2 x_i.x_j, which stays within
    M_i of the exact distance (_screen_margins). Only pairs with
    g_ij <= (k-th smallest g_i) + 2 M_i can be neighbours; exact distances
    are computed for these candidates only, and the k smallest by
    (distance, index) are kept, so ties keep the lower index. A screen or
    margin that is not finite drops no pair.
    """
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    sq, margins = _screen_margins(x)
    nbrs = np.empty((n, k), dtype=np.intp)
    d2 = np.empty((n, k))
    cols = np.arange(n)
    step = max(1, _DIFF_BLOCK_BYTES // (8 * n))
    for s0 in range(0, n, step):
        blk = cols[s0 : s0 + step]
        diag = (blk - s0, blk)
        g = _screen_block(x, sq, blk)
        g[diag] = np.inf
        kth = np.partition(g, k - 1, axis=1)[:, k - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            # "not above" rather than "at most": a NaN bound or screen keeps the pair
            cand = ~(g > (kth + 2.0 * margins[blk])[:, None])
        cand[diag] = False
        r, c = np.divmod(np.flatnonzero(cand), n)
        r += s0
        exact = _exact_sq_distances(x, r, c)
        order = np.lexsort((c, exact, r))
        pick = order[np.searchsorted(r, blk)[:, None] + np.arange(k)]
        nbrs[blk] = c[pick]
        d2[blk] = exact[pick]
    return d2, nbrs


def _upper_blocks(x: np.ndarray, sq: np.ndarray, screen: bool):
    """Yield (s0, upper, values) over row blocks of about _DIFF_BLOCK_BYTES.

    ``values[r, c]`` belongs to the pair (s0 + r, s0 + 1 + c), and ``upper``
    marks the pairs i < j among them. The values are the Gram screen over the
    squared row norms ``sq``, or with ``screen`` false the exact squared
    distances of pairwise_sq_distances.
    """
    n, f = x.shape
    step = max(1, _DIFF_BLOCK_BYTES // (8 * n * (1 if screen else f)))
    for s0 in range(0, n - 1, step):
        blk = np.arange(s0, min(n, s0 + step))
        if screen:
            vals = _screen_block(x, sq, blk, s0 + 1)
        else:
            diff = x[blk, None, :] - x[None, s0 + 1 :, :]
            vals = np.einsum("ijk,ijk->ij", diff, diff)
        yield s0, np.triu(np.ones(vals.shape, dtype=bool)), vals


# the median gathers at most this many band pairs at once
_BAND_PAIRS = _DIFF_BLOCK_BYTES // 8


def _median_bracket(x: np.ndarray, sq: np.ndarray, screen: bool, ranks: tuple[int, int],
                    margin: float) -> tuple[float, float]:
    """Values t1 <= t2 with at most ranks[0] pair values below t1 and more than ranks[1] up to t2.

    A counting pass bins the values by the top 16 bits of their sort keys. If
    the bins of the two ranks, widened by ``margin``, may hold more than
    _BAND_PAIRS pairs, a second pass bins the next 16 bits inside those bins.
    """
    half = _KEY_BINS // 2
    top = np.zeros(_KEY_BINS, dtype=np.int64)
    for _, upper, vals in _upper_blocks(x, sq, screen):
        top += np.bincount((_sort_keys(vals[upper]) >> 48) + half, minlength=_KEY_BINS)
    counts = np.concatenate(([0], np.cumsum(top)))
    bins = [int(np.searchsorted(counts, r, side="right")) - 1 for r in ranks]
    t1 = _key_value((bins[0] - half) << 48)
    t2 = _key_value(((bins[1] - half) << 48) | (1 << 48) - 1)
    first, last = (int(_sort_keys(np.array([t]))[0] >> 48) + half for t in (t1 - margin, t2 + margin))
    if counts[last + 1] - counts[first] <= _BAND_PAIRS:
        return t1, t2
    sub = {b: np.zeros(_KEY_BINS, dtype=np.int64) for b in bins}
    for _, upper, vals in _upper_blocks(x, sq, screen):
        keys = _sort_keys(vals[upper])
        high = (keys >> 48) + half
        for b, hist in sub.items():
            hist += np.bincount((keys[high == b] >> 32) & (_KEY_BINS - 1), minlength=_KEY_BINS)
    prefix = [((b - half) << 16) + int(np.searchsorted(np.cumsum(sub[b]), r - counts[b], side="right"))
              for r, b in zip(ranks, bins)]
    return _key_value(prefix[0] << 32), _key_value((prefix[1] << 32) | 0xFFFFFFFF)


def _median_distance(x: np.ndarray) -> float:
    """np.median of the distances of all pairs i < j, with no N x N array.

    The pair values are the Gram screen, within M = max M_i of the exact
    squared distance (_screen_margins), or, where M is not finite, the exact
    distances with M = 0. _median_bracket finds values t1 <= t2 around
    np.median's middle ranks. Every pair below t1 - 2M is exactly nearer than
    those ranks and every pair above t2 + 2M farther, so a gather pass
    computes exact distances for the band in between only, and the ranks
    shift down by the count below it.
    """
    n = x.shape[0]
    size = n * (n - 1) // 2
    lo, hi = (size - 1) // 2, size // 2
    sq, margins = _screen_margins(x)
    margin = 2.0 * margins.max()
    screen = bool(np.isfinite(margin))
    if not screen:
        margin = 0.0
    t1, t2 = _median_bracket(x, sq, screen, (lo, hi), margin)
    shift = 0
    rows, cols = [], []
    for s0, upper, vals in _upper_blocks(x, sq, screen):
        below = upper & (vals < t1 - margin)
        r, c = np.nonzero(upper & ~(below | (vals > t2 + margin)))
        shift += int(np.count_nonzero(below))
        rows.append(r + s0)
        cols.append(c + s0 + 1)
    mid = np.arange(lo, hi + 1) - shift
    exact = _exact_sq_distances(x, np.concatenate(rows), np.concatenate(cols))
    return float(np.median(np.sqrt(np.partition(exact, mid)[mid])))


def knn_graph(ds: Dataset, k: int, sigma: float | None = None) -> SimilarityGraph:
    """Mutual-or k-nearest-neighbor graph with heat-kernel weights.

    ``sigma=None`` selects the median pairwise distance. Equidistant neighbor
    ties keep the lower sample index. The neighbour search and the median
    screen every pair with a Gram bound and compute exact squared distances
    only for the pairs the bound cannot decide (_nearest_neighbors,
    _median_distance); the weights need them only on the kept pairs, and the
    graph keeps only its at most N k edges.
    """
    n = ds.n_samples
    d2, nbrs = _nearest_neighbors(ds.X, k)
    if sigma is None:
        sigma = _median_distance(ds.X)
        if sigma <= 0.0:
            raise ValueError("auto sigma is zero: dataset has too many duplicate samples")
    elif not sigma > 0:
        raise ValueError("sigma must be positive")

    rows = np.repeat(np.arange(n), k)
    cols = nbrs.ravel()
    pairs, first = np.unique(np.minimum(rows, cols) * n + np.maximum(rows, cols), return_index=True)
    a, b = np.divmod(pairs, n)
    # exact distances are symmetric to the bit, so both directions share a weight
    # d2 / 0 is the sigma -> 0 limit, exp(-inf) = 0; the NaNs of inf / inf and 0 / 0 are refused
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.exp(-d2.ravel()[first] / (2.0 * sigma**2))
    if not np.all(np.isfinite(w)):
        raise ValueError(f"sigma={sigma} gives non-finite heat-kernel weights: "
                         "a squared distance and 2 sigma^2 are both infinite or both zero")
    degrees = np.bincount(a, w, n) + np.bincount(b, w, n)
    flags = ()
    if np.any(degrees <= 0):
        flags = ("disconnected_vertex",)
    return SimilarityGraph(a=a, b=b, w=w, degrees=degrees, k=k, sigma=sigma, flags=flags)


def precondition(raw: np.ndarray, kappa_target: float = DEFAULT_KAPPA):
    """Shift-and-scale a symmetric matrix so its spectrum lies in [1/kappa, 1].

    PSD inputs use shift = s_max / (kappa - 1); indefinite inputs get the
    larger shift that also lifts the negative part into the window. Near-zero
    matrices map to the identity and are flagged degenerate.
    """
    if kappa_target <= 1.0:
        raise ValueError("kappa_target must exceed 1")
    sym = (raw + raw.T) / 2.0
    # only the extremes are read, so no eigenvectors are formed
    spec = np.linalg.eigvalsh(as_square(sym))
    lmin, lmax = float(spec[0]), float(spec[-1])
    smax = max(abs(lmin), abs(lmax))
    flags: list[str] = []
    if smax <= 1e-12:
        flags.append("degenerate_zero_matrix")
        amap = AffineSpectralMap(shift=1.0, scale=1.0)
        return amap.apply(sym), amap, tuple(flags)
    if lmin < -1e-12 * smax:
        flags.append("indefinite_raw_matrix")
    shift = max(smax, lmax - kappa_target * lmin) / (kappa_target - 1.0)
    scale = lmax + shift
    if scale <= 1e-12:
        flags.append("degenerate_negative_matrix")
        shift = abs(lmin) + 1.0
        scale = lmax + shift
    amap = AffineSpectralMap(shift=shift, scale=scale)
    out = amap.apply(sym)
    return (out + out.T) / 2.0, amap, tuple(flags)


def _pad_raw(raw: np.ndarray, pad_to: int, at_top: bool) -> np.ndarray:
    """Grow a symmetric matrix with decoupled directions at a window edge.

    ``at_top`` places the padding at the largest eigenvalue (so padded
    directions map to exactly 1 under preconditioning), otherwise at zero
    (mapping to exactly 1/kappa). The data block is untouched either way.
    """
    sym = (raw + raw.T) / 2.0
    dim = sym.shape[0]
    if pad_to <= dim:
        return sym
    value = float(np.linalg.eigvalsh(as_square(sym))[-1]) if at_top else 0.0
    if value < 0:
        value = 0.0
    out = np.zeros((pad_to, pad_to))
    out[:dim, :dim] = sym
    out[dim:, dim:] = value * np.eye(pad_to - dim)
    return out


def _assemble(variant, s1_raw, s2_raw, kappa_target, extra_flags=(), pad_to=None):
    flags = list(extra_flags)
    if pad_to is not None and pad_to > s1_raw.shape[0]:
        # keep padded directions out of the selected extreme set: for
        # minimization variants they sit at the top of the exponential
        # spectrum, for maximization at the bottom
        smallest = VARIANT_DIRECTIONS.get(variant, "smallest") == "smallest"
        s1_raw = _pad_raw(s1_raw, pad_to, at_top=smallest)
        s2_raw = _pad_raw(s2_raw, pad_to, at_top=not smallest)
        flags.append(f"padded_to_{pad_to}")
    s1, map1, f1 = precondition(s1_raw, kappa_target)
    s2, map2, f2 = precondition(s2_raw, kappa_target)
    return MedrProblem(
        variant=variant,
        s1=s1,
        s2=s2,
        kappa1=kappa_target,
        kappa2=kappa_target,
        maps=(map1, map2),
        flags=tuple(flags) + f1 + f2,
    )


def _laplacian_form(x: np.ndarray, graph: SimilarityGraph) -> tuple[np.ndarray, np.ndarray]:
    """X^T L X = sum_e w_e d_e d_e^T over the edges, d_e = x_a - x_b, and the differences d.

    This equals X^T D X - X^T S X; the sum over edges takes no difference
    between those two, so it keeps its accuracy where they nearly cancel.
    """
    d = x[graph.a] - x[graph.b]
    return (d.T * graph.w) @ d, d


def build_elpp(ds: Dataset, graph: SimilarityGraph, kappa_target: float = DEFAULT_KAPPA,
               pad_to: int | None = None) -> MedrProblem:
    """Locality-preserving pair: S1 = X^T L X, S2 = X^T D X."""
    x = ds.X
    flags = list(graph.flags)
    if np.any(graph.degrees <= 0):
        flags.append("degenerate_degree_matrix")
    # C order keeps the BLAS kernel, and so every bit, of x.T @ D @ x
    s2 = np.multiply(x.T, graph.degrees, order="C") @ x
    return _assemble("ELPP", _laplacian_form(x, graph)[0], s2, kappa_target, flags, pad_to)


def build_eudp(ds: Dataset, graph: SimilarityGraph, kappa_target: float = DEFAULT_KAPPA,
               pad_to: int | None = None) -> MedrProblem:
    """Discriminant-projection pair: S1 = X^T L X, S2 = X^T L' X over the complement graph.

    The complement has S'_ij = 1 - S_ij off the diagonal, so it is never
    built. Its quadratic form sums (1 - S_ij) d d^T over all pairs: the
    pairs off the graph give N Xc^T Xc (Xc the centred samples) less the
    edges' sum d^T d, which is zero outright for a complete graph, and the
    edges add d^T (1 - w) d. This is X^T diag(N - 1 - deg) X - X^T S' X with
    X^T S' X = (sum x)(sum x)^T - X^T X - X^T S X. Its Frobenius norm has the
    closed form |L'|_F^2 = sum_i deg'_i^2 + (N(N-1) - 2E) + 2 sum_e (1 - w_e)^2
    for E edges, with deg'_i = (N - 1 - m_i) + sum_{e at i} (1 - w_e) and
    m_i the edge count at i.
    """
    x = ds.X
    n = ds.n_samples
    flags = list(graph.flags)
    s1, d = _laplacian_form(x, graph)
    gap = 1.0 - graph.w
    complete = graph.w.size == n * (n - 1) // 2
    if complete and np.all(np.abs(gap) < 1e-15):
        flags.append("degenerate_complement_graph")
    s2 = (d.T * gap) @ d
    if not complete:
        xc = x - x.mean(axis=0)
        s2 += n * (xc.T @ xc) - d.T @ d
    edges_at = np.bincount(graph.a, minlength=n) + np.bincount(graph.b, minlength=n)
    deg_c = (n - 1 - edges_at) + (np.bincount(graph.a, gap, n) + np.bincount(graph.b, gap, n))
    fro2 = float(deg_c @ deg_c) + (n * (n - 1) - 2 * graph.w.size) + 2.0 * float(gap @ gap)
    problem = _assemble("EUDP", s1, s2, kappa_target, flags, pad_to)
    return replace(problem, complement_fro=float(np.sqrt(fro2)))


def npe_weights(ds: Dataset, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic neighborhood reconstruction weights, as N x k (neighbors, weights).

    Row i of W has ``weights[i]`` at the columns ``neighbors[i]`` and vanishes
    elsewhere. Each row solves the constrained least-squares reconstruction
    of a sample from its k nearest neighbors through the Tikhonov-regularized
    local Gram matrix; weights sum to one. All N k x k systems go through one
    batched solve.
    """
    n = ds.n_samples
    _, neighbors = _nearest_neighbors(ds.X, k)
    diffs = ds.X[:, None, :] - ds.X[neighbors]
    gram = diffs @ diffs.transpose(0, 2, 1)
    gram = gram + (1e-8 * np.trace(gram, axis1=1, axis2=2))[:, None, None] * np.eye(k)
    try:
        sol = np.linalg.solve(gram, np.ones((n, k, 1)))[:, :, 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by regularization
        raise AssertionError("singular local Gram matrix") from exc
    total = sol.sum(axis=1)
    bad = ~(np.isfinite(total) & (np.abs(total) > 0))
    assert not bad.any(), f"degenerate reconstruction at sample {int(np.argmax(bad))}"
    return neighbors, sol / total[:, None]


def build_enpe(ds: Dataset, weights: tuple[np.ndarray, np.ndarray], kappa_target: float = DEFAULT_KAPPA,
               pad_to: int | None = None) -> MedrProblem:
    """Neighborhood-preserving pair: S1 = X^T W_sym X with W_sym = (W + W^T)/2, S2 = X^T X.

    ``weights`` is npe_weights' (neighbors, weights); X^T W_sym X is the
    symmetric part of X^T (W X), and W X takes one N x k x F gather.
    """
    x = ds.X
    neighbors, w = weights
    m = x.T @ np.einsum("ik,ikf->if", w, x[neighbors])
    return _assemble("ENPE", (m + m.T) / 2.0, x.T @ x, kappa_target, (), pad_to)


def scatter_matrices(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Between-class and within-class scatter matrices, both normalized by N."""
    if ds.labels is None:
        raise ValueError("labels are required for scatter matrices")
    x, labels = ds.X, ds.labels
    n = ds.n_samples
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError("need at least 2 classes")
    mu = x.mean(axis=0)
    dim = ds.n_features
    s_b = np.zeros((dim, dim))
    s_w = np.zeros((dim, dim))
    for c in classes:
        xc = x[labels == c]
        mu_c = xc.mean(axis=0)
        dc = mu_c - mu
        s_b += xc.shape[0] * np.outer(dc, dc)
        centered = xc - mu_c
        s_w += centered.T @ centered
    return s_b / n, s_w / n


def build_eda(ds: Dataset, kappa_target: float = DEFAULT_KAPPA,
              pad_to: int | None = None) -> MedrProblem:
    """Discriminant-analysis pair: S1 = between-class, S2 = within-class scatter."""
    s_b, s_w = scatter_matrices(ds)
    flags = []
    if spectral_norm(s_b) <= 1e-12 and spectral_norm(s_w) <= 1e-12:
        flags.append("degenerate_identical_samples")
    return _assemble("EDA", s_b, s_w, kappa_target, flags, pad_to)


def build_problem(ds: Dataset, variant: str, k: int, sigma: float | None = None,
                  kappa_target: float = DEFAULT_KAPPA, pad_to: int | None = None) -> MedrProblem:
    """Dispatch to the named variant builders."""
    if variant == "ELPP":
        return build_elpp(ds, knn_graph(ds, k, sigma), kappa_target, pad_to)
    if variant == "EUDP":
        return build_eudp(ds, knn_graph(ds, k, sigma), kappa_target, pad_to)
    if variant == "ENPE":
        return build_enpe(ds, npe_weights(ds, k), kappa_target, pad_to)
    if variant == "EDA":
        return build_eda(ds, kappa_target, pad_to)
    raise ValueError(f"unknown variant {variant!r}")


def spectrum_window_defect(mat: np.ndarray, kappa: float) -> float:
    """How far the spectrum of a symmetric matrix strays outside [1/kappa, 1]."""
    w = hermitian_eig(mat).eigenvalues
    return float(max(0.0, 1.0 / kappa - w[0], w[-1] - 1.0))
