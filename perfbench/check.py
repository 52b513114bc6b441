"""Independent check of a ``qmedr compare`` report.

The reference is rebuilt from the dataset CSV with numpy and scipy alone; it
uses nothing from ``qmedr``. It follows the documented construction:

* heat-kernel weights exp(-d^2 / (2 sigma^2)) over the mutual-or k-nearest
  neighbour graph, sigma the median pairwise distance, ties to the lower
  index; L = D - S, and the complement graph S' = 1 - S for EUDP;
* NPE reconstruction weights from the Tikhonov-regularised local Gram
  matrices (1e-8 times the trace), rows summing to one;
* between- and within-class scatter matrices normalised by N;
* preconditioning A -> (A + shift I) / scale with
  shift = max(s_max, l_max - kappa l_min) / (kappa - 1), scale = l_max + shift;
* E = expm(-S2) expm(S1), its SVD, the m smallest singular pairs (the m
  largest for EDA), right singular vectors signed so that each column of
  X V sums to a nonnegative value, and Y = X V.

``check_report`` lists every property the report breaks; an empty list
accepts it. ``planted_faults`` returns the faults the check failed to reject.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

KAPPA = 10.0  # the CLI default of --kappa-target
# t = pi / (e^2 + 1e-6) is the phase-estimation evolution time of the
# pipeline, so one register bin spans 2 pi / (t 2^q1) in eigenvalue units
EVOLUTION_NORM_BOUND = math.exp(2.0) + 1e-6
AUDIT_LIMIT = 8.0
FIDELITY_FLOOR = 1.0 - 1e-9
PRECONDITION_RTOL = 1e-8
# classical.Y must match the reference to rounding, relative to max |Y|
CLASSICAL_RTOL = 1e-7
# below this relative size a column sum cannot fix the sign convention
SIGN_SUM_FLOOR = 1e-9


@dataclass(frozen=True)
class Reference:
    X: np.ndarray
    Y: np.ndarray
    singular_values: np.ndarray
    all_values: np.ndarray
    all_vectors: np.ndarray
    maps: tuple[tuple[float, float], tuple[float, float]]


def load_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    header, body = rows[0], rows[1:]
    table = np.array(body, dtype=float)
    if header[-1].strip().lower() == "label":
        return table[:, :-1], table[:, -1].astype(int)
    return table, None


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    masked = d2 + np.diag(np.full(d2.shape[0], np.inf))
    return np.argsort(masked, axis=1, kind="stable")[:, :k]


def _heat_graph(x: np.ndarray, k: int) -> np.ndarray:
    n = x.shape[0]
    d2 = cdist(x, x, "sqeuclidean")
    sigma = float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))
    near = np.zeros((n, n), dtype=bool)
    near[np.repeat(np.arange(n), k), _nearest(d2, k).ravel()] = True
    s = np.where(near | near.T, np.exp(-d2 / (2.0 * sigma**2)), 0.0)
    np.fill_diagonal(s, 0.0)
    return s


def _laplacian(s: np.ndarray) -> np.ndarray:
    return np.diag(s.sum(axis=1)) - s


def _npe_weights(x: np.ndarray, k: int) -> np.ndarray:
    n = x.shape[0]
    nbrs = _nearest(cdist(x, x, "sqeuclidean"), k)
    diffs = x[:, None, :] - x[nbrs]
    gram = diffs @ diffs.transpose(0, 2, 1)
    gram += 1e-8 * np.trace(gram, axis1=1, axis2=2)[:, None, None] * np.eye(k)
    sol = np.linalg.solve(gram, np.ones((n, k, 1)))[:, :, 0]
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), k), nbrs.ravel()] = (sol / sol.sum(axis=1, keepdims=True)).ravel()
    return w


def _scatter(x: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = x.mean(axis=0)
    dim = x.shape[1]
    s_b = np.zeros((dim, dim))
    s_w = np.zeros((dim, dim))
    for c in np.unique(labels):
        xc = x[labels == c]
        mu_c = xc.mean(axis=0)
        s_b += xc.shape[0] * np.outer(mu_c - mu, mu_c - mu)
        s_w += (xc - mu_c).T @ (xc - mu_c)
    return s_b / x.shape[0], s_w / x.shape[0]


def raw_pair(x: np.ndarray, labels, variant: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The unpreconditioned (S1, S2) pair of a variant."""
    if variant in ("ELPP", "EUDP"):
        s = _heat_graph(x, k)
        s1 = x.T @ _laplacian(s) @ x
        if variant == "ELPP":
            return s1, (x * s.sum(axis=1)[:, None]).T @ x
        s_c = 1.0 - s
        np.fill_diagonal(s_c, 0.0)
        return s1, x.T @ _laplacian(s_c) @ x
    if variant == "ENPE":
        w = _npe_weights(x, k)
        return x.T @ ((w + w.T) / 2.0) @ x, x.T @ x
    if variant == "EDA":
        return _scatter(x, labels)
    raise ValueError(f"unknown variant {variant!r}")


def precondition(raw: np.ndarray, kappa: float = KAPPA) -> tuple[np.ndarray, float, float]:
    sym = (raw + raw.T) / 2.0
    w = scipy.linalg.eigvalsh(sym)
    lmin, lmax = float(w[0]), float(w[-1])
    smax = max(abs(lmin), abs(lmax))
    if smax <= 1e-12:
        raise ValueError("raw matrix vanishes; no documented shift applies")
    shift = max(smax, lmax - kappa * lmin) / (kappa - 1.0)
    scale = lmax + shift
    return (sym + shift * np.eye(sym.shape[0])) / scale, shift, scale


def reference(x: np.ndarray, labels, variant: str, k: int, m: int) -> Reference:
    s1_raw, s2_raw = raw_pair(x, labels, variant, k)
    s1, shift1, scale1 = precondition(s1_raw)
    s2, shift2, scale2 = precondition(s2_raw)
    e_op = scipy.linalg.expm(-s2) @ scipy.linalg.expm(s1)
    _, svals, vt = np.linalg.svd(e_op)
    order = np.arange(m) if variant == "EDA" else np.arange(len(svals) - 1, len(svals) - 1 - m, -1)
    v = vt[order].T.copy()
    sums = (x @ v).sum(axis=0)
    scale = float(np.abs(x).sum())
    if np.any(np.abs(sums) <= SIGN_SUM_FLOOR * scale):
        raise ValueError("a projected column sums to zero; the sign convention is undefined")
    v *= np.sign(sums)
    return Reference(X=x, Y=x @ v, singular_values=svals[order], all_values=svals,
                     all_vectors=vt.T, maps=((shift1, scale1), (shift2, scale2)))


def bin_width(config: dict) -> float:
    q1 = config["accuracy_bits"] + math.ceil(math.log2(2.0 + 1.0 / config["eta"]))
    return 2.0 * EVOLUTION_NORM_BOUND / 2.0**q1


def check_report(doc: dict, ref: Reference, variant: str, m: int) -> list[str]:
    """Every property of the report that the reference refutes."""
    bad = []
    cfg = doc["config"]
    if cfg["variant"] != variant or cfg["m"] != m:
        bad.append("config does not match the request")
    for (shift, scale), got in zip(ref.maps, doc["problem"]["preconditioning"]):
        if not (math.isclose(got["shift"], shift, rel_tol=PRECONDITION_RTOL)
                and math.isclose(got["scale"], scale, rel_tol=PRECONDITION_RTOL)):
            bad.append("preconditioning differs from the documented shift and scale")
    y_classical = np.asarray(doc["classical"]["Y"])
    if y_classical.shape != ref.Y.shape or not np.allclose(
            y_classical, ref.Y, rtol=0.0, atol=CLASSICAL_RTOL * np.abs(ref.Y).max()):
        bad.append("classical.Y differs from the reference")
    q = doc["quantum"]
    entries = np.asarray(q["entries"])
    if entries.shape != ref.Y.shape:
        bad.append("quantum.entries have the wrong shape")
    else:
        bad.extend(_check_entries(entries, ref, q["epsilon_total"],
                                  4.0 * bin_width(cfg) + 100.0 * q["encoding_epsilon"]))
    est = np.asarray(q["eigenvalue_estimates"])
    if est.shape != ref.singular_values.shape or np.abs(est - ref.singular_values).max() > bin_width(cfg):
        bad.append("an eigenvalue estimate is more than one register bin off")
    if any(r > AUDIT_LIMIT for r in doc["resources"]["audit_ratios"].values()):
        bad.append("an audit ratio exceeds 8")
    fidelity = q["analog_fidelity"]
    if cfg["mode"] == "deterministic" and fidelity is not None and fidelity < FIDELITY_FLOOR:
        bad.append("analog fidelity below 1 - 1e-9")
    return bad


def _check_entries(entries: np.ndarray, ref: Reference, eps: float, value_tol: float) -> list[str]:
    """Entrywise within ``eps`` of Y, except on a cluster the register cannot split.

    A selected singular value with another within ``value_tol`` (four register
    bins plus 100 times the encoding error, the documented comparison rule)
    makes its column basis-dependent. Such a column must instead lie in the
    span of X times the cluster's singular vectors, up to the entrywise
    allowance: a residual of at most sqrt(N) * eps.
    """
    bad = []
    n = entries.shape[0]
    for j, value in enumerate(ref.singular_values):
        cluster = np.abs(ref.all_values - value) <= value_tol
        column = entries[:, j]
        if cluster.sum() == 1:
            if np.abs(column - ref.Y[:, j]).max() > eps:
                bad.append(f"quantum.entries column {j} strays beyond epsilon_total")
            continue
        basis, _ = np.linalg.qr(ref.X @ ref.all_vectors[:, cluster])
        residual = column - basis @ (basis.T @ column)
        if np.linalg.norm(residual) > math.sqrt(n) * eps:
            bad.append(f"quantum.entries column {j} leaves its spectral cluster")
    return bad


def planted_faults(doc: dict, ref: Reference, variant: str, m: int) -> list[str]:
    """Names of the planted faults that ``check_report`` did not reject."""
    entries = np.asarray(doc["quantum"]["entries"])
    i, j = np.unravel_index(np.argmax(np.abs(ref.Y)), ref.Y.shape)
    eps = doc["quantum"]["epsilon_total"]

    flipped = entries.copy()
    flipped[i, j] = -flipped[i, j]
    moved = entries.copy()
    moved[i, j] += 2.0 * eps * (1.0 if moved[i, j] >= ref.Y[i, j] else -1.0)
    est = np.asarray(doc["quantum"]["eigenvalue_estimates"])
    off = est.copy()
    off[0] += 2.0 * bin_width(doc["config"]) * (1.0 if off[0] >= ref.singular_values[0] else -1.0)

    faults = {
        "flipped sign": {"entries": flipped.tolist()},
        "entry past epsilon_total": {"entries": moved.tolist()},
        "eigenvalue two bins off": {"eigenvalue_estimates": off.tolist()},
    }
    missed = []
    for name, change in faults.items():
        planted = dict(doc, quantum=dict(doc["quantum"], **change))
        if not check_report(planted, ref, variant, m):
            missed.append(name)
    return missed


def main(argv=None) -> int:
    """Re-check one saved report and write its reference table beside it.

        python3 perfbench/check.py REPORT_DIR

    ``REPORT_DIR`` holds the ``data.csv`` and ``report.json`` of one report;
    the variant, m and k are read from the report's config.
    """
    import json
    import sys

    (report_dir,) = argv if argv is not None else sys.argv[1:]
    with open(f"{report_dir}/report.json") as fh:
        doc = json.load(fh)
    cfg = doc["config"]
    x, labels = load_csv(f"{report_dir}/data.csv")
    ref = reference(x, labels, cfg["variant"], cfg["k"], cfg["m"])
    np.savetxt(f"{report_dir}/reference_Y.csv", ref.Y, delimiter=",")
    print(json.dumps({
        "singular_values": ref.singular_values.tolist(),
        "preconditioning": [{"shift": s, "scale": c} for s, c in ref.maps],
        "rejections": check_report(doc, ref, cfg["variant"], cfg["m"]),
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
