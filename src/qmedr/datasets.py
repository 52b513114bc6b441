"""Synthetic dataset generators and CSV round-tripping.

CSV layout: one sample per row, optional header, optional trailing integer
label column (named ``label`` in the header). Parsing is locale-independent.
"""

from __future__ import annotations

import csv

import numpy as np

from .embedding import Dataset


def synth_blobs(n: int, m: int, classes: int = 2, seed: int = 0, spread: float = 0.4) -> Dataset:
    """Gaussian blobs around random class centers."""
    if classes < 1 or n < classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=1.0, size=(classes, m))
    counts = [n // classes + (1 if i < n % classes else 0) for i in range(classes)]
    rows, labels = [], []
    for c, cnt in enumerate(counts):
        rows.append(centers[c] + spread * rng.normal(size=(cnt, m)))
        labels.extend([c] * cnt)
    return Dataset(X=np.vstack(rows), labels=np.array(labels))


def synth_ring(n: int, m: int, classes: int = 2, seed: int = 0, noise: float = 0.05) -> Dataset:
    """Points on a planar ring embedded in m dimensions, labeled by angular sector."""
    if m < 2:
        raise ValueError("ring data needs at least 2 features")
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    x = np.zeros((n, m))
    x[:, 0] = np.cos(angles)
    x[:, 1] = np.sin(angles)
    x += noise * rng.normal(size=(n, m))
    labels = np.minimum((angles / (2.0 * np.pi) * classes).astype(int), classes - 1)
    return Dataset(X=x, labels=labels)


def save_dataset_csv(ds: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"f{j}" for j in range(ds.n_features)]
        if ds.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(ds.n_samples):
            row = [repr(float(v)) for v in ds.X[i]]
            if ds.labels is not None:
                row.append(str(int(ds.labels[i])))
            writer.writerow(row)


def load_dataset_csv(path: str, with_labels: bool | None = None) -> Dataset:
    """Read a dataset; label column detected from the header unless forced.

    Errors name the file line (``path:line``); features must be finite and a
    label a finite integer.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    if not rows:
        raise ValueError(f"{path}: empty dataset file")

    header = None
    first = rows[0][1]
    try:
        [float(cell) for cell in first]
    except ValueError:
        header = [cell.strip() for cell in first]
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    has_labels = with_labels
    if has_labels is None:
        has_labels = bool(header) and header[-1].lower() == "label"

    width = len(rows[0][1])
    data, labels = [], []
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
        try:
            vals = [float(cell) for cell in row]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric entry") from exc
        if has_labels:
            if not vals[-1].is_integer():
                raise ValueError(f"{path}:{lineno}: label {row[-1].strip()!r} is not an integer")
            data.append(vals[:-1])
            labels.append(int(vals[-1]))
        else:
            data.append(vals)
    x = np.array(data)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}:{rows[int(np.argmin(finite))][0]}: non-finite entry")
    return Dataset(
        X=x,
        labels=np.array(labels, dtype=int) if has_labels else None,
    )
