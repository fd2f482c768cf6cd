"""Post-hoc analyses over training artifacts.

Consumes the metrics.csv files, gradient dumps (.npz of per-layer arrays
shaped (iterations, weight-count)), and checkpoints written by `train`;
produces small CSV summaries. Everything here is deterministic given its
input files.
"""

from __future__ import annotations

import csv

import numpy as np

from .checkpoint import load_checkpoint
from .errors import DataError

METRICS_HEADER = ["iteration", "epoch", "loss", "test_error",
                  "p15", "p50", "p85", "seconds"]


def write_metrics_csv(path: str, records):
    """Serialize MetricsRecord rows; floats via repr for stable re-reads, None
    as a blank cell."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRICS_HEADER)
        for r in records:
            writer.writerow([r.iteration, r.epoch] + [
                "" if v is None else repr(float(v))
                for v in (r.loss, r.test_error, r.p15, r.p50, r.p85, r.seconds)])


def read_metrics_csv(path: str) -> dict[str, np.ndarray]:
    """Columns as arrays; blank cells load as NaN."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != METRICS_HEADER:
        raise DataError(f"{path}: not a metrics file (header {rows[0] if rows else 'missing'})")
    cols = {name: [] for name in METRICS_HEADER}
    for row in rows[1:]:
        for name, cell in zip(METRICS_HEADER, row):
            cols[name].append(float(cell) if cell != "" else np.nan)
    return {name: np.asarray(vals) for name, vals in cols.items()}


def percentile_drift(metrics: dict[str, np.ndarray], window: int | None = None) -> dict:
    """Stability summary of the median-argument series over training.

    Returns the std of p50 across iterations (the covariate-shift figure of
    merit: lower means later layers see a steadier input distribution) plus
    the spread between p85 and p15. window limits to the first N records.
    """
    p50 = metrics["p50"]
    p15, p85 = metrics["p15"], metrics["p85"]
    if window is not None:
        p50, p15, p85 = p50[:window], p15[:window], p85[:window]
    keep = ~np.isnan(p50)
    if not np.any(keep):
        raise DataError("no percentile records in metrics")
    return {
        "records": int(np.sum(keep)),
        "p50_std": float(np.std(p50[keep])),
        "p50_range": float(np.max(p50[keep]) - np.min(p50[keep])),
        "band_mean": float(np.mean(p85[keep] - p15[keep])),
    }


def error_window(metrics: dict[str, np.ndarray], window: int | None = None) -> dict:
    """Mean test error over the last `window` evaluated records.

    Reported-number conventions differ on the averaging span, so the window
    is a parameter: None averages every evaluation in the file.
    """
    errs = metrics["test_error"]
    errs = errs[~np.isnan(errs)]
    if errs.size == 0:
        raise DataError("no test_error records in metrics")
    if window is not None:
        errs = errs[-window:]
    return {"evaluations": int(errs.size), "mean_error": float(np.mean(errs)),
            "last_error": float(errs[-1]), "best_error": float(np.min(errs))}


def weight_histograms(checkpoint_path: str, bins: int = 20) -> list[dict]:
    """Fixed-bin histogram rows per parameter of a checkpoint."""
    _, params, _ = load_checkpoint(checkpoint_path)
    rows = []
    for name in sorted(params):
        counts, edges = np.histogram(params[name].reshape(-1), bins=bins)
        for k in range(bins):
            rows.append({"parameter": name, "bin_lo": float(edges[k]),
                         "bin_hi": float(edges[k + 1]), "count": int(counts[k])})
    return rows


def weight_statistics(checkpoint_path: str) -> list[dict]:
    """Per-parameter summary rows from a checkpoint."""
    _, params, _ = load_checkpoint(checkpoint_path)
    rows = []
    for name in sorted(params):
        arr = params[name]
        rows.append({"parameter": name, "count": arr.size,
                     "mean": float(np.mean(arr)), "std": float(np.std(arr)),
                     "min": float(np.min(arr)), "max": float(np.max(arr)),
                     "l2": float(np.linalg.norm(arr))})
    return rows


def save_gradient_log(path: str, grad_log: dict[str, list[np.ndarray]]):
    arrays = {name: np.stack(vals) for name, vals in grad_log.items()}
    np.savez(path, **arrays)


def gradient_cosine_table(path_a: str, path_b: str) -> list[dict]:
    """Per-(layer, iteration) cosine similarity between two gradient dumps.

    Both dumps must cover the same layers; iterations are truncated to the
    shorter run. Returns one row per layer with the mean cosine and the
    worst iteration.
    """
    with np.load(path_a) as da, np.load(path_b) as db:
        layers = sorted(set(da.files) & set(db.files))
        if not layers:
            raise DataError("gradient dumps share no layers")
        rows = []
        for layer in layers:
            a, b = da[layer], db[layer]
            n = min(a.shape[0], b.shape[0])
            a, b = a[:n], b[:n]
            dots = np.sum(a * b, axis=1)
            denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
            cos = dots / np.maximum(denom, 1e-300)
            rows.append({"layer": layer, "iterations": n,
                         "mean_cosine": float(np.mean(cos)),
                         "min_cosine": float(np.min(cos))})
        return rows


def write_rows_csv(path: str, rows: list[dict]):
    if not rows:
        raise DataError("nothing to write")
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def metrics_equal_excluding_time(path_a: str, path_b: str) -> bool:
    """Byte-level comparison of two metrics files minus the seconds column."""
    def strip(path):
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        return [row[:-1] for row in rows]
    return strip(path_a) == strip(path_b)

