"""The one-class-at-a-time logistic regression that `lr_fit` replaced, kept as
the reference its weights and intercepts must match to floating-point
tolerance.

It fits the k one-vs-rest problems one after another, each with its own
matrix-vector products, so it only suits small data.
"""

import math

import numpy as np

from emojivote.classifiers import LrConfig, LrModel
from emojivote.features import LabeledDataset

from helpers import dataset_to_dense


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def lr_objective(
    w: np.ndarray, b: float, X: np.ndarray, y01: np.ndarray, lam: float
) -> float:
    """Mean logistic loss of a binary problem plus (lam/2)*||w||^2 (intercept free)."""
    z = X @ w + b
    ysign = 2.0 * y01 - 1.0
    loss = np.logaddexp(0.0, -ysign * z).mean()
    return float(loss + 0.5 * lam * (w @ w))


def lr_gradient(
    w: np.ndarray, b: float, X: np.ndarray, y01: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    resid = _sigmoid(X @ w + b) - y01
    gw = X.T @ resid / len(y01) + lam * w
    gb = float(resid.mean())
    return gw, gb


def _fit_binary(X: np.ndarray, y01: np.ndarray, cfg: LrConfig) -> tuple[np.ndarray, float]:
    # Full-batch gradient descent, zero init, Armijo backtracking (shrink 0.5,
    # slope factor 1e-4).
    w = np.zeros(X.shape[1])
    b = 0.0
    obj = lr_objective(w, b, X, y01, cfg.l2_strength)
    for _ in range(cfg.max_iters):
        gw, gb = lr_gradient(w, b, X, y01, cfg.l2_strength)
        gnorm_sq = gw @ gw + gb * gb
        if math.sqrt(gnorm_sq) < cfg.tolerance:
            break
        step = 1.0
        while step > 1e-16:
            w_new = w - step * gw
            b_new = b - step * gb
            obj_new = lr_objective(w_new, b_new, X, y01, cfg.l2_strength)
            if obj_new <= obj - 1e-4 * step * gnorm_sq:
                break
            step *= 0.5
        else:
            break  # no productive step exists at this point
        w, b, obj = w_new, b_new, obj_new
    return w, b


def lr_fit(dataset: LabeledDataset, cfg: LrConfig = LrConfig()) -> LrModel:
    """One binary L2-regularized problem per class (one-vs-rest)."""
    if len(dataset) == 0:
        raise ValueError("cannot fit logistic regression on an empty dataset")
    if len(set(dataset.labels)) < 2:
        raise ValueError("logistic regression needs at least 2 distinct labels")
    X, y = dataset_to_dense(dataset)
    k = dataset.num_classes
    W = np.zeros((k, dataset.dimension))
    b = np.zeros(k)
    for c in range(k):
        W[c], b[c] = _fit_binary(X, (y == c).astype(float), cfg)
    return LrModel(weights=W, intercepts=b, dimension=dataset.dimension, num_classes=k)
