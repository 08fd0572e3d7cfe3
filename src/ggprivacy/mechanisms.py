"""Noise-addition mechanisms, private argmax, and clipped noisy training.

Scale convention shared with the accountant: a mechanism configured with
noise ``GGParams(beta, sigma)`` and sensitivity ``Delta`` adds iid
``GG(beta, sigma * Delta)`` noise per coordinate, so ``sigma`` is always the
per-unit-sensitivity scale.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import ggdist, kernels
from .accountant import CompositionLedger
from .errors import IngestionError, InputError, ParameterError
from .ggdist import GGParams
from .prv import MechanismSpec


def gg_mechanism(value, sensitivity: float, noise: GGParams,
                 rng: np.random.Generator) -> np.ndarray:
    """Add iid GG(beta, sigma * sensitivity) noise to a vector-valued query."""
    if not (isinstance(sensitivity, (int, float)) and math.isfinite(sensitivity)
            and sensitivity > 0):
        raise ParameterError(f"sensitivity must be positive, got {sensitivity!r}")
    arr = np.atleast_1d(np.asarray(value, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise InputError("query value must be finite")
    scaled = GGParams(noise.beta, noise.sigma * float(sensitivity))
    return arr + ggdist.sample(scaled, rng, arr.size).reshape(arr.shape)


def sgg_mechanism(records, query, sensitivity: float, noise: GGParams,
                  sample_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson-subsample ``records`` at ``sample_rate``, evaluate ``query``
    on the kept subset, and add GG noise.

    ``query`` must map any subset (including the empty one, where it should
    return the query's identity element) to a finite vector.  At
    ``sample_rate == 1`` no inclusion draws are consumed, so the output
    matches `gg_mechanism` on the full data bit-for-bit under the same
    generator state.
    """
    if not 0.0 < sample_rate <= 1.0:
        raise ParameterError(f"sample_rate must lie in (0, 1], got {sample_rate!r}")
    if sample_rate == 1.0:
        subset = records
    else:
        n = len(records)
        keep = rng.random(n) < sample_rate
        if isinstance(records, np.ndarray):
            subset = records[keep]
        else:
            subset = [r for r, k in zip(records, keep) if k]
    return gg_mechanism(query(subset), sensitivity, noise, rng)


def ggnmax(counts, noise: GGParams, rng: np.random.Generator) -> int:
    """Private argmax: add iid GG noise to every count, return the top index.

    Ties break toward the lowest index.  Sensitivity convention: the counts
    are assumed to change by at most 1 in one entry per neighboring dataset,
    so ``noise.sigma`` is used as-is.
    """
    arr = np.atleast_1d(np.asarray(counts, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 2:
        raise ParameterError("counts must be a 1-d array with at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise InputError("counts must be finite")
    noisy = arr + ggdist.sample(noise, rng, arr.size)
    return int(np.argmax(noisy))


def _check_clip(beta: float, clip_norm: float, values, name: str) -> None:
    """The input rules of every l_beta clip: a shape in [1, BETA_MAX], a
    positive finite radius and finite entries."""
    if not (math.isfinite(clip_norm) and clip_norm > 0):
        raise ParameterError(
            f"clip_norm must be positive and finite, got {clip_norm!r}")
    if not (1.0 <= beta <= ggdist.BETA_MAX):
        raise ParameterError(
            f"beta must lie in [1, {ggdist.BETA_MAX:g}], got {beta!r}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{name} must be finite")


def _clip_scale(norms: np.ndarray, clip_norm: float) -> np.ndarray:
    """Per-row factor 1 / max(1, ||g||_beta / C) of the l_beta projection."""
    return 1.0 / np.maximum(1.0, norms / clip_norm)


def _power_sums(rows: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise sum of |a|**beta, i.e. ||a||_beta**beta, of a 2-d array."""
    return np.sum(np.abs(rows) ** beta, axis=1)


def lbeta_clip(vector, beta: float, clip_norm: float) -> np.ndarray:
    """Project a vector onto the l_beta ball of radius ``clip_norm``:
    g / max(1, ||g||_beta / C)."""
    arr = np.atleast_1d(np.asarray(vector, dtype=np.float64))
    _check_clip(beta, clip_norm, arr, "vector")
    norm = float(kernels.lbeta_norms(arr.reshape(1, -1), beta)[0])
    return arr / max(1.0, norm / clip_norm)


def clip_rows(matrix: np.ndarray, beta: float, clip_norm: float) -> np.ndarray:
    """Row-wise `lbeta_clip` for per-example gradient matrices."""
    mat = np.ascontiguousarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise ParameterError("matrix must be 2-d (examples x parameters)")
    _check_clip(beta, clip_norm, mat, "matrix")
    norms = kernels.lbeta_norms(mat, beta)
    return mat * _clip_scale(norms, clip_norm)[:, None]


# ---------------------------------------------------------------------------
# Models with analytic per-example gradients
# ---------------------------------------------------------------------------


class LogisticModel:
    """Binary logistic regression; parameters are (weights, bias) flattened.

    Training needs ``init_params``, ``predict``, ``clipped_grad_sum`` and
    ``num_params``; ``per_example_grads`` is the reference the clipped sum is
    tested against.
    """

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.num_params = self.dim + 1

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        del rng  # deterministic start; the objective is convex
        return np.zeros(self.num_params)

    def _logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        return X @ params[:-1] + params[-1]

    def predict(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        return (self._logits(params, X) >= 0.0).astype(np.int64)

    def per_example_grads(self, params: np.ndarray, X: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
        z = self._logits(params, X)
        err = expit(z) - y
        return np.concatenate([err[:, None] * X, err[:, None]], axis=1)

    def clipped_grad_sum(self, params: np.ndarray, X: np.ndarray,
                         y: np.ndarray, beta: float,
                         clip_norm: float) -> np.ndarray:
        """``clip_rows(per_example_grads(params, X, y), beta, clip_norm)``
        summed over the rows, without the per-example matrix.

        Row i's gradient is ``err_i * (x_i, 1)``, so its l_beta norm is
        ``|err_i| * (||x_i||_beta**beta + 1)**(1/beta)``.
        """
        X = np.asarray(X, dtype=np.float64)
        _check_clip(beta, clip_norm, X, "X")
        err = expit(self._logits(params, X)) - y
        norms = np.abs(err) * (_power_sums(X, beta) + 1.0) ** (1.0 / beta)
        scaled = err * _clip_scale(norms, clip_norm)
        return np.append(X.T @ scaled, scaled.sum())


class MLPModel:
    """One hidden tanh layer (default width 32), logistic output.

    Gradients are exact per-example backprop, vectorized over the batch.
    Training needs ``init_params``, ``predict``, ``clipped_grad_sum`` and
    ``num_params``; ``per_example_grads`` is the reference the clipped sum is
    tested against.
    """

    def __init__(self, dim: int, width: int = 32):
        self.dim = int(dim)
        self.width = int(width)
        self.num_params = self.dim * self.width + self.width + self.width + 1

    def _unpack(self, params: np.ndarray):
        d, w = self.dim, self.width
        i = 0
        W1 = params[i:i + d * w].reshape(d, w); i += d * w
        b1 = params[i:i + w]; i += w
        w2 = params[i:i + w]; i += w
        b2 = params[i]
        return W1, b1, w2, b2

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        d, w = self.dim, self.width
        parts = [rng.normal(0.0, 1.0 / math.sqrt(d), d * w),
                 np.zeros(w), rng.normal(0.0, 1.0 / math.sqrt(w), w),
                 np.zeros(1)]
        return np.concatenate(parts)

    def _forward(self, params: np.ndarray, X: np.ndarray):
        W1, b1, w2, b2 = self._unpack(params)
        hidden = np.tanh(X @ W1 + b1)
        return hidden, hidden @ w2 + b2

    def _backward(self, params: np.ndarray, X: np.ndarray, y: np.ndarray):
        """Hidden activations (n, w), output errors (n,) and the errors
        back-propagated to the hidden pre-activations (n, w)."""
        _, _, w2, _ = self._unpack(params)
        hidden, z = self._forward(params, X)
        err = expit(z) - y
        back = (err[:, None] * w2[None, :]) * (1.0 - hidden ** 2)
        return hidden, err, back

    def predict(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        _, z = self._forward(params, X)
        return (z >= 0.0).astype(np.int64)

    def per_example_grads(self, params: np.ndarray, X: np.ndarray,
                          y: np.ndarray) -> np.ndarray:
        hidden, err, back = self._backward(params, X, y)
        g_W1 = X[:, :, None] * back[:, None, :]                # (n, d, w)
        n = X.shape[0]
        return np.concatenate([g_W1.reshape(n, -1), back,
                               err[:, None] * hidden, err[:, None]], axis=1)

    def clipped_grad_sum(self, params: np.ndarray, X: np.ndarray,
                         y: np.ndarray, beta: float,
                         clip_norm: float) -> np.ndarray:
        """``clip_rows(per_example_grads(params, X, y), beta, clip_norm)``
        summed over the rows, without the per-example gradients.

        Row i's gradient is ``[x_i back_i^T, back_i, err_i h_i, err_i]``,
        and ``||x b^T||_beta**beta = ||x||_beta**beta * ||b||_beta**beta``,
        so its norm comes from the layer inputs and errors alone.  With the
        clip factors ``s``, the sum is ``[X^T (s*back), sum s*back,
        h^T (s*err), sum s*err]``.
        """
        X = np.asarray(X, dtype=np.float64)
        _check_clip(beta, clip_norm, X, "X")
        hidden, err, back = self._backward(params, X, y)
        norms = ((_power_sums(X, beta) + 1.0) * _power_sums(back, beta)
                 + np.abs(err) ** beta * (_power_sums(hidden, beta) + 1.0)
                 ) ** (1.0 / beta)
        scale = _clip_scale(norms, clip_norm)
        back *= scale[:, None]
        err *= scale
        return np.concatenate([(X.T @ back).ravel(), back.sum(axis=0),
                               hidden.T @ err, [err.sum()]])


# ---------------------------------------------------------------------------
# Clipped noisy SGD
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Knobs for `train_noisy_sgd`.

    ``noise`` follows the package convention (per-unit-sensitivity scale);
    the vector actually added each step is GG(beta, sigma * clip_norm) per
    coordinate.  ``target_epsilon``/``target_delta`` arm the budget halt:
    training stops before the step that would exceed the target.
    ``ledger_bins`` sizes the ledger's grid.  ``ledger_samples`` changes no
    result: the ledger discretizes the exact loss CDF, and the value only
    lands in ``ledger.cfg.samples_n``.
    """

    clip_norm: float = 1.0
    noise: GGParams = field(default_factory=lambda: GGParams(2.0, math.sqrt(2.0)))
    batch_size: int = 64
    epochs: int = 5
    learning_rate: float = 0.5
    target_epsilon: float | None = None
    target_delta: float = 1e-5
    ledger_samples: int = 400_000
    ledger_bins: int = 2 ** 16


@dataclass
class TrainResult:
    params: np.ndarray
    history: list[dict]
    steps: int
    halted: bool
    epsilon: float | None
    delta: float | None


def _accuracy(model, params, X, y) -> float:
    return float(np.mean(model.predict(params, X) == y))


def train_noisy_sgd(model, train_data, cfg: TrainConfig,
                    rng: np.random.Generator, test_data=None) -> TrainResult:
    """Clipped-and-noised SGD with Poisson batches and a privacy halt.

    Each step Poisson-samples a batch at rate ``batch_size / n``, clips
    per-example gradients to the l_beta ball of radius ``clip_norm``, sums
    them, adds one GG noise vector, and scales by the *expected* batch size.
    An empty batch still takes a (noise-only) step.  Each step draws the
    batch mask from ``rng`` first, then the noise.

    ``model`` needs ``init_params``, ``predict``, ``clipped_grad_sum`` and
    ``num_params``.  The clipped sum is read from the batch's activations
    and back-propagated errors, so no per-example gradient tensor is built.

    When a target epsilon is set, the run accounts the noise it adds,
    ``MechanismSpec(GGParams(beta, sigma * clip_norm), clip_norm, q, 1)``,
    on a `CompositionLedger` whose grid has ``ledger_bins`` cells
    (``ledger_samples`` changes no result); the step budget is fixed up
    front from it and the loop halts there.  That ledger accounts the
    d-dimensional update as its one-hot shift in one dimension.  The
    reduction is exact at ``beta = 2``, where every shift of the same
    ``l_beta`` norm is alike, but no bound backs it at ``1 < beta < 2``:
    there, without subsampling, a shift split over two coordinates can give
    a larger epsilon than the one-hot shift (at ``beta = 1.5``, sigma 1,
    one step: epsilon(1e-5) = 3.151 against 3.121).  At ``beta = 1`` the
    two agreed to grid resolution in every case tried.  Accounting is
    refused at ``beta > 2``; unaccounted training accepts any shape.
    """
    X, y = train_data
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n = X.shape[0]
    if n < 1:
        raise ParameterError("training set is empty")
    if y.shape[:1] != (n,):
        raise ParameterError(f"training data has {n} rows but labels of "
                             f"shape {y.shape}")
    if not 1 <= cfg.batch_size <= n:
        raise ParameterError(
            f"batch_size must lie in [1, {n}], got {cfg.batch_size}")
    if cfg.epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {cfg.epochs}")
    _check_clip(cfg.noise.beta, cfg.clip_norm, X, "training features")
    q = cfg.batch_size / n
    steps_per_epoch = max(1, round(n / cfg.batch_size))
    planned = cfg.epochs * steps_per_epoch

    if cfg.target_epsilon is not None and cfg.noise.beta > 2.0:
        raise ParameterError(
            f"cannot account training with beta={cfg.noise.beta:g} > 2: the "
            "ledger reduces the d-dimensional l_beta-clipped update to its "
            "one-hot shift in one dimension, and above beta = 2 that "
            "dimension reduction is refused: shifts split over several "
            "coordinates give a far larger privacy loss")
    # Account the noise actually added: GG(beta, sigma * C) on a sum whose
    # sensitivity is C, i.e. ratio 1/sigma whatever the clip norm C.
    noise_params = GGParams(cfg.noise.beta, cfg.noise.sigma * cfg.clip_norm)
    spec = MechanismSpec(noise_params, cfg.clip_norm,
                         None if q == 1.0 else q, 1)
    ledger = None
    total = planned
    if cfg.target_epsilon is not None:
        ledger = CompositionLedger(spec, rng=None,
                                   k_cap=max(1, planned),
                                   samples_n=cfg.ledger_samples,
                                   bins=cfg.ledger_bins)
        total = min(planned, ledger.max_steps(cfg.target_epsilon,
                                              cfg.target_delta))

    params = model.init_params(rng)
    history: list[dict] = []
    steps = 0
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(steps_per_epoch):
            if steps >= total:
                break
            if q == 1.0:
                Xb, yb = X, y
            else:
                keep = rng.random(n) < q
                Xb, yb = X[keep], y[keep]
            if Xb.shape[0] > 0:
                gsum = model.clipped_grad_sum(params, Xb, yb, cfg.noise.beta,
                                              cfg.clip_norm)
            else:
                gsum = np.zeros(model.num_params)
            noise_vec = ggdist.sample(noise_params, rng, model.num_params)
            params = params - cfg.learning_rate * (gsum + noise_vec) / cfg.batch_size
            steps += 1
        record = {
            "epoch": epoch,
            "epsilon": (ledger.epsilon_at(steps, cfg.target_delta)
                        if ledger is not None and steps > 0 else None),
            "delta": cfg.target_delta if ledger is not None else None,
            "train_acc": _accuracy(model, params, X, y),
            "test_acc": (_accuracy(model, params, *test_data)
                         if test_data is not None else None),
        }
        history.append(record)
        if steps >= total:
            break

    return TrainResult(params=params, history=history, steps=steps,
                       halted=steps < planned,
                       epsilon=history[-1]["epsilon"] if history else None,
                       delta=cfg.target_delta if ledger is not None else None)


# ---------------------------------------------------------------------------
# Data helpers (synthetic blobs + CSV ingestion)
# ---------------------------------------------------------------------------


def make_blobs(count: int, dim: int, separation: float,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two unit-variance Gaussian clusters ``separation`` apart along the
    all-ones direction, balanced labels."""
    if count < 2 or dim < 1:
        raise ParameterError("need count >= 2 and dim >= 1")
    y = rng.integers(0, 2, size=count)
    direction = np.ones(dim) / math.sqrt(dim)
    centers = (y[:, None] - 0.5) * separation * direction[None, :]
    X = centers + rng.normal(0.0, 1.0, size=(count, dim))
    return X, y.astype(np.int64)


def load_dataset_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset CSV: float feature columns, final integer label column.

    Raises `IngestionError` naming the offending row on any schema violation.
    """
    features: list[list[float]] = []
    labels: list[int] = []
    width = None
    with open(path, newline="") as fh:
        for row_num, row in enumerate(csv.reader(fh), start=1):
            if not row or (row_num == 1 and any(not _is_number(c) for c in row)):
                continue  # blank line or header
            if width is None:
                width = len(row)
            if len(row) != width or width < 2:
                raise IngestionError(
                    f"row {row_num}: expected {width or 2}+ comma-separated "
                    f"columns, got {len(row)}")
            try:
                features.append([float(c) for c in row[:-1]])
            except ValueError as exc:
                raise IngestionError(f"row {row_num}: non-numeric feature "
                                     f"({exc})") from exc
            label_text = row[-1].strip()
            try:
                label_f = float(label_text)
            except ValueError as exc:
                raise IngestionError(f"row {row_num}: non-numeric label "
                                     f"{label_text!r}") from exc
            if label_f != int(label_f):
                raise IngestionError(f"row {row_num}: label {label_text!r} "
                                     "is not an integer")
            labels.append(int(label_f))
    if not features:
        raise IngestionError("row 1: file contains no data rows")
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
