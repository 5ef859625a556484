"""Estimator protocol and shared validation helpers.

Mirrors the tiny slice of the sklearn estimator contract that the rest of
the library relies on: ``fit(X, y)`` returning ``self``, ``predict(X)``,
``get_params()``/``clone`` for cross-validation, and input validation
that rejects the malformed matrices feature generation can produce
(NaN/inf from division, shape mismatches).
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "Estimator",
    "BaseEstimator",
    "clone",
    "check_matrix",
    "check_X_y",
    "sanitize_matrix",
]


@runtime_checkable
class Estimator(Protocol):
    """Anything with the fit/predict contract."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


class BaseEstimator:
    """Parameter introspection shared by all estimators.

    Subclasses must accept all hyperparameters as keyword arguments in
    ``__init__`` and store them under the same attribute names — this is
    what makes :func:`clone` work without per-class code.
    """

    def get_params(self) -> dict[str, Any]:
        """Hyperparameters as passed to ``__init__``."""
        signature = inspect.signature(type(self).__init__)
        names = [
            p.name
            for p in signature.parameters.values()
            if p.name != "self" and p.kind != p.VAR_KEYWORD
        ]
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Update hyperparameters in place; unknown names raise ValueError."""
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}"
                )
            setattr(self, name, value)
        return self

    def fit_folds(self, X: np.ndarray, y: np.ndarray, folds) -> list:
        """One fitted clone per ``(train, test)`` fold, in fold order.

        :func:`~repro.ml.model_selection.cross_val_score` fits through
        this hook; an estimator that can fit several training sets at
        once (the forests) overrides it.
        """
        return [clone(self).fit(X[train], y[train]) for train, _ in folds]

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def clone(estimator: BaseEstimator) -> BaseEstimator:
    """Fresh unfitted copy with the same hyperparameters."""
    params = {k: copy.deepcopy(v) for k, v in estimator.get_params().items()}
    return type(estimator)(**params)


def check_matrix(X: Any, allow_nonfinite: bool = False) -> np.ndarray:
    """Coerce ``X`` to a 2-D float64 matrix, validating finiteness."""
    matrix = np.asarray(X, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D input, got ndim={matrix.ndim}")
    if matrix.shape[0] == 0:
        raise ValueError("empty input matrix (0 rows)")
    if not allow_nonfinite and not np.isfinite(matrix).all():
        raise ValueError(
            "input contains NaN or inf; run sanitize_matrix() or the "
            "preprocessing imputer first"
        )
    return matrix


def check_X_y(
    X: Any, y: Any, allow_nonfinite: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix and its aligned target vector."""
    matrix = check_matrix(X, allow_nonfinite=allow_nonfinite)
    target = np.asarray(y, dtype=np.float64).reshape(-1)
    if target.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"X has {matrix.shape[0]} rows but y has {target.shape[0]}"
        )
    if not np.isfinite(target).all():
        raise ValueError("target contains NaN or inf")
    return matrix, target


def sanitize_matrix(X: np.ndarray, fill: float = 0.0, clip: float = 1e12) -> np.ndarray:
    """Replace NaN/inf and clip extreme magnitudes.

    Generated features routinely contain NaN (0/0), inf (division by ~0)
    and astronomically large values (repeated multiplication).  Downstream
    models must never crash on them, so every engine funnels candidate
    features through this function before evaluation.
    """
    out = np.array(X, dtype=np.float64, copy=True)
    out[~np.isfinite(out)] = fill
    np.clip(out, -clip, clip, out=out)
    return out
