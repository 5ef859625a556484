"""Consistent Weighted Sampling: ICWS, CCWS, PCWS and 0-bit (LICWS).

These are the weighted-MinHash families the paper ablates as
E-AFE_I / E-AFE (CCWS, the default) / E-AFE_P / E-AFE_L in Table III:

* **ICWS** — Ioffe, "Improved Consistent Sampling, Weighted Minhash and
  L1 Sketching", ICDM 2010.  The reference algorithm: per (slot, element)
  draw ``r, c ~ Gamma(2, 1)`` and ``beta ~ U(0, 1)``, then

      t      = floor(ln(w) / r + beta)
      ln(y)  = r * (t - beta)
      ln(a)  = ln(c) - ln(y) - r

  and keep the element minimizing ``a``.  Pr[slot collides] equals the
  generalized Jaccard similarity sum(min) / sum(max).

* **CCWS** — Wu et al., "Canonical Consistent Weighted Sampling for
  Real-Value Weighted Min-Hash", ICDM 2016.  Works on the raw weight
  instead of its logarithm (uniform discretization of the weight axis),
  trading a little bias for better numerical behaviour on small weights.

* **PCWS** — Wu et al., "Consistent Weighted Sampling Made More
  Practical", WWW 2017.  Replaces one Gamma variable of ICWS with a
  uniform, saving memory/time while keeping the ICWS estimator form.

* **LICWS (0-bit)** — Li, "0-bit Consistent Weighted Sampling", KDD
  2015.  Runs ICWS but keeps only the selected element id, dropping the
  discretized quantile ``t``: cheaper signatures whose element-collision
  rate still tracks generalized Jaccard.

All samplers expose the same interface: ``signature(weights)`` returns
``(elements, quantiles)`` and ``compress(weights)`` returns a
classifier-ready float vector of the selected elements' weights.

Each sampler instance caches the random fields of the last column length
it hashed, together with the log term its ``_score`` needs, so a run of
same-length columns draws them once; the cache is derived state and is
dropped by ``copy.deepcopy`` and ``pickle``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ICWS",
    "CCWS",
    "PCWS",
    "LICWS",
    "generalized_jaccard",
    "cws_collision_similarity",
    "make_sampler",
    "SAMPLER_NAMES",
]

_LOG_FLOOR = 1e-12  # weights below this are treated as absent


def generalized_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Generalized Jaccard similarity of two non-negative vectors."""
    left = np.asarray(a, dtype=np.float64).reshape(-1)
    right = np.asarray(b, dtype=np.float64).reshape(-1)
    if left.shape != right.shape:
        raise ValueError("vectors must have identical length")
    if not (np.isfinite(left).all() and np.isfinite(right).all()):
        raise ValueError("generalized Jaccard requires finite weights")
    if (left < 0).any() or (right < 0).any():
        raise ValueError("generalized Jaccard requires non-negative weights")
    denominator = float(np.maximum(left, right).sum())
    if denominator == 0.0:
        return 1.0
    return float(np.minimum(left, right).sum()) / denominator


def cws_collision_similarity(
    sig_a: tuple[np.ndarray, np.ndarray], sig_b: tuple[np.ndarray, np.ndarray]
) -> float:
    """CWS similarity estimate: fraction of (element, quantile) collisions."""
    elements_a, quantiles_a = sig_a
    elements_b, quantiles_b = sig_b
    if elements_a.shape != elements_b.shape:
        raise ValueError("signatures must have identical length")
    hits = (elements_a == elements_b) & (quantiles_a == quantiles_b)
    return float(np.mean(hits))


class _BaseCWS:
    """Shared RNG setup and the public signature/compress interface."""

    #: set by subclasses; used by make_sampler and reprs
    name = "cws"
    #: one slot: ``(n, r, log_term, beta)`` for the last column length
    #: hashed; derived from ``(seed, d)``, so never pickled
    _fields: tuple | None = None

    def __init__(self, d: int = 48, seed: int = 0) -> None:
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise ValueError(f"signature dimension d must be an integer, got {d!r}")
        if d < 1:
            raise ValueError("signature dimension d must be positive")
        self.d = d
        self.seed = seed

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_fields", None)
        return state

    def _random_fields(
        self, n_elements: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per (slot, element) random variates, deterministic in the seed.

        Consistency across calls matters: the same (seed, d, n) must give
        the same fields, otherwise signatures of two columns from the
        same dataset would not be comparable.
        """
        rng = np.random.default_rng(self.seed)
        r = rng.gamma(2.0, 1.0, size=(self.d, n_elements))
        c = rng.gamma(2.0, 1.0, size=(self.d, n_elements))
        beta = rng.uniform(0.0, 1.0, size=(self.d, n_elements))
        return r, c, beta

    def _fields_for(
        self, n_elements: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(r, log_term, beta)`` for ``n_elements``, drawn once per length.

        The slot is read once and replaced whole, so a caller never mixes
        two lengths' fields; two threads racing on it at worst both draw.
        """
        fields = self._fields
        if fields is None or fields[0] != n_elements:
            self._fields = None  # release the old length before drawing
            r, c, beta = self._random_fields(n_elements)
            fields = (n_elements, r, self._log_term(c), beta)
            for array in fields[1:]:
                array.flags.writeable = False
            self._fields = fields
        return fields[1:]

    # -- subclass hooks --------------------------------------------------
    @staticmethod
    def _log_term(c: np.ndarray) -> np.ndarray:
        """The field-only log term of ``ln_a``, computed once per length."""
        return np.log(c)

    def _score(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        log_term: np.ndarray,
        beta: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ln_a, t)`` with shape (d, n); smaller ln_a wins."""
        raise NotImplementedError

    # -- public API --------------------------------------------------------
    @staticmethod
    def _sanitize(weights: np.ndarray) -> np.ndarray:
        """Flat float64 weights with NaN and +-inf mapped to 0."""
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        return np.nan_to_num(w, posinf=0.0, neginf=0.0)

    def signature(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(elements, quantiles)`` — argmin element and its t per slot."""
        return self._signature(self._sanitize(weights))

    def _signature(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if (w < 0).any():
            raise ValueError("CWS requires non-negative weights")
        n = w.shape[0]
        if n == 0:
            raise ValueError("cannot hash an empty weight vector")
        active = w > _LOG_FLOOR
        if not active.any():
            # Degenerate all-zero column: a fixed, well-defined signature.
            return (np.zeros(self.d, dtype=np.int64),
                    np.zeros(self.d, dtype=np.int64))
        r, log_term, beta = self._fields_for(n)
        ln_a, t = self._score(np.maximum(w, _LOG_FLOOR), r, log_term, beta)
        ln_a = np.where(active[None, :], ln_a, np.inf)
        elements = np.argmin(ln_a, axis=1)
        quantiles = t[np.arange(self.d), elements].astype(np.int64)
        return elements.astype(np.int64), quantiles

    def compress(self, weights: np.ndarray) -> np.ndarray:
        """Classifier-ready float signature: selected elements' weights.

        This is the fixed-size "approximate hashing feature" H of the
        paper's Equation 4: ``d`` representative sample values chosen
        consistently, so similar columns produce similar vectors.
        """
        w = self._sanitize(weights)
        elements, _ = self._signature(w)
        return w[elements]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(d={self.d}, seed={self.seed})"


class ICWS(_BaseCWS):
    """Ioffe's improved consistent weighted sampling (reference method)."""

    name = "icws"

    def _score(self, weights, r, log_c, beta):
        ln_w = np.log(weights)[None, :]
        t = np.floor(ln_w / r + beta)
        ln_y = r * (t - beta)
        ln_a = log_c - ln_y - r
        return ln_a, t


class PCWS(_BaseCWS):
    """Practical CWS: one uniform replaces a Gamma draw of ICWS."""

    name = "pcws"

    def _random_fields(self, n_elements):
        rng = np.random.default_rng(self.seed)
        r = rng.gamma(2.0, 1.0, size=(self.d, n_elements))
        # The second Gamma(2,1) of ICWS is replaced by -ln(u1 * u2) with
        # one uniform re-used, cutting one full random field.
        u = rng.uniform(_LOG_FLOOR, 1.0, size=(self.d, n_elements))
        beta = rng.uniform(0.0, 1.0, size=(self.d, n_elements))
        return r, u, beta

    @staticmethod
    def _log_term(u):
        return np.log(-np.log(u))

    def _score(self, weights, r, log_neg_log_u, beta):
        ln_w = np.log(weights)[None, :]
        t = np.floor(ln_w / r + beta)
        ln_y = r * (t - beta)
        ln_a = log_neg_log_u - ln_y - r
        return ln_a, t


class CCWS(_BaseCWS):
    """Canonical CWS: uniform discretization of the raw weight axis."""

    name = "ccws"

    def _score(self, weights, r, log_c, beta):
        w = weights[None, :]
        t = np.floor(w / r + beta)
        y = r * (t - beta)
        # Canonical form scores on the weight axis directly.
        ln_a = log_c - np.log(np.maximum(y + r, _LOG_FLOOR))
        return ln_a, t


class LICWS(_BaseCWS):
    """0-bit CWS (Li, KDD 2015): ICWS keeping only the element id."""

    name = "licws"

    def _score(self, weights, r, log_c, beta):
        ln_w = np.log(weights)[None, :]
        t = np.floor(ln_w / r + beta)
        ln_y = r * (t - beta)
        ln_a = log_c - ln_y - r
        # 0-bit: the quantile is dropped from the signature.
        return ln_a, np.zeros_like(t)


SAMPLER_NAMES = ("icws", "ccws", "pcws", "licws")


def make_sampler(name: str, d: int = 48, seed: int = 0) -> _BaseCWS:
    """Factory over the CWS family by paper variant name."""
    samplers = {"icws": ICWS, "ccws": CCWS, "pcws": PCWS, "licws": LICWS}
    try:
        return samplers[name.lower()](d=d, seed=seed)
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; expected one of {SAMPLER_NAMES}"
        ) from None
