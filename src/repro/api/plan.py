"""FeaturePlan: the portable artifact a feature search produces.

The search→production handoff used to be a loose pile — an
:class:`~repro.core.engine.AFEResult` for scores, a bare list of
expression names for inference, ``save_fpe`` for the filter model.
:class:`FeaturePlan` bundles everything deployment needs into one
versioned JSON document:

* the selected feature expressions (canonical names, compiled once
  into expression trees);
* the input schema (raw column names, so plain numpy matrices map
  positionally);
* the operator-registry fingerprint (a plan refuses to evaluate under
  a different operator set than it was searched with);
* the FPE identity and run provenance (dataset, method, config hash,
  base/best scores, library version) — enough to answer "where did
  this artifact come from" in production.

An *empty* selection is a legitimate plan: the search found no
improvement, and :meth:`transform` is the identity on the raw columns.

Bit-identity contract: ``FeaturePlan.load(path).transform(X)`` in any
process equals the producing process's ``transform(X)`` bit for bit —
evaluation is deterministic numpy over a JSON round-trip that is exact
for floats.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..core.engine import AFEResult
from ..frame.frame import Frame
from ..operators.expression import Expression, parse_expression
from ..operators.registry import (
    OperatorRegistry,
    default_registry,
    registry_fingerprint,
)

__all__ = [
    "CompiledTransform",
    "FeaturePlan",
    "PLAN_FORMAT_VERSION",
    "fpe_identity",
    "plan_fingerprint",
]

PLAN_FORMAT_VERSION = 1


def plan_fingerprint(payload: dict) -> str:
    """Stable content fingerprint of a plan document.

    Covers exactly what :meth:`FeaturePlan.transform` computes — the
    expression list, the input schema, and the operator-registry id —
    and deliberately *excludes* FPE identity and provenance, so two
    runs (different seeds, different datasets renamed the same way)
    that selected the same feature set share one fingerprint.  This is
    the address serving artifacts are keyed by (DIFER-style reuse:
    identical content, not identical filename).
    """
    content = {
        "format_version": payload.get("format_version", PLAN_FORMAT_VERSION),
        "registry_id": payload["registry_id"],
        "feature_names": list(payload["feature_names"]),
        "input_columns": list(payload["input_columns"]),
    }
    serialized = json.dumps(content, sort_keys=True)
    digest = hashlib.blake2b(serialized.encode(), digest_size=16).hexdigest()
    return f"plan-v1:{digest}"


class CompiledTransform:
    """The parse-once evaluation handle behind :meth:`FeaturePlan.transform`.

    Holds the plan's expression trees (parsed exactly once, at plan
    construction) and evaluates them as vectorized numpy computations
    against a schema-checked :class:`~repro.frame.Frame`.  Serving
    layers (:class:`repro.serve.TransformService`) hold on to this
    handle so repeated requests against one plan never re-parse; it is
    stateless and safe to share across threads.
    """

    __slots__ = ("feature_names", "input_columns", "_expressions")

    def __init__(
        self,
        feature_names: list[str],
        input_columns: list[str],
        expressions: list[Expression],
    ) -> None:
        self.feature_names = feature_names
        self.input_columns = input_columns
        self._expressions = expressions

    @property
    def is_identity(self) -> bool:
        return not self.feature_names

    def __call__(self, frame: Frame) -> np.ndarray:
        """Evaluate every expression against ``frame`` as one matrix.

        The frame must already satisfy the plan's schema (the plan's
        ``_coerce`` guarantees it); no per-request validation happens
        here — this is the hot serving path.
        """
        if self.is_identity:
            return frame.select(self.input_columns).to_array()
        out = np.empty(
            (frame.n_rows, len(self._expressions)), dtype=np.float64
        )
        for j, expression in enumerate(self._expressions):
            out[:, j] = expression.evaluate(frame)
        return out


def fpe_identity(fpe) -> dict | None:
    """Constructor identity of an FPE model (``None`` for no model).

    The same four fields the bench run store folds into cell hashes:
    hash family, signature dimension, seed, labelling threshold.
    """
    if fpe is None:
        return None
    return {
        "method": fpe.method,
        "d": int(fpe.d),
        "seed": int(fpe.seed),
        "thre": float(fpe.thre),
    }


class FeaturePlan:
    """A compiled, versioned, portable engineered-feature pipeline.

    Parameters
    ----------
    feature_names:
        Canonical expression names (typically
        ``AFEResult.selected_features``).  May be empty — the identity
        plan.
    input_columns:
        Raw column names of the training frame, in order.  This is the
        input schema: a numpy matrix handed to :meth:`transform` is
        interpreted positionally against these names.
    registry:
        Operator registry the expressions were searched with; defaults
        to the paper's nine operators.
    fpe:
        Identity dict (see :func:`fpe_identity`) of the FPE model that
        filtered the search, or ``None``.
    provenance:
        Free-form provenance mapping (dataset, method, scores, config
        hash, library version, ...).
    """

    def __init__(
        self,
        feature_names: list[str],
        input_columns: list[str],
        registry: OperatorRegistry | None = None,
        fpe: dict | None = None,
        provenance: dict | None = None,
    ) -> None:
        self.registry = registry or default_registry()
        self.registry_id = registry_fingerprint(self.registry)
        self.feature_names = [str(name) for name in feature_names]
        self.input_columns = [str(name) for name in input_columns]
        self.fpe = dict(fpe) if fpe else None
        self.provenance = dict(provenance or {})
        # Expressions are parsed exactly once, here; every transform —
        # in-process, via a serving session, over HTTP — reuses the
        # same compiled handle.
        self._compiled = CompiledTransform(
            self.feature_names,
            self.input_columns,
            [
                parse_expression(name, self.registry)
                for name in self.feature_names
            ],
        )
        missing = self.required_columns - set(self.input_columns)
        if missing:
            raise ValueError(
                f"plan expressions reference columns {sorted(missing)!r} "
                "absent from input_columns"
            )

    # -- construction ------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        result: AFEResult,
        input_columns: list[str],
        registry: OperatorRegistry | None = None,
        fpe=None,
        config=None,
    ) -> "FeaturePlan":
        """Build the deployable plan of a finished AFE run.

        ``input_columns`` must be the *full* raw schema of the training
        data (the engine's agent pre-filter may have searched a column
        subset, but production frames carry every original column).
        ``fpe`` may be an :class:`~repro.core.fpe.FPEModel` or an
        identity dict; ``config`` (an ``EngineConfig``) contributes its
        content hash to provenance.
        """
        from .. import __version__
        from ..store.runs import config_hash

        identity = fpe if isinstance(fpe, dict) or fpe is None else fpe_identity(fpe)
        provenance = {
            "dataset": result.dataset,
            "method": result.method,
            "task": result.task,
            "base_score": result.base_score,
            "best_score": result.best_score,
            "created_by": f"repro {__version__}",
        }
        if config is not None:
            provenance["config_hash"] = config_hash(config)
        return cls(
            feature_names=list(result.selected_features),
            input_columns=list(input_columns),
            registry=registry,
            fpe=identity,
            provenance=provenance,
        )

    # -- introspection -----------------------------------------------------
    @property
    def n_features(self) -> int:
        """Number of output features (input width for identity plans)."""
        if self.is_identity:
            return len(self.input_columns)
        return len(self.feature_names)

    @property
    def is_identity(self) -> bool:
        """True when the search selected nothing: transform is X → X."""
        return not self.feature_names

    @property
    def required_columns(self) -> set[str]:
        """Raw columns the plan's expressions need at inference time."""
        out: set[str] = set()
        for expression in self._compiled._expressions:
            out |= expression.columns()
        return out

    @property
    def fingerprint(self) -> str:
        """Content address of this plan (see :func:`plan_fingerprint`)."""
        return plan_fingerprint(self.to_dict())

    @property
    def compiled(self) -> CompiledTransform:
        """The parse-once :class:`CompiledTransform` evaluation handle."""
        return self._compiled

    def diff(self, other: "FeaturePlan") -> dict:
        """Expression-level comparison against another plan.

        Returns a dict with ``shared`` (expressions in both, in this
        plan's order), ``only_left`` (only in ``self``), ``only_right``
        (only in ``other``), plus ``same_schema`` / ``same_registry``
        flags.  The intended use is comparing seeds of one method: how
        stable is the selected feature set across search randomness?
        """
        left, right = self.feature_names, other.feature_names
        left_set, right_set = set(left), set(right)
        return {
            "shared": [name for name in left if name in right_set],
            "only_left": [name for name in left if name not in right_set],
            "only_right": [name for name in right if name not in left_set],
            "same_schema": self.input_columns == other.input_columns,
            "same_registry": self.registry_id == other.registry_id,
        }

    @property
    def output_columns(self) -> list[str]:
        """Names of the columns :meth:`transform` produces, in order."""
        if self.is_identity:
            return list(self.input_columns)
        return list(self.feature_names)

    # -- inference ---------------------------------------------------------
    def _coerce(self, X) -> Frame:
        if isinstance(X, Frame):
            needed = (
                set(self.input_columns) if self.is_identity
                else self.required_columns
            )
            missing = needed - set(X.columns)
            if missing:
                raise KeyError(
                    f"input frame is missing columns {sorted(missing)!r}"
                )
            return X
        matrix = np.asarray(X, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.input_columns):
            raise ValueError(
                f"expected a 2-D matrix with {len(self.input_columns)} "
                f"columns ({self.input_columns}), got shape {matrix.shape}"
            )
        return Frame(matrix, columns=self.input_columns)

    def transform(self, X) -> np.ndarray:
        """Materialize every planned feature as one dense float64 matrix.

        ``X`` may be a :class:`~repro.frame.Frame` (matched by column
        name) or a numpy matrix (matched positionally against
        ``input_columns``).  Each compiled expression evaluates as one
        vectorized numpy computation over all rows.  Identity plans
        return the input columns unchanged.
        """
        return self._compiled(self._coerce(X))

    def transform_frame(self, X) -> Frame:
        """Like :meth:`transform`, returning a column-labelled Frame."""
        return Frame(self.transform(X), columns=self.output_columns)

    # -- persistence -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable document (the on-disk artifact)."""
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "registry_id": self.registry_id,
            "feature_names": list(self.feature_names),
            "input_columns": list(self.input_columns),
            "fpe": dict(self.fpe) if self.fpe else None,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(
        cls, payload: dict, registry: OperatorRegistry | None = None
    ) -> "FeaturePlan":
        """Rebuild a plan from :meth:`to_dict` output.

        The stored operator-registry fingerprint must match the one the
        plan is being loaded against; a plan searched with custom
        operators must be loaded with that same registry.
        """
        version = payload.get("format_version")
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported FeaturePlan format version {version!r}")
        registry = registry or default_registry()
        stored_id = payload.get("registry_id")
        current_id = registry_fingerprint(registry)
        if stored_id != current_id:
            raise ValueError(
                f"operator-registry mismatch: plan was built with "
                f"{stored_id!r}, loading against {current_id!r}; pass the "
                "registry the plan was searched with"
            )
        return cls(
            feature_names=list(payload["feature_names"]),
            input_columns=list(payload["input_columns"]),
            registry=registry,
            fpe=payload.get("fpe"),
            provenance=payload.get("provenance"),
        )

    def save(self, path: str | Path) -> None:
        """Write the plan as a portable JSON artifact."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2), encoding="utf-8"
        )

    @classmethod
    def load(
        cls, path: str | Path, registry: OperatorRegistry | None = None
    ) -> "FeaturePlan":
        """Load a plan saved by :meth:`save`."""
        return cls.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8")),
            registry=registry,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeaturePlan):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        label = "identity" if self.is_identity else f"{len(self.feature_names)} features"
        origin = self.provenance.get("dataset")
        suffix = f", dataset={origin!r}" if origin else ""
        return f"FeaturePlan({label}, {len(self.input_columns)} inputs{suffix})"
