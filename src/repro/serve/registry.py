"""PlanRegistry: the versioned store serving pulls plans from.

A search produces :class:`~repro.api.plan.FeaturePlan` artifacts; a
serving fleet needs to *address* them.  Files on disk answer "which
bytes", not "which plan" — no versioning, no dedup, no provenance of
what is actually deployed.  :class:`PlanRegistry` is the hand-off
point between the two worlds:

* plans are **published** under a name and get a monotonically
  increasing integer version (``credit/E-AFE@1``, ``@2``, ...);
* every stored document is also addressed by its **content
  fingerprint** (:func:`~repro.api.plan.plan_fingerprint` — the
  expression list + input schema + operator-registry id), so two runs
  that selected the same feature set share one artifact: re-publishing
  identical content is an idempotent no-op, while publishing
  *different* content to an existing version is refused;
* loads re-validate: the fingerprint recorded at publish time must
  match the document (a hand-edited artifact refuses to serve —
  :class:`PlanIntegrityError`) and the document's operator-registry id
  must match the registry the plan is compiled against — exactly the
  :meth:`FeaturePlan.load` contract.

Storage is one directory tree: one pure plan JSON per version under
``<root>/<name>/<version>.plan.json`` (each file remains directly
loadable with ``FeaturePlan.load``) plus a ``<version>.plan.meta``
sidecar carrying publish metadata.  Both files land via atomic
filesystem operations (a per-writer temp file + ``link``/``replace``),
so a server resolving bare names *while* a publisher writes never sees
a torn document, and processes racing on one version cannot silently
overwrite each other: exactly one wins, and a loser either returns the
winner's record (identical content) or is refused.

Metadata queries (version listing, fingerprints, ``/plans``) never
parse plan documents — only :meth:`PlanRegistry.get` does, once per
compile.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from ..api.plan import FeaturePlan, plan_fingerprint
from ..chaos import maybe_fault
from ..operators.registry import (
    OperatorRegistry,
    default_registry,
    registry_fingerprint,
)

__all__ = [
    "PlanIntegrityError",
    "PlanNotFound",
    "PlanRecord",
    "PlanRegistry",
    "plan_name_of_path",
]

#: Plan names are path-ish identifiers: slash-separated segments of
#: word characters, dots, and dashes.  No empty segments, no leading
#: dots (so a name can never walk out of the registry root).
_NAME_PATTERN = re.compile(
    r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*(/[A-Za-z0-9_][A-Za-z0-9_.\-]*)*$"
)


class PlanNotFound(KeyError):
    """A serving reference names no published plan.

    Distinct from :class:`KeyError` so transport layers can map
    "unknown plan" (HTTP 404) apart from malformed requests (400)
    without sniffing messages.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else "plan not found"


class PlanIntegrityError(ValueError):
    """A stored plan fails validation (tampered bytes, foreign registry).

    This is *server-side* data corruption, not a malformed request —
    transport layers should map it to a 5xx, not a 4xx.
    """


def plan_name_of_path(path: str | Path) -> str:
    """Default registry/serving name of a plan file: its bare stem.

    Strips the conventional ``.plan.json`` suffixes, so the CLI's
    ``--plan features.plan.json`` and
    :meth:`PlanRegistry.publish_file` agree on one name.
    """
    name = Path(path).name
    for suffix in (".json", ".plan"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name


@dataclass(frozen=True)
class PlanRecord:
    """One published plan version (metadata only, no document)."""

    name: str
    version: int
    fingerprint: str
    registry_id: str
    n_features: int
    created_at: float

    @property
    def ref(self) -> str:
        """The canonical ``name@version`` serving reference."""
        return f"{self.name}@{self.version}"


def _document_meta(document: dict, created_at: float) -> dict:
    """Sidecar fields of a plan document: a :class:`PlanRecord` sans address."""
    names = document.get("feature_names") or []
    return {
        "fingerprint": plan_fingerprint(document),
        "registry_id": document["registry_id"],
        "n_features": len(names) if names else len(document["input_columns"]),
        "created_at": created_at,
    }


def _write_temp(target: Path, text: str) -> Path:
    """Write ``text`` to a temp file next to ``target``, unique per writer.

    Every writer gets its own name, so a concurrent publisher can never
    overwrite (or delete) the temp file another one is about to link.
    """
    temp = target.with_name(f"{target.name}.{uuid.uuid4().hex}.tmp")
    with open(temp, "x", encoding="utf-8") as handle:
        handle.write(text)
    return temp


class PlanRegistry:
    """Versioned, fingerprint-addressed store of feature plans.

    Parameters
    ----------
    path:
        Directory root of the registry; created when missing.  A path
        that exists but is not a directory is refused.
    operator_registry:
        The :class:`~repro.operators.registry.OperatorRegistry` plans
        are validated and compiled against; defaults to the paper's
        nine operators.  Publishing or loading a plan built under a
        different operator set raises, exactly like
        :meth:`FeaturePlan.load`.

    Publishing is idempotent on content: re-publishing a document whose
    fingerprint already exists under the name returns the existing
    record instead of minting a new version.  Concurrent publishers in
    one process are serialized by a lock; across processes, the
    exclusive ``link`` of each version file turns a same-version race
    into the winner's record (identical content) or an error, never a
    silent overwrite.
    """

    def __init__(
        self,
        path: str | Path,
        operator_registry: OperatorRegistry | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.root = Path(path)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(
                f"plan registry path {self.path!r} exists and is not a "
                "directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.operator_registry = operator_registry or default_registry()
        self.operator_registry_id = registry_fingerprint(self.operator_registry)
        self._lock = threading.RLock()

    # -- storage -----------------------------------------------------------
    def _document_path(self, name: str, version: int) -> Path:
        return self.root / name / f"{version}.plan.json"

    def _versions(self, name: str) -> list[int]:
        directory = self.root / name
        if not directory.is_dir():
            return []
        out = []
        for path in directory.glob("*.plan.json"):
            stem = path.name[: -len(".plan.json")]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def _document(self, name: str, version: int) -> dict | None:
        path = self._document_path(name, version)
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def _sidecar(self, name: str, version: int) -> dict | None:
        """Publish metadata (``None`` for hand-dropped plan files)."""
        path = self._document_path(name, version).with_suffix(".meta")
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    def _put(
        self, name: str, version: int, document: dict, created_at: float
    ) -> None:
        """Atomically write one version; refuses an existing one.

        The document lands via a per-writer temp file + ``os.link`` —
        readers resolving the latest version mid-publish see either
        nothing or the complete file, never a torn JSON, and only the
        first of several processes racing on one version links; the
        others get ``FileExistsError`` and write no sidecar.
        """
        path = self._document_path(name, version)
        path.parent.mkdir(parents=True, exist_ok=True)
        document_temp = _write_temp(path, json.dumps(document, indent=2))
        try:
            os.link(document_temp, path)
        finally:
            document_temp.unlink()
        # Sidecar lands after the document (atomic replace): a reader
        # in the gap treats the plan as hand-dropped (no tamper check)
        # rather than missing.
        meta_path = path.with_suffix(".meta")
        meta_temp = _write_temp(
            meta_path, json.dumps(_document_meta(document, created_at))
        )
        os.replace(meta_temp, meta_path)

    # -- publishing --------------------------------------------------------
    def _validate_name(self, name: str) -> str:
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid plan name {name!r}: use slash-separated segments "
                "of letters, digits, '.', '_', '-'"
            )
        return name

    def _as_document(self, plan: FeaturePlan | dict) -> dict:
        if isinstance(plan, FeaturePlan):
            document = plan.to_dict()
        else:
            document = dict(plan)
        # Compiling through from_dict is the whole validation story:
        # format version, operator-registry fingerprint, parseable
        # expressions, schema-covered columns.
        FeaturePlan.from_dict(document, registry=self.operator_registry)
        return document

    def publish(
        self,
        plan: FeaturePlan | dict,
        name: str,
        version: int | None = None,
    ) -> PlanRecord:
        """Store a plan under ``name``; returns its :class:`PlanRecord`.

        With ``version=None`` (the default) the next free version is
        allocated — unless some existing version of ``name`` already
        holds a document with the same content fingerprint, in which
        case that record is returned and nothing is written.  An
        explicit ``version`` that already exists is only accepted when
        the fingerprints match (idempotent re-publish); differing
        content is refused.  The same holds when another process
        publishes the version first: identical content returns its
        record, differing content raises ``ValueError``.
        """
        self._validate_name(name)
        document = self._as_document(plan)
        fingerprint = plan_fingerprint(document)
        with self._lock:
            versions = self._versions(name)
            if version is None:
                for existing in versions:
                    record = self.record(name, existing)
                    if record.fingerprint == fingerprint:
                        return record
                version = (versions[-1] + 1) if versions else 1
            elif version in versions:
                record = self.record(name, version)
                if record.fingerprint == fingerprint:
                    return record
                raise ValueError(
                    f"refusing fingerprint-mismatched publish: "
                    f"{name}@{version} already holds "
                    f"{record.fingerprint}, got {fingerprint}"
                )
            version = int(version)
            try:
                self._put(name, version, document, time.time())
            except FileExistsError as error:
                # Lost a cross-process race for this version number.
                record = self.record(name, version)
                if record.fingerprint == fingerprint:
                    return record
                raise ValueError(
                    f"{name}@{version} was published concurrently by "
                    "another process; retry to allocate a fresh version"
                ) from error
            return self.record(name, version)

    def publish_file(
        self,
        path: str | Path,
        name: str | None = None,
        version: int | None = None,
    ) -> PlanRecord:
        """Publish a plan JSON file; the name defaults to the file stem."""
        path = Path(path)
        if name is None:
            name = plan_name_of_path(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        return self.publish(document, name, version=version)

    def publish_runs(
        self,
        runs,
        dataset: str | None = None,
        method: str | None = None,
        seed: int | None = None,
        prefix: str | None = None,
    ) -> list[PlanRecord]:
        """Ingest plans straight out of a bench run store.

        ``runs`` is a :class:`~repro.store.runs.RunStore` or a path to
        one.  Every completed cell carrying a feature-plan artifact
        (optionally filtered by dataset/method/seed) is published under
        ``[<prefix>/]<dataset>/<method>``; seeds of one method land as
        successive versions of the same name, and content-identical
        plans dedup to one version.
        """
        from ..store.runs import RunStore

        if not isinstance(runs, RunStore):
            runs = RunStore(os.fspath(runs))
        out = []
        for record, document in runs.plans(
            dataset=dataset, method=method, seed=seed
        ):
            name = f"{record.dataset}/{record.method}"
            if prefix:
                name = f"{prefix}/{name}"
            out.append(self.publish(document, name))
        return out

    # -- reading -----------------------------------------------------------
    def latest_version(self, name: str) -> int | None:
        """Highest published version of ``name``, or ``None``."""
        if not _NAME_PATTERN.match(name):
            # Read-path guard: a traversal-shaped name must never reach
            # the path construction.
            return None
        versions = self._versions(name)
        return versions[-1] if versions else None

    def _pinned_version(self, name: str, version: int | None) -> int:
        """Resolve ``version=None`` to latest; raise on unknown names."""
        if version is None:
            version = self.latest_version(name)
            if version is None:
                raise PlanNotFound(f"no plan published under {name!r}")
            return version
        if not _NAME_PATTERN.match(name):
            raise PlanNotFound(f"no plan {name}@{version}")
        return int(version)

    def record(self, name: str, version: int | None = None) -> PlanRecord:
        """Metadata of ``name@version`` (latest when ``version=None``).

        Served from the publish-metadata sidecar — no plan document is
        parsed, except for hand-dropped files without one.
        """
        version = self._pinned_version(name, version)
        record = self._record(name, version)
        if record is None:
            raise PlanNotFound(f"no plan {name}@{version}")
        return record

    def _record(self, name: str, version: int) -> PlanRecord | None:
        meta = self._sidecar(name, version)
        if meta is None:
            document = self._document(name, version)
            if document is None:
                return None
            created_at = self._document_path(name, version).stat().st_mtime
            meta = _document_meta(document, created_at)
        return PlanRecord(name=name, version=version, **meta)

    def get(self, name: str, version: int | None = None) -> FeaturePlan:
        """Load and compile ``name@version`` (latest when ``None``).

        Raises :class:`PlanIntegrityError` for documents whose stored
        bytes no longer match the fingerprint recorded at publish time,
        and for documents that fail plan validation (foreign operator
        registry, unparseable expressions) — the same contract as
        :meth:`FeaturePlan.load`, with a type transport layers can map
        to a 5xx.
        """
        maybe_fault("registry.load")
        version = self._pinned_version(name, version)
        document = self._document(name, version)
        if document is None:
            raise PlanNotFound(f"no plan {name}@{version}")
        meta = self._sidecar(name, version)
        if meta is not None and meta["fingerprint"] != plan_fingerprint(document):
            raise PlanIntegrityError(
                f"content fingerprint mismatch for {name}@{version}: "
                "stored document does not match its published fingerprint"
            )
        try:
            return FeaturePlan.from_dict(
                document, registry=self.operator_registry
            )
        except ValueError as error:
            raise PlanIntegrityError(
                f"stored plan {name}@{version} fails validation: {error}"
            ) from error

    def find_fingerprint(self, fingerprint: str) -> PlanRecord | None:
        """Most recent record whose content matches ``fingerprint``."""
        best: PlanRecord | None = None
        for record in self.records():
            if record.fingerprint == fingerprint:
                if best is None or record.created_at >= best.created_at:
                    best = record
        return best

    def resolve_ref(self, ref: str) -> tuple[str, int]:
        """Resolve a serving reference to a pinned ``(name, version)``.

        Accepted forms: ``name`` (latest version), ``name@version``,
        and a content fingerprint (``plan-v1:...``, optionally prefixed
        ``fp:``).  This is the serving hot path — for name refs it only
        touches version metadata (a directory listing), never the plan
        documents.
        """
        maybe_fault("registry.load")
        if ref.startswith("fp:"):
            ref = ref[3:]
        if ref.startswith("plan-v1:"):
            record = self.find_fingerprint(ref)
            if record is None:
                raise PlanNotFound(f"no plan with fingerprint {ref!r}")
            return record.name, record.version
        name, _, version = ref.partition("@")
        if version:
            if not version.isdigit():
                raise ValueError(f"invalid plan reference {ref!r}")
            pinned = self._pinned_version(name, int(version))
            if pinned not in self._versions(name):
                raise PlanNotFound(f"no plan {name}@{pinned}")
            return name, pinned
        return name, self._pinned_version(name, None)

    def resolve(self, ref: str) -> PlanRecord:
        """Turn a serving reference into a concrete :class:`PlanRecord`."""
        name, version = self.resolve_ref(ref)
        return self.record(name, version)

    def load(self, ref: str) -> tuple[PlanRecord, FeaturePlan]:
        """Resolve ``ref`` and load its compiled plan."""
        record = self.resolve(ref)
        return record, self.get(record.name, record.version)

    def names(self) -> list[str]:
        """Every published plan name."""
        return sorted(
            {
                path.parent.relative_to(self.root).as_posix()
                for path in self.root.rglob("*.plan.json")
            }
        )

    def records(self) -> list[PlanRecord]:
        """Every published (name, version) record — metadata only."""
        records = (
            self._record(name, version)
            for name in self.names()
            for version in self._versions(name)
        )
        return [record for record in records if record is not None]

    def __len__(self) -> int:
        return sum(len(self._versions(name)) for name in self.names())

    def __repr__(self) -> str:
        return f"PlanRegistry({self.path!r}, {len(self)} plans)"
