"""Prometheus text exposition: the one renderer behind ``GET /metrics``.

A metric *family* is a ``(name, kind, help, samples)`` tuple: ``kind``
is ``"counter"`` or ``"gauge"`` and each sample is a ``(labels,
value)`` pair whose ``labels`` mapping is empty for an unlabelled
series.  The serving (``repro_serve_*``), evaluation (``repro_eval_*``)
and reliability (``repro_reliability_*``) layers each build their
families and hand them to :func:`render`, so the escaping and number
formats below are the only ones a scraper ever sees.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["render"]

Sample = tuple[Mapping[str, str], float]
Family = tuple[str, str, str, Iterable[Sample]]


def _label(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _value(value: float) -> str:
    """Integers as integers; floats with exact-round-trip ``repr``."""
    if isinstance(value, float):
        return repr(float(value))
    return str(int(value))


def render(families: Iterable[Family]) -> str:
    """One ``# HELP``/``# TYPE`` header per family, then its samples."""
    lines = []
    for name, kind, help_text, samples in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            series = name
            if labels:
                pairs = ",".join(
                    f'{key}="{_label(text)}"' for key, text in labels.items()
                )
                series = f"{name}{{{pairs}}}"
            lines.append(f"{series} {_value(value)}")
    return "\n".join(lines) + "\n"
