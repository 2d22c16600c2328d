"""JSON serialization of diagnosis and journey reports.

The paper's front end renders per-issue modals from the Analyzer's
output; this module is the API equivalent: a stable JSON encoding of a
:class:`DiagnosisReport` (and back), so reports can be archived next to
the trace, diffed between tool versions, or served to a UI.

One codec serves the report and journey dataclasses.  Enums encode as
their value, frozensets as lists sorted by encoded value, lists and
tuples as lists, nested dataclasses as objects; ``None``, scalars,
``dict`` and ``object`` fields pass through.  Decoding checks each
field against its resolved type hint (a scalar must already have the
hinted type; an int is accepted for a float, a bool for no number); a
missing field takes its dataclass default.  A class's
``SCHEMA = (kind, version written, versions read)`` puts
``schema_version`` in, and checks it on, every instance's object.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import types
import typing
from dataclasses import MISSING
from pathlib import Path

from repro.ion.issues import DiagnosisReport
from repro.util.errors import ReproError

#: The report schema version written (see ``DiagnosisReport.SCHEMA``).
SCHEMA_VERSION = DiagnosisReport.SCHEMA[1]

_T = typing.TypeVar("_T")
_SEQUENCES = (list, tuple, frozenset)


class _Malformed(Exception):
    """A payload field that does not fit its hint, with its path."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path}: {reason}" if path else reason)


def to_dict(value):
    """Encode a report dataclass (or a value inside one) as JSON-ready data."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        out = {}
        schema = getattr(value, "SCHEMA", None)
        if schema is not None:
            out["schema_version"] = schema[1]
        for f in dataclasses.fields(value):
            out[f.name] = to_dict(getattr(value, f.name))
        return out
    if isinstance(value, frozenset):
        return sorted(to_dict(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [to_dict(item) for item in value]
    return value


#: Each dataclass's resolved field hints, computed once.
_hints = functools.cache(typing.get_type_hints)


def from_dict(cls: type[_T], payload) -> _T:
    """Decode a payload into ``cls``; raises ReproError when malformed."""
    try:
        return _decode(cls, payload, "")
    except _Malformed as exc:
        raise ReproError(f"malformed {_kind(cls)} payload: {exc}") from exc


def _kind(cls: type) -> str:
    """What an error calls a ``cls`` payload: its schema kind, or its name."""
    return getattr(cls, "SCHEMA", (cls.__name__,))[0]


def _decode(hint, value, path: str):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # ``X | None``
        if value is None:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _decode(hint, value, path)
    if dataclasses.is_dataclass(hint):
        return _decode_fields(hint, value, path)
    if origin in _SEQUENCES:
        _expect(list, value, path)
        return origin(
            _decode(args[0], item, f"{path}[{i}]")
            for i, item in enumerate(value)
        )
    if origin is dict:
        return dict(_expect(dict, value, path))
    if hint is object:
        return value
    if issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError as exc:
            raise _Malformed(path, str(exc)) from exc
    # A scalar must already have its hinted type: no bool is a number,
    # and an int is accepted for a float.
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (hint is not bool and isinstance(value, bool)):
        raise _Malformed(
            path, f"expected {hint.__name__}, got {type(value).__name__}"
        )
    return hint(value)


def _expect(kind: type, value, path: str):
    if not isinstance(value, kind):
        name = "a list" if kind is list else "an object"
        raise _Malformed(path, f"expected {name}, got {type(value).__name__}")
    return value


def _decode_fields(cls: type, value, path: str):
    _expect(dict, value, path)
    schema = getattr(cls, "SCHEMA", None)
    if schema is not None:
        kind, _, readable = schema
        version = value.get("schema_version", 0)
        if not isinstance(version, int) or isinstance(version, bool):
            raise _Malformed(path, "bad schema version")
        if version not in readable:
            raise ReproError(
                f"unsupported {kind} schema version {version} "
                f"(this build reads {readable})"
            )
    hints = _hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        if f.name in value:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise _Malformed(where, "missing")
    return cls(**kwargs)


def dump(obj, path: str | Path) -> Path:
    """Write a report dataclass as JSON; returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_dict(obj), indent=2, sort_keys=True))
    return path


def load(cls: type[_T], path: str | Path) -> _T:
    """Read a ``cls`` written by :func:`dump`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid {_kind(cls)} JSON: {exc}") from exc
    return from_dict(cls, payload)


def report_to_dict(report: DiagnosisReport) -> dict:
    """Encode a full report."""
    return to_dict(report)


def report_from_dict(payload: dict) -> DiagnosisReport:
    """Decode a full report; raises ReproError on malformed input."""
    return from_dict(DiagnosisReport, payload)


def dump_report(report: DiagnosisReport, path: str | Path) -> Path:
    """Write a report as JSON; returns the path written."""
    return dump(report, path)


def load_report(path: str | Path) -> DiagnosisReport:
    """Read a report written by :func:`dump_report`."""
    return load(DiagnosisReport, path)
