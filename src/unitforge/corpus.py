"""Corpus data model and manifest serialization (TSV / JSONL).

A manifest is an ordered collection of utterance records. Two on-disk
formats are supported:

* TSV: header ``id<TAB>lang<TAB>audio<TAB>duration_s<TAB>speaker<TAB>text<TAB>units``,
  tab-separated, UTF-8, no quoting. A tab, LF or CR in a field or column
  name is refused on write. An absent optional field is written as the
  empty string, so TSV cannot distinguish "empty text" from "no text".
* JSONL: one object per line with the same field names; absent fields are
  missing keys, which keeps the empty/absent distinction.

Unknown columns (TSV) or keys (JSONL) are preserved per record in
``Utterance.extra``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .fileio import join_lines, join_rows, read_lines, write_file


TSV_COLUMNS = ("id", "lang", "audio", "duration_s", "speaker", "text", "units")


class ManifestError(ValueError):
    """Manifest parse or validation failure; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Utterance:
    """One corpus record: audio reference, timing, speaker, text and units."""

    id: str
    lang: str = ""
    audio_ref: str | None = None
    duration_s: float | None = None
    speaker: str | None = None
    text: str | None = None
    units: tuple[int, ...] | None = None
    extra: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ManifestError("utterance id must be nonempty")
        if self.duration_s is not None:
            object.__setattr__(self, "duration_s", _check_duration(self.duration_s))
        if self.units is not None:
            object.__setattr__(self, "units", tuple(map(int, self.units)))


def _check_duration(value) -> float:
    try:
        d = float(value)
    except ValueError:
        raise ManifestError(f"unparsable duration {value!r}") from None
    if not math.isfinite(d) or d < 0:
        raise ManifestError(f"duration_s must be finite and >= 0, got {value!r}")
    return d


@dataclass(frozen=True)
class Segment:
    """A [start_s, end_s) slice of an audio file."""

    audio_id: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if not (math.isfinite(self.start_s) and math.isfinite(self.end_s)):
            raise ManifestError("segment bounds must be finite")
        if not 0 <= self.start_s < self.end_s:
            raise ManifestError(f"need 0 <= start < end, got [{self.start_s}, {self.end_s}]")

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def overlap_s(self, other: "Segment") -> float:
        """Length of the intersection with ``other`` (ignores audio_id)."""
        return max(0.0, min(self.end_s, other.end_s) - max(self.start_s, other.start_s))


@dataclass(frozen=True)
class Manifest:
    """Ordered, id-unique collection of utterances. ``records`` may be any
    iterable: each id is checked before the next record is drawn."""

    records: tuple[Utterance, ...] = ()

    def __post_init__(self):
        by_id: dict[str, Utterance] = {}
        for rec in self.records:
            if rec.id in by_id:
                raise ManifestError(f"duplicate utterance id {rec.id!r}")
            by_id[rec.id] = rec
        object.__setattr__(self, "records", tuple(by_id.values()))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Utterance]:
        return iter(self.records)

    def ids(self) -> tuple[str, ...]:
        return tuple(rec.id for rec in self.records)


def _infer_format(path: Path, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("tsv", "jsonl"):
            raise ManifestError(f"unknown manifest format {fmt!r}")
        return fmt
    suffix = path.suffix.lower().lstrip(".")
    if suffix in ("tsv", "jsonl"):
        return suffix
    raise ManifestError(f"cannot infer manifest format from {path.name!r}; pass format explicitly")


def read_manifest(path: str | Path, fmt: str | None = None) -> Manifest:
    """Read a manifest file; ``fmt`` is inferred from the suffix when omitted.

    One loop serves both formats: it hands each line to the format's record
    parser and puts the line number on any :class:`ManifestError`, the id
    check of :class:`Manifest` included."""
    path = Path(path)
    fmt = _infer_format(path, fmt)
    lines = enumerate(read_lines(path), start=1)
    lineno = 1

    def records() -> Iterator[Utterance]:
        nonlocal lineno
        parse = _tsv_parser(next(lines, (1, None))[1]) if fmt == "tsv" else _parse_jsonl
        for lineno, raw in lines:
            rec = parse(raw)
            if rec is not None:
                yield rec

    try:
        return Manifest(records=records())  # checks each id as the loop yields it
    except ManifestError as exc:
        raise ManifestError(str(exc), lineno) from None


def _tsv_parser(first: str | None) -> Callable[[str], Utterance]:
    """The row parser bound to the TSV header line ``first``."""
    if first is None:
        raise ManifestError("empty TSV manifest: missing header")
    header = first.split("\t")
    if "id" not in header:
        raise ManifestError("TSV header must contain an 'id' column")
    if len(set(header)) != len(header):
        raise ManifestError("TSV header has duplicate column names")

    def parse(raw: str) -> Utterance:
        cols = raw.split("\t")
        if len(cols) != len(header):
            raise ManifestError(f"expected {len(header)} columns, got {len(cols)}")
        row = dict(zip(header, cols))
        units = row.pop("units", "")
        known = {
            "id": row.pop("id"),
            "lang": row.pop("lang", ""),
            "audio_ref": row.pop("audio", "") or None,
            "duration_s": row.pop("duration_s", "") or None,
            "speaker": row.pop("speaker", "") or None,
            "text": row.pop("text", "") or None,
        }
        extra = {k: v for k, v in row.items() if v != ""}
        try:
            return Utterance(units=units.split() if units else None, extra=extra, **known)
        except ManifestError:
            raise
        except ValueError:
            raise ManifestError(f"unparsable units field {units!r}") from None

    return parse


def _parse_jsonl(raw: str) -> Utterance | None:
    """The record on one JSONL line; ``None`` for a blank line."""
    raw = raw.strip()
    if not raw:
        return None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ManifestError(f"invalid JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ManifestError("each JSONL line must be an object")
    if "\\u" in raw:  # only a \u escape can bring a lone surrogate past strict UTF-8
        try:
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ManifestError("lone surrogate in a string; UTF-8 cannot encode it") from None

    rec_id = obj.pop("id", None)
    if not isinstance(rec_id, str) or not rec_id:
        raise ManifestError("missing or empty 'id'")
    duration = obj.pop("duration_s", None)
    if duration is not None and (isinstance(duration, bool)
                                 or not isinstance(duration, (int, float))):
        raise ManifestError(f"unparsable duration {duration!r}")
    units = obj.pop("units", None)
    if units is not None and (not isinstance(units, list) or not all(
            isinstance(u, int) and not isinstance(u, bool) for u in units)):
        raise ManifestError("units must be a list of integers")
    for key in ("lang", "audio", "speaker", "text"):
        if not isinstance(obj.get(key), (str, type(None))):
            raise ManifestError(f"{key!r} must be a string or null")

    extra = {}
    for key in sorted(k for k in obj if k not in ("lang", "audio", "speaker", "text")):
        value = obj.pop(key)
        if isinstance(value, (dict, list)):
            raise ManifestError(f"nested value not allowed for field {key!r}")
        extra[key] = value if isinstance(value, str) else json.dumps(value)
    return Utterance(id=rec_id, lang=obj.get("lang", "") or "", audio_ref=obj.get("audio"),
                     duration_s=duration, speaker=obj.get("speaker"), text=obj.get("text"),
                     units=units, extra=extra)


def write_manifest(manifest: Manifest, path: str | Path, fmt: str | None = None) -> None:
    """Write a manifest; round-trips with :func:`read_manifest` (TSV maps empty == absent)."""
    path = Path(path)
    fmt = _infer_format(path, fmt)
    if fmt == "tsv":
        _write_tsv(manifest, path)
    else:
        _write_jsonl(manifest, path)


def get_field(rec: Utterance, name: str) -> str:
    """A record field as its TSV text; an absent field is the empty string."""
    if name == "id":
        return rec.id
    if name == "lang":
        return rec.lang
    if name == "audio":
        return rec.audio_ref or ""
    if name == "duration_s":
        return repr(rec.duration_s) if rec.duration_s is not None else ""
    if name == "speaker":
        return rec.speaker or ""
    if name == "text":
        return rec.text or ""
    if name == "units":
        return " ".join(map(str, rec.units)) if rec.units else ""
    return rec.extra.get(name, "")


def set_field(rec: Utterance, name: str, value: str) -> Utterance:
    """A copy of ``rec`` with field ``name`` read from its TSV text; the
    inverse of :func:`get_field`. Only that field is converted and checked;
    the copy shares every other field with ``rec``."""
    if name == "id":
        if not value:
            raise ManifestError("utterance id must be nonempty")
    elif name in ("audio", "speaker"):
        value = value or None
    elif name == "duration_s":
        value = _check_duration(value) if value else None
    elif name == "units":
        value = tuple(map(int, value.split())) or None
    elif name not in ("lang", "text"):
        name, value = "extra", {**rec.extra, name: value}
    new = object.__new__(type(rec))
    new.__dict__.update(rec.__dict__)
    object.__setattr__(new, "audio_ref" if name == "audio" else name, value)
    return new


def _write_tsv(manifest: Manifest, path: Path) -> None:
    extra_cols = sorted({key for rec in manifest.records for key in rec.extra})
    header = list(TSV_COLUMNS) + extra_cols
    rows = ([get_field(rec, col) for col in header] for rec in manifest.records)
    write_file(path, join_rows(header, rows, ManifestError))


def _write_jsonl(manifest: Manifest, path: Path) -> None:
    lines = []
    for rec in manifest.records:
        obj = {"id": rec.id, "lang": rec.lang or None, "audio": rec.audio_ref,
               "duration_s": rec.duration_s, "speaker": rec.speaker, "text": rec.text,
               "units": None if rec.units is None else list(rec.units)}
        obj = {key: value for key, value in obj.items() if value is not None}  # absent: no key
        obj.update(sorted(rec.extra.items()))
        lines.append(json.dumps(obj, ensure_ascii=False))
    write_file(path, join_lines(lines, ManifestError))


def manifest_stats(manifest: Manifest) -> dict[str, dict[str, float | int]]:
    """Per-language record counts, duration sums and distinct-speaker counts.

    Records without a duration contribute 0 seconds and are tallied under
    ``missing_duration``. Languages appear in first-occurrence order.
    """
    stats: dict[str, dict] = {}
    speakers: dict[str, set[str]] = {}
    for rec in manifest.records:
        entry = stats.setdefault(rec.lang, {
            "count": 0, "total_duration_s": 0.0, "speaker_count": 0, "missing_duration": 0,
        })
        entry["count"] += 1
        if rec.duration_s is None:
            entry["missing_duration"] += 1
        else:
            entry["total_duration_s"] += rec.duration_s
        if rec.speaker:
            speakers.setdefault(rec.lang, set()).add(rec.speaker)
    for lang, entry in stats.items():
        entry["speaker_count"] = len(speakers.get(lang, ()))
    return stats
