"""Pseudo-labeling cascades over pluggable adapters, plus corpus filters.

Adapters wrap the models a cascade invokes (ASR, MT, text-to-unit, ...)
without pulling them into this package. Two endpoint schemes exist:

* ``mock:NAME`` - deterministic in-process functions for tests and dry
  runs (``identity``, ``upper``, ``lower``, ``reverse``, ``char_units``,
  ``fail``); any other value is read as a two-column TSV lookup table
  mapping input line to output line (``fileio.read_table``), each input
  on one line only. Mocks are called directly and never cached.
* ``exec:COMMAND`` - an external command speaking a line protocol in
  UTF-8, whatever the locale: one input string per line on stdin, one
  output string per line on stdout, line-aligned. Its reply is split by
  the package's line rule (``fileio.split_lines``); a reply that is not
  UTF-8 fails every input of the call.

Given a cache directory, ``exec:`` outputs are cached in a
content-addressed on-disk store keyed by (kind, name, endpoint, input),
so re-running a cascade over a large manifest only recomputes misses,
and an adapter pointed at a new endpoint never serves the old
endpoint's outputs. Cache writes are atomic (``fileio.write_file``). An
input containing a line break, or one that UTF-8 cannot encode (a lone
surrogate), fails on both schemes.
"""

from __future__ import annotations

import json
import os
import shlex
from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .corpus import TSV_COLUMNS, Manifest, Utterance, get_field, join_units, set_field
from .evalbleu import TOKENIZER_TAGS, tokenize
from .fileio import join_lines, read_table, read_text, split_lines, write_file

# each filter kind's params and their defaults; a param's type is its default's
_FILTER_DEFAULTS: dict[str, dict[str, object]] = {
    "min_length": {"field": "text", "min_chars": 3},
    "code_switch": {"field": "asr_text", "ref_field": "text", "tokenizer": "char",
                    "max_norm_dist": 0.5},
}
FILTER_KINDS = tuple(_FILTER_DEFAULTS)


class CascadeError(ValueError):
    pass


class AdapterError(RuntimeError):
    """One or more adapter invocations failed; carries (input, reason) pairs."""

    def __init__(self, adapter: str, failures: Sequence[tuple[str, str]]):
        preview = "; ".join(f"{inp!r}: {reason}" for inp, reason in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(f"adapter {adapter} failed on {len(failures)} input(s): {preview}{more}")
        self.adapter = adapter
        self.failures = list(failures)


# --- adapters ----------------------------------------------------------------

def _mock_char_units(line: str) -> str:
    return join_units(ord(ch) % 2500 for ch in line)


_BUILTIN_MOCKS: dict[str, Callable[[str], str]] = {
    "identity": lambda line: line,
    "upper": str.upper,
    "lower": str.lower,
    "reverse": lambda line: line[::-1],
    "char_units": _mock_char_units,
}


def _fail_mock(substring: str) -> Callable[[str], str | None]:
    def fn(line: str) -> str | None:
        return None if substring in line else line
    return fn


def _sendable(line: str) -> bool:
    """Whether ``line`` is expressible in the line protocol: one line that
    ``join_lines`` accepts, holding no CR, that UTF-8 can encode (a lone
    surrogate cannot be). A child that reads with universal newlines would
    split a line at a CR and misalign its whole batch."""
    if "\r" in line:
        return False
    try:
        join_lines([line], CascadeError).encode("utf-8")
    except (CascadeError, UnicodeEncodeError):
        return False
    return True


@dataclass
class Adapter:
    """A deterministic model invocation endpoint.

    ``run`` raises :class:`AdapterError` if any input fails; ``try_run``
    returns ``None`` for failed inputs instead. Only ``exec:`` adapters
    use ``cache_dir``; a ``mock:`` adapter ignores it.
    """

    kind: str
    name: str
    endpoint: str
    cache_dir: Path | None = None
    _fn: Callable[[str], str | None] | None = field(default=None, init=False, repr=False)
    _command: list[str] | None = field(default=None, init=False, repr=False)
    _cache_root: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.cache_dir = Path(self.cache_dir) if self.cache_dir else None
        scheme, _, rest = self.endpoint.partition(":")
        if scheme == "mock":
            if rest in _BUILTIN_MOCKS:
                self._fn = _BUILTIN_MOCKS[rest]
            elif rest == "fail" or rest.startswith("fail:"):
                self._fn = _fail_mock(rest.partition(":")[2])
            else:
                self._fn = self._load_table(Path(rest)).get
        elif scheme == "exec":
            if not rest.strip():
                raise CascadeError(f"adapter {self.name!r}: empty exec command")
            self._command = shlex.split(rest)
            if self.cache_dir is not None:
                self._cache_root = os.path.join(self.cache_dir, self.kind, self.name)
        else:
            raise CascadeError(
                f"adapter {self.name!r}: unknown endpoint scheme {scheme!r} "
                "(expected mock: or exec:)")

    @staticmethod
    def _load_table(path: Path) -> dict[str, str]:
        if not path.exists():
            raise CascadeError(f"mock table {path} does not exist")
        return read_table(path, CascadeError)

    # cache (exec: only) ---------------------------------------------------------

    def _cache_path(self, line: str) -> str:
        import hashlib  # here, not at the top: it loads OpenSSL, which set-up never needs

        key = f"{self.kind}\x00{self.name}\x00{self.endpoint}\x00{line}"
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return os.path.join(self._cache_root, digest[:2], digest)

    def _cache_get(self, line: str) -> str | None:
        try:
            with open(self._cache_path(line), "rb") as fh:
                return fh.read().decode("utf-8")
        except (FileNotFoundError, NotADirectoryError):
            return None

    def _cache_put(self, line: str, output: str) -> None:
        path = self._cache_path(line)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_file(path, output)

    # execution ----------------------------------------------------------------

    def try_run(self, inputs: Sequence[str]) -> list[str | None]:
        if self._fn is not None:
            return [self._fn(line) if _sendable(line) else None for line in inputs]

        outputs: list[str | None] = [None] * len(inputs)
        misses = [i for i, line in enumerate(inputs) if _sendable(line)]
        if self._cache_root is not None:
            for i in misses:
                outputs[i] = self._cache_get(inputs[i])
            misses = [i for i in misses if outputs[i] is None]
        produced = self._run_exec([inputs[i] for i in misses]) if misses else None
        if produced is None:
            return outputs  # nothing to run, or every miss failed
        for i, out in zip(misses, produced):
            outputs[i] = out
            if self._cache_root is not None:
                self._cache_put(inputs[i], out)
        return outputs

    def _run_exec(self, lines: list[str]) -> list[str] | None:
        """One child process over ``lines``, spoken to in UTF-8 whatever the
        locale; ``None`` if it fails or replies with bytes that are not UTF-8."""
        import subprocess  # here, not at the top: set-up never starts a child

        proc = subprocess.run(
            self._command, input=join_lines(lines, CascadeError).encode("utf-8"),
            capture_output=True)
        if proc.returncode != 0:
            return None
        try:
            produced = split_lines(proc.stdout.decode("utf-8"))
        except UnicodeDecodeError:
            return None
        if len(produced) != len(lines):
            return None  # line misalignment: cannot attribute outputs safely
        return produced

    def run(self, inputs: Sequence[str]) -> list[str]:
        outputs = self.try_run(inputs)
        failures = [(inputs[i], "adapter_error") for i, out in enumerate(outputs) if out is None]
        if failures:
            raise AdapterError(f"{self.kind}/{self.name}", failures)
        return outputs  # type: ignore[return-value]


def make_adapter(kind: str, name: str, endpoint: str,
                 cache_dir: str | Path | None = None) -> Adapter:
    return Adapter(kind=kind, name=name, endpoint=endpoint, cache_dir=cache_dir)


# --- pipeline spec -----------------------------------------------------------

@dataclass(frozen=True)
class StageSpec:
    adapter: str
    in_field: str
    out_field: str


def _expect(value, kind: type | tuple[type, ...], what: str, name: str):
    """``value`` if it is a ``kind``, else a :class:`CascadeError` naming ``what``."""
    if not isinstance(value, kind):
        raise CascadeError(f"{what} must be {name}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class FilterSpec:
    """A filter and its params, typed and checked when the spec is built.

    Absent params take their defaults from ``_FILTER_DEFAULTS``; unknown keys,
    values that do not convert and out-of-range values are rejected.
    ``fields`` names the record fields the filter reads, in the order it
    takes them: ``field``, then ``ref_field`` for ``code_switch``.
    """

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    fields: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise CascadeError(f"unknown filter kind {self.kind!r}; expected {FILTER_KINDS}")
        given = _expect(self.params, Mapping, f"{self.kind} filter params", "an object")
        defaults = _FILTER_DEFAULTS[self.kind]
        unknown = [key for key in given if key not in defaults]
        if unknown:
            raise CascadeError(f"{self.kind} filter: unknown param(s) {unknown}; "
                               f"expected {list(defaults)}")
        params = {}
        for key, default in defaults.items():
            try:
                params[key] = type(default)(given.get(key, default))
            except (TypeError, ValueError):
                raise CascadeError(f"{self.kind} filter: param {key!r} must be "
                                   f"{type(default).__name__}, got {given[key]!r}") from None
        if self.kind == "min_length":
            _check_min_chars(params["min_chars"])
        else:
            _check_max_norm_dist(params["max_norm_dist"])
            if params["tokenizer"] not in TOKENIZER_TAGS:
                raise CascadeError(f"{self.kind} filter: unknown tokenizer "
                                   f"{params['tokenizer']!r}; expected one of {TOKENIZER_TAGS}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "fields", (params["field"], params["ref_field"])
                           if self.kind == "code_switch" else (params["field"],))


@dataclass(frozen=True)
class PipelineSpec:
    stages: tuple[StageSpec, ...] = ()
    filters: tuple[FilterSpec, ...] = ()
    adapters: Mapping[str, str] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, obj: Mapping) -> "PipelineSpec":
        _expect(obj, Mapping, "pipeline spec", "an object")
        stages = []
        for i, stage in enumerate(_expect(obj.get("stages", ()), (list, tuple),
                                          "'stages'", "a list")):
            _expect(stage, Mapping, f"stage {i}", "an object")
            try:
                keys = [stage["adapter"], stage["in"], stage["out"]]
            except KeyError as exc:
                raise CascadeError(f"stage {i}: missing key {exc}") from None
            for key, value in zip(("adapter", "in", "out"), keys):
                if not _expect(value, str, f"stage {i}: {key!r}", "a string"):
                    raise CascadeError(f"stage {i}: {key!r} must be nonempty")
            stages.append(StageSpec(*keys))
        filters = []
        for i, spec in enumerate(_expect(obj.get("filters", ()), (list, tuple),
                                         "'filters'", "a list")):
            _expect(spec, Mapping, f"filter {i}", "an object")
            if "kind" not in spec:
                raise CascadeError(f"filter {i}: missing key 'kind'")
            filters.append(FilterSpec(kind=spec["kind"], params=spec.get("params", {})))
        adapters = dict(_expect(obj.get("adapters", {}), Mapping, "'adapters'", "an object"))
        for name, endpoint in adapters.items():
            _expect(endpoint, str, f"adapter {name!r}", "a string")
        return cls(stages=tuple(stages), filters=tuple(filters), adapters=adapters)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PipelineSpec":
        try:
            obj = json.loads(read_text(path, CascadeError))
        except json.JSONDecodeError as exc:
            raise CascadeError(f"{path}:{exc.lineno}: {exc.msg} at column {exc.colno}") from None
        try:
            return cls.from_dict(obj)
        except CascadeError as exc:
            raise CascadeError(f"{path}: {exc}") from None


# --- filters -----------------------------------------------------------------

def levenshtein(a: Sequence, b: Sequence) -> int:
    """Minimal number of insertions, deletions and substitutions.

    Elements must be hashable. The common prefix and suffix are stripped
    first, which leaves the distance unchanged (Ukkonen 1985); the scans
    for them run in C. The rest uses the bit-parallel algorithm of Myers
    (1999) in Hyyrö's global-distance form, with Python ints as bit
    vectors over the shorter sequence: bit j of ``pv``/``mv`` is a +1/-1
    vertical delta in row j of the DP column, and each element of the
    longer sequence costs a constant number of big-int operations.
    """
    shorter = min(len(a), len(b))
    # index of the first unequal pair, else the shorter length
    prefix = next(compress(count(), map(ne, a, b)), shorter)
    if prefix == shorter:
        return len(a) + len(b) - 2 * shorter
    suffix = min(next(compress(count(), map(ne, reversed(a), reversed(b))), shorter),
                 shorter - prefix)
    a = a[prefix:len(a) - suffix]
    b = b[prefix:len(b) - suffix]
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict = {}
    for j, y in enumerate(b):
        peq[y] = peq.get(y, 0) | (1 << j)
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, dist = mask, 0, m
    for x in a:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # the shifted-in 1 is the +1 horizontal delta of the first DP row
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def _check_max_norm_dist(max_norm_dist: float) -> None:
    if not 0.0 <= max_norm_dist <= 1.0:
        raise CascadeError(f"max_norm_dist must be in [0, 1], got {max_norm_dist}")


def _check_min_chars(min_chars: int) -> None:
    if min_chars < 0:
        raise CascadeError(f"min_chars must be >= 0, got {min_chars}")


def filter_code_switch(asr_text: str, subtitle: str, tokenizer: str = "char",
                       max_norm_dist: float = 0.5) -> bool:
    """Keep iff the normalized edit distance between ASR output and the
    subtitle stays within ``max_norm_dist`` (distance over subtitle length)."""
    _check_max_norm_dist(max_norm_dist)
    asr_tokens = tokenize(asr_text, tokenizer)
    sub_tokens = tokenize(subtitle, tokenizer)
    dist = levenshtein(asr_tokens, sub_tokens)
    return dist / max(1, len(sub_tokens)) <= max_norm_dist


def filter_min_length(text: str, min_chars: int) -> bool:
    """Keep iff the text has at least ``min_chars`` non-whitespace characters."""
    _check_min_chars(min_chars)
    # str.split() splits on exactly the characters str.isspace() accepts
    return sum(map(len, text.split())) >= min_chars


def _apply_filter(spec: FilterSpec, rec: Utterance) -> bool:
    params = spec.params
    if spec.kind == "min_length":
        (name,) = spec.fields
        return filter_min_length(get_field(rec, name), params["min_chars"])
    name, ref_name = spec.fields
    return filter_code_switch(get_field(rec, name), get_field(rec, ref_name),
                              tokenizer=params["tokenizer"], max_norm_dist=params["max_norm_dist"])


# --- orchestration -----------------------------------------------------------

@dataclass(frozen=True)
class CascadeReport:
    input_count: int
    output_count: int
    adapter_error_drops: int
    filter_drops: Mapping[str, int]
    field_parse_drops: int = 0
    duplicate_id_drops: int = 0

    def to_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "output_count": self.output_count,
            "adapter_error_drops": self.adapter_error_drops,
            "field_parse_drops": self.field_parse_drops,
            "duplicate_id_drops": self.duplicate_id_drops,
            "filter_drops": dict(self.filter_drops),
        }


def _validate_spec(src: Manifest, spec: PipelineSpec,
                   adapters: Mapping[str, Adapter]) -> None:
    available = set(TSV_COLUMNS)
    for rec in src:
        available.update(rec.extra)
    for i, stage in enumerate(spec.stages):
        if stage.adapter not in adapters:
            raise CascadeError(f"stage {i}: unknown adapter {stage.adapter!r}")
        if stage.in_field not in available:
            if any(s.out_field == stage.in_field for s in spec.stages[i:]):
                raise CascadeError(
                    f"stage {i}: cyclic field dependency: {stage.in_field!r} is "
                    "not produced until a later stage")
            raise CascadeError(
                f"stage {i}: input field {stage.in_field!r} is neither a source "
                "column nor produced by a prior stage")
        available.add(stage.out_field)
    for i, fspec in enumerate(spec.filters):
        for name in fspec.fields:
            if name not in available:
                raise CascadeError(
                    f"filter {i}: field {name!r} is neither a source column nor "
                    "written by a stage")


def run_cascade(src: Manifest, spec: PipelineSpec,
                adapters: Mapping[str, Adapter]) -> tuple[Manifest, CascadeReport]:
    """Apply the pipeline stages and filters record-wise over a manifest.

    Each filter runs as soon as every field it reads is final: after the
    last stage that writes one of them, or before the first stage if no
    stage does, and never before a filter declared ahead of it. Each stage
    sends only the records still live to its adapter, so a record that a
    filter drops reaches no later adapter. A record is kept exactly when
    every stage succeeds on it and every filter passes on its final field
    values.

    A record is dropped, and tallied, at the first step that fails it:
    reason ``adapter_error`` when an adapter call fails,
    ``field_parse_error`` when an adapter output does not parse as the
    typed output field (``units``, ``duration_s``, ...), and the filter's
    own label when a filter rejects it. When a stage writes ``id`` and
    surviving records share an id, the first keeps it and the later ones
    are dropped with reason ``duplicate_id``. Surviving records keep the
    input order, and kept + dropped always equals the input count.
    """
    _validate_spec(src, spec, adapters)

    labels = [f"{idx}:{fspec.kind}" for idx, fspec in enumerate(spec.filters)]
    # final_after[name]: the number of stages after which field ``name`` is final
    final_after = {stage.out_field: n + 1 for n, stage in enumerate(spec.stages)}
    # due[n]: the (label, filter) pairs that run once n stages have run
    due: list[list[tuple[str, FilterSpec]]] = [[] for _ in range(len(spec.stages) + 1)]
    after = 0
    for label, fspec in zip(labels, spec.filters):
        after = max(after, *(final_after.get(name, 0) for name in fspec.fields))
        due[after].append((label, fspec))

    records: list[Utterance | None] = list(src.records)
    filter_drops = dict.fromkeys(labels, 0)
    adapter_error_drops = field_parse_drops = 0
    for n, filters in enumerate(due):
        for label, fspec in filters:
            for i, rec in enumerate(records):
                if rec is not None and not _apply_filter(fspec, rec):
                    records[i] = None
                    filter_drops[label] += 1
        if n == len(spec.stages):
            break
        stage = spec.stages[n]
        live = [i for i, rec in enumerate(records) if rec is not None]
        inputs = [get_field(records[i], stage.in_field) for i in live]
        outputs = adapters[stage.adapter].try_run(inputs)
        for i, out in zip(live, outputs):
            if out is None:
                records[i] = None
                adapter_error_drops += 1
                continue
            try:
                records[i] = set_field(records[i], stage.out_field, out)
            except ValueError:
                records[i] = None
                field_parse_drops += 1

    kept: list[Utterance] = []
    seen_ids: set[str] = set()
    duplicate_id_drops = 0
    for rec in records:
        if rec is None:
            continue
        if rec.id in seen_ids:
            duplicate_id_drops += 1
        else:
            seen_ids.add(rec.id)
            kept.append(rec)
    report = CascadeReport(
        input_count=len(src.records),
        output_count=len(kept),
        adapter_error_drops=adapter_error_drops,
        filter_drops=filter_drops,
        field_parse_drops=field_parse_drops,
        duplicate_id_drops=duplicate_id_drops,
    )
    return Manifest(records=kept), report
