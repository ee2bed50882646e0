"""Discrete-unit quantization: k-means codebooks, unit assignment, dedup, CTC collapse.

The fitting loop is plain Lloyd iteration over k-means++ seeds. All
randomness flows through ``numpy.random.default_rng(seed)`` (PCG64).

Input rule, shared by ``kmeans_fit`` and ``assign_units``: features are a
2-D matrix of rows; float32 rows are used as they are (made C-contiguous if
they are not), and any other dtype is taken as float64. Float32 to float64
is exact, so a float32 matrix and its float64 copy give the same labels,
seeds, centroids and inertia; the float32 one is read in place. Within a
fit, seeds, centroids and every direct sum are float64; the codebook stores
its centroids as float32.

Nearest-centroid search ranks centroids per 256-row chunk with one float32
GEMM (||x||^2 - 2 x.c + ||c||^2, with ||c||^2 in float64) and keeps every
centroid that a rounding-error bound cannot rule out. The bound covers the
rounding of float64 rows and centroids to float32, so the float64 direct sum
of (x - c)^2 stays the definition. A row left with one candidate is decided:
that centroid is strictly nearest by the direct float64 sum, so no direct sum
is taken. Rows left with several pick among them by that direct sum, lowest
index on ties. Labels therefore equal the brute-force argmin exactly. The
fit takes each row's direct distance to its chosen centroid for the inertia
and for reseeding, and sums each cluster's rows in row order, so a fit is
byte-identical for any thread count or BLAS blocking given the same inputs.

The screen's constants (the centroids' float32 rounding, ||c||^2 and the
bound's per-column terms) are built once per centroid set: once per
``Codebook``, and once per Lloyd iteration within a fit, so a call pays only
for its own rows. A direct sum gathers only its candidate centroids and
takes those to float64, so no float64 copy of the codebook is made.

k-means++ seeding is screened by the same certificate: one float32 GEMV per
new seed gives a lower bound on each row's direct distance to it, and only
rows whose bound does not rule out an improvement get the direct sum. Every
kept distance is therefore the direct one, and the chosen seeds equal those
of the unscreened computation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from operator import ne
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import embed
from .corpus import as_units, join_units, parse_units
from .fileio import join_lines, numbered, write_file
from .parallel import chunk_ranges, map_chunks


class QuantizeError(ValueError):
    pass


@dataclass(frozen=True)
class UnitSequence:
    """Sequence of discrete unit ids under a vocabulary of size ``vocab_size``."""

    vocab_size: int
    units: tuple[int, ...] = ()

    def __post_init__(self):
        if self.vocab_size < 1:
            raise QuantizeError(f"vocab_size must be positive, got {self.vocab_size}")
        units = as_units(self.units)
        if units and not 0 <= min(units) <= max(units) < self.vocab_size:
            bad = next(u for u in units if not 0 <= u < self.vocab_size)
            raise QuantizeError(f"unit {bad} out of range [0, {self.vocab_size})")
        object.__setattr__(self, "units", units)

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)


@dataclass(frozen=True)
class Codebook:
    """K centroids defining the unit quantizer.

    ``iters_run`` and ``inertia_history`` are fit metadata; they are not
    required to reconstruct the quantizer and are absent on codebooks
    loaded from disk (except for the values echoed in the sidecar). The
    nearest-centroid screen is built once from the checked centroids, so
    change them with ``dataclasses.replace``, which builds a new one, and
    not in place.
    """

    k: int
    dim: int
    centroids: np.ndarray
    seed: int
    iters_run: int | None = None
    inertia_history: tuple[float, ...] | None = None
    _screen: _Screen = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise QuantizeError(f"codebook k must be >= 1, got {self.k}")
        cents = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if cents.shape != (self.k, self.dim):
            raise QuantizeError(f"centroids shape {cents.shape} != ({self.k}, {self.dim})")
        if not np.isfinite(cents).all():
            raise QuantizeError("centroids contain non-finite values")
        object.__setattr__(self, "centroids", cents)
        object.__setattr__(self, "_screen", _Screen.of(cents))

    @property
    def final_inertia(self) -> float | None:
        return self.inertia_history[-1] if self.inertia_history else None


def _certificate(dim: int, cc_max: float) -> tuple[float, float, float]:
    """Rounding certificate of the expansion ||x||^2 - 2 x.c + ||c||^2 whose
    product x.c is taken in float32.

    Returns ``(coef, floor, xx_limit)``. Let x and c be float64 vectors, P
    the float32 product of their roundings to float32 (any summation order),
    and X, C the float64 computed ||x||^2 and ||c||^2 <= ``cc_max``. If X <=
    ``xx_limit``, then X + C - 2P, formed in float64, differs from the direct
    float64 sum of (x - c)^2 by at most ``coef * (X + C) + floor``, with room
    left for a few roundings of the comparison that uses it. Where X cancels
    out of the comparison and enters the slack only, it may be the float32
    sum of the rounded row's squares. A row above the limit, or with a NaN
    X, must take the direct sum.
    """
    # Let u = 2^-24, t = 2^-126 (the least normal float32), gamma_n =
    # n u / (1 - n u) (Higham), and X = ||x||^2, C = ||c||^2 exactly.
    #  - Rounding to float32 moves x_i by at most u |x_i| + t; t covers gradual
    #    underflow, and also a flush to zero. With Cauchy-Schwarz and
    #    t sqrt(d X) <= (u X + d t^2 / u) / 2, the rounded rows xs, cs give
    #    |xs.cs - x.c| <= 2u (X + C) + 2 d t^2 / u and ||xs||^2 <= (1 + 4u) X
    #    + 2 d t^2 / u.
    #  - The float32 product in any order, each of its 2d operations losing
    #    at most t to underflow: |P - xs.cs| <= gamma_d ||xs|| ||cs|| + 3 d t.
    #  - For d u <= 1/8, gamma_d <= 8 d u / 7, so |2P - 2 x.c| <=
    #    8 (d + 4) u (X + C) / 7 + 7 d t: d from the summation, 4 from the
    #    rounding of x and c (both vanish for float32 inputs but are kept).
    #  - The float64 steps as in an all-float64 expansion: forming C and
    #    C - 2P, and the direct oracle's own error gamma_(d+2) ||x - c||^2,
    #    stay within (2d + 4) eps64 (X + C) + d tiny64.
    # coef is (d + 4) eps32 = 2 (d + 4) u plus twice the float64 term: the
    # factor 7/4 left over the float32 term covers the comparisons' own
    # rounding and the use of computed X, C in the slack (a float32 X errs by
    # at most 8 (d + 3) u / 7 relative, plus underflow); 8 d t covers 7 d t,
    # d tiny64 and the computed norms' underflow. Below xx_limit, X + C <=
    # max32 / 8, so no float32 partial sum overflows. Past d = 2^21 (where
    # d u > 1/8) no row is screened.
    f32, f64 = np.finfo(np.float32), np.finfo(np.float64)
    coef = (dim + 4) * float(f32.eps) + 4 * (dim + 2) * float(f64.eps)
    floor = 8 * dim * float(f32.tiny)
    xx_limit = float(f32.max) / 8 - cc_max if dim <= 2**21 else -math.inf
    return coef, floor, xx_limit


def _direct_argmin(x: np.ndarray, cents: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Per row of the (rows, k) mask ``cand``, the candidate with the least
    direct float64 sum of (x - c)^2; lowest index on ties.

    Each row needs at least one candidate. The sum is taken exactly as the
    brute-force oracle takes it, so equal inputs give equal bits.
    """
    rows, cols = np.nonzero(cand)
    d2 = _direct_d2(x, cents, rows, cols)
    # a stable sort by (row, distance) keeps ascending columns within ties
    # (with finite centroids a NaN row is NaN throughout, so it keeps column 0)
    order = np.lexsort((d2, rows))
    # np.nonzero lists rows in ascending order, so each row's entries start
    # at the same position before and after the sort
    return cols[order[np.searchsorted(rows, np.arange(cand.shape[0]))]]


@dataclass(frozen=True)
class _Screen:
    """What the nearest-centroid screen needs of one centroid set.

    ``cents`` are the centroids as given (float32 for a codebook, float64
    within a fit) and ``cents32`` their float32 rounding, the same array for
    float32 centroids. ``upper_shift`` is ||c||^2 plus the column's slack,
    ``col_gap`` twice that slack; ``coef``, ``floor`` and ``xx_limit`` are
    ``_certificate``'s.
    """

    cents: np.ndarray
    cents32: np.ndarray
    coef: float
    floor: float
    xx_limit: float
    upper_shift: np.ndarray
    col_gap: np.ndarray

    @classmethod
    def of(cls, centroids: np.ndarray) -> _Screen:
        """The screen of ``centroids``, taken under the module's input rule."""
        cents = _rows(centroids)
        with np.errstate(over="ignore"):
            cents32 = cents.astype(np.float32, copy=False)
        cc = np.einsum("ij,ij->i", cents, cents, dtype=np.float64)
        coef, floor, xx_limit = _certificate(cents.shape[1], cc.max())
        col_slack = coef * cc
        return cls(cents=cents, cents32=cents32, coef=coef, floor=floor, xx_limit=xx_limit,
                   upper_shift=cc + col_slack, col_gap=2.0 * col_slack)


def _nearest(features: np.ndarray, screen: _Screen, threads: int = 1) -> np.ndarray:
    """Exact nearest centroid per row by the float64 sum over the feature
    axis of (x - c)^2, ties broken toward the lowest centroid index.

    ``features`` are float32 or float64. The screen multiplies each chunk
    rounded to float32; float32 chunks are their own rounding.
    """
    coef, floor = screen.coef, screen.floor

    def one_chunk(bounds: tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        x = features[lo:hi]
        with np.errstate(all="ignore"):
            xs = np.ascontiguousarray(x, dtype=np.float32)
            xx = np.einsum("ij,ij->i", xs, xs).astype(np.float64)
            # upper[i, j] = expansion - X_i + slack_j; X_i is constant per row
            upper = np.multiply(xs @ screen.cents32.T, -2.0, dtype=np.float64)
            upper += screen.upper_shift
            thresh = upper.min(axis=1) + (2.0 * coef * xx + floor)
            # keep j unless expansion_j - slack_ij > min_l(expansion_l + slack_il)
            upper -= screen.col_gap
            cand = upper <= thresh[:, None]
        cand[~(xx <= screen.xx_limit)] = True
        # every centroid ruled out is strictly farther than the nearest one,
        # so a row's sole candidate is its label
        labels = cand.argmax(axis=1)
        open_rows = np.flatnonzero(np.count_nonzero(cand, axis=1) > 1)
        if open_rows.size:
            # float32 to float64 is exact, so these are the rows' own values
            labels[open_rows] = _direct_argmin(x[open_rows].astype(np.float64, copy=False),
                                               screen.cents, cand[open_rows])
        return labels

    parts = map_chunks(one_chunk, chunk_ranges(features.shape[0]), threads)
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# rows per direct-distance block
_DIRECT_BLOCK = 64


def _direct_d2(features: np.ndarray, cents: np.ndarray, rows: np.ndarray | None = None,
               cols: np.ndarray | None = None) -> np.ndarray:
    """Direct float64 sum of (x - c)^2 for every row, or for ``features[rows]``.

    ``features`` are float32 or float64, so each difference is taken in
    float64 from the rows' exact values. ``c`` is ``cents`` itself (one
    float64 vector) for every row or, when ``cols`` is given,
    ``cents[cols[i]]`` for the i-th row; there ``cents`` may be float32, and
    only the gathered rows are taken to float64, exactly. Rows go through in
    fixed blocks, so the difference held at once stays small; each row is
    summed exactly as over the whole matrix.
    """
    n = features.shape[0] if rows is None else rows.shape[0]
    out = np.empty(n)
    for lo in range(0, n, _DIRECT_BLOCK):
        block = slice(lo, lo + _DIRECT_BLOCK)
        x = features[block] if rows is None else features[rows[block]]
        # a gathered c, or gathered rows as float64, are fresh copies that
        # the difference may overwrite
        if cols is not None:
            c = cents[cols[block]].astype(np.float64, copy=False)
            diff = np.subtract(x, c, out=c)
        elif rows is not None:
            diff = x.astype(np.float64, copy=False)
            diff -= cents
        else:
            diff = x - cents
        out[block] = np.square(diff, out=diff).sum(axis=1)
    return out


def _lower_to_seed(features: np.ndarray, xx: np.ndarray, d2: np.ndarray,
                   c: np.ndarray, rounded: np.ndarray) -> None:
    """``d2 = np.minimum(d2, direct distances to c)`` in place, bit for bit.

    ``c`` is float64, ``xx`` holds the float64 computed ||x||^2 of every row,
    and ``rounded`` the rows rounded to float32. One float32 GEMV gives each
    row a certified lower bound on its direct distance to ``c``; a row whose
    bound is at least its ``d2`` keeps it, as ``np.minimum`` would, and only
    the other rows get the direct sum.
    """
    with np.errstate(all="ignore"):
        cc = float(c @ c)
        coef, floor, xx_limit = _certificate(features.shape[1], cc)
        reach = math.sqrt(xx.max()) + math.sqrt(cc)
        if floor > reach * reach:
            # floor exceeds every expansion (subnormal-scale rows), so no bound
            # reaches d2 >= 0: skip the GEMV, every row takes the direct sum
            np.minimum(d2, _direct_d2(features, c), out=d2)
            return
        lower = (rounded @ c.astype(np.float32)).astype(np.float64)
        lower *= -2.0
        lower += xx
        lower += cc - floor
        lower -= coef * (xx + cc)
    # NaN bounds and rows that could overflow fail this test
    keep = (lower >= d2) & (xx <= xx_limit)
    rows = np.flatnonzero(~keep)
    d2[rows] = np.minimum(d2[rows], _direct_d2(features, c, rows))


def _kmeanspp_init(features: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds, each drawn with probability proportional to the
    direct float64 squared distance to the nearest earlier seed.

    ``features`` are float32 or float64 rows; the seeds are returned as
    float64. The distances after each draw are screened (``_lower_to_seed``)
    but equal the direct ones, so the draws equal the unscreened ones.
    """
    n = features.shape[0]
    xx = np.einsum("ij,ij->i", features, features, dtype=np.float64)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(0, n)
    d2 = _direct_d2(features, features[chosen[0]].astype(np.float64))
    # rounded after that direct pass, so the two never hold memory at once;
    # C-contiguous float32 rows are their own rounding
    with np.errstate(over="ignore"):
        rounded = np.ascontiguousarray(features, dtype=np.float32)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            chosen[i] = rng.choice(n, p=d2 / total)
        else:
            # all remaining mass at distance zero (duplicate points): uniform
            chosen[i] = rng.integers(0, n)
        _lower_to_seed(features, xx, d2, features[chosen[i]].astype(np.float64), rounded)
    return features[chosen].astype(np.float64)


def _rows(features: np.ndarray) -> np.ndarray:
    """``features`` under the module's input rule: 2-D, float32 as given or
    else float64, and C-contiguous, so that the direct sums add each row in
    the same order whatever the caller's layout."""
    feats = np.asarray(features)
    if feats.ndim != 2:
        raise QuantizeError(f"features must be 2-D, got shape {feats.shape}")
    return np.ascontiguousarray(
        feats, dtype=np.float32 if feats.dtype == np.float32 else np.float64)


def kmeans_fit(features: np.ndarray, k: int, seed: int,
               max_iters: int = 100, tol: float = 1e-6,
               threads: int = 1) -> Codebook:
    """Fit a k-means codebook (k-means++ init, Lloyd iterations).

    Stops when the max centroid L2 displacement falls below ``tol`` or
    after ``max_iters`` iterations. The recorded inertia sequence (one
    entry per assignment step) is non-increasing. Features follow the
    module's input rule, so float32 rows are read in place; they must be
    finite and within the float32 range, as centroids are means of rows and
    are stored as float32.
    """
    if not tol >= 0:  # NaN fails too
        raise QuantizeError(f"tol must be >= 0, got {tol}")
    if max_iters < 0:
        raise QuantizeError(f"max_iters must be >= 0, got {max_iters}")
    feats = _rows(features)
    # a NaN or an infinity anywhere shows in the max or the min
    hi, lo = float(feats.max(initial=0.0)), float(feats.min(initial=0.0))
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise QuantizeError("features contain non-finite values")
    f32_max = float(np.finfo(np.float32).max)
    if hi > f32_max or lo < -f32_max:
        raise QuantizeError(
            f"features exceed the float32 range [-{f32_max:.6g}, {f32_max:.6g}] "
            "of the codebook")
    n, dim = feats.shape
    if k < 1:
        raise QuantizeError(f"k must be >= 1, got {k}")
    if n < k:
        raise QuantizeError(f"insufficient data: {n} rows for k={k}")

    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(feats, k, rng)
    history: list[float] = []
    iters = 0
    for _ in range(max_iters):
        labels = _nearest(feats, _Screen.of(centroids), threads)
        d2 = _direct_d2(feats, centroids, cols=labels)
        history.append(float(d2.sum()))
        iters += 1

        # the additions of np.add.at(sums, labels, feats), in the same order
        sums = np.zeros((k, dim))
        sum_rows = list(sums)  # views: each += adds into sums in place
        for row, label in zip(feats, labels.tolist()):
            sum_rows[label] += row
        counts = np.bincount(labels, minlength=k)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

        # reseed empty clusters from the points currently worst served
        empty = np.flatnonzero(~nonempty)
        for j in empty:
            far = int(d2.argmax())
            new_centroids[j] = feats[far]
            d2[far] = -np.inf

        movement = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if movement < tol:
            break

    d2 = _direct_d2(feats, centroids, cols=_nearest(feats, _Screen.of(centroids), threads))
    history.append(float(d2.sum()))
    return Codebook(k=k, dim=dim, centroids=centroids.astype(np.float32),
                    seed=seed, iters_run=iters, inertia_history=tuple(history))


def assign_units(codebook: Codebook, features: np.ndarray, threads: int = 1) -> UnitSequence:
    """Quantize each feature row to its nearest centroid (lowest index on ties).

    Features follow the module's input rule, so float32 rows are read in place.
    """
    feats = _rows(features)
    if feats.shape[1] != codebook.dim:
        raise QuantizeError(f"feature dim {feats.shape[1]} != codebook dim {codebook.dim}")
    labels = _nearest(feats, codebook._screen, threads)
    return UnitSequence(vocab_size=codebook.k, units=labels.tolist())


def _run_heads(units: tuple[int, ...]) -> Iterator[int]:
    """The first unit of each run of equal adjacent units."""
    return compress(units, map(ne, units, (None, *units)))


def dedup_units(seq: UnitSequence) -> UnitSequence:
    """Collapse each run of equal adjacent units to its first element."""
    return UnitSequence(vocab_size=seq.vocab_size, units=tuple(_run_heads(seq.units)))


def ctc_collapse(frame_labels: Sequence[int], blank: int,
                 vocab_size: int | None = None) -> UnitSequence:
    """Greedy CTC path collapse: merge repeats, then delete blank symbols. The
    vocabulary defaults to the smallest that holds the labels and ``blank``."""
    labels = as_units(frame_labels)
    if vocab_size is None:
        vocab_size = max(max(labels, default=0), blank) + 1
    if not 0 <= blank < vocab_size:
        raise QuantizeError(f"blank {blank} out of range [0, {vocab_size})")
    # collapsing drops only the in-range blank, so the check names the first bad label
    return UnitSequence(vocab_size=vocab_size,
                        units=tuple(u for u in _run_heads(labels) if u != blank))


def write_codebook(codebook: Codebook, path: str | Path) -> None:
    """EMB1 centroid matrix plus a one-line JSON sidecar at ``<path>.meta.jsonl``."""
    embed.write_embeddings(embed.EmbeddingMatrix(data=codebook.centroids), path)
    meta = {
        "k": codebook.k,
        "dim": codebook.dim,
        "seed": codebook.seed,
        "iters_run": codebook.iters_run,
        "final_inertia": codebook.final_inertia,
    }
    write_file(f"{path}.meta.jsonl", json.dumps(meta) + "\n")


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


# the sidecar's optional fields: what each must hold, and its test
_SIDECAR_FIELDS = {
    "seed": ("an integer", _is_int),
    "iters_run": ("an integer >= 0 or null", lambda v: v is None or _is_int(v) and v >= 0),
    # abs(v) <= max fails for NaN, infinities and ints too large for a float
    "final_inertia": ("a finite number or null", lambda v: v is None or (
        _is_int(v) or type(v) is float) and abs(v) <= sys.float_info.max),
}


def read_codebook(path: str | Path) -> Codebook:
    path = Path(path)
    matrix = embed.read_embeddings(path)
    meta_path = Path(str(path) + ".meta.jsonl")
    seed = 0
    iters_run = None
    final_inertia = None
    if meta_path.exists():
        with numbered(meta_path, QuantizeError) as lines:
            first = next(lines, None)
        if first is None:
            raise QuantizeError(f"codebook sidecar {meta_path} is empty")
        try:
            meta = json.loads(first)
        except json.JSONDecodeError:
            meta = None
        if not isinstance(meta, dict):
            raise QuantizeError(f"codebook sidecar {meta_path} does not hold a JSON object")
        if meta.get("k") != matrix.rows or meta.get("dim") != matrix.dim:
            raise QuantizeError(
                f"sidecar k/dim {meta.get('k')}x{meta.get('dim')} does not match "
                f"matrix {matrix.rows}x{matrix.dim}")
        for key, (want, valid) in _SIDECAR_FIELDS.items():
            if key in meta and not valid(meta[key]):
                raise QuantizeError(
                    f"codebook sidecar {meta_path}: {key!r} must be {want}, got {meta[key]!r}")
        seed = meta.get("seed", 0)
        iters_run = meta.get("iters_run")
        final_inertia = meta.get("final_inertia")
    history = (float(final_inertia),) if final_inertia is not None else None
    return Codebook(k=matrix.rows, dim=matrix.dim, centroids=matrix.data,
                    seed=seed, iters_run=iters_run, inertia_history=history)


def read_unit_lines(path: str | Path, vocab_size: int | None = None) -> list[UnitSequence]:
    """Read one unit sequence per line (``corpus.parse_units``). The vocabulary
    defaults to the smallest that holds every id in the file. An unparsable
    token or an id out of range raises ``QuantizeError`` naming ``PATH:LINE``."""
    with numbered(path, QuantizeError) as lines:
        parsed = list(map(parse_units, lines))
    if vocab_size is None:
        vocab_size = max((max(units) for units in parsed if units), default=0) + 1
    with numbered(path, QuantizeError, parsed) as lines:
        return list(map(partial(UnitSequence, vocab_size), lines))


def write_unit_lines(sequences: Iterable[UnitSequence], path: str | Path) -> None:
    lines = (join_units(seq.units) for seq in sequences)
    write_file(path, join_lines(lines, QuantizeError))
