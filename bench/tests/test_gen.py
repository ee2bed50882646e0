"""Generator determinism and span self-time tests.

Run from the repository root: python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("size", ["tiny", "full"])
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_bytes(tmp_path, workload, size):
    gen.generate(workload, 7, tmp_path / "a", size)
    gen.generate(workload, 7, tmp_path / "b", size)
    gen.generate(workload, 8, tmp_path / "c", size)
    first, again, other = (_files(tmp_path / d) for d in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def test_input_sizes_do_not_depend_on_the_seed(tmp_path):
    import json
    for seed in (1, 2):
        gen.generate("units", seed, tmp_path / str(seed), "tiny")
    a, b = (json.loads((tmp_path / s / "inputs.json").read_text()) for s in "12")
    assert (a["frames"], a["utterances"]) == (b["frames"], b["utterances"])


def test_self_time_subtracts_child_spans():
    # parent [0, 10] with children [1, 3] and [2, 6] (overlapping) and [8, 12] (clipped)
    spans = [["parent", 0.0, 10.0, None, "op"],
             ["child", 1.0, 3.0, 0, "op"],
             ["child", 2.0, 6.0, 0, "op"],
             ["child", 8.0, 12.0, 0, "op"]]
    totals = self_times(spans)
    assert totals["parent"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["child"] == pytest.approx(2.0 + 4.0 + 4.0)
    assert self_times(spans, first=2) == {"child": pytest.approx(8.0)}


def test_tracer_records_nesting_and_peaks():
    tr = Tracer(enabled=True)
    tr.op = "0:0"
    with tr.span("op"):
        tr.call("inner", lambda: bytearray(1 << 20), peak=True)
    (outer, inner) = tr.spans
    assert inner[3] == 0 and outer[3] is None and inner[4] == "0:0"
    assert tr.peak_bytes["inner"] >= 1 << 20

    off = Tracer(enabled=False)
    assert off.call("x", lambda v: v + 1, 1) == 2 and off.spans == []
