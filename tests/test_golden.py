"""SHA-256 digests pinning the CLI outputs that no BLAS or numpy math computes.

The pinned commands come from ``cli_command_matrix``. Their inputs are the
workspace files that ``build_cli_workspace`` writes without its RNG, and their
outputs are pure Python, so a digest moves only when the program's bytes do.
Outputs that go through BLAS, ``np.log`` or ``np.exp`` (quantize, embed,
``mine run``, ``simsearch-eval``, ``balance``) are guarded by the oracles of
``test_acceptance.py`` instead.

A change that alters a pinned output on purpose rewrites the table with

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from conftest import build_cli_workspace, cli_command_matrix
from unitforge.cli import dispatch

GOLDEN = Path(__file__).parent / "data" / "golden.json"
PINNED = ("manifest-stats", "manifest-convert", "manifest-convert-back", "units-dedup",
          "units-ctc", "mine-filter-overlap", "bleu", "asr-bleu", "cascade-run")


def digests(root: Path, threads: int) -> dict[str, str]:
    """Run the pinned commands under ``root``; the SHA-256 of each file they write."""
    paths = build_cli_workspace(root / "inputs")
    out = root / "out"
    out.mkdir()
    for name, argv in cli_command_matrix(paths, out):
        if name in PINNED:
            assert dispatch(argv + ["--threads", str(threads)]) == 0, name
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("threads", [1, 8])
def test_pinned_outputs_match_their_digests(tmp_path, monkeypatch, threads):
    monkeypatch.delenv("UNITFORGE_CACHE_DIR", raising=False)
    assert digests(tmp_path, threads) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp), threads=1)
    GOLDEN.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
