"""The shared atomic writer and every writer built on it.

Each writer is run over an existing file and made to fail part way: by a
lone surrogate in a text field (UTF-8 cannot encode it), or in a child
process whose file-size limit (RLIMIT_FSIZE, with SIGXFSZ ignored) is
smaller than the new contents. The old bytes must survive, and no
temporary file may be left beside them.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import unitforge
from unitforge import corpus, fileio
from unitforge.cli import dispatch
from unitforge.corpus import Manifest, Utterance, write_manifest
from unitforge.embed import EmbeddingMatrix, write_embeddings
from unitforge.mine import MinedPair, write_pairs

SRC = Path(unitforge.__file__).resolve().parent.parent
OLD = b"old bytes\n"
LONE = "bad \ud800"


def plant(directory: Path, *names: str) -> dict[str, bytes]:
    """Write OLD (tagged by name) to each file; return the directory snapshot."""
    directory.mkdir(parents=True, exist_ok=True)
    for name in names:
        (directory / name).write_bytes(OLD + name.encode())
    return snapshot(directory)


def snapshot(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def run_capped(code: str, limit: int = 4096) -> subprocess.CompletedProcess:
    """Run ``code`` in a child whose writes may not pass ``limit`` bytes."""
    prelude = textwrap.dedent(f"""\
        import resource, signal
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))
        """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env)


capped = pytest.mark.skipif(not sys.platform.startswith("linux"),
                            reason="relies on Linux RLIMIT_FSIZE semantics")


class TestWriteFile:
    def test_parts_concatenated_without_translation(self, tmp_path):
        path = tmp_path / "out.bin"
        fileio.write_file(path, "a\r\nä\n", b"\x00\xff", np.array([1.0], dtype="<f4"))
        assert path.read_bytes() == "a\r\nä\n".encode() + b"\x00\xff" + b"\x00\x00\x80\x3f"
        assert snapshot(tmp_path).keys() == {"out.bin"}

    def test_replaces_existing_file(self, tmp_path):
        plant(tmp_path, "out.txt")
        fileio.write_file(str(tmp_path / "out.txt"), "new")
        assert snapshot(tmp_path) == {"out.txt": b"new"}

    def test_failure_keeps_old_bytes_and_removes_temp(self, tmp_path):
        before = plant(tmp_path, "out.txt")
        with pytest.raises(UnicodeEncodeError):
            fileio.write_file(tmp_path / "out.txt", "fine ", LONE)
        with pytest.raises(TypeError):
            fileio.write_file(tmp_path / "out.txt", "fine ", 42)
        assert snapshot(tmp_path) == before

    def test_temp_is_hidden_sibling(self, tmp_path, monkeypatch):
        seen = []

        def refuse(src, dst):
            seen.append((src, dst))
            raise OSError("refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            fileio.write_file(tmp_path / "out.tsv", "x")
        (src, dst), = seen
        assert os.path.dirname(src) == str(tmp_path)
        assert re.fullmatch(r"\.out\.tsv\.[0-9a-f]+\.tmp", os.path.basename(src))
        assert dst == str(tmp_path / "out.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_mode_matches_plain_open(self, tmp_path):
        with open(tmp_path / "sibling", "w"):
            pass
        fileio.write_file(tmp_path / "new", "x")
        plant(tmp_path, "old")
        os.chmod(tmp_path / "old", 0o600)
        fileio.write_file(tmp_path / "old", "x")
        want = (tmp_path / "sibling").stat().st_mode
        assert (tmp_path / "new").stat().st_mode == want
        assert (tmp_path / "old").stat().st_mode == want

    def test_symlink_replaced_by_regular_file(self, tmp_path):
        plant(tmp_path, "target")
        (tmp_path / "link").symlink_to(tmp_path / "target")
        fileio.write_file(tmp_path / "link", "new")
        assert not (tmp_path / "link").is_symlink()
        assert (tmp_path / "link").read_bytes() == b"new"
        assert (tmp_path / "target").read_bytes() == OLD + b"target"

    def test_missing_directory_raises(self, tmp_path):
        target = tmp_path / "nowhere" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            fileio.write_file(target, "x")
        assert info.value.filename == str(target)
        assert list(tmp_path.iterdir()) == []

    def test_only_writer_opens_files_for_writing(self):
        pattern = re.compile(r"write_text|write_bytes|mkstemp|open\(.*['\"][wax]b?['\"]")
        hits = [f"{path.name}:{n}" for path in sorted((SRC / "unitforge").glob("*.py"))
                for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                if pattern.search(line) and path.name != "fileio.py"]
        assert hits == []


class TestWritersKeepOldFileOnFailure:
    def test_manifest_tsv_and_jsonl(self, tmp_path):
        before = plant(tmp_path, "m.tsv", "m.jsonl")
        bad = Manifest(records=(Utterance(id="a", text="fine"), Utterance(id="b", text=LONE)))
        for name in ("m.tsv", "m.jsonl"):
            with pytest.raises(UnicodeEncodeError):
                write_manifest(bad, tmp_path / name)
        assert snapshot(tmp_path) == before

    def test_pairs(self, tmp_path):
        before = plant(tmp_path, "pairs.tsv")
        pairs = [MinedPair(src_id="s", tgt_id="t", score=1.0),
                 MinedPair(src_id=LONE, tgt_id="u", score=0.5)]
        with pytest.raises(UnicodeEncodeError):
            write_pairs(pairs, tmp_path / "pairs.tsv")
        assert snapshot(tmp_path) == before

    def test_embeddings_with_unencodable_id(self, tmp_path):
        before = plant(tmp_path, "x.emb", "x.emb.ids")
        matrix = EmbeddingMatrix(data=np.ones((2, 3), dtype=np.float32), ids=("a", LONE))
        with pytest.raises(UnicodeEncodeError):
            write_embeddings(matrix, tmp_path / "x.emb")
        assert snapshot(tmp_path) == before

    @capped
    def test_embeddings_over_size_limit(self, tmp_path):
        before = plant(tmp_path, "x.emb", "x.emb.ids")
        proc = run_capped(f"""
            import numpy as np
            from unitforge.embed import EmbeddingMatrix, write_embeddings
            ids = tuple(f"r{{i}}" for i in range(2000))
            write_embeddings(EmbeddingMatrix(data=np.ones((2000, 16), "f4"), ids=ids),
                             {str(tmp_path / "x.emb")!r})
            """)
        assert proc.returncode != 0 and "File too large" in proc.stderr, proc.stderr
        assert snapshot(tmp_path) == before

    @capped
    def test_unit_lines_over_size_limit(self, tmp_path):
        before = plant(tmp_path, "units.txt")
        proc = run_capped(f"""
            from unitforge.quantize import UnitSequence, write_unit_lines
            seqs = [UnitSequence(vocab_size=1000, units=range(1000))] * 20
            write_unit_lines(seqs, {str(tmp_path / "units.txt")!r})
            """)
        assert proc.returncode != 0 and "File too large" in proc.stderr, proc.stderr
        assert snapshot(tmp_path) == before

    @capped
    def test_codebook_over_size_limit(self, tmp_path):
        before = plant(tmp_path, "cb.emb", "cb.emb.meta.jsonl")
        proc = run_capped(f"""
            import numpy as np
            from unitforge.quantize import Codebook, write_codebook
            cb = Codebook(k=100, dim=64, centroids=np.ones((100, 64), "f4"), seed=0)
            write_codebook(cb, {str(tmp_path / "cb.emb")!r})
            """)
        assert proc.returncode != 0 and "File too large" in proc.stderr, proc.stderr
        assert snapshot(tmp_path) == before


class TestCliKeepsOldFileOnFailure:
    def test_manifest_convert_unencodable_text(self, tmp_path, capsys):
        src = tmp_path / "in" / "bad.jsonl"
        src.parent.mkdir()
        src.write_text('{"id": "u1", "text": "bad \\ud800"}\n', encoding="utf-8")
        before = plant(tmp_path / "out", "out.tsv")
        code = dispatch(["manifest", "convert", "--in", str(src),
                         "--out", str(tmp_path / "out" / "out.tsv")])
        assert code == 1
        assert "unitforge: error:" in capsys.readouterr().err
        assert snapshot(tmp_path / "out") == before

    @pytest.mark.parametrize("key", ["x\\ty", "x\\ny", "x\\r"])
    def test_manifest_convert_refuses_a_tsv_header_key(self, tmp_path, capsys, key):
        # the header key would split into columns or lines the reader then rejects;
        # the last key ends the line, so a CR there would be lost
        src = tmp_path / "in" / "m.jsonl"
        src.parent.mkdir()
        src.write_text(f'{{"id": "a", "{key}": "v"}}\n', encoding="utf-8")
        before = plant(tmp_path / "out", "out.tsv")
        code = dispatch(["manifest", "convert", "--in", str(src),
                         "--out", str(tmp_path / "out" / "out.tsv")])
        assert code == 1
        assert "line 1, column " in capsys.readouterr().err
        assert snapshot(tmp_path / "out") == before

    def test_balance_refuses_a_schedule_id_before_any_write(self, tmp_path, capsys):
        # the id "ab\r" would be written as "ab\r\n" and read back as "ab"
        (tmp_path / "counts.tsv").write_bytes(b"en\t5\n")
        (tmp_path / "pools.tsv").write_bytes(b"en\tab\r\r\n")
        before = plant(tmp_path / "out")
        code = dispatch(["balance", "--counts", str(tmp_path / "counts.tsv"),
                         "--temperature", "1", "--pools", str(tmp_path / "pools.tsv"),
                         "--total", "4", "--out", str(tmp_path / "out" / "dist.json"),
                         "--schedule-out", str(tmp_path / "out" / "s.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 1: 'ab\\r' holds a line break" in err and "wrote" not in err
        assert snapshot(tmp_path / "out") == before == {}

    def test_json_report_unencodable_key(self, tmp_path):
        src = tmp_path / "in" / "m.jsonl"
        src.parent.mkdir()
        src.write_text('{"id": "u1", "lang": "\\ud800"}\n', encoding="utf-8")
        before = plant(tmp_path / "out", "stats.json")
        code = dispatch(["manifest", "stats", "--in", str(src),
                         "--out", str(tmp_path / "out" / "stats.json")])
        assert code == 1
        assert snapshot(tmp_path / "out") == before


def test_tsv_bytes_pinned(tmp_path):
    # every field through corpus.get_field, including extras in sorted order
    records = (
        Utterance(id="a", lang="hok", audio_ref="wav/ä.wav", duration_s=1e-7,
                  speaker="s1", text="Tâi-lô 你好", units=(0, 2499),
                  extra={"zh": "你好", "b": "x"}),
        Utterance(id="b", duration_s=3, units=()),
        Utterance(id="c", duration_s=0.1, text="", extra={"b": ""}),
    )
    write_manifest(Manifest(records=records), tmp_path / "m.tsv")
    assert (tmp_path / "m.tsv").read_text(encoding="utf-8") == (
        "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\tb\tzh\n"
        "a\thok\twav/ä.wav\t1e-07\ts1\tTâi-lô 你好\t0 2499\tx\t你好\n"
        "b\t\t\t3.0\t\t\t\t\t\n"
        "c\t\t\t0.1\t\t\t\t\t\n")
    assert corpus.get_field(records[0], "duration_s") == "1e-07"
    from unitforge.cascade import get_field
    assert get_field is corpus.get_field
