"""The one line rule (``fileio.read_lines``, ``fileio.join_lines``) and
every reader and writer built on it.

A line ends at ``\\n`` or ``\\r\\n`` and nowhere else, so U+2028, U+0085,
``\\v``, ``\\f`` and a lone ``\\r`` are data. Each format must read back a
field that holds them, and LF and CRLF files must read alike. A writer
joins lines the way the reader splits them and refuses a line it cannot
give back: one holding ``\\n`` or ending with ``\\r``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import GeneratorType

import numpy as np
import pytest

import unitforge
from unitforge import cli, evalbleu, fileio
from unitforge.balance import (BalanceError, read_counts_tsv, read_pools_tsv,
                               sample_schedule, temperature_distribution)
from unitforge.cascade import Adapter, CascadeError, PipelineSpec, make_adapter
from unitforge.cli import dispatch
from unitforge.corpus import (Manifest, ManifestError, Segment, Utterance, read_manifest,
                              write_manifest)
from unitforge.embed import EmbeddingError, EmbeddingMatrix, read_embeddings, write_embeddings
from unitforge.mine import MinedPair, MiningError, read_pairs, write_pairs
from unitforge.quantize import (Codebook, QuantizeError, read_codebook, read_unit_lines,
                                write_codebook)

SRC = Path(unitforge.__file__).resolve().parent
# every character that str.splitlines() or universal newlines took for a line end
DATA = "a\u2028b\x85c\vd\fe\rf"


def put(path: Path, text: str) -> Path:
    path.write_bytes(text.encode("utf-8"))
    return path


class TestRule:
    @pytest.mark.parametrize("text, lines", [
        ("", []),
        ("\n", [""]),
        ("a", ["a"]),
        ("a\nb\n", ["a", "b"]),
        ("a\r\nb\r\n", ["a", "b"]),
        ("a\nb", ["a", "b"]),
        ("a\n\n", ["a", ""]),
        ("a\r\r\nb\r", ["a\r", "b\r"]),
        (f"{DATA}\n{DATA}", [DATA, DATA]),
    ])
    def test_file_and_text_split_alike(self, tmp_path, text, lines):
        assert list(fileio.read_lines(put(tmp_path / "f.txt", text))) == lines
        assert fileio.split_lines(text) == lines

    def test_lines_are_streamed(self, tmp_path):
        lines = fileio.read_lines(put(tmp_path / "f.txt", "a\nb\n"))
        assert isinstance(lines, GeneratorType)
        assert next(lines) == "a"

    def test_strict_utf8(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xff\n")
        with pytest.raises(UnicodeDecodeError):
            list(fileio.read_lines(path))

    def test_only_fileio_splits_text_or_passes_text_to_a_child(self):
        pattern = re.compile(r'splitlines\(|newline=|text=True|"\\n"\.join\(')
        hits = [f"{path.name}:{n}" for path in sorted(SRC.glob("*.py"))
                for n, line in enumerate(fileio.read_lines(path), 1)
                if pattern.search(line) and path.name != "fileio.py"]
        assert hits == []


class TestJoin:
    @pytest.mark.parametrize("lines", [
        [], [""], ["", ""], ["a"], [DATA], ["a", "", "b c"], [DATA, "\u2028", "\x85"],
        ["\v", "\f", "tab\there"],
    ])
    def test_split_gives_the_lines_back(self, tmp_path, lines):
        text = fileio.join_lines(iter(lines), ValueError)
        assert fileio.split_lines(text) == lines
        assert list(fileio.read_lines(put(tmp_path / "f.txt", text))) == lines

    def test_each_line_ends_with_lf(self):
        assert fileio.join_lines([], ValueError) == ""
        assert fileio.join_lines([""], ValueError) == "\n"
        assert fileio.join_lines(["a", "b"], ValueError) == "a\nb\n"

    @pytest.mark.parametrize("bad", ["x\ny", "\r", "x\r", "\r\n", "\n"])
    def test_line_break_refused_naming_the_line(self, bad):
        with pytest.raises(BalanceError) as info:
            fileio.join_lines(["ok", "fine", bad, "z\nz"], BalanceError)
        assert str(info.value) == f"line 3: {bad!r} holds a line break"

    def test_rows_split_back_into_cells(self):
        header, rows = ("id", "text"), [("a", DATA), ("b", ""), ("c", "x y")]
        text = fileio.join_rows(header, iter(rows), ValueError)
        assert text == f"id\ttext\na\t{DATA}\nb\t\nc\tx y\n"
        assert [tuple(line.split("\t")) for line in fileio.split_lines(text)] == [header, *rows]
        assert fileio.join_rows(("id",), [], ValueError) == "id\n"

    @pytest.mark.parametrize("rows, line, column, cell", [
        ([("a", "b", "c"), ("d", "e\tf", "g")], 3, "y", "e\tf"),
        ([("a", "b", "c\n")], 2, "z", "c\n"),
        ([("a", "b", "c\r")], 2, "z", "c\r"),  # a CR the reader would take with the LF
        ([("a\tb", "c")], 2, "x", "a\tb"),  # a tab that would make up a missing cell
    ])
    def test_bad_cell_refused_naming_line_and_column(self, rows, line, column, cell):
        with pytest.raises(CascadeError) as info:
            fileio.join_rows(("x", "y", "z"), rows, CascadeError)
        assert str(info.value) == (
            f"line {line}, column {column!r}: {cell!r} holds a tab or a line break")

    @pytest.mark.parametrize("name", ["y\tz", "y\nz", "y\r", "\t"])
    def test_bad_header_name_refused(self, name):
        with pytest.raises(ValueError) as info:
            fileio.join_rows(("x", name), [("a", "b")], ValueError)
        assert str(info.value) == (
            f"line 1, column {name!r}: {name!r} holds a tab or a line break")


class TestTwoColumns:
    @pytest.mark.parametrize("read, error", [
        (read_counts_tsv, BalanceError),
        (read_pools_tsv, BalanceError),
        (Adapter._load_table, CascadeError),
    ])
    def test_one_message_each_module_its_error(self, tmp_path, read, error):
        path = put(tmp_path / "t.tsv", "en\t1\n \t\n\nen\t2\tx\n")
        with pytest.raises(error, match=re.escape(
                f"{path}:4: expected 2 tab-separated columns, got 3")):
            read(path)

    def test_gold_message(self, tmp_path, capsys):
        side = tmp_path / "s.emb"
        write_embeddings(EmbeddingMatrix(data=np.eye(2, dtype=np.float32), ids=("a", "b")), side)
        gold = put(tmp_path / "gold.tsv", "a\ta\nb\n")
        assert dispatch(["mine", "simsearch-eval", "--audio", str(side), "--text", str(side),
                         "--gold", str(gold), "--out", str(tmp_path / "sim.json")]) == 1
        assert f"{gold}:2: expected 2 tab-separated columns, got 1" in capsys.readouterr().err

    def test_whitespace_only_lines_skipped(self, tmp_path):
        path = put(tmp_path / "t.tsv", "  \n\u2028\nen\tx\n\t \n\ty\n")
        with fileio.numbered(path, ValueError) as lines:
            assert list(fileio.two_columns(lines)) == [("en", "x"), ("", "y")]


class TestRoundTrip:
    """A field holding ``DATA`` through every format that can hold it."""

    def test_manifest_tsv_and_jsonl(self, tmp_path):
        for name in ("m.tsv", "m.jsonl"):
            m = Manifest(records=(
                Utterance(id=f"u{DATA}", lang="en", speaker=DATA, text=DATA,
                          extra={"note": DATA}),
                Utterance(id="u2", text="plain")))
            write_manifest(m, tmp_path / name)
            assert read_manifest(tmp_path / name) == m

    def test_embedding_ids(self, tmp_path):
        m = EmbeddingMatrix(data=np.zeros((3, 2), np.float32), ids=(DATA, "c", f"x{DATA}"))
        write_embeddings(m, tmp_path / "x.emb")
        assert read_embeddings(tmp_path / "x.emb").ids == m.ids

    def test_pairs_ids(self, tmp_path):
        pairs = [MinedPair(DATA, f"t{DATA}", 1.5, src_segment=Segment(DATA, 0.0, 1.0)),
                 MinedPair("s", "t", 0.5, tgt_segment=Segment(f"A{DATA}", 2.0, 3.0))]
        write_pairs(pairs, tmp_path / "p.tsv")
        assert read_pairs(tmp_path / "p.tsv") == pairs

    def test_pools_ids(self, tmp_path):
        path = tmp_path / "pools.tsv"
        fileio.write_file(path, f"en\t{DATA}\nen\te1\nhok\t{DATA}\n")
        assert read_pools_tsv(path) == {"en": [DATA, "e1"], "hok": [DATA]}

    def test_schedule_ids(self, tmp_path):
        pools = {"en": [DATA, "e1"], "hok": [f"h{DATA}"]}
        fileio.write_file(tmp_path / "pools.tsv",
                          "".join(f"{lang}\t{i}\n" for lang, ids in pools.items() for i in ids))
        fileio.write_file(tmp_path / "counts.tsv", "en\t9\nhok\t1\n")
        assert dispatch(["balance", "--counts", str(tmp_path / "counts.tsv"),
                         "--temperature", "2", "--out", str(tmp_path / "dist.json"),
                         "--pools", str(tmp_path / "pools.tsv"), "--total", "12",
                         "--seed", "3", "--schedule-out", str(tmp_path / "s.txt")]) == 0
        want = sample_schedule(temperature_distribution(read_counts_tsv(
            tmp_path / "counts.tsv"), 2.0), pools, total=12, seed=3)
        assert {DATA, f"h{DATA}"} <= set(want)
        assert list(fileio.read_lines(tmp_path / "s.txt")) == want

    def test_manifest_convert_keeps_a_cr_inside_a_cell(self, tmp_path):
        src = put(tmp_path / "m.tsv", "id\ttext\tspeaker\nu1\ta\rb\ts\rt\n")
        for name in ("out.tsv", "out.jsonl"):
            assert dispatch(["manifest", "convert", "--in", str(src),
                             "--out", str(tmp_path / name)]) == 0
            got = read_manifest(tmp_path / name)
            assert got == read_manifest(src)
            assert [(r.text, r.speaker) for r in got] == [("a\rb", "s\rt")]

    def test_gold_ids(self, tmp_path):
        ids = (DATA, f"b{DATA}", "c")
        for name in ("audio.emb", "text.emb"):
            write_embeddings(EmbeddingMatrix(data=np.eye(3, dtype=np.float32), ids=ids),
                             tmp_path / name)
        fileio.write_file(tmp_path / "gold.tsv", "".join(f"{i}\t{i}\n" for i in ids))
        assert dispatch(["mine", "simsearch-eval", "--audio", str(tmp_path / "audio.emb"),
                         "--text", str(tmp_path / "text.emb"), "--gold",
                         str(tmp_path / "gold.tsv"), "--out", str(tmp_path / "sim.json")]) == 0
        report = json.loads((tmp_path / "sim.json").read_text(encoding="utf-8"))
        assert report["total"] == 3 and report["errors"] == 0

    def test_mock_table_keys_and_values(self, tmp_path):
        table = tmp_path / "table.tsv"
        fileio.write_file(table, f"{DATA}\t{DATA}\nk\tv{DATA}\n")
        assert Adapter._load_table(table) == {DATA: DATA, "k": f"v{DATA}"}
        adapter = make_adapter("mt", "tab", f"mock:{table}")
        # an output may hold a CR, but an input holding one is never sent
        assert adapter.try_run(["k", DATA]) == [f"v{DATA}", None]

    def test_bleu_lines(self, tmp_path):
        hyps = [f"the {DATA} cat", "a second line"]
        refs = [f"the {DATA} dog", "a second line"]
        for name, lines in (("hyp.txt", hyps), ("ref.txt", refs)):
            fileio.write_file(tmp_path / name, "".join(f"{line}\n" for line in lines))
        assert dispatch(["bleu", "--hyp", str(tmp_path / "hyp.txt"), "--ref",
                         str(tmp_path / "ref.txt"), "--out", str(tmp_path / "bleu.json")]) == 0
        want = evalbleu.corpus_bleu(evalbleu.tokenize_corpus(hyps, "word13a"),
                                    evalbleu.tokenize_corpus(refs, "word13a"))
        assert json.loads((tmp_path / "bleu.json").read_text(encoding="utf-8")) == json.loads(
            json.dumps(want.to_dict()))


def _cli(tmp: Path, argv: list[str], out: str) -> str:
    assert dispatch(argv + ["--out", str(tmp / out)]) == 0
    return (tmp / out).read_text(encoding="utf-8")


def _emb(tmp: Path, name: str, ids: tuple[str, ...]) -> Path:
    path = tmp / name
    write_embeddings(EmbeddingMatrix(data=np.eye(len(ids), dtype=np.float32), ids=ids), path)
    return path


def _embedding_ids(tmp: Path, text: str):
    path = _emb(tmp, "x.emb", ("x", "y", "z"))
    put(Path(f"{path}.ids"), text)
    return read_embeddings(path).ids


def _gold(tmp: Path, text: str):
    argv = ["mine", "simsearch-eval", "--audio", str(_emb(tmp, "audio.emb", ("a0", "a1"))),
            "--text", str(_emb(tmp, "text.emb", ("t0", "t1"))),
            "--gold", str(put(tmp / "gold.tsv", text))]
    return json.loads(_cli(tmp, argv, "sim.json"))["errors"]


PAIRS_TSV = ("score\tsrc_id\ttgt_id\tsrc_audio\tsrc_start\tsrc_end\ttgt_audio\ttgt_start\ttgt_end\n"
             "1.25\ts1\tt1\tA\t0.0\t2.0\t\t\t\n0.5\ts2\tt2\t\t\t\t\t\t\n")
# each reader that split with str.splitlines(): (input, read(dir, input), result)
READERS = {
    "counts": ("lang\tn\nen\t900\n\nhok\t100\n",
               lambda tmp, text: read_counts_tsv(put(tmp / "c.tsv", text)).entries,
               (("en", 900.0), ("hok", 100.0))),
    "pools": ("en\te0\nen\te1\n \nhok\th0\n",
              lambda tmp, text: read_pools_tsv(put(tmp / "p.tsv", text)),
              {"en": ["e0", "e1"], "hok": ["h0"]}),
    "mock table": ("hi\tHI\n\nbye\t\n",
                   lambda tmp, text: Adapter._load_table(put(tmp / "t.tsv", text)),
                   {"hi": "HI", "bye": ""}),
    "pairs": (PAIRS_TSV, lambda tmp, text: read_pairs(put(tmp / "p.tsv", text)),
              [MinedPair("s1", "t1", 1.25, src_segment=Segment("A", 0.0, 2.0)),
               MinedPair("s2", "t2", 0.5)]),
    "unit lines": ("1 2 2\n\n3\n",
                   lambda tmp, text: [s.units for s in read_unit_lines(put(tmp / "u.txt", text))],
                   [(1, 2, 2), (), (3,)]),
    "embedding ids": ("a\nb b\n\n", _embedding_ids, ("a", "b b", "")),
    "gold": ("a0\tt0\n\na1\tt1\n", _gold, 0),
    "bleu": ("the cat sat\n\na mat\n", lambda tmp, text: json.loads(_cli(
        tmp, ["bleu", "--hyp", str(put(tmp / "h.txt", text)), "--ref", str(tmp / "h.txt")],
        "bleu.json"))["hyp_len"], 5),
    "ctc collapse": ("0 1 1 0 2\n\n3 3\n", lambda tmp, text: _cli(
        tmp, ["units", "ctc-collapse", "--blank", "0", "--in", str(put(tmp / "u.txt", text))],
        "ctc.txt"), "1 2\n\n3\n"),
}


class TestLfAndCrlf:
    @pytest.mark.parametrize("name", READERS)
    def test_read_alike(self, tmp_path, name):
        text, read, want = READERS[name]
        (tmp_path / "lf").mkdir()
        (tmp_path / "crlf").mkdir()
        assert read(tmp_path / "lf", text) == want
        assert read(tmp_path / "crlf", text.replace("\n", "\r\n")) == want

    def test_codebook_sidecar(self, tmp_path):
        got = []
        for end in ("\n", "\r\n"):
            path = tmp_path / f"cb{len(end)}.emb"
            write_codebook(Codebook(k=2, dim=2, centroids=np.eye(2, dtype=np.float32),
                                    seed=3, iters_run=1, inertia_history=(0.5,)), path)
            meta = Path(f"{path}.meta.jsonl")
            put(meta, meta.read_text(encoding="utf-8").replace("\n", end))
            cb = read_codebook(path)
            got.append((cb.seed, cb.iters_run, cb.inertia_history))
        assert got == [(3, 1, (0.5,))] * 2

    def test_manifests(self, tmp_path):
        tsv = "id\tlang\ttext\nu1\ten\thello\nu2\ten\t\n"
        jsonl = '{"id": "u1", "text": "hello"}\n\n{"id": "u2"}\n'
        for name, text in (("m.tsv", tsv), ("m.jsonl", jsonl)):
            lf = read_manifest(put(tmp_path / f"lf-{name}", text))
            crlf = read_manifest(put(tmp_path / f"crlf-{name}", text.replace("\n", "\r\n")))
            assert lf == crlf
            assert [(r.id, r.text) for r in lf] == [("u1", "hello"), ("u2", None)]



def _cascade_inputs():
    Path("in.jsonl").write_text('{"id": "u1", "text": "hi"}\n', encoding="utf-8")
    Path("spec.json").write_text(json.dumps({
        "adapters": {"mt": "mock:t.tsv"},
        "stages": [{"adapter": "mt", "in": "text", "out": "translation"}]}))
    return ["cascade", "run", "--spec", "spec.json", "--in", "in.jsonl", "--out", "o.jsonl"]


def _simsearch_inputs():
    for name, ids in (("audio.emb", ("a0", "a1")), ("text.emb", ("t0", "t1"))):
        write_embeddings(EmbeddingMatrix(data=np.eye(2, dtype=np.float32), ids=ids), Path(name))
    return ["mine", "simsearch-eval", "--audio", "audio.emb", "--text", "text.emb",
            "--gold", "gold.tsv", "--out", "sim.json"]


def _unnamed_matrix():
    write_embeddings(EmbeddingMatrix(data=np.eye(2, dtype=np.float32)), Path("e.emb"))
    return ["embed", "normalize", "--in", "e.emb", "--out", "n.emb"]


def _counts():
    Path("counts.tsv").write_text("en\t9\n")
    return ["balance", "--counts", "counts.tsv", "--temperature", "2", "--out", "d.json",
            "--pools", "pools.tsv", "--total", "3", "--seed", "1", "--schedule-out", "s.txt"]


def _manifest_stats(name):
    return lambda: ["manifest", "stats", "--in", name, "--out", "s.json"]


# each reader: (file, its error, lines before line N, a bad line N or None when
# every line is valid, read(path), the CLI that reads the file, after writing
# what else it reads, in the current directory)
LOCATED = {
    "manifest tsv": ("m.tsv", ManifestError, ["id\ttext", "u1\thi"], "u2", read_manifest,
                     _manifest_stats("m.tsv")),
    "manifest jsonl": ("m.jsonl", ManifestError, ['{"id": "u1"}', ""], '{"id": "u1"}',
                       read_manifest, _manifest_stats("m.jsonl")),
    "unit lines": ("u.txt", QuantizeError, ["1 2", ""], "3 x", read_unit_lines,
                   lambda: ["units", "dedup", "--in", "u.txt", "--out", "d.txt"]),
    "pairs": ("p.tsv", MiningError, [PAIRS_TSV.split("\n")[0], "0.5\ts\tt\t\t\t\t\t\t"],
              "0.5\ts2", read_pairs,
              lambda: ["mine", "filter-overlap", "--in", "p.tsv", "--max-overlap", "0.5",
                       "--out", "k.tsv"]),
    "counts": ("c.tsv", BalanceError, ["lang\tn", "en\t9"], "hok\tmany", read_counts_tsv,
               lambda: ["balance", "--counts", "c.tsv", "--temperature", "2", "--out", "d.json"]),
    "pools": ("pools.tsv", BalanceError, ["en\te0", " "], "en\te1\tx", read_pools_tsv, _counts),
    "gold": ("gold.tsv", MiningError, ["a0\tt0"], "a0\tt1",
             lambda path: fileio.read_table(path, MiningError), _simsearch_inputs),
    "mock table": ("t.tsv", CascadeError, ["hi\tHI"], "hi\tHO", Adapter._load_table,
                   _cascade_inputs),
    "embedding ids": ("e.emb.ids", EmbeddingError, ["a"], "a",
                      lambda path: read_embeddings(str(path)[:-len(".ids")]), _unnamed_matrix),
    "cascade spec": ("spec.json", CascadeError, ["{", '"stages": ['], "}",
                     PipelineSpec.from_json_file, _cascade_inputs),
    "bleu": ("h.txt", evalbleu.BleuError, ["the cat", ""], None,
             lambda path: cli._read_corpus(path, "word13a"),
             lambda: ["bleu", "--hyp", "h.txt", "--ref", "h.txt", "--out", "b.json"]),
}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name, row in LOCATED.items() for bad in ("bad line", "not UTF-8")
    if bad == "not UTF-8" or row[3] is not None])
def test_errors_name_path_and_line(tmp_path, monkeypatch, capsys, name, bad):
    file, error, before, line, read, command = LOCATED[name]
    monkeypatch.chdir(tmp_path)
    argv = command()  # writes the command's other inputs first
    lines = [s.encode("utf-8") for s in before]
    lines += [b"caf\xe9" if bad == "not UTF-8" else line.encode("utf-8"), *lines]
    path = tmp_path / file
    path.write_bytes(b"".join(s + b"\n" for s in lines))
    where = f"{path}:{len(before) + 1}: "
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value).startswith(where)
    if bad == "not UTF-8":
        assert str(info.value) == f"{where}not UTF-8"
    assert dispatch(argv) == 1
    assert f"unitforge: error: {file}:{len(before) + 1}: " in capsys.readouterr().err


def test_lookup_tables_refuse_a_repeated_key(tmp_path):
    # pools keep their repeats; the gold and mock tables name the second line
    path = put(tmp_path / "t.tsv", "en\ta\n\nen\tb\n")
    assert read_pools_tsv(path) == {"en": ["a", "b"]}
    for error in (MiningError, CascadeError):
        with pytest.raises(error, match=re.escape(f"{path}:3: repeated key 'en'")):
            fileio.read_table(path, error)
