from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_cli_workspace, cli_command_matrix
from unitforge import mine
from unitforge.cascade import PipelineSpec, make_adapter, run_cascade
from unitforge.cli import dispatch
from unitforge.corpus import Manifest, Utterance, write_manifest
from unitforge.embed import EmbeddingMatrix, write_embeddings


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    monkeypatch.delenv("UNITFORGE_CACHE_DIR", raising=False)


@pytest.fixture
def workspace(tmp_path):
    return build_cli_workspace(tmp_path / "inputs")


def run_all(paths, out: Path, threads: int) -> dict[str, bytes]:
    out.mkdir(parents=True)
    for name, argv in cli_command_matrix(paths, out):
        code = dispatch(argv + ["--threads", str(threads)])
        assert code == 0, f"{name} exited {code}"
    return {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.is_file()}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_simsearch_eval_rejects_knn_zero_without_a_report(self, workspace, tmp_path,
                                                               capsys):
        out = tmp_path / "sim.json"
        code = dispatch(["mine", "simsearch-eval", "--audio", str(workspace["audio.emb"]),
                         "--text", str(workspace["text.emb"]),
                         "--gold", str(workspace["gold.tsv"]), "--knn", "0",
                         "--out", str(out)])
        assert code == 1
        assert "k_nn must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        (["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"],
         "hyp.txt has 2 segments, ref.txt has 3"),
        (["asr-bleu", "--manifest", "gen.tsv", "--ref", "other.tsv", "--asr", "mock:identity"],
         "gen.tsv and other.tsv do not align by id (first differences: ['u1', 'u2'])"),
        (["asr-bleu", "--manifest", "silent.tsv", "--ref", "ref.tsv", "--asr", "mock:identity"],
         "silent.tsv: record 'u0' has no audio reference to transcribe"),
    ])
    def test_bleu_refusals_name_their_inputs(self, tmp_path, monkeypatch, capsys,
                                             command, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "hyp.txt").write_text("a b\nc d\n")
        (tmp_path / "ref.txt").write_text("a b\nc d\ne f\n")
        for name, records in {
                "gen.tsv": [Utterance(id=f"u{i}", audio_ref=f"{i}.wav") for i in (0, 1)],
                "silent.tsv": [Utterance(id="u0"), Utterance(id="u1", audio_ref="1.wav")],
                "ref.tsv": [Utterance(id=f"u{i}", text="a b") for i in (0, 1)],
                "other.tsv": [Utterance(id=f"u{i}", text="a b") for i in (0, 2)]}.items():
            write_manifest(Manifest(records=tuple(records)), tmp_path / name)
        out = tmp_path / "r.json"
        assert dispatch(command + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"unitforge: error: {message}\n"
        assert not out.exists()

    def test_unknown_flag_mentions_it(self, workspace, tmp_path, capsys):
        code = dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "2", "--no-such-flag"])
        assert code == 1
        assert "--no-such-flag" in capsys.readouterr().err

    def test_missing_required_parameter_named(self, capsys):
        assert dispatch(["mine", "run", "--tgt", "x.emb", "--out", "y.tsv"]) == 1
        assert "--src" in capsys.readouterr().err

    def test_validation_error_is_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\nu1\ten\n")
        code = dispatch(["manifest", "stats", "--in", str(bad),
                         "--out", str(tmp_path / "s.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_runtime_failure_is_2(self, tmp_path, capsys):
        code = dispatch(["manifest", "stats", "--in", str(tmp_path / "missing.tsv"),
                         "--out", str(tmp_path / "s.json")])
        assert code == 2

    def test_cascade_unparsable_units_dropped_not_fatal(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(
            "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
            "u0\ten\t\t\t\t1 2 3\t\n"
            "u1\ten\t\t\t\tnot units\t\n"
            "u2\ten\t\t\t\t40 5\t\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "adapters": {"copy": "mock:identity"},
            "stages": [{"adapter": "copy", "in": "text", "out": "units"}]}))
        out, report = tmp_path / "out.tsv", tmp_path / "report.json"
        code = dispatch(["cascade", "run", "--spec", str(spec), "--in", str(manifest),
                         "--out", str(out), "--report", str(report)])
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [r.split("\t")[0] for r in rows] == ["u0", "u2"]
        assert [r.split("\t")[6] for r in rows] == ["1 2 3", "40 5"]
        got = json.loads(report.read_text())
        assert got["field_parse_drops"] == 1
        assert got["output_count"] + got["field_parse_drops"] == got["input_count"] == 3

    def test_cascade_unknown_filter_field_is_1(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(
            "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
            "u0\ten\t\t\t\thello\t\n"
            "u1\ten\t\t\t\tworld\t\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "adapters": {"asr": "mock:identity"},
            "stages": [{"adapter": "asr", "in": "text", "out": "asr_text"}],
            "filters": [{"kind": "code_switch",
                         "params": {"field": "asr_txt", "ref_field": "text"}}]}))
        out = tmp_path / "out.tsv"
        code = dispatch(["cascade", "run", "--spec", str(spec), "--in", str(manifest),
                         "--out", str(out)])
        assert code == 1
        assert "filter 0: field 'asr_txt'" in capsys.readouterr().err
        assert not out.exists()

    def test_cascade_duplicate_ids_dropped_not_fatal(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(
            "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
            "u0\ten\t\t\t\tfirst\t\n"
            "u1\ten\t\t\t\tsecond\t\n", encoding="utf-8")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "adapters": {"copy": "mock:identity"},
            "stages": [{"adapter": "copy", "in": "lang", "out": "id"}]}))
        out, report = tmp_path / "out.tsv", tmp_path / "report.json"
        code = dispatch(["cascade", "run", "--spec", str(spec), "--in", str(manifest),
                         "--out", str(out), "--report", str(report)])
        assert code == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [r.split("\t")[0] for r in rows] == ["en"]
        assert [r.split("\t")[5] for r in rows] == ["first"]
        got = json.loads(report.read_text())
        assert got["duplicate_id_drops"] == 1
        assert got["output_count"] + got["duplicate_id_drops"] == got["input_count"] == 2

    @pytest.mark.parametrize("cached", [False, True])
    def test_cascade_unencodable_input_drops_only_its_record(self, tmp_path, cached):
        # the JSONL reader rejects a lone surrogate (the test below), so one reaches
        # an exec: stage only through the library; UTF-8 cannot encode it for the
        # child's stdin or for the cache key
        manifest = Manifest(records=(Utterance(id="u0", lang="en", text="\ud800"),
                                     Utterance(id="u1", lang="en", text="hello")))
        spec = PipelineSpec.from_dict(
            {"stages": [{"adapter": "mt", "in": "text", "out": "translation"}]})
        cache = tmp_path / "cache" if cached else None
        adapters = {"mt": make_adapter("stage", "mt", "exec:cat", cache_dir=cache)}
        result, report = run_cascade(manifest, spec, adapters)
        assert [(r.id, r.extra["translation"]) for r in result.records] == [("u1", "hello")]
        got = report.to_dict()
        assert got["adapter_error_drops"] == 1
        assert got["output_count"] + got["adapter_error_drops"] == got["input_count"] == 2

    @pytest.mark.parametrize("argv", [
        ["manifest", "stats", "--out", "stats.json"],
        ["manifest", "convert", "--out", "out.tsv"],
        ["cascade", "run", "--spec", "spec.json", "--out", "out.jsonl"],
    ])
    def test_lone_surrogate_in_jsonl_rejected_with_its_line(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        # a JSON "\ud800" escape reads as a lone surrogate, which no writer can
        # encode: every command refuses the manifest before any work, naming the line
        monkeypatch.chdir(tmp_path)
        Path("m.jsonl").write_text('{"id": "u0", "lang": "en", "text": "hi"}\n'
                                   '{"id": "u1", "speaker": "\\ud800"}\n', encoding="utf-8")
        Path("spec.json").write_text(json.dumps({
            "adapters": {"mt": "mock:identity"},
            "stages": [{"adapter": "mt", "in": "text", "out": "translation"}]}))
        assert dispatch(argv + ["--in", "m.jsonl"]) == 1
        assert "m.jsonl:2: lone surrogate" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "spec.json"]

    def test_mine_choices_are_the_enum_values(self, capsys):
        assert dispatch(["mine", "run", "--help"]) == 0
        usage = capsys.readouterr().out
        for enum in (mine.Direction, mine.Margin):
            assert "{" + ",".join(e.value for e in enum) + "}" in usage

    def test_cascade_ignores_cache_env_var(self, tmp_path, monkeypatch):
        # only --cache-dir enables the cache; UNITFORGE_CACHE_DIR is not read
        ambient = tmp_path / "ambient"
        monkeypatch.setenv("UNITFORGE_CACHE_DIR", str(ambient))
        manifest = tmp_path / "m.tsv"
        manifest.write_text(
            "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
            "u0\ten\t\t\t\thello\t\n", encoding="utf-8")
        upper = f"{sys.executable} -c \"import sys; [print(l.strip().upper()) for l in sys.stdin]\""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "adapters": {"up": f"exec:{upper}"},
            "stages": [{"adapter": "up", "in": "text", "out": "shout"}]}))
        out = tmp_path / "out.tsv"
        code = dispatch(["cascade", "run", "--spec", str(spec), "--in", str(manifest),
                         "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8").splitlines()[1].endswith("\tHELLO")
        assert not ambient.exists()

    def test_happy_path_balance(self, workspace, tmp_path):
        out = tmp_path / "dist.json"
        code = dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "20", "--out", str(out)])
        assert code == 0
        probs = json.loads(out.read_text())["probs"]
        assert probs["en"] == pytest.approx(0.5274377161638805, abs=1e-9)

    def test_balance_defaults_to_dist_json(self, workspace, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "20"]) == 0
        assert (tmp_path / "dist.json").exists()

    @pytest.mark.parametrize("given, missing", [
        (["--schedule-out", "schedule.txt"], "--pools"),
        (["--pools", "pools.tsv"], "--schedule-out"),
    ])
    def test_total_flags_checked_before_writing(self, workspace, tmp_path, monkeypatch,
                                                capsys, given, missing):
        monkeypatch.chdir(tmp_path)
        extra = [str(workspace[a]) if a in workspace else a for a in given]
        code = dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "5", "--out", "dist.json", "--total", "10"] + extra)
        assert code != 0
        err = capsys.readouterr().err
        assert f"--total requires {missing}" in err and "wrote" not in err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "inputs"]

    @pytest.mark.parametrize("given, flag", [
        (["--pools", "pools.tsv"], "--pools"),
        (["--pools", "missing.tsv"], "--pools"),
        (["--schedule-out", "schedule.txt"], "--schedule-out"),
        (["--pools", "pools.tsv", "--schedule-out", "schedule.txt"], "--pools"),
    ])
    def test_schedule_flags_require_total(self, workspace, tmp_path, monkeypatch, capsys,
                                          given, flag):
        monkeypatch.chdir(tmp_path)
        extra = [str(workspace[a]) if a in workspace else a for a in given]
        assert dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "2", "--out", "dist.json"] + extra) == 1
        assert capsys.readouterr().err == f"unitforge: error: {flag} requires --total\n"
        assert sorted(tmp_path.iterdir()) == [tmp_path / "inputs"]

    @pytest.mark.parametrize("argv", [
        ["manifest", "stats", "--in", "m.tsv"],
        ["mine", "simsearch-eval", "--audio", "audio.emb", "--text", "text.emb",
         "--gold", "gold.tsv"],
        ["balance", "--counts", "counts.tsv", "--temperature", "2"],
        ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt"],
        ["asr-bleu", "--manifest", "gen.tsv", "--ref", "refm.tsv",
         "--asr", "mock:transcripts.tsv", "--tokenizer", "word13a"],
    ], ids=lambda argv: argv[1] if argv[0] in ("manifest", "mine") else argv[0])
    def test_report_out_and_stdout_exclude_each_other(self, workspace, monkeypatch, capsys,
                                                      argv):
        monkeypatch.chdir(workspace["m.tsv"].parent)
        assert dispatch(argv + ["--out", "report.json", "--stdout"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --stdout: not allowed with argument --out" in err
        assert not Path("report.json").exists()

    def test_stdout_flag_prints_report(self, workspace, capsys):
        assert dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "20", "--stdout"]) == 0
        assert '"probs"' in capsys.readouterr().out

    def test_mine_shorthand_without_run(self, workspace, tmp_path):
        out = tmp_path / "pairs.tsv"
        code = dispatch(["mine", "--src", str(workspace["src.emb"]),
                         "--tgt", str(workspace["tgt.emb"]), "--knn", "2",
                         "--threshold", "1.0", "--direction", "forward",
                         "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_randomized_commands_print_seed(self, workspace, tmp_path, capsys):
        dispatch(["quantize", "fit", "--k", "2", "--seed", "7",
                  "--in", str(workspace["feats.emb"]),
                  "--out", str(tmp_path / "cb.emb")])
        assert "seed: 7" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m(self, workspace, tmp_path):
        out = tmp_path / "dist.json"
        proc = subprocess.run(
            [sys.executable, "-m", "unitforge", "balance",
             "--counts", str(workspace["counts.tsv"]),
             "--temperature", "1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["probs"] == {"en": 0.9, "hok": 0.1}


class TestOutputs:
    def test_stats_report_contents(self, workspace, tmp_path):
        out = tmp_path / "stats.json"
        assert dispatch(["manifest", "stats", "--in", str(workspace["m.tsv"]),
                         "--out", str(out)]) == 0
        stats = json.loads(out.read_text())
        assert stats["hok"]["count"] == 3
        assert "total_duration_h" in stats["hok"]

    def test_convert_round_trips(self, workspace, tmp_path):
        mid = tmp_path / "m.jsonl"
        back = tmp_path / "m2.tsv"
        assert dispatch(["manifest", "convert", "--in", str(workspace["m.tsv"]),
                         "--out", str(mid)]) == 0
        assert dispatch(["manifest", "convert", "--in", str(mid),
                         "--out", str(back)]) == 0
        assert back.read_bytes() == workspace["m.tsv"].read_bytes()

    def test_asr_bleu_with_table_mock(self, workspace, tmp_path):
        out = tmp_path / "r.json"
        assert dispatch(["asr-bleu", "--manifest", str(workspace["gen.tsv"]),
                         "--ref", str(workspace["refm.tsv"]),
                         "--asr", f"mock:{workspace['transcripts.tsv']}",
                         "--tokenizer", "word13a", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["bleu"] == pytest.approx(100.0)

    def test_bleu_line_holding_next_line_is_one_segment(self, tmp_path):
        (tmp_path / "hyp.txt").write_bytes("the cat\u0085sat\na dog\n".encode())
        (tmp_path / "ref.txt").write_bytes(b"the cat sat\na dog\n")
        out = tmp_path / "bleu.json"
        assert dispatch(["bleu", "--hyp", str(tmp_path / "hyp.txt"),
                         "--ref", str(tmp_path / "ref.txt"), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["hyp_len"] == 5

    def test_full_matrix_runs_green(self, workspace, tmp_path):
        outputs = run_all(workspace, tmp_path / "out", threads=1)
        assert "cb.emb" in outputs and "report.json" in outputs


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, workspace, tmp_path):
        first = run_all(workspace, tmp_path / "run1", threads=1)
        second = run_all(workspace, tmp_path / "run2", threads=1)
        assert first == second

    def test_threads_do_not_change_outputs(self, workspace, tmp_path):
        serial = run_all(workspace, tmp_path / "t1", threads=1)
        threaded = run_all(workspace, tmp_path / "t8", threads=8)
        assert serial == threaded


class TestCommonFlags:
    """``--seed`` and ``--threads`` belong to the action, not its group."""

    def group_level(self, workspace, out):
        s = str
        return [
            ["manifest", "--seed", "1", "stats", "--in", s(workspace["m.tsv"]), "--out", s(out)],
            ["quantize", "--seed", "7", "fit", "--k", "2",
             "--in", s(workspace["feats.emb"]), "--out", s(out)],
            ["units", "--threads", "2", "dedup", "--in", s(workspace["units.txt"]),
             "--out", s(out)],
            ["embed", "--threads", "2", "pool", "--in", s(workspace["frames.emb"]),
             "--out", s(out)],
            ["mine", "--seed", "3", "run", "--src", s(workspace["src.emb"]),
             "--tgt", s(workspace["tgt.emb"]), "--out", s(out)],
            ["cascade", "--threads", "2", "run", "--spec", s(workspace["pipeline.json"]),
             "--in", s(workspace["casc.tsv"]), "--out", s(out)],
        ]

    def test_group_level_flags_rejected(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in self.group_level(workspace, out):
            assert dispatch(argv) == 1, argv
            assert "usage" in capsys.readouterr().err
            assert not out.exists()

    def test_flags_after_action_honoured(self, workspace, tmp_path, capsys):
        assert dispatch(["quantize", "fit", "--seed", "7", "--k", "2",
                         "--in", str(workspace["feats.emb"]),
                         "--out", str(tmp_path / "cb.emb")]) == 0
        assert "seed: 7" in capsys.readouterr().err
        assert json.loads((tmp_path / "cb.emb.meta.jsonl").read_text())["seed"] == 7
        # the `mine` shorthand inserts `run` before every flag
        assert dispatch(["mine", "--threads", "2", "--src", str(workspace["src.emb"]),
                         "--tgt", str(workspace["tgt.emb"]),
                         "--out", str(tmp_path / "pairs.tsv")]) == 0

    def test_simsearch_eval_forwards_threads(self, workspace, tmp_path, monkeypatch):
        seen = []
        real = mine.simsearch_error_rate

        def spy(*args, **kwargs):
            seen.append(kwargs.get("threads"))
            return real(*args, **kwargs)

        monkeypatch.setattr(mine, "simsearch_error_rate", spy)
        assert dispatch(["mine", "simsearch-eval", "--audio", str(workspace["audio.emb"]),
                         "--text", str(workspace["text.emb"]),
                         "--gold", str(workspace["gold.tsv"]),
                         "--out", str(tmp_path / "sim.json"), "--threads", "3"]) == 0
        assert seen == [3]


class TestQuantizeArguments:
    def fit(self, workspace, out, *flags):
        return dispatch(["quantize", "fit", "--k", "2", "--in", str(workspace["feats.emb"]),
                         "--out", str(out), *flags])

    @pytest.mark.parametrize("flags", [("--tol", "nan"), ("--tol", "-1"), ("--max-iters", "-1")])
    def test_bad_fit_arguments_exit_1(self, workspace, tmp_path, capsys, flags):
        out = tmp_path / "cb.emb"
        assert self.fit(workspace, out, *flags) == 1
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    def test_zero_iterations_allowed(self, workspace, tmp_path):
        out = tmp_path / "cb.emb"
        assert self.fit(workspace, out, "--max-iters", "0") == 0
        assert json.loads((tmp_path / "cb.emb.meta.jsonl").read_text())["iters_run"] == 0

    @pytest.mark.parametrize("key, text", [("seed", "1.7"), ("seed", "null"), ("seed", "1e400"),
                                           ("iters_run", '"many"'), ("final_inertia", "[1]")])
    def test_bad_codebook_sidecar_exits_1(self, workspace, tmp_path, capsys, key, text):
        book = tmp_path / "cb.emb"
        assert self.fit(workspace, book) == 0
        sidecar = tmp_path / "cb.emb.meta.jsonl"
        meta = json.loads(sidecar.read_text())
        meta[key] = "SENTINEL"
        sidecar.write_text(json.dumps(meta).replace('"SENTINEL"', text) + "\n")
        out = tmp_path / "units.txt"
        assert dispatch(["quantize", "assign", "--codebook", str(book),
                         "--in", str(workspace["feats.emb"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cb.emb.meta.jsonl" in err and repr(key) in err
        assert not out.exists()


    def test_empty_features_of_the_wrong_dim_exit_1(self, workspace, tmp_path, capsys):
        book, feats, out = tmp_path / "cb.emb", tmp_path / "empty.emb", tmp_path / "units.txt"
        assert self.fit(workspace, book) == 0
        dim = json.loads((tmp_path / "cb.emb.meta.jsonl").read_text())["dim"]
        write_embeddings(EmbeddingMatrix(data=np.empty((0, dim + 1), np.float32)), feats)
        assert dispatch(["quantize", "assign", "--codebook", str(book),
                         "--in", str(feats), "--out", str(out)]) == 1
        assert f"feature dim {dim + 1} != codebook dim {dim}" in capsys.readouterr().err
        assert not out.exists()

    def test_codebook_sidecar_not_json_exits_1(self, workspace, tmp_path, capsys):
        book, out = tmp_path / "cb.emb", tmp_path / "units.txt"
        assert self.fit(workspace, book) == 0
        (tmp_path / "cb.emb.meta.jsonl").write_text("{k: 2}\n")
        assert dispatch(["quantize", "assign", "--codebook", str(book),
                         "--in", str(workspace["feats.emb"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"codebook sidecar {book}.meta.jsonl does not hold a JSON object" in err
        assert not out.exists()


class TestUnitLineErrors:
    @pytest.mark.parametrize("action", [["dedup"], ["ctc-collapse", "--blank", "0"]])
    @pytest.mark.parametrize("vocab", [(), ("--vocab-size", "8")])
    @pytest.mark.parametrize("text, message", [
        ("3 3\n1 x\n", "2: invalid literal for int() with base 10: 'x'"),
        ("3 3\n\n2 -1\n", "3: unit -1 out of range [0, "),
    ])
    def test_bad_line_named(self, tmp_path, capsys, action, vocab, text, message):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text(text, encoding="utf-8")
        assert dispatch(["units", *action, "--in", str(src), "--out", str(out), *vocab]) == 1
        assert f"unitforge: error: {src}:{message}" in capsys.readouterr().err
        assert not out.exists()


class TestCtcCollapse:
    UNITS = "0 0 3 3 0 5 5 5\n2 2 2\n\n7 0 7\n"

    def run(self, tmp_path, text, *flags):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        src.write_text(text, encoding="utf-8")
        out.unlink(missing_ok=True)
        code = dispatch(["units", "ctc-collapse", "--in", str(src), "--out", str(out), *flags])
        return code, out.read_text(encoding="utf-8") if out.exists() else None

    @pytest.mark.parametrize("vocab", [(), ("--vocab-size", "8")])
    def test_outputs(self, tmp_path, vocab):
        assert self.run(tmp_path, self.UNITS, "--blank", "0", *vocab) == (0, "3 5\n2\n\n7 7\n")
        assert self.run(tmp_path, self.UNITS, "--blank", "5", *vocab) == (
            0, "0 3 0\n2\n\n7 0 7\n")
        assert self.run(tmp_path, "", "--blank", "0", *vocab) == (0, "")

    @pytest.mark.parametrize("vocab", [(), ("--vocab-size", "8")])
    def test_errors_exit_1(self, tmp_path, vocab):
        assert self.run(tmp_path, "1 x 2\n", "--blank", "0", *vocab) == (1, None)
        assert self.run(tmp_path, "1 -1\n", "--blank", "0", *vocab) == (1, None)
        assert self.run(tmp_path, "1 2\n", "--blank", "-1", *vocab) == (1, None)

    def test_vocab_size_bounds_units_and_blank(self, tmp_path):
        # without --vocab-size each line's vocabulary covers its units and blank
        assert self.run(tmp_path, self.UNITS, "--blank", "9") == (0, "0 3 0 5\n2\n\n7 0 7\n")
        assert self.run(tmp_path, self.UNITS, "--blank", "9", "--vocab-size", "8") == (1, None)
        assert self.run(tmp_path, self.UNITS, "--blank", "0", "--vocab-size", "6") == (1, None)

    FRAMES = "3 3 0 4 4 0 0\n\n0 5 0 5\n"

    @pytest.mark.parametrize("flags, want, err", [
        (("--blank", "0"), (0, "3 4\n\n5 5\n"), ""),
        (("--blank", "0", "--vocab-size", "6"), (0, "3 4\n\n5 5\n"), ""),
        (("--blank", "0", "--vocab-size", "5"), (1, None), "unit 5 out of range [0, 5)"),
        (("--blank", "9"), (0, "3 0 4 0\n\n0 5 0 5\n"), ""),
        (("--blank", "9", "--vocab-size", "6"), (1, None), "blank 9 out of range [0, 6)"),
    ])
    def test_read_through_unit_lines(self, tmp_path, capsys, flags, want, err):
        assert self.run(tmp_path, self.FRAMES, *flags) == want
        assert err in capsys.readouterr().err

    def test_negative_unit_range_spans_the_file(self, tmp_path, capsys):
        # without --vocab-size, N of [0, N) comes from the largest unit in the file
        assert self.run(tmp_path, "9 9\n1 -2\n", "--blank", "0") == (1, None)
        assert "unit -2 out of range [0, 10)" in capsys.readouterr().err
        # while the blank only has to fit each line's own vocabulary
        assert self.run(tmp_path, "1 1\n2\n", "--blank", "7") == (0, "1\n2\n")


class TestSeedFlag:
    def test_seed_only_on_the_actions_that_read_it(self, workspace, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert dispatch(["manifest", "stats", "--in", str(workspace["m.tsv"]),
                         "--out", str(out), "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()
        assert dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "2", "--out", str(out), "--seed", "1"]) == 0


def _zero_row_matrix(path: Path) -> None:
    data = np.ones((3, 2), dtype=np.float32)
    data[1] = 0.0
    write_embeddings(EmbeddingMatrix(data=data), path)


class TestWarningsAndFlags:
    def test_normalize_warns_of_zero_rows(self, tmp_path, capsys):
        _zero_row_matrix(tmp_path / "z.emb")
        assert dispatch(["embed", "normalize", "--in", str(tmp_path / "z.emb"),
                         "--out", str(tmp_path / "n.emb")]) == 0
        assert "warning: 1 zero row(s) left unnormalized" in capsys.readouterr().err

    def test_mining_side_warns_of_zero_rows(self, tmp_path, capsys):
        _zero_row_matrix(tmp_path / "z.emb")
        side = str(tmp_path / "z.emb")
        assert dispatch(["mine", "run", "--src", side, "--tgt", side,
                         "--out", str(tmp_path / "p.tsv")]) == 1
        err = capsys.readouterr().err
        assert f"warning: {side}: 1 zero row(s)" in err
        assert "unitforge: error: zero embedding row 1; cosine undefined" in err

    def test_threads_below_one_refused(self, workspace, tmp_path, capsys):
        out = tmp_path / "d.json"
        assert dispatch(["balance", "--counts", str(workspace["counts.tsv"]),
                         "--temperature", "1", "--out", str(out), "--threads", "0"]) == 1
        assert capsys.readouterr().err == "unitforge: error: --threads must be >= 1\n"
        assert not out.exists()

    def test_adapter_flag_overrides_the_spec(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("m.tsv").write_text("id\ttext\nu1\tHi\n")
        Path("s.json").write_text(json.dumps({
            "stages": [{"adapter": "mt", "in": "text", "out": "zh"}],
            "adapters": {"mt": "mock:upper"}}))
        argv = ["cascade", "run", "--spec", "s.json", "--in", "m.tsv", "--out", "o.tsv"]
        assert dispatch(argv + ["--adapter", "mt=mock:lower"]) == 0
        assert Path("o.tsv").read_text().splitlines()[1].endswith("\tHi\t\thi")
        assert dispatch(argv) == 0
        assert Path("o.tsv").read_text().splitlines()[1].endswith("\tHi\t\tHI")


# each refusal: (input files to write, argv, the message after "unitforge: error: ")
CLI_REFUSALS = {
    "adapter item without =": (
        {"s.json": '{"stages": []}'},
        ["cascade", "run", "--spec", "s.json", "--in", "m.tsv", "--out", "o.tsv",
         "--adapter", "mt"], "--adapter needs NAME=ENDPOINT, got 'mt'"),
    "stage names no adapter": (
        {"s.json": '{"stages": [{"adapter": "zz", "in": "text", "out": "t"}]}'},
        ["cascade", "run", "--spec", "s.json", "--in", "m.tsv", "--out", "o.tsv"],
        "s.json: stage 0: unknown adapter 'zz'"),
    "spec endpoint refused": (
        {"s.json": '{"adapters": {"zz": "exec: "}}'},
        ["cascade", "run", "--spec", "s.json", "--in", "m.tsv", "--out", "o.tsv"],
        "s.json: adapter 'zz': empty exec command"),
    "flag endpoint refused": (
        {"s.json": '{"adapters": {"zz": "exec: "}}'},
        ["cascade", "run", "--spec", "s.json", "--in", "m.tsv", "--out", "o.tsv",
         "--adapter", "zz=bogus:x"],
        "--adapter: adapter 'zz': unknown endpoint scheme 'bogus' (expected mock: or exec:)"),
    "counts repeat a language": (
        {"c.tsv": "en\t1\nhok\t2\nen\t3\n"},
        ["balance", "--counts", "c.tsv", "--temperature", "2", "--out", "d.json"],
        "c.tsv: language codes must be distinct"),
}


@pytest.mark.parametrize("name", CLI_REFUSALS)
def test_refusals_name_their_input(tmp_path, monkeypatch, capsys, name):
    files, argv, message = CLI_REFUSALS[name]
    monkeypatch.chdir(tmp_path)
    Path("m.tsv").write_text("id\ttext\nu1\thi\n")
    for file, text in files.items():
        Path(file).write_text(text)
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"unitforge: error: {message}\n"
    assert not Path("o.tsv").exists() and not Path("d.json").exists()


def test_short_ids_sidecar_named_with_its_matrix(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_embeddings(EmbeddingMatrix(data=np.ones((3, 2), dtype=np.float32)), "x.emb")
    Path("x.emb.ids").write_text("a\nb\n")
    assert dispatch(["embed", "normalize", "--in", "x.emb", "--out", "n.emb"]) == 1
    assert capsys.readouterr().err == "unitforge: error: x.emb.ids: 2 ids for the 3 rows of x.emb\n"
