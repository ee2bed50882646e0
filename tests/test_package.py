"""The package surface, which loads each subsystem on first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import unitforge

SRC = str(Path(unitforge.__file__).resolve().parent.parent)
SUBSYSTEMS = ("balance", "cascade", "cli", "corpus", "embed", "evalbleu", "fileio", "mine",
              "parallel", "quantize")


def run_fresh(script: str, *args: str) -> str:
    """stdout of ``script`` in a fresh interpreter that imports from ``src``."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestSurface:
    def test_every_public_name_is_its_submodules_object(self):
        for module, names in unitforge._EXPORTS.items():
            sub = importlib.import_module(f"unitforge.{module}")
            for name in names:
                assert getattr(unitforge, name) is getattr(sub, name), name
        names = [n for ns in unitforge._EXPORTS.values() for n in ns]
        assert sorted(names) == unitforge.__all__ and len(set(names)) == len(names)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from unitforge import *", namespace)
        assert sorted(k for k in namespace if k != "__builtins__") == unitforge.__all__

    @pytest.mark.parametrize("module", SUBSYSTEMS)
    def test_subsystems_resolve_as_attributes(self, module):
        assert getattr(unitforge, module) is importlib.import_module(f"unitforge.{module}")
        assert module in dir(unitforge)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'kmeans'"):
            unitforge.kmeans  # noqa: B018
        assert not hasattr(unitforge, "numpy")
        with pytest.raises(ImportError):
            exec("from unitforge import no_such_name", {})

    def test_a_name_loads_its_subsystem_only(self):
        out = run_fresh("""
            import sys
            import unitforge
            def loaded():
                return sorted(m for m in sys.modules if m.startswith("unitforge."))
            print(loaded())
            unitforge.read_manifest
            print(loaded(), "numpy" in sys.modules)
        """)
        assert out.splitlines() == ["[]", "['unitforge.corpus', 'unitforge.fileio'] False"]


class TestNumpyFree:
    def test_text_path_never_loads_numpy(self, tmp_path):
        # the relabel job's set-up and every step of its cascade and manifest work
        inputs, out = tmp_path / "inputs", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        (inputs / "asr_table.tsv").write_text(
            "a0.wav\tli ho\na1.wav\tgoa si\na2.wav\tkam-sia\n", encoding="utf-8")
        (inputs / "m.tsv").write_text(
            "id\tlang\taudio\tduration_s\tspeaker\ttext\tunits\n"
            "u0\tnan\ta0.wav\t1.5\ts1\tlí hó\t\n"
            "u1\tnan\ta1.wav\t2.0\ts2\tguá sī\t\n"
            "u2\tnan\ta2.wav\t0.5\ts1\tkam-siā\t\n", encoding="utf-8")
        spec = {
            "stages": [{"adapter": "asr", "in": "audio", "out": "asr_text"},
                       {"adapter": "mt", "in": "text", "out": "translation"},
                       {"adapter": "t2u", "in": "translation", "out": "units"}],
            "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 4}},
                        {"kind": "code_switch",
                         "params": {"field": "asr_text", "ref_field": "text",
                                    "tokenizer": "tailo_syllable", "max_norm_dist": 0.5}}]}
        (inputs / "spec.json").write_text(json.dumps(
            {**spec, "adapters": {"asr": f"mock:{inputs}/asr_table.tsv", "mt": "exec:cat",
                                  "t2u": "mock:char_units"}}))
        stdout = run_fresh("""
            import json, sys
            import unitforge
            from unitforge import cli

            inputs, out, spec = sys.argv[1:4]
            adapters = {
                kind: unitforge.make_adapter(kind, kind, endpoint, cache_dir=f"{out}/cache")
                for kind, endpoint in (("asr", f"mock:{inputs}/asr_table.tsv"),
                                       ("mt", "exec:cat"), ("t2u", "mock:char_units"))}
            manifest = unitforge.read_manifest(f"{inputs}/m.tsv")
            kept, report = unitforge.run_cascade(
                manifest, unitforge.PipelineSpec.from_dict(json.loads(spec)), adapters)
            unitforge.write_manifest(kept, f"{out}/kept.jsonl")
            unitforge.manifest_stats(kept)
            assert cli.dispatch(["manifest", "stats", "--in", f"{out}/kept.jsonl",
                                 "--out", f"{out}/stats.json"]) == 0
            assert cli.dispatch(["cascade", "run", "--spec", f"{inputs}/spec.json",
                                 "--in", f"{inputs}/m.tsv", "--out", f"{out}/cli.jsonl",
                                 "--cache-dir", f"{out}/cache"]) == 0
            print(report.input_count, report.output_count)
            print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"))
        """, str(inputs), str(out), json.dumps(spec))
        counts, loaded = stdout.splitlines()
        total, kept = map(int, counts.split())
        assert 0 < kept < total == 3  # the cascade did keep and drop records
        assert loaded == "[]"
        assert (out / "cli.jsonl").read_bytes() == (out / "kept.jsonl").read_bytes()


class TestLeanSetUp:
    def test_building_adapters_loads_no_hashlib_or_subprocess(self, tmp_path):
        # hashlib (OpenSSL) and subprocess wait for the first cache lookup or child
        table = tmp_path / "asr_table.tsv"
        table.write_text("a0.wav\tli ho\n", encoding="utf-8")
        out = run_fresh("""
            import sys
            import unitforge

            table, cache = sys.argv[1:3]
            for kind, endpoint in (("asr", f"mock:{table}"), ("mt", "exec:cat"),
                                   ("t2u", "mock:char_units")):
                unitforge.make_adapter(kind, kind, endpoint, cache_dir=cache)
            print(sorted({"hashlib", "subprocess"} & set(sys.modules)))
        """, str(table), str(tmp_path / "cache"))
        assert out.splitlines() == ["[]"]
