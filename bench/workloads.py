"""The three benchmark workloads.

A workload runs in passes. A pass is the whole job on the generated
inputs: ``begin`` (timed), one timed op per entry of ``ops()``, then
``finish`` (timed). The output checks (``check_op``, ``check_pass``) run
after the pass, outside the timed region, and return the problems found.
Every library call goes through ``tr.call`` so a traced run can record
spans around it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from setup_probe import ADAPTERS

import unitforge as uf
from unitforge import quantize
from unitforge.mine import read_pairs, write_pairs


def _digest(array: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(), digest_size=16).hexdigest()


class TracedAdapter:
    """Delegates to an adapter inside a ``cascade.try_run.<scheme>`` span."""

    def __init__(self, adapter, tr):
        self.adapter = adapter
        self.tr = tr
        self.span = "cascade.try_run." + adapter.endpoint.partition(":")[0]

    def try_run(self, inputs):
        return self.tr.call(self.span, self.adapter.try_run, inputs)

    def run(self, inputs):
        return self.tr.call(self.span, self.adapter.run, inputs)


class Workload:

    def __init__(self, inputs: Path, work: Path, seed: int):
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.properties = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))

    def setup(self, tr) -> None:
        """Long-lived program objects, built once per run (part of set-up)."""

    def prepare(self, tr) -> None:
        """Untimed preparation after set-up."""

    def begin(self, tr) -> None:
        """Timed work at the start of a pass."""

    def ops(self) -> list:
        raise NotImplementedError

    def op(self, tr, arg):
        raise NotImplementedError

    def finish(self, tr, results: list):
        """Timed work after the ops of a pass; ``results`` holds None for failed ops."""

    def check_op(self, arg, result) -> list[str]:
        return []

    def check_pass(self, results: list, finished) -> list[str]:
        return []

    def counts(self, results: list, finished) -> dict[str, float]:
        """Per-pass counts and ratios; they repeat exactly for a given seed."""
        return {}

    def items(self) -> int:
        raise NotImplementedError


# --- units ---------------------------------------------------------------------

class Units(Workload):
    def __init__(self, inputs, work, seed):
        super().__init__(inputs, work, seed)
        self.k = self.properties["k"]
        self.utts = self.truth["utterances"]
        self._centroids_digest = None
        self._oracle: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def begin(self, tr):
        train = tr.call("embed.read_embeddings", uf.read_embeddings, self.inputs / "train.emb")
        self.codebook = tr.call("quantize.kmeans_fit", uf.kmeans_fit, train.data, self.k,
                                self.seed, max_iters=5, tol=0.0, threads=1, peak=True)

    def ops(self):
        return self.utts

    def op(self, tr, utt):
        matrix = tr.call("embed.read_embeddings", uf.read_embeddings, self.inputs / utt["emb"])
        units = tr.call("quantize.assign_units", uf.assign_units, self.codebook, matrix.data,
                        threads=1, peak=True)
        return units, tr.call("quantize.dedup_units", uf.dedup_units, units)

    def finish(self, tr, results):
        done = [(utt, r[1]) for utt, r in zip(self.utts, results) if r is not None]
        tr.call("quantize.write_unit_lines", quantize.write_unit_lines,
                [seq for _, seq in done], self.work / "units.txt")
        records = [uf.Utterance(id=utt["id"], lang="nan", audio_ref=utt["emb"],
                                duration_s=utt["frames"] * 0.02, units=seq.units)
                   for utt, seq in done]
        tr.call("corpus.write_manifest", uf.write_manifest, uf.Manifest(records=records),
                self.work / "units.tsv")
        return self.codebook

    def _sample(self, index: int, utt: dict) -> np.ndarray:
        """Every silence frame plus a seeded 3% of the other frames."""
        rng = np.random.default_rng([self.seed, 7, index])
        others = np.setdiff1d(np.arange(utt["frames"]), utt["silence"])
        picked = others[rng.random(len(others)) < 0.03]
        return np.union1d(np.array(utt["silence"], dtype=np.int64), picked)

    def check_op(self, utt, result):
        units, deduped = result
        if utt["id"] not in self._oracle:
            frames = np.fromfile(self.inputs / utt["emb"], dtype="<f4", offset=12)
            frames = frames.reshape(utt["frames"], -1)
            rows = self._sample(self.utts.index(utt), utt)
            self._oracle[utt["id"]] = (rows, checks.nearest_centroids(
                frames[rows], self.codebook.centroids))
        rows, expected = self._oracle[utt["id"]]
        problems = []
        labels = np.array(units.units, dtype=np.int64)
        if len(labels) != utt["frames"]:
            return [f"{utt['id']}: {len(labels)} labels for {utt['frames']} frames"]
        bad = int((labels[rows] != expected).sum())
        if bad:
            problems.append(f"{utt['id']}: {bad} of {len(rows)} sampled labels differ from the oracle")
        if list(deduped.units) != checks.collapse_runs(labels):
            problems.append(f"{utt['id']}: dedup_units differs from collapsing runs")
        return problems

    def check_pass(self, results, codebook):
        problems = []
        digest = _digest(codebook.centroids)
        if self._centroids_digest is None:
            self._centroids_digest = digest
        elif digest != self._centroids_digest:
            problems.append("kmeans_fit gave different centroids for the same seed")
        if codebook.iters_run != 5:
            problems.append(f"kmeans_fit ran {codebook.iters_run} iterations, expected 5")
        if not checks.non_increasing(codebook.inertia_history):
            problems.append("kmeans_fit inertia history increases")
        expected = "".join(" ".join(map(str, r[1].units)) + "\n" for r in results if r is not None)
        if (self.work / "units.txt").read_text(encoding="utf-8") != expected:
            problems.append("write_unit_lines output differs from the deduplicated units")
        lines = (self.work / "units.tsv").read_text(encoding="utf-8").splitlines()
        if len(lines) != 1 + sum(r is not None for r in results):
            problems.append("units manifest has the wrong number of rows")
        return problems

    def counts(self, results, codebook):
        read = (self.inputs / "train.emb").stat().st_size + sum(
            (self.inputs / u["emb"]).stat().st_size for u in self.utts)
        return {"quantize.kmeans_fit.iters": codebook.iters_run,
                "quantize.assign_units.frames": sum(len(r[0]) for r in results if r is not None),
                "embed.read_embeddings.mb": read / 2**20}

    def items(self):
        return sum(u["frames"] for u in self.utts)


# --- mining --------------------------------------------------------------------

MAX_OVERLAP = 0.2
K_NN = 4


class Mining(Workload):
    def __init__(self, inputs, work, seed):
        super().__init__(inputs, work, seed)
        self.shards = self.truth["shards"]
        self.segments = [{sid: uf.Segment(*seg) for sid, seg in shard["segments"].items()}
                         for shard in self.shards]
        self._oracle: dict[tuple[int, str], tuple] = {}
        self._audited: set = set()

    def ops(self):
        return list(range(len(self.shards)))

    def op(self, tr, s):
        shard = self.shards[s]
        src = tr.call("embed.read_embeddings", uf.read_embeddings, self.inputs / shard["src"])
        tgt = tr.call("embed.read_embeddings", uf.read_embeddings, self.inputs / shard["tgt"])
        src_n, _ = tr.call("embed.l2_normalize", uf.l2_normalize, src)
        tgt_n, _ = tr.call("embed.l2_normalize", uf.l2_normalize, tgt)
        mined = tr.call("mine.mine_pairs", uf.mine_pairs, src_n, tgt_n, k_nn=K_NN,
                        direction="intersect", margin="ratio", threads=1, peak=True)
        segs = self.segments[s]
        mined = [replace(p, src_segment=segs[p.src_id]) for p in mined]
        path = self.work / f"pairs{s}.tsv"
        tr.call("mine.write_pairs", write_pairs, mined, path)
        back = tr.call("mine.read_pairs", read_pairs, path)
        kept = tr.call("mine.filter_overlap", uf.filter_overlap, back, MAX_OVERLAP, side="src")
        error = tr.call("mine.simsearch_error_rate", uf.simsearch_error_rate, src_n, tgt_n,
                        shard["gold"], k_nn=K_NN, peak=True)
        return {"src": src, "tgt": tgt, "src_n": src_n, "tgt_n": tgt_n,
                "mined": mined, "back": back, "kept": kept, "error": error}

    def _oracle_for(self, s, out):
        key = (s, _digest(out["src_n"].data) + _digest(out["tgt_n"].data))
        if key not in self._oracle:
            shard = self.shards[s]
            oracle = checks.MarginOracle(out["src_n"].data, out["tgt_n"].data, K_NN)
            src_ids, tgt_ids = out["src_n"].ids, out["tgt_n"].ids
            pairs = {(src_ids[i], tgt_ids[j]): score
                     for (i, j), score in oracle.intersect_pairs().items()}
            pred = oracle.simsearch_predictions()
            errors = sum(tgt_ids[int(pred[i])] != shard["gold"][sid] for i, sid in enumerate(src_ids))
            self._oracle[key] = (pairs, errors / len(src_ids))
        return self._oracle[key]

    def check_op(self, s, out):
        problems = []
        for side in ("src", "tgt"):
            raw = out[side].data.astype(np.float64)
            unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            if np.abs(out[side + "_n"].data - unit).max() > 1e-6:
                problems.append(f"shard {s}: l2_normalize({side}) is not the unit-norm rows")
        pairs, error = self._oracle_for(s, out)
        mined = out["mined"]
        got = {(p.src_id, p.tgt_id): p.score for p in mined}
        if len(got) != len(mined) or got.keys() != pairs.keys():
            problems.append(f"shard {s}: mined {len(mined)} pairs, oracle {len(pairs)}; sets differ")
        else:
            worst = max((abs(got[key] - pairs[key]) for key in got), default=0.0)
            if worst > 1e-9:
                problems.append(f"shard {s}: margin scores differ from the oracle by {worst}")
        order = [(-p.score, p.src_id, p.tgt_id) for p in mined]
        if order != sorted(order):
            problems.append(f"shard {s}: mined pairs are not in (score, ids) order")
        if [(p.src_id, p.tgt_id, p.score, p.src_segment) for p in out["back"]] != \
                [(p.src_id, p.tgt_id, p.score, p.src_segment) for p in mined]:
            problems.append(f"shard {s}: write_pairs/read_pairs does not round-trip")
        audit_key = (s, tuple((p.src_id, p.tgt_id) for p in out["kept"]), tuple(got))
        if audit_key not in self._audited:
            found = checks.overlap_audit(out["back"], out["kept"], MAX_OVERLAP)
            if not {(p.src_id, p.tgt_id) for p in out["kept"]} <= set(got):
                found.append("kept pairs that were not mined")
            if found:
                problems.extend(f"shard {s}: {msg}" for msg in found[:3])
            else:
                self._audited.add(audit_key)
        if out["error"] != error:
            problems.append(f"shard {s}: simsearch error {out['error']} != oracle {error}")
        return problems

    def counts(self, results, finished):
        done = [r for r in results if r is not None]
        read = sum((self.inputs / sh[side]).stat().st_size + (self.inputs / (sh[side] + ".ids")).stat().st_size
                   for sh in self.shards for side in ("src", "tgt"))
        return {"mine.mine_pairs.pairs": sum(len(r["mined"]) for r in done),
                "mine.filter_overlap.kept_ratio":
                    sum(len(r["kept"]) for r in done) / max(1, sum(len(r["back"]) for r in done)),
                "embed.read_embeddings.mb": read / 2**20}

    def items(self):
        return sum(len(sh["gold"]) for sh in self.shards)


# --- relabel ------------------------------------------------------------------

def cascade_spec(max_norm_dist: float) -> dict:
    return {
        "stages": [{"adapter": "asr", "in": "audio", "out": "asr_text"},
                   {"adapter": "mt", "in": "text", "out": "translation"},
                   {"adapter": "t2u", "in": "translation", "out": "units"}],
        "filters": [{"kind": "min_length", "params": {"field": "text", "min_chars": 12}},
                    {"kind": "code_switch",
                     "params": {"field": "asr_text", "ref_field": "text",
                                "tokenizer": "tailo_syllable", "max_norm_dist": max_norm_dist}}],
    }


class Relabel(Workload):
    """Warm cascade over a prefilled cache, then evaluation of the kept corpus.

    Cold cache writes are not timed: on ext4 without a journal, file
    creation slows for minutes after many files are deleted, so a cold
    pass cost what earlier runs had deleted, not what the program did.
    """

    max_norm_dist = 0.2
    schedule_size = 200_000

    def __init__(self, inputs, work, seed):
        super().__init__(inputs, work, seed)
        self.shards = self.truth["shards"]
        self.cache = work / "cache"
        (work / "out").mkdir(parents=True, exist_ok=True)
        self.spec = uf.PipelineSpec.from_dict(cascade_spec(self.max_norm_dist))
        self.shard_records = [
            (inputs / name).read_text(encoding="utf-8").count("\n") - 1 for name in self.shards]

    def setup(self, tr):
        self.adapters = {
            kind: tr.call("cascade.make_adapter", uf.make_adapter, kind, kind,
                          endpoint.format(inputs=self.inputs), cache_dir=self.cache)
            for kind, endpoint in ADAPTERS}

    def adapters_for(self, tr):
        if not tr.enabled:
            return self.adapters
        return {kind: TracedAdapter(adapter, tr) for kind, adapter in self.adapters.items()}

    def prepare(self, tr):
        # untimed prefill: every record passes every adapter before the
        # filters run, so one cascade caches all the outputs a pass reads
        for s in self.ops():
            uf.run_cascade(uf.read_manifest(self.inputs / self.shards[s]), self.spec, self.adapters)

    def ops(self):
        return list(range(len(self.shards)))

    def op(self, tr, s):
        manifest = tr.call("corpus.read_manifest", uf.read_manifest, self.inputs / self.shards[s])
        kept, report = tr.call("cascade.run_cascade", uf.run_cascade, manifest, self.spec,
                               self.adapters_for(tr))
        path = self.work / "out" / f"shard{s:02d}.jsonl"
        tr.call("corpus.write_manifest", uf.write_manifest, kept, path)
        return {"records": len(manifest), "kept": kept, "report": report, "path": path}

    def check_op(self, s, out):
        report = out["report"]
        problems = []
        dropped = report.adapter_error_drops + sum(report.filter_drops.values())
        if not (out["records"] == report.input_count == self.shard_records[s]):
            problems.append(f"shard {s}: read {out['records']} of {self.shard_records[s]} records")
        if report.output_count + dropped != report.input_count:
            problems.append(f"shard {s}: kept {report.output_count} + dropped {dropped} "
                            f"!= input {report.input_count}")
        if len(out["kept"]) != report.output_count:
            problems.append(f"shard {s}: manifest holds {len(out['kept'])} kept records, "
                            f"report says {report.output_count}")
        if out["path"].read_text(encoding="utf-8").count("\n") != report.output_count:
            problems.append(f"shard {s}: JSONL output has the wrong number of lines")
        return problems

    def counts(self, results, finished):
        done = [r for r in results if r is not None]
        cache_bytes = sum(p.stat().st_size for p in self.cache.rglob("*") if p.is_file())
        return {"corpus.read_manifest.records": sum(r["records"] for r in done),
                "cascade.kept_ratio": sum(len(r["kept"]) for r in done) / max(1, sum(r["records"] for r in done)),
                "cascade.cache.mb": cache_bytes / 2**20}

    def items(self):
        return sum(self.shard_records)

    def finish(self, tr, results):
        kept = uf.Manifest(records=[rec for r in results if r is not None for rec in r["kept"]])
        stats = tr.call("corpus.manifest_stats", uf.manifest_stats, kept)
        durations = uf.LanguageCounts.from_mapping(
            {lang: entry["total_duration_s"] for lang, entry in stats.items()})
        dist = tr.call("balance.temperature_distribution", uf.temperature_distribution,
                       durations, 5.0)
        pools: dict[str, list[str]] = {}
        for rec in kept:
            pools.setdefault(rec.lang, []).append(rec.id)
        schedule = tr.call("balance.sample_schedule", uf.sample_schedule, dist, pools,
                           self.schedule_size, self.seed)
        asr = self.adapters_for(tr)["asr"]
        asr_report = tr.call("evalbleu.asr_bleu", uf.asr_bleu, kept, kept, asr, "tailo_syllable")
        hyps = tr.call("evalbleu.tokenize_corpus", uf.tokenize_corpus,
                       [rec.extra["asr_text"] for rec in kept], "tailo_initial_final")
        refs = tr.call("evalbleu.tokenize_corpus", uf.tokenize_corpus,
                       [rec.text for rec in kept], "tailo_initial_final")
        bleu = tr.call("evalbleu.corpus_bleu", uf.corpus_bleu, hyps, refs)
        return {"kept": kept, "stats": stats, "dist": dist, "pools": pools,
                "schedule": schedule, "asr_bleu": asr_report, "bleu": bleu}

    def check_pass(self, results, fin):
        problems = []
        kept = fin["kept"]
        if sum(entry["count"] for entry in fin["stats"].values()) != len(kept):
            problems.append("manifest_stats counts do not sum to the kept records")
        if len(fin["schedule"]) != self.schedule_size:
            problems.append(f"sample_schedule drew {len(fin['schedule'])} ids")
        elif not set(fin["schedule"]) <= set(kept.ids()):
            problems.append("sample_schedule drew ids outside the kept corpus")
        ordered = sorted(kept, key=lambda rec: rec.id)
        direct = uf.corpus_bleu(
            uf.tokenize_corpus([rec.extra["asr_text"] for rec in ordered], "tailo_syllable"),
            uf.tokenize_corpus([rec.text for rec in ordered], "tailo_syllable"))
        if abs(fin["asr_bleu"].bleu - direct.bleu) > 1e-9 or \
                fin["asr_bleu"].precisions != direct.precisions:
            problems.append(f"asr_bleu {fin['asr_bleu'].bleu} != direct corpus_bleu {direct.bleu}")
        if not 0.0 < fin["bleu"].bleu <= 100.0:
            problems.append(f"corpus BLEU {fin['bleu'].bleu} outside (0, 100]")
        return problems


WORKLOADS = {"units": Units, "mining": Mining, "relabel": Relabel}
