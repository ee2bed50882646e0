"""unitforge: corpus engineering for discrete-unit speech translation pipelines.

Subsystems: manifest handling (:mod:`~unitforge.corpus`), k-means unit
quantization (:mod:`~unitforge.quantize`), embedding kernels
(:mod:`~unitforge.embed`), margin-based pair mining (:mod:`~unitforge.mine`),
temperature-balanced sampling (:mod:`~unitforge.balance`), BLEU / ASR-BLEU
evaluation (:mod:`~unitforge.evalbleu`), and pseudo-labeling cascades
(:mod:`~unitforge.cascade`). The ``unitforge`` executable exposes each as
a subcommand.

A subsystem is imported on first access to it or to one of its names, so
a process that only reads manifests or runs cascades never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "balance": ("LanguageCounts", "SamplingDistribution", "sample_schedule",
                "temperature_distribution"),
    "cascade": ("Adapter", "CascadeReport", "PipelineSpec", "filter_code_switch",
                "filter_min_length", "levenshtein", "make_adapter", "run_cascade"),
    "cli": (),
    "corpus": ("Manifest", "ManifestError", "Segment", "Utterance", "manifest_stats",
               "read_manifest", "write_manifest"),
    "embed": ("EmbeddingMatrix", "l2_normalize", "max_pool", "read_embeddings",
              "write_embeddings"),
    "evalbleu": ("BleuReport", "TokenizedCorpus", "asr_bleu", "corpus_bleu",
                 "tailo_split_syllable", "tokenize", "tokenize_corpus"),
    "fileio": (),
    "mine": ("Direction", "Margin", "MinedPair", "NeighborList", "filter_overlap", "knn",
             "mine_pairs", "simsearch_error_rate"),
    "parallel": (),
    "quantize": ("Codebook", "UnitSequence", "assign_units", "ctc_collapse", "dedup_units",
                 "kmeans_fit"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{home}")
    if name != home:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
