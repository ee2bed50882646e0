"""The ``unitforge`` command line: every subsystem behind one executable.

Conventions:

* data goes to files named by ``--out``-style flags, never to stdout
  (except where a ``--stdout`` flag says otherwise); logs and the
  effective seed of randomized commands go to stderr;
* reports are JSON files; ``--stdout`` prints one instead, and refuses ``--out``;
* every output file replaces its target atomically (``fileio.write_file``),
  so a failed write leaves the previous file in place;
* ``--threads`` (every action) and ``--seed`` (``quantize fit`` and
  ``balance``) go after the action (``quantize fit --seed 7``);
* flags that several actions take are declared once, in argparse parent
  parsers (``--threads``, ``--seed``, ``--in``, the required ``--out``, the
  report pair ``--out``/``--stdout``, ``--knn``/``--no-normalize``,
  ``--smoothing``, ``--cache-dir``, ``--vocab-size``); parents share their
  action objects, so a default that differs per action (``--tokenizer``, a
  report's file name) stays with that action;
* exit 0 on success, 1 on argument/validation errors, 2 on runtime
  failures;
* ``--threads N`` never changes any output, for any N >= 1;
* handlers import the subsystems that need numpy themselves, so
  ``--help``, ``manifest`` and ``cascade`` never load it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cascade, corpus, evalbleu
from .fileio import join_lines, numbered, read_table, write_file


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (argparse defaults to 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _write_json(obj, path: str | None, to_stdout: bool = False,
                default_name: str | None = None) -> None:
    text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if to_stdout:
        sys.stdout.write(text)
        return
    if path is None:
        path = default_name  # reports always land in a file unless --stdout
    write_file(path, text)
    _log(f"wrote {path}")


# --- handlers ----------------------------------------------------------------

def _cmd_manifest_stats(args) -> int:
    manifest = corpus.read_manifest(args.infile, args.format)
    stats = corpus.manifest_stats(manifest)
    for entry in stats.values():
        entry["total_duration_h"] = entry["total_duration_s"] / 3600.0
    _write_json(stats, args.out, args.stdout, default_name="stats.json")
    return 0


def _cmd_manifest_convert(args) -> int:
    manifest = corpus.read_manifest(args.infile, args.from_format)
    corpus.write_manifest(manifest, args.out, args.to_format)
    return 0


def _cmd_quantize_fit(args) -> int:
    from . import embed, quantize

    _log(f"seed: {args.seed}")
    features = embed.read_embeddings(args.infile)
    codebook = quantize.kmeans_fit(
        features.data, k=args.k, seed=args.seed,
        max_iters=args.max_iters, tol=args.tol, threads=args.threads)
    quantize.write_codebook(codebook, args.out)
    _log(f"fit k={codebook.k} dim={codebook.dim} iters={codebook.iters_run} "
         f"inertia={codebook.final_inertia}")
    return 0


def _cmd_quantize_assign(args) -> int:
    from . import embed, quantize

    codebook = quantize.read_codebook(args.codebook)
    features = embed.read_embeddings(args.infile)
    seq = quantize.assign_units(codebook, features.data, threads=args.threads)
    quantize.write_unit_lines([seq], args.out)
    return 0


def _cmd_units_dedup(args) -> int:
    from . import quantize

    sequences = quantize.read_unit_lines(args.infile, args.vocab_size)
    quantize.write_unit_lines([quantize.dedup_units(seq) for seq in sequences], args.out)
    return 0


def _cmd_units_ctc_collapse(args) -> int:
    from . import quantize

    sequences = quantize.read_unit_lines(args.infile, args.vocab_size)
    # without --vocab-size, ctc_collapse infers one per line covering units and blank
    collapsed = [quantize.ctc_collapse(seq.units, blank=args.blank, vocab_size=args.vocab_size)
                 for seq in sequences]
    quantize.write_unit_lines(collapsed, args.out)
    return 0


def _cmd_embed_pool(args) -> int:
    from . import embed

    frames = embed.read_embeddings(args.infile)
    pooled = embed.max_pool(frames.data)
    embed.write_embeddings(embed.EmbeddingMatrix(data=pooled[None, :]), args.out)
    return 0


def _cmd_embed_normalize(args) -> int:
    from . import embed

    matrix = embed.read_embeddings(args.infile)
    normalized, zero_rows = embed.l2_normalize(matrix)
    embed.write_embeddings(normalized, args.out)
    if zero_rows:
        _log(f"warning: {zero_rows} zero row(s) left unnormalized")
    return 0


def _load_side(path: str, normalize: bool):
    from . import embed

    matrix = embed.read_embeddings(path)
    if normalize:
        matrix, zero_rows = embed.l2_normalize(matrix)
        if zero_rows:
            _log(f"warning: {path}: {zero_rows} zero row(s)")
    return matrix


def _cmd_mine_run(args) -> int:
    from . import mine

    src = _load_side(args.src, not args.no_normalize)
    tgt = _load_side(args.tgt, not args.no_normalize)
    threshold = float("-inf") if args.threshold is None else args.threshold
    pairs = mine.mine_pairs(
        src, tgt, k_nn=args.knn, threshold=threshold,
        direction=args.direction, margin=args.margin, threads=args.threads)
    mine.write_pairs(pairs, args.out)
    _log(f"mined {len(pairs)} pair(s)")
    return 0


def _cmd_mine_filter_overlap(args) -> int:
    from . import mine

    pairs = mine.read_pairs(args.infile)
    kept = mine.filter_overlap(pairs, max_overlap=args.max_overlap, side=args.side)
    mine.write_pairs(kept, args.out)
    _log(f"kept {len(kept)} of {len(pairs)} pair(s)")
    return 0


def _cmd_mine_simsearch_eval(args) -> int:
    from . import mine

    audio = _load_side(args.audio, not args.no_normalize)
    text = _load_side(args.text, not args.no_normalize)
    gold = read_table(args.gold, mine.MiningError)
    rate = mine.simsearch_error_rate(audio, text, gold, k_nn=args.knn, threads=args.threads)
    report = {
        "total": audio.rows,
        "errors": round(rate * audio.rows),
        "error_rate": rate,
        "error_rate_percent": f"{rate * 100:.2f}",
    }
    _write_json(report, args.out, args.stdout, default_name="simsearch.json")
    return 0


def _cmd_balance(args) -> int:
    from . import balance

    for flag, value in (("--pools", args.pools), ("--schedule-out", args.schedule_out)):
        if args.total is None and value is not None:
            raise balance.BalanceError(f"{flag} requires --total")
        if args.total is not None and value is None:
            raise balance.BalanceError(f"--total requires {flag}")
    counts = balance.read_counts_tsv(args.counts)
    dist = balance.temperature_distribution(counts, args.temperature)
    if args.total is not None:  # built first, so a refused id leaves neither file
        _log(f"seed: {args.seed}")
        pools = balance.read_pools_tsv(args.pools)
        schedule = balance.sample_schedule(dist, pools, total=args.total, seed=args.seed)
        schedule_text = join_lines(schedule, balance.BalanceError)
    _write_json({"temperature": dist.temperature, "probs": dist.as_dict()},
                args.out, args.stdout, default_name="dist.json")
    if args.total is not None:
        write_file(args.schedule_out, schedule_text)
    return 0


def _read_corpus(path: str, scheme: str) -> evalbleu.TokenizedCorpus:
    with numbered(path, evalbleu.BleuError) as lines:
        return evalbleu.tokenize_corpus(lines, scheme)


def _cmd_bleu(args) -> int:
    hyps, refs = (_read_corpus(path, args.tokenizer) for path in (args.hyp, args.ref))
    if len(hyps) != len(refs):
        raise evalbleu.BleuError(
            f"{args.hyp} has {len(hyps)} segments, {args.ref} has {len(refs)}")
    report = evalbleu.corpus_bleu(hyps, refs, smoothing=args.smoothing)
    _write_json(report.to_dict(), args.out, args.stdout, default_name="bleu.json")
    return 0


def _cmd_asr_bleu(args) -> int:
    generated = corpus.read_manifest(args.manifest)
    reference = corpus.read_manifest(args.ref)
    differ = sorted(set(generated.ids()) ^ set(reference.ids()))[:5]
    if differ:
        raise evalbleu.BleuError(f"{args.manifest} and {args.ref} do not align by id "
                                 f"(first differences: {differ})")
    adapter = cascade.make_adapter("asr", "asr", args.asr, cache_dir=args.cache_dir)
    # the manifests align, so what asr_bleu refuses is in the generated one
    with numbered(args.manifest, evalbleu.BleuError, ()):
        report = evalbleu.asr_bleu(generated, reference, adapter,
                                   scheme=args.tokenizer, smoothing=args.smoothing)
    _write_json(report.to_dict(), args.out, args.stdout, default_name="asr_bleu.json")
    return 0


def _cmd_cascade_run(args) -> int:
    spec = cascade.PipelineSpec.from_json_file(args.spec)
    manifest = corpus.read_manifest(args.infile)
    # each endpoint with the input that gave it, which a refusal names
    endpoints = {name: (endpoint, args.spec) for name, endpoint in spec.adapters.items()}
    for item in args.adapter or ():
        name, _, endpoint = item.partition("=")
        if not endpoint:
            raise cascade.CascadeError(f"--adapter needs NAME=ENDPOINT, got {item!r}")
        endpoints[name] = endpoint, "--adapter"
    adapters = {}
    for name, (endpoint, source) in endpoints.items():
        with numbered(source, cascade.CascadeError, ()):
            adapters[name] = cascade.make_adapter("stage", name, endpoint, cache_dir=args.cache_dir)
    with numbered(args.spec, cascade.CascadeError, ()):  # the spec's stages and filters
        result, report = cascade.run_cascade(manifest, spec, adapters)
    corpus.write_manifest(result, args.out)
    if args.report:
        _write_json(report.to_dict(), args.report)
    _log(f"kept {report.output_count} of {report.input_count} record(s)")
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    # each flag that several actions take, declared once as an argparse parent
    common, seeded, reads, writes, report, knn, smoothed, cached, vocab = (
        _Parser(add_help=False) for _ in range(9))
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads, capped at the CPU count; never changes "
                             "outputs (default 1)")
    seeded.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    reads.add_argument("--in", dest="infile", required=True)
    writes.add_argument("--out", required=True)
    either = report.add_mutually_exclusive_group()
    either.add_argument("--out", help="report file (default: the action's own name)")
    either.add_argument("--stdout", action="store_true", help="print the report instead")
    knn.add_argument("--knn", type=int, default=4)
    knn.add_argument("--no-normalize", action="store_true")
    smoothed.add_argument("--smoothing", choices=("none", "exp"), default="none")
    cached.add_argument("--cache-dir", help="cache exec: adapter outputs here; mock: "
                                            "adapters are never cached")
    vocab.add_argument("--vocab-size", type=int)

    parser = _Parser(prog="unitforge",
                     description="corpus engineering for unit-based speech translation")
    top = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    # manifest
    p_manifest = top.add_parser("manifest", help="manifest inspection and conversion")
    sub = p_manifest.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = sub.add_parser("stats", parents=[common, reads, report])
    p.add_argument("--format", choices=("tsv", "jsonl"))
    p.set_defaults(func=_cmd_manifest_stats)
    p = sub.add_parser("convert", parents=[common, reads, writes])
    p.add_argument("--from-format", choices=("tsv", "jsonl"))
    p.add_argument("--to-format", choices=("tsv", "jsonl"))
    p.set_defaults(func=_cmd_manifest_convert)

    # quantize
    p_quant = top.add_parser("quantize", help="k-means codebooks and unit assignment")
    sub = p_quant.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = sub.add_parser("fit", parents=[common, seeded, reads, writes],
                       description="--in: EMB1 feature matrix; --out: codebook path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_quantize_fit)
    p = sub.add_parser("assign", parents=[common, reads, writes],
                       description="--in: EMB1 feature matrix; --out: unit lines output")
    p.add_argument("--codebook", required=True)
    p.set_defaults(func=_cmd_quantize_assign)

    # units
    p_units = top.add_parser("units", help="unit sequence post-processing")
    sub = p_units.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = sub.add_parser("dedup", parents=[common, reads, writes, vocab])
    p.set_defaults(func=_cmd_units_dedup)
    p = sub.add_parser("ctc-collapse", parents=[common, reads, writes, vocab])
    p.add_argument("--blank", type=int, required=True)
    p.set_defaults(func=_cmd_units_ctc_collapse)

    # embed
    p_embed = top.add_parser("embed", help="embedding matrix utilities")
    sub = p_embed.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = sub.add_parser("pool", parents=[common, reads, writes])
    p.set_defaults(func=_cmd_embed_pool)
    p = sub.add_parser("normalize", parents=[common, reads, writes])
    p.set_defaults(func=_cmd_embed_normalize)

    # mine
    p_mine = top.add_parser("mine", help="embedding-space pair mining")
    sub = p_mine.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = sub.add_parser("run", parents=[common, writes, knn])
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="keep pairs scoring at least this (default: keep all)")
    # the values of mine.Direction and mine.Margin, spelled out so that
    # parsing loads no numpy
    p.add_argument("--direction", choices=("forward", "backward", "intersect"),
                   default="forward")
    p.add_argument("--margin", choices=("ratio", "distance", "absolute"), default="ratio")
    p.set_defaults(func=_cmd_mine_run)
    p = sub.add_parser("filter-overlap", parents=[common, reads, writes])
    p.add_argument("--max-overlap", type=float, required=True)
    p.add_argument("--side", choices=("src", "tgt", "both"), default="src")
    p.set_defaults(func=_cmd_mine_filter_overlap)
    p = sub.add_parser("simsearch-eval", parents=[common, report, knn])
    p.add_argument("--audio", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--gold", required=True, help="TSV audio_id<TAB>text_id")
    p.set_defaults(func=_cmd_mine_simsearch_eval)

    # balance
    p = top.add_parser("balance", help="temperature sampling over language counts",
                       parents=[common, seeded, report])
    p.add_argument("--counts", required=True, help="TSV lang<TAB>count")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--pools", help="TSV lang<TAB>id for schedule sampling")
    p.add_argument("--total", type=int, help="schedule length to sample")
    p.add_argument("--schedule-out")
    p.set_defaults(func=_cmd_balance)

    # bleu and asr-bleu; --tokenizer defaults differ, so neither shares it
    p = top.add_parser("bleu", help="corpus BLEU between two text files",
                       parents=[common, report, smoothed])
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--tokenizer", choices=evalbleu.TOKENIZER_TAGS, default="word13a")
    p.set_defaults(func=_cmd_bleu)
    p = top.add_parser("asr-bleu", help="BLEU of ASR transcripts against reference text",
                       parents=[common, report, smoothed, cached])
    p.add_argument("--manifest", required=True, help="generated-audio manifest")
    p.add_argument("--ref", required=True, help="reference-text manifest")
    p.add_argument("--asr", required=True, help="adapter endpoint (mock:... or exec:...)")
    p.add_argument("--tokenizer", choices=evalbleu.TOKENIZER_TAGS, default="tailo_syllable")
    p.set_defaults(func=_cmd_asr_bleu)

    # cascade
    p_casc = top.add_parser("cascade", help="pseudo-labeling pipelines")
    sub = p_casc.add_subparsers(dest="action", required=True, parser_class=_Parser)
    p = sub.add_parser("run", parents=[common, reads, writes, cached])
    p.add_argument("--spec", required=True, help="pipeline JSON")
    p.add_argument("--report")
    p.add_argument("--adapter", action="append", metavar="NAME=ENDPOINT",
                   help="override or supply an adapter endpoint")
    p.set_defaults(func=_cmd_cascade_run)

    return parser


def dispatch(argv: list[str]) -> int:
    """Parse and execute; returns the process exit code."""
    # `mine` accepts its flags directly as shorthand for `mine run`
    if argv and argv[0] == "mine" and len(argv) > 1 and argv[1].startswith("-"):
        argv = [argv[0], "run"] + argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.threads < 1:
        print("unitforge: error: --threads must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValueError as exc:  # every module's *Error validation family
        print(f"unitforge: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        print(f"unitforge: failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
