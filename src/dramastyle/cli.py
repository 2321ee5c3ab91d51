"""Command-line interface.

Subcommands:
  parse   play file -> normalized interchange JSON
  run     experiment config -> manifest, matrices, report
  matrix  interchange JSON files -> dissimilarity matrix CSV
  report  re-render a report JSON as a readable text table

Exit codes: 0 success, 2 config error (or a precondition that is not
met, in any stage), 3 corpus/parse error, 4 degenerate-statistics error.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import (
    ConfigError, CorpusError, DramastyleError, PipelineError, PreconditionFailed, StatisticsError,
)
from .experiment import (
    ExperimentConfig, check_chunking, chunk_matrix, compare_translations, load_config,
    prepare_chunks, run_experiment,
)
from .ingest import ParseRules, load_document, parse_play, play_from_json, play_to_json, strip_boilerplate
from .segmentation import labeler
from .similarity import write_matrix_csv
from .tokenization import TokenizationMode


def _cmd_parse(args) -> int:
    doc = load_document(args.file, latin1_fallback=args.latin1)
    rules = ParseRules()
    if not args.no_strip:
        doc = strip_boilerplate(doc, rules)
    play = parse_play(doc, rules, args.play_id, args.language, args.translator)
    payload = play_to_json(play)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_run(args) -> int:
    config = load_config(
        args.config, seed=args.seed, permutations=args.permutations,
        modes=None if args.mode is None else (args.mode,), output_dir=args.out,
    )
    if args.compare_translations:
        compare_translations(config)
    else:
        run_experiment(config)
    print(f"wrote {Path(config.output_dir) / config.experiment_id}")
    return 0


def _cmd_matrix(args) -> int:
    mode = TokenizationMode.parse(args.mode)
    # fail before any file is read
    labeler(args.labeling)
    check_chunking(args.min_size, args.chunk_count, args.chunk_size)
    plays = []
    for path in args.files:
        try:
            plays.append(play_from_json(Path(path).read_text(encoding="utf-8")))
        except (CorpusError, UnicodeDecodeError) as exc:
            raise CorpusError(f"{path}: {exc}") from None
    chunks, _ = prepare_chunks(
        plays, args.labeling, args.min_size, args.chunk_count, args.chunk_size
    )
    write_matrix_csv(chunk_matrix(chunks, mode)[0], args.out)
    print(f"wrote {args.out}")
    return 0


def _render_report(data: dict) -> list[str]:
    threshold = data["settings"]["threshold"]
    lines = [
        f"experiment: {data['experiment_id']}",
        f"settings: permutations={data['settings']['permutations']} "
        f"seed={data['settings']['seed']} threshold={threshold}",
    ]
    for mode, section in data["modes"].items():
        lines.append(f"\n== mode: {mode} ==")
        header = f"{'category':<28} {'rank_sum':>10} {'p':>8} {'hits':>9} {'p':>8}  flag"
        lines += [header, "-" * len(header)]
        for cat in section["categories"]:
            flag = "*" if (cat["rank_sum_p"] <= threshold or cat["attribution_p"] <= threshold) else ""
            hits = f"{cat['attribution_hits']}/{cat['attribution_total']}"
            lines.append(
                f"{cat['category']:<28} {cat['rank_sum']:>10.1f} {cat['rank_sum_p']:>8.4f} "
                f"{hits:>9} {cat['attribution_p']:>8.4f}  {flag}"
            )
        if section["ties_logged"]:
            lines.append(f"ties logged: {len(section['ties_logged'])}")
    if data["warnings"]:
        lines.append(f"\nwarnings ({len(data['warnings'])}):")
        lines += [f"  - {w}" for w in data["warnings"]]
    return lines


def _cmd_report(args) -> int:
    # render in full before printing, so a malformed report prints nothing
    try:
        lines = _render_report(json.loads(Path(args.report).read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or UTF-8
        raise CorpusError(f"{args.report}: not a report: {type(exc).__name__}: {exc}") from None
    for line in lines:
        print(line)
    return 0


def _jobs(value: str) -> int:
    """Parse `--jobs`: at least 1; kept for compatibility, it has no effect."""
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dramastyle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a play file to interchange JSON")
    p.add_argument("file")
    p.add_argument("--play-id", required=True)
    p.add_argument("--language", required=True)
    p.add_argument("--translator", default="original")
    p.add_argument("--latin1", action="store_true", help="fall back to Latin-1 on invalid UTF-8")
    p.add_argument("--no-strip", action="store_true", help="skip boilerplate stripping")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("run", help="run an experiment from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--permutations", type=int)
    p.add_argument("--mode")
    p.add_argument("--jobs", type=_jobs, default=1, help="no effect; perfbench passes it")
    p.add_argument("--out")
    p.add_argument("--compare-translations", action="store_true",
                   help="emit the cross-translation attribution table instead")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("matrix", help="interchange JSON files -> matrix CSV")
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", default=ExperimentConfig.modes[0])
    p.add_argument("--labeling", default=ExperimentConfig.labeling)
    p.add_argument("--min-size", type=int, default=ExperimentConfig.min_size)
    p.add_argument("--chunk-count", type=int, default=ExperimentConfig.chunk_count)
    p.add_argument("--chunk-size", type=int, default=ExperimentConfig.chunk_size)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("report", help="render a report JSON as a text table")
    p.add_argument("report")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (DramastyleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, PipelineError) else exc
        if isinstance(cause, (ConfigError, PreconditionFailed)):
            return 2
        if isinstance(cause, StatisticsError):
            return 4
        return 3


if __name__ == "__main__":
    sys.exit(main())
