"""Command-line interface.

Subcommands:
  parse   play file -> normalized interchange JSON
  run     experiment config -> manifest, matrices, report
  matrix  interchange JSON files -> dissimilarity matrix CSV
  report  re-render a report JSON as a readable text table

Exit codes: 0 success, 2 config error, 3 corpus/parse error,
4 degenerate-statistics error.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .errors import ConfigError, CorpusError, PipelineError, StatisticsError
from .experiment import chunk_matrix, compare_translations, load_config, prepare_chunks, run_experiment
from .ingest import ParseRules, load_document, parse_play, play_from_json, play_to_json, strip_boilerplate
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
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.permutations is not None:
        overrides["permutations"] = args.permutations
    if args.mode is not None:
        overrides["modes"] = (args.mode,)
    if args.out is not None:
        overrides["output_dir"] = args.out
    config = load_config(args.config, **overrides)
    if args.compare_translations:
        compare_translations(config, jobs=args.jobs)
    else:
        run_experiment(config, jobs=args.jobs)
    print(f"wrote {Path(config.output_dir) / config.experiment_id}")
    return 0


def _cmd_matrix(args) -> int:
    mode = TokenizationMode.parse(args.mode)
    plays = [play_from_json(Path(path).read_text(encoding="utf-8")) for path in args.files]
    chunks = prepare_chunks(
        plays, args.labeling, args.min_size, args.chunk_count, args.chunk_size
    )
    write_matrix_csv(chunk_matrix(chunks, mode, jobs=args.jobs), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    data = json.loads(Path(args.report).read_text(encoding="utf-8"))
    threshold = data["settings"]["threshold"]
    print(f"experiment: {data['experiment_id']}")
    print(f"settings: permutations={data['settings']['permutations']} "
          f"seed={data['settings']['seed']} threshold={threshold}")
    for mode, section in data["modes"].items():
        print(f"\n== mode: {mode} ==")
        header = f"{'category':<28} {'rank_sum':>10} {'p':>8} {'hits':>9} {'p':>8}  flag"
        print(header)
        print("-" * len(header))
        for cat in section["categories"]:
            flag = "*" if (cat["rank_sum_p"] <= threshold or cat["attribution_p"] <= threshold) else ""
            hits = f"{cat['attribution_hits']}/{cat['attribution_total']}"
            print(
                f"{cat['category']:<28} {cat['rank_sum']:>10.1f} {cat['rank_sum_p']:>8.4f} "
                f"{hits:>9} {cat['attribution_p']:>8.4f}  {flag}"
            )
        if section["ties_logged"]:
            print(f"ties logged: {len(section['ties_logged'])}")
    if data["warnings"]:
        print(f"\nwarnings ({len(data['warnings'])}):")
        for w in data["warnings"]:
            print(f"  - {w}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dramastyle", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
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
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare-translations", action="store_true",
                   help="emit the cross-translation attribution table instead")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("matrix", help="interchange JSON files -> matrix CSV")
    p.add_argument("files", nargs="+")
    p.add_argument("--mode", default="letter_unigram")
    p.add_argument("--labeling", default="character")
    p.add_argument("--min-size", type=int, default=10000)
    p.add_argument("--chunk-count", type=int, default=5)
    p.add_argument("--chunk-size", type=int, default=2000)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("report", help="render a report JSON as a text table")
    p.add_argument("report")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, ConfigError):
            return 2
        if isinstance(cause, StatisticsError):
            return 4
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StatisticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
