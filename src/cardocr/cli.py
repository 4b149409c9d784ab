"""Command-line interface.

Commands: run (OCR one image), synth (generate a ground-truthed card
suite), store-build (build the template store from the bundled font), eval
(score a pipeline run against a suite), bench (per-stage timing and peak
buffer report).

Exit codes: 0 ok, 2 unreadable input, any other filesystem error (a
missing path, a file where a directory belongs), an image smaller than one
block or a synth/store-build/bench argument out of range, 3 invalid or
unreadable template store, 4 no text found (for eval: no text region of the
suite matched, so region recall and precision are undefined).  Exit 5,
once a bad config file, is no longer produced.  Settings are flags only:
--scheme picks the class scheme and --templates names the store.
"""

import argparse
import os
import sys

from . import evaluate as ev
from . import imaging
from . import pipeline
from . import recognize as rec
from . import synth
from .config import PipelineConfig
from .imaging import PnmError
from .recognize import StoreError
from .regions import ImageTooSmallError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_STORE = 3
EXIT_NO_TEXT = 4


class ArgumentRangeError(ValueError):
    """A synth, store-build or bench argument outside its accepted range."""


def _config_and_store(args):
    if not args.templates:
        raise StoreError("no template store given (use --templates)")
    return PipelineConfig(args.scheme), rec.load_store(args.templates)


def _load_card(args):
    """The input image, once the dump directory, if any, is made: every
    path is checked before the pipeline runs."""
    image = imaging.load_pnm_file(args.input)
    if args.dump_stages:
        os.makedirs(args.dump_stages, exist_ok=True)
    return image


def cmd_run(args):
    cfg, store = _config_and_store(args)
    # handed over as the only reference, the image is freed once cropped
    result = pipeline.run_pipeline(_load_card(args), cfg, store)
    if args.dump_stages:
        pipeline.dump_stages(result, args.dump_stages)
    sys.stdout.write(result.transcript + ("\n" if result.transcript else ""))
    if not result.transcript:
        return EXIT_NO_TEXT
    return EXIT_OK


def cmd_synth(args):
    try:
        scales = tuple(int(s) for s in args.scales.split(","))
    except ValueError:
        raise ArgumentRangeError(
            f"--scales must be comma-separated integers, got {args.scales!r}") from None
    try:
        params = synth.SuiteParams(
            count=args.count, seed=args.seed, width=args.width, height=args.height,
            scales=scales, skew_min=args.skew_min, skew_max=args.skew_max,
            sigma_min=args.sigma_min, sigma_max=args.sigma_max,
            salt_pepper_min=args.salt_pepper, salt_pepper_max=args.salt_pepper,
        )
    except ValueError as exc:
        raise ArgumentRangeError(exc) from None
    manifest = synth.generate_suite(args.out_dir, params)
    sys.stdout.write(ev.format_report(sorted(manifest.items())))
    return EXIT_OK


def cmd_store_build(args):
    if args.samples < rec.SAMPLES_PER_CLASS:
        raise ArgumentRangeError(f"--samples must be >= {rec.SAMPLES_PER_CLASS}")
    if args.seed < 0:
        raise ArgumentRangeError("--seed must be >= 0")
    os.makedirs(args.out_dir, exist_ok=True)
    store = synth.build_font_store(seed=args.seed, samples_per_class=args.samples)
    rec.save_store(store, args.out_dir)
    sys.stdout.write(ev.format_report([("templates", len(store))]))
    return EXIT_OK


def cmd_eval(args):
    cfg, store = _config_and_store(args)
    paths = synth.suite_card_paths(args.suite_dir)
    if not paths:
        raise PnmError(f"no cards found in {args.suite_dir}")
    try:
        pairs = ev.evaluate_suite(paths, cfg, store)
    except ev.MetricUndefinedError as exc:
        print(f"no text found: {exc}", file=sys.stderr)
        return EXIT_NO_TEXT
    sys.stdout.write(ev.format_report(pairs))
    return EXIT_OK


def cmd_bench(args):
    if args.runs < 1:
        raise ArgumentRangeError("--runs must be >= 1")
    cfg, store = _config_and_store(args)
    timer, _ = pipeline.time_pipeline(args.input, cfg, store, runs=args.runs)
    sys.stdout.write(ev.format_report(timer.report_pairs()))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cardocr",
        description="OCR pipeline for camera-captured business card images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--templates", help="template store directory")
        p.add_argument("--scheme", choices=list(rec.SCHEMES),
                       default=PipelineConfig.scheme,
                       help="class scheme (default %(default)s)")

    p_run = sub.add_parser("run", help="recognize one PGM/PPM image")
    p_run.add_argument("input")
    add_common(p_run)
    p_run.add_argument("--dump-stages", metavar="DIR",
                       help="write per-stage debug artifacts to DIR")
    p_run.set_defaults(fn=cmd_run)

    suite = synth.SuiteParams  # the class attributes hold the field defaults
    p_synth = sub.add_parser("synth", help="generate a synthetic card suite")
    p_synth.add_argument("out_dir")
    p_synth.add_argument("--seed", type=int, default=suite.seed)
    p_synth.add_argument("--count", type=int, default=suite.count)
    p_synth.add_argument("--width", type=int, default=suite.width)
    p_synth.add_argument("--height", type=int, default=suite.height)
    p_synth.add_argument("--scales", default=",".join(map(str, suite.scales)),
                         help="comma-separated text scales, one drawn per band "
                              "(default %(default)s)")
    p_synth.add_argument("--skew-min", type=float, default=suite.skew_min)
    p_synth.add_argument("--skew-max", type=float, default=suite.skew_max)
    p_synth.add_argument("--sigma-min", type=float, default=suite.sigma_min)
    p_synth.add_argument("--sigma-max", type=float, default=suite.sigma_max)
    p_synth.add_argument("--salt-pepper", type=float, default=suite.salt_pepper_min)
    p_synth.set_defaults(fn=cmd_synth)

    p_store = sub.add_parser("store-build", help="build the template store")
    p_store.add_argument("out_dir")
    p_store.add_argument("--seed", type=int, default=synth.FONT_STORE_SEED)
    p_store.add_argument("--samples", type=int, default=synth.FONT_STORE_SAMPLES,
                         help="perturbed samples rendered per class")
    p_store.set_defaults(fn=cmd_store_build)

    p_eval = sub.add_parser("eval", help="score a run against suite ground truth")
    p_eval.add_argument("suite_dir")
    add_common(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_bench = sub.add_parser("bench", help="per-stage timing and memory report")
    p_bench.add_argument("input")
    add_common(p_bench)
    p_bench.add_argument("--runs", type=int, default=1)
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StoreError as exc:
        print(f"template store error: {exc}", file=sys.stderr)
        return EXIT_STORE
    except (PnmError, OSError, ImageTooSmallError, ArgumentRangeError,
            synth.SuiteFormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
