"""cardocr benchmark: card latency, throughput, memory and accuracy.

    python3 perfbench/run.py --workload card3mp --seed 3 --seconds 40 --trace 0

One process, one client, closed loop: each card is loaded and recognized
only after the previous one finished.  A card is one operation,
`imaging.load_pnm_file` on a PPM file followed by `pipeline.run_pipeline`
with the default PipelineConfig and a loaded template store.  Inputs are
rendered from --seed by the package's own synthetic generator, so the same
seed gives the same cards.

A run has four parts, all on the same cards:

1. set-up time: fresh interpreters import the package and load the
   730-template store directory, each after a fresh interpreter running the
   set-up reference; the median of SETUP_RUNS scaled times is reported;
2. the timed loop: whole passes over the cards until --seconds have
   passed, with tracing and tracemalloc off and the reference work timed
   between cards; with --trace 1 each card is then run a second time under
   the span tracer of tracing.py, so traced and untraced times are paired
   and their difference is the tracing overhead;
3. a memory pass: the first MEMORY_CARDS cards once each under tracemalloc,
   peak above the allocation at the card's start;
4. scoring of the first transcript of each card against the generator's
   truth, and a determinism check: every later transcript of a card must be
   byte-identical to its first one.

Times are reported scaled to a fixed host speed: on a shared host the speed
of this process drifts by half within seconds, and a reference work that
uses nothing of cardocr, timed next to the cards, measures that drift.  The
plain wall times are printed beside them (README.md says more).

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines above it list
every metric of the run with its unit.
"""

import argparse
import bisect
import collections
import gc
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_RUNS = 15
# suite_noise cards are alike in cost; 100 of them leave ten cards beyond
# the 90th percentile.
SUITE_CARDS = 100
# Cards of the memory pass: the first ones of the workload.
MEMORY_CARDS = 24
STORE_SEED = 7  # the default store of `cardocr store-build`

# The reference work (see Reference): loop iterations or array-operation
# rounds.  It runs between cards every REF_EVERY_S seconds, and a card's
# time is scaled by the median reference time within REF_WINDOW_S seconds
# of it, to the host speed at which the reference takes REF_MS of its kind.
REF_LOOP = 100_000
REF_ARRAY_OPS = 20
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0
REF_MS = {"loop": 3.5, "array": 7.0}
# The kind of reference work each workload's times are scaled by: the kind
# its cards spend their time in.  card3mp is array work on a 3 MP image
# (classify, block grid, grayscale, rotate); suite_noise is Python loops
# over blocks and regions (assemble_regions, compute_features).  As the host
# drifts, each workload's card time follows its own kind of reference with
# a log-log slope near 1, and the other kind with slopes of 0.6 and 1.4.
REFERENCE = {"card3mp": "array", "suite_noise": "loop"}

# Card set-up as a user pays it: import the package, load the store.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cardocr import config, imaging, pipeline, recognize
recognize.load_store(sys.argv[2])
print(time.perf_counter() - t0)
"""

# The set-up reference: a fresh interpreter importing NumPy and some of the
# standard library, then the reference loop.  Like set-up it is start-up
# work on cold caches, which the in-process reference does not track; it
# uses nothing of cardocr.  Set-up times are scaled to the host speed at
# which it takes SETUP_REF_S.
SETUP_REF_CODE = """
import sys, time
t0 = time.perf_counter()
import argparse, decimal, email.parser, json, unittest, xml.dom.minidom
import numpy
total = 0
for i in range(100_000):
    total += i
print(time.perf_counter() - t0)
"""
SETUP_REF_S = 0.1

WORKLOADS = tuple(REFERENCE)


Card = collections.namedtuple("Card", "path truth_text truth_regions")


def make_cards(workload, seed, work):
    """Render the workload's cards from `seed` into `work`."""
    from cardocr import imaging, regions, synth
    from cardocr.synth import Band, CardSpec, SuiteParams

    if workload == "card3mp":
        # The criterion-9 card of tests/test_acceptance.py; the noise is
        # drawn from `seed`, and seed 3 reproduces that card byte for byte.
        spec = CardSpec(
            width=2048, height=1536,
            bands=[
                Band(text="Ayatullah Faruk Mollah", x=100, y=150, scale=6),
                Band(text="School of Mobile Computing", x=100, y=400, scale=5),
                Band(text="Jadavpur University Kolkata", x=100, y=650, scale=5),
                Band(text="Phone: +91 33 2414 6666", x=100, y=900, scale=5),
                Band(text="www.jaduniv.edu.in", x=100, y=1150, scale=5),
            ],
            noise_sigma=4.0,
        )
        color, truth = synth.render_card(spec, seed=seed)
        path = os.path.join(work, "card3mp.ppm")
        imaging.save_pnm_file(path, color)
        return [Card(path, synth.truth_transcript(truth), truth.regions)]
    params = SuiteParams(count=SUITE_CARDS, seed=seed, skew_min=-2.0, skew_max=2.0,
                         sigma_min=0.0, sigma_max=5.0,
                         salt_pepper_min=0.002, salt_pepper_max=0.002)
    suite = os.path.join(work, "suite")
    synth.generate_suite(suite, params)
    cards = []
    for base in synth.suite_card_paths(suite):
        with open(base + ".regions.txt") as fh:
            truth_regions = regions.parse_region_dump(fh.read())
        with open(base + ".truth.txt") as fh:
            cards.append(Card(base + ".ppm", fh.read(), truth_regions))
    return cards


def child_seconds(code, *args):
    """Run `code` in a fresh interpreter; the float it prints last."""
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(store_dir):
    """Seconds, per fresh interpreter, to import cardocr and load the store:
    (wall seconds, set-up reference seconds, seconds scaled by the set-up
    reference run just before)."""
    wall, refs, scaled = [], [], []
    for _ in range(SETUP_RUNS):
        refs.append(child_seconds(SETUP_REF_CODE))
        wall.append(child_seconds(SETUP_CODE, SRC, store_dir))
        scaled.append(wall[-1] * SETUP_REF_S / refs[-1])
    return wall, refs, scaled


class Runner:
    """Runs cards, counting attempts and failures, and checks that every
    transcript of a card equals the first one."""

    def __init__(self, cards, cfg, store):
        self.cards = cards
        self.cfg = cfg
        self.store = store
        self.first = [None] * len(cards)
        self.results = [None] * len(cards)
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def card_fn(self, index):
        from cardocr import imaging, pipeline

        path = self.cards[index].path

        def run():
            return pipeline.run_pipeline(imaging.load_pnm_file(path), self.cfg, self.store)

        return run

    def record(self, index, call):
        """call() runs the card and returns (result, anything); returns that
        pair, or None when the card raised."""
        self.attempted += 1
        try:
            out = call()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        transcript = out[0].transcript
        if self.first[index] is None:
            self.first[index] = transcript
            self.results[index] = out[0]
        elif transcript != self.first[index]:
            self.mismatches += 1
        return out

    def digest(self):
        h = hashlib.sha256()
        for text in self.first:
            h.update(repr(text).encode())
        return h.hexdigest()


class Reference:
    """A fixed piece of work that uses nothing of cardocr, of one of the two
    kinds of work a card does: a pure-Python loop ("loop") or NumPy array
    operations ("array").  On a shared host the speed of this process
    drifts by half within seconds; the reference slows with it, while no
    change to the package can move it.  Card times are reported scaled by
    it."""

    def __init__(self, kind):
        import numpy as np

        self.kind = kind
        self.array = np.random.default_rng(0).random((300, 300))

    def run(self):
        """Milliseconds of one pass of the reference work."""
        import numpy as np

        t0 = time.perf_counter_ns()
        if self.kind == "loop":
            total = 0
            for i in range(REF_LOOP):
                total += i
        else:
            a = self.array
            for _ in range(REF_ARRAY_OPS):
                (a * 1.5 + a).sum()
                np.sort(a, axis=1)
        return (time.perf_counter_ns() - t0) / 1e6


def timed_loop(runner, seconds, tracer, seed, reference):
    """Closed loop of whole passes over the cards until `seconds` have
    passed, so every card runs equally often.  Each pass takes the cards in
    a fresh order drawn from `seed`.  The reference work runs between cards
    every REF_EVERY_S seconds.  Returns (samples, refs, pairs): untraced
    (card, ms, time s) per card run, (ms, time s) per reference run, and
    (traced ms, untraced ms, time s) per traced card run."""
    samples, refs, pairs = [], [], []
    order = list(range(len(runner.cards)))
    shuffle = random.Random(seed).shuffle
    gc.collect()
    start = time.perf_counter()
    next_ref = start
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        shuffle(order)
        for index in order:
            if time.perf_counter() >= next_ref:
                refs.append((reference.run(), time.perf_counter() - start))
                next_ref = time.perf_counter() + REF_EVERY_S
            fn = runner.card_fn(index)

            def timed():
                t0 = time.perf_counter_ns()
                return fn(), time.perf_counter_ns() - t0

            out = runner.record(index, timed)
            if out is None:
                continue
            samples.append((index, out[1] / 1e6, time.perf_counter() - start))
            if tracer is not None:
                traced = runner.record(index, lambda: tracer.run_card(index, fn))
                if traced is not None:
                    pairs.append((traced[1] / 1e6, out[1] / 1e6, time.perf_counter() - start))
    refs.append((reference.run(), time.perf_counter() - start))
    return samples, refs, pairs


def scale_at(refs, t, ref_ms):
    """The factor for a time taken at `t` s into the loop: `ref_ms` over the
    median reference time within REF_WINDOW_S of it."""
    at = [when for _, when in refs]
    near = refs[bisect.bisect_left(at, t - REF_WINDOW_S):bisect.bisect_right(at, t + REF_WINDOW_S)]
    return ref_ms / statistics.median(r for r, _ in near or refs)


def card_times(samples, refs, ref_ms):
    """Per card, the median of its wall times and the median of its scaled
    times, in ms: ([wall], [scaled])."""
    wall, scaled = collections.defaultdict(list), collections.defaultdict(list)
    for index, ms, t in samples:
        wall[index].append(ms)
        scaled[index].append(ms * scale_at(refs, t, ref_ms))
    return ([statistics.median(v) for v in wall.values()],
            [statistics.median(v) for v in scaled.values()])


def memory_pass(runner):
    """tracemalloc peak (bytes) of each card above the allocation at its start."""
    peaks = []
    tracemalloc.start()
    try:
        for index in range(min(MEMORY_CARDS, len(runner.cards))):
            fn = runner.card_fn(index)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]

            def call():
                result = fn()
                return result, tracemalloc.get_traced_memory()[1] - base

            out = runner.record(index, call)
            if out is not None:
                peaks.append(out[1])
            del out
    finally:
        tracemalloc.stop()
    return peaks


def percentile90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cardocr", "pipeline.py")):
        print(f"error: cardocr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import score
    import tracing
    from cardocr import recognize, synth
    from cardocr.config import PipelineConfig

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(work)
        store_dir = os.path.join(work, "store")
        recognize.save_store(synth.build_font_store(seed=STORE_SEED), store_dir)
        # Before the cards are written, so their write-back cannot slow it.
        setup_wall, setup_refs, setup_scaled = measure_setup(store_dir)
        cards = make_cards(args.workload, args.seed, work)

        store = recognize.load_store(store_dir)
        runner = Runner(cards, PipelineConfig(), store)
        tracer = tracing.Tracer() if args.trace else None
        samples, refs, pairs = timed_loop(runner, args.seconds, tracer, args.seed,
                                          Reference(REFERENCE[args.workload]))
        peaks = memory_pass(runner)
        errors, chars, counts = score.score_cards(cards, runner.results,
                                                  runner.cfg.class_scheme())
        input_bytes = [os.path.getsize(c.path) for c in cards]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    f_pct = score.pooled_f_pct(counts)
    ref_ms = REF_MS[REFERENCE[args.workload]]
    wall, scaled = card_times(samples, refs, ref_ms)
    end_to_end = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "card_latency_p50_ms": (statistics.median(scaled), "ms"),
        "card_latency_p90_ms": (percentile90(scaled), "ms"),
        "cards_per_s": (1e3 * len(scaled) / sum(scaled), "1/s"),
        "peak_mem_mb": (statistics.median(peaks) / 1e6, "MB"),
        "char_error_pct": (100.0 * errors / chars, "%"),
    }
    informational = {
        "latency_samples": (len(samples), "count"),
        "reference_ms": (statistics.median(r for r, _ in refs), "ms"),
        "setup_reference_s": (statistics.median(setup_refs), "s"),
        "wall_setup_s": (statistics.median(setup_wall), "s"),
        "wall_latency_p50_ms": (statistics.median(wall), "ms"),
        "wall_latency_p90_ms": (percentile90(wall), "ms"),
        "wall_cards_per_s": (1e3 * len(wall) / sum(wall), "1/s"),
        "input_mb": (statistics.mean(input_bytes) / 1e6, "MB"),
        "peak_mem_max_mb": (max(peaks) / 1e6, "MB"),
        "char_accuracy_pct": (100.0 * (1 - errors / chars), "%"),
        "region_f_pct": (f_pct, "%"),
        "failed_pct": (100.0 * runner.failed / runner.attempted, "%"),
    }
    per_layer = {}
    if tracer is not None:
        scales = [scale_at(refs, t, ref_ms) for _, _, t in pairs]
        per_layer = tracer.layer_metrics([(t, u) for t, u, _ in pairs], scales, len(store))
        per_layer["regions.f_pct"] = (f_pct, "%")
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.jsonl"))

    correct = runner.failed == 0 and runner.mismatches == 0
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cards={len(cards)}")
    print(f"transcripts sha256={runner.digest()} mismatches={runner.mismatches}")
    for name, (value, unit) in {**end_to_end, **informational, **per_layer}.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    chosen = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
