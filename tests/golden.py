"""Golden sha256 digests of the pipeline's outputs.

The digests cover the transcript and every `run --dump-stages` file of the
criterion-9 card, of a card whose regions hold two lines each and of the
first cards of six synthetic suites, the truth regions and transcript that
`render_card` returns for those two cards, every file `generate_suite`
writes for the suites (cards, ink masks, truth regions, transcripts,
manifest), the `eval` report of one of them, the band and glyph dumps of
two rendered regions in which a thin candidate band merges into a
neighbour, and the files of the default template store.  tests/test_golden.py recomputes them
and compares with tests/golden.txt, so any change to a transcript, a stage
dump, an `eval` report or the generator's output (the store, the suite
files, and the cards whose crops are dumped) fails tier-1 until the file is
rewritten.  The generator rotates through imaging.rotate, the pipeline's
only rotation kernel, so a change to that kernel moves the store and the
skewed cards as well as the deskewed crops.

Rewrite the file after an intended behaviour change with

    PYTHONPATH=src python tests/golden.py

and name in the change which digests moved and the `eval` deltas they carry.
"""

import hashlib
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

from cardocr import binarize, evaluate, imaging, pipeline, recognize, segment, synth
from cardocr import regions as rg
from cardocr.config import PipelineConfig
from cardocr.synth import Band, CardSpec
from reference import to_gray
from test_skew import CRITERION_9_SPEC

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.txt"

CARDS_PER_SUITE = 5

# The suites of the accuracy tables in ROADMAP.md, each the first cards of
# `synth --count 40 --seed 1` with the given options.
SUITES = {
    "skew2": synth.SuiteParams(count=CARDS_PER_SUITE, skew_min=-2, skew_max=2),
    "skew10": synth.SuiteParams(count=CARDS_PER_SUITE, skew_min=-10, skew_max=10),
    "saltpepper": synth.SuiteParams(count=CARDS_PER_SUITE, skew_min=-2, skew_max=2,
                                    salt_pepper_min=0.002, salt_pepper_max=0.002),
    "scale2": synth.SuiteParams(count=CARDS_PER_SUITE, skew_min=-2, skew_max=2, scales=(2,)),
    "scale8": synth.SuiteParams(count=CARDS_PER_SUITE, skew_min=-2, skew_max=2, scales=(8,),
                                width=2048, height=1536),
    # Not a table suite: under 1% salt-and-pepper, card 2's one text region
    # runs the skew search into the clamp (+20.0, its stages cut to 7 and 11
    # angles).
    "saltpepper1": synth.SuiteParams(count=CARDS_PER_SUITE, skew_min=-2, skew_max=2,
                                     salt_pepper_min=0.01, salt_pepper_max=0.01),
}
EVAL_SUITE = "skew10"

# Two text regions of two lines each, the card of
# test_two_line_regions_keep_both_bands (seed 5).  Both regions keep both
# bands, so the line merge loop sees more than one candidate band.
TWO_LINE_SPEC = CardSpec(width=1000, height=600, skew_deg=1.5, noise_sigma=2.0, bands=[
    Band("Ayatullah Faruk Mollah\nSchool of Mobile Computing", 60, 80, 4),
    Band("Phone: +91 33 2414 6666\nwww.jaduniv.edu.in", 80, 330, 4),
])

# Clean regions 1 and 72 of test_c05_line_segmentation (seed 60): in each,
# one thin candidate band merges into a neighbour.  (lines, scale) per region.
MERGE_REGIONS = {
    "c05_seed60/region_1": (["ojpcoi", "7U4SA2I aazpx", "rmuojblb 617XOV", "IQHUZJ"], 4),
    "c05_seed60/region_72": (["lahxjacr pfcr", "tnmfkrs tzprr WJVQQ4T", "lump xhar gqxcgmf",
                              "NKG7D", "nixox"], 3),
}


def versions():
    return f"numpy {np.__version__} python {platform.python_version()}"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _dir_digests(name, directory):
    """{'<name>/<file>': sha256} of every file in `directory`."""
    digests = {}
    for file in sorted(os.listdir(directory)):
        with open(os.path.join(directory, file), "rb") as fh:
            digests[f"{name}/{file}"] = _sha256(fh.read())
    return digests


def _card_digests(name, image, cfg, store, workdir):
    """{'<name>/<file>': sha256} of the card's transcript, as `cardocr run`
    prints it, and of its stage dump files."""
    result = pipeline.run_pipeline(image, cfg, store)
    out = os.path.join(workdir, name)
    pipeline.dump_stages(result, out)
    stdout = result.transcript + ("\n" if result.transcript else "")
    return {f"{name}/transcript": _sha256(stdout.encode())} | _dir_digests(name, out)


def _region_digests(name, lines, scale):
    """{'<name>.bands.txt' and '<name>.glyphs.txt': sha256} of a rendered
    region's segmentation, as the stage dumps write it."""
    binary = binarize.binarize_region(synth.render_region(lines, scale).image)
    bands, glyphs, _ = pipeline._stage_segment([binary])
    return {f"{name}.bands.txt": _sha256(segment.format_band_dump(bands[:, 1:]).encode()),
            f"{name}.glyphs.txt": _sha256(segment.format_glyph_dump(glyphs).encode())}


def _truth_digests(name, truth):
    """{'<name>/truth.regions.txt' and '<name>/truth.txt': sha256} of a
    rendered card's ground truth, as `generate_suite` writes it."""
    return {f"{name}/truth.regions.txt": _sha256(rg.format_region_dump(truth.regions).encode()),
            f"{name}/truth.txt": _sha256(synth.truth_transcript(truth).encode())}


def _store_digests(store, workdir):
    """{'store/<file>': sha256} of the store's files, as save_store writes them."""
    out = os.path.join(workdir, "store")
    recognize.save_store(store, out)
    return _dir_digests("store", out)


def compute_digests(store, workdir):
    """Every golden digest, keyed by file name, computed under `workdir`;
    `store` is the default one, synth.build_font_store()."""
    cfg = PipelineConfig()
    color, truth = synth.render_card(CRITERION_9_SPEC, seed=3)
    digests = _card_digests("criterion9", to_gray(color), cfg, store, workdir)
    digests.update(_truth_digests("criterion9", truth))
    digests.update(_store_digests(store, workdir))
    color, truth = synth.render_card(TWO_LINE_SPEC, seed=5)
    digests.update(_card_digests("two_line", to_gray(color), cfg, store, workdir))
    digests.update(_truth_digests("two_line", truth))
    for name, (lines, scale) in MERGE_REGIONS.items():
        digests.update(_region_digests(name, lines, scale))
    for suite, params in SUITES.items():
        suite_dir = os.path.join(workdir, "suites", suite)
        synth.generate_suite(suite_dir, params)
        digests.update(_dir_digests(f"{suite}/suite", suite_dir))
        paths = synth.suite_card_paths(suite_dir)
        for k, base in enumerate(paths):
            image = imaging.load_pnm_file(base + ".ppm")
            digests.update(_card_digests(f"{suite}/card_{k}", image, cfg, store, workdir))
        if suite == EVAL_SUITE:
            report = evaluate.format_report(evaluate.evaluate_suite(paths, cfg, store))
            digests[f"{suite}/eval"] = _sha256(report.encode())
    return digests


def format_golden(digests):
    return f"# {versions()}\n" + "".join(
        f"{digest}  {name}\n" for name, digest in sorted(digests.items()))


def parse_golden(text):
    """(the versions line, {name: sha256}) of a golden file."""
    lines = text.splitlines()
    header = lines[0].removeprefix("# ")
    rows = (line.split("  ", 1) for line in lines[1:])
    return header, {name: digest for digest, name in rows}


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = compute_digests(synth.build_font_store(), workdir)
    GOLDEN.write_text(format_golden(digests))
    print(f"wrote {len(digests)} digests to {GOLDEN} ({versions()})")


if __name__ == "__main__":
    sys.exit(main())
