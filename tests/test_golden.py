"""Byte-identity of the pipeline's outputs, pinned by tests/golden.txt.

A change that alters a transcript, a stage dump or an `eval` report on
purpose rewrites the file with `PYTHONPATH=src python tests/golden.py`.
Rotation is fixed-point in the pipeline and in the generator alike, with
no float bilinear path; numpy's float paths that remain (the float32 gray
conversion, the float64 coordinate terms rotate rounds, the noise draws)
may differ between numpy versions, so a failure names the versions that
made the file and this run; it is not skipped on a version mismatch."""

import golden


def test_outputs_match_golden_digests(store, tmp_path):
    made_with, want = golden.parse_golden(golden.GOLDEN.read_text())
    got = golden.compute_digests(store, str(tmp_path))
    differ = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
    missing = sorted(want.keys() - got.keys())
    extra = sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"outputs differ from {golden.GOLDEN.name} (made with {made_with}; "
        f"this run {golden.versions()}):\n"
        + "".join(f"  differs: {name}\n" for name in differ)
        + "".join(f"  missing: {name}\n" for name in missing)
        + "".join(f"  new: {name}\n" for name in extra))
