"""SHA-256 of every report file on small fixed inputs.

The determinism test in test_acceptance compares two runs with each
other, so a change that shifts the results the same way both times
passes it. These digests pin the bytes themselves: a change that alters
any output on purpose must re-pin them and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from crfe.cli import main
from crfe.data import Dataset, SyntheticSpec, generate_synthetic, impute_knn, save_synthetic

BENCH_CFG = {
    "dataset": {"synthetic": {"n_samples": 120, "n_features": 8,
                              "n_informative": 3, "n_redundant": 2,
                              "n_classes": 3, "class_sep": 1.5,
                              "flip_y": 0.02, "seed": 7}},
    "repeats": 2,
    "master_seed": 3,
    "stopping": {"repeats": 2},
}

BENCH_DIGESTS = {
    "results.csv": "6a3b74ee13c41ab057608ddefa10eb226e7799a3af3fc5994fb2796907c6faaf",
    "consistency.csv": "77ca29e6301951d398010e853b6fa40d7d8f48dce1b7e6c9594b3a1f36cdc77e",
    "stopping.csv": "8f04740701bcbab3068759d2e9ffdd270f15656cba1d42937db063f3cbc9eb78",
    "frequencies.csv": "c84688f55879b5e7381d22ee3298bd37433bd5755f820990664fce9a98db78ff",
    "trace_crfe_3.json": "c29603867e747d227fdd1d8a3a03daa788fdde1ae759bdf75b1f6b95ed05b577",
    "trace_crfe_4.json": "dd7993d7a89f3b696188ec358ad6c012e176bb8382fed0e8390147b71069d7d7",
    "trace_rfe_3.json": "a85804c19a3c4ae3be01bde399f3cef0aab36b5c89598a76f901c9b56600f510",
    "trace_rfe_4.json": "388e7281692042ce892030438ef79538ba42acf0ecf01285c99bf4c4ac8f5d5f",
    "plot_inefficiency_rfe.svg": "302b23b2fea17be53a9f8f82b6d8fd41182a7ebfd997dbefd023532411a6d76a",
}

SELECT_SPEC = SyntheticSpec(n_samples=150, n_features=12, n_informative=4,
                            n_redundant=1, n_classes=3, class_sep=1.5,
                            flip_y=0.02, seed=5)

# the beta stop fires at step 6 on this input, so the trace ends
# with the row of the step that fired
SELECT_DIGESTS = {
    ("crfe", "beta"): {
        "trace.csv": "d6e90663d2cca9e1fd1abec0af9d1594b0dff18d9134aeb397789b220c0d00f0",
        "trace.json": "21936cc0f33072795ba3f4a4768cc79fd7b9d43276e750804b34883e25bf4043",
        "model.json": "947030d68ba4afe2ebce1b7ced0e585b33769124c8a42d70135a46ab4aae4f51",
        "predictions.csv": "0bed092208cc42f5237479a2b02f716f023fb74b57fc9cbbb5bb1cb38d0d3a5c",
    },
    ("rfe", "fixed:4"): {
        "trace.csv": "a43cc4fcf82937ddd0f94d60d48fd259bc33d3f24e9eda8794a8bb7194cb8042",
        "trace.json": "79b5e10180a78b1d29c48090d753b23cbd9d9b983c6cc6f719ed27b0802452fc",
        "model.json": "47cae8beb3f03ff8037a00ba6820cd9ffe3590eb4a52f75e99fc34b0a3f4c282",
        "predictions.csv": "2b01124e4470905d9d7ae5fa8373bf90459487e064f107672c080e7c325d62eb",
    },
}


def digests(out_dir, names):
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def test_bench_report_digests(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BENCH_CFG))
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert digests(out, BENCH_DIGESTS) == BENCH_DIGESTS


@pytest.mark.parametrize("method,stop", sorted(SELECT_DIGESTS))
def test_select_artifact_digests(tmp_path, method, stop):
    data = tmp_path / "data.csv"
    save_synthetic(SELECT_SPEC, data)
    out = tmp_path / "sel"
    assert main(["select", "--data", str(data), "--label", "label",
                 "--method", method, "--stop", stop, "--seed", "2",
                 "--out", str(out)]) == 0
    want = SELECT_DIGESTS[(method, stop)]
    assert digests(out, want) == want


IMPUTED_DIGEST = "067d387191fd4f1e7e1bc9286ec5d40e4964c69e7195fcd74bda4af12b3d07d0"


def test_imputed_matrix_digest():
    # neighbour order can flip on a last-bit change of a distance, so the
    # filled values are pinned bit for bit
    d, _ = generate_synthetic(SELECT_SPEC)
    mask = np.random.default_rng(0).random((150, 12)) < 0.1
    holed = Dataset(X=np.where(mask, np.nan, d.X), y=d.y, feature_names=d.feature_names,
                    class_names=d.class_names, missing_mask=mask)
    got = hashlib.sha256(impute_knn(holed).X.tobytes()).hexdigest()
    assert got == IMPUTED_DIGEST
