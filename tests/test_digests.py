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
    "train": {"epochs": 40, "batch_size": 16},
    "stopping": {"repeats": 2},
}

BENCH_DIGESTS = {
    "results.csv": "8dba1ebcd8b6cbedae619de6e89a645e02d609bbc547848e332ad627c0b11eb6",
    "consistency.csv": "2639f2a2314355a5c241cfb4b8b1ad4c6e93d0f6e3f04c28fe88312dfbbbea3b",
    "stopping.csv": "6ac89966f149485c717ab38478da128524c21c5bd05c6d12705360eb33a0a1ec",
    "frequencies.csv": "85896d3cff2e5e223692d21d78e80adf30289266fc281137d55d0edaa62e824e",
}

SELECT_SPEC = SyntheticSpec(n_samples=150, n_features=12, n_informative=4,
                            n_redundant=1, n_classes=3, class_sep=1.5,
                            flip_y=0.02, seed=5)

# the beta stop fires after 10 steps on this input, so the trace ends
# with the row of the step that fired
SELECT_DIGESTS = {
    ("crfe", "beta"): {
        "trace.csv": "acf343f478659ae67c105c914f057977c1110fc9327feb4577dc7e68f430128a",
        "trace.json": "3a7169f5ccf6fbc5b8d7e417c99cc433d2fbeae8ddd6aafe5d7f70d4731254f4",
        "model.json": "eedce15ab5045c24a0a1aa5c8386f717f36bcb8c617e477cb2b298b345a68b3e",
        "predictions.csv": "becbb68415f6e1e199e58c6537b1c000c5cd2416fc38987afbe7d58294259a01",
    },
    ("rfe", "fixed:4"): {
        "trace.csv": "c97d08937bd90007b835e335f1fc64e6954372752e0a5af75e14e76bd179a127",
        "trace.json": "0b1029e9905531ec1ecfb305b3d5675fa54e08d0b0f1b4cd7ab57bfd77c9eff4",
        "model.json": "291e0cf0f6a8cc61567d28fac456f4c853774dbcbcb85b66b673075d52d2d158",
        "predictions.csv": "99954564d2efd0028b4a7f6b0fd6fac27983219be80a22bd4f1d98f6e37b193e",
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
