"""End-to-end acceptance checks.

Each test pins one externally stated guarantee of the package: the
feature-score identity, conformal validity and p-value calibration,
informative-feature recovery, stability-index identities, stopping
behavior at scale, prediction-set structure, the hand-computed fixtures,
and bit-level determinism of the benchmark pipeline.
"""

import json
import time

import numpy as np
import pytest

from crfe.classifier import LinearModelSet, TrainConfig, train_ova
from crfe.cli import main
from crfe.conformal import CalibrationRecord, calibrate, conformal_predict
from crfe.consistency import SubsetFamily, jaccard_multi, kuncheva, weighted_consistency
from crfe.data import (
    SyntheticSpec,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    split_with_all_classes,
)
from crfe.metrics import set_metrics
from crfe.selection import (
    BetaCriterion,
    FixedSize,
    StopReason,
    beta_measures,
    run_crfe,
    run_rfe,
)
from oracles import delta_nonconformity_oracle, multiclass_nonconformity, p_value, prediction_set

# the benchmark generator settings used throughout: 350 samples, 35
# features of which 10 informative + 1 redundant, 4 classes
BENCH = dict(n_samples=350, n_features=35, n_informative=10, n_redundant=1,
             n_classes=4, class_sep=1.5, flip_y=0.05)


def bench_data(seed):
    d, informative = generate_synthetic(SyntheticSpec(seed=seed, **BENCH))
    sp = split_with_all_classes(d, seed=seed)
    ds = apply_scaler(fit_scaler(d, sp.train_idx), d)
    return ds, sp, set(int(j) for j in informative)


def random_model_set(rng, l, m):
    wb = [(rng.standard_normal(l) * 3, float(rng.standard_normal())) for _ in range(m)]
    return LinearModelSet(
        W=[w for w, _ in wb],
        b=[b for _, b in wb],
        lam=float(rng.random()),
        active_features=tuple(range(l)),
    )


# 1. closed-form feature scores equal the remove-one-feature oracle


def test_beta_equals_delta_oracle_randomized():
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        l = int(rng.integers(1, 21))
        m = int(rng.integers(2, 6))
        ms = random_model_set(rng, l, m)
        X = rng.standard_normal((n, l)) * float(rng.uniform(0.5, 4.0))
        y = rng.integers(0, m, size=n)
        beta = beta_measures(ms, X, y)
        for j in range(l):
            diff = abs(beta[j] - delta_nonconformity_oracle(ms, X, y, j))
            worst = max(worst, diff)
    assert worst <= 1e-9, f"worst |beta - oracle| = {worst!r}"
    assert time.time() - start < 10.0


# 2. marginal validity of the conformal sets on the benchmark generator


def test_pooled_coverage_within_bands():
    start = time.time()
    hits = {0.1: 0, 0.2: 0}
    total = 0
    for r in range(20):
        ds, sp, _ = bench_data(2000 + r)
        ms = train_ova(ds.X[sp.train_idx], ds.y[sp.train_idx], 4, TrainConfig())
        rec = calibrate(ms, ds.X[sp.calib_idx], ds.y[sp.calib_idx])
        y_te = ds.y[sp.test_idx]
        total += len(y_te)
        for eps in (0.1, 0.2):
            _, mask = conformal_predict(ms, rec, ds.X[sp.test_idx], eps)
            hits[eps] += int(mask[np.arange(len(y_te)), y_te].sum())
    cov_10 = hits[0.1] / total
    cov_20 = hits[0.2] / total
    assert 0.85 <= cov_10 <= 0.95, f"pooled coverage at eps=0.1: {cov_10}"
    assert 0.75 <= cov_20 <= 0.85, f"pooled coverage at eps=0.2: {cov_20}"
    assert time.time() - start < 120.0


# 3. the conformal selector recovers planted informative features at
#    least as well as the weight-norm baseline


def test_informative_feature_recovery():
    start = time.time()
    frac_crfe, frac_rfe = [], []
    for seed in range(1000, 1020):
        ds, sp, informative = bench_data(seed)
        args = (ds.X[sp.train_idx], ds.y[sp.train_idx],
                ds.X[sp.calib_idx], ds.y[sp.calib_idx], 4)
        tr_c = run_crfe(*args, FixedSize(10), TrainConfig())
        tr_r = run_rfe(*args, FixedSize(10), TrainConfig())
        frac_crfe.append(len(set(tr_c.selected) & informative) / 10)
        frac_rfe.append(len(set(tr_r.selected) & informative) / 10)
    mean_c, mean_r = float(np.mean(frac_crfe)), float(np.mean(frac_rfe))
    assert mean_c >= 0.6, f"crfe recovery {mean_c}"
    assert mean_c >= mean_r, f"crfe {mean_c} < rfe {mean_r}"
    assert time.time() - start < 600.0


# 4. stability-index identities


def test_weighted_index_equals_jaccard_for_pairs():
    rng = np.random.default_rng(4)
    for _ in range(500):
        s = int(rng.integers(2, 31))
        a = frozenset(rng.choice(s, size=int(rng.integers(1, s + 1)), replace=False))
        b = frozenset(rng.choice(s, size=int(rng.integers(1, s + 1)), replace=False))
        fam = SubsetFamily(subsets=(a, b))
        assert abs(weighted_consistency(fam) - jaccard_multi(fam)) <= 1e-12


def test_kuncheva_identity_and_chance_grids():
    for s in range(3, 31):
        for k in range(1, s):
            a = frozenset(range(k))
            assert abs(kuncheva(a, a, s) - 1.0) <= 1e-12
    # overlap r = k^2/s is the chance level, index must vanish there
    grids = [(k, s) for s in range(2, 41) for k in range(1, s) if (k * k) % s == 0]
    assert grids
    for k, s in grids:
        r = (k * k) // s
        a = frozenset(range(k))
        b = frozenset(range(r)) | frozenset(range(k, 2 * k - r))
        assert len(b) == k and max(b, default=0) < s
        assert abs(kuncheva(a, b, s)) <= 1e-12, (k, s)


# 5. p-values at the true labels are (super-)uniform on exchangeable noise


def test_p_value_super_uniformity_on_noise():
    pooled = []
    for rep in range(20):
        rng = np.random.default_rng(500 + rep)
        X = rng.standard_normal((400, 10))
        y = rng.integers(0, 3, size=400)
        tr, cal, te = slice(0, 150), slice(150, 300), slice(300, 400)
        assert len(np.unique(y[tr])) == 3
        ms = train_ova(X[tr], y[tr], 3, TrainConfig())
        rec = calibrate(ms, X[cal], y[cal])
        P, _ = conformal_predict(ms, rec, X[te], 0.1)
        pooled.extend(P[np.arange(100), y[te]])
    pooled = np.array(pooled)
    n = pooled.size
    assert n >= 2000
    for eps in (0.05, 0.1, 0.2):
        frac = float((pooled <= eps).mean())
        bound = eps + 3.0 * np.sqrt(eps * (1 - eps) / n)
        assert frac <= bound, f"P(p <= {eps}) = {frac} > {bound}"


# 6. stopping behavior at scale: fires before exhaustion, never inside
#    the warmup window, lands at a sane size, and costs little efficiency


def test_beta_stop_fires_sanely_over_fifty_seeds():
    fired = 0
    sizes, ratios = [], []
    for seed in range(50):
        ds, sp, _ = bench_data(seed)
        X_tr, y_tr = ds.X[sp.train_idx], ds.y[sp.train_idx]
        X_cal, y_cal = ds.X[sp.calib_idx], ds.y[sp.calib_idx]
        X_te, y_te = ds.X[sp.test_idx], ds.y[sp.test_idx]
        tr = run_crfe(X_tr, y_tr, X_cal, y_cal, 4, BetaCriterion(), TrainConfig())
        if tr.stop_reason == StopReason.BETA_CRITERION_FIRED:
            fired += 1
            assert tr.steps[-1].iteration > 5, f"seed {seed} fired during warmup"
        sizes.append(tr.n_selected)
        sel = list(tr.selected)
        ms_sel = train_ova(X_tr[:, sel], y_tr, 4, TrainConfig(), active_features=sel)
        rec_sel = calibrate(ms_sel, X_cal[:, sel], y_cal)
        _, mask_sel = conformal_predict(ms_sel, rec_sel, X_te[:, sel], 0.1)
        ms_full = train_ova(X_tr, y_tr, 4, TrainConfig())
        rec_full = calibrate(ms_full, X_cal, y_cal)
        _, mask_full = conformal_predict(ms_full, rec_full, X_te, 0.1)
        ratios.append(set_metrics(mask_sel, y_te).inefficiency
                      / set_metrics(mask_full, y_te).inefficiency)
    assert fired >= 45, f"criterion fired in only {fired}/50 runs"
    mean_size = float(np.mean(sizes))
    assert 6.0 <= mean_size <= 20.0, f"mean selected size {mean_size}"
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio <= 1.10, f"inefficiency ratio {mean_ratio}"


# 7. prediction-set structure: zero epsilon keeps every class, and sets
#    shrink monotonically as epsilon grows


def test_set_structure_full_at_zero_and_nested():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n_cal = int(rng.integers(2, 51))
        m = int(rng.integers(2, 6))
        rec = CalibrationRecord(alphas=rng.standard_normal(n_cal))
        p_row = np.array([p_value(rec, float(a)) for a in rng.standard_normal(m)])
        assert prediction_set(p_row, 0.0).size == m
        e1, e2 = sorted(rng.uniform(0.0, 1.0, size=2))
        wide = prediction_set(p_row, e1)
        narrow = prediction_set(p_row, e2)
        assert set(narrow.members) <= set(wide.members)


# 8. the hand-computed fixtures, end to end in one place


def test_golden_fixtures():
    # non-conformity of a 3-class score row under equal own/other weight
    a = multiclass_nonconformity(np.array([1.0, -0.5, 0.2]), 0, 0.5)
    assert a == pytest.approx(-0.575, abs=1e-15)

    # p-values against calibration scores {0.1, 0.2, 0.3}
    rec = CalibrationRecord(alphas=np.array([0.1, 0.2, 0.3]))
    assert p_value(rec, 0.25) == 0.5
    assert p_value(rec, 0.35) == 0.25
    assert p_value(rec, 0.05) == 1.0

    # one-feature beta with opposing slopes, own-class-only weighting
    ms = LinearModelSet(
        W=[[2.0], [-2.0]],
        b=[0.0, 0.0],
        lam=1.0,
        active_features=(0,),
    )
    X = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    assert beta_measures(ms, X, y).tolist() == [4.0]

    # set metrics on three samples, two classes
    mask = np.array([[True, True], [False, False], [True, False]])
    rep = set_metrics(mask, np.array([0, 1, 0]))
    assert rep.coverage == pytest.approx(2 / 3)
    assert rep.inefficiency == pytest.approx(1.0)
    assert rep.certainty == pytest.approx(1 / 3)
    assert rep.uncertainty == pytest.approx(1 / 3)
    assert rep.mistrust == pytest.approx(1 / 3)

    # weighted consistency of {1,2}, {1,2}, {1,3}
    fam = SubsetFamily(subsets=(frozenset({1, 2}), frozenset({1, 2}),
                                frozenset({1, 3})))
    assert weighted_consistency(fam) == pytest.approx(7 / 15, abs=1e-15)

    # chance-corrected overlap: r=3, kappa=5, s=10
    a5 = frozenset(range(5))
    b5 = frozenset({0, 1, 2, 7, 8})
    assert kuncheva(a5, b5, 10) == pytest.approx(0.2, abs=1e-15)


# 9. two benchmark runs with one config produce byte-identical CSVs


def test_bench_is_byte_deterministic(tmp_path):
    cfg = {
        "dataset": {"synthetic": {"n_samples": 120, "n_features": 8,
                                  "n_informative": 3, "n_redundant": 2,
                                  "n_classes": 3, "class_sep": 1.5,
                                  "flip_y": 0.02, "seed": 7}},
        "repeats": 2,
        "master_seed": 3,
        "stopping": {"repeats": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["bench", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("results.csv", "consistency.csv", "stopping.csv", "frequencies.csv"):
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes(), f"{name} differs between runs"
        assert b1  # non-empty
