import numpy as np
import pytest

from crfe.classifier import TrainConfig, decision_matrix, train_ova
from crfe.conformal import (
    CalibrationRecord,
    calibrate,
    conformal_predict,
    nonconformity_all_labels,
    p_value_matrix,
    prediction_mask,
    write_prediction_csv,
)
from crfe.data import SyntheticSpec, apply_scaler, fit_scaler, generate_synthetic, split
from crfe.exceptions import (
    ConfigError,
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptyCalibrationError,
)
from oracles import (
    binary_nonconformity,
    multiclass_nonconformity,
    p_value,
    prediction_set,
    theta,
)


def test_theta_sign():
    assert theta(3, 3) == 1
    assert theta(3, 0) == -1
    assert theta(np.array([0, 1, 2]), 1).tolist() == [-1, 1, -1]


def test_binary_nonconformity_direction():
    # own class: low score is strange; other class: high score is strange
    assert binary_nonconformity(2.0, y=1, k=1) == -2.0
    assert binary_nonconformity(2.0, y=0, k=1) == 2.0


def test_multiclass_nonconformity_fixture():
    # lam 0.5, three classes, scores (1.0, -0.5, 0.2), candidate label 0:
    # -0.5*1.0 + 0.25*(-0.5 + 0.2) = -0.575
    a = multiclass_nonconformity([1.0, -0.5, 0.2], own_class=0, lam=0.5)
    assert a == pytest.approx(-0.575, abs=1e-15)


def test_multiclass_nonconformity_lam_extremes():
    d = [1.0, 2.0, 3.0]
    assert multiclass_nonconformity(d, 0, lam=1.0) == -1.0
    assert multiclass_nonconformity(d, 0, lam=0.0) == pytest.approx(2.5)
    with pytest.raises(ConfigError):
        multiclass_nonconformity(d, 0, lam=1.2)
    with pytest.raises(ConfigError):
        multiclass_nonconformity(d, 5, lam=0.5)


def test_all_labels_matches_scalar_loop():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n, m = rng.integers(1, 8), rng.integers(2, 6)
        D = rng.standard_normal((n, m))
        lam = float(rng.random())
        A = nonconformity_all_labels(D, lam)
        for i in range(n):
            for y in range(m):
                assert A[i, y] == pytest.approx(
                    multiclass_nonconformity(D[i], y, lam), abs=1e-12
                )


def test_p_value_fixtures():
    rec = CalibrationRecord(alphas=np.array([0.3, 0.1, 0.2]))
    assert p_value(rec, 0.25) == 0.5    # one score above
    assert p_value(rec, 0.35) == 0.25   # none above
    assert p_value(rec, 0.05) == 1.0    # all above
    assert p_value(rec, 0.2) == 0.75    # tie counts as >=


def test_p_value_matrix_matches_scalar():
    rng = np.random.default_rng(1)
    rec = CalibrationRecord(alphas=rng.standard_normal(37))
    A = rng.standard_normal((5, 4))
    P = p_value_matrix(rec, A)
    for i in range(5):
        for k in range(4):
            assert P[i, k] == p_value(rec, A[i, k])
    assert (P > 0).all() and (P <= 1).all()


def test_empty_calibration_rejected():
    with pytest.raises(EmptyCalibrationError):
        CalibrationRecord(alphas=np.array([]))


def test_prediction_set_membership():
    ps = prediction_set([0.5, 0.05, 0.3], epsilon=0.1)
    assert ps.members == (0, 2)
    assert ps.size == 2 and not ps.is_empty() and not ps.is_singleton()
    assert ps.contains(0) and not ps.contains(1)
    assert prediction_set([0.2, 0.4], epsilon=0.0).members == (0, 1)
    # p-values are always > 0, so epsilon 0 keeps every label
    with pytest.raises(ConfigError):
        prediction_set([0.5], epsilon=-0.1)


def test_prediction_sets_nest_as_epsilon_grows():
    rng = np.random.default_rng(2)
    for trial in range(50):
        p = rng.random(5)
        e1, e2 = sorted(rng.random(2))
        wide = prediction_mask(p[None, :], e1)
        narrow = prediction_mask(p[None, :], e2)
        assert not (narrow & ~wide).any()


def fit_pipeline(seed=0, lam=0.5):
    spec = SyntheticSpec(n_samples=120, n_features=8, n_informative=4,
                         n_redundant=0, n_classes=3, class_sep=2.0,
                         flip_y=0.0, seed=seed)
    d, _ = generate_synthetic(spec)
    sp = split(d, seed=seed)
    ds = apply_scaler(fit_scaler(d, sp.train_idx), d)
    ms = train_ova(ds.X[sp.train_idx], ds.y[sp.train_idx], 3, TrainConfig(), lam=lam)
    rec = calibrate(ms, ds.X[sp.calib_idx], ds.y[sp.calib_idx])
    return ds, sp, ms, rec


def test_calibrate_scores_own_labels():
    ds, sp, ms, rec = fit_pipeline()
    D = decision_matrix(ms, ds.X[sp.calib_idx])
    A = nonconformity_all_labels(D, ms.lam)
    expect = np.sort(A[np.arange(sp.calib_idx.size), ds.y[sp.calib_idx]])
    assert np.array_equal(rec.alphas, expect)
    assert rec.n == sp.calib_idx.size


def test_calibrate_label_and_epsilon_checks():
    ds, sp, ms, rec = fit_pipeline()
    X_cal, y_cal = ds.X[sp.calib_idx], ds.y[sp.calib_idx]
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        calibrate(ms, X_cal, y_cal + 0.7)
    with pytest.raises(ConfigError):
        calibrate(ms, X_cal, y_cal + 3)
    assert np.array_equal(calibrate(ms, X_cal, y_cal.astype(float)).alphas, rec.alphas)
    for bad in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            prediction_mask(np.full((1, 3), 0.5), bad)
        with pytest.raises(ConfigError):
            conformal_predict(ms, rec, ds.X[sp.test_idx], bad)


def test_conformal_predict_covers_most_truths():
    # single splits are noisy at this size; check the average over seeds
    covs = []
    for seed in range(10):
        ds, sp, ms, rec = fit_pipeline(seed=seed)
        P, mask = conformal_predict(ms, rec, ds.X[sp.test_idx], epsilon=0.1)
        truth = mask[np.arange(sp.test_idx.size), ds.y[sp.test_idx]]
        covs.append(truth.mean())
        assert P.shape == mask.shape == (sp.test_idx.size, 3)
    assert np.mean(covs) >= 0.85  # the exact band is tested elsewhere


def test_write_prediction_csv_golden(tmp_path):
    P = np.array([[0.5, 0.25], [0.125, 0.75]])
    mask = P > 0.2
    p = tmp_path / "pred.csv"
    write_prediction_csv(p, P, mask, class_names=("no", "yes"), sample_ids=(7, 9))
    assert p.read_text() == (
        "sample_id,p_class_0,p_class_1,set\n"
        "7,0.5,0.25,no|yes\n"
        "9,0.125,0.75,yes\n"
    )


@pytest.mark.parametrize("ids", [(7,), (7, 9, 11)], ids=["short", "long"])
def test_write_prediction_csv_rejects_sample_ids_of_another_length(tmp_path, ids):
    P = np.array([[0.5, 0.25], [0.125, 0.75]])
    p = tmp_path / "pred.csv"
    with pytest.raises(DimensionMismatchError, match=f"{len(ids)} sample ids for 2 rows"):
        write_prediction_csv(p, P, P > 0.2, class_names=("no", "yes"), sample_ids=ids)
    assert not p.exists()


def test_write_prediction_csv_empty_set(tmp_path):
    P = np.array([[0.01, 0.02]])
    p = tmp_path / "pred.csv"
    write_prediction_csv(p, P, P > 0.5, class_names=("a", "b"))
    assert p.read_text().splitlines()[1] == "0,0.01,0.02,"
