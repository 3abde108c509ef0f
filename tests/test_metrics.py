import numpy as np
import pytest

from crfe.exceptions import DegenerateLabelsError, EmptyTestSetError, LengthMismatchError
from crfe.metrics import point_metrics, point_predict, set_metrics


def test_set_metrics_fixture():
    # one full set, one empty set, one correct singleton
    mask = np.array([[True, True], [False, False], [True, False]])
    y = np.array([0, 1, 0])
    r = set_metrics(mask, y)
    assert r.coverage == pytest.approx(2 / 3)
    assert r.inefficiency == pytest.approx(1.0)
    assert r.certainty == pytest.approx(1 / 3)
    assert r.uncertainty == pytest.approx(1 / 3)
    assert r.mistrust == pytest.approx(1 / 3)
    assert r.n == 3


def test_set_metrics_wrong_singleton_is_not_certainty():
    mask = np.array([[True, False]])
    r = set_metrics(mask, np.array([1]))
    assert r.certainty == 0.0
    assert r.coverage == 0.0
    assert r.inefficiency == 1.0


def test_set_metrics_relations_hold():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n, m = int(rng.integers(1, 40)), int(rng.integers(2, 6))
        mask = rng.random((n, m)) < rng.random()
        y = rng.integers(0, m, size=n)
        r = set_metrics(mask, y)
        sizes = mask.sum(axis=1)
        assert r.inefficiency == pytest.approx(sizes.mean())
        assert 0 <= r.coverage <= 1
        assert r.certainty <= r.coverage + 1e-12
        assert r.uncertainty + r.mistrust <= 1 + 1e-12
        # empty sets cannot cover, full sets always cover
        assert r.coverage <= 1 - r.mistrust + 1e-12
        assert r.coverage >= r.uncertainty - 1e-12


def test_set_metrics_errors():
    with pytest.raises(EmptyTestSetError):
        set_metrics(np.zeros((0, 2), dtype=bool), np.array([], dtype=int))
    with pytest.raises(LengthMismatchError):
        set_metrics(np.zeros((3, 2), dtype=bool), np.array([0, 1]))
    # labels that are not whole numbers are rejected, not truncated
    mask = np.array([[True, False], [False, True]])
    for bad in ([0.7, 1.9], [0, np.nan], [0, np.inf]):
        with pytest.raises(DegenerateLabelsError, match="whole numbers"):
            set_metrics(mask, bad)
    assert set_metrics(mask, [0.0, 1.0]) == set_metrics(mask, [0, 1])


def test_point_predict_argmax_tie_low():
    D = np.array([[0.2, 0.9, 0.9], [1.0, 1.0, -1.0]])
    assert point_predict(D).tolist() == [1, 0]


def test_point_metrics_fixture():
    y_true = np.array([0, 0, 1, 2])
    y_pred = np.array([0, 1, 1, 1])
    r = point_metrics(y_pred, y_true, n_classes=3)
    assert r.accuracy == 0.5
    assert r.precision.tolist() == pytest.approx([1.0, 1 / 3, 0.0])
    assert r.recall.tolist() == pytest.approx([0.5, 1.0, 0.0])
    assert r.f1.tolist() == pytest.approx([2 / 3, 0.5, 0.0])
    assert r.macro_precision == pytest.approx(4 / 9)
    assert r.macro_recall == pytest.approx(0.5)
    assert r.macro_f1 == pytest.approx(7 / 18)


def test_point_metrics_all_zero_class_reports_zero():
    # class 1 never predicted and never true: every ratio is 0/0 -> 0
    r = point_metrics(np.array([0, 0]), np.array([0, 0]), n_classes=2)
    assert r.precision[1] == 0.0 and r.recall[1] == 0.0 and r.f1[1] == 0.0
    assert r.accuracy == 1.0


def test_point_metrics_perfect():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 4, size=30)
    y[:4] = [0, 1, 2, 3]
    r = point_metrics(y, y, n_classes=4)
    assert r.accuracy == 1.0
    assert r.macro_f1 == 1.0


def test_point_metrics_errors():
    with pytest.raises(LengthMismatchError):
        point_metrics(np.array([0]), np.array([0, 1]), 2)
    with pytest.raises(EmptyTestSetError):
        point_metrics(np.array([], dtype=int), np.array([], dtype=int), 2)
    for bad in ([0.7, 1.9], [0, np.nan], [0, np.inf]):
        with pytest.raises(DegenerateLabelsError, match="whole numbers"):
            point_metrics([0, 1], bad, 2)
        with pytest.raises(DegenerateLabelsError, match="whole numbers"):
            point_metrics(bad, [0, 1], 2)
    assert point_metrics([1.0, 1.0], [0.0, 1.0], 2).accuracy == 0.5
