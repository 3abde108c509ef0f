import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crfe import selection
from crfe.classifier import LinearModelSet, TrainConfig
from crfe.conformal import nonconformity_all_labels
from crfe.data import (
    SyntheticSpec,
    apply_scaler,
    fit_scaler,
    generate_synthetic,
    scaled_split,
    split,
)
from crfe.exceptions import (
    DegenerateLabelsError,
    DimensionMismatchError,
    EmptyVectorError,
    InvalidPolicyError,
)
from crfe.selection import (
    BetaCriterion,
    FixedSize,
    SelectionStep,
    SelectionTrace,
    StopReason,
    beta_measures,
    beta_stop_check,
    rfe_criterion,
    run_crfe,
    run_rfe,
    trace_to_csv,
    trace_to_json,
)
import oracles
from oracles import argmax_beta, delta_nonconformity_oracle


def random_model_set(rng, l, m):
    wb = [(rng.standard_normal(l) * 3, float(rng.standard_normal())) for _ in range(m)]
    return LinearModelSet(
        W=[w for w, _ in wb],
        b=[b for _, b in wb],
        lam=float(rng.random()),
        active_features=tuple(range(l)),
    )


# ------------------------------------------------------------------ scoring


def test_beta_single_feature_fixture():
    # two classes, opposite unit slopes scaled by 2, lam 1 (own class only):
    # removing the only feature changes total non-conformity by 4
    ms = LinearModelSet(
        W=[[2.0], [-2.0]],
        b=[0.0, 0.0],
        lam=1.0,
        active_features=(0,),
    )
    X = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    beta = beta_measures(ms, X, y)
    assert beta.tolist() == [4.0]
    assert delta_nonconformity_oracle(ms, X, y, 0) == 4.0


def test_beta_matches_rescoring_oracle():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n, l, m = rng.integers(2, 12), rng.integers(2, 8), rng.integers(2, 5)
        ms = random_model_set(rng, l, m)
        X = rng.standard_normal((n, l)) * 2
        y = rng.integers(0, m, size=n)
        beta = beta_measures(ms, X, y)
        for j in range(l):
            assert beta[j] == pytest.approx(
                delta_nonconformity_oracle(ms, X, y, j), abs=1e-9
            )


def test_total_nonconformity_splits_into_beta_plus_bias_part():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n, l, m = rng.integers(2, 10), rng.integers(2, 7), rng.integers(2, 5)
        ms = random_model_set(rng, l, m)
        X = rng.standard_normal((n, l))
        y = rng.integers(0, m, size=n)
        from crfe.classifier import decision_matrix

        alphas = nonconformity_all_labels(decision_matrix(ms, X), ms.lam)[np.arange(n), y]
        b = ms.b
        gamma = -ms.lam * b[y] + ms.lambda_prime * (b.sum() - b[y])
        assert alphas.sum() == pytest.approx(
            beta_measures(ms, X, y).sum() + gamma.sum(), abs=1e-9
        )


def test_beta_label_checks():
    rng = np.random.default_rng(3)
    ms = random_model_set(rng, 3, 2)
    X = rng.standard_normal((12, 3))
    y = np.arange(12) % 2
    with pytest.raises(DegenerateLabelsError, match="whole numbers"):
        beta_measures(ms, X, y + 0.7)
    with pytest.raises(DimensionMismatchError):
        beta_measures(ms, X, y + 1)
    assert np.array_equal(beta_measures(ms, X, y.astype(float)), beta_measures(ms, X, y))


def test_argmax_beta_tie_breaks_low():
    assert argmax_beta(np.array([1.0, 5.0, 5.0, 0.0])) == 1
    with pytest.raises(EmptyVectorError):
        argmax_beta(np.array([]))


def test_rfe_criterion_sums_squared_weights():
    ms = LinearModelSet(
        W=[[1.0, 2.0], [3.0, -1.0]],
        b=[9.0, -9.0],
        lam=0.5,
        active_features=(0, 1),
    )
    assert rfe_criterion(ms).tolist() == [10.0, 5.0]


# ----------------------------------------------------------------- stopping


def test_stop_check_linear_history_never_fires():
    means = [10.0, 9.0, 8.0, 7.0, 6.0]
    res = beta_stop_check(means, sigma=3.0, warmup=0)
    assert not res.fired
    assert res.second_derivative == 0.0


def test_stop_check_fires_on_kink_after_flat_run():
    # second derivative of (..., 7, 6, 2) is 2 - 12 + 7 = -3; the prior
    # second differences are exactly flat so the zero-variance fallback
    # threshold applies
    means = [10.0, 9.0, 8.0, 7.0, 6.0, 2.0]
    res = beta_stop_check(means, sigma=3.0)
    assert res.fired
    assert res.second_derivative == -3.0
    assert res.threshold == pytest.approx(1e-9 * 2.0)


def test_stop_check_warmup_blocks_firing():
    means = [10.0, 9.0, 8.0, 7.0, 6.0, 2.0]
    assert not beta_stop_check(means, sigma=3.0, warmup=6).fired
    assert beta_stop_check(means, sigma=3.0, warmup=5).fired


def test_stop_check_insufficient_history():
    assert not beta_stop_check([5.0, 4.0], warmup=0).fired
    assert math.isnan(beta_stop_check([5.0, 4.0], warmup=0).second_derivative)
    # three means give one second difference and none before it to compare against
    res = beta_stop_check([5.0, 4.0, 1.0], warmup=0)
    assert not res.fired and res.second_derivative == -2.0


def test_stop_check_respects_sigma_threshold():
    means = [10.0, 9.0, 8.5, 7.5, 7.0, 5.5]  # second differences 0.5, -0.5, 0.5, -1
    std = np.std([0.5, -0.5, 0.5])
    assert beta_stop_check(means, sigma=1.0).fired  # 1 > 0.47
    assert not beta_stop_check(means, sigma=3.0).fired  # 1 < 1.41
    assert std > 0  # sanity: not exercising the zero-variance fallback here


@st.composite
def mean_histories(draw):
    """Mean-beta histories: arbitrary, rounded to whole numbers, or stepped.

    Rounded histories take few values and stepped ones are piecewise
    linear, so their second differences repeat and the prior window is
    often exactly flat, where the zero-variance fallback threshold
    applies.
    """
    n = draw(st.integers(1, 30))
    kind = draw(st.sampled_from(["float", "rounded", "stepped"]))
    if kind == "stepped":
        steps = draw(st.lists(st.sampled_from([-1.0, -2.0, 0.5]), min_size=n, max_size=n))
        return list(draw(st.floats(-100, 100)) + np.cumsum(steps))
    if kind == "rounded":
        return draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
    return draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(mean_histories(), st.floats(1, 6), st.integers(3, 12), st.integers(0, 8))
@example([5.0] * 12, 3.0, 3, 0)
def test_stop_check_matches_two_list_oracle(means, sigma, psi, warmup):
    # the oracle is fed the second differences of the earlier prefixes,
    # collected pass by pass as an engine keeping a second list would
    d2_hist = []
    for k in range(1, len(means) + 1):
        want = oracles.beta_stop_check(means[:k], d2_hist, sigma, psi, warmup)
        got = beta_stop_check(means[:k], sigma, psi, warmup)
        assert repr(got) == repr(want)
        if not math.isnan(want.second_derivative):
            d2_hist.append(want.second_derivative)


def test_policy_validation():
    FixedSize(1)
    BetaCriterion()
    with pytest.raises(InvalidPolicyError):
        FixedSize(0)
    with pytest.raises(InvalidPolicyError):
        BetaCriterion(sigma=0.5)
    with pytest.raises(InvalidPolicyError):
        BetaCriterion(psi=2)
    with pytest.raises(InvalidPolicyError):
        BetaCriterion(warmup=-1)
    for bad in (dict(sigma=math.nan), dict(sigma="5"), dict(psi=3.5), dict(warmup=1.5)):
        with pytest.raises(InvalidPolicyError):
            BetaCriterion(**bad)
    with pytest.raises(InvalidPolicyError):
        FixedSize(2.5)


# ------------------------------------------------------------------- engine


def synth_problem(seed=0, n=160, l=12, informative=4, m=3):
    spec = SyntheticSpec(n_samples=n, n_features=l, n_informative=informative,
                         n_redundant=0, n_classes=m, class_sep=2.0,
                         flip_y=0.0, seed=seed)
    d, info = generate_synthetic(spec)
    sp = split(d, seed=seed)
    ds = apply_scaler(fit_scaler(d, sp.train_idx), d)
    return (ds.X[sp.train_idx], ds.y[sp.train_idx],
            ds.X[sp.calib_idx], ds.y[sp.calib_idx], m), info


def test_run_crfe_fixed_size_contract():
    args, info = synth_problem(seed=3)
    tr = run_crfe(*args, FixedSize(4), TrainConfig())
    assert tr.stop_reason is StopReason.REACHED_TARGET_SIZE
    assert tr.n_selected == 4
    assert list(tr.selected) == sorted(tr.selected)
    removed = [s.removed_feature for s in tr.steps]
    assert len(removed) == 12 - 4
    assert set(removed).isdisjoint(tr.selected)
    assert set(removed) | set(tr.selected) == set(range(12))
    # remaining_count steps down one per removal
    assert [s.remaining_count for s in tr.steps] == list(range(11, 3, -1))
    assert [s.iteration for s in tr.steps] == list(range(1, 9))


def test_run_crfe_deterministic():
    args, _ = synth_problem(seed=5)
    a = run_crfe(*args, FixedSize(3), TrainConfig())
    b = run_crfe(*args, FixedSize(3), TrainConfig())
    assert trace_to_json(a) == trace_to_json(b)


def test_run_crfe_target_must_leave_room():
    args, _ = synth_problem()
    with pytest.raises(InvalidPolicyError):
        run_crfe(*args, FixedSize(12))


def test_run_crfe_exhausts_when_criterion_stays_silent():
    args, _ = synth_problem(seed=7, n=60, l=5, informative=2)
    tr = run_crfe(*args, BetaCriterion(sigma=1e9), TrainConfig())
    assert tr.stop_reason is StopReason.EXHAUSTED_TO_ONE_FEATURE
    assert tr.n_selected == 1
    assert len(tr.steps) == 4


def test_run_crfe_beta_criterion_fire_recorded():
    # find a seed where the automatic stop fires, then check the trace shape
    cfg = TrainConfig()
    for seed in range(12):
        args, _ = synth_problem(seed=seed, n=240, l=24, informative=5, m=3)
        tr = run_crfe(*args, BetaCriterion(), cfg)
        if tr.stop_reason is StopReason.BETA_CRITERION_FIRED:
            last = tr.steps[-1]
            assert last.removed_feature is None
            assert math.isnan(last.criterion_value)
            assert not math.isnan(last.second_derivative)
            assert last.remaining_count == tr.n_selected
            assert last.iteration > 5  # warmup respected
            assert len(tr.steps) == last.iteration
            return
    pytest.fail("criterion never fired on any probe seed")


def test_run_rfe_contract_and_policy_guard():
    args, _ = synth_problem(seed=9)
    tr = run_rfe(*args, FixedSize(4), TrainConfig())
    assert tr.stop_reason is StopReason.REACHED_TARGET_SIZE
    assert tr.n_selected == 4
    assert all(math.isnan(s.mean_beta) for s in tr.steps)
    assert all(s.criterion_value >= 0 for s in tr.steps)
    with pytest.raises(InvalidPolicyError):
        run_rfe(*args, BetaCriterion())


def test_run_rfe_keeps_the_signal_column():
    # one strongly predictive column among pure noise survives to the end
    rng = np.random.default_rng(11)
    n = 120
    y = np.arange(n) % 2
    X = rng.standard_normal((n, 5))
    X[:, 2] = np.where(y == 0, -2.0, 2.0) + 0.1 * rng.standard_normal(n)
    tr = run_rfe(X[: n // 2], y[: n // 2], X[n // 2:], y[n // 2:], 2,
                 FixedSize(1), TrainConfig())
    assert tr.selected == (2,)


def test_run_crfe_draws_no_random_stream(monkeypatch):
    # 30 passes of 4 classes at 131 rows train without a single draw
    spec = SyntheticSpec(n_samples=350, n_features=35, n_informative=10, n_redundant=1,
                         n_classes=4, class_sep=1.5, flip_y=0.05, seed=3)
    d, _ = generate_synthetic(spec)
    _, train, cal, _ = scaled_split(d, 7)
    monkeypatch.setattr(np.random, "default_rng", pytest.fail)
    trace = run_crfe(*train, *cal, 4, BetaCriterion())
    assert len(trace.steps) == 30


@pytest.mark.parametrize("method, problem, policy, reason", [
    ("crfe", dict(seed=0, n=240, l=24, informative=5), BetaCriterion(),
     StopReason.BETA_CRITERION_FIRED),
    ("rfe", dict(seed=3, l=12), FixedSize(4), StopReason.REACHED_TARGET_SIZE),
    ("crfe", dict(seed=7, n=60, l=5, informative=2), BetaCriterion(sigma=1e9),
     StopReason.EXHAUSTED_TO_ONE_FEATURE),
], ids=["beta-fired", "target-reached", "exhausted"])
def test_a_trace_keeps_the_model_of_every_pass(method, problem, policy, reason):
    args, _ = synth_problem(**problem)
    runner = run_crfe if method == "crfe" else run_rfe
    tr = runner(*args, policy)
    assert tr.stop_reason is reason
    assert tr.models[-1].active_features == tr.selected
    # a pass that ends at the floor trains and scores but records no step
    assert len(tr.models) == len(tr.steps) + (reason is not StopReason.BETA_CRITERION_FIRED)
    sizes = [ms.n_features for ms in tr.models]
    assert sizes[0] == problem["l"]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_lockstep_runs_match_separate_runs(monkeypatch):
    args, _ = synth_problem(seed=3)
    cfg = TrainConfig()
    runs = [("crfe", FixedSize(1)), ("rfe", FixedSize(1)), ("crfe", BetaCriterion())]
    alone = [(run_crfe if method == "crfe" else run_rfe)(*args, policy, cfg)
             for method, policy in runs]

    stacked = []
    real = selection._train_sets

    def recording(jobs, *rest):
        stacked.append([cols for _, _, _, cols, _ in jobs])
        return real(jobs, *rest)

    monkeypatch.setattr(selection, "_train_sets", recording)
    X_tr, y_tr, X_cal, y_cal, m = args
    together = selection._lockstep([(X_tr, y_tr, X_cal, y_cal, runs)], m, cfg, 0.5)
    assert [trace_to_json(t) for t in together] == [trace_to_json(t) for t in alone]
    # each pass trains the distinct sets its live runs want, in one call;
    # the runs' common first set is one job
    want = [list(dict.fromkeys(a.models[i].active_features for a in alone if i < len(a.models)))
            for i in range(max(len(a.models) for a in alone))]
    assert stacked == want and len(stacked[0]) == 1 and max(map(len, stacked)) == 2
    for t, a in zip(together, alone):
        assert len(t.models) == len(a.models)
        for ms, ms_alone in zip(t.models, a.models):
            assert ms.active_features == ms_alone.active_features
            assert np.array_equal(ms.W, ms_alone.W)
            assert np.array_equal(ms.b, ms_alone.b)
    # the runs of one group train their common first set once
    assert together[0].models[0] is together[1].models[0] is together[2].models[0]


@pytest.mark.parametrize("order", [("crfe", "rfe"), ("rfe", "crfe")])
def test_lockstep_starts_each_set_from_its_first_run_parent(monkeypatch, order):
    args, _ = synth_problem(seed=3)
    X_tr, y_tr, X_cal, y_cal, m = args
    rounds = []
    real = selection._train_sets

    def recording(jobs, *rest):
        rounds.append([(cols, start) for _, _, _, cols, start in jobs])
        return real(jobs, *rest)

    monkeypatch.setattr(selection, "_train_sets", recording)
    plan = [(method, FixedSize(1)) for method in order]
    traces = selection._lockstep([(X_tr, y_tr, X_cal, y_cal, plan)], m, TrainConfig(), 0.5)
    assert rounds[0] == [(tuple(range(12)), None)]  # the first pass starts from zero
    shared = 0
    for t, jobs in enumerate(rounds[1:], start=1):
        for cols, start in jobs:
            # the runs that want this set at pass t, in run order, and the model each was last sent
            parents = [tr.models[t - 1] for tr in traces
                       if len(tr.models) > t and tr.models[t].active_features == cols]
            assert start is parents[0]
            shared += len({p.active_features for p in parents}) > 1
    # some set is wanted by both runs from different parents, so the order matters
    assert shared


def test_lockstep_checks_every_policy_before_training(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("trained before a bad policy was rejected")

    monkeypatch.setattr(selection, "_train_sets", refuse)
    (X_tr, y_tr, X_cal, y_cal, m), _ = synth_problem()
    plan = [("crfe", FixedSize(3)), ("rfe", BetaCriterion())]
    with pytest.raises(InvalidPolicyError):
        selection._lockstep([(X_tr, y_tr, X_cal, y_cal, plan)], m, TrainConfig(), 0.5)


# ------------------------------------------------------------------- traces


def test_trace_csv_golden(tmp_path):
    tr = SelectionTrace(
        method="crfe",
        steps=(
            SelectionStep(1, 4, 2.5, -1.25, math.nan, 2),
            SelectionStep(2, None, math.nan, -3.0, -0.5, 2),
        ),
        selected=(0, 2),
        stop_reason=StopReason.BETA_CRITERION_FIRED,
    )
    p = tmp_path / "trace.csv"
    trace_to_csv(tr, p)
    assert p.read_text() == (
        "iteration,removed_feature,criterion_value,mean_beta,second_derivative,remaining_count\n"
        "1,4,2.5,-1.25,,2\n"
        "2,,,-3.0,-0.5,2\n"
    )


def test_trace_json_maps_nan_to_null():
    tr = SelectionTrace(
        method="rfe",
        steps=(SelectionStep(1, 3, 0.5, math.nan, math.nan, 4),),
        selected=(0, 1, 2, 4),
        stop_reason=StopReason.REACHED_TARGET_SIZE,
    )
    d = trace_to_json(tr)
    assert d["stop_reason"] == "ReachedTargetSize"
    assert d["final_subset"] == [0, 1, 2, 4]
    assert d["steps"][0]["mean_beta"] is None
    assert d["steps"][0]["criterion_value"] == 0.5
    json.dumps(d)  # fully serializable
    named = trace_to_json(tr, feature_names=("a", "b", "c", "d", "e"))
    assert named["final_subset"] == ["a", "b", "c", "e"]
