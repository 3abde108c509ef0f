"""Statistical scorecard of the beta stop and of feature recovery over
synthetic families.

    python3 tools/scorecard.py --label newton --c 0.03 0.1 0.3 1 --out SCORECARD.json
    PYTHONPATH=/path/to/other/src python3 tools/scorecard.py --label other --out SCORECARD.json

Each run scores the crfe package first on the import path (this
checkout's src/ when PYTHONPATH names none), once per --c value, or once
with its default TrainConfig when --c is not given, and adds its entries
to the JSON file under "<label> c=<c>" (or "<label> default"). So two
checkouts, say two solvers, are compared from one script and one file.

Per family it runs the beta stop on STOP_SEEDS seeds and the fixed-size
recovery of both selectors on RECOVERY_SEEDS seeds. Neither seed range
is one the statistical acceptance tests use, so a setting picked here is
not picked on the tests' own seeds. It reports, per family:

- the fire rate of the beta stop and the distribution of selected sizes,
  with the count at 4 or fewer;
- the mean inefficiency ratio (selected model over full model, eps 0.1)
  with a 95% bootstrap interval, and the full model's inefficiency;
- the recovered share of informative features for crfe and rfe, and a
  95% paired bootstrap interval of their gap;
- the coverage of the selected model's sets at eps 0.1 and 0.2;
- the wall time of the family.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from crfe import (  # noqa: E402
    BetaCriterion,
    FixedSize,
    StopReason,
    SyntheticSpec,
    TrainConfig,
    calibrate,
    conformal_predict,
    generate_synthetic,
    run_crfe,
    run_rfe,
    set_metrics,
)
from crfe.data import scaled_split  # noqa: E402

# the statistical acceptance tests' generator settings, and four variants
ACCEPTANCE = dict(n_samples=350, n_features=35, n_informative=10, n_redundant=1,
                  n_classes=4, class_sep=1.5, flip_y=0.05)
FAMILIES = {
    "acceptance": ACCEPTANCE,
    "sep 0.8": dict(ACCEPTANCE, class_sep=0.8),
    "6 classes": dict(ACCEPTANCE, n_classes=6),
    "n 1000": dict(ACCEPTANCE, n_samples=1000),
    "10 redundant": dict(ACCEPTANCE, n_redundant=10),
}
STOP_SEEDS = range(5000, 5030)
RECOVERY_SEEDS = range(6000, 6020)
BOOTSTRAP = 2000


def standardized_split(spec: dict, seed: int):
    """The (train, calibration, test) (X, y) pairs of one seed, and the
    informative columns."""
    d, informative = generate_synthetic(SyntheticSpec(seed=seed, **spec))
    _, *parts = scaled_split(d, seed)
    return parts, {int(j) for j in informative}


def set_scores(ms, cal, test, epsilon):
    """Set metrics of the model set ``ms`` on its active features, at epsilon."""
    cols = list(ms.active_features)
    rec = calibrate(ms, cal[0][:, cols], cal[1])
    _, mask = conformal_predict(ms, rec, test[0][:, cols], epsilon)
    return set_metrics(mask, test[1])


def bootstrap(values, rng) -> list[float]:
    """95% percentile interval of the mean of ``values``."""
    values = np.asarray(values, dtype=float)
    means = values[rng.integers(0, values.size, (BOOTSTRAP, values.size))].mean(axis=1)
    return [float(np.quantile(means, 0.025)), float(np.quantile(means, 0.975))]


def family_scores(spec: dict, config, stop_seeds=STOP_SEEDS,
                  recovery_seeds=RECOVERY_SEEDS) -> dict:
    """The scorecard entry of one family under one TrainConfig."""
    start = time.perf_counter()
    m = spec["n_classes"]
    fired, sizes, ratios, full_ineff, coverage = 0, [], [], [], {0.1: [], 0.2: []}
    for seed in stop_seeds:
        (train, cal, test), _ = standardized_split(spec, seed)
        tr = run_crfe(*train, *cal, m, BetaCriterion(), config)
        fired += tr.stop_reason is StopReason.BETA_CRITERION_FIRED
        sizes.append(tr.n_selected)
        # the first pass trained on every feature, the last on the selected ones
        full = set_scores(tr.models[0], cal, test, 0.1)
        for eps in coverage:
            chosen = set_scores(tr.models[-1], cal, test, eps)
            coverage[eps].append(chosen.coverage)
            if eps == 0.1:
                ratios.append(chosen.inefficiency / full.inefficiency)
        full_ineff.append(full.inefficiency)
    recovered = {"crfe": [], "rfe": []}
    for seed in recovery_seeds:
        (train, cal, _), informative = standardized_split(spec, seed)
        target = FixedSize(spec["n_informative"])
        for method, runner in (("crfe", run_crfe), ("rfe", run_rfe)):
            tr = runner(*train, *cal, m, target, config)
            recovered[method].append(len(set(tr.selected) & informative) / len(informative))
    rng = np.random.default_rng(0)
    gap = np.subtract(recovered["crfe"], recovered["rfe"])
    return {
        "stop_runs": len(sizes),
        "fired": fired,
        "sizes": {"min": min(sizes), "q1": float(np.quantile(sizes, 0.25)),
                  "median": float(np.median(sizes)), "q3": float(np.quantile(sizes, 0.75)),
                  "max": max(sizes), "mean": float(np.mean(sizes)),
                  "at_most_4": sum(s <= 4 for s in sizes)},
        "inefficiency_ratio": float(np.mean(ratios)),
        "inefficiency_ratio_95": bootstrap(ratios, rng),
        "full_model_inefficiency": float(np.mean(full_ineff)),
        "coverage_eps_0.1": float(np.mean(coverage[0.1])),
        "coverage_eps_0.2": float(np.mean(coverage[0.2])),
        "recovery_runs": len(recovered["crfe"]),
        "recovery_crfe": float(np.mean(recovered["crfe"])),
        "recovery_rfe": float(np.mean(recovered["rfe"])),
        "recovery_gap_95": bootstrap(gap, rng),
        "wall_s": time.perf_counter() - start,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="name of the package under test")
    p.add_argument("--c", type=float, nargs="*", help="values of TrainConfig.c (default: its default)")
    p.add_argument("--families", nargs="*", default=list(FAMILIES), choices=list(FAMILIES))
    p.add_argument("--out", required=True, help="JSON file to add the entries to")
    args = p.parse_args(argv)
    configs = {f"c={c:g}": TrainConfig(c=c) for c in args.c} if args.c else {"default": TrainConfig()}
    out = Path(args.out)
    card = json.loads(out.read_text()) if out.exists() else {}
    for name, config in configs.items():
        entry = {"train": repr(config), "families": {}}
        for family in args.families:
            entry["families"][family] = scores = family_scores(FAMILIES[family], config)
            print(f"{args.label} {name} {family}: fired {scores['fired']}/{scores['stop_runs']},"
                  f" ratio {scores['inefficiency_ratio']:.3f}, {scores['wall_s']:.1f} s",
                  file=sys.stderr)
        card[f"{args.label} {name}"] = entry
        out.write_text(json.dumps(card, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
