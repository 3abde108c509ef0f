"""Command-line front end.

Subcommands: ``synth`` (generate a synthetic CSV plus metadata sidecar),
``select`` (run one selector on one split and write its artifacts),
``bench`` (full comparison + stopping benchmark + reports/plots) and
``consistency`` (stability report only). Exit codes: 0 on success, 2 for
configuration mistakes, 3 for data problems.
"""

from __future__ import annotations

import argparse
import os
import sys

from .classifier import save_model
from .conformal import calibrate, conformal_predict, write_prediction_csv
from .data import (
    SyntheticSpec, _write_json, impute_knn, load_csv, save_synthetic, scaled_split, write_csv,
)
from .exceptions import ConfigError, CrfeError, require_int
from .harness import (
    CONSISTENCY_COLUMNS, config_from_json, consistency_report, read_json_object, run_all,
    run_comparison,
)
from .selection import (
    DEFAULT_PSI, DEFAULT_SIGMA, BetaCriterion, FixedSize, run_crfe, run_rfe, trace_to_csv,
    trace_to_json,
)


def _parse_stop(text: str, sigma: float, psi: int):
    if text == "beta":
        return BetaCriterion(sigma=sigma, psi=psi)
    if text.startswith("fixed:"):
        try:
            return FixedSize(int(text[len("fixed:"):]))
        except ValueError:
            raise ConfigError(f"bad fixed-size target in {text!r}") from None
    raise ConfigError(f"--stop must be 'fixed:<t>' or 'beta', got {text!r}")


def _check_out(out) -> None:
    """Fail unless ``out`` is a directory or can be made one."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(f"--out {out}: {path} is not a directory")


def _cmd_synth(args) -> int:
    try:
        spec = SyntheticSpec(**read_json_object(args.spec, "spec"))
    except TypeError as e:
        raise ConfigError(f"bad generator spec: {e}") from None
    save_synthetic(spec, args.out)
    return 0


def _cmd_select(args) -> int:
    # every argument is checked before the CSV is read
    policy = _parse_stop(args.stop, args.sigma, args.psi)
    if args.method == "rfe" and isinstance(policy, BetaCriterion):
        raise ConfigError("the rfe baseline has no automatic stop; use --stop fixed:<t>")
    require_int("--seed", args.seed, 0)
    if not 0.0 <= args.epsilon <= 1.0:
        raise ConfigError("--epsilon must lie in [0, 1]")
    if not 0.0 <= args.lam <= 1.0:
        raise ConfigError("--lambda must lie in [0, 1]")
    _check_out(args.out)
    d = load_csv(args.data, label_column=args.label)
    d = impute_knn(d)
    sp, (X_tr, y_tr), (X_cal, y_cal), (X_te, _) = scaled_split(d, args.seed)
    runner = run_crfe if args.method == "crfe" else run_rfe
    trace = runner(X_tr, y_tr, X_cal, y_cal, d.n_classes, policy, lam=args.lam)

    os.makedirs(args.out, exist_ok=True)
    trace_to_csv(trace, os.path.join(args.out, "trace.csv"))
    _write_json(os.path.join(args.out, "trace.json"), trace_to_json(trace, d.feature_names))
    ms = trace.models[-1]  # the last pass trained on the selected subset
    cols = list(trace.selected)
    save_model(ms, os.path.join(args.out, "model.json"))
    rec = calibrate(ms, X_cal[:, cols], y_cal)
    P, mask = conformal_predict(ms, rec, X_te[:, cols], args.epsilon)
    write_prediction_csv(os.path.join(args.out, "predictions.csv"),
                         P, mask, d.class_names, sample_ids=sp.test_idx)
    return 0


def _cmd_bench(args) -> int:
    cfg = config_from_json(args.config)
    _check_out(args.out)
    run_all(cfg, args.out)
    return 0


def _cmd_consistency(args) -> int:
    cfg = config_from_json(args.config)
    _check_out(args.out)
    table = run_comparison(cfg)
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "consistency.csv"), CONSISTENCY_COLUMNS,
              consistency_report(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="crfe",
        description="Conformal recursive feature elimination toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    sp.add_argument("--spec", required=True, help="generator spec JSON")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.set_defaults(func=_cmd_synth)

    sp = sub.add_parser("select", help="run one selector on one seeded split")
    sp.add_argument("--data", required=True, help="input CSV")
    sp.add_argument("--label", required=True, help="label column name")
    sp.add_argument("--method", required=True, choices=("crfe", "rfe"))
    sp.add_argument("--stop", required=True, help="'fixed:<t>' or 'beta'")
    sp.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    sp.add_argument("--psi", type=int, default=DEFAULT_PSI)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sp.add_argument("--epsilon", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_select)

    sp = sub.add_parser("bench", help="full comparison and stopping benchmark")
    sp.add_argument("--config", required=True, help="experiment config JSON")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("consistency", help="subset stability report")
    sp.add_argument("--config", required=True, help="experiment config JSON")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=_cmd_consistency)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"crfe: config error: {e}", file=sys.stderr)
        return 2
    except (CrfeError, OSError) as e:
        print(f"crfe: data error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
