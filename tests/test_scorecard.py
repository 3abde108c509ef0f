"""tools/scorecard.py scores a family end to end (one family, one seed)."""

import importlib.util
import json
from pathlib import Path

from crfe.classifier import TrainConfig

PATH = Path(__file__).resolve().parent.parent / "tools" / "scorecard.py"
spec = importlib.util.spec_from_file_location("scorecard", PATH)
scorecard = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scorecard)


def test_one_family_one_seed():
    got = scorecard.family_scores(scorecard.FAMILIES["acceptance"], TrainConfig(),
                                  stop_seeds=[5000], recovery_seeds=[6000])
    assert got["stop_runs"] == got["recovery_runs"] == 1
    size = got["sizes"]["mean"]
    assert got["sizes"]["min"] == got["sizes"]["max"] == size
    assert got["sizes"]["at_most_4"] == (size <= 4)
    lo, hi = got["inefficiency_ratio_95"]
    assert lo == hi == got["inefficiency_ratio"] > 0
    for key in ("coverage_eps_0.1", "coverage_eps_0.2", "recovery_crfe", "recovery_rfe"):
        assert 0.0 <= got[key] <= 1.0
    assert got["recovery_gap_95"] == [got["recovery_crfe"] - got["recovery_rfe"]] * 2
    json.dumps(got, allow_nan=False)
