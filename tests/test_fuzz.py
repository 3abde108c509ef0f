"""Random `select` and `bench` inputs end in exit 0, 2 or 3, never in an
exception.

The CSVs vary in row count, class count and class sizes (1-row classes
and single-class files included), in missing and non-numeric cells, and
the arguments in seed, stop rule and method. The bench configs vary in
their synthetic spec (invalid ones included), repeats, stopping repeats
and stop settings, selectors and sizes.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from crfe.cli import main

CELLS = st.one_of(st.floats(-5, 5, allow_nan=False).map(lambda v: f"{v:.3f}"),
                  st.sampled_from(["", "nan", "x", "1e999"]))
# mostly stops that run; -1, 0, a size above the features and bad text exit 2
STOPS = st.sampled_from(["beta", "fixed:1", "fixed:2", "fixed:3", "beta", "fixed:1",
                         "fixed:2", "fixed:-1", "fixed:0", "fixed:9", "fixed:two", "all"])


@st.composite
def csv_texts(draw):
    """A header of 1-4 features and a label, then one line per row."""
    sizes = draw(st.lists(st.integers(1, 14), min_size=1, max_size=4))
    n_features = draw(st.integers(1, 4))
    clean = draw(st.integers(0, 3)) > 0  # a clean file gets as far as training
    rows = []
    for k, size in enumerate(sizes):
        for _ in range(size):
            if clean:
                cells = [f"{v + k:.3f}" for v in draw(st.lists(
                    st.floats(-3, 3, allow_nan=False), min_size=n_features, max_size=n_features))]
            else:
                cells = draw(st.lists(CELLS, min_size=n_features, max_size=n_features))
            rows.append(",".join([*cells, f"c{k}"]))
    order = draw(st.permutations(range(len(rows))))
    header = ",".join([*(f"f{j}" for j in range(n_features)), "label"])
    return "\n".join([header, *(rows[i] for i in order)]) + "\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=csv_texts(), seed=st.integers(0, 2**32 - 1), stop=STOPS,
       method=st.sampled_from(["crfe", "rfe"]))
@example(text="f0,label\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(12)) + "0,c\n",
         seed=0, stop="fixed:1", method="crfe")  # a 1-row class
@example(text="f0,label\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(12)),
         seed=-1, stop="fixed:1", method="rfe")
def test_select_exits_0_2_or_3(text, seed, stop, method):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        data.write_text(text)
        rc = main(["select", "--data", str(data), "--label", "label", "--method", method,
                   "--stop", stop, "--seed", str(seed), "--out", str(Path(tmp) / "o")])
    event(f"exit {rc}")
    assert rc in (0, 2, 3)


# one bad setting each: a config error (exit 2), or too few features to compare
FAULTS = [("spec", "n_informative", 9), ("spec", "class_sep", 0.0), ("spec", "n_features", 1),
          ("cfg", "repeats", 0), ("cfg", "sizes", [9]), ("cfg", "sizes", [1, 2]),
          ("cfg", "sizes", "3"), ("cfg", "selectors", []), ("cfg", "selectors", ["rfe", "rfe"]),
          ("stopping", "psi", 2), ("stopping", "warmup", -1)]


@st.composite
def bench_configs(draw):
    """A small synthetic spec and bench settings, valid but for at most one fault."""
    l = draw(st.integers(2, 5))
    informative = draw(st.integers(1, l))
    k = draw(st.integers(2, min(4, 2 ** informative)))
    spec = {"n_samples": draw(st.integers(k, 30)), "n_features": l, "n_informative": informative,
            "n_redundant": draw(st.integers(0, min(1, l - informative))), "n_classes": k,
            "class_sep": draw(st.sampled_from([0.5, 2.0])),
            "flip_y": draw(st.sampled_from([0.0, 0.1, 1.0])), "seed": draw(st.integers(0, 99))}
    stopping = {"repeats": draw(st.integers(1, 2)), "psi": draw(st.integers(3, 10)),
                "warmup": draw(st.integers(0, 5))}
    cfg = {"dataset": {"synthetic": spec}, "repeats": draw(st.integers(1, 2)),
           "master_seed": draw(st.integers(0, 999)), "stopping": stopping,
           "selectors": draw(st.sampled_from([["crfe", "rfe"], ["rfe"], ["crfe"]]))}
    sizes = draw(st.lists(st.integers(1, l - 1), unique=True))
    if sizes:
        cfg["sizes"] = sorted(sizes, reverse=True)
    if draw(st.integers(0, 2)) == 0:
        part, key, value = draw(st.sampled_from(FAULTS))
        {"spec": spec, "cfg": cfg, "stopping": stopping}[part][key] = value
    return cfg


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=bench_configs())
@example(cfg={"dataset": {"synthetic": {"n_samples": 12, "n_features": 3, "n_informative": 2,
                                        "n_redundant": 0, "n_classes": 3, "class_sep": 2.0,
                                        "flip_y": 0.0, "seed": 0}},
              "repeats": 1, "stopping": {"repeats": 2}})  # runs: folds of 1 or 2 rows
def test_bench_exits_0_2_or_3(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["bench", "--config", str(path), "--out", str(Path(tmp) / "o")])
    event(f"exit {rc}")
    assert rc in (0, 2, 3)
