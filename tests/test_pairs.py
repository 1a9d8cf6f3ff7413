"""The statistics of ``tools/pairs.py`` on canned numbers."""

import argparse
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "pairs.py")
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_quartiles_use_the_inclusive_method():
    assert pairs.quartiles([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}
    assert pairs.quartiles([1, 2, 3, 4]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_spread():
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    head = [b + 5 for b in base]
    out = pairs.compare(base, head, "higher", 0.2)
    assert out["pairs"] == 10 and out["head_wins"] == 10 and out["ties"] == 0
    assert out["change"] == pytest.approx(0.05) and out["verdict"] == "within bound"
    assert out["gain"]
    # Eight wins of ten are not enough, however large the gap.
    head[:2] = base[:2]
    out = pairs.compare(base, head, "higher", 0.2)
    assert (out["head_wins"], out["ties"], out["gain"]) == (8, 2, False)
    # Ten wins by less than the parent's quartile spread are no gain either.
    out = pairs.compare(base, [b + 1 for b in base], "higher", 0.2)
    assert out["head_wins"] == 10 and not out["gain"]


def test_lower_is_better_for_latencies():
    base = [10.0, 10.2, 9.8, 10.0]
    out = pairs.compare(base, [13.0, 13.1, 12.9, 13.0], "lower", 0.2)
    assert out["head_wins"] == 0 and out["change"] == pytest.approx(0.3)
    assert out["verdict"] == "worse past bound" and not out["gain"]
    out = pairs.compare(base, [11.0, 11.2, 10.8, 11.0], "lower", 0.2)
    assert out["verdict"] == "within bound"
    out = pairs.compare(base, [8.0, 8.1, 7.9, 8.0], "lower", 0.2)
    assert out["head_wins"] == 4 and out["verdict"] == "within bound"
    # Four pairs are too few to show a gain; ten such pairs show one.
    assert not out["gain"]
    ten = pairs.compare((base * 3)[:10], ([8.0, 8.1, 7.9, 8.0] * 3)[:10], "lower", 0.2)
    assert ten["pairs"] == 10 and ten["gain"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    base = [10.0, 20.0, 30.0, 40.0]
    out = pairs.compare(base, [12.0, 22.0, 28.0, 41.0], "higher", 0.2)
    assert out["base_spread"] == pytest.approx(15 / 25)
    assert out["verdict"] == "unresolved"
    # Unless every run of the head beats every run of the parent.
    out = pairs.compare(base, [41.0, 42.0, 43.0, 44.0], "higher", 0.2)
    assert out["verdict"] == "within bound"
    out = pairs.compare(base, [1.0, 2.0, 3.0, 9.0], "lower", 0.2)
    assert out["verdict"] == "within bound"


def test_a_metric_that_reads_zero_on_both_sides_is_not_measured():
    out = pairs.compare([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "higher", 0.25)
    assert out["verdict"] == "not measured" and out["change"] is None and not out["gain"]


def test_summarise_reads_each_metric_from_each_side_of_each_pair():
    runs = [({"ops_per_s": 10.0, "peak_rss_mb": 30.0}, {"ops_per_s": 11.0, "peak_rss_mb": 31.0}),
            ({"ops_per_s": 10.5, "peak_rss_mb": 30.0}, {"ops_per_s": 10.0, "peak_rss_mb": 29.0}),
            ({"ops_per_s": 9.5, "peak_rss_mb": 30.0}, {"ops_per_s": 9.5, "peak_rss_mb": 30.0})]
    canned = [{"base": {"metrics": b}, "head": {"metrics": h}} for b, h in runs]
    out = pairs.summarise(canned, {"ops_per_s": ("higher", 0.2), "peak_rss_mb": ("lower", 0.2)})
    assert out["ops_per_s"]["base"]["median"] == 10.0
    assert out["ops_per_s"]["head"]["median"] == 10.0
    assert (out["ops_per_s"]["head_wins"], out["ops_per_s"]["ties"]) == (1, 1)
    assert (out["peak_rss_mb"]["head_wins"], out["peak_rss_mb"]["ties"]) == (1, 1)


def test_workload_specs_name_a_workload_and_a_pair_count():
    assert pairs.workload_spec("suite:10") == ("suite", 10)
    for bad in ("suite", "suite:0", "suite:x", "suite:-1"):
        with pytest.raises(argparse.ArgumentTypeError):
            pairs.workload_spec(bad)


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "evoalg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text('"""Doc."""\n\nX = 1\n')
    (package / "a.py").write_text("a = 1\nb = 2")  # no final newline: one line for wc -l
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "deep.py").write_text("not = 'counted'\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_x.py").write_text("x = 1\n")
    assert pairs.src_lines(str(tmp_path)) == 4
    assert pairs.src_lines(str(tmp_path / "missing")) == 0
