"""``tools/bench_compare.py``'s statistics and its check of a run's
output, fed canned values here: no subprocess and no git."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

_BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def test_summary_gives_the_median_and_inclusive_quartiles():
    assert bench_compare.summary(_BASE) == {
        "q1": 12.25, "median": 14.5, "q3": 16.75,
    }
    assert bench_compare.summary([1.0, 3.0]) == {
        "q1": 1.5, "median": 2.0, "q3": 2.5,
    }


@pytest.mark.parametrize(
    "wins, losses, p",
    [
        (0, 0, 1.0),
        (5, 5, 1.0),
        (10, 0, 2 / 2**10),
        (0, 10, 2 / 2**10),
        (9, 1, 2 * 11 / 2**10),
        (8, 2, 2 * 56 / 2**10),
        (3, 0, 0.25),
    ],
)
def test_sign_test_is_the_exact_two_sided_binomial(wins, losses, p):
    assert math.isclose(bench_compare.sign_test(wins, losses), p)


def test_a_head_faster_in_every_pair_beyond_the_spread_is_a_gain():
    head = [x - 5.0 for x in _BASE]
    got = bench_compare.compare(_BASE, head, "lower", 0.25)
    assert (got["wins"], got["losses"], got["ties"]) == (10, 0, 0)
    assert math.isclose(got["change"], -5.0 / 14.5)
    assert got["head"]["median"] == 9.5
    assert got["sign_test_p"] == 2 / 2**10
    assert got["bound"] == 0.25
    assert got["verdict"] == "gain"


def test_a_gain_counts_by_the_metrics_direction():
    # for a higher-is-better metric the same pairs are a regression
    head = [x - 5.0 for x in _BASE]
    got = bench_compare.compare(_BASE, head, "higher", 0.25)
    assert (got["wins"], got["losses"]) == (0, 10)
    assert got["verdict"] == "regressed"
    got = bench_compare.compare(head, _BASE, "higher", 0.25)
    assert (got["wins"], got["losses"]) == (10, 0)
    assert got["verdict"] == "gain"


def test_a_median_worse_by_more_than_the_bound_regresses():
    head = [x * 1.3 for x in _BASE]
    got = bench_compare.compare(_BASE, head, "lower", 0.25)
    assert got["verdict"] == "regressed"
    assert bench_compare.compare(_BASE, head, "lower", 0.35)["verdict"] != (
        "regressed"
    )


def test_a_win_in_eight_pairs_of_ten_is_no_gain():
    base = [x + 90.0 for x in _BASE]  # a spread of 4 % of the median
    head = [x - 5.0 for x in base[:8]] + [x + 0.5 for x in base[8:]]
    got = bench_compare.compare(base, head, "lower", 0.25)
    assert (got["wins"], got["losses"]) == (8, 2)
    assert got["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    base = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    head = [1.1, 1.1, 1.0, 1.9, 2.0, 2.0]
    got = bench_compare.compare(base, head, "lower", 0.25)
    assert got["ties"] == 3
    assert got["verdict"] == "unresolved"
    # unless every head run reads better than every base run
    got = bench_compare.compare(base, [0.9] * 6, "lower", 0.25)
    assert got["wins"] == 6
    assert got["verdict"] == "within bound"


def _line(correct=True, failed=0, **metrics):
    return json.dumps({
        "correct": correct, "attempted": 4, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": "s"}
            for name, value in metrics.items()
        },
    })


def test_metrics_of_reads_the_last_json_line():
    out = "[PASS] a check\n" + _line(wall_s=1.5, cpu_s=1.4) + "\n"
    assert bench_compare.metrics_of("base", 0, out) == {
        "wall_s": 1.5, "cpu_s": 1.4,
    }


@pytest.mark.parametrize(
    "returncode, stdout, message",
    [
        (1, _line(wall_s=1.0), "exited 1"),
        (0, "", "no JSON object last"),
        (0, _line(wall_s=1.0) + "\ntrailing words", "no JSON object last"),
        (0, "[1, 2]", "no JSON object last"),
        (0, _line(correct=False, wall_s=1.0), "correct False"),
        (0, _line(failed=1, wall_s=1.0), "failed 1"),
    ],
    ids=["exit", "empty", "not-last", "not-an-object", "incorrect", "failed"],
)
def test_metrics_of_refuses_a_run_that_did_not_succeed(
    returncode, stdout, message
):
    with pytest.raises(SystemExit, match=f"head grid-serial.*{message}"):
        bench_compare.metrics_of("head grid-serial", returncode, stdout)
