"""The answer checker must count corrupted answers as failed operations.

Run with ``python3 -m pytest perfbench/test_checker.py`` or directly with
``python3 perfbench/test_checker.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import Answer, Checker, EdgeMirror, LiveEdgeEstimator  # noqa: E402


def chain_mirror() -> EdgeMirror:
    """0 -> 1 -> 2 -> 3 with certain edges, 4 -> 5 with p = 0.5, 6 alone."""
    src = np.array([0, 1, 2, 4])
    dst = np.array([1, 2, 3, 5])
    prob = np.array([1.0, 1.0, 1.0, 0.5])
    return EdgeMirror(7, src, dst, prob)


def good_answer(**overrides) -> Answer:
    fields = dict(seeds=[0, 6], k=2, eps=0.3, status="complete",
                  lower=4.5, upper=5.5)
    fields.update(overrides)
    return Answer(**fields)


def test_estimator_is_exact_on_certain_edges():
    est = LiveEdgeEstimator(chain_mirror(), worlds=128, seed=1)
    mean, se = est.estimate([0, 6])
    assert mean == 5.0 and se == 0.0


def test_estimator_tracks_edge_probability():
    est = LiveEdgeEstimator(chain_mirror(), worlds=1024, seed=1)
    mean, se = est.estimate([4])
    assert abs(mean - 1.5) < 4 * se + 1e-9


def test_good_answer_passes():
    checker = Checker(seed=1)
    checker.check_query("good", good_answer(), chain_mirror())
    assert (checker.attempted, checker.failed) == (1, 0)


def test_corrupted_answers_count_as_failed():
    mirror = chain_mirror()
    corrupted = {
        "seed out of range": good_answer(seeds=[0, 7]),
        "repeated seed": good_answer(seeds=[0, 0]),
        "too few seeds": good_answer(seeds=[0]),
        "lower bound above the estimate": good_answer(lower=5.6, upper=6.0),
        "upper bound below the estimate": good_answer(lower=3.0, upper=4.0),
        "partial status": good_answer(status="partial"),
        "vacuous certificate": good_answer(lower=0.0, upper=float("inf")),
        "ratio below 1-1/e-eps": good_answer(lower=1.0, upper=5.5),
    }
    checker = Checker(seed=1)
    for label, answer in corrupted.items():
        checker.check_query(label, answer, mirror)
    assert checker.attempted == len(corrupted)
    assert checker.failed == len(corrupted)


def test_ratio_may_fall_short_at_theta_max():
    checker = Checker(seed=1)
    checker.check_query(
        "capped", good_answer(lower=4.5, upper=40.0, at_theta_max=True), chain_mirror()
    )
    assert checker.failed == 0


def test_graph_that_missed_a_delta_counts_as_failed():
    mirror = chain_mirror()
    before = (mirror.src.copy(), mirror.dst.copy(), mirror.prob.copy())
    inserts = (np.array([6]), np.array([0]), np.array([0.25]))
    deletes = (np.array([4]), np.array([5]))
    updates = (np.array([1]), np.array([2]), np.array([0.75]))
    mirror.apply(inserts, deletes, updates)
    after = (np.array([0, 1, 2, 6]), np.array([1, 2, 3, 0]),
             np.array([1.0, 0.75, 1.0, 0.25]))
    checker = Checker(seed=1)
    assert checker.check_delta("applied", mirror, *after)
    assert not checker.check_delta("missed", mirror, *before)
    wrong_prob = (after[0], after[1], np.array([1.0, 0.5, 1.0, 0.25]))
    assert not checker.check_delta("stale probability", mirror, *wrong_prob)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_estimates_follow_the_delta():
    mirror = chain_mirror()
    checker = Checker(seed=1)
    assert checker.estimate(mirror, [0])[0] == 4.0
    mirror.apply((np.array([3]), np.array([6]), np.array([1.0])),
                 (np.array([], np.int64), np.array([], np.int64)),
                 (np.array([], np.int64), np.array([], np.int64), np.array([])))
    assert checker.estimate(mirror, [0])[0] == 5.0


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
