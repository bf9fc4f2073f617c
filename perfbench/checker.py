"""Independent answer checks.

Nothing here imports the program under test.  The benchmark keeps its own
copy of every workload graph's edge list (:class:`EdgeMirror`), applies
each delta to it, and estimates the influence of returned seed sets on it
with its own live-edge estimator (:class:`LiveEdgeEstimator`): each of
``worlds`` possible worlds keeps every edge independently with the edge's
probability (the IC live-edge construction), and the influence of a seed
set is the mean number of nodes reachable from it over the worlds.  Worlds
are packed 64 to a machine word, so one frontier sweep advances the
reachability of every world at once.

:class:`Checker` turns an answer into a list of problems; an operation
with any problem counts as failed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import norm

#: estimator error allowance: two-sided normal quantile at this level
ERROR_LEVEL = 1e-4
#: relative slack on the approximation-ratio test (float round-off only)
RATIO_SLACK = 1e-9


class EdgeMirror:
    """A directed weighted edge list kept sorted by ``(src, dst)``."""

    def __init__(self, n: int, src, dst, prob) -> None:
        self.n = int(n)
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        prob = np.asarray(prob, dtype=np.float64)
        order = np.argsort(src * self.n + dst, kind="stable")
        self.src, self.dst, self.prob = src[order], dst[order], prob[order]
        self.epoch = 0

    @property
    def m(self) -> int:
        return len(self.src)

    def keys(self) -> np.ndarray:
        return self.src * self.n + self.dst

    def copy(self) -> "EdgeMirror":
        twin = EdgeMirror.__new__(EdgeMirror)
        twin.n = self.n
        twin.src, twin.dst, twin.prob = (
            self.src.copy(), self.dst.copy(), self.prob.copy()
        )
        twin.epoch = self.epoch
        return twin

    def digest(self) -> str:
        h = hashlib.sha1()
        for arr in (self.src, self.dst, self.prob):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def apply(self, inserts, deletes, updates) -> None:
        """Apply ``(src, dst, prob)`` inserts/updates and ``(src, dst)``
        deletes; raises ``ValueError`` on a row that does not fit."""
        keys = self.keys()
        prob = self.prob.copy()
        if len(updates[0]):
            ukeys = updates[0] * self.n + updates[1]
            pos = np.searchsorted(keys, ukeys)
            if np.any(pos >= len(keys)) or np.any(keys[np.minimum(pos, len(keys) - 1)] != ukeys):
                raise ValueError("update of a missing edge")
            prob[pos] = updates[2]
        keep = np.ones(len(keys), dtype=bool)
        if len(deletes[0]):
            dkeys = deletes[0] * self.n + deletes[1]
            pos = np.searchsorted(keys, dkeys)
            if np.any(pos >= len(keys)) or np.any(keys[np.minimum(pos, len(keys) - 1)] != dkeys):
                raise ValueError("delete of a missing edge")
            keep[pos] = False
        src = np.concatenate([self.src[keep], inserts[0]])
        dst = np.concatenate([self.dst[keep], inserts[1]])
        prob = np.concatenate([prob[keep], inserts[2]])
        merged = src * self.n + dst
        order = np.argsort(merged, kind="stable")
        ordered = merged[order]
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("insert of an existing edge")
        self.src, self.dst, self.prob = src[order], dst[order], prob[order]
        self.epoch += 1

    def same_edges(self, src, dst, prob) -> bool:
        """Does ``(src, dst, prob)`` hold exactly this edge list?"""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        prob = np.asarray(prob, dtype=np.float64)
        if len(src) != self.m:
            return False
        order = np.argsort(src * self.n + dst, kind="stable")
        return bool(
            np.array_equal(src[order], self.src)
            and np.array_equal(dst[order], self.dst)
            and np.array_equal(prob[order], self.prob)
        )


class LiveEdgeEstimator:
    """Influence by forward reachability over sampled live-edge worlds."""

    def __init__(self, mirror: EdgeMirror, worlds: int = 64, seed: int = 0):
        if worlds % 64:
            raise ValueError("worlds must be a multiple of 64")
        self.n = mirror.n
        self.worlds = worlds
        self.src, self.dst = mirror.src, mirror.dst
        self.indptr = np.searchsorted(
            mirror.src, np.arange(self.n + 1, dtype=np.int64)
        )
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, int(mirror.epoch)])
        )
        words = worlds // 64
        live = np.empty((mirror.m, words), dtype=np.uint64)
        chunk = 1 << 16
        prob32 = mirror.prob.astype(np.float32)
        for lo in range(0, mirror.m, chunk):
            hi = min(lo + chunk, mirror.m)
            draws = rng.random((hi - lo, worlds), dtype=np.float32)
            bits = draws < prob32[lo:hi, None]
            live[lo:hi] = np.packbits(bits, axis=1, bitorder="little").view(
                np.uint64
            )
        self.live = live

    def reach_counts(self, seeds: Sequence[int]) -> np.ndarray:
        """Per-world number of nodes reachable from ``seeds``."""
        words = self.live.shape[1]
        reached = np.zeros((self.n, words), dtype=np.uint64)
        incoming = np.zeros_like(reached)
        marked = np.zeros(self.n, dtype=bool)
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        reached[seeds] = np.uint64(0xFFFFFFFFFFFFFFFF)
        frontier = seeds
        fresh = reached[seeds]
        while len(frontier):
            # Every out-edge of the frontier, carrying the worlds in which
            # its source was newly reached and the edge is live.
            starts = self.indptr[frontier]
            lens = self.indptr[frontier + 1] - starts
            total = int(lens.sum())
            if total == 0:
                break
            owner = np.repeat(np.arange(len(frontier)), lens)
            offsets = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
            edges = np.repeat(starts, lens) + offsets
            bits = fresh[owner] & self.live[edges]
            keep = bits.any(axis=1)
            targets, bits = self.dst[edges[keep]], bits[keep]
            np.bitwise_or.at(incoming, targets, bits)
            marked[targets] = True
            nodes = np.flatnonzero(marked)
            marked[nodes] = False
            new = incoming[nodes] & ~reached[nodes]
            incoming[nodes] = 0
            hit = new.any(axis=1)
            frontier, fresh = nodes[hit], new[hit]
            reached[frontier] |= fresh
        per_world = np.unpackbits(
            reached.view(np.uint8), axis=1, bitorder="little"
        ).sum(axis=0, dtype=np.int64)
        return per_world

    def estimate(self, seeds: Sequence[int]) -> Tuple[float, float]:
        """(mean influence, standard error of the mean)."""
        counts = self.reach_counts(seeds).astype(np.float64)
        return float(counts.mean()), float(counts.std(ddof=1) / np.sqrt(len(counts)))


@dataclass
class Answer:
    """What the program returned for one query, in plain values."""

    seeds: List[int]
    k: int
    eps: float
    status: str
    lower: float
    upper: float
    #: the run says it stopped at its sample cap (theta_max) rather than
    #: on the approximation test
    at_theta_max: bool = False


def answer_problems(
    ans: Answer, n: int, estimate: Optional[Tuple[float, float]]
) -> List[str]:
    """Every way ``ans`` breaks the checks; empty when it passes."""
    problems: List[str] = []
    seeds = list(ans.seeds)
    if len(seeds) != ans.k or len(set(seeds)) != len(seeds):
        problems.append(f"expected {ans.k} distinct seeds, got {len(set(seeds))}/{len(seeds)}")
    if any(not (0 <= int(s) < n) for s in seeds):
        problems.append("seed out of range")
    if ans.status != "complete":
        problems.append(f"status {ans.status!r}")
    if not (np.isfinite(ans.lower) and np.isfinite(ans.upper) and ans.upper > 0):
        problems.append(f"no certificate: lower={ans.lower} upper={ans.upper}")
        return problems
    if estimate is not None:
        mean, se = estimate
        slack = norm.isf(ERROR_LEVEL / 2) * se
        if ans.lower > mean + slack:
            problems.append(f"lower bound {ans.lower:.1f} above estimate {mean:.1f}+{slack:.1f}")
        if ans.upper < mean - slack:
            problems.append(f"upper bound {ans.upper:.1f} below estimate {mean:.1f}-{slack:.1f}")
    target = 1.0 - 1.0 / np.e - ans.eps
    if not ans.at_theta_max and ans.lower / ans.upper < target * (1 - RATIO_SLACK):
        problems.append(f"ratio {ans.lower / ans.upper:.4f} below {target:.4f}")
    return problems


class Checker:
    """Counts operations and failures; estimates are memoised per graph."""

    def __init__(self, worlds: int = 64, seed: int = 0) -> None:
        self.worlds = worlds
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._estimators: Dict[str, LiveEdgeEstimator] = {}
        self._estimates: Dict[Tuple[str, Tuple[int, ...]], Tuple[float, float]] = {}

    def _record(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems

    def estimate(self, mirror: EdgeMirror, seeds: Sequence[int]) -> Tuple[float, float]:
        digest = mirror.digest()
        key = (digest, tuple(sorted(int(s) for s in seeds)))
        hit = self._estimates.get(key)
        if hit is None:
            est = self._estimators.get(digest)
            if est is None:
                # One graph at a time: an older epoch's worlds are not
                # needed again once the mirror has moved on.
                self._estimators = {
                    digest: LiveEdgeEstimator(mirror, self.worlds, self.seed)
                }
                est = self._estimators[digest]
            hit = self._estimates[key] = est.estimate(key[1])
        return hit

    def check_query(self, label: str, ans: Answer, mirror: EdgeMirror) -> Optional[float]:
        """Record one query; returns the influence estimate (None if the
        seeds could not be evaluated)."""
        estimate = None
        seeds = [int(s) for s in ans.seeds]
        if seeds and all(0 <= s < mirror.n for s in seeds):
            estimate = self.estimate(mirror, seeds)
        self._record(label, answer_problems(ans, mirror.n, estimate))
        return None if estimate is None else estimate[0]

    def check_delta(self, label: str, mirror: EdgeMirror, src, dst, prob) -> bool:
        """Record one delta: the program's edges must equal the mirror's."""
        ok = mirror.same_edges(src, dst, prob)
        return self._record(label, [] if ok else ["program graph differs from the benchmark's edge list"])

    def fail(self, label: str, problem: str) -> None:
        self._record(label, [problem])
