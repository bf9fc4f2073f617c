"""The three workloads.

Every workload is a closed loop with one caller, and the program receives
only the inputs made here.  The graph, the query stream and the session
seeds are a fixed panel drawn from ``PANEL_SEED``; the workload seed draws
the edge-churn deltas (and rotates the order of the one-shot panel), see
README.md for why.  A run builds the graph ``SETUP_REPS`` times (each
build is one ``setup_s`` sample), then plays rounds: each round starts the
program cold on a fresh copy of the built graph and plays the whole
stream, so every round does exactly the same operations and reports
exactly the same work counts.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from checker import Answer, Checker, EdgeMirror
from refclock import RefClock, Sample

#: graph builds per run; setup_s is their median
SETUP_REPS = 3
#: the seed of every workload's fixed panel: graph, session seeds, queries
PANEL_SEED = 0


@dataclass
class RoundResult:
    queries: List[Sample] = field(default_factory=list)
    deltas: List[Sample] = field(default_factory=list)
    starts: List[Sample] = field(default_factory=list)
    rr_sets: int = 0
    edges_examined: int = 0
    spreads: List[float] = field(default_factory=list)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def run_comp(self) -> float:
        return sum(s.comp for s in self.queries + self.deltas)

    @property
    def run_raw(self) -> float:
        return sum(s.raw for s in self.queries + self.deltas)

    def counts(self) -> Tuple[int, int, float]:
        return self.rr_sets, self.edges_examined, float(np.mean(self.spreads))


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def copy_graph(graph):
    """A fresh program graph object with the same arrays (no caches)."""
    from repro.graphs.csr import CSRGraph

    return CSRGraph(
        graph.n,
        graph.out_indptr.copy(), graph.out_indices.copy(), graph.out_probs.copy(),
        graph.in_indptr.copy(), graph.in_indices.copy(), graph.in_probs.copy(),
        weight_model=graph.weight_model,
    )


def graph_mib(graph) -> float:
    arrays = (graph.out_indptr, graph.out_indices, graph.out_probs,
              graph.in_indptr, graph.in_indices, graph.in_probs,
              graph.in_prob_sums, graph.uniform_in)
    return sum(a.nbytes for a in arrays) / 2**20


def make_deltas(mirror: EdgeMirror, count: int, fraction: float,
                seed: int) -> List[Tuple[tuple, tuple, tuple]]:
    """``count`` successive burst-churn deltas, each over ~``fraction`` of
    the edges: every affected node loses one in-edge, has one reweighted
    and gains two.  Returns ``(inserts, deletes, updates)`` array triples
    and leaves ``mirror`` untouched."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDE17A]))
    work = mirror.copy()
    deltas = []
    for _ in range(count):
        users_wanted = max(1, int(round(work.m * fraction)) // 4)
        indeg = np.bincount(work.dst, minlength=work.n)
        users = rng.choice(np.flatnonzero(indeg >= 2), users_wanted, replace=False)
        users.sort()
        by_dst = np.argsort(work.dst, kind="stable")
        starts = np.searchsorted(work.dst[by_dst], users)
        picks = np.array([rng.choice(indeg[u], 2, replace=False) for u in users])
        lost = by_dst[starts + picks[:, 0]]
        kept = by_dst[starts + picks[:, 1]]
        # Two new in-neighbours per user: draw candidate sources in bulk and
        # keep the first two that are neither the user, a current in-edge,
        # nor a repeat (the mirror's keys are sorted).
        keys = work.keys()
        ins_src, ins_dst = [], []
        for u, cand in zip(users.tolist(), rng.integers(0, work.n, (len(users), 8))):
            ckeys = cand * work.n + u
            pos = np.minimum(np.searchsorted(keys, ckeys), len(keys) - 1)
            ok = (cand != u) & (keys[pos] != ckeys)
            _, first = np.unique(cand, return_index=True)
            ok &= np.isin(np.arange(len(cand)), first)
            chosen = cand[ok][:2]
            if len(chosen) < 2:
                raise RuntimeError(f"node {u}: too few candidate in-neighbours")
            ins_src.extend(int(v) for v in chosen)
            ins_dst.extend((u, u))
        inserts = (np.asarray(ins_src, np.int64), np.asarray(ins_dst, np.int64),
                   rng.uniform(0.01, 0.2, len(ins_src)))
        deletes = (work.src[lost].copy(), work.dst[lost].copy())
        updates = (work.src[kept].copy(), work.dst[kept].copy(),
                   rng.uniform(0.01, 0.2, len(kept)))
        work.apply(inserts, deletes, updates)
        deltas.append((inserts, deletes, updates))
    return deltas


def program_delta(spec):
    from repro.graphs.dynamic import GraphDelta

    inserts, deletes, updates = spec
    return GraphDelta(inserts=inserts, deletes=deletes, updates=updates)


def delta_payload(spec) -> Dict[str, list]:
    inserts, deletes, updates = spec
    return {
        "inserts": [[int(a), int(b), float(p)] for a, b, p in zip(*inserts)],
        "deletes": [[int(a), int(b)] for a, b in zip(*deletes)],
        "updates": [[int(a), int(b), float(p)] for a, b, p in zip(*updates)],
    }


def result_answer(result, k: int, eps: float) -> Answer:
    theta_max = result.extras.get("theta_max")
    return Answer(
        seeds=[int(s) for s in result.seeds], k=k, eps=eps,
        status=result.status, lower=float(result.lower_bound),
        upper=float(result.upper_bound),
        at_theta_max=theta_max is not None
        and result.num_rr_sets >= 2 * int(theta_max),
    )


def shuffled_ks(num: int, k_lo: int, k_hi: int, seed: int) -> List[int]:
    """``num`` values of k spread over [k_lo, k_hi], in a seed-shuffled order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51AB]))
    ks = np.linspace(k_lo, k_hi, num).round().astype(int)
    rng.shuffle(ks)
    return [int(k) for k in ks]


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    name = ""
    #: seconds one round's timed operations take on the reference machine
    ROUND_S = 10.0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def build(self):
        raise NotImplementedError

    def prepare(self, graph, mirror: EdgeMirror) -> None:
        """Derive the stream from the seed (outside every timed block)."""

    def round(self, graph, mirror: EdgeMirror, clock: RefClock,
              checker: Checker, tracer) -> RoundResult:
        raise NotImplementedError


class SessionChurn(Workload):
    """One in-process SUBSIM session under a k/eps query stream with
    edge-churn deltas applied through ``QuerySession.apply_delta``.

    The first queries tighten eps from 0.3 to 0.05, so the banks grow;
    the warm queries after them loosen it again and generate nothing,
    while the deltas between them make the banks repair.
    """

    name = "session-churn"
    ROUND_S = 10.0
    TIGHTEN_EPS = (0.3, 0.25, 0.2, 0.15, 0.12, 0.09, 0.07, 0.05)
    WARM_EPS = (0.3, 0.2, 0.15) * 6
    DELTA_AFTER = (7, 11, 15, 19, 23)

    def build(self):
        from repro import preferential_attachment, wc_weights

        return wc_weights(preferential_attachment(50_000, 6, seed=PANEL_SEED, reciprocal=0.3))

    def prepare(self, graph, mirror):
        eps = self.TIGHTEN_EPS + self.WARM_EPS
        self.stream = list(zip(shuffled_ks(len(eps), 10, 100, PANEL_SEED), eps))
        self.deltas = make_deltas(mirror, len(self.DELTA_AFTER), 0.002, self.seed)

    def round(self, graph, mirror, clock, checker, tracer):
        from repro import QuerySession

        g = copy_graph(graph)
        m = mirror.copy()
        out = RoundResult()
        session = QuerySession(g, "subsim", seed=PANEL_SEED)
        repair_sets = repair_edges = 0
        pending = list(self.deltas)
        for i, (k, eps) in enumerate(self.stream):
            if tracer is not None:
                tracer.next_op()
            result, sample = clock.timed(
                lambda: session.maximize(k, eps=eps, batch_size=1024)
            )
            out.queries.append(sample)
            spread = checker.check_query(f"query {i} k={k}", result_answer(result, k, eps), m)
            out.spreads.append(spread or 0.0)
            if i in self.DELTA_AFTER:
                spec = pending.pop(0)
                delta = program_delta(spec)
                if tracer is not None:
                    tracer.next_op()
                stats, sample = clock.timed(lambda: session.apply_delta(delta))
                out.deltas.append(sample)
                m.apply(*spec)
                checker.check_delta(f"delta after query {i}", m, *g.edges())
                for bank_stats in stats["banks"].values():
                    repair_sets += bank_stats["repair_counters"]["sets_generated"]
                    repair_edges += bank_stats["repair_counters"]["edges_examined"]
        if tracer is not None:
            tracer.idle()
        # Each persistent bank's generator counters, read once: the session
        # registry's generation.* totals count a bank twice after a repair.
        banks = session.provider.persistent_banks().values()
        out.rr_sets = repair_sets + sum(b.generator.counters.sets_generated for b in banks)
        out.edges_examined = repair_edges + sum(
            b.generator.counters.edges_examined for b in banks
        )
        if tracer is not None:
            generated = session.metrics.value("bank.sets_generated")
            reused = session.metrics.value("bank.sets_reused")
            out.layer["rrsets.reused_frac"] = reused / max(1, reused + generated)
            out.layer["rrsets.pool_mib"] = sum(
                b.nbytes() for b in session.provider.persistent_banks().values()
            ) / 2**20
        session.close()
        return out


class HistOneshot(Workload):
    """Independent one-shot ``hist+subsim`` queries with sequential
    generation on a high-influence graph (uniform IC p=0.06).

    The graph and the queries form a fixed panel; the workload seed only
    rotates the order in which the panel runs.  HIST's per-query work
    swings about 4x with its sentinel draw, so the totals of a stream
    drawn afresh from every seed would differ by about 20% between seeds,
    and about one query in 30 drawn at random hits the known
    ``b = k`` certificate fault (see README.md).
    """

    name = "hist-oneshot"
    ROUND_S = 25.0
    QUERIES = 8
    EPS = 0.3

    def build(self):
        from repro import uniform_weights
        from repro.experiments.workloads import make_dataset

        return uniform_weights(make_dataset("pokec-like", seed=PANEL_SEED), 0.06)

    def prepare(self, graph, mirror):
        rng = np.random.default_rng(np.random.SeedSequence([PANEL_SEED, 0x4157]))
        ks = np.linspace(10, 50, self.QUERIES).round().astype(int)
        seeds = rng.integers(0, 2**31, self.QUERIES)
        panel = [(int(k), int(s)) for k, s in zip(ks, seeds)]
        shift = self.seed % self.QUERIES
        self.stream = panel[shift:] + panel[:shift]

    def round(self, graph, mirror, clock, checker, tracer):
        from repro import InfluenceMaximizer, MetricsRegistry

        g = copy_graph(graph)
        out = RoundResult()
        for i, (k, qseed) in enumerate(self.stream):
            if tracer is not None:
                tracer.next_op()
            registry = MetricsRegistry()
            result, sample = clock.timed(
                lambda: InfluenceMaximizer(g).maximize(
                    k=k, algorithm="hist+subsim", eps=self.EPS, seed=qseed,
                    metrics=registry,
                )
            )
            out.queries.append(sample)
            spread = checker.check_query(
                f"query {i} k={k} seed={qseed}", result_answer(result, k, self.EPS), mirror
            )
            out.spreads.append(spread or 0.0)
            totals = registry.generation_totals()
            out.rr_sets += totals["sets_generated"]
            out.edges_examined += totals["edges_examined"]
        if tracer is not None:
            tracer.idle()
            out.layer["rrsets.reused_frac"] = 0.0
        return out


class ServeShards(Workload):
    """The HTTP daemon with one worker thread and a 2-worker ShardPool,
    driven by one client with queries and ``POST /delta`` requests.

    Like ``session-churn``: eps first tightens, then warm queries run
    between the deltas.
    """

    name = "serve-shards"
    ROUND_S = 20.0
    TIGHTEN_EPS = (0.3, 0.22, 0.16, 0.12, 0.1)
    WARM_EPS = (0.3, 0.2) * 5
    DELTA_AFTER = (4, 7, 10)
    TENANT = "bench"
    GRAPH = "g"

    def build(self):
        from repro import preferential_attachment, wc_weights

        return wc_weights(preferential_attachment(100_000, 6, seed=PANEL_SEED, reciprocal=0.3))

    def prepare(self, graph, mirror):
        eps = self.TIGHTEN_EPS + self.WARM_EPS
        self.stream = list(zip(shuffled_ks(len(eps), 10, 100, PANEL_SEED), eps))
        self.deltas = make_deltas(mirror, len(self.DELTA_AFTER), 0.002, self.seed)

    def _start(self, g):
        from repro.serving.config import ServerConfig
        from repro.serving.server import QueryServer

        server = QueryServer(ServerConfig(
            port=0, workers=1, shards=2, algorithm="subsim", seed=PANEL_SEED,
        ))
        server.registry.add_graph(self.GRAPH, g)
        return server.start()

    @staticmethod
    def _request(address, method: str, path: str, body: Optional[dict] = None):
        conn = http.client.HTTPConnection(address[0], address[1], timeout=120)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if data is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def round(self, graph, mirror, clock, checker, tracer):
        g = copy_graph(graph)
        m = mirror.copy()
        out = RoundResult()
        server, sample = clock.timed(lambda: self._start(g))
        out.starts.append(sample)
        address = server.address
        overhead = delta_client = 0.0
        pending = list(self.deltas)
        try:
            for i, (k, eps) in enumerate(self.stream):
                if tracer is not None:
                    tracer.next_op()
                body = {"graph": self.GRAPH, "tenant": self.TENANT, "k": k, "eps": eps}
                (status, payload), sample = clock.timed(
                    lambda: self._request(address, "POST", "/query", body)
                )
                out.queries.append(sample)
                label = f"query {i} k={k}"
                if status != 200:
                    checker.fail(label, f"HTTP {status}: {payload}")
                    out.spreads.append(0.0)
                else:
                    overhead += sample.raw - float(payload["runtime_seconds"])
                    cert = payload["certificate"]
                    ans = Answer(
                        seeds=[int(s) for s in payload["seeds"]], k=k, eps=eps,
                        status=str(payload["status"]),
                        lower=float(cert["lower_bound"]),
                        upper=float(cert["upper_bound"]),
                    )
                    out.spreads.append(checker.check_query(label, ans, m) or 0.0)
                if i in self.DELTA_AFTER:
                    spec = pending.pop(0)
                    if tracer is not None:
                        tracer.next_op()
                    body = dict(delta_payload(spec), graph=self.GRAPH)
                    (status, payload), sample = clock.timed(
                        lambda: self._request(address, "POST", "/delta", body)
                    )
                    out.deltas.append(sample)
                    delta_client += sample.raw
                    m.apply(*spec)
                    if status != 200:
                        checker.fail(f"delta after query {i}", f"HTTP {status}: {payload}")
                    else:
                        checker.check_delta(f"delta after query {i}", m, *g.edges())
            if tracer is not None:
                tracer.idle()
            _, snapshot = self._request(address, "GET", "/metrics")
            counters = snapshot.get("counters", {})
            out.rr_sets = int(counters.get("generation.sets_generated", 0)
                              + counters.get("generation.repaired", 0))
            out.edges_examined = int(counters.get("generation.edges_examined", 0))
            if tracer is not None:
                generated = counters.get("bank.sets_generated", 0)
                reused = counters.get("bank.sets_reused", 0)
                out.layer["rrsets.reused_frac"] = reused / max(1, reused + generated)
                out.layer["rrsets.pool_mib"] = sum(
                    bank.nbytes()
                    for entry in server.sessions.entries()
                    for bank in entry.session.provider.persistent_banks().values()
                ) / 2**20
                out.layer["serving.overhead_s"] = overhead
                out.layer["serving.delta_s"] = delta_client
        finally:
            server.stop()
        return out


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    cls.name: cls for cls in (SessionChurn, HistOneshot, ServeShards)
}
