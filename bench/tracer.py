"""Spans around dnarate's public functions, recorded from outside the package.

Tracing rebinds the names each calling module imported (for example
`dnarate.decoder.greedy_cluster` or `dnarate.rates.substream`) to wrappers
that record a span: name, start, end, op id, thread id and parent span.
Nothing under `src/` changes, and uninstalling restores the originals.
Self times and per-layer figures are derived from the spans afterwards.
"""

import functools
import inspect
import itertools
import math
import threading
import time

import numpy as np

# (module, attribute, span name). Each module's own binding is wrapped, so
# calls made inside the package are seen as well as the benchmark's.
BINDINGS = [
    ("cli", "main", "cli.main"),
    ("cli", "channel_capacity", "rates.capacity"),
    ("cli", "achievable_outer_rate_exact", "rates.exact"),
    ("cli", "achievable_outer_rate_mc", "rates.mc"),
    ("cli", "optimize_scheme", "rates.optimize"),
    ("rates", "achievable_outer_rate_exact", "rates.exact"),
    ("rates", "achievable_outer_rate_mc", "rates.mc"),
    ("rates", "optimize_scheme", "rates.optimize"),
    ("rates", "channel_capacity", "rates.capacity"),
    ("rates", "gap_to_capacity", "rates.capacity"),
    ("rates", "r_max", "rates.capacity"),
    ("rates", "asymptotic_rate", "rates.capacity"),
    ("rates", "capacity_table", "multidraw.table"),
    ("rates", "gated_capacity_table", "multidraw.table"),
    ("rates", "multi_draw_capacity", "multidraw.table"),
    ("rates", "substream", "seeding"),
    ("channel", "substream", "seeding"),
    ("decoder", "derive_seed", "seeding"),
    ("decoder", "random_pool", "channel.pool"),
    ("decoder", "simulate_channel", "channel.simulate"),
    ("decoder", "greedy_cluster", "decoder.cluster"),
    ("decoder", "count_wrong_clusters", "decoder.check"),
    ("decoder", "oracle_index_decode", "decoder.index"),
    ("decoder", "oracle_inner_decode", "decoder.inner"),
    ("decoder", "outer_success", "decoder.outer"),
    ("decoder", "gated_capacity_table", "multidraw.table"),
]

# A decoder trial has no public entry point of its own: it opens with the
# first seed derivation on a worker thread and closes when outer_success returns.
_TRIAL_OPEN = ("decoder", "derive_seed")
_TRIAL_CLOSE = ("decoder", "outer_success")

_BOUND_ARGS = {"rates.exact", "rates.mc", "rates.optimize"}


class Tracer:
    """Collects spans in memory while installed; derives per-layer figures."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.trials = []
        self.missing = []
        self.op_id = None
        self.op_kind = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        for mod_name, attr, name in BINDINGS:
            module = getattr(self.package, mod_name)
            original = getattr(module, attr, None)
            if original is None:
                if (mod_name, attr) not in self.missing:
                    self.missing.append((mod_name, attr))
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, (mod_name, attr)))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
        return local

    def _wrap(self, fn, name, binding):
        tracer = self
        signature = inspect.signature(fn) if name in _BOUND_ARGS else None
        opens_trial = binding == _TRIAL_OPEN
        closes_trial = binding == _TRIAL_CLOSE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if opens_trial and state.trial is None and not stack:
                state.trial = {
                    "op": tracer.op_id,
                    "kind": tracer.op_kind,
                    "thread": threading.get_ident(),
                    "start": time.perf_counter(),
                    "cpu_start": time.thread_time(),
                }
            span = {
                "id": next(tracer._ids),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "op": tracer.op_id,
                "kind": tracer.op_kind,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["args"] = bound.arguments
            else:
                span["args"] = args
            span["result"] = result
            if closes_trial and state.trial is not None:
                trial = state.trial
                trial["end"] = time.perf_counter()
                trial["cpu_end"] = time.thread_time()
                tracer.trials.append(trial)
                state.trial = None
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Derived figures


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}


@functools.lru_cache(maxsize=None)
def _exact_vectors(c, K, tail_eps):
    """Computed: C(d_max + K, K) draw vectors, d_max the Poisson(K c) tail cut."""
    from scipy.stats import poisson

    return math.comb(int(poisson.isf(tail_eps, K * c)) + K, K)


def _cluster_counts(output, clusters):
    """Clusters, computed row distances and clean clusters of one greedy pass.

    Row distances follow the seed scan: each new cluster's seed is compared
    with every read still pending, so the count is the sum over clusters, in
    order, of the pending reads minus one.
    """
    sizes = np.fromiter((c.size for c in clusters), dtype=np.int64, count=len(clusters))
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])  # reads assigned before each cluster
    row_distances = int((output.N - starts - 1).sum())
    members = np.fromiter(
        itertools.chain.from_iterable(c.members for c in clusters), dtype=np.int64, count=output.N
    )
    origins = output.origins[members]
    pure = np.minimum.reduceat(origins, starts) == np.maximum.reduceat(origins, starts)
    fiber = np.bincount(output.origins, minlength=output.pool_size)
    clean = int((pure & (sizes == fiber[origins[starts]])).sum())
    return len(clusters), row_distances, clean


def layer_metrics(tracer, traced_ops, traced_busy_s, untraced_ops, untraced_busy_s, threads):
    """Per-layer figures from the spans of the traced ops.

    Times are self times per traced op unless named otherwise; counts are
    per traced op. `traced_ops` maps op id -> (kind, wall seconds).
    """
    spans = [s for s in tracer.spans if s["op"] in traced_ops]
    own = self_times(spans)
    n_ops = max(1, len(traced_ops))
    m = {}

    def self_sum(name, pred=lambda s: True):
        return sum(own[s["id"]] for s in spans if s["name"] == name and pred(s))

    def per_op(value):
        return value / n_ops

    m["rates.exact.s"] = per_op(self_sum("rates.exact"))
    vectors = 0
    for s in spans:
        if s["name"] == "rates.exact":
            a = s["args"]
            vectors += _exact_vectors(a["params"].c, a["scheme"].K, a["tail_eps"])
    m["rates.exact.vectors"] = per_op(vectors)

    m["rates.mc.s"] = per_op(self_sum("rates.mc"))
    draws, mc_wall = 0, 0.0
    for s in spans:
        if s["name"] == "rates.mc":
            draws += s["args"]["samples"] * s["args"]["scheme"].K
            mc_wall += s["end"] - s["start"]
    m["rates.mc.draws_per_s"] = draws / mc_wall if mc_wall else 0.0

    def exact_path(s):
        return s["result"].rate.method == "exact"

    m["rates.optimize.exact.s"] = per_op(self_sum("rates.optimize", exact_path))
    m["rates.optimize.mc.s"] = per_op(self_sum("rates.optimize", lambda s: not exact_path(s)))
    # Computed: samples x length of the count table, read off the widest
    # gated capacity table the optimiser built.
    widest = {}
    for s in spans:
        if s["name"] == "multidraw.table" and s["parent"] is not None:
            widest[s["parent"]] = max(widest.get(s["parent"], 0), np.size(s["result"]))
    cells = sum(
        s["args"]["samples"] * widest.get(s["id"], 0)
        for s in spans
        if s["name"] == "rates.optimize" and not exact_path(s)
    )
    m["rates.optimize.count_cells"] = per_op(cells)
    m["rates.capacity.s"] = per_op(self_sum("rates.capacity"))

    m["multidraw.table.s"] = per_op(self_sum("multidraw.table"))
    m["multidraw.table.entries"] = per_op(
        sum(np.size(s["result"]) for s in spans if s["name"] == "multidraw.table")
    )
    m["seeding.substreams"] = per_op(sum(1 for s in spans if s["name"] == "seeding"))
    m["seeding.s"] = per_op(self_sum("seeding"))

    m["channel.pool.s"] = per_op(self_sum("channel.pool"))
    m["channel.simulate.s"] = per_op(self_sum("channel.simulate"))
    m["channel.read_bytes"] = per_op(
        sum(s["result"].reads.shape[0] * -(-s["result"].length // 8)
            for s in spans if s["name"] == "channel.simulate")
    )

    n_clusters = row_distances = clean = cluster_bytes = 0
    for s in spans:
        if s["name"] == "decoder.cluster":
            output = s["args"][0]
            k, rows, good = _cluster_counts(output, s["result"])
            n_clusters += k
            row_distances += rows
            clean += good
            cluster_bytes += rows * -(-output.reads.shape[1] // 8) * 8
    m["decoder.cluster.s"] = per_op(self_sum("decoder.cluster"))
    m["decoder.cluster.row_distances"] = per_op(row_distances)
    m["decoder.cluster.bytes"] = per_op(cluster_bytes)
    m["decoder.clusters"] = per_op(n_clusters)
    m["decoder.clean_ratio"] = clean / n_clusters if n_clusters else 0.0
    for stage in ("check", "index", "inner", "outer"):
        m[f"decoder.{stage}.s"] = per_op(self_sum(f"decoder.{stage}"))

    trials = [t for t in tracer.trials if t["op"] in traced_ops]
    n_trials = max(1, len(trials))
    trial_wall = sum(t["end"] - t["start"] for t in trials)
    trial_cpu = sum(t["cpu_end"] - t["cpu_start"] for t in trials)
    m["decoder.trial.s"] = trial_wall / n_trials
    m["decoder.trial.wait_s"] = (trial_wall - trial_cpu) / n_trials
    pipeline_wall = sum(wall for kind, wall in traced_ops.values() if kind.startswith("sim_"))
    m["decoder.pipeline.idle_s"] = per_op(threads * pipeline_wall - trial_wall) if trials else 0.0

    m["cli.main.s"] = per_op(sum(s["end"] - s["start"] for s in spans if s["name"] == "cli.main"))
    m["cli.self_s"] = per_op(self_sum("cli.main"))

    traced_rate = len(traced_ops) / traced_busy_s if traced_busy_s else 0.0
    untraced_rate = untraced_ops / untraced_busy_s if untraced_busy_s else 0.0
    m["trace.ops_per_s"] = traced_rate
    m["trace.untraced_ops_per_s"] = untraced_rate
    m["trace.overhead"] = 1.0 - traced_rate / untraced_rate if untraced_rate else 0.0
    # On the decoder workload: do the stage self times, plus the idle thread
    # time, account for `threads` x the untraced op time?
    stage_names = {"seeding", "channel.pool", "channel.simulate", "decoder.cluster",
                   "decoder.check", "decoder.index", "decoder.inner", "decoder.outer",
                   "multidraw.table"}
    if trials and untraced_rate:
        stage = sum(own[s["id"]] for s in spans
                    if s["name"] in stage_names and s["kind"].startswith("sim_"))
        idle = threads * pipeline_wall - trial_wall
        m["trace.accounted_ratio"] = (stage + idle) / (threads * len(traced_ops) / untraced_rate)
    else:
        m["trace.accounted_ratio"] = 0.0
    m.update(baseline_rows(spans, trials))
    return m


def _median(values):
    return float(np.median(values)) if values else 0.0


def baseline_rows(spans, trials):
    """Medians per call for the rows of the ROADMAP baseline table."""
    rows = {}

    def call_times(name, pred):
        return [s["end"] - s["start"] for s in spans if s["name"] == name and pred(s)]

    rows["baseline.exact_c2_k4.s"] = _median(call_times(
        "rates.exact", lambda s: s["args"]["scheme"].K == 4 and s["args"]["params"].c == 2))
    for K in (10, 100, 1000):
        rows[f"baseline.mc_c2_k{K}.s"] = _median(call_times(
            "rates.mc", lambda s, K=K: s["args"]["scheme"].K == K and s["args"]["params"].c == 2
            and s["kind"] == "mc"))
    rows["baseline.optimize_c2_k100.s"] = _median(call_times(
        "rates.optimize", lambda s: s["args"]["K"] == 100 and s["args"]["params"].c == 2
        and s["args"]["samples"] == 10_000 and s["kind"] == "optimize"))
    cluster_by_thread_op = {}
    for s in spans:
        if s["name"] == "decoder.cluster":
            cluster_by_thread_op.setdefault((s["op"], s["thread"]), []).append(s)
    for point in ("noisy", "clean"):
        cluster, rest = [], []
        for t in trials:
            if t["kind"] != f"sim_{point}":
                continue
            inside = [s for s in cluster_by_thread_op.get((t["op"], t["thread"]), [])
                      if t["start"] <= s["start"] and s["end"] <= t["end"]]
            c_time = sum(s["end"] - s["start"] for s in inside)
            cluster.append(c_time)
            rest.append(t["end"] - t["start"] - c_time)
        rows[f"baseline.{point}.cluster_s"] = _median(cluster)
        rows[f"baseline.{point}.rest_s"] = _median(rest)
    return rows
