"""Per-layer attribution of one traced pass (run.py --trace 1).

Inputs, all produced outside the library's code:
  * the driver's pass records (its own spans around public calls and the
    TimedVictim decorator totals);
  * the METRICS export (RLATTACK_METRICS_OUT): complete span sums and
    counters for the layers with no public seam (seq2seq, nn, GEMM, planner);
  * the timeline (RLATTACK_TRACE_OUT): the flushing thread's
    eval.batch.flush / craft.flush spans, the hosts' *.submit_wait spans and
    episode.job ends.

The timeline lives in fixed-size per-thread rings that keep the newest
events, so a long run keeps only a sample of its flushes and waits, and the
sample leans toward the end of a pass, where fewer episodes are in flight.
A timeline total is therefore extrapolated with exact counts from the
METRICS export: flush time from a least-squares fit of duration = a + b *
rows over the sampled flushes, applied to the exact flush and row counts
(a fit with a negative term falls back to the mean duration), other events
as their sampled mean duration times their exact count. The report prints
the share of flushes the sample holds. Times and counts are per pass: totals over the
traced child's passes divided by their number.
"""
from collections import defaultdict

LAYERS = ["Conv2D", "Lstm", "Dense", "TimeDistributed", "DuelingHead",
          "NoisyDense", "ReLU"]
# Layer classes with no child spans: their span sums are self times. The
# containers (TimeDistributed, DuelingHead) run inner Sequentials whose
# layers are also counted under their own names, and the span aggregates
# are per class, so for them only the inclusive time can be read.
LEAF_LAYERS = ["Conv2D", "Lstm", "Dense", "NoisyDense", "ReLU", "Flatten",
               "Reshape", "Tanh", "Sigmoid", "MaxPool2D"]
BATCHED = ("craft_grid", "bomb_grid")


def _span(m, name):
    return m["spans"].get(name, {}).get("total_s", 0.0)


def _calls(m, name):
    return m["spans"].get(name, {}).get("count", 0)


def _counter(m, name):
    return float(m["counters"].get(name, 0))


def _ratio(a, b):
    return a / b if b else 0.0


class Timeline:
    """The retained complete ('X') events, with per-thread self times."""

    def __init__(self, trace):
        # A ring drops its oldest ends first, so a retained event's parent
        # (same thread, ends later) is retained too and self times are exact.
        self.events = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        by_tid = defaultdict(list)
        for e in self.events:
            by_tid[e["tid"]].append(e)
        for evs in by_tid.values():
            evs.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack = []
            for e in evs:
                e["self"] = e["dur"]
                while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                    stack.pop()
                if stack:
                    stack[-1]["self"] -= e["dur"]
                stack.append(e)

    def named(self, name):
        return [e for e in self.events if e["name"] == name]

    def estimate(self, name, count, field="dur"):
        """Total seconds of `count` events called `name`, from the mean of
        the retained ones."""
        sample = [e[field] for e in self.named(name)]
        return sum(sample) / len(sample) * count * 1e-6 if sample else 0.0

    def estimate_flushes(self, name, count, rows):
        """Total seconds of `count` flushes carrying `rows` rows in all. A
        flush has a fixed cost and a cost per row, and the sample leans to
        small flushes, so neither the mean nor the cost per row alone
        extrapolates; fit both on the retained flushes' "rows" argument."""
        sample = [(e["args"]["rows"], e["dur"]) for e in self.named(name)]
        if len({r for r, _ in sample}) < 2:
            return self.estimate(name, count)
        n = len(sample)
        mr = sum(r for r, _ in sample) / n
        md = sum(d for _, d in sample) / n
        b = (sum((r - mr) * (d - md) for r, d in sample) /
             sum((r - mr) ** 2 for r, _ in sample))
        a = md - b * mr
        if a < 0 or b < 0:
            return self.estimate(name, count)
        return (a * count + b * rows) * 1e-6


# Figures that are not amounts summed over passes (ratios, per-process
# set-up, the newest pass's tail), so are not divided by the pass count.
UNSCALED = {"zoo.load_s", "planner.flushes_per_kstep", "planner.eval_rows_per_flush",
          "planner.craft_rows_per_flush", "planner.serial_frac",
          "attack.queries_per_craft", "seq2seq.rows_per_call",
          "rl.act_rows_per_call", "gemm.calls_per_kstep",
          "gemm.mflop_per_call", "obs.trace_overhead", "proc.cpu_util",
          "episodes.hosts", "episodes.tail_s"}


def _last_tail(tl):
    """First idle host to last episode end, in the newest episodes.dispatch
    (a call of run_episode_jobs): its events are the newest, so complete."""
    dispatches = tl.named("episodes.dispatch")
    if not dispatches:
        return 0.0
    d = max(dispatches, key=lambda e: e["ts"])
    last_end = defaultdict(float)
    for e in tl.named("episode.job"):
        if e["ts"] >= d["ts"]:
            last_end[e["tid"]] = max(last_end[e["tid"]], e["ts"] + e["dur"])
    if not last_end:
        return 0.0
    return (max(last_end.values()) - min(last_end.values())) * 1e-6


def per_layer(workload, plain, traced, end, metrics, trace, nproc):
    """Returns (metrics, units, report text). `plain` and `traced` sum the
    passes of the untraced and the traced child (`passes` counts them);
    `overhead` compares the passes both ran."""
    m = metrics
    wall = traced["wall_s"]
    kstep = traced["steps"] / 1000.0
    tl = Timeline(trace)

    out = {}
    units = {}

    def put(name, value, unit):
        out[name] = float(value)
        units[name] = unit

    # core.zoo
    put("zoo.load_s", traced.get("load_s", 0.0), "s")

    # core.parallel_episodes
    tail = _last_tail(tl)
    spawned = sum(e.get("args", {}).get("hosts", 0.0)
                  for e in tl.named("episodes.dispatch"))
    put("episodes.hosts", traced.get("hosts", 0.0), "count")
    put("episodes.threads_spawned", spawned, "count")
    put("episodes.tail_s", tail, "s")

    # attack.batch_planner
    eval_flushes = _counter(m, "eval.batch.flushes")
    craft_flushes = _counter(m, "craft.batch.flushes")
    eval_probes = _counter(m, "eval.batch.probes")
    craft_probes = _counter(m, "craft.batch.probes")
    eval_flush_s = tl.estimate_flushes("eval.batch.flush", eval_flushes,
                                       eval_probes)
    craft_flush_s = tl.estimate_flushes("craft.flush", craft_flushes,
                                        craft_probes)
    flush_s = eval_flush_s + craft_flush_s
    sampled = len(tl.named("eval.batch.flush")) + len(tl.named("craft.flush"))
    # Every probe but the one whose arrival triggers the flush waits.
    wait_s = (tl.estimate("eval.submit_wait", eval_probes - eval_flushes) +
              tl.estimate("craft.submit_wait",
                          max(0.0, craft_probes - craft_flushes)))
    put("planner.flushes_per_kstep",
        _ratio(eval_flushes + craft_flushes, kstep), "1/kstep")
    put("planner.eval_rows_per_flush", _ratio(eval_probes, eval_flushes),
        "rows")
    put("planner.craft_rows_per_flush", _ratio(craft_probes, craft_flushes),
        "rows")
    put("planner.flush_s", flush_s, "s")
    put("planner.wait_s", wait_s, "s")
    put("planner.serial_frac", _ratio(flush_s, wall), "ratio")

    # seq2seq.model: serial (cached) and batched entry points.
    tail_fwd = _span(m, "seq2seq.forward_cached") + \
        _span(m, "seq2seq.forward_cached_batch")
    tail_bwd = _span(m, "seq2seq.backward_to_current") + \
        _span(m, "seq2seq.backward_to_current_batch")
    gather_scatter = _span(m, "craft.batch.gather") + \
        _span(m, "craft.batch.scatter")
    if workload in BATCHED:
        # encode_history_batch has no span of its own: it is what is left
        # of the craft flushes once the tail and the copies are taken out.
        # A difference of two large figures, so its error is large (tens of
        # percent on craft_grid).
        encode = max(0.0, craft_flush_s - tail_fwd - tail_bwd - gather_scatter)
    else:
        encode = _span(m, "seq2seq.encode_history")
    tail_rows = craft_probes + _calls(m, "seq2seq.forward_cached")
    tail_calls = _calls(m, "seq2seq.forward_cached_batch") + \
        _calls(m, "seq2seq.forward_cached")
    put("seq2seq.encode_s", encode, "s")
    put("seq2seq.tail_fwd_s", tail_fwd, "s")
    put("seq2seq.tail_bwd_s", tail_bwd, "s")
    put("seq2seq.rows_per_call", _ratio(tail_rows, tail_calls), "rows")

    # seq2seq.trainer and rl.trainer (learn only: the driver's spans around
    # Zoo::victim / Zoo::episodes / Zoo::approximator, and the replayed
    # length search from the plain pass).
    search = plain.get("search_s", 0.0) / plain["passes"] * traced["passes"]
    put("seq2seq.search_s", search, "s")
    put("seq2seq.train_s", max(0.0, traced.get("approx_s", 0.0) - search), "s")
    put("rl.train_s", traced.get("train_s", 0.0), "s")
    put("rl.collect_s", traced.get("observe_s", 0.0), "s")

    # attack: craft arithmetic outside the model.
    crafts = sum(_counter(m, f"attack.craft.{k}")
                 for k in ("fgsm", "pgd", "gaussian", "cw", "jsma"))
    queries = _counter(m, "attack.queries.forward") + \
        _counter(m, "attack.queries.gradient")
    if workload in BATCHED:
        # Hosts park inside phase.perturb; its timeline self time excludes
        # the nested waits and any flush the host ran itself.
        craft_self = tl.estimate("phase.perturb",
                                 _counter(m, "pipeline.attacks"), "self")
    else:
        craft_self = max(0.0, _span(m, "phase.perturb") - encode - tail_fwd -
                         tail_bwd)
    put("attack.crafts", crafts, "count")
    put("attack.queries_per_craft", _ratio(queries, crafts), "queries")
    put("attack.craft_self_s", craft_self, "s")

    # rl.agent, from the decorator.
    act_s = end.get("act_s", 0.0)
    act_calls = end.get("act_calls", 0.0)
    put("rl.act_s", act_s, "s")
    put("rl.act_calls", act_calls, "count")
    put("rl.act_rows_per_call", _ratio(end.get("act_rows", 0.0), act_calls),
        "rows")

    # nn layers: self time for the leaves, inclusive time for the two
    # containers (see LEAF_LAYERS).
    for layer in LAYERS:
        put(f"nn.fwd.{layer}_s", _span(m, f"nn.forward.{layer}"), "s")
        put(f"nn.bwd.{layer}_s", _span(m, f"nn.backward.{layer}"), "s")

    # nn.kernels: counts computed by the program from GEMM shapes.
    gemm_calls = _counter(m, "nn.gemm.calls")
    gemm_flops = _counter(m, "nn.gemm.flops")
    put("gemm.calls_per_kstep", _ratio(gemm_calls, kstep), "1/kstep")
    put("gemm.gflop", gemm_flops * 1e-9, "GFLOP")
    put("gemm.mflop_per_call", _ratio(gemm_flops * 1e-6, gemm_calls), "MFLOP")

    # env, obs, process.
    env_step = _span(m, "phase.env_step")
    put("env.step_s", env_step, "s")
    put("obs.trace_overhead", traced["overhead"], "ratio")
    passes = traced["passes"]
    put("proc.cpu_util", _ratio(plain["cpu_s"], plain["wall_s"] * nproc),
        "ratio")

    # Wall-time split. Model and victim work runs inside the flushes, one
    # thread at a time; host-side work (env steps, craft arithmetic) runs on
    # up to min(hosts, nproc) cores at once.
    if workload in BATCHED:
        hosts = max(1.0, min(out["episodes.hosts"], nproc))
        modules = {
            "rl.agent (victim act_batch)": act_s,
            "seq2seq.model encode": encode,
            "seq2seq.model tail fwd": tail_fwd,
            "seq2seq.model tail bwd": tail_bwd,
            "attack.batch_planner (flush self)":
                max(0.0, flush_s - act_s - encode - tail_fwd - tail_bwd),
            "env (host-parallel)": env_step / hosts,
            "attack craft self (host-parallel)": craft_self / hosts,
        }
    elif workload == "live_attack":
        modules = {
            "rl.agent (victim act)": act_s,
            "seq2seq.model encode": encode,
            "seq2seq.model tail fwd": tail_fwd,
            "seq2seq.model tail bwd": tail_bwd,
            "attack craft self": craft_self,
            "env step": env_step,
        }
    else:
        modules = {
            "rl.trainer (Zoo::victim)": out["rl.train_s"],
            "rl.trainer collect (Zoo::episodes)": out["rl.collect_s"],
            "seq2seq.trainer search": out["seq2seq.search_s"],
            "seq2seq.trainer train": out["seq2seq.train_s"],
        }
    unaccounted = wall - sum(modules.values())
    put("wall_s", wall, "s")
    put("unaccounted_s", unaccounted, "s")
    for name in out:
        if name not in UNSCALED:
            out[name] /= passes

    lines = [f"# per-module self time, {workload}, traced run "
             f"({passes:g} passes, {wall:.3f} s)"]
    if workload in BATCHED:
        lines.append(f"# timeline sample: {sampled} of "
                     f"{eval_flushes + craft_flushes:.0f} flushes")
    ranked = sorted(modules.items(), key=lambda kv: -kv[1])
    for name, sec in ranked + [("(no module)", unaccounted)]:
        lines.append(f"#   {name:40s} {sec:10.4f} s {100 * _ratio(sec, wall):6.1f}%")
    if workload == "learn":
        fwd = sum(_span(m, f"nn.forward.{l}") for l in LEAF_LAYERS)
        bwd = sum(_span(m, f"nn.backward.{l}") for l in LEAF_LAYERS)
        lines.append(f"#   nn layer forward {fwd:.4f} s, backward {bwd:.4f} s "
                     f"({100 * _ratio(fwd + bwd, wall):.1f}% of wall); the "
                     "rest is optimizer, replay, env and data handling")
    lines.append("#   top three: " + ", ".join(n for n, _ in ranked[:3]))
    return out, units, "\n".join(lines)
