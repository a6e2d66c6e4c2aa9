"""Benchmark workloads; run.py starts each run in a fresh process.

    python3 perfbench/workloads.py --workload analysis --seed 1 --seconds 25 --trace 0
    python3 perfbench/workloads.py --workload train --seed 1 --setup-only

Run from the root of a source checkout; the package is imported from its
src/ directory.  All three workloads are closed loops in one thread: the
next operation starts when the previous one returns.

  analysis  cold window determinacies under the eval quadrature profile,
            through RisDownlinkEnv.varpi(..., profile="eval"), over a
            seeded grid of distinct points checked against a reference table
  train     SidPdqnAgent.train on the reference scenario (train profile),
            in fresh trajectories of up to 800 steps
  oracle    cli.main(["simulate", ...]) with the model and the physical
            sampler on the reference config

Every operation is followed by samples of the host-speed probe
(calibrate.py), and the reported timings are CPU times at the probe's
reference speed.  The last
stdout line is one JSON object: the setup time, the operations attempted
and failed, the timings, and with --trace 1 the per-layer aggregates of
a traced pass.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import sys
import time

# pinned before numpy loads: the condition behind the ROADMAP baselines
THREAD_PINS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(THREAD_PINS)

from calibrate import STREAM_PARTS, SpeedProbe  # noqa: E402  (imports numpy)
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
REFERENCE_CFG = os.path.join(ROOT, "configs", "reference.cfg")
ANALYSIS_TABLE = os.path.join(HERE, "analysis_reference.json")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

TOL = 1e-6                      # acceptance-suite tolerance on bounds and varpi
LAMBDAS = (0.2, 0.35)           # reference load and a heavier one
WINDOWS = ((2, 8), (1, 6), (4, 16))
# determinacies at the two low power levels converge at quadrature orders
# 16/32 (about 40 ms), the two high ones need order 128 (about 110 ms); two
# cheap points to one dear one keep p50 and p90 each inside one family
CHEAP_POWERS = (0, 1)
# train: 800-step trajectories, each with a fresh env and agent; the last
# one stops at the deadline.  Over one long trajectory the memo hit rate,
# and with it the speed, drifts apart between agents by up to 40%; fresh
# trajectories keep every run's mix alike.  The replay warmup (500
# transitions) ends near step 250, so the learn step runs on about 70% of
# the steps of a whole trajectory.
TRAJECTORY_EPISODES = 4
DIGEST_STEPS = 400              # train: reward digest over this many steps
# train: latency samples are sums over this many consecutive steps; single
# steps split into memo hits (~4 ms) and misses (15-30 ms) near the median
STEPS_PER_OP = 10
PROBE_EVERY_STEPS = 5           # train: one speed sample after this many steps
SETUP_SPEED_SAMPLES = 20        # speed samples that scale the set-up time
ORACLE_SPEED_SAMPLES = 2        # streaming-kernel samples after each simulate command
ORACLE_PACKETS = 500_000        # per user and simulate command
clock = time.perf_counter    # wall time: deadlines and the run record
cpu = time.process_time      # CPU time of this process: every reported timing


def timings(op_s, work, groups=None, probe=None, marks=None):
    """Raw and reported timings of a run.

    op_s are the CPU times of the timed pieces; groups lists the index
    ranges whose sums are the latency samples (one per piece by default).
    With a probe, marks[i] is the number of speed samples taken before
    piece i ended, and the reported times are scaled to the probe's
    reference speed; without one they are the raw times.
    """
    ref_s = probe.scale(op_s, marks) if probe else op_s
    groups = groups or [(i, i + 1) for i in range(len(op_s))]
    return {"work": work, "busy_s": sum(op_s), "ref_busy_s": sum(ref_s),
            "latencies_s": [sum(op_s[a:b]) for a, b in groups],
            "ref_latencies_s": [sum(ref_s[a:b]) for a, b in groups],
            "speed_factor": probe.factor() if probe else None,
            "speed_samples": len(probe) if probe else 0}


def import_package():
    """Import ris_detnet from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "ris_detnet", "__init__.py")):
        raise SystemExit(f"no ris_detnet package under {SRC}")
    sys.path.insert(0, SRC)
    import ris_detnet
    import ris_detnet.cli
    if not os.path.abspath(ris_detnet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ris_detnet imported from {ris_detnet.__file__}, not {SRC}")
    return ris_detnet


def quantile(values, q):
    """Linear-interpolation quantile, q in [0, 1]."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- analysis ---------------------------------------------------------------

def analysis_envs(ris):
    """One environment per (load, window) on the reference geometry."""
    envs = {}
    for lam in LAMBDAS:
        for t_min, t_max in WINDOWS:
            cfg = ris.default_config()
            cfg.set_by_path("arrival.lambda_pkts", lam)
            cfg.set_by_path("delay.t_max", t_max)
            cfg.set_by_path("delay.t_min", t_min)
            envs[(lam, t_min, t_max)] = ris.RisDownlinkEnv(cfg)
    return envs


def analysis_point(envs, row):
    """One cold eval-profile determinacy for a grid row."""
    env = envs[(row["lam"], row["t_min"], row["t_max"])]
    power = float(env.codebook.power_levels[row["power_index"]])
    return env.varpi(row["user"], power, row["codeword"], row["blocklength"],
                     profile="eval")


def load_analysis_table():
    with open(ANALYSIS_TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    rows = [dict(zip(table["columns"], r)) for r in table["rows"]]
    keys = [grid_key(r) for r in rows]
    if len(set(keys)) != len(keys):
        raise SystemExit("analysis reference table has repeated grid keys")
    return rows


def grid_key(row):
    return (row["lam"], row["t_min"], row["t_max"], row["user"],
            row["power_index"], row["codeword"], row["blocklength"])


def analysis_sequence(rows, seed):
    """Seeded order over the table in balanced blocks.

    A block holds two rows of every cheap (load, window, user, power,
    codeword) combination and one of every dear one, laid out as triples of
    two cheap points and one dear point; so every run, and every stretch of
    a run, has the same mix.  The seed picks the blocklengths each block
    uses and the order.
    """
    rng = random.Random(seed)
    groups = {}
    for row in rows:
        groups.setdefault(grid_key(row)[:-1], []).append(row)
    for group in groups.values():
        rng.shuffle(group)
    cheap = [g for key, g in groups.items() if key[4] in CHEAP_POWERS]
    dear = [g for key, g in groups.items() if key[4] not in CHEAP_POWERS]
    if len(cheap) != len(dear):
        raise SystemExit("analysis grid needs as many cheap as dear combinations")
    seq = []
    for b in range(min(len(g) for g in cheap) // 2):
        two = [row for g in cheap for row in g[2 * b:2 * b + 2]]
        one = [g[b] for g in dear]
        rng.shuffle(two)
        rng.shuffle(one)
        for j, row in enumerate(one):
            triple = [two[2 * j], two[2 * j + 1], row]
            rng.shuffle(triple)
            seq.extend(triple)
    return seq


def analysis_check(row, res):
    got = (res.bound_tmin, res.bound_tmax, res.varpi)
    want = (row["bound_tmin"], row["bound_tmax"], row["varpi"])
    return all(math.isfinite(g) and abs(g - w) <= TOL for g, w in zip(got, want))


class Analysis:
    unit_op = "3 cold determinacies (2 cheap, 1 dear)"

    def __init__(self, ris, seed):
        self.ris = ris
        self.seq = analysis_sequence(load_analysis_table(), seed)
        self.envs = None

    def setup(self):
        self.envs = analysis_envs(self.ris)

    def run(self, deadline=math.inf, n_ops=None):
        lat, marks, failed, errors = [], [], 0, []
        probe = SpeedProbe()
        rebuild_wall = rebuild_cpu = 0.0
        clamped = vacuous = 0
        i = 0
        start, cpu_start = clock(), cpu()
        while (clock() < deadline + rebuild_wall) if n_ops is None else i < n_ops:
            if i and i % len(self.seq) == 0:
                # the grid is used up: fresh environments keep every call cold
                t0, c0 = clock(), cpu()
                self.setup()
                rebuild_wall += clock() - t0
                rebuild_cpu += cpu() - c0
            row = self.seq[i % len(self.seq)]
            c0 = cpu()
            try:
                res = analysis_point(self.envs, row)
                ok = analysis_check(row, res)
            except Exception as exc:   # an operation boundary: count, go on
                res, ok = None, False
                errors.append(repr(exc))
            lat.append(cpu() - c0)
            marks.append(len(probe))
            probe.sample()
            failed += not ok
            if res is not None:
                clamped += bool(res.clamped["tmin"] or res.clamped["tmax"])
                vacuous += bool(res.clamped["vacuous"])
            i += 1
        # one latency sample per triple of the sequence (always two cheap
        # points and one dear one): single determinacies fall into two cost
        # families, whose quantiles sit at the families' edges; triples
        # give one distribution
        triples = [(a, a + 3) for a in range(0, i - 2, 3)]
        return {"ops": i, "failed": failed, **timings(lat, i, triples, probe, marks),
                "wall_s": clock() - start - rebuild_wall,
                "cpu_s": cpu() - cpu_start - rebuild_cpu,
                "detail": {"clamped_share": clamped / max(i, 1),
                           "vacuous_share": vacuous / max(i, 1),
                           "errors": errors[:5]}}


# -- train ------------------------------------------------------------------

class RunOver(Exception):
    """Raised from the step log when the run has used its time or steps."""


class StepClock:
    """Stands in for TrainingLog: times each step, samples the host speed
    between steps (outside the step times) and ends the trajectory when
    stop() says the run is over."""

    def __init__(self, probe, stop):
        self.probe, self.stop = probe, stop
        self.step_s, self.marks, self.rewards = [], [], []
        self.t0 = cpu()

    def append(self, **row):
        self.step_s.append(cpu() - self.t0)
        self.marks.append(len(self.probe))
        self.rewards.append(row["reward"])
        if len(self.step_s) % PROBE_EVERY_STEPS == 0:
            self.probe.sample()
        if self.stop(len(self.step_s)):
            raise RunOver
        self.t0 = cpu()


def reward_digest(rewards):
    text = ",".join(float(r).hex() for r in rewards[:DIGEST_STEPS])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Train:
    unit_op = f"{STEPS_PER_OP} training steps"

    def __init__(self, ris, seed):
        self.ris = ris
        self.seed = seed

    def setup(self):
        self.cfg = self.ris.load_config(REFERENCE_CFG)
        self.episode_steps = self.cfg.get("env", "episode_steps")
        self.first_agent = self.make_agent(0)

    def make_agent(self, trajectory):
        """Reference geometry and fading; the seed and trajectory seed the agent."""
        agents = self.ris.agents
        env = self.ris.RisDownlinkEnv(self.cfg)
        return agents.SidPdqnAgent(env, agents.AgentConfig.from_scenario(self.cfg),
                                   seed=1000 * self.seed + trajectory)

    def run(self, deadline=math.inf, n_ops=None):
        """Trajectories until the deadline, or until n_ops steps are done;
        the run may end inside a trajectory."""
        step_s, marks, groups, rewards = [], [], [], []
        probe = SpeedProbe()
        cpu_s = 0.0
        j = 0
        start = clock()

        def over(steps_in_trajectory):
            if n_ops is None:
                return clock() >= deadline
            return len(step_s) + steps_in_trajectory >= n_ops

        while not over(0):
            agent = self.first_agent if j == 0 else self.make_agent(j)
            log = StepClock(probe, over)
            c0 = cpu()
            with contextlib.suppress(RunOver):
                agent.train(TRAJECTORY_EPISODES, self.episode_steps, log=log)
            cpu_s += cpu() - c0
            first = len(step_s)
            groups += [(a, a + STEPS_PER_OP) for a in
                       range(first, first + len(log.step_s) - STEPS_PER_OP + 1, STEPS_PER_OP)]
            step_s += log.step_s
            marks += log.marks
            rewards += log.rewards
            j += 1
        bad = sum(not (math.isfinite(r) and 0.0 <= r <= 1.0) for r in rewards)
        return {"ops": len(rewards), "failed": bad,
                **timings(step_s, len(rewards), groups, probe, marks),
                "wall_s": clock() - start, "cpu_s": cpu_s,
                "detail": {"reward_digest": reward_digest(rewards),
                           "trajectories": j,
                           "mean_reward": sum(rewards) / max(len(rewards), 1)}}


# -- oracle -----------------------------------------------------------------

def read_simulate_csv(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return text, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class Oracle:
    unit_op = "simulate cycle (model + physical sampler)"
    samplers = ("model", "physical")

    def __init__(self, ris, seed):
        self.ris = ris
        self.seed = seed

    def setup(self):
        cfg = self.ris.load_config(REFERENCE_CFG)
        self.n_users = cfg.get("topology", "n_users")
        self.window = (cfg.get("delay", "t_min"), cfg.get("delay", "t_max"))
        lam = cfg.get("arrival", "lambda_pkts")
        # above the command's own packet-count horizon, so the slot cap
        # never truncates the requested packets
        self.horizon = int(2.0 * ORACLE_PACKETS / lam) + 10_000
        self.first_csv = {}

    def command(self, sampler):
        out = os.path.join(OUT_DIR, "oracle", sampler)
        argv = ["simulate", "--config", REFERENCE_CFG, "--seed", str(self.seed),
                "--packets", str(ORACLE_PACKETS), "--horizon", str(self.horizon),
                "--sampler", sampler, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.ris.cli.main(argv)
        return rc, os.path.join(out, "simulate.csv")

    def check(self, sampler, rc, path):
        """(ok, violations, problem) for one finished simulate command."""
        if rc != 0:
            return False, 0, f"{sampler}: exit code {rc}"
        text, rows = read_simulate_csv(path)
        want = {(str(k), str(t)) for k in range(self.n_users) for t in self.window}
        if len(rows) != len(want) or {(r["user_id"], r["t"]) for r in rows} != want:
            return False, 0, f"{sampler}: simulate.csv rows {len(rows)} != {len(want)}"
        if text != self.first_csv.setdefault(sampler, text):
            return False, 0, f"{sampler}: simulate.csv differs from the first run"
        violations = sum(r["dominated"] != "true" for r in rows)
        if sampler == "model" and violations:
            return False, violations, "model sampler: bound violated"
        return True, violations, None

    def run(self, deadline=math.inf, n_ops=None):
        """Simulate cycles, scaled by the streaming kernel of the probe.

        simulate_queue streams arrays of millions of slots from memory,
        which the cache-resident kernel does not model: on a 2-CPU VM,
        scaling by it widened the quartile spread of ten runs' oracle
        throughput from 0.06 to 0.10 of the median.
        """
        cmd_s, marks, failed, problems, violations = [], [], 0, [], {}
        probe = SpeedProbe(STREAM_PARTS)
        cycles = commands = 0
        start, cpu_start = clock(), cpu()
        while (clock() < deadline) if n_ops is None else cycles < n_ops:
            for sampler in self.samplers:
                c0 = cpu()
                try:
                    rc, path = self.command(sampler)
                    ok, n_viol, problem = self.check(sampler, rc, path)
                except Exception as exc:   # an operation boundary: count, go on
                    ok, n_viol, problem = False, 0, f"{sampler}: {exc!r}"
                cmd_s.append(cpu() - c0)
                marks.append(len(probe))
                probe.sample(ORACLE_SPEED_SAMPLES)
                commands += 1
                failed += not ok
                violations.setdefault(sampler, n_viol)
                if problem:
                    problems.append(problem)
            cycles += 1
        per_cycle = len(self.samplers)
        groups = [(a, a + per_cycle) for a in range(0, len(cmd_s), per_cycle)]
        return {"ops": commands, "failed": failed,
                **timings(cmd_s, commands * self.n_users * ORACLE_PACKETS, groups,
                          probe, marks),
                "wall_s": clock() - start, "cpu_s": cpu() - cpu_start, "cycles": cycles,
                "detail": {"bound_violations": sum(violations.values()),
                           "violations_by_sampler": violations,
                           "packets_per_user": ORACLE_PACKETS,
                           "horizon_cap": self.horizon,
                           "problems": problems[:5]}}


WORKLOADS = {"analysis": Analysis, "train": Train, "oracle": Oracle}


# -- traced pass ------------------------------------------------------------

def install_tracer(ris, tr):
    """Wrap each public name in the namespace that looks it up."""
    M, E, C = ris.mellin, ris.env, ris.cli
    Q, A, N, CH = ris.queuesim, ris.agents, ris.neural, ris.channel
    seen_h, keep_models = set(), []

    def on_determinacy(args, res):
        tr.count("mellin.clamped", bool(res.clamped["tmin"] or res.clamped["tmax"]))
        tr.count("mellin.vacuous", bool(res.clamped["vacuous"]))
        return res

    def on_h(args, out):
        s, model = args[0], args[1]
        key = (id(model), s)
        if key not in seen_h:
            seen_h.add(key)
            keep_models.append(model)   # keeps ids unique for the whole pass
            tr.count("mellin.h.distinct")
        return out

    def on_queue(args, res):
        tr.count("queuesim.packets", res.n_packets)
        tr.count("queuesim.slots", res.n_slots)
        return res

    tr.wrap(E, "delay_determinacy", "mellin.determinacy", keep_samples=True,
            on_result=on_determinacy, fail_counter="mellin.failed")
    tr.wrap(M, "stability_smax", "mellin.stability_smax")
    tr.wrap(M, "violation_bound", "mellin.violation_bound")
    tr.wrap(C, "violation_bound", "mellin.violation_bound", fail_counter="mellin.failed")
    tr.wrap(M, "kernel", "mellin.kernel")
    tr.wrap(M, "service_mellin_u_with_error", "mellin.h", on_result=on_h)
    tr.wrap(E.RisDownlinkEnv, "__init__", "env.init")
    tr.wrap(E.RisDownlinkEnv, "step", "env.step")
    tr.wrap(E.RisDownlinkEnv, "varpi", "env.varpi")
    for ns in (E, CH):
        tr.wrap(ns, "sample_channels", "channel.sample_channels")
        tr.wrap(ns, "composite_gain", "channel.composite_gain")
    tr.wrap(E, "estimate_eve_mean_snr", "channel.estimate_eve_mean_snr")
    tr.wrap(Q, "fbc_secrecy_rate", "fbc.secrecy_rate")
    tr.wrap(C, "simulate_queue", "queuesim.simulate", on_result=on_queue)
    tr.wrap_factory(C, "fbc_service_sampler", "queuesim.sampler")
    tr.wrap_factory(C, "model_matched_service_sampler", "queuesim.sampler")
    tr.wrap(N.Mlp, "forward", "neural.forward")
    tr.wrap(N.Mlp, "backward", "neural.backward")
    tr.wrap(A, "optimizer_step", "neural.optimizer_step")
    tr.wrap(A, "sid_collect_slot", "agents.select")
    tr.wrap(A, "n_step_target", "agents.n_step_target")
    tr.wrap(A, "critic_update", "agents.critic_update")
    tr.wrap(A, "actor_update", "agents.actor_update")
    tr.wrap(A.ReplayBuffer, "sample", "agents.buffer.sample")
    tr.wrap(C, "cmd_simulate", "cli.simulate")
    tr.wrap(C, "write_csv", "cli.write_csv")
    tr.wrap(C, "load_config", "config.load")


def layer_values(tr, overhead, traced):
    """Per-layer metric values by name; names of absent layers read 0."""
    v = {}
    for base in ("mellin.determinacy", "mellin.stability_smax", "mellin.violation_bound",
                 "mellin.kernel", "env.step", "env.varpi", "channel.sample_channels",
                 "channel.composite_gain", "fbc.secrecy_rate", "queuesim.simulate",
                 "neural.forward", "neural.backward", "neural.optimizer_step",
                 "agents.select", "agents.n_step_target", "agents.critic_update",
                 "agents.actor_update"):
        v[base + ".calls"] = tr.calls(base)
        v[base + ".s"] = tr.busy(base)
    for base in ("env.init", "channel.estimate_eve_mean_snr", "queuesim.sampler",
                 "agents.buffer.sample", "cli.simulate", "cli.write_csv", "config.load",
                 "mellin.h"):
        v[base + ".s"] = tr.busy(base)
    for base in ("env.step", "queuesim.simulate"):
        v[base + ".self_s"] = tr.self_time(base)
    det = tr.samples.get("mellin.determinacy", [])
    v["mellin.determinacy.p50_ms"] = 1e3 * quantile(det, 0.5)
    v["mellin.determinacy.p90_ms"] = 1e3 * quantile(det, 0.9)
    distinct, lookups = tr.counters.get("mellin.h.distinct", 0), tr.calls("mellin.h")
    v["mellin.h.lookups"] = lookups
    v["mellin.h.distinct"] = distinct
    v["mellin.h.memo_hit_share"] = 1.0 - distinct / lookups if lookups else 0.0
    n_det = tr.calls("mellin.determinacy")
    v["mellin.failed"] = tr.counters.get("mellin.failed", 0)
    v["mellin.clamped_share"] = tr.counters.get("mellin.clamped", 0) / n_det if n_det else 0.0
    v["mellin.vacuous_share"] = tr.counters.get("mellin.vacuous", 0) / n_det if n_det else 0.0
    n_varpi = tr.calls("env.varpi")
    v["env.varpi.memo_hit_share"] = 1.0 - n_det / n_varpi if n_varpi else 0.0
    v["queuesim.packets"] = tr.counters.get("queuesim.packets", 0)
    v["queuesim.slots"] = tr.counters.get("queuesim.slots", 0)
    v["queuesim.bound_violations"] = traced["detail"].get("bound_violations", 0)
    v["agents.learn_steps"] = tr.calls("agents.critic_update")
    v["trace.overhead_share"] = overhead
    return v


# -- entry ------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="measure set-up and exit")
    args = p.parse_args(argv)

    ris = import_package()
    work = WORKLOADS[args.workload](ris, args.seed)
    work.setup()
    setup_cpu_s = cpu()    # CPU time since the process started: imports included
    probe = SpeedProbe()
    probe.sample(SETUP_SPEED_SAMPLES)
    import numpy
    import scipy
    result = {"setup_s": setup_cpu_s / probe.factor(), "setup_cpu_s": setup_cpu_s,
              "setup_speed_factor": probe.factor(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "unit_op": work.unit_op, "thread_pins": THREAD_PINS}
    if not args.setup_only:
        if args.trace == 0:
            res = work.run(deadline=clock() + args.seconds)
            result["end_to_end"] = {
                "work_per_cpu_s": res["work"] / res["ref_busy_s"],
                "op_cpu_p50_ms": 1e3 * quantile(res["ref_latencies_s"], 0.5),
                "op_cpu_p90_ms": 1e3 * quantile(res["ref_latencies_s"], 0.9)}
            result["raw_cpu"] = {
                "work_per_cpu_s": res["work"] / res["busy_s"],
                "op_cpu_p50_ms": 1e3 * quantile(res["latencies_s"], 0.5),
                "op_cpu_p90_ms": 1e3 * quantile(res["latencies_s"], 0.9)}
        else:
            # untraced half, then the same operations again, traced, on fresh
            # state; the ratio of their reference-speed CPU times is the
            # tracing overhead
            res = work.run(deadline=clock() + args.seconds / 2)
            tr = Tracer()
            install_tracer(ris, tr)
            again = WORKLOADS[args.workload](ris, args.seed)
            again.setup()
            n = res["cycles"] if "cycles" in res else res["ops"]
            traced = again.run(n_ops=n)
            tr.uninstall()
            overhead = traced["ref_busy_s"] / res["ref_busy_s"] - 1.0
            result["layers"] = layer_values(tr, overhead, traced)
            result["absent"] = tr.absent()
            result["traced"] = {k: traced[k] for k in ("ops", "failed", "wall_s", "cpu_s")}
            result["traced_detail"] = traced["detail"]
            res["failed"] += traced["failed"]
            res["ops"] += traced["ops"]
            # tracing must not change what the program computes
            for key in ("reward_digest", "bound_violations"):
                if traced["detail"].get(key) != res["detail"].get(key):
                    res["failed"] += 1
                    res["detail"].setdefault("problems", []).append(f"traced {key} differs")
        result.update({k: res[k] for k in ("ops", "failed", "wall_s", "cpu_s", "work",
                                            "speed_factor", "speed_samples", "detail")})
        result["latency_samples"] = len(res["latencies_s"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
