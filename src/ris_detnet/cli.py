"""Command-line harness: analyze | sweep | simulate | train | evaluate.

Every CSV output embeds the config hash and seed in leading comment lines
and is byte-reproducible for identical (config, seed).  Exit codes:
0 success, 1 validation error, 2 numerical failure, 3 dominance violation
detected by `simulate --strict`.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys

import numpy as np

from .agents import (AgentConfig, DqnAgent, RandomPolicy, SidPdqnAgent,
                     load_checkpoint, save_checkpoint)
from .charts import svg_line_chart
from .config import (ConfigError, ScenarioConfig, config_hash, default_config,
                     dump_config, fmt_value, load_config)
from .env import RisDownlinkEnv
from .mellin import QuadratureError, SearchError, stability_edge
from .queuesim import (CENSOR_SLOTS, WARMUP_SLOTS, fbc_service_sampler,
                       model_matched_service_sampler, simulate_queue)

ANALYZE_COLUMNS = ["user_id", "t_min", "t_max", "varpi", "bound_tmin", "bound_tmax",
                   "s_star_tmin", "s_star_tmax", "s_max", "ordering_ok",
                   "clamped_flags", "quadrature_error_estimate"]


def write_csv(path: str, columns, rows, cfg: ScenarioConfig, seed: int):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash(cfg)}\n")
        fh.write(f"# seed={seed}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt_value(row[c]) for c in columns) + "\n")


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be >= 0")
        cfg.values["run"]["seed"] = args.seed
    if args.out:
        cfg.values["run"]["out_dir"] = args.out
    return cfg


def _outdir(cfg: ScenarioConfig) -> str:
    path = cfg.get("run", "out_dir")
    os.makedirs(path, exist_ok=True)
    return path


def _fixed_allocation(cfg: ScenarioConfig, env: RisDownlinkEnv):
    """Per-user (power, codeword, blocklength) for the no-RL commands."""
    k = env.n_users
    power = cfg.get("allocation", "power")
    power = env.p_max / k if power is None else float(power)
    cbl = cfg.get("allocation", "cbl")
    cbl = env.n_max / k if cbl is None else float(cbl)
    return power, cfg.get("allocation", "codeword"), cbl


def analyze_rows(cfg: ScenarioConfig):
    env = RisDownlinkEnv(cfg)
    power, codeword, cbl = _fixed_allocation(cfg, env)
    rows = []
    for k in range(env.n_users):
        res = env.varpi(k, power, codeword, cbl, profile="eval")
        s_max = stability_edge(env.arrival, env.service_model(k, power, codeword, cbl, "eval"))
        flags = "|".join(name for name, on in sorted(res.clamped.items()) if on) or "none"
        rows.append({
            "user_id": k, "t_min": env.window.t_min, "t_max": env.window.t_max,
            "varpi": res.varpi, "bound_tmin": res.bound_tmin,
            "bound_tmax": res.bound_tmax, "s_star_tmin": res.s_star_tmin,
            "s_star_tmax": res.s_star_tmax, "s_max": s_max,
            "ordering_ok": res.ordering_ok, "clamped_flags": flags,
            "quadrature_error_estimate": res.quadrature_error_estimate,
        })
    return env, rows


def cmd_analyze(args) -> int:
    cfg = _load(args)
    env, rows = analyze_rows(cfg)
    out = os.path.join(_outdir(cfg), "analyze.csv")
    write_csv(out, ANALYZE_COLUMNS, rows, cfg, cfg.get("run", "seed"))
    for row in rows:
        print(f"user {row['user_id']}: varpi={row['varpi']:.6g} "
              f"bound(t_min)={row['bound_tmin']:.6g} bound(t_max)={row['bound_tmax']:.6g} "
              f"flags={row['clamped_flags']}")
    print(f"wrote {out}")
    return 0


def _check_simulate_counts(args):
    """Reject packet and slot counts that leave no packet to analyse."""
    if args.packets < 1:
        raise ConfigError(f"--packets must be at least 1, got {args.packets}")
    margin = WARMUP_SLOTS + CENSOR_SLOTS
    if args.horizon <= margin:
        raise ConfigError(f"--horizon must exceed the {WARMUP_SLOTS} warm-up and "
                          f"{CENSOR_SLOTS} censored slots ({margin}), got {args.horizon}")


def cmd_simulate(args) -> int:
    _check_simulate_counts(args)
    cfg = _load(args)
    env = RisDownlinkEnv(cfg)
    power, codeword, cbl = _fixed_allocation(cfg, env)
    seed = cfg.get("run", "seed")
    columns = ["user_id", "t", "empirical", "ci_half_width", "bound", "dominated"]
    rows = []
    violated = False
    make_sampler = (model_matched_service_sampler if args.sampler == "model"
                    else fbc_service_sampler)
    horizon = min(args.horizon, int(args.packets / env.arrival.lambda_pkts * 1.3) + 2000)
    for k in range(env.n_users):
        res = env.varpi(k, power, codeword, cbl, profile="eval")
        model = env.service_model(k, power, codeword, cbl, "eval")
        sampler = make_sampler(model.stats, model.secrecy)
        rng = np.random.default_rng([seed, 40, k])
        qres = simulate_queue(env.arrival, sampler, horizon, args.packets, rng)
        if qres.n_packets == 0:
            raise ConfigError(f"no packet of user {k} arrived in the analysed slots; "
                              f"raise --horizon")
        if qres.n_packets < args.packets:
            print(f"user {k}: analysed {qres.n_packets} of the {args.packets} packets "
                  f"asked for in {horizon} slots; raise --horizon for the full sample")
        for t, bound in ((env.window.t_min, res.bound_tmin),
                         (env.window.t_max, res.bound_tmax)):
            emp, ci = qres.tail_prob(t)
            ok = (not math.isfinite(emp)) or emp <= bound + 2 * ci
            violated |= not ok
            rows.append({"user_id": k, "t": t, "empirical": emp,
                         "ci_half_width": ci, "bound": bound, "dominated": ok})
            print(f"user {k} t={t}: empirical {emp:.6g} (+-{ci:.2g}) "
                  f"bound {bound:.6g} {'OK' if ok else 'VIOLATION'}")
    out = os.path.join(_outdir(cfg), "simulate.csv")
    write_csv(out, columns, rows, cfg, seed)
    print(f"wrote {out}")
    if violated and args.strict:
        return 3
    return 0


def _make_agent(cfg: ScenarioConfig, env: RisDownlinkEnv, seed: int):
    """The agent named by [agent] algo."""
    algo = cfg.get("agent", "algo")
    if algo == "random":
        return RandomPolicy(env, np.random.default_rng([seed, 77]))
    agent_cls = SidPdqnAgent if algo == "sid_pdqn" else DqnAgent
    return agent_cls(env, AgentConfig.from_scenario(cfg), seed=seed)


def _train_one(cfg: ScenarioConfig, seed: int):
    """Train per the configured algorithm; returns (agent, log)."""
    agent = _make_agent(cfg, RisDownlinkEnv(cfg, seed=seed), seed)
    log = agent.train(cfg.get("agent", "episodes"), cfg.get("env", "episode_steps"))
    return agent, log


LOG_COLUMNS = ["episode", "step", "epsilon", "reward", "mean_episode_reward",
               "critic_loss", "actor_loss", "buffer_fill"]


def cmd_train(args) -> int:
    cfg = _load(args)
    seed = cfg.get("run", "seed")
    agent, log = _train_one(cfg, seed)
    outdir = _outdir(cfg)
    out_csv = os.path.join(outdir, "train_log.csv")
    write_csv(out_csv, LOG_COLUMNS, log.rows, cfg, seed)
    steps = [r["step"] for r in log.rows]
    rewards = [r["mean_episode_reward"] for r in log.rows]
    svg_line_chart(os.path.join(outdir, "reward_curve.svg"),
                   [(cfg.get("agent", "algo"), steps, rewards)],
                   title="mean episode reward", xlabel="step", ylabel="reward")
    if not isinstance(agent, RandomPolicy):
        save_checkpoint(os.path.join(outdir, "checkpoint.json"), agent, cfg)
    print(f"final-100-step mean reward: {log.final_mean_reward():.6g}")
    print(f"wrote {out_csv}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load(args)
    seed = cfg.get("run", "seed")
    if cfg.get("agent", "algo") == "random":
        raise ConfigError("[agent] algo = random has no learned policy to evaluate; "
                          "use sid_pdqn or dqn")
    agent = _make_agent(cfg, RisDownlinkEnv(cfg, seed=seed), seed)
    if args.checkpoint:
        load_checkpoint(args.checkpoint, agent, cfg)
    mean_reward, mean_varpi = agent.evaluate(cfg.get("agent", "eval_episodes"),
                                             cfg.get("env", "episode_steps"))
    rows = [{"user_id": k, "mean_varpi": v, "mean_reward": mean_reward}
            for k, v in enumerate(mean_varpi)]
    out = os.path.join(_outdir(cfg), "evaluate.csv")
    write_csv(out, ["user_id", "mean_varpi", "mean_reward"], rows, cfg, seed)
    print(f"mean evaluation reward: {mean_reward:.6g}")
    print(f"wrote {out}")
    return 0


def _sweep_point(payload):
    """One sweep point, run in a worker process."""
    from .config import load_config_text
    text, param, value, rep, seed, mode = payload
    cfg = load_config_text(text)
    cfg.set_by_path(param, value)
    cfg.values["run"]["seed"] = seed
    if mode == "analyze":
        _, rows = analyze_rows(cfg)
        mean_varpi = float(np.mean([r["varpi"] for r in rows]))
        return {"param": param, "value": value, "rep": rep, "seed": seed,
                "metric": mean_varpi, "detail": rows}
    agent, _ = _train_one(cfg, seed)
    metric, _ = agent.evaluate(cfg.get("agent", "eval_episodes"),
                               cfg.get("env", "episode_steps"))
    return {"param": param, "value": value, "rep": rep, "seed": seed,
            "metric": metric, "detail": []}


def cmd_sweep(args) -> int:
    if args.reps < 1:
        raise ConfigError(f"--reps must be at least 1, got {args.reps}")
    cfg = _load(args)
    seed = cfg.get("run", "seed")
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    for value in values:        # fail fast on a bad path or value
        cfg.copy().set_by_path(args.param, value)
    text = dump_config(cfg)
    payloads = []
    for value in values:
        for rep in range(args.reps):
            # paired-seed policy: the same seed at every swept value
            payloads.append((text, args.param, value, rep, seed + rep, args.mode))
    workers = cfg.get("run", "workers") or os.cpu_count()
    outdir = _outdir(cfg)
    manifest_path = os.path.join(outdir, "sweep_manifest.json")
    results = [None] * len(payloads)

    def note():
        """Rewrite the manifest: the finished points, in payload order."""
        completed = [{"value": p[2], "rep": p[3]}
                     for p, r in zip(payloads, results) if r is not None]
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump({"param": args.param, "mode": args.mode,
                       "completed": completed}, fh, indent=1)

    if workers <= 1 or len(payloads) == 1:
        for i, payload in enumerate(payloads):
            results[i] = _sweep_point(payload)
            note()
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_sweep_point, p): i for i, p in enumerate(payloads)}
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                results[i] = fut.result()
                note()

    columns = ["param", "value", "rep", "seed", "metric"]
    rows = [{c: r[c] for c in columns} for r in results]
    out_csv = os.path.join(outdir, "sweep.csv")
    write_csv(out_csv, columns, rows, cfg, seed)
    try:                        # numbers, charted in increasing order
        x_of = {v: float(v) for v in values}
        labels = None
    except ValueError:          # text, charted at ranks 0, 1, ... in the order given
        labels = list(dict.fromkeys(values))
        x_of = {v: i for i, v in enumerate(labels)}
    by_value = {}
    for r in results:
        by_value.setdefault(x_of[r["value"]], []).append(r["metric"])
    xs = sorted(by_value)
    ys = [float(np.mean(by_value[x])) for x in xs]
    ylabel = "mean varpi" if args.mode == "analyze" else "eval reward"
    svg_line_chart(os.path.join(outdir, "sweep.svg"), [(args.param, xs, ys)],
                   title=f"sweep over {args.param}", xlabel=args.param, ylabel=ylabel,
                   xlabels=labels)
    for x, y in zip(xs, ys):
        print(f"{args.param}={labels[x] if labels else format(x, 'g')}: {ylabel}={y:.6g}")
    print(f"wrote {out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-detnet",
        description="deterministic-delay analysis and RL resource allocation "
                    "for a RIS-assisted secure downlink")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario file (defaults used if omitted)")
        p.add_argument("--seed", type=int, help="override [run] seed")
        p.add_argument("--out", help="override output directory")

    p = sub.add_parser("analyze", help="per-user determinacy at the fixed allocation")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="queue oracle vs analytic bounds")
    common(p)
    p.add_argument("--packets", type=int, default=100000)
    p.add_argument("--horizon", type=int, default=2_000_000,
                   help="slot cap for the simulation")
    p.add_argument("--sampler", choices=("physical", "model"), default="physical",
                   help="physical n_k*R service or the analysis-matched process")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 on a dominance violation")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run analyze/train across parameter values")
    common(p)
    p.add_argument("--param", required=True, help="section.key path, e.g. delay.t_min")
    p.add_argument("--values", required=True, help="comma-separated value list")
    p.add_argument("--mode", choices=("analyze", "train"), default="analyze")
    p.add_argument("--reps", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train the configured agent")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="greedy evaluation of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint path (fresh nets if omitted)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, SearchError, FloatingPointError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
