"""Command line front end.

Subcommands::

    tsclab train        train a PPO policy and save the bundle
    tsclab pretrain-ae  train a state autoencoder for latent representations
    tsclab dqn          train the value-based reference agent
    tsclab baseline     run a fixed-time or adaptive-Webster episode
    tsclab eval         play a saved policy over several seeds
    tsclab compare      run a controller grid and aggregate the metric
    tsclab simulate     run one episode and dump per-vehicle events

Every subcommand accepts ``--config FILE``; explicit flags override file
values.  Exit codes: 0 success, 1 usage or configuration error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..agents.autoencoder import (
    collect_state_buffer,
    load_autoencoder,
    save_autoencoder,
    train_autoencoder,
)
from ..agents.bundle import PolicyBundle, write_training_log_csv
from ..agents.dqn import train_dqn
from ..agents.ppo import train_ppo
from ..envs import DqnObservation, SignalControlEnv
from ..errors import ConfigurationError
from ..rewards import REWARD_KINDS, RewardSpec
from ..staterep import REPRESENTATION_KINDS, KPlanesParams, make_observation
from .config import (
    dqn_from_config,
    flows_from_config,
    layout_from_config,
    normalizers_for_training,
    parse_config_file,
    plan_from_config,
    ppo_from_config,
    reward_from_config,
    run_from_config,
    webster_from_config,
)
from .metrics import correlation_report, mean_std, write_cycles_csv, write_events_csv
from .runner import (
    ExperimentConfig,
    PolicyController,
    RunSpec,
    make_controller,
    run_episode,
    run_grid,
    write_correlations_csv,
    write_grid_outputs,
    write_plot_scripts,
    write_webster_log_csv,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse variant that raises instead of calling sys.exit(2)."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="tsclab",
                     description="adaptive traffic-signal control lab")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, helptext: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key-value configuration file")
        return p

    p = add("train", "train a PPO signal-control policy")
    p.add_argument("--repr", choices=REPRESENTATION_KINDS, default="expanded",
                   help="state representation (default: expanded)")
    p.add_argument("--reward", choices=REWARD_KINDS, default="queue",
                   help="reward formulation (default: queue)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timesteps", type=int, default=None,
                   help="training budget in simulated seconds")
    p.add_argument("--encoder", default=None, metavar="FILE",
                   help="pretrained autoencoder (required for ae* representations)")
    p.add_argument("--out", default="runs/train", metavar="DIR")

    p = add("pretrain-ae", "train a state autoencoder")
    p.add_argument("--latent", type=int, default=16,
                   help="latent dimension (default: 16)")
    p.add_argument("--buffer-steps", type=int, default=10_000,
                   help="decision-point states to collect (default: 10000)")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output weights file (default: ae<latent>.tscw)")

    p = add("dqn", "train the value-based reference agent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timesteps", type=int, default=None)
    p.add_argument("--out", default="runs/dqn", metavar="DIR")

    p = add("baseline", "run a classical controller for one episode")
    p.add_argument("--method", choices=("fixed", "webster"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=None,
                   help="episode length in simulated seconds")
    p.add_argument("--out", default="runs/baseline", metavar="DIR")

    p = add("eval", "evaluate a saved policy across seeds")
    p.add_argument("--weights", required=True, metavar="FILE")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seeds", default=None, metavar="S1,S2,...",
                   help="comma separated evaluation seeds")
    p.add_argument("--greedy", action="store_true",
                   help="argmax playback instead of sampling the policy distribution")
    p.add_argument("--out", default="runs/eval", metavar="DIR")

    p = add("compare", "run a controller comparison grid")
    p.add_argument("--grid", required=True, metavar="FILE",
                   help="grid file: one 'config_id controller=... [weights=...]' per line")
    p.add_argument("--workers", type=int, default=None,
                   help="process pool size (default: 1, sequential)")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seeds", default=None, metavar="S1,S2,...")
    p.add_argument("--plots", action="store_true",
                   help="also write standalone plot scripts")
    p.add_argument("--out", default="runs/compare", metavar="DIR")

    p = add("simulate", "run one episode and dump per-vehicle events")
    p.add_argument("--method", choices=("fixed", "webster"), default="fixed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--out", default="runs/simulate", metavar="DIR")

    return parser


def _load_cfg(args) -> dict:
    if args.config is None:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return parse_config_file(path)


def _scenario(cfg: dict):
    return layout_from_config(cfg), plan_from_config(cfg), flows_from_config(cfg)


def _parse_seed_list(text: str) -> tuple:
    try:
        seeds = tuple(int(p.strip()) for p in text.split(",") if p.strip())
    except ValueError:
        raise ConfigurationError(f"bad seed list {text!r}")
    if not seeds:
        raise ConfigurationError("empty seed list")
    return seeds


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    ppo_cfg = ppo_from_config(cfg, total_timesteps=args.timesteps)
    run = run_from_config(cfg)
    reward = reward_from_config(cfg, kind=args.reward)
    norms = normalizers_for_training(ppo_cfg.total_timesteps, plan.default_cycle_s)
    encoder = None
    if args.repr.startswith("ae"):
        if args.encoder is None:
            raise _UsageError("tsclab train: --encoder is required for ae* representations")
        encoder, _decoder = load_autoencoder(args.encoder)
    kplanes = KPlanesParams(run.kplanes_seed) if args.repr == "kplanes" else None

    def factory(seed: int) -> SignalControlEnv:
        obs = make_observation(args.repr, norms, ae_encoder=encoder,
                               kplanes_params=kplanes)
        return SignalControlEnv(layout, plan, flows, obs, reward, seed)

    result = train_ppo(factory, ppo_cfg, args.seed)
    out = _out_dir(args)
    result.bundle.save(out / "policy.tscw")
    write_training_log_csv(out / "training_log.csv", result.log)
    write_cycles_csv(out / "cycles_train.csv", result.cycle_records)
    final_q = next((row.mean_q_cycle for row in reversed(result.log)
                    if row.mean_q_cycle is not None), None)
    q_text = "n/a" if final_q is None else f"{final_q:.2f}"
    print(f"trained ppo repr={args.repr} reward={args.reward} seed={args.seed} "
          f"({len(result.log)} rollouts, final mean cycle queue {q_text})")
    print(f"wrote {out / 'policy.tscw'}")
    return 0


def cmd_pretrain_ae(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    buffer = collect_state_buffer(args.buffer_steps, flows, seed=args.seed,
                                  layout=layout, plan=plan)
    result = train_autoencoder(buffer, args.latent, epochs=args.epochs,
                               lr=args.lr, seed=args.seed)
    out_path = Path(args.out) if args.out else Path(f"ae{args.latent}.tscw")
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    save_autoencoder(result, out_path, seed=args.seed)
    print(f"autoencoder latent={args.latent}: reconstruction mse "
          f"{result.mse_history[0]:.4f} -> {result.final_mse:.4f} "
          f"over {args.epochs} epochs ({buffer.shape[0]} states)")
    print(f"wrote {out_path}")
    return 0


def cmd_dqn(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    dqn_cfg = dqn_from_config(cfg, total_timesteps=args.timesteps)
    reward = RewardSpec(kind="resco_wait")

    def factory(seed: int) -> SignalControlEnv:
        return SignalControlEnv(layout, plan, flows, DqnObservation(layout),
                                reward, seed)

    result = train_dqn(factory, dqn_cfg, args.seed)
    out = _out_dir(args)
    result.bundle.save(out / "dqn.tscw")
    write_training_log_csv(out / "training_log.csv", result.log)
    write_cycles_csv(out / "cycles_train.csv", result.cycle_records)
    print(f"trained dqn seed={args.seed} ({len(result.log)} log points)")
    print(f"wrote {out / 'dqn.tscw'}")
    return 0


def cmd_baseline(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    run = run_from_config(cfg, horizon_s=args.horizon)
    controller = make_controller(args.method, layout, plan,
                                 webster_params=webster_from_config(cfg))
    result = run_episode(layout, plan, flows, controller, args.seed,
                         run.horizon_s)
    out = _out_dir(args)
    write_cycles_csv(out / "cycles.csv", result.records)
    if result.webster_log:
        write_webster_log_csv(out / "webster_log.csv", result.webster_log)
    print(f"{args.method} seed={args.seed} horizon={run.horizon_s}s: "
          f"mean cycle queue {result.mean_q_cycle:.2f} "
          f"over {len(result.records)} cycles")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    seeds = _parse_seed_list(args.seeds) if args.seeds else None
    run = run_from_config(cfg, horizon_s=args.horizon, seeds=seeds)
    bundle = PolicyBundle.load(args.weights)
    out = _out_dir(args)
    seed_means = []
    corr_rows = []
    for seed in run.seeds:
        controller = PolicyController(bundle, layout,
                                      sample_seed=None if args.greedy else seed)
        result = run_episode(layout, plan, flows, controller, seed, run.horizon_s)
        write_cycles_csv(out / f"cycles_seed{seed}.csv", result.records)
        seed_means.append(result.mean_q_cycle)
        report = correlation_report(result.records)
        for p, r in enumerate(report.green_vs_queue):
            corr_rows.append((seed, f"green{p + 1}_vs_phase_queue", r))
        corr_rows.append((seed, "cycle_len_vs_total_queue", report.cycle_len_vs_q))
    write_correlations_csv(out / "correlations.csv", corr_rows)
    mean, std = mean_std(seed_means)
    print(f"eval {args.weights} ({bundle.algo}, repr={bundle.repr_kind}, "
          f"reward={bundle.reward_kind})")
    print(f"mean cycle queue {mean:.2f} +/- {std:.2f} "
          f"over {len(run.seeds)} seeds ({run.horizon_s}s each)")
    return 0


def _parse_grid_file(path) -> list:
    grid_path = Path(path)
    if not grid_path.exists():
        raise ConfigurationError(f"grid file not found: {grid_path}")
    specs = []
    for lineno, raw in enumerate(grid_path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        config_id = tokens[0]
        fields = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise ConfigurationError(
                    f"{grid_path}:{lineno}: expected key=value, got {token!r}"
                )
            key, value = token.split("=", 1)
            if key not in ("controller", "weights"):
                raise ConfigurationError(f"{grid_path}:{lineno}: unknown field {key!r}")
            fields[key] = value
        if "controller" not in fields:
            raise ConfigurationError(f"{grid_path}:{lineno}: missing controller=")
        specs.append(RunSpec(config_id=config_id, controller=fields["controller"],
                             weights_path=fields.get("weights")))
    if not specs:
        raise ConfigurationError(f"{grid_path}: no grid entries")
    return specs


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    seeds = _parse_seed_list(args.seeds) if args.seeds else None
    run = run_from_config(cfg, horizon_s=args.horizon, seeds=seeds,
                          workers=args.workers)
    specs = _parse_grid_file(args.grid)
    experiment = ExperimentConfig(
        layout=layout, plan=plan, flows=flows, seeds=run.seeds,
        horizon_s=run.horizon_s, webster_params=webster_from_config(cfg) or None,
    )
    rows, results = run_grid(experiment, specs, workers=run.workers)
    out = _out_dir(args)
    write_grid_outputs(out, rows, results)
    if args.plots:
        write_plot_scripts(out)
    width = max(len(r.config_id) for r in rows)
    print(f"{len(rows)} configs x {len(run.seeds)} seeds, {run.horizon_s}s each")
    for row in rows:
        print(f"  {row.config_id:<{width}}  mean cycle queue "
              f"{row.mean_q_cycle:8.2f} +/- {row.std_q_cycle:.2f}")
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    layout, plan, flows = _scenario(cfg)
    run = run_from_config(cfg, horizon_s=args.horizon)
    controller = make_controller(args.method, layout, plan,
                                 webster_params=webster_from_config(cfg))
    result = run_episode(layout, plan, flows, controller, args.seed,
                         run.horizon_s, record_events=True, record_ticks=True)
    out = _out_dir(args)
    write_events_csv(out / "events.csv", result.events)
    write_cycles_csv(out / "cycles.csv", result.records)
    total_q = int(np.sum([row for row in result.tick_queues]))
    print(f"simulated {run.horizon_s}s under {args.method} control: "
          f"{len(result.events)} vehicle events, {len(result.records)} cycles, "
          f"summed queue-seconds {total_q}")
    return 0


_HANDLERS = {
    "train": cmd_train,
    "pretrain-ae": cmd_pretrain_ae,
    "dqn": cmd_dqn,
    "baseline": cmd_baseline,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # argparse -h / --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except (_UsageError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  (runtime failures map to exit 2)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
