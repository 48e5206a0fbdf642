"""Command line front end.

Subcommands::

    tsclab train        train a PPO policy and save the bundle
    tsclab pretrain-ae  train a state autoencoder for latent representations
    tsclab dqn          train the value-based reference agent
    tsclab compare      play a controller grid over seeds: summary,
                        per-cycle records and correlations per column,
                        and each Webster cell's timing log

Every subcommand accepts ``--config FILE``; a flag that mirrors a config
key writes that key, over the file's value.  Exit codes: 0 success, 1 usage
or configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple
from pathlib import Path

from ..agents.autoencoder import (
    check_training_settings,
    collect_state_buffer,
    load_autoencoder,
    save_autoencoder,
    train_autoencoder,
    untrained_autoencoder,
)
from ..agents.bundle import TRAINING_LOG_HEADER
from ..agents.dqn import train_dqn
from ..agents.ppo import train_ppo
from ..baselines import WEBSTER_LOG_HEADER
from ..envs import SignalControlEnv
from ..errors import ConfigurationError
from ..rewards import REWARD_KINDS
from ..staterep import (REPRESENTATION_KINDS, DqnObservation, LatentObservation,
                        make_observation)
from .config import RunSettings, cycles_max_for_training, parse_config_file, run_from_config
from .metrics import correlation_report, summary_table, write_csv, write_cycles_csv
from .runner import read_grid, run_grid


class _Parser(argparse.ArgumentParser):
    """Argparse variant that raises ConfigurationError, not sys.exit(2)."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def non_negative_int(text: str) -> int:
    """The ``--seed`` type: an integer in [0, 2**64), the range a weight
    file's header stores; argparse reports its ValueError as a usage error."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(text)
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="tsclab",
                     description="adaptive traffic-signal control lab")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, handler, helptext: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("--config", default=None, metavar="FILE",
                       help="key-value configuration file")
        return p

    p = add("train", cmd_train, "train a PPO signal-control policy")
    # one state input: None, not "expanded", is the default, since argparse
    # does not count a flag whose value is its default object as given
    state = p.add_mutually_exclusive_group()
    state.add_argument("--repr", choices=REPRESENTATION_KINDS, default=None,
                       help="state representation (default: expanded)")
    state.add_argument("--encoder", default=None, metavar="FILE",
                       help="pretrained autoencoder: train on its latent")
    p.add_argument("--reward", dest="reward.kind", choices=REWARD_KINDS,
                   help="reward formulation (default: reward.kind from --config, "
                        "else queue)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--timesteps", dest="ppo.total_timesteps", metavar="TIMESTEPS",
                   help="training budget in simulated seconds; training runs whole "
                        "rollouts of ppo.n_steps decisions and stops after the first "
                        "that ends at or past it (0 writes an untrained bundle)")
    p.add_argument("--out", default="runs/train", metavar="DIR")

    p = add("pretrain-ae", cmd_pretrain_ae, "train a state autoencoder")
    p.add_argument("--latent", type=int, default=16, help="latent dimension (default: 16)")
    p.add_argument("--buffer-steps", type=int, default=10_000,
                   help="decision-point states to collect (default: 10000)")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output weights file (default: ae<latent>.tscw)")

    p = add("dqn", cmd_dqn, "train the value-based reference agent (reward: "
                            "resco_wait only; any other reward.kind is rejected)")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--timesteps", dest="dqn.total_timesteps", metavar="TIMESTEPS")
    p.add_argument("--out", default="runs/dqn", metavar="DIR")

    p = add("compare", cmd_compare, "run a controller comparison grid")
    p.add_argument("--grid", required=True, metavar="FILE",
                   help="grid file: one 'config_id controller=... [weights=...] "
                        "[playback=...]' per line")
    p.add_argument("--workers", dest="run.workers", metavar="WORKERS",
                   help="process pool size (default: 1, sequential)")
    p.add_argument("--horizon", dest="run.horizon_s", metavar="HORIZON")
    p.add_argument("--seeds", dest="run.seeds", metavar="S1,S2,...",
                   help="comma separated seeds (overrides run.seeds)")
    p.add_argument("--out", default="runs/compare", metavar="DIR")

    return parser


def _load_run(args, defaults=()) -> RunSettings:
    """The command's run, resolved from the config values ``defaults``, over
    them the config file's, and over those each given flag whose ``dest`` is
    a config key, as text, so all pass one conversion."""
    cfg = dict(defaults)
    if args.config is not None:
        cfg.update(parse_config_file(args.config))
    cfg.update((key, value) for key, value in vars(args).items()
               if "." in key and value is not None)
    return run_from_config(cfg)


def _out_dir(path) -> Path:
    """``path`` as an output directory, checked before the job runs so a
    path that cannot be one fails at once rather than after the run: it, or
    else its nearest existing parent, must be a directory.  The directory
    is made when the outputs are written."""
    out = Path(path)
    existing = next((p for p in (out, *out.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigurationError(f"output directory {out}: {existing} is not a directory")
    return out


def _write_training_outputs(out: Path, result, weights_name: str) -> Path:
    """Save a trainer's bundle, training log and training cycles into
    ``out``; return the bundle's path."""
    out.mkdir(parents=True, exist_ok=True)
    result.bundle.save(out / weights_name)
    write_csv(out / "training_log.csv", TRAINING_LOG_HEADER,
              ((i, *astuple(row)) for i, row in enumerate(result.log)))
    write_cycles_csv(out / "cycles_train.csv", result.cycle_records)
    return out / weights_name


def cmd_train(args) -> int:
    out = _out_dir(args.out)
    run = _load_run(args)
    cycles_max = cycles_max_for_training(run.ppo.total_timesteps, run.plan.default_cycle_s)
    if args.encoder is not None:
        obs = LatentObservation(load_autoencoder(args.encoder)[0], cycles_max)
    else:
        obs = make_observation(args.repr or "expanded", cycles_max, run.kplanes_seed)

    env = SignalControlEnv(run.layout, run.plan, run.flows, obs, run.reward, args.seed)
    result = train_ppo(env, run.ppo, args.seed)
    weights = _write_training_outputs(out, result, "policy.tscw")
    final_q = next((row.mean_q_cycle for row in reversed(result.log)
                    if row.mean_q_cycle is not None), None)
    q_text = "n/a" if final_q is None else f"{final_q:.2f}"
    print(f"trained ppo repr={obs.kind} reward={run.reward.kind} seed={args.seed} "
          f"({len(result.log)} rollouts, final mean cycle queue {q_text})")
    print(f"wrote {weights}")
    return 0


def cmd_pretrain_ae(args) -> int:
    run = _load_run(args)
    check_training_settings(args.epochs, args.lr)
    out_path = Path(args.out) if args.out else Path(f"ae{args.latent}.tscw")
    if out_path.is_dir():
        raise ConfigurationError(f"--out {out_path} is a directory, not a weights file")
    _out_dir(out_path.parent)
    untrained = untrained_autoencoder(args.latent, args.seed)
    buffer = collect_state_buffer(args.buffer_steps, run.flows, seed=args.seed,
                                  layout=run.layout, plan=run.plan, horizon_s=run.horizon_s)
    result = train_autoencoder(buffer, untrained, epochs=args.epochs, lr=args.lr)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_autoencoder(result, out_path, seed=args.seed)
    print(f"autoencoder latent={args.latent}: reconstruction mse "
          f"{result.initial_mse:.4f} -> {result.final_mse:.4f} "
          f"over {args.epochs} epochs ({buffer.shape[0]} states)")
    print(f"wrote {out_path}")
    return 0


def cmd_dqn(args) -> int:
    out = _out_dir(args.out)
    run = _load_run(args, {"reward.kind": "resco_wait"})
    if run.reward.kind != "resco_wait":
        raise ConfigurationError(f"dqn trains on the resco_wait reward only, "
                                 f"got reward.kind = {run.reward.kind}")

    env = SignalControlEnv(run.layout, run.plan, run.flows, DqnObservation(), run.reward,
                           args.seed)
    result = train_dqn(env, run.dqn, args.seed)
    weights = _write_training_outputs(out, result, "dqn.tscw")
    print(f"trained dqn seed={args.seed} ({len(result.log)} log points)")
    print(f"wrote {weights}")
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args.out)
    run = _load_run(args)
    specs = read_grid(args.grid)
    results, webster_logs = run_grid(run, specs)
    columns = [(spec.config_id, spec.controller) for spec in specs]
    header, rows = summary_table(columns, run.seeds, results)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "summary.csv", header, rows)
    for (config_id, seed), records in sorted(results.items()):
        write_cycles_csv(out / f"cycles_{config_id}_seed{seed}.csv", records)
    for (config_id, seed), log in sorted(webster_logs.items()):
        write_csv(out / f"webster_log_{config_id}_seed{seed}.csv", WEBSTER_LOG_HEADER, log)
    for config_id, _ in columns:
        write_csv(out / f"correlations_{config_id}.csv", ("seed", "quantity", "pearson_r"),
                  [(seed, name, r) for seed in run.seeds
                   for name, r in correlation_report(results[(config_id, seed)]).items()])
    width = max(len(config_id) for config_id, _ in columns)
    print(f"{len(rows)} configs x {len(run.seeds)} seeds, {run.horizon_s}s each")
    for config_id, _, _, mean, std, *_ in rows:
        print(f"  {config_id:<{width}}  mean cycle queue {mean:8.2f} +/- {std:.2f}")
    print(f"wrote {out / 'summary.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse -h / --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001  (runtime failures map to exit 2)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
