"""Key-value experiment configuration: file format, defaults, builders.

The configuration file is plain text: one ``key = value`` pair per line,
``#`` starts a comment.  Flow profiles use segment syntax
``start-end@rate`` (rate in veh/h), comma separated, one line per lane::

    flow.N0 = 0-2400@500, 2400-4800@300, 4800-7200@150
    flow.regimes = 0-2400@high, 2400-4800@medium, 4800-7200@low

Any key can be omitted; module defaults apply.  Unknown keys are rejected
so typos fail loudly.  Command-line flags override file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError
from ..rewards import RewardSpec
from ..sim import LANE_IDS, N_PHASES, FlowProfile, IntersectionLayout, PhasePlan
from ..staterep import DEFAULT_KPLANES_SEED, StateNormalizers
from ..agents.dqn import DqnConfig
from ..agents.ppo import PpoConfig

_LAYOUT_KEYS = {
    "sim.lane_storage_capacity": ("lane_storage_capacity", int),
    "sim.travel_time_to_stopline_s": ("travel_time_to_stopline_s", float),
    "sim.saturation_headway_s": ("saturation_headway_s", float),
    "sim.startup_lost_time_s": ("startup_lost_time_s", float),
    "sim.free_flow_speed_ms": ("free_flow_speed_ms", float),
}
_PLAN_KEYS = {
    "plan.greens_s": ("programmed_green_s", "float_tuple"),
    "plan.yellow_s": ("yellow_s", float),
    "plan.g_min_s": ("g_min_s", float),
    "plan.g_max_s": ("g_max_s", float),
    "plan.delta_time_s": ("delta_time_s", float),
}
_REWARD_KEYS = {
    "reward.kind": ("kind", str),
    "reward.alpha_abs": ("alpha_abs", float),
    "reward.alpha_red": ("alpha_red", float),
    "reward.queue_norm": ("queue_norm", float),
    "reward.resco_scale": ("resco_scale", float),
    "reward.clip_min": ("clip_min", float),
    "reward.clip_max": ("clip_max", float),
}
_PPO_KEYS = {
    "ppo.learning_rate": ("learning_rate", float),
    "ppo.n_steps": ("n_steps", int),
    "ppo.batch_size": ("batch_size", int),
    "ppo.n_epochs": ("n_epochs", int),
    "ppo.gamma": ("gamma", float),
    "ppo.gae_lambda": ("gae_lambda", float),
    "ppo.clip_epsilon": ("clip_epsilon", float),
    "ppo.total_timesteps": ("total_timesteps", int),
    "ppo.value_coef": ("value_coef", float),
    "ppo.entropy_coef": ("entropy_coef", float),
    "ppo.hidden_sizes": ("hidden_sizes", "int_tuple"),
    "ppo.activation": ("activation", str),
}
_DQN_KEYS = {
    "dqn.learning_rate": ("learning_rate", float),
    "dqn.replay_capacity": ("replay_capacity", int),
    "dqn.batch_size": ("batch_size", int),
    "dqn.target_sync_interval": ("target_sync_interval", int),
    "dqn.epsilon_start": ("epsilon_start", float),
    "dqn.epsilon_end": ("epsilon_end", float),
    "dqn.epsilon_decay_steps": ("epsilon_decay_steps", int),
    "dqn.gamma": ("gamma", float),
    "dqn.total_timesteps": ("total_timesteps", int),
    "dqn.hidden_sizes": ("hidden_sizes", "int_tuple"),
    "dqn.activation": ("activation", str),
    "dqn.log_interval_steps": ("log_interval_steps", int),
}
_WEBSTER_KEYS = {
    "webster.recompute_interval_s": ("recompute_interval_s", float),
    "webster.flow_window_s": ("flow_window_s", float),
    "webster.lost_time_s": ("lost_time_s", float),
}
_RUN_KEYS = {
    "run.horizon_s": ("horizon_s", int),
    "run.seeds": ("seeds", "int_tuple"),
    "run.kplanes_seed": ("kplanes_seed", int),
    "run.workers": ("workers", int),
}

_ALL_SIMPLE_KEYS = (set(_LAYOUT_KEYS) | set(_PLAN_KEYS) | set(_REWARD_KEYS)
                    | set(_PPO_KEYS) | set(_DQN_KEYS) | set(_WEBSTER_KEYS)
                    | set(_RUN_KEYS))
_FLOW_KEYS = {f"flow.{lane}" for lane in LANE_IDS} | {"flow.regimes"}


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into an ordered dict of strings."""
    values: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigurationError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _ALL_SIMPLE_KEYS and key not in _FLOW_KEYS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _convert(key: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "int_tuple":
            return tuple(int(p.strip()) for p in raw.split(",") if p.strip())
        if kind == "float_tuple":
            return tuple(float(p.strip()) for p in raw.split(",") if p.strip())
    except ValueError:
        raise ConfigurationError(f"bad value for {key}: {raw!r}")
    raise ConfigurationError(f"unhandled kind for {key}")


def _build_kwargs(cfg: dict, keymap: dict, overrides: dict) -> dict:
    kwargs = {}
    for key, (fieldname, kind) in keymap.items():
        if key in cfg:
            kwargs[fieldname] = _convert(key, cfg[key], kind)
    for fieldname, value in overrides.items():
        if value is not None:
            kwargs[fieldname] = value
    return kwargs


def reward_from_config(cfg: dict, **overrides) -> RewardSpec:
    return RewardSpec(**_build_kwargs(cfg, _REWARD_KEYS, overrides))


def ppo_from_config(cfg: dict, **overrides) -> PpoConfig:
    return PpoConfig(**_build_kwargs(cfg, _PPO_KEYS, overrides))


def dqn_from_config(cfg: dict, **overrides) -> DqnConfig:
    return DqnConfig(**_build_kwargs(cfg, _DQN_KEYS, overrides))


def webster_from_config(cfg: dict) -> dict:
    return _build_kwargs(cfg, _WEBSTER_KEYS, {})


def _parse_segments(key: str, text: str):
    segments = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "@" not in part or "-" not in part.split("@", 1)[0]:
            raise ConfigurationError(f"{key}: expected 'start-end@value', got {part!r}")
        span, value = part.split("@", 1)
        start, end = span.split("-", 1)
        try:
            segments.append((float(start), float(end), value.strip()))
        except ValueError:
            raise ConfigurationError(f"{key}: bad segment bounds in {part!r}")
    if not segments:
        raise ConfigurationError(f"{key}: no segments given")
    return segments


def flows_from_config(cfg: dict) -> FlowProfile:
    """Build the flow profile from flow.* keys, or the default profile."""
    lane_rates = {}
    for lane in LANE_IDS:
        key = f"flow.{lane}"
        if key in cfg:
            segs = []
            for start, end, value in _parse_segments(key, cfg[key]):
                try:
                    segs.append((start, end, float(value)))
                except ValueError:
                    raise ConfigurationError(f"{key}: rate {value!r} is not a number")
            lane_rates[lane] = segs
    regimes = []
    if "flow.regimes" in cfg:
        regimes = [(s, e, label) for s, e, label in
                   _parse_segments("flow.regimes", cfg["flow.regimes"])]
    if not lane_rates:
        return default_flow_profile()
    return FlowProfile.build(lane_rates, regimes)


def default_flow_profile() -> FlowProfile:
    """Synthetic demand: three regimes over 7200 s, heaviest on the
    north-south through+left movement; repeats for longer horizons.

    The dominant direction also swings between regimes (E-W heavy while
    medium, N-S heavy while high), so controllers that react only to long
    flow averages lag the shift.  Demand ramps up over the span: the easy
    regime comes first, which also gives learning agents a gentle opening
    stretch before the crunch."""
    rates = {
        "N0": (60.0, 168.0, 434.0), "S0": (60.0, 168.0, 434.0),
        "E0": (100.0, 294.0, 126.0), "W0": (100.0, 294.0, 126.0),
        "N1": (20.0, 42.0, 98.0), "S1": (20.0, 42.0, 98.0),
        "E1": (30.0, 84.0, 42.0), "W1": (30.0, 84.0, 42.0),
    }
    return FlowProfile.build(
        {
            lane: [(i * 2400.0, (i + 1) * 2400.0, rate)
                   for i, rate in enumerate(per_regime)]
            for lane, per_regime in rates.items()
        },
        regimes=[(0.0, 2400.0, "low"), (2400.0, 4800.0, "medium"),
                 (4800.0, 7200.0, "high")],
    )


@dataclass(frozen=True)
class RunSettings:
    """One fully resolved run: the scenario (layout, signal plan, flows), the
    Webster controller's keyword arguments, and the episode settings.

    The horizon must exceed the longest cycle any controller can run, every
    green at ``g_max_s`` plus its yellow, so every episode completes at
    least one cycle."""

    horizon_s: int = 7200
    seeds: tuple = (0, 1, 2, 3, 4)
    kplanes_seed: int = DEFAULT_KPLANES_SEED
    workers: int = 1
    layout: IntersectionLayout = IntersectionLayout()
    plan: PhasePlan = PhasePlan()
    flows: FlowProfile = field(default_factory=default_flow_profile)
    webster: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        longest_cycle_s = N_PHASES * (self.plan.g_max_s + self.plan.yellow_s)
        if not self.horizon_s > longest_cycle_s:
            raise ConfigurationError(
                f"horizon {self.horizon_s}s must exceed the longest cycle, "
                f"{longest_cycle_s:g}s, so that every episode completes one")
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {self.seeds}")
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")


def run_from_config(cfg: dict, **overrides) -> RunSettings:
    """Resolve a whole run from config values; non-None ``overrides``
    (command-line flags) replace ``run.*`` values."""
    return RunSettings(
        layout=IntersectionLayout(**_build_kwargs(cfg, _LAYOUT_KEYS, {})),
        plan=PhasePlan(**_build_kwargs(cfg, _PLAN_KEYS, {})),
        flows=flows_from_config(cfg),
        webster=webster_from_config(cfg),
        **_build_kwargs(cfg, _RUN_KEYS, overrides),
    )


def normalizers_for_training(total_timesteps: int,
                             nominal_cycle_s: float = 100.0) -> StateNormalizers:
    """Normalizers whose cycle counter spans the training horizon."""
    return StateNormalizers.for_horizon(max(total_timesteps, 1), nominal_cycle_s)
