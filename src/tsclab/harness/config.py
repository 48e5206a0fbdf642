"""Key-value experiment configuration: file format, defaults, builders.

The configuration file is plain text: one ``key = value`` pair per line,
``#`` starts a comment.  Flow profiles use segment syntax
``start-end@rate`` (rate in veh/h), comma separated, one line per lane::

    flow.N0 = 0-2400@500, 2400-4800@300, 4800-7200@150
    flow.regimes = 0-2400@high, 2400-4800@medium, 4800-7200@low

Every other key is ``section.field``: each section builds one settings
class (:data:`SECTIONS`), and each field whose default is an int, float, str
or tuple is a key.  Its text converts by the type of that default (a
tuple's, comma separated with no empty item, by its items' type); a field
whose default is None names its type in ``field(metadata={"type": ...})``.

Any key can be omitted; the class defaults apply.  Unknown keys are rejected
so typos fail loudly.  A command-line flag that mirrors a key writes that
key's text, over the file's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from ..baselines import WebsterSettings
from ..errors import ConfigurationError
from ..rewards import RewardSpec
from ..sim import LANE_IDS, FlowProfile, IntersectionLayout, PhasePlan
from ..agents.dqn import DqnConfig
from ..agents.ppo import PpoConfig

_FLOW_KEYS = {f"flow.{lane}" for lane in LANE_IDS} | {"flow.regimes"}


def read_lines(path, what: str):
    """Yield ``(lineno, line)`` for each line of the UTF-8 text file
    ``path`` (a leading byte order mark dropped) that holds more than a
    ``#`` comment, with the comment and the surrounding blanks stripped.  A file that is missing, or that cannot be
    read as UTF-8 text, raises ConfigurationError naming it as ``what``."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def add_pair(values: dict, text: str, known, where: str) -> None:
    """Add ``text``, a ``key=value`` pair split at its first ``=`` and
    stripped, to ``values``; no ``=``, an empty side, or a key outside
    ``known`` or already in ``values`` raises ConfigurationError at ``where``."""
    if "=" not in text:
        raise ConfigurationError(f"{where}: expected key=value, got {text!r}")
    key, value = (side.strip() for side in text.split("=", 1))
    if not key or not value:
        raise ConfigurationError(f"{where}: empty key or value in {text!r}")
    if key not in known:
        raise ConfigurationError(f"{where}: unknown key {key!r}")
    if key in values:
        raise ConfigurationError(f"{where}: duplicate key {key!r}")
    values[key] = value


def parse_config_file(path) -> dict:
    """Read ``key = value`` lines into an ordered dict of strings."""
    values: dict[str, str] = {}
    for lineno, line in read_lines(path, "config file"):
        add_pair(values, line, _SCHEMA.keys() | _FLOW_KEYS, f"{path}:{lineno}")
    return values


def _parse_segments(key: str, text: str):
    segments = []
    for part in text.split(","):
        part = part.strip()
        if "@" not in part or "-" not in part.split("@", 1)[0]:
            raise ConfigurationError(f"{key}: expected 'start-end@value', got {part!r}")
        span, value = part.split("@", 1)
        start, end = span.split("-", 1)
        try:
            segments.append((float(start), float(end), value.strip()))
        except ValueError:
            raise ConfigurationError(f"{key}: bad segment bounds in {part!r}")
    return segments


# the default demand, as the flow.* values of a config file: three regimes
# over 7200 s, heaviest on the north-south through+left movement, repeating
# for longer horizons.  The dominant direction also swings between regimes
# (E-W heavy while medium, N-S heavy while high), so controllers that react
# only to long flow averages lag the shift.  Demand ramps up over the span:
# the easy regime comes first, which also gives learning agents a gentle
# opening stretch before the crunch.
DEFAULT_FLOWS = {
    "flow.N0": "0-2400@60, 2400-4800@168, 4800-7200@434",
    "flow.N1": "0-2400@20, 2400-4800@42, 4800-7200@98",
    "flow.E0": "0-2400@100, 2400-4800@294, 4800-7200@126",
    "flow.E1": "0-2400@30, 2400-4800@84, 4800-7200@42",
    "flow.S0": "0-2400@60, 2400-4800@168, 4800-7200@434",
    "flow.S1": "0-2400@20, 2400-4800@42, 4800-7200@98",
    "flow.W0": "0-2400@100, 2400-4800@294, 4800-7200@126",
    "flow.W1": "0-2400@30, 2400-4800@84, 4800-7200@42",
    "flow.regimes": "0-2400@low, 2400-4800@medium, 4800-7200@high",
}


def flows_from_config(cfg: dict) -> FlowProfile:
    """Build the flow profile from the flow.* keys, or from
    :data:`DEFAULT_FLOWS` when there are none."""
    if not _FLOW_KEYS.intersection(cfg):
        cfg = DEFAULT_FLOWS
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
        regimes = _parse_segments("flow.regimes", cfg["flow.regimes"])
        if not all(label for _start, _end, label in regimes):
            raise ConfigurationError("flow.regimes: a regime label may not be empty")
    return FlowProfile.build(lane_rates, regimes)


def default_flow_profile() -> FlowProfile:
    """The profile :data:`DEFAULT_FLOWS` describes."""
    return flows_from_config({})


@dataclass(frozen=True)
class RunSettings:
    """One fully resolved run: the scenario (layout, signal plan, flows), the
    Webster controller's, the reward's and each trainer's settings, and the
    episode settings.

    The horizon must exceed the plan's longest cycle, so every episode
    completes at least one cycle."""

    horizon_s: int = 7200
    seeds: tuple = (0, 1, 2, 3, 4)
    workers: int = 1
    layout: IntersectionLayout = IntersectionLayout()
    plan: PhasePlan = PhasePlan()
    flows: FlowProfile = field(default_factory=default_flow_profile)
    webster: WebsterSettings = WebsterSettings()
    reward: RewardSpec = RewardSpec()
    ppo: PpoConfig = PpoConfig()
    dqn: DqnConfig = DqnConfig()

    def __post_init__(self) -> None:
        self.plan.check_horizon(self.horizon_s)
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be non-negative, got {self.seeds}")
        if self.workers < 1:
            raise ConfigurationError("workers must be positive")


SECTIONS = {"sim": IntersectionLayout, "plan": PhasePlan, "reward": RewardSpec,
            "ppo": PpoConfig, "dqn": DqnConfig, "webster": WebsterSettings,
            "run": RunSettings}


def _converter(f):
    """The function that reads a key's text for field ``f``, or None when
    no key sets the field."""
    kind = f.metadata.get("type", type(f.default))
    if kind is tuple:
        item = type(f.default[0])
        return lambda raw: tuple(item(part) for part in raw.split(","))
    return kind if kind in (int, float, str) else None


# key -> (class, field name, converter), for every key but the flow keys
_SCHEMA = {f"{section}.{f.name}": (cls, f.name, convert)
           for section, cls in SECTIONS.items() for f in fields(cls)
           for convert in [_converter(f)] if convert is not None}


def _kwargs(cfg: dict, cls) -> dict:
    kwargs = {}
    for key, (owner, name, convert) in _SCHEMA.items():
        if owner is cls and key in cfg:
            try:
                kwargs[name] = convert(cfg[key])
            except ValueError:
                raise ConfigurationError(f"bad value for {key}: {cfg[key]!r}") from None
    return kwargs


def run_from_config(cfg: dict) -> RunSettings:
    """Resolve a whole run from config values: each field holding a
    section's settings class is built from that section's keys, the flows
    from the flow keys, and the rest from the ``run.`` keys, so every key
    is checked here, whichever command reads it."""
    nested = {f.name: cls(**_kwargs(cfg, cls)) for f in fields(RunSettings)
              for cls in [type(f.default)] if cls in SECTIONS.values()}
    return RunSettings(flows=flows_from_config(cfg), **nested, **_kwargs(cfg, RunSettings))


def cycles_max_for_training(total_timesteps: int, nominal_cycle_s: float = 100.0) -> float:
    """The completed-cycle divisor that spans the training horizon."""
    return max(1.0, max(total_timesteps, 1) / nominal_cycle_s)
