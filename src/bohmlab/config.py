"""Experiment configuration: the scenario table, file parsing, canonical hashing.

Config files are plain key-value text:

    # comment
    scenario = stern_gerlach
    spin.alpha = 0.6
    spin.beta = 0.8
    grid.n_points = 512

One `key = value` pair per line; nesting is spelled with dots; `#`
starts a comment; blank lines are ignored.  Keys may not repeat.
Numbers are finite decimals (no inf or nan); complex values use Python
syntax (`0.6+0.2j`); `axes` is a whitespace- or comma-separated list of
x/y/z letters; `flight_time` accepts `auto`.

`SCENARIO_KEYS` says which keys each scenario reads, built from key
groups (`scenario` itself aside):

    stern_gerlach               run, spin, grid, frames, magnet (9)
    sequential                  the same plus axes (10)
    no_crossing                 run, grid, frames, magnet (7)
    equilibrium                 run, grid, frames, equilibrium (13)
    pointer                     run, spin, grid, pointer (7)
    mermin, vonneumann, chsh    none

Units are hbar = m = omega = 1: `potential.kind = harmonic` is the well
x^2/2.  Every grid is [-grid.x_max, grid.x_max).  A deflection's packet
starts at rest at x = 0 with width 1 (`wavefield.DEFLECTION_WIDTH`): a
shifted, boosted or wider start is the same run translated or rescaled.
An equilibrium packet carries a fixed spinor, since H does not act on
spin, and `no_crossing` the symmetric state, whose outcome side is its
start side.  A key read only under a condition (`init.a`, `init.b`)
belongs to every scenario that may read it.  A key its scenario does
not read is fatal, in a file and in `default_config` alike; an unknown
key is fatal, with the nearest key its scenario reads suggested.
`default_config` and `ExperimentConfig._replace` call `validate_config`,
which names the key of a field that its scenario does not read and that
differs from its default, and the key of any value that the run would
reject, by the rule the library itself applies: the specs', the spin
pair's, the packet's (the grid's, for a fixed packet), an auto flight
time's and the trial count's (`rng.check_draws`); a uniform start must
lie on the grid.  It imports `conditional` for a `pointer` config only.

The canonical form of a config is the sorted `key = value` listing of
`scenario` and the keys its scenario reads (defaults filled in, floats
at 17 significant digits), so a no-go check's is `scenario = <name>`
alone; its SHA-256 hex digest is the config hash stamped on both
reports and every CSV table of a run.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from .serialize import fmt

DEFAULT_SEED = 42


class ConfigError(ValueError):
    pass


class Check(namedtuple("Check", "name passed value relation bound")):
    """One named PASS/FAIL verdict of a run: `passed` is whether
    `value relation bound` holds.  Built by `gate` alone."""

    __slots__ = ()

    def __str__(self):
        """The check's line in report.txt."""
        return (f"{'PASS' if self.passed else 'FAIL'} {self.name}: "
                f"{fmt(self.value)} {self.relation} {fmt(self.bound)}")


_RELATIONS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">": operator.gt}


def gate(name: str, value, relation: str, bound) -> Check:
    """The check `name`, passed exactly when `value relation bound` holds."""
    return Check(name, bool(_RELATIONS[relation](value, bound)), value, relation, bound)


# ExperimentConfig's fields after `scenario`, with their defaults
_FIELD_DEFAULTS = {
    "seed": DEFAULT_SEED,
    "n_trials": 20000,
    "n_frames": 64,
    "alpha": complex(1 / math.sqrt(2)),
    "beta": complex(1 / math.sqrt(2)),
    "grid_x_max": 20.0,
    "grid_n_points": 512,
    "packet_center": 0.0,
    "packet_width": 1.0,
    "packet_momentum": 0.0,
    "magnet_mu_b": 5.0,
    "flight_time": None,                # None = separation rule
    "potential_kind": "free",           # "free" | "harmonic"
    "duration": 2.0,
    "axes": ("z", "x"),
    "pointer_shift": 10.0,
    "init_kind": "born",                # "born" | "uniform"
    "init_a": 0.0,
    "init_b": 1.0,
}


class ExperimentConfig(namedtuple("ExperimentConfig", ["scenario", *_FIELD_DEFAULTS],
                                  defaults=_FIELD_DEFAULTS.values())):
    __slots__ = ()

    def _replace(self, **fields):
        """A copy with `fields` replaced, checked by `validate_config`."""
        return validate_config(super()._replace(**fields))

    # the specs are imported where they are built, so that a no-go run,
    # which builds none, does not load the wave layer

    def grid(self):
        from .wavefield import Grid1D
        return Grid1D(-self.grid_x_max, self.grid_x_max, self.grid_n_points)

    def magnet(self):
        from .wavefield import MagnetSpec
        return MagnetSpec(self.magnet_mu_b)

    def potential(self):
        from .wavefield import PotentialSpec
        return PotentialSpec(self.potential_kind)


def _to_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _to_complex(s: str) -> complex:
    value = complex(s.replace(" ", ""))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError("value must be finite")
    return value


def _to_axes(s: str) -> tuple:
    axes = tuple(s.replace(",", " ").split())
    if not axes or not set(axes) <= {"x", "y", "z"}:
        raise ValueError("axes must be a list of x, y and z letters")
    return axes


def _to_flight(s: str):
    return None if s.strip().lower() == "auto" else _to_float(s)


# key groups: config key -> (attribute, converter)
_RUN = {"seed": ("seed", int), "n_trials": ("n_trials", int)}
_SPIN = {"spin.alpha": ("alpha", _to_complex), "spin.beta": ("beta", _to_complex)}
_GRID = {"grid.x_max": ("grid_x_max", _to_float), "grid.n_points": ("grid_n_points", int)}
_FRAMES = {"n_frames": ("n_frames", int)}
_MAGNET = {"magnet.mu_b": ("magnet_mu_b", _to_float), "flight_time": ("flight_time", _to_flight)}
_EQUILIBRIUM = {"packet.center": ("packet_center", _to_float),
                "packet.width": ("packet_width", _to_float),
                "packet.momentum": ("packet_momentum", _to_float),
                "duration": ("duration", _to_float), "potential.kind": ("potential_kind", str),
                "init.kind": ("init_kind", str),
                "init.a": ("init_a", _to_float), "init.b": ("init_b", _to_float)}
_POINTER = {"pointer.shift": ("pointer_shift", _to_float)}
_AXES = {"axes": ("axes", _to_axes)}
_DEFLECTION = (_RUN, _SPIN, _GRID, _FRAMES, _MAGNET)

# every scenario: (the key groups it reads, the defaults it changes); a
# no-go check reads no key
_SCENARIOS: dict[str, tuple] = {
    "stern_gerlach": (_DEFLECTION, {}),
    "sequential": ((*_DEFLECTION, _AXES), {"n_trials": 1000}),
    "no_crossing": ((_RUN, _GRID, _FRAMES, _MAGNET), {"n_trials": 1000}),
    "equilibrium": ((_RUN, _GRID, _FRAMES, _EQUILIBRIUM), {
        "n_trials": 50000, "n_frames": 40, "grid_x_max": 16.0,
        "packet_center": -2.0, "packet_momentum": 1.0}),
    "pointer": ((_RUN, _SPIN, _GRID, _POINTER), {"n_trials": 10000, "grid_x_max": 24.0}),
    "mermin": ((), {}),
    "vonneumann": ((), {}),
    "chsh": ((), {}),
}
SCENARIO_KEYS = {scenario: {key: spec for group in groups for key, spec in group.items()}
                 for scenario, (groups, _) in _SCENARIOS.items()}
NOGO_SCENARIOS = tuple(s for s, keys in SCENARIO_KEYS.items() if not keys)
_KEYS = {key: spec for keys in SCENARIO_KEYS.values() for key, spec in keys.items()}
_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def default_config(scenario: str, **fields) -> ExperimentConfig:
    """The scenario's defaults with `fields` (attribute names) replaced,
    checked by `validate_config`.  A field the scenario does not read
    raises ConfigError."""
    if scenario not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    for attr in fields:
        key = _ATTR_TO_KEY.get(attr, attr)
        if key not in SCENARIO_KEYS[scenario]:
            raise ConfigError(f"key {key!r} is not read by scenario {scenario!r}")
    return validate_config(ExperimentConfig(scenario=scenario,
                                            **{**_SCENARIOS[scenario][1], **fields}))


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def parse_config(text: str, scenario: str | None = None) -> ExperimentConfig:
    """Parse config text into an ExperimentConfig.

    `scenario`, when given (from a CLI subcommand), must agree with any
    scenario named in the file.  All module invariants that can be
    checked without running are checked here.
    """
    pairs = _parse_pairs(text)

    file_scenario = pairs.pop("scenario", None)
    if file_scenario is not None and scenario is not None and file_scenario != scenario:
        raise ConfigError(f"config names scenario {file_scenario!r} but the "
                          f"subcommand selects {scenario!r}")
    effective = file_scenario or scenario
    if effective is None:
        raise ConfigError("no scenario given (config key 'scenario' or subcommand)")

    if effective not in _SCENARIOS:
        raise ConfigError(f"unknown scenario {effective!r}")

    overrides = {}
    for key, value in pairs.items():
        if key not in _KEYS:
            import difflib
            hint = difflib.get_close_matches(key, [*SCENARIO_KEYS[effective], "scenario"], n=1)
            suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"unknown key {key!r} for scenario {effective!r}{suggestion}")
        attr, convert = _KEYS[key]
        try:
            overrides[attr] = convert(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} ({exc})") from None

    return default_config(effective, **overrides)


def validate_config(config: ExperimentConfig) -> ExperimentConfig:
    """`config`, or ConfigError naming the key of a value its run would
    reject, or of an unread field that differs from its default."""
    keys = SCENARIO_KEYS[config.scenario]
    for attr, default in _FIELD_DEFAULTS.items():
        if _ATTR_TO_KEY[attr] not in keys and getattr(config, attr) != default:
            raise ConfigError(f"key {_ATTR_TO_KEY[attr]!r} is not read by "
                              f"scenario {config.scenario!r}")
    if not keys:
        return config                   # a no-go check reads no key
    if not config.grid_x_max > 0:       # the grid is [-grid.x_max, grid.x_max)
        raise ConfigError("grid.x_max must be positive")
    from .rng import check_draws
    from .wavefield import DEFLECTION_WIDTH, check_band, check_placement, check_spin
    rules = []
    if "spin.alpha" in keys:            # some scenarios fix their spinor
        rules.append(("spin.alpha, spin.beta: ", lambda: check_spin(config.alpha, config.beta)))
    rules += [("grid.", config.grid), ("magnet.", config.magnet),
              ("potential.", config.potential),
              ("n_trials: ", lambda: check_draws(config.n_trials))]
    # the packet's (center, width, momentum), and the keys that its grid
    # position and its momentum band answer to
    if config.scenario == "pointer":    # its packet is fixed: its grid must hold it
        from .conditional import POINTER_CENTER, POINTER_WIDTH, CouplingSpec
        center, width, momentum = POINTER_CENTER, POINTER_WIDTH, 0.0
        at, band_at = "grid.x_max: the pointer's ", "grid.n_points: the pointer's "
        rules.append(("pointer.", lambda: CouplingSpec(config.pointer_shift)))
    elif "packet.center" in keys:
        center, width, momentum = config.packet_center, config.packet_width, config.packet_momentum
        at, band_at = "packet.", "packet.momentum, packet.width: the packet's "
    else:                               # a deflection's packet is fixed: its grid must hold it
        # the kick's momentum, which free flight keeps for the whole run
        center, width, momentum = 0.0, DEFLECTION_WIDTH, config.magnet_mu_b
        at, band_at = "grid.x_max: the deflected packet's ", "magnet.mu_b: the kicked packet's "
    rules += [(at, lambda: check_placement(config.grid(), center, width)),
              (band_at, lambda: check_band(config.grid(), momentum, width))]
    if "magnet.mu_b" in keys and config.flight_time is None:
        rules.append(("magnet.", lambda: config.magnet().separation_time()))
    for prefix, check in rules:
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{prefix}{exc}") from None
    if not 0 <= config.seed < 2**64:
        raise ConfigError("seed must lie in [0, 2**64)")
    if config.n_frames < 1:
        raise ConfigError("n_frames must be at least 1")
    if config.flight_time is not None and not config.flight_time > 0:
        raise ConfigError("flight_time must be positive (or auto)")
    if not config.duration > 0:
        raise ConfigError("duration must be positive")
    if config.scenario == "sequential" and len(config.axes) < 2:
        raise ConfigError("sequential runs need at least 2 axes")
    if config.init_kind not in ("born", "uniform"):
        raise ConfigError("init.kind must be 'born' or 'uniform'")
    # `trajectories.integrate` would abort a start off the grid at frame 0
    if config.init_kind == "uniform" and not (
            -config.grid_x_max <= config.init_a < config.init_b <= config.grid_x_max):
        raise ConfigError("init.a, init.b: a uniform start needs "
                          "-grid.x_max <= init.a < init.b <= grid.x_max")
    return config


def _format_value(attr: str, value) -> str:
    if value is None:
        return "auto"
    if attr == "axes":
        return " ".join(value)
    return fmt(value)


def canonical_text(config: ExperimentConfig) -> str:
    """Sorted `key = value` listing of the scenario and every key it reads."""
    lines = [f"scenario = {config.scenario}"]
    lines += [f"{key} = {_format_value(attr, getattr(config, attr))}"
              for key, (attr, _) in SCENARIO_KEYS[config.scenario].items()]
    return "\n".join(sorted(lines)) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """SHA-256 hex digest of the canonical text, by CPython's own `_sha256`
    module (`_sha2` from Python 3.12 on) where it exists: `hashlib` loads
    OpenSSL, about 2 ms of every invocation, to hash one short text."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(canonical_text(config).encode()).hexdigest()


def with_overrides(config: ExperimentConfig, *, seed: int | None = None,
                   n_trials: int | None = None) -> ExperimentConfig:
    """`config` with the CLI's --seed and --trajectories applied where its
    scenario reads them: a no-go check reads neither, so ignores --seed."""
    updates = {key: value for key, value in (("seed", seed), ("n_trials", n_trials))
               if value is not None and key in SCENARIO_KEYS[config.scenario]}
    return config._replace(**updates) if updates else config
