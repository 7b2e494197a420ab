"""Scenario files: the sectioned key-value grammar the CLI consumes.

A scenario is an INI document. Unknown sections and keys are rejected so
typos fail loudly instead of silently running defaults. Every key below is
one row of a single key table that both parse_scenario and render_scenario
walk, so a rendered manifest parses back to the scenario it came from; the
[initial] family keys are rows of the family table build_ensemble reads.

    [scenario]
    name = two_osc_lambda075     # required; names output directories
    seed = 2024                  # non-negative, default 0

    [grid]                       # all optional
    dim = 1                      # 1..3, default 1
    points = 256                 # per axis, power of two, default 256
    length = 20.0                # box side, default 20.0

    [model]
    n = 2                        # oscillator count, default 2
    coupling = 1.0               # K >= 0, default 1.0
    frequencies = 0.375, -0.375  # N values (default all 0), or for N = 2:
    # lam = 0.75                 # shorthand for the mirrored pair (lam*K/2, -lam*K/2)
    potential = zero             # zero | cosine | barrier, default zero
    # potential.amplitude = 1.0  # extra parameters as potential.<name>
    # potential.offset = 1.0

    [initial]                    # PDE ensembles
    kind = gaussian_pair         # required: one of the families below
    separation = 2.0             # the family's own keys, checked when the
                                 # ensemble is built; absent ones default to:
      # perturbed_gaussians: sigma = 1.5, epsilon = 0.25, max_mode = 6
      #                      (n and seed come from the scenario)
      # gaussian_pair:       separation = 2.0, sigma = 1.5, momentum_kick = 0.0
      # overlap_pair:        overlap = 0.5 (complex literal), sigma = 1.5
      # incoherent_pair:     sigma = 1.5
      # plane_waves:         modes = 1, 2, -1 (required, one per oscillator)
      # snapshot:            path = run/state.slw (required)

    [ode]                        # correlation-level runs
    system = two                 # two | full | fg, default full
    dt = 1e-3                    # default 1e-3
    t_end = 20.0                 # required
    sample_stride = 20           # default 1
    self_check = false           # default false
    z0 = 0.3+0.2j                # system=two: complex literal, or "unstable"
    # gram = random              # full/fg: random | ones  (random uses the seed)
    # coherence = 0.5            # gram = random only: bias, default 0.0

    [solver]                     # PDE stepping
    scheme = span                # span | strang_rk4 | full_rk4, default span; the
                                 # last two are the grid references
    dt = 1e-3                    # default 1e-3
    t_end = 20.0                 # required, a whole number of dt steps
    snapshot_stride = 20         # default 1
    renormalize = false          # default false

    [outputs]
    formats = ndjson             # any of ndjson, csv; default ndjson
    final_snapshot = false       # default false
    diagnostics = true           # default true

    [verify]
    checks = mass:1e-9, two_exact:1e-6   # name:tolerance list, default none

    [sweep]
    coupling = 1.0               # each axis: comma list or start:stop:step;
    omega = 0:1:0.1              # the axes default to coupling = 1.0,
    n = 2                        # omega = 0.0, n = 2, seeds = 0
    seeds = 0                    # non-negative
    mode = ode                   # ode | pde, default ode
    t_end = 20.0                 # default 20.0
    dt = 1e-3                    # default 1e-3

Each cell of a pde sweep runs as a scenario of its own: this one with the
cell's n, seed, coupling and frequencies ((omega, -omega) at n = 2, all 0
above), its [initial] family (perturbed_gaussians when it has none), no
checks, and a solver that takes scheme and renormalize from [solver] when
that section is present, and dt, t_end and about 200 samples from [sweep].

Values follow Python literal conventions for floats and complex numbers.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import EnsembleState, GridSpec, ModelConfig
from .correlations import CorrelationSeries, CorrelationState, integrate, random_correlation_matrix
from .errors import ConfigurationError
from .initial_data import (
    gaussian_pair,
    incoherent_pair,
    overlap_pair,
    perturbed_gaussians,
    plane_waves,
)
from .oracles import classify_pair
from .potentials import build_potential
from .snapshots import read_snapshot
from .solver import SolverParams

__all__ = [
    "Scenario",
    "OdeParams",
    "OutputSpec",
    "SweepSpec",
    "parse_scenario",
    "load_scenario",
    "render_scenario",
    "build_grid",
    "build_model",
    "build_ensemble",
    "build_ode_initial",
    "integrate_ode",
]


@dataclass(frozen=True)
class OdeParams:
    system: str
    dt: float
    t_end: float
    sample_stride: int = 1
    self_check: bool = False
    z0: complex | str | None = None
    gram: str | None = None
    coherence: float = 0.0


@dataclass(frozen=True)
class OutputSpec:
    formats: tuple[str, ...] = ("ndjson",)
    final_snapshot: bool = False
    diagnostics: bool = True


@dataclass(frozen=True)
class SweepSpec:
    coupling: tuple[float, ...]
    omega: tuple[float, ...]
    n: tuple[int, ...]
    seeds: tuple[int, ...]
    mode: str = "ode"
    dt: float = 1e-3
    t_end: float = 20.0


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int = 0
    grid_dim: int = 1
    grid_points: int = 256
    grid_length: float = 20.0
    n: int = 2
    coupling: float = 1.0
    frequencies: tuple[float, ...] | None = None
    lam: float | None = None
    potential_kind: str = "zero"
    potential_params: dict = field(default_factory=dict)
    initial_kind: str | None = None
    initial_params: dict = field(default_factory=dict)
    ode: OdeParams | None = None
    solver: SolverParams | None = None
    outputs: OutputSpec = field(default_factory=OutputSpec)
    checks: tuple[tuple[str, float], ...] = ()
    sweep: SweepSpec | None = None

    def __post_init__(self):
        # checked on construction, so a --seed override meets the same rule
        # as the file; the seed reaches np.random.default_rng
        if self.seed < 0:
            _fail("scenario", "seed", f"expected a non-negative integer, got {self.seed}")


def _fail(section: str, key: str, message: str):
    raise ConfigurationError(f"[{section}] {key}: {message}")


# -- codecs: each decoder turns a value's text into the value, raising
# ValueError with the message; each encoder writes the text back ----------------


def _parsed(convert, what: str):
    """Decoder applying convert, with a readable message when it fails."""

    def decode(raw: str):
        try:
            return convert(raw)
        except (ValueError, KeyError):
            raise ValueError(f"expected {what}, got {raw!r}") from None

    return decode


def _word(*choices: str):
    """Decoder for a bare word, restricted to choices when any are given."""

    def decode(raw: str) -> str:
        word = raw.strip()
        if choices and word not in choices:
            raise ValueError(f"expected one of {choices}, got {word!r}")
        return word

    return decode


def _tokens(raw: str) -> list[str]:
    return [t for t in raw.replace(",", " ").split() if t]


def _join(encode):
    return lambda values: ", ".join(encode(v) for v in values)


def _complex(raw: str) -> complex:
    return complex(raw.replace(" ", ""))


def _z0(raw: str) -> complex | str:
    raw = raw.strip()
    return raw if raw == "unstable" else _complex(raw)


def _axis(raw: str, integer: bool = False) -> tuple:
    """One sweep axis: a comma list, or an inclusive start:stop:step range,
    of at least one value (an axis of none would sweep no cells)."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError("range syntax is start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ValueError(f"expected numbers in range, got {raw!r}") from None
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int(np.floor((stop - start) / step + 1e-6)) + 1
        # snap to a 1e-12 lattice so 0:1:0.1 lands on 1.0, not 0.999...9
        vals = tuple(round(start + i * step, 12) for i in range(max(count, 0)))
    else:
        vals = _FLOATS[0](raw)
    if not vals:
        raise ValueError("expected at least one value")
    if integer:
        for v in vals:
            if abs(v - round(v)) > 1e-9:
                raise ValueError(f"expected integers, got {v}")
        return tuple(int(round(v)) for v in vals)
    return vals


def _seeds(raw: str) -> tuple:
    seeds = _axis(raw, integer=True)
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"expected non-negative integers, got {min(seeds)}")
    return seeds


def _formats(raw: str) -> tuple[str, ...] | None:
    # an empty list keeps the default
    return tuple(_word("ndjson", "csv")(fmt) for fmt in _tokens(raw)) or None


def _checks(raw: str) -> tuple[tuple[str, float], ...]:
    checks = []
    for item in raw.replace("\n", ",").split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(f"expected name:tolerance, got {item!r}")
        name, tol = item.rsplit(":", 1)
        try:
            checks.append((name.strip(), float(tol)))
        except ValueError:
            raise ValueError(f"bad tolerance in {item!r}") from None
    return tuple(checks)


# floats are written with repr, so every value parses back bit for bit
_INT = (_parsed(int, "an integer"), str)
_FLOAT = (_parsed(float, "a number"), repr)
_TRUTH = configparser.ConfigParser.BOOLEAN_STATES  # true/yes/on/1 and false/no/off/0
_BOOL = (_parsed(lambda raw: _TRUTH[raw.strip().lower()], "a boolean"), lambda v: str(v).lower())
_FLOATS = (_parsed(lambda raw: tuple(float(t) for t in _tokens(raw)), "numbers"), _join(repr))
_INTS = (_parsed(lambda raw: [int(t) for t in _tokens(raw)], "integers"), _join(str))
_CHECKS = (_checks, lambda checks: ", ".join(f"{name}:{tol!r}" for name, tol in checks))
_AXIS = (_axis, _join(repr))
_INT_AXIS = (lambda raw: _axis(raw, integer=True), _join(str))
_SEEDS = (_seeds, _join(str))
_Z0 = (
    _parsed(_z0, "a complex literal or 'unstable'"),
    lambda z: z if isinstance(z, str) else repr(z).strip("()"),
)


@dataclass(frozen=True)
class _Key:
    """One key: its name in the file, its decoder and encoder, and the
    attribute it fills (the name unless given). default is the text an absent
    key decodes from; without one the target's own default applies, or, for a
    required key, the section is rejected."""

    name: str
    decode: Callable[[str], object]
    encode: Callable[[object], str] = str
    attr: str = ""
    default: str | None = None
    required: bool = False

    def __post_init__(self):
        if not self.attr:
            object.__setattr__(self, "attr", self.name)


@dataclass(frozen=True)
class _Section:
    """One [section]. Its keys fill Scenario fields directly, or, with a
    target, the dataclass held in the Scenario attribute of the section's
    name. extras admits free-form keys: extras.name is the prefix they share,
    extras.attr the Scenario dict they land in under the rest of the key."""

    name: str
    keys: tuple[_Key, ...]
    target: type | None = None
    extras: _Key | None = None


def _on_grid(builder):
    return lambda sc, grid, **kw: builder(grid, **kw)


def _snapshot_state(grid: GridSpec, path: str) -> EnsembleState:
    state = read_snapshot(path)
    if state.grid != grid:
        raise ConfigurationError(
            f"snapshot grid does not match the scenario grid ({state.grid} vs {grid})"
        )
    return state


# [initial] kind -> (builder(sc, grid, **keys), the family's keys); an absent
# key takes the builder's own default
_FAMILIES = {
    "perturbed_gaussians": (
        lambda sc, grid, **kw: perturbed_gaussians(grid, sc.n, sc.seed, **kw),
        (
            _Key("sigma", *_FLOAT),
            _Key("epsilon", *_FLOAT),
            _Key("max_mode", *_INT),
        ),
    ),
    "gaussian_pair": (
        _on_grid(gaussian_pair),
        (_Key("separation", *_FLOAT), _Key("sigma", *_FLOAT), _Key("momentum_kick", *_FLOAT)),
    ),
    "overlap_pair": (
        _on_grid(overlap_pair),
        (_Key("overlap", _parsed(_complex, "a complex literal")), _Key("sigma", *_FLOAT)),
    ),
    "incoherent_pair": (_on_grid(incoherent_pair), (_Key("sigma", *_FLOAT),)),
    "plane_waves": (_on_grid(plane_waves), (_Key("modes", *_INTS, required=True),)),
    "snapshot": (_on_grid(_snapshot_state), (_Key("path", str, required=True),)),
}

_SCHEMA = (
    _Section("scenario", (_Key("name", _word(), required=True), _Key("seed", *_INT))),
    _Section(
        "grid",
        (
            _Key("dim", *_INT, attr="grid_dim"),
            _Key("points", *_INT, attr="grid_points"),
            _Key("length", *_FLOAT, attr="grid_length"),
        ),
    ),
    _Section(
        "model",
        (
            _Key("n", *_INT),
            _Key("coupling", *_FLOAT),
            _Key("frequencies", *_FLOATS),
            _Key("lam", *_FLOAT),
            _Key("potential", _word(), attr="potential_kind"),
        ),
        extras=_Key("potential.", *_FLOAT, attr="potential_params"),
    ),
    _Section(
        "initial",
        (_Key("kind", _word(*_FAMILIES), attr="initial_kind", required=True),),
        extras=_Key("", str.strip, attr="initial_params"),
    ),
    _Section(
        "ode",
        (
            _Key("system", _word("full", "two", "fg"), default="full"),
            _Key("dt", *_FLOAT, default="1e-3"),
            _Key("t_end", *_FLOAT, required=True),
            _Key("sample_stride", *_INT),
            _Key("self_check", *_BOOL),
            _Key("z0", *_Z0),
            _Key("gram", _word("random", "ones")),
            _Key("coherence", *_FLOAT),
        ),
        target=OdeParams,
    ),
    _Section(
        "solver",
        (
            _Key("scheme", _word()),
            _Key("dt", *_FLOAT, default="1e-3"),
            _Key("t_end", *_FLOAT, required=True),
            _Key("snapshot_stride", *_INT),
            _Key("renormalize", *_BOOL, attr="renormalize_each_step"),
        ),
        target=SolverParams,
    ),
    _Section(
        "outputs",
        (
            _Key("formats", _formats, _join(str)),
            _Key("final_snapshot", *_BOOL),
            _Key("diagnostics", *_BOOL),
        ),
        target=OutputSpec,
    ),
    _Section("verify", (_Key("checks", *_CHECKS),)),
    _Section(
        "sweep",
        (
            _Key("coupling", *_AXIS, default="1.0"),
            _Key("omega", *_AXIS, default="0.0"),
            _Key("n", *_INT_AXIS, default="2"),
            _Key("seeds", *_SEEDS, default="0"),
            _Key("mode", _word("ode", "pde")),
            _Key("dt", *_FLOAT),
            _Key("t_end", *_FLOAT),
        ),
        target=SweepSpec,
    ),
)


def _decode_section(section: str, keys, raw, extras=None, unknown="unknown key") -> dict:
    """Attribute -> value for one section's text mapping raw. A key whose
    decoder returns None is left out, as is an absent key without a table
    default, so the target's own default applies."""
    names = {key.name for key in keys}
    for name in raw:
        if name not in names and (extras is None or not name.startswith(extras.name)):
            _fail(section, name, unknown)

    def decode(key: _Key, name: str, text: str):
        try:
            return key.decode(text)
        except ValueError as exc:
            _fail(section, name, str(exc))

    values = {}
    for key in keys:
        text = raw.get(key.name, key.default)
        if text is None:
            if key.required:
                _fail(section, key.name, "missing required value")
            continue
        value = decode(key, key.name, text)
        if value is not None:
            values[key.attr] = value
    if extras is not None:
        values[extras.attr] = {
            name[len(extras.name) :]: decode(extras, name, raw[name])
            for name in raw
            if name not in names
        }
    return values


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc

    names = tuple(spec.name for spec in _SCHEMA)
    for section in parser.sections():
        if section not in names:
            raise ConfigurationError(
                f"{source}: unknown section [{section}]; expected one of {names}"
            )
    if not parser.has_section("scenario"):
        parser.add_section("scenario")  # so a missing name fails like any required key

    fields: dict = {}
    for spec in _SCHEMA:
        if not parser.has_section(spec.name):
            continue
        values = _decode_section(spec.name, spec.keys, parser[spec.name], spec.extras)
        if spec.target is None:
            fields.update(values)
            continue
        try:
            fields[spec.name] = spec.target(**values)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[{spec.name}] {exc}") from exc
    sc = Scenario(**fields)

    if sc.frequencies is not None and sc.lam is not None:
        _fail("model", "frequencies", "give either frequencies or lam, not both")
    if sc.frequencies is not None and len(sc.frequencies) != sc.n:
        _fail("model", "frequencies", f"expected {sc.n} values, got {len(sc.frequencies)}")
    if sc.lam is not None and sc.n != 2:
        _fail("model", "lam", "the lam shorthand needs n = 2")
    if sc.lam is not None and sc.lam < 0:
        _fail("model", "lam", "must be >= 0")
    if parser.has_option("ode", "coherence") and sc.ode.gram != "random":
        _fail("ode", "coherence", "only biases gram = random")
    return sc


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, source=str(path))


def render_scenario(sc: Scenario) -> str:
    """Canonical text form of a resolved scenario; parses back to the same
    Scenario, which is what makes manifests re-runnable."""
    out = []
    for spec in _SCHEMA:
        obj = sc if spec.target is None else getattr(sc, spec.name)
        if obj is None:
            continue
        rows = [
            (key.name, key.encode(value))
            for key in spec.keys
            if (value := getattr(obj, key.attr)) is not None and value != ()
        ]
        if spec.extras is not None:
            extra = getattr(obj, spec.extras.attr)
            rows += [(spec.extras.name + k, spec.extras.encode(extra[k])) for k in sorted(extra)]
        if spec.name == "ode" and obj.gram != "random":  # coherence only biases gram = random
            rows = [row for row in rows if row[0] != "coherence"]
        if rows:
            out.append(f"[{spec.name}]\n" + "".join(f"{k} = {v}\n" for k, v in rows) + "\n")
    return "".join(out)


def build_grid(sc: Scenario) -> GridSpec:
    return GridSpec(dim=sc.grid_dim, points=sc.grid_points, length=sc.grid_length)


def resolved_frequencies(sc: Scenario) -> tuple[float, ...]:
    if sc.frequencies is not None:
        return sc.frequencies
    if sc.lam is not None:
        omega = 0.5 * sc.lam * sc.coupling
        return (omega, -omega)
    return (0.0,) * sc.n


def build_model(sc: Scenario, grid: GridSpec) -> ModelConfig:
    potential = build_potential(grid, sc.potential_kind, **sc.potential_params)
    return ModelConfig(
        coupling=sc.coupling,
        frequencies=resolved_frequencies(sc),
        potential=potential,
    )


def build_ensemble(sc: Scenario, grid: GridSpec) -> EnsembleState:
    """Construct the PDE initial ensemble a scenario asks for."""
    if sc.initial_kind is None:
        raise ConfigurationError("scenario has no [initial] section for a PDE run")
    builder, keys = _FAMILIES[sc.initial_kind]
    kwargs = _decode_section(
        "initial", keys, sc.initial_params, unknown=f"unknown key for kind {sc.initial_kind}"
    )
    return builder(sc, grid, **kwargs)


def build_ode_initial(sc: Scenario, config: ModelConfig):
    """Initial condition for a correlation-level run.

    system=two: a complex z(0) (the string "unstable" resolves to the
    repelling fixed point of the current parameters). full/fg: either an
    explicit gram choice or, absent that, the Gram matrix of the scenario's
    PDE ensemble when one is defined.
    """
    ode = sc.ode
    if ode is None:
        raise ConfigurationError("scenario has no [ode] section")
    if ode.system == "two":
        if ode.z0 is None:
            raise ConfigurationError("[ode] z0 is required for system = two")
        if ode.z0 == "unstable":
            n = config.n_oscillators
            if n != 2:
                raise ConfigurationError(f"z0 = unstable needs n = 2, got n = {n}")
            regime = classify_pair(config.coupling, config.frequencies)
            if regime.unstable_point is None:
                raise ConfigurationError("no repelling point exists for lam > 1")
            return regime.unstable_point
        return ode.z0
    if ode.gram == "ones":
        return np.ones((sc.n, sc.n), dtype=np.complex128)
    if ode.gram == "random":
        return random_correlation_matrix(sc.n, sc.seed, coherence=ode.coherence)
    if sc.initial_kind is not None:
        grid = build_grid(sc)
        return CorrelationState.from_ensemble(build_ensemble(sc, grid))
    raise ConfigurationError("[ode] needs z0, gram, or an [initial] ensemble to start from")


def integrate_ode(sc: Scenario, config: ModelConfig) -> CorrelationSeries:
    """The scenario's [ode] run: build_ode_initial integrated under config,
    with the section's dt, t_end, sample_stride and self_check."""
    ode = sc.ode
    return integrate(
        ode.system,
        build_ode_initial(sc, config),
        config,
        ode.dt,
        ode.t_end,
        sample_stride=ode.sample_stride,
        self_check=ode.self_check,
    )
