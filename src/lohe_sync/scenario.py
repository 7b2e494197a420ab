"""Scenario files: the sectioned key-value grammar the CLI consumes.

A scenario is an INI document. Unknown sections and keys are rejected so
typos fail loudly instead of silently running defaults.

    [scenario]
    name = two_osc_lambda075     # required; names output directories
    seed = 2024                  # optional, default 0

    [grid]                       # all optional
    dim = 1                      # 1..3, default 1
    points = 256                 # per axis, power of two, default 256
    length = 20.0                # box side, default 20.0

    [model]
    n = 2                        # oscillator count
    coupling = 1.0               # K >= 0
    frequencies = 0.375, -0.375  # N values, or for N = 2:
    # lam = 0.75                 # shorthand for the mirrored pair (lam*K/2, -lam*K/2)
    potential = zero             # zero | cosine | barrier, default zero
    # potential.amplitude = 1.0  # extra parameters as potential.<name>
    # potential.offset = 1.0

    [initial]                    # PDE ensembles
    kind = gaussian_pair         # perturbed_gaussians | gaussian_pair | overlap_pair |
                                 # incoherent_pair | plane_waves | snapshot
    separation = 2.0             # remaining keys are passed to the family builder
    # path = run/state.slw       # (snapshot kind)
    # modes = 1, 2, -1           # (plane_waves kind)

    [ode]                        # correlation-level runs
    system = two                 # two | full | fg
    dt = 1e-3
    t_end = 20.0
    sample_stride = 20
    self_check = false
    z0 = 0.3+0.2j                # system=two: complex literal, or "unstable"
    # gram = random              # full/fg: random | ones  (random uses the seed)
    # coherence = 0.5            # bias for gram = random

    [solver]                     # PDE stepping
    scheme = strang_rk4          # strang_rk4 | full_rk4
    dt = 1e-3
    t_end = 20.0
    snapshot_stride = 20
    renormalize = false

    [outputs]
    formats = ndjson             # any of ndjson, csv
    final_snapshot = false
    diagnostics = true

    [verify]
    checks = mass:1e-9, two_exact:1e-6

    [sweep]
    coupling = 1.0               # each axis: comma list or start:stop:step
    omega = 0:1:0.1
    n = 2
    seeds = 0
    mode = ode                   # ode | pde (pde cells use [grid], the
                                 # potential and [initial] with each n, seed)
    t_end = 20.0
    dt = 1e-3

Values follow Python literal conventions for floats and complex numbers.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

import numpy as np

from .core import EnsembleState, GridSpec, ModelConfig
from .correlations import CorrelationState, random_correlation_matrix
from .errors import ConfigurationError
from .initial_data import (
    gaussian_pair,
    incoherent_pair,
    overlap_pair,
    perturbed_gaussians,
    plane_waves,
)
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
]

_SECTIONS = ("scenario", "grid", "model", "initial", "ode", "solver", "outputs", "verify", "sweep")

_PDE_KINDS = (
    "perturbed_gaussians",
    "gaussian_pair",
    "overlap_pair",
    "incoherent_pair",
    "plane_waves",
    "snapshot",
)


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


def _fail(section: str, key: str, message: str):
    raise ConfigurationError(f"[{section}] {key}: {message}")


def _get_float(sec, section: str, key: str, default=None) -> float:
    raw = sec.get(key)
    if raw is None:
        if default is None:
            _fail(section, key, "missing required value")
        return default
    try:
        return float(raw)
    except ValueError:
        _fail(section, key, f"expected a number, got {raw!r}")


def _get_int(sec, section: str, key: str, default=None) -> int:
    raw = sec.get(key)
    if raw is None:
        if default is None:
            _fail(section, key, "missing required value")
        return default
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"expected an integer, got {raw!r}")


def _get_bool(sec, section: str, key: str, default: bool) -> bool:
    raw = sec.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    _fail(section, key, f"expected a boolean, got {raw!r}")


def _float_list(raw: str, section: str, key: str) -> tuple[float, ...]:
    toks = [t for t in raw.replace(",", " ").split() if t]
    try:
        return tuple(float(t) for t in toks)
    except ValueError:
        _fail(section, key, f"expected numbers, got {raw!r}")


def _axis_values(raw: str, section: str, key: str, integer=False):
    """One sweep axis: a comma list, or an inclusive start:stop:step range."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            _fail(section, key, "range syntax is start:stop:step")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            _fail(section, key, f"expected numbers in range, got {raw!r}")
        if step <= 0:
            _fail(section, key, "range step must be positive")
        count = int(np.floor((stop - start) / step + 1e-6)) + 1
        # snap to a 1e-12 lattice so 0:1:0.1 lands on 1.0, not 0.999...9
        vals = tuple(round(start + i * step, 12) for i in range(max(count, 0)))
    else:
        vals = _float_list(raw, section, key)
    if integer:
        out = []
        for v in vals:
            if abs(v - round(v)) > 1e-9:
                _fail(section, key, f"expected integers, got {v}")
            out.append(int(round(v)))
        return tuple(out)
    return vals


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigurationError(
                f"{source}: unknown section [{section}]; expected one of {_SECTIONS}"
            )

    if "scenario" not in parser or "name" not in parser["scenario"]:
        raise ConfigurationError(f"{source}: [scenario] name is required")
    meta = parser["scenario"]
    for key in meta:
        if key not in ("name", "seed"):
            _fail("scenario", key, "unknown key")
    name = meta["name"].strip()
    seed = _get_int(meta, "scenario", "seed", 0)

    grid = parser["grid"] if "grid" in parser else {}
    if grid:
        for key in grid:
            if key not in ("dim", "points", "length"):
                _fail("grid", key, "unknown key")
    grid_dim = _get_int(grid, "grid", "dim", 1)
    grid_points = _get_int(grid, "grid", "points", 256)
    grid_length = _get_float(grid, "grid", "length", 20.0)

    model = parser["model"] if "model" in parser else {}
    potential_kind = "zero"
    potential_params: dict = {}
    frequencies = None
    lam = None
    n = 2
    coupling = 1.0
    if model:
        for key in model:
            if key in ("n", "coupling", "frequencies", "lam", "potential"):
                continue
            if key.startswith("potential."):
                continue
            _fail("model", key, "unknown key")
        n = _get_int(model, "model", "n", 2)
        coupling = _get_float(model, "model", "coupling", 1.0)
        if "frequencies" in model and "lam" in model:
            _fail("model", "frequencies", "give either frequencies or lam, not both")
        if "frequencies" in model:
            frequencies = _float_list(model["frequencies"], "model", "frequencies")
            if len(frequencies) != n:
                _fail("model", "frequencies", f"expected {n} values, got {len(frequencies)}")
        elif "lam" in model:
            if n != 2:
                _fail("model", "lam", "the lam shorthand needs n = 2")
            lam = _get_float(model, "model", "lam")
            if lam < 0:
                _fail("model", "lam", "must be >= 0")
        potential_kind = model.get("potential", "zero").strip()
        for key in model:
            if key.startswith("potential."):
                potential_params[key[len("potential.") :]] = _get_float(model, "model", key)

    initial_kind = None
    initial_params: dict = {}
    if "initial" in parser:
        init = parser["initial"]
        if "kind" not in init:
            _fail("initial", "kind", "missing required value")
        initial_kind = init["kind"].strip()
        if initial_kind not in _PDE_KINDS:
            _fail("initial", "kind", f"unknown family; expected one of {_PDE_KINDS}")
        for key in init:
            if key != "kind":
                initial_params[key] = init[key].strip()

    ode = None
    if "ode" in parser:
        sec = parser["ode"]
        for key in sec:
            if key not in (
                "system",
                "dt",
                "t_end",
                "sample_stride",
                "self_check",
                "z0",
                "gram",
                "coherence",
            ):
                _fail("ode", key, "unknown key")
        system = sec.get("system", "full").strip()
        if system not in ("full", "two", "fg"):
            _fail("ode", "system", f"expected full, two, or fg, got {system!r}")
        z0: complex | str | None = None
        if "z0" in sec:
            raw = sec["z0"].strip()
            if raw == "unstable":
                z0 = "unstable"
            else:
                try:
                    z0 = complex(raw.replace(" ", ""))
                except ValueError:
                    _fail("ode", "z0", f"expected a complex literal or 'unstable', got {raw!r}")
        gram = sec.get("gram")
        if gram is not None:
            gram = gram.strip()
            if gram not in ("random", "ones"):
                _fail("ode", "gram", f"expected random or ones, got {gram!r}")
        ode = OdeParams(
            system=system,
            dt=_get_float(sec, "ode", "dt", 1e-3),
            t_end=_get_float(sec, "ode", "t_end"),
            sample_stride=_get_int(sec, "ode", "sample_stride", 1),
            self_check=_get_bool(sec, "ode", "self_check", False),
            z0=z0,
            gram=gram,
            coherence=_get_float(sec, "ode", "coherence", 0.0),
        )

    solver = None
    if "solver" in parser:
        sec = parser["solver"]
        for key in sec:
            if key not in ("scheme", "dt", "t_end", "snapshot_stride", "renormalize"):
                _fail("solver", key, "unknown key")
        try:
            solver = SolverParams(
                dt=_get_float(sec, "solver", "dt", 1e-3),
                t_end=_get_float(sec, "solver", "t_end"),
                scheme=sec.get("scheme", "strang_rk4").strip(),
                renormalize_each_step=_get_bool(sec, "solver", "renormalize", False),
                snapshot_stride=_get_int(sec, "solver", "snapshot_stride", 1),
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"[solver] {exc}") from exc

    outputs = OutputSpec()
    if "outputs" in parser:
        sec = parser["outputs"]
        for key in sec:
            if key not in ("formats", "final_snapshot", "diagnostics"):
                _fail("outputs", key, "unknown key")
        formats = tuple(
            t for t in sec.get("formats", "ndjson").replace(",", " ").split() if t
        )
        for fmt in formats:
            if fmt not in ("ndjson", "csv"):
                _fail("outputs", "formats", f"unknown format {fmt!r}")
        outputs = OutputSpec(
            formats=formats or ("ndjson",),
            final_snapshot=_get_bool(sec, "outputs", "final_snapshot", False),
            diagnostics=_get_bool(sec, "outputs", "diagnostics", True),
        )

    checks: list[tuple[str, float]] = []
    if "verify" in parser:
        sec = parser["verify"]
        for key in sec:
            if key != "checks":
                _fail("verify", key, "unknown key")
        raw = sec.get("checks", "")
        for item in raw.replace("\n", ",").split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                _fail("verify", "checks", f"expected name:tolerance, got {item!r}")
            cname, tol = item.rsplit(":", 1)
            try:
                checks.append((cname.strip(), float(tol)))
            except ValueError:
                _fail("verify", "checks", f"bad tolerance in {item!r}")

    sweep = None
    if "sweep" in parser:
        sec = parser["sweep"]
        for key in sec:
            if key not in ("coupling", "omega", "n", "seeds", "mode", "dt", "t_end"):
                _fail("sweep", key, "unknown key")
        mode = sec.get("mode", "ode").strip()
        if mode not in ("ode", "pde"):
            _fail("sweep", "mode", f"expected ode or pde, got {mode!r}")
        sweep = SweepSpec(
            coupling=_axis_values(sec.get("coupling", "1.0"), "sweep", "coupling"),
            omega=_axis_values(sec.get("omega", "0.0"), "sweep", "omega"),
            n=_axis_values(sec.get("n", "2"), "sweep", "n", integer=True),
            seeds=_axis_values(sec.get("seeds", "0"), "sweep", "seeds", integer=True),
            mode=mode,
            dt=_get_float(sec, "sweep", "dt", 1e-3),
            t_end=_get_float(sec, "sweep", "t_end", 20.0),
        )

    return Scenario(
        name=name,
        seed=seed,
        grid_dim=grid_dim,
        grid_points=grid_points,
        grid_length=grid_length,
        n=n,
        coupling=coupling,
        frequencies=frequencies,
        lam=lam,
        potential_kind=potential_kind,
        potential_params=potential_params,
        initial_kind=initial_kind,
        initial_params=initial_params,
        ode=ode,
        solver=solver,
        outputs=outputs,
        checks=tuple(checks),
        sweep=sweep,
    )


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
    out = io.StringIO()

    def sec(header, pairs):
        rows = [(k, v) for k, v in pairs if v is not None]
        if not rows:
            return
        out.write(f"[{header}]\n")
        for k, v in rows:
            out.write(f"{k} = {v}\n")
        out.write("\n")

    sec("scenario", [("name", sc.name), ("seed", sc.seed)])
    sec("grid", [("dim", sc.grid_dim), ("points", sc.grid_points), ("length", repr(sc.grid_length))])
    model_rows = [("n", sc.n), ("coupling", repr(sc.coupling))]
    if sc.frequencies is not None:
        model_rows.append(("frequencies", ", ".join(repr(w) for w in sc.frequencies)))
    if sc.lam is not None:
        model_rows.append(("lam", repr(sc.lam)))
    model_rows.append(("potential", sc.potential_kind))
    for k in sorted(sc.potential_params):
        model_rows.append((f"potential.{k}", repr(sc.potential_params[k])))
    sec("model", model_rows)
    if sc.initial_kind is not None:
        rows = [("kind", sc.initial_kind)]
        rows.extend((k, sc.initial_params[k]) for k in sorted(sc.initial_params))
        sec("initial", rows)
    if sc.ode is not None:
        o = sc.ode
        z0 = None
        if o.z0 is not None:
            z0 = o.z0 if isinstance(o.z0, str) else repr(o.z0).strip("()")
        sec(
            "ode",
            [
                ("system", o.system),
                ("dt", repr(o.dt)),
                ("t_end", repr(o.t_end)),
                ("sample_stride", o.sample_stride),
                ("self_check", str(o.self_check).lower()),
                ("z0", z0),
                ("gram", o.gram),
                ("coherence", repr(o.coherence) if o.gram == "random" else None),
            ],
        )
    if sc.solver is not None:
        s = sc.solver
        sec(
            "solver",
            [
                ("scheme", s.scheme),
                ("dt", repr(s.dt)),
                ("t_end", repr(s.t_end)),
                ("snapshot_stride", s.snapshot_stride),
                ("renormalize", str(s.renormalize_each_step).lower()),
            ],
        )
    sec(
        "outputs",
        [
            ("formats", ", ".join(sc.outputs.formats)),
            ("final_snapshot", str(sc.outputs.final_snapshot).lower()),
            ("diagnostics", str(sc.outputs.diagnostics).lower()),
        ],
    )
    if sc.checks:
        sec("verify", [("checks", ", ".join(f"{nm}:{tol!r}" for nm, tol in sc.checks))])
    if sc.sweep is not None:
        w = sc.sweep
        sec(
            "sweep",
            [
                ("coupling", ", ".join(repr(v) for v in w.coupling)),
                ("omega", ", ".join(repr(v) for v in w.omega)),
                ("n", ", ".join(str(v) for v in w.n)),
                ("seeds", ", ".join(str(v) for v in w.seeds)),
                ("mode", w.mode),
                ("dt", repr(w.dt)),
                ("t_end", repr(w.t_end)),
            ],
        )
    return out.getvalue()


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


def _param_float(params: dict, key: str, default: float) -> float:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        _fail("initial", key, f"expected a number, got {raw!r}")


def build_ensemble(sc: Scenario, grid: GridSpec) -> EnsembleState:
    """Construct the PDE initial ensemble a scenario asks for."""
    kind = sc.initial_kind
    if kind is None:
        raise ConfigurationError("scenario has no [initial] section for a PDE run")
    p = sc.initial_params
    known: dict[str, tuple[str, ...]] = {
        "perturbed_gaussians": ("sigma", "epsilon", "max_mode"),
        "gaussian_pair": ("separation", "sigma", "momentum_kick"),
        "overlap_pair": ("overlap", "sigma"),
        "incoherent_pair": ("sigma",),
        "plane_waves": ("modes",),
        "snapshot": ("path",),
    }
    for key in p:
        if key not in known[kind]:
            _fail("initial", key, f"unknown key for kind {kind}")
    if kind == "perturbed_gaussians":
        return perturbed_gaussians(
            grid,
            sc.n,
            sc.seed,
            sigma=_param_float(p, "sigma", 1.5),
            epsilon=_param_float(p, "epsilon", 0.25),
            max_mode=int(_param_float(p, "max_mode", 6)),
        )
    if kind == "gaussian_pair":
        return gaussian_pair(
            grid,
            separation=_param_float(p, "separation", 2.0),
            sigma=_param_float(p, "sigma", 1.5),
            momentum_kick=_param_float(p, "momentum_kick", 0.0),
        )
    if kind == "overlap_pair":
        raw = p.get("overlap", "0.5")
        try:
            z0 = complex(raw.replace(" ", ""))
        except ValueError:
            _fail("initial", "overlap", f"expected a complex literal, got {raw!r}")
        return overlap_pair(grid, overlap=z0, sigma=_param_float(p, "sigma", 1.5))
    if kind == "incoherent_pair":
        return incoherent_pair(grid, sigma=_param_float(p, "sigma", 1.5))
    if kind == "plane_waves":
        raw = p.get("modes")
        if raw is None:
            _fail("initial", "modes", "missing required value")
        try:
            modes = [int(t) for t in raw.replace(",", " ").split()]
        except ValueError:
            _fail("initial", "modes", f"expected integers, got {raw!r}")
        return plane_waves(grid, modes)
    if kind == "snapshot":
        path = p.get("path")
        if path is None:
            _fail("initial", "path", "missing required value")
        state = read_snapshot(path)
        if state.grid != grid:
            raise ConfigurationError(
                "snapshot grid does not match the scenario grid "
                f"({state.grid} vs {grid})"
            )
        return state
    raise ConfigurationError(f"unhandled initial kind {kind!r}")


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
            from .oracles import classify_two

            w1, w2 = config.frequencies
            regime = classify_two(config.coupling, 0.5 * (w1 - w2))
            if regime.unstable_point is None:
                raise ConfigurationError("no repelling point exists for lam > 1")
            return regime.unstable_point
        return ode.z0
    if ode.gram == "ones":
        return CorrelationState(0.0, np.ones((sc.n, sc.n), dtype=np.complex128))
    if ode.gram == "random":
        return CorrelationState(
            0.0, random_correlation_matrix(sc.n, sc.seed, coherence=ode.coherence)
        )
    if sc.initial_kind is not None:
        grid = build_grid(sc)
        return CorrelationState.from_ensemble(build_ensemble(sc, grid))
    raise ConfigurationError("[ode] needs z0, gram, or an [initial] ensemble to start from")
