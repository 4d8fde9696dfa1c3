"""Plain-text run configuration: [section] headers with key = value lines.

Unknown sections or keys are hard errors; parsing then re-serializing is
lossless up to canonical formatting.
"""

from dataclasses import dataclass, field, fields

from .polybasis import MAX_DEGREE


class ConfigError(ValueError):
    pass


@dataclass
class ProblemConfig:
    preset: str = "plastic-square"
    alpha: float = 1.5
    pull: float = 0.6
    shear: float = 0.12


@dataclass
class MaterialConfig:
    lam: float = 10.0
    mu: float = 5.0
    hardening: float = 1.0
    yield_stress: float = 0.35


@dataclass
class MeshConfig:
    initial_cells: int = 2
    initial_refinements: int = 0
    degree: int = 1


@dataclass
class RunSection:
    loop: str = "plastic-estimator"
    theta: float = 0.5
    max_dofs: int = 200000
    max_iterations: int = 8
    tol: float = 0.0


@dataclass
class NewtonSection:
    rho: float = 0.0  # 0 means the material scale 2 mu + hardening
    tol: float = 1e-11
    max_iter: int = 60


@dataclass
class RunConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    material: MaterialConfig = field(default_factory=MaterialConfig)
    mesh: MeshConfig = field(default_factory=MeshConfig)
    run: RunSection = field(default_factory=RunSection)
    newton: NewtonSection = field(default_factory=NewtonSection)


_LOOPS = ("plastic-estimator", "elliptic-predictor", "uniform-h", "uniform-p")
# (section, key, least, largest or None) of the integer keys with a range
_RANGES = (("mesh", "initial_cells", 1, None), ("mesh", "initial_refinements", 0, None),
           ("mesh", "degree", 1, MAX_DEGREE), ("run", "max_iterations", 1, None),
           ("newton", "max_iter", 1, None))


def parse_config(text):
    cfg = RunConfig()
    sections = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    current = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = sections[name]
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (s.strip() for s in line.split("=", 1))
        names = {f.name: f for f in fields(current)}
        if key not in names:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        kind = type(getattr(current, key))
        try:
            if kind is int:
                setattr(current, key, int(value))
            elif kind is float:
                setattr(current, key, float(value))
            else:
                setattr(current, key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {value}") from exc
    if cfg.run.loop not in _LOOPS:
        raise ConfigError(f"unknown loop '{cfg.run.loop}' (choose from {_LOOPS})")
    if not 0.0 < cfg.run.theta <= 1.0:
        raise ConfigError("theta must be in (0, 1]")
    for name, key, lo, hi in _RANGES:
        value = getattr(getattr(cfg, name), key)
        if value < lo or hi is not None and value > hi:
            raise ConfigError(f"[{name}] {key} = {value} must be "
                              + (f"at least {lo}" if hi is None else f"in {lo}..{hi}"))
    tol, rho, inf = cfg.newton.tol, cfg.newton.rho, float("inf")
    for key, value, ok, bound in (("tol", tol, 0.0 < tol < inf, "above 0"),
                                  ("rho", rho, 0.0 <= rho < inf, "of at least 0")):
        if not ok:
            raise ConfigError(f"[newton] {key} = {value} must be a finite number {bound}")
    return cfg


def dump_config(cfg):
    out = []
    for f in fields(cfg):
        section = getattr(cfg, f.name)
        out.append(f"[{f.name}]")
        for g in fields(section):
            out.append(f"{g.name} = {getattr(section, g.name)}")
        out.append("")
    return "\n".join(out)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())
