"""Experiment configuration: INI-style files -> validated component specs.

A config file has flat key = value sections:

    [schedule]
    kind = scaled-linear
    beta_start = 0.00085
    beta_end = 0.012
    train_steps = 1000
    num_steps = 50

    [ladder]
    preset = paper-2048          ; or the explicit seven ladder keys
    resolutions = 16x16, 32x32

    [denoiser]
    kind = gaussian              ; gaussian | dataset
    mean_value = 0.0
    variance = 1.0

    [codec]
    kind = identity              ; identity | external
    resize_method = bilinear     ; bilinear | nearest

    [run]
    variant = rectified
    seed = 7
    run_count = 1
    snapshot_steps =             ; empty, "all", or comma-separated steps
    output_dir = out

    [energy]                     ; energy-curve command only
    variants = baseline, rectified
    omegas =                     ; optional sweep of flat guidance scales

Validation is total: any unknown section or key, and any value outside its
domain, raises :class:`ConfigError` naming the offending field.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import RESIZE_METHODS, ExternalCodec, IdentityCodec
from .denoiser import UNCONDITIONAL, Condition, DatasetPrior, Denoiser, GaussianPrior
from .errors import ConfigError, TensorFormatError
from .latent import LatentGrid
from .sampler import VARIANTS
from .schedule import (
    LadderConfig,
    NoiseSchedule,
    SamplerTimeline,
    build_schedule,
    build_timeline,
    ladder_preset,
)
from .tensorfile import read_tensor

__all__ = ["ExperimentConfig", "load_config", "check_seed_range", "build_denoiser", "build_codec"]

CURVE_LABELS = (*VARIANTS, "native-baseline", "rectified-no-rect")

_LADDER_KEYS = ("t_min", "t_max", "n_stages", "m_t", "omega_min", "omega_max", "m_omega")


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    beta_start: float
    beta_end: float
    train_steps: int
    num_steps: int


@dataclass(frozen=True)
class DenoiserSpec:
    kind: str
    mean_value: float = 0.0
    variance: float = 1.0
    path: str = ""
    conditional: bool = False


@dataclass(frozen=True)
class CodecSpec:
    kind: str
    command: str = ""
    granularity: int = 1
    resize_method: str = "bilinear"


@dataclass(frozen=True)
class RunSpec:
    variant: str = "baseline"
    seed: int = 0
    run_count: int = 1
    snapshot_steps: tuple[int, ...] | str | None = None  # None, "all", or explicit steps
    output_dir: str = "out"


@dataclass(frozen=True)
class EnergySpec:
    variants: tuple[str, ...] = ()
    omegas: tuple[float, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    schedule: ScheduleSpec
    ladder: LadderConfig
    denoiser: DenoiserSpec = field(default_factory=lambda: DenoiserSpec(kind="gaussian"))
    codec: CodecSpec = field(default_factory=lambda: CodecSpec(kind="identity"))
    run: RunSpec = field(default_factory=RunSpec)
    energy: EnergySpec = field(default_factory=EnergySpec)

    def build_schedule(self) -> NoiseSchedule:
        return build_schedule(
            self.schedule.kind,
            self.schedule.beta_start,
            self.schedule.beta_end,
            self.schedule.train_steps,
        )

    def build_timeline(self, schedule: NoiseSchedule | None = None) -> SamplerTimeline:
        return build_timeline(schedule or self.build_schedule(), self.schedule.num_steps)


class _Section:
    """One config section with typed, field-naming accessors."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items
        self.seen: set[str] = set()

    def get(self, key: str, default: str | None = None) -> str | None:
        self.seen.add(key)
        value = self.items.get(key, default)
        if value is not None:
            value = value.strip()
        return value

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None or value == "":
            raise ConfigError(f"{self.name}.{key}: required key is missing")
        return value

    def get_int(self, key: str, default: int | None = None) -> int:
        raw = self.get(key)
        if raw is None or raw == "":
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not an integer: {raw!r}") from None

    def get_float(self, key: str, default: float | None = None) -> float:
        raw = self.get(key)
        if raw is None or raw == "":
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not a number: {raw!r}") from None

    def get_bool(self, key: str, default: bool) -> bool:
        raw = self.get(key)
        if raw is None or raw == "":
            return default
        lowered = raw.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{self.name}.{key}: not a boolean: {raw!r}")

    def reject_unknown(self):
        unknown = set(self.items) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.name}.{key}: unknown key")


def _parse_resolutions(section: _Section) -> tuple[tuple[int, int], ...]:
    raw = section.require("resolutions")
    out = []
    for token in raw.split(","):
        token = token.strip()
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(
                f"{section.name}.resolutions: expected HxW entries, got {token!r}"
            )
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(
                f"{section.name}.resolutions: expected HxW entries, got {token!r}"
            ) from None
    return tuple(out)


def _parse_ladder(section: _Section) -> LadderConfig:
    resolutions = _parse_resolutions(section)
    preset = section.get("preset")
    explicit = [k for k in _LADDER_KEYS if section.items.get(k, "").strip()]
    if preset:
        if explicit:
            raise ConfigError(
                f"ladder.preset: preset and explicit ladder keys are mutually "
                f"exclusive (found {explicit[0]})"
            )
        for k in _LADDER_KEYS:
            section.seen.add(k)
        return ladder_preset(preset, resolutions)
    return LadderConfig(
        t_min=section.get_int("t_min"),
        t_max=section.get_int("t_max"),
        n_stages=section.get_int("n_stages"),
        m_t=section.get_float("m_t"),
        omega_min=section.get_float("omega_min"),
        omega_max=section.get_float("omega_max"),
        m_omega=section.get_float("m_omega"),
        resolutions=resolutions,
    )


def _parse_snapshot_steps(section: _Section) -> tuple[int, ...] | str | None:
    raw = section.get("snapshot_steps")
    if raw is None or raw == "":
        return None
    if raw.lower() == "all":
        return "all"
    steps = []
    for token in raw.split(","):
        try:
            steps.append(int(token.strip()))
        except ValueError:
            raise ConfigError(
                f"run.snapshot_steps: expected 'all' or comma-separated integers, got {token!r}"
            ) from None
    return tuple(steps)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a config file."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc

    known_sections = ("schedule", "ladder", "denoiser", "codec", "run", "energy")
    for name in parser.sections():
        if name not in known_sections:
            raise ConfigError(f"{name}: unknown section")
    for name in ("schedule", "ladder"):
        if name not in parser:
            raise ConfigError(f"{name}: required section is missing")

    def section(name: str) -> _Section:
        return _Section(name, dict(parser[name]) if name in parser else {})

    sched = section("schedule")
    schedule_spec = ScheduleSpec(
        kind=sched.get("kind", "scaled-linear"),
        beta_start=sched.get_float("beta_start", 0.00085),
        beta_end=sched.get_float("beta_end", 0.012),
        train_steps=sched.get_int("train_steps", 1000),
        num_steps=sched.get_int("num_steps"),
    )
    sched.reject_unknown()
    # The schedule module owns the schedule rules; building once applies them all.
    s = schedule_spec
    build_timeline(build_schedule(s.kind, s.beta_start, s.beta_end, s.train_steps), s.num_steps)

    ladder_sec = section("ladder")
    ladder = _parse_ladder(ladder_sec)
    ladder_sec.reject_unknown()

    den = section("denoiser")
    den_kind = den.get("kind", "gaussian")
    if den_kind == "gaussian":
        denoiser_spec = DenoiserSpec(
            kind="gaussian",
            mean_value=den.get_float("mean_value", 0.0),
            variance=den.get_float("variance", 1.0),
        )
        if denoiser_spec.variance <= 0:
            raise ConfigError(f"denoiser.variance: must be > 0, got {denoiser_spec.variance}")
    elif den_kind == "dataset":
        denoiser_spec = DenoiserSpec(
            kind="dataset",
            path=den.require("path"),
            conditional=den.get_bool("conditional", False),
        )
    else:
        raise ConfigError(f"denoiser.kind: unknown kind {den_kind!r}, expected gaussian or dataset")
    den.reject_unknown()

    cod = section("codec")
    cod_kind = cod.get("kind", "identity")
    resize_method = cod.get("resize_method", "bilinear")
    if resize_method not in RESIZE_METHODS:
        raise ConfigError(
            f"codec.resize_method: unknown method {resize_method!r}, expected one of {RESIZE_METHODS}"
        )
    if cod_kind == "identity":
        codec_spec = CodecSpec(kind="identity", resize_method=resize_method)
    elif cod_kind == "external":
        codec_spec = CodecSpec(
            kind="external",
            command=cod.require("command"),
            granularity=cod.get_int("granularity", 8),
            resize_method=resize_method,
        )
        if codec_spec.granularity < 1:
            raise ConfigError(f"codec.granularity: must be >= 1, got {codec_spec.granularity}")
    else:
        raise ConfigError(f"codec.kind: unknown kind {cod_kind!r}, expected identity or external")
    cod.reject_unknown()
    for i, (h, w) in enumerate(ladder.resolutions):
        if h % codec_spec.granularity or w % codec_spec.granularity:
            raise ConfigError(
                f"ladder.resolutions: stage {i} ({h}, {w}) not divisible by "
                f"codec granularity {codec_spec.granularity}"
            )

    run_sec = section("run")
    variant = run_sec.get("variant", "baseline")
    if variant not in VARIANTS:
        raise ConfigError(f"run.variant: unknown variant {variant!r}, expected one of {VARIANTS}")
    run_spec = RunSpec(
        variant=variant,
        seed=run_sec.get_int("seed", 0),
        run_count=run_sec.get_int("run_count", 1),
        snapshot_steps=_parse_snapshot_steps(run_sec),
        output_dir=run_sec.get("output_dir", "out"),
    )
    run_sec.reject_unknown()
    if run_spec.run_count < 1:
        raise ConfigError(f"run.run_count: must be >= 1, got {run_spec.run_count}")
    check_seed_range(run_spec.seed, run_spec.run_count)
    if isinstance(run_spec.snapshot_steps, tuple):
        for s in run_spec.snapshot_steps:
            if not 0 <= s < schedule_spec.num_steps:
                raise ConfigError(
                    f"run.snapshot_steps: step {s} outside [0, {schedule_spec.num_steps})"
                )

    en = section("energy")
    variants_raw = en.get("variants", "")
    curve_variants = tuple(v.strip() for v in variants_raw.split(",") if v.strip())
    for v in curve_variants:
        if v not in CURVE_LABELS:
            raise ConfigError(
                f"energy.variants: unknown variant {v!r}, expected one of {CURVE_LABELS}"
            )
    omegas_raw = en.get("omegas", "")
    omegas = []
    for token in omegas_raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            omegas.append(float(token))
        except ValueError:
            raise ConfigError(f"energy.omegas: not a number: {token!r}") from None
    en.reject_unknown()
    energy_spec = EnergySpec(variants=curve_variants, omegas=tuple(omegas))

    config = ExperimentConfig(
        schedule=schedule_spec,
        ladder=ladder,
        denoiser=denoiser_spec,
        codec=codec_spec,
        run=run_spec,
        energy=energy_spec,
    )
    # Surface ladder-vs-run inconsistencies at load time rather than mid-run.
    if ladder.t_max > schedule_spec.num_steps:
        raise ConfigError(
            f"ladder.t_max: must be <= schedule.num_steps, "
            f"got {ladder.t_max} > {schedule_spec.num_steps}"
        )
    return config


def check_seed_range(seed: int, run_count: int) -> None:
    """Require every run seed, ``seed + i`` for ``i < run_count``, to fit in 64 unsigned bits."""
    if not 0 <= seed <= seed + run_count - 1 < 2**64:
        raise ConfigError(
            f"run.seed: every run seed must fit in an unsigned 64-bit value, "
            f"got {seed} with run_count {run_count}"
        )


def build_denoiser(
    config: ExperimentConfig, timeline: SamplerTimeline, base_dir: str | Path = "."
) -> tuple[Denoiser, Condition]:
    """Instantiate the configured denoiser and the run's condition.

    A dataset prior loads its points from a rank-4 (points, C, H, W) tensor
    file resolved relative to ``base_dir``. When ``conditional`` is set,
    points get alternating class labels 0, 1, 0, 1, ... and runs condition
    on class 0; otherwise all points share class 0 and runs are
    unconditional.
    """
    spec = config.denoiser
    if spec.kind == "gaussian":
        h, w = config.ladder.resolutions[0]
        mean = LatentGrid.full(4, h, w, spec.mean_value)
        return GaussianPrior(mean, spec.variance, timeline), UNCONDITIONAL
    path = Path(spec.path)
    if not path.is_absolute():
        path = Path(base_dir) / path
    try:
        arr = read_tensor(path)
    except (OSError, TensorFormatError) as exc:
        raise ConfigError(f"denoiser.path: cannot load dataset tensor: {exc}") from exc
    if arr.ndim != 4:
        raise ConfigError(
            f"denoiser.path: dataset tensor must be rank-4 (points, C, H, W), got rank {arr.ndim}"
        )
    points = [LatentGrid(arr[i].astype(np.float64)) for i in range(arr.shape[0])]
    if spec.conditional:
        labels = [i % 2 for i in range(len(points))]
        condition = Condition(label=0)
    else:
        labels = [0] * len(points)
        condition = UNCONDITIONAL
    return DatasetPrior(points, labels, timeline), condition


def build_codec(config: ExperimentConfig, workdir: str | Path | None = None):
    if config.codec.kind == "identity":
        return IdentityCodec()
    return ExternalCodec(
        config.codec.command, workdir=workdir, granularity=config.codec.granularity
    )
