"""Experiment configuration: INI-style files -> validated component specs.

A config file has flat key = value sections:

    [schedule]
    num_steps = 50               ; sampling steps over the fixed training schedule

    [ladder]
    preset = paper-2048          ; or the explicit seven ladder keys
    resolutions = 16x16, 32x32

    [denoiser]
    kind = gaussian              ; gaussian | dataset
    mean_value = 0.0
    variance = 1.0

    [codec]
    kind = identity              ; identity | external

    [run]
    variant = rectified          ; one of sampler.VARIANTS, as is each energy.variants entry
    seed = 7
    run_count = 1
    snapshot_steps =             ; empty, "all", or comma-separated steps

    [energy]                     ; energy-curve command only
    variants = baseline, rectified
    omegas =                     ; optional sweep of flat guidance scales

An absent or empty key takes its default. The output directory is not a
key: it is the command line's ``--out``. Validation is total: any unknown
section or key, any missing required key, any empty entry of a comma list,
any non-finite number and any value outside its domain raises
:class:`ConfigError` naming the offending field (for a ladder whose
stages collide, the stages).
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codec import ExternalCodec, IdentityCodec
from .denoiser import DatasetPrior, Denoiser, GaussianPrior
from .errors import ConfigError, TensorFormatError
from .sampler import VARIANTS
from .schedule import (
    LadderConfig,
    NoiseSchedule,
    SamplerTimeline,
    build_plan,
    build_schedule,
    build_timeline,
    ladder_preset,
)
from .tensorfile import read_tensor

__all__ = ["ExperimentConfig", "load_config", "build_denoiser", "build_codec"]

_LADDER_KEYS = ("t_min", "t_max", "n_stages", "m_t", "omega_min", "omega_max", "m_omega")


class ScheduleSpec(NamedTuple):
    num_steps: int


class DenoiserSpec(NamedTuple):
    kind: str
    mean_value: float = 0.0
    variance: float = 1.0
    path: str = ""  # dataset tensor, resolved against the config file's directory
    conditional: bool = False


class CodecSpec(NamedTuple):
    kind: str
    command: str = ""
    granularity: int = 1


class RunSpec(NamedTuple):
    variant: str = "baseline"
    seed: int = 0
    run_count: int = 1
    snapshot_steps: tuple[int, ...] = ()


class EnergySpec(NamedTuple):
    variants: tuple[str, ...] = ()
    omegas: tuple[float, ...] = ()


class ExperimentConfig(NamedTuple):
    schedule: ScheduleSpec
    ladder: LadderConfig
    denoiser: DenoiserSpec = DenoiserSpec(kind="gaussian")
    codec: CodecSpec = CodecSpec(kind="identity")
    run: RunSpec = RunSpec()
    energy: EnergySpec = EnergySpec()

    def build_schedule(self) -> NoiseSchedule:
        return build_schedule()

    def build_timeline(self) -> SamplerTimeline:
        return build_timeline(self.build_schedule(), self.schedule.num_steps)


def _boolean(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES  # true/false, yes/no, on/off, 1/0
    if raw.lower() not in states:
        raise ValueError(raw)
    return states[raw.lower()]


def _resolution(raw: str) -> tuple[int, int]:
    h, w = raw.lower().split("x")
    return int(h), int(w)


# What each parser expects, named by the error for a value it cannot read.
_EXPECTED = {
    int: "an integer", float: "a number", _boolean: "a boolean", _resolution: "an HxW entry"
}


class _Section:
    """One config section read through field-naming, typed readers."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items
        self.seen: set[str] = set()

    def value(self, key: str, parse=str, default=None):
        """``key`` read by ``parse``; an absent or empty key gives ``default``,
        and is a missing required key when ``default`` is None."""
        self.seen.add(key)
        raw = self.items.get(key, "").strip()
        if not raw:
            if default is None:
                raise ConfigError(f"{self.name}.{key}: required key is missing")
            return default
        return self._parse(key, parse, raw)

    def values(self, key: str, parse=str) -> tuple:
        """The comma-separated entries of ``key``, each read by ``parse``; an
        absent or empty key has none, and an empty entry is an error."""
        raw = self.value(key, str, "")
        entries = [token.strip() for token in raw.split(",")] if raw else []
        if "" in entries:
            raise ConfigError(f"{self.name}.{key}: empty entry in {raw!r}")
        return tuple(self._parse(key, parse, token) for token in entries)

    def _parse(self, key: str, parse, raw: str):
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not {_EXPECTED[parse]}: {raw!r}") from None
        if parse is float and not math.isfinite(value):
            raise ConfigError(f"{self.name}.{key}: must be finite, got {raw!r}")
        return value

    def reject_unknown(self):
        unknown = set(self.items) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{self.name}.{key}: unknown key")


def _parse_ladder(section: _Section) -> LadderConfig:
    resolutions = section.values("resolutions", _resolution)
    preset = section.value("preset", str, "")
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
        t_min=section.value("t_min", int),
        t_max=section.value("t_max", int),
        n_stages=section.value("n_stages", int),
        m_t=section.value("m_t", float),
        omega_min=section.value("omega_min", float),
        omega_max=section.value("omega_max", float),
        m_omega=section.value("m_omega", float),
        resolutions=resolutions,
    )


def load_config(path: str | Path, seed: int | None = None) -> ExperimentConfig:
    """Parse and fully validate a config file.

    ``seed``, when given, replaces the file's ``run.seed``. A relative
    ``denoiser.path`` is resolved against the config file's directory, and
    ``snapshot_steps = all`` expands to every step.
    """
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
    schedule_spec = ScheduleSpec(num_steps=sched.value("num_steps", int))
    sched.reject_unknown()
    # The schedule module owns the timeline and plan rules; building once applies them all.
    timeline = build_timeline(build_schedule(), schedule_spec.num_steps)

    ladder_sec = section("ladder")
    ladder = _parse_ladder(ladder_sec)
    ladder_sec.reject_unknown()
    build_plan(ladder, timeline)

    den = section("denoiser")
    den_kind = den.value("kind", str, "gaussian")
    if den_kind == "gaussian":
        denoiser_spec = DenoiserSpec(
            kind="gaussian",
            mean_value=den.value("mean_value", float, 0.0),
            variance=den.value("variance", float, 1.0),
        )
        if denoiser_spec.variance <= 0:
            raise ConfigError(f"denoiser.variance: must be > 0, got {denoiser_spec.variance}")
    elif den_kind == "dataset":
        denoiser_spec = DenoiserSpec(
            kind="dataset",
            path=str(Path(path).resolve().parent / den.value("path")),
            conditional=den.value("conditional", _boolean, False),
        )
    else:
        raise ConfigError(f"denoiser.kind: unknown kind {den_kind!r}, expected gaussian or dataset")
    den.reject_unknown()

    cod = section("codec")
    cod_kind = cod.value("kind", str, "identity")
    if cod_kind == "identity":
        codec_spec = CodecSpec(kind="identity")
    elif cod_kind == "external":
        codec_spec = CodecSpec(
            kind="external",
            command=cod.value("command"),
            granularity=cod.value("granularity", int, 8),
        )
        if codec_spec.granularity < 1:
            raise ConfigError(f"codec.granularity: must be >= 1, got {codec_spec.granularity}")
    else:
        raise ConfigError(f"codec.kind: unknown kind {cod_kind!r}, expected identity or external")
    cod.reject_unknown()

    run_sec = section("run")
    variant = run_sec.value("variant", str, "baseline")
    if variant not in VARIANTS:
        raise ConfigError(f"run.variant: unknown variant {variant!r}, expected one of {VARIANTS}")
    if run_sec.value("snapshot_steps", str, "").lower() == "all":
        snapshot_steps = tuple(range(schedule_spec.num_steps))
    else:
        snapshot_steps = run_sec.values("snapshot_steps", int)
    file_seed = run_sec.value("seed", int, 0)  # read even when overridden: a known, typed key
    run_spec = RunSpec(
        variant=variant,
        seed=file_seed if seed is None else seed,
        run_count=run_sec.value("run_count", int, 1),
        snapshot_steps=snapshot_steps,
    )
    run_sec.reject_unknown()
    if run_spec.run_count < 1:
        raise ConfigError(f"run.run_count: must be >= 1, got {run_spec.run_count}")
    if not 0 <= run_spec.seed <= run_spec.seed + run_spec.run_count - 1 < 2**64:
        raise ConfigError(
            f"run.seed: every run seed must fit in an unsigned 64-bit value, "
            f"got {run_spec.seed} with run_count {run_spec.run_count}"
        )
    for s in run_spec.snapshot_steps:
        if not 0 <= s < schedule_spec.num_steps:
            raise ConfigError(
                f"run.snapshot_steps: step {s} outside [0, {schedule_spec.num_steps})"
            )

    en = section("energy")
    energy_spec = EnergySpec(variants=en.values("variants"), omegas=en.values("omegas", float))
    en.reject_unknown()
    for v in energy_spec.variants:
        if v not in VARIANTS:
            raise ConfigError(f"energy.variants: unknown variant {v!r}, expected one of {VARIANTS}")

    return ExperimentConfig(
        schedule=schedule_spec,
        ladder=ladder,
        denoiser=denoiser_spec,
        codec=codec_spec,
        run=run_spec,
        energy=energy_spec,
    )


def build_denoiser(config: ExperimentConfig) -> tuple[Denoiser, int | None]:
    """Instantiate the configured denoiser and the class label of its guided branch.

    A dataset prior loads its points from the rank-4 (points, C, H, W) tensor
    file at ``denoiser.path``, which :func:`load_config` resolved. When
    ``conditional`` is set, points get alternating class labels 0, 1, 0, 1,
    ... and runs are guided towards class 0; otherwise all points share
    class 0 and the label is None, so runs predict only the unconditional
    branch. A Gaussian prior has no classes and its label is None too.
    """
    spec = config.denoiser
    if spec.kind == "gaussian":
        h, w = config.ladder.resolutions[0]
        return GaussianPrior(np.full((4, h, w), spec.mean_value), spec.variance), None
    try:
        arr = read_tensor(spec.path)
    except (OSError, TensorFormatError) as exc:
        raise ConfigError(f"denoiser.path: cannot load dataset tensor: {exc}") from exc
    if arr.ndim != 4:
        raise ConfigError(
            f"denoiser.path: dataset tensor must be rank-4 (points, C, H, W), got rank {arr.ndim}"
        )
    # read_tensor has screened every value finite: widen once, and the prior keeps it
    points = arr.astype(np.float64)
    points.setflags(write=False)
    if spec.conditional:
        return DatasetPrior(points, [i % 2 for i in range(len(points))]), 0
    return DatasetPrior(points, [0] * len(points)), None


def build_codec(config: ExperimentConfig):
    if config.codec.kind == "identity":
        return IdentityCodec()
    return ExternalCodec(config.codec.command, granularity=config.codec.granularity)
