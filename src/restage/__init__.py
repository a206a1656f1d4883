"""Numerical laboratory for staged-resolution diffusion sampling.

The package builds deterministic denoising runs against exactly solvable
denoisers, so every moving part of a staged-resolution pipeline (noise
schedules, stage ladders, noise refresh at stage boundaries, per-stage
guidance weights, resolution-corrected step updates) can be checked against
closed-form oracles at desk scale.

Layout:
    schedule    noise schedules, sampler timelines, stage ladders, corrected steps
    latent      validated grids for run edges, seeded noise, resizing, energy
    denoiser    exactly solvable denoisers (Gaussian prior, dataset posterior)
    codec       latent/value space mapping, external codec subprocess protocol
    sampler     the plain-array sampling loop, variants, affine oracle
    analysis    energy traces, rank and moment statistics
    tensorfile  the .rhrt binary tensor format
    config      INI experiment configs
    cli         the `restage` command
"""

from .errors import (
    CodecError,
    ComparisonError,
    ConfigError,
    DenoiserError,
    PlanError,
    SamplerError,
    ShapeError,
    StatError,
    TensorFormatError,
)
from .latent import LatentGrid, SeededRng, average_energy, forward_diffuse, gaussian_noise
from .schedule import (
    LadderConfig,
    NoiseSchedule,
    RefreshPlan,
    SamplerTimeline,
    Stage,
    build_plan,
    build_schedule,
    build_timeline,
    ladder_preset,
)
from .sampler import RunResult, StepRecord, ddim_step, noise_refresh, run

__all__ = [
    "CodecError",
    "ComparisonError",
    "ConfigError",
    "DenoiserError",
    "LadderConfig",
    "LatentGrid",
    "NoiseSchedule",
    "PlanError",
    "RefreshPlan",
    "RunResult",
    "SamplerError",
    "SamplerTimeline",
    "SeededRng",
    "ShapeError",
    "Stage",
    "StatError",
    "StepRecord",
    "TensorFormatError",
    "average_energy",
    "build_plan",
    "build_schedule",
    "build_timeline",
    "ddim_step",
    "forward_diffuse",
    "gaussian_noise",
    "ladder_preset",
    "noise_refresh",
    "run",
]

__version__ = "0.1.0"
