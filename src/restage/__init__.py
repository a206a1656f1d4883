"""Numerical laboratory for staged-resolution diffusion sampling.

The package builds deterministic denoising runs against exactly solvable
denoisers, so every moving part of a staged-resolution pipeline (noise
schedules, stage ladders, noise refresh at stage boundaries, per-stage
guidance weights, resolution-corrected step updates) can be checked against
closed-form oracles at desk scale.

Layout:
    schedule    noise schedules, sampler timelines, stage ladders, corrected steps
    latent      seeded noise, the bilinear resize and its bare holder, energy
    denoiser    exactly solvable denoisers (Gaussian prior, dataset posterior)
    codec       latent/value space mapping, external codec subprocess protocol
    sampler     the seed-batched sampling loop and its six variants
    analysis    the per-seed energy column and stepwise mean behind `energy-curve`
    checks      the checks of `restage verify` and criteria 01-04, the affine oracle
    tensorfile  the .rhrt binary tensor format
    errors      the config, codec, sampler and tensor-file error types
    config      INI experiment configs
    cli         the `restage` command

The package exports these modules, not names: import from ``restage.<module>``.
"""

__version__ = "0.1.0"
