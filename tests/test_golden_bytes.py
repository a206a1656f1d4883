"""Golden bytes: two small commands must write exactly the files they always wrote.

The hashes below were taken from the step loop before it was made to work in
place, and every later rewrite of the loop is held to them: the promise is
"no output byte changes", not "within tolerance" (docs/DECISIONS.md entry 5).
One command is a Gaussian-prior rectified ``sample`` with every p_x0 snapshot
written; the other a conditional ``energy-curve`` on the clustered-shell point
set, so both the single-branch and the guided step are covered. Two more pin
the external codec's batch at a rectified boundary (a granularity-2 stub) and
an ``energy-curve`` over every label under a flat-guidance sweep. The last
two pin what ``restage verify`` prints, passing and under its negative
control, so every figure its checks measure is held to the byte as well.
"""

from __future__ import annotations

import hashlib
import textwrap

from restage.cli import main
from restage.tensorfile import write_tensor

from _toys import BLOCK_CODEC, clustered_shell_prior, codec_stub

LADDER = """\
    [schedule]
    num_steps = 10
    [ladder]
    t_min = 5
    t_max = 10
    n_stages = 2
    m_t = 1
    omega_min = 2
    omega_max = 6
    m_omega = 1
"""

SAMPLE = LADDER + """\
    resolutions = 32x32, 64x64
    [denoiser]
    mean_value = 0.25
    variance = 1.5
    [run]
    variant = rectified
    seed = 3
    run_count = 2
    snapshot_steps = all
"""

CURVE = LADDER + """\
    resolutions = 16x16, 32x32
    [denoiser]
    kind = dataset
    path = points.rhrt
    conditional = true
    [run]
    seed = 8
    run_count = 2
    [energy]
    variants = rectified, latent-resize
"""

CODEC_SAMPLE = LADDER + """\
    resolutions = 16x16, 32x32
    [denoiser]
    mean_value = -0.5
    variance = 2.0
    [codec]
    kind = external
    command = {command}
    granularity = 2
    [run]
    variant = rectified
    seed = 21
    run_count = 3
"""

SWEEP = CURVE.replace(
    "variants = rectified, latent-resize",
    "variants = baseline, rectified, latent-resize, snr-corrected, native-baseline, "
    "rectified-no-rect\n    omegas = 3, 6",
)

SAMPLE_SHA256 = {
    "final_3.rhrt": "c1df317985a68bda7498af15eca824841222f86bb0c477acbef2f69ed4cd7ee2",
    "final_4.rhrt": "320927f65e2594f5f403d8ab7545762acbb668682ebaae9f68beae97a8640b4c",
    "snapshot_3_0.rhrt": "3881114f040863e6dcd19dfebda50e9fb924218938d0525cc3ca71081901e6b6",
    "snapshot_3_1.rhrt": "403038497db62efeec9d3e5d31d49a3465adff44b5be0d1725fd7ee67ba40662",
    "snapshot_3_2.rhrt": "a0cff54b380e3e33c1c4a6bfdd67fdeb740c064b2fdb7097397768f1b1a884d7",
    "snapshot_3_3.rhrt": "73e6a0218e1d39784ec1a90adcb60cdc2780621b28b485a2aa2cfd05f3f2c5cc",
    "snapshot_3_4.rhrt": "4b60719430ec37caba6331b03e0e52d40cb2e1221df66dfbeaefd313504fac7b",
    "snapshot_3_5.rhrt": "f14c812f40ed77fe348493fdf47ad05a2f3a24a9ace62df3d7bf9249bf13072d",
    "snapshot_3_6.rhrt": "bbacc4e4ad0ab2bee0742760b35007220122067e1bb177739b90233fa6060f95",
    "snapshot_3_7.rhrt": "41cad20314dafe1d2f4ff040b6f52d5b9937c06d3ecd952c3f177343d7ae2605",
    "snapshot_3_8.rhrt": "5562cfc55f0536baaeab35700840dae20e81c15e4c36838fb7ec03868b2b3556",
    "snapshot_3_9.rhrt": "c1df317985a68bda7498af15eca824841222f86bb0c477acbef2f69ed4cd7ee2",
    "snapshot_4_0.rhrt": "6c5b098eb5aa5fd8e0b70737282f6f6bb1ad7d041f8b0b16e44ff3ec6249240f",
    "snapshot_4_1.rhrt": "e75b421bdc0c6c2ee80e49a62dcbcda18c7570573f101784347e4844a52fde14",
    "snapshot_4_2.rhrt": "a16035e0ee0b4bb25fb651d2020dea755a838ca717adae29a942e0040e379053",
    "snapshot_4_3.rhrt": "4302f526fd53ee6be5a6c2f51b4ce2c27a6c02a71b87e5db56a7415b68eebfad",
    "snapshot_4_4.rhrt": "4c155f2ea052e6f1d3cb7f3e32bc4aa268a1b7370f9c9831087c16ab60209e1e",
    "snapshot_4_5.rhrt": "60c7bc952eb131ae7b39e15d348dfb305fb6f36ebd996a508621c442c36db120",
    "snapshot_4_6.rhrt": "f04820bfd40c6c8fe8da24383742ec716166c9eaf255ea377b1b5fe24f706dc6",
    "snapshot_4_7.rhrt": "f74b9965906eb3bd02f9fe7e0f66fb477255c234dfedcb616f904a87bf6fbe9f",
    "snapshot_4_8.rhrt": "c2fe22d1d578dad76e71f36234f8441afc3e5400249b69d8f63f9144b4a4e0ff",
    "snapshot_4_9.rhrt": "320927f65e2594f5f403d8ab7545762acbb668682ebaae9f68beae97a8640b4c",
    "trace_3.csv": "6ca856110334ad41ee1455ca5ad127f063168af0248c6fa9400f68aae197fb7e",
    "trace_4.csv": "729042ed30afc38eba8ae52be215b56a6a8bad1e05b7e6f61b012ed1271e0f9a",
}

CURVE_SHA256 = {
    "energy_curves.csv": "4ba70af35f7861f9b0ca014f41087371c92e88be9bcc6d2c7c5faf475308416c",
}


CODEC_SAMPLE_SHA256 = {
    "final_21.rhrt": "6cdba396f3b3dd6da73c198078eb4560d6a108b6a2643e2e34a0e58a0381fdd4",
    "final_22.rhrt": "fa9670501727015f6c5ac389d2e86bd8d70305637bc3e6969c52c9093a326967",
    "final_23.rhrt": "5fa2b67e59d83c764173963e7a1ef06d505f5435f7ff014702fb361618632636",
    "trace_21.csv": "7d9bc8df7e6c47355f313a6df970b587d6d5abb91846ee566d3c0bba3e079c3c",
    "trace_22.csv": "c813c75a292935e12db0190e12f71d80957696c2b7c552be6200e62f69e0b6d9",
    "trace_23.csv": "67fac2600fc82bc31df596f29f2cfbcb8b766a172eeb2d8f7099c8c4a9731171",
}

SWEEP_SHA256 = {
    "energy_curves.csv": "c988064dbc233cd7d5580b15ae5927aa854e138c53ee11ac4f8e2ab622b45741",
}

VERIFY_SHA256 = "9f8c952378d692df48d58c6118affabbe45d2a4ca35ca3cee34653e1c8a41c96"
VERIFY_CORRUPT_SCHEDULE_SHA256 = "ad454c7e529132579f473be3e7fbfbcf40538b40d42b4d401a01df3ba06ea463"


def _written(tmp_path, command, text):
    (tmp_path / "config.ini").write_text(textwrap.dedent(text), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(tmp_path / "config.ini"), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_sample_with_every_snapshot(tmp_path):
    assert _written(tmp_path, "sample", SAMPLE) == SAMPLE_SHA256


def test_conditional_energy_curve_on_the_clustered_shell(tmp_path):
    points = clustered_shell_prior().points
    write_tensor(tmp_path / "points.rhrt", points)
    assert _written(tmp_path, "energy-curve", CURVE) == CURVE_SHA256


def test_rectified_sample_through_an_external_codec(tmp_path):
    command = codec_stub(tmp_path, BLOCK_CODEC)
    assert _written(tmp_path, "sample", CODEC_SAMPLE.format(command=command)) == CODEC_SAMPLE_SHA256


def test_energy_curve_over_every_label_and_a_guidance_sweep(tmp_path):
    points = clustered_shell_prior().points
    write_tensor(tmp_path / "points.rhrt", points)
    assert _written(tmp_path, "energy-curve", SWEEP) == SWEEP_SHA256


def _printed(capsys, argv, status):
    assert main(argv) == status
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_verify_prints_the_same_lines(capsys):
    assert _printed(capsys, ["verify"], 0) == VERIFY_SHA256


def test_verify_with_a_corrupt_schedule_prints_the_same_lines(capsys):
    assert _printed(capsys, ["verify", "--corrupt", "schedule"], 1) == VERIFY_CORRUPT_SCHEDULE_SHA256
