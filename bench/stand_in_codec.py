"""Stand-in for an external autoencoder, speaking restage's codec file protocol.

    python stand_in_codec.py decode|encode <input.rhrt> <output.rhrt>

Decoding upsamples each channel 2x by nearest neighbour; encoding takes the
mean of each 2x2 block, summed left to right and top to bottom in double
precision before rounding to float32. The script uses the standard library
only, so each call costs an interpreter start and not a numpy or restage
import, and the benchmark times the parent's codec layer.
"""

import struct
import sys
from array import array


def read_rhrt(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RHRT":
        raise SystemExit(f"{path}: bad magic")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != 1 or ndim != 3:
        raise SystemExit(f"{path}: expected a version-1 rank-3 tensor")
    dims = struct.unpack_from("<3I", blob, 12)
    values = array("f")
    values.frombytes(blob[24:])
    if sys.byteorder != "little":
        values.byteswap()
    if len(values) != dims[0] * dims[1] * dims[2]:
        raise SystemExit(f"{path}: payload does not match dims {dims}")
    return dims, values


def write_rhrt(path, dims, values):
    if sys.byteorder != "little":
        values = array("f", values)
        values.byteswap()
    with open(path, "wb") as fh:
        fh.write(b"RHRT" + struct.pack("<5I", 1, 3, *dims))
        fh.write(values.tobytes())


def decode(dims, values):
    c, h, w = dims
    out = array("f")
    for row in range(c * h):
        src = values[row * w : (row + 1) * w]
        doubled = array("f", (v for v in src for _ in (0, 1)))
        out.extend(doubled)
        out.extend(doubled)
    return (c, 2 * h, 2 * w), out


def encode(dims, values):
    c, h, w = dims
    if h % 2 or w % 2:
        raise SystemExit(f"encode input {dims} is not divisible by 2")
    out = array("f")
    for ch in range(c):
        for y in range(0, h, 2):
            top = (ch * h + y) * w
            bottom = top + w
            out.extend(
                (values[top + x] + values[top + x + 1] + values[bottom + x] + values[bottom + x + 1])
                * 0.25
                for x in range(0, w, 2)
            )
    return (c, h // 2, w // 2), out


def main(argv):
    if len(argv) != 3 or argv[0] not in ("decode", "encode"):
        raise SystemExit("usage: stand_in_codec.py decode|encode <input> <output>")
    mode, src, dst = argv
    dims, values = read_rhrt(src)
    dims, values = (decode if mode == "decode" else encode)(dims, values)
    write_rhrt(dst, dims, values)


if __name__ == "__main__":
    main(sys.argv[1:])
