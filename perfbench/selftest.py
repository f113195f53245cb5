"""Self-test of the tracer's analytic FLOP counts on a tiny encoder.

Runs ``encoder_forward`` twice under the tracer on a (1, 2, 6, 64, 64)
input with channels 8,8,8,8 and 2 heads, and checks the FLOPs recorded for
every conv2d, attention and MLP call against counts worked out by hand
below, and that both runs record identical counts. Exits 0 on success.

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import numpy as np

import tracer

# After the 8x unshuffle the input is 2 frames of (384, 8, 8). Conv FLOPs are
# 2*N*Ho*Wo*Cout*Cin*k^2 with N = 2 frames and Cout = 8:
#   stem 3x3, Cin 384, 8x8:        2*2*8*8*8*384*9 = 7,077,888
#   3x3, Cin 8 at 8x8 / 4x4 / 2x2 / 1x1:  147,456 / 36,864 / 9,216 / 2,304
#   1x1 stride-2 skip at 4x4 / 2x2 / 1x1:        4,096 / 1,024 / 256
# Residual blocks call conv1, conv2, then the skip of a downsample block.
HAND_CONV = [7_077_888,
             147_456, 147_456,
             36_864, 36_864, 4_096, 36_864, 36_864,
             9_216, 9_216, 1_024, 9_216, 9_216,
             2_304, 2_304, 256, 2_304, 2_304]
# Attention rows R = 64, 16, 4, 1 positions, n = 2 frames, c = 8:
#   MHSA 8*R*n*c^2 + 4*R*n^2*c: R=64 -> 65,536 + 8,192 = 73,728
#   MLP (hidden 32) 4*R*n*c*32: R=64 -> 131,072
HAND_MHSA = [73_728, 18_432, 18_432, 4_608, 4_608, 1_152, 1_152]
HAND_MLP = [131_072, 32_768, 32_768, 8_192, 8_192, 2_048, 2_048]


def traced_flops(run_id: str) -> dict:
    from camtraj import encoder
    t = tracer.Tracer(run_id)
    t.install()
    try:
        cfg = encoder.EncoderConfig(scale_channels=(8, 8, 8, 8), heads=2, seed=3)
        x = np.random.default_rng(0).standard_normal((1, 2, 6, 64, 64), dtype=np.float32)
        encoder.encoder_forward(x, cfg)
    finally:
        t.uninstall()
    spans = sorted(t.spans, key=lambda s: s["start"])
    return {name: [s.get("flops") for s in spans if s["name"] == name]
            for name in ("encoder.conv2d", "encoder.multi_head_self_attention",
                         "encoder.temporal_attention_block")}


def main() -> int:
    first = traced_flops("selftest-a")
    second = traced_flops("selftest-b")
    hand = {"encoder.conv2d": HAND_CONV,
            "encoder.multi_head_self_attention": HAND_MHSA,
            "encoder.temporal_attention_block": HAND_MLP}
    ok = True
    for name, expected in hand.items():
        if first[name] != expected:
            print(f"FAIL {name}: traced {first[name]} != hand {expected}")
            ok = False
        if second[name] != first[name]:
            print(f"FAIL {name}: second run {second[name]} != first {first[name]}")
            ok = False
    print("selftest ok" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
