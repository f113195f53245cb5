"""Encoder primitives and forward pass: rearrangement oracles, attention
closed forms, residual isolation, and deterministic weight construction."""

import dataclasses
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import camtraj.encoder as enc
from camtraj.encoder import (
    EncoderConfig,
    ResBlockParams,
    build_encoder_weights,
    conv2d,
    encoder_forward,
    layer_norm,
    multi_head_self_attention,
    pixel_unshuffle,
    res_block,
    shape_schedule,
    silu,
    sinusoidal_posemb,
    softmax,
    temporal_attention_block,
)
from camtraj.errors import CamTrajError, ConfigError, IndivisibleDims, NonFiniteInput, ShapeMismatch
from camtraj.plucker import verify_plucker
from util import padded_conv2d, unshuffle_inverse

SMALL = EncoderConfig(unshuffle_factor=2, scale_channels=(8, 16, 16, 16),
                      heads=2, mlp_ratio=2, seed=7)


def rand(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


class TestPixelUnshuffle:
    def test_two_by_two_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        out = pixel_unshuffle(x.reshape(1, 1, 1, 2, 2), 2)
        assert out.shape == (1, 1, 4, 1, 1)
        np.testing.assert_array_equal(out.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_index_arithmetic_oracle(self):
        rng = np.random.default_rng(0)
        r = 3
        x = rand(rng, (2, 2, 4, 6, 9))
        out = pixel_unshuffle(x, r)
        assert out.shape == (2, 2, 4 * 9, 2, 3)
        for ci in range(4):
            for dy in range(r):
                for dx in range(r):
                    np.testing.assert_array_equal(
                        out[:, :, ci * r * r + dy * r + dx],
                        x[:, :, ci, dy::r, dx::r])

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(1)
        x = rand(rng, (2, 3, 5, 8, 12))
        np.testing.assert_array_equal(unshuffle_inverse(pixel_unshuffle(x, 4), 4), x)
        y = rand(rng, (1, 2, 32, 3, 5))
        np.testing.assert_array_equal(pixel_unshuffle(unshuffle_inverse(y, 4), 4), y)

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(2)
        x = rand(rng, (1, 2, 3, 4, 5))
        np.testing.assert_array_equal(pixel_unshuffle(x, 1), x)

    def test_indivisible(self):
        x = np.zeros((1, 1, 1, 5, 8), dtype=np.float32)
        with pytest.raises(IndivisibleDims):
            pixel_unshuffle(x, 2)

    def test_wrong_rank(self):
        with pytest.raises(ShapeMismatch):
            pixel_unshuffle(np.zeros((1, 2, 4, 4), dtype=np.float32), 2)


class TestShapeSchedule:
    def test_reference_resolution(self):
        shapes = shape_schedule(EncoderConfig(), 2, 16, 256, 384)
        assert shapes == [
            (2, 16, 384, 32, 48),
            (2, 16, 320, 32, 48),
            (2, 16, 320, 32, 48),
            (2, 16, 640, 16, 24),
            (2, 16, 1280, 8, 12),
            (2, 16, 1280, 4, 6),
        ]

    def test_second_resolution(self):
        shapes = shape_schedule(EncoderConfig(), 1, 14, 320, 576)
        assert shapes[0] == (1, 14, 384, 40, 72)
        assert shapes[-1] == (1, 14, 1280, 5, 9)

    def test_indivisible_height(self):
        with pytest.raises(IndivisibleDims):
            shape_schedule(EncoderConfig(), 1, 2, 100, 384)

    def test_small_config(self):
        shapes = shape_schedule(SMALL, 1, 3, 16, 32)
        assert shapes == [
            (1, 3, 24, 8, 16),
            (1, 3, 8, 8, 16),
            (1, 3, 8, 8, 16),
            (1, 3, 16, 4, 8),
            (1, 3, 16, 2, 4),
            (1, 3, 16, 1, 2),
        ]


class TestPrimitives:
    def test_silu_matches_logistic_form(self):
        x = np.linspace(-20, 20, 401)
        ref = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(silu(x), ref, atol=1e-12)

    def test_silu_extreme_inputs(self):
        x = np.array([-1e6, -100.0, 0.0, 100.0, 1e6], dtype=np.float32)
        out = silu(x)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0
        assert out[-1] == 1e6

    def test_softmax_rows(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7)) * 50
        s = softmax(x)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(s >= 0)

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 6))
        np.testing.assert_allclose(softmax(x), softmax(x + 123.0), atol=1e-12)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 64)) * 3 + 5
        g = np.ones(64)
        b = np.zeros(64)
        out = layer_norm(x, g, b)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_layer_norm_affine(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 8))
        g = rng.standard_normal(8)
        b = rng.standard_normal(8)
        base = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(layer_norm(x, g, b), base * g + b, atol=1e-12)

    def test_posemb_first_position(self):
        pe = sinusoidal_posemb(4, 8)
        assert pe.shape == (4, 8)
        assert pe.dtype == np.float32
        np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_posemb_frequency_formula(self):
        n, c = 7, 10
        pe = sinusoidal_posemb(n, c)
        for p in range(n):
            for i in range(c // 2):
                ang = p / 10000.0 ** (2.0 * i / c)
                assert abs(pe[p, 2 * i] - math.sin(ang)) < 1e-6
                assert abs(pe[p, 2 * i + 1] - math.cos(ang)) < 1e-6

    def test_posemb_odd_width(self):
        pe = sinusoidal_posemb(3, 5)
        assert pe.shape == (3, 5)
        assert pe[1, 4] == np.float32(math.sin(1 / 10000.0 ** (4.0 / 5.0)))

    def test_posemb_deterministic(self):
        np.testing.assert_array_equal(sinusoidal_posemb(16, 320),
                                      sinusoidal_posemb(16, 320))


def naive_conv2d(x, w, b, stride):
    """Direct-summation reference in float64."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    pad = (kh - 1) // 2
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for y in range(ho):
                for xx in range(wo):
                    patch = xp[ni, :, y * stride:y * stride + kh,
                               xx * stride:xx * stride + kw]
                    out[ni, co, y, xx] = (patch * w[co]).sum() + b[co]
    return out


class TestConv2d:
    def test_naive_oracle(self):
        rng = np.random.default_rng(7)
        for stride in (1, 2):
            x = rand(rng, (2, 3, 7, 9))
            w = rand(rng, (4, 3, 3, 3))
            b = rand(rng, (4,))
            got = conv2d(x, w, b, stride=stride)
            ref = naive_conv2d(x, w, b, stride)
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)

    def test_one_by_one_kernel(self):
        rng = np.random.default_rng(8)
        x = rand(rng, (2, 5, 4, 6))
        w = rand(rng, (3, 5, 1, 1))
        b = rand(rng, (3,))
        got = conv2d(x, w, b)
        ref = naive_conv2d(x, w, b, 1)
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-6)

    def test_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = rand(rng, (1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, w, np.zeros(1, dtype=np.float32))
        np.testing.assert_array_equal(out, x)

    def test_stride_two_output_shape(self):
        x = np.zeros((1, 2, 10, 6), dtype=np.float32)
        w = np.zeros((3, 2, 3, 3), dtype=np.float32)
        out = conv2d(x, w, np.zeros(3, dtype=np.float32), stride=2)
        assert out.shape == (1, 3, 5, 3)

    @pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1), (1, 2)])
    def test_scratch_memory_bound(self, k, stride):
        # the peak is the tap buffer, the output and one tap's product, with no
        # padded copy of the input; the output is returned as an NCHW view, with
        # no copy. An im2col buffer alone is k*k tap buffers.
        n, cin, cout, h, w = 8, 16, 16, 24, 20
        rng = np.random.default_rng(37)
        x = rand(rng, (n, cin, h, w))
        wt = rand(rng, (cout, cin, k, k))
        b = rand(rng, (cout,))
        ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
        tap = n * ho * wo * cin * 4
        out = n * ho * wo * cout * 4
        tracemalloc.start()
        try:
            conv2d(x, wt, b, stride=stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (tap + 2 * out)

    @pytest.mark.parametrize("k, stride", [(3, 1), (3, 2), (1, 1)])
    def test_band_memory_bound(self, monkeypatch, k, stride):
        # in bands of output rows, scratch is one band's tap buffer and one
        # tap's product, each within the budget: beyond the output, the traced
        # peak does not grow with the number of rows
        budget = 32 << 10  # 3 rows of 8 frames, 20 columns and 16 channels
        monkeypatch.setattr(enc, "_TILE_BYTES", budget)
        n, cin, cout, w = 8, 16, 16, 20
        rng = np.random.default_rng(44)
        wt, b = rand(rng, (cout, cin, k, k)), rand(rng, (cout,))
        for h in (24, 96):
            x = rand(rng, (n, cin, h, w))
            out = n * cout * ((h - 1) // stride + 1) * ((w - 1) // stride + 1) * 4
            tracemalloc.start()
            try:
                conv2d(x, wt, b, stride=stride)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out + 2 * budget + (4 << 10)


class TestResBlock:
    def test_no_skip_composition(self):
        rng = np.random.default_rng(11)
        p = build_encoder_weights(SMALL)["scale 1 residual block"]
        assert p.skip is None
        x = rand(rng, (2, 8, 8, 8))
        h = conv2d(x, p.conv1.w, p.conv1.b)
        manual = conv2d(silu(h), p.conv2.w, p.conv2.b) + x
        np.testing.assert_array_equal(res_block(x, p), manual)

    def grouped(self, frames):
        # 3 channels of 16x16, stored channels last: conv1's output is 3 KiB a
        # frame, and the two 3x3 weights (648 B) take fewer bytes than that for
        # all frames, so an 8 KiB tile runs groups of 2 frames. A (rows, 3) @ (3, 3)
        # GEMM rounds each row alike at any row count above one under the OpenBLAS
        # kernels Prescott to SkylakeX; under Haswell's, an 8-wide one does not
        x = rand(np.random.default_rng(53), (16, 16, frames, 3)).transpose(2, 3, 0, 1)
        return x, enc._res_block_draw(np.random.default_rng(5), 3, 3, 1)

    def test_frame_groups_give_one_group_bytes(self, monkeypatch):
        # the weights are drawn whole, conv1's taps then conv2's, before the
        # first of 4 groups runs; the bytes are those of one group
        x, p = self.grouped(8)
        want = res_block(x.copy(), p).tobytes()  # the default tile: one group
        monkeypatch.setattr(enc, "_TILE_BYTES", 8 << 10)
        log, real_uniform, real_silu = [], enc._uniform, enc.silu
        monkeypatch.setattr(enc, "_uniform", lambda *a: log.append("draw") or real_uniform(*a))
        monkeypatch.setattr(enc, "silu", lambda h: log.append(len(h)) or real_silu(h))
        got = res_block(x, enc._res_block_draw(np.random.default_rng(5), 3, 3, 1))
        assert np.shares_memory(got, x) and got.tobytes() == want
        assert log == ["draw"] * 18 + [2] * 4

    def test_frame_groups_hold_one_group_of_conv1_output(self, monkeypatch):
        # conv1's output for all 32 frames is 96 KiB; a group's is 6 KiB
        monkeypatch.setattr(enc, "_TILE_BYTES", 8 << 10)
        x, p = self.grouped(32)
        group = 2 * 3 * 16 * 16 * 4
        tracemalloc.start()
        try:
            res_block(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the group's conv1 output, conv2's accumulator, tap buffer and one
        # product, numpy's buffer for the add into a group of x's strided
        # frames, and the weights with their arrays' own bytes
        assert peak <= 5 * group + (12 << 10)

    def test_downsample_skip(self):
        rng = np.random.default_rng(12)
        p = build_encoder_weights(SMALL)["scale 2 downsample block"]
        assert p.skip is not None and p.stride == 2
        x = rand(rng, (2, 8, 8, 8))
        out = res_block(x, p)
        assert out.shape == (2, 16, 4, 4)
        h = conv2d(x, p.conv1.w, p.conv1.b, stride=2)
        manual = (conv2d(silu(h), p.conv2.w, p.conv2.b)
                  + conv2d(x, p.skip.w, p.skip.b, stride=2))
        np.testing.assert_array_equal(out, manual)


def small_attention(seed=13, c=8, ratio=2):
    rng = np.random.default_rng(seed)
    return enc._init_attention(rng, c, ratio)


def qkv(x, p):
    """Q, K and V of rows ``x``, from the column blocks of the fused projection."""
    c = p.width
    return [x @ p.wqkv[:, i * c:(i + 1) * c] + p.bqkv[i * c:(i + 1) * c] for i in range(3)]


class TestAttention:
    def test_single_token_closed_form(self):
        rng = np.random.default_rng(14)
        p = small_attention()
        x = rand(rng, (10, 1, 8))
        out = multi_head_self_attention(x, p, heads=2)
        manual = qkv(x, p)[2] @ p.wo + p.bo
        np.testing.assert_array_equal(out, manual)

    def test_weights_are_row_stochastic(self):
        rng = np.random.default_rng(15)
        p = small_attention()
        x = rand(rng, (6, 5, 8))
        out, weights = multi_head_self_attention(x, p, heads=2, return_weights=True)
        assert out.shape == (6, 5, 8)
        assert weights.shape == (6, 2, 5, 5)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)

    def test_per_head_loop_oracle(self):
        rng = np.random.default_rng(16)
        p = small_attention()
        heads, hd = 2, 4
        x = rand(rng, (3, 4, 8))
        got = multi_head_self_attention(x, p, heads=heads)
        q, k, v = qkv(x, p)
        ref = np.zeros_like(got)
        for ri in range(3):
            outs = []
            for h in range(heads):
                sl = slice(h * hd, (h + 1) * hd)
                scores = q[ri][:, sl] @ k[ri][:, sl].T / math.sqrt(hd)
                a = np.exp(scores - scores.max(axis=-1, keepdims=True))
                a /= a.sum(axis=-1, keepdims=True)
                outs.append(a @ v[ri][:, sl])
            ref[ri] = np.concatenate(outs, axis=-1) @ p.wo + p.bo
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_per_head_loop_oracle_many_rows(self):
        # the flattened GEMMs must hold the oracle at realistic row counts too
        rng = np.random.default_rng(31)
        heads, c = 4, 16
        hd = c // heads
        p = small_attention(seed=32, c=c)
        x = rand(rng, (96, 5, c))
        got = multi_head_self_attention(x, p, heads=heads)
        ref = np.zeros_like(got)
        for ri in range(x.shape[0]):
            q, k, v = qkv(x[ri], p)
            outs = []
            for h in range(heads):
                sl = slice(h * hd, (h + 1) * hd)
                scores = q[:, sl] @ k[:, sl].T / math.sqrt(hd)
                a = np.exp(scores - scores.max(axis=-1, keepdims=True))
                a /= a.sum(axis=-1, keepdims=True)
                outs.append(a @ v[:, sl])
            ref[ri] = np.concatenate(outs, axis=-1) @ p.wo + p.bo
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)

    def test_constant_query_key_averages(self):
        rng = np.random.default_rng(17)
        p = small_attention()
        wqkv = p.wqkv.copy()
        wqkv[:, :2 * p.width] = 0.0  # the Q and K blocks
        p = dataclasses.replace(p, wqkv=wqkv)
        x = rand(rng, (4, 6, 8))
        _, weights = multi_head_self_attention(x, p, heads=2, return_weights=True)
        np.testing.assert_allclose(weights, 1.0 / 6.0, atol=1e-7)

    def test_permutation_covariance(self):
        rng = np.random.default_rng(18)
        p = small_attention()
        x = rand(rng, (5, 7, 8))
        perm = rng.permutation(7)
        np.testing.assert_allclose(
            multi_head_self_attention(x[:, perm], p, heads=2),
            multi_head_self_attention(x, p, heads=2)[:, perm],
            atol=1e-6)


class TestTemporalAttentionBlock:
    def test_residual_isolation_bitwise(self):
        # zeroed output projections kill both branches exactly
        rng = np.random.default_rng(19)
        p = small_attention()
        p = dataclasses.replace(
            p, wo=np.zeros_like(p.wo), bo=np.zeros_like(p.bo),
            mlp_w2=np.zeros_like(p.mlp_w2), mlp_b2=np.zeros_like(p.mlp_b2))
        x = rand(rng, (12, 5, 8))
        out = temporal_attention_block(x, p, heads=2, use_posemb=False)
        np.testing.assert_array_equal(out, x)
        out_pe = temporal_attention_block(x, p, heads=2, use_posemb=True)
        np.testing.assert_array_equal(out_pe, x + sinusoidal_posemb(5, 8))

    def test_structure_oracle(self):
        rng = np.random.default_rng(20)
        p = small_attention()
        x = rand(rng, (6, 4, 8))
        z = x + sinusoidal_posemb(4, 8)
        z2 = multi_head_self_attention(
            layer_norm(z, p.ln1_gamma, p.ln1_beta), p, heads=2) + z
        h = silu(layer_norm(z2, p.ln2_gamma, p.ln2_beta) @ p.mlp_w1 + p.mlp_b1)
        manual = h @ p.mlp_w2 + p.mlp_b2 + z2
        got = temporal_attention_block(x, p, heads=2, use_posemb=True)
        np.testing.assert_array_equal(got, manual)

    def test_posemb_toggle_changes_output(self):
        rng = np.random.default_rng(21)
        p = small_attention()
        x = rand(rng, (3, 4, 8))
        a = temporal_attention_block(x, p, heads=2, use_posemb=True)
        b = temporal_attention_block(x, p, heads=2, use_posemb=False)
        assert np.abs(a - b).max() > 1e-3

    def test_permutation_covariance_without_posemb(self):
        rng = np.random.default_rng(22)
        p = small_attention()
        x = rand(rng, (4, 6, 8))
        perm = rng.permutation(6)
        np.testing.assert_allclose(
            temporal_attention_block(x[:, perm], p, heads=2, use_posemb=False),
            temporal_attention_block(x, p, heads=2, use_posemb=False)[:, perm],
            atol=1e-5)

    @pytest.mark.parametrize("rows", [1, 3, 11])
    @pytest.mark.parametrize("use_posemb", [True, False])
    def test_tiles_match_one_call_per_row(self, monkeypatch, rows, use_posemb):
        # c=8, mlp_ratio 2, n=5: the widest temporary is the (5, 24) QKV of a row,
        # 480 bytes, so tiles hold 4 rows and 11 rows end in a ragged tile of 3
        monkeypatch.setattr(enc, "_TILE_BYTES", 4 * 480)
        p = small_attention()
        x = rand(np.random.default_rng(41), (rows, 5, 8))
        got = temporal_attention_block(x, p, heads=2, use_posemb=use_posemb)
        per_row = [temporal_attention_block(x[i:i + 1], p, 2, use_posemb) for i in range(rows)]
        assert got.shape == x.shape
        assert got.tobytes() == b"".join(r.tobytes() for r in per_row)

    def test_tile_memory_bound(self, monkeypatch):
        # the temporaries of one tile, not of all rows: beyond the (rows, n, c)
        # output, the traced peak stays within a few tile budgets at any row count
        budget = 16 << 10
        monkeypatch.setattr(enc, "_TILE_BYTES", budget)
        p = small_attention(seed=42, c=16, ratio=4)  # a (rows * 5, 64) MLP hidden layer
        rng = np.random.default_rng(43)
        for rows in (64, 1024):
            x = rand(rng, (rows, 5, 16))
            tracemalloc.start()
            try:
                temporal_attention_block(x, p, heads=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= x.nbytes + 6 * budget

    def test_shape_errors(self):
        p = small_attention()
        with pytest.raises(ShapeMismatch):
            temporal_attention_block(np.zeros((4, 8), dtype=np.float32), p, 2)
        with pytest.raises(ShapeMismatch):
            temporal_attention_block(np.zeros((2, 3, 10), dtype=np.float32), p, 2)
        with pytest.raises(ShapeMismatch):
            temporal_attention_block(np.zeros((2, 3, 8), dtype=np.float32), p, 3)


class TestInPlace:
    """silu and res_block work in the array they are given, of any layout, and
    callers use the return value; conv2d leaves its input untouched and adds into
    ``add_to`` of any layout; temporal attention returns a new array."""

    def channels_last(self, rng, shape):  # (n, c, h, w) view of (h, w, n, c) storage
        n, c, h, w = shape
        return rand(rng, (h, w, n, c)).transpose(2, 3, 0, 1)

    def test_ops_leave_inputs_untouched(self):
        rng = np.random.default_rng(49)
        w = build_encoder_weights(SMALL)
        x, rows = self.channels_last(rng, (2, 8, 8, 8)), rand(rng, (12, 5, 16))
        xb, rowsb = x.tobytes(), rows.tobytes()
        conv2d(x, *w["scale 1 residual block"].conv1)
        for use_posemb in (True, False):
            out = temporal_attention_block(rows, w["scale 2 attention"], 2, use_posemb)
            assert not np.shares_memory(out, rows)
        assert x.tobytes() == xb and rows.tobytes() == rowsb

    @pytest.mark.parametrize("channels_last", [True, False])
    def test_overwrite_gives_the_same_bytes_in_its_input(self, channels_last):
        # in x itself: silu's bytes on a copy of the other layout, res_block's composition
        rng = np.random.default_rng(50)
        p = build_encoder_weights(SMALL)["scale 1 residual block"]
        x = self.channels_last(rng, (2, 8, 8, 8)) if channels_last else rand(rng, (2, 8, 8, 8))
        want = silu(x.copy(order="C" if channels_last else "F")).tobytes()
        got = silu(x)
        assert np.shares_memory(got, x) and got.tobytes() == x.tobytes() == want
        want = (conv2d(silu(conv2d(x, *p.conv1)), *p.conv2) + x).tobytes()
        got = res_block(x, p)
        assert np.shares_memory(got, x) and got.tobytes() == x.tobytes() == want

    def test_silu_of_a_strided_view_or_scalar_matches_logistic_form(self):
        for v in (np.linspace(-20, 20, 802).reshape(2, 401)[:, ::2], np.float64(3.0)):
            ref = v / (1.0 + np.exp(-v))
            np.testing.assert_allclose(silu(v), ref, atol=1e-12)

    @pytest.mark.parametrize("k, stride", [(3, 1), (1, 2)])
    def test_add_to_adds_each_band_after_its_bias(self, monkeypatch, k, stride):
        # (sum of taps + bias) + y, with one-row bands: the bytes of conv2d(...) + y
        monkeypatch.setattr(enc, "_TILE_BYTES", 1)  # one output row per band
        rng = np.random.default_rng(51)
        x, wt, b = self.channels_last(rng, (2, 3, 7, 5)), rand(rng, (4, 3, k, k)), rand(rng, (4,))
        shape = (2, 4, 7, 5) if stride == 1 else (2, 4, 4, 3)
        for y in (self.channels_last(rng, shape), rand(rng, shape)):  # either layout
            want = (conv2d(x, wt, b, stride) + y).tobytes()
            got = conv2d(x, wt, b, stride, add_to=y)
            assert np.shares_memory(got, y) and got.tobytes() == y.tobytes() == want


class TestWeights:
    def test_deterministic_rebuild(self):
        a = build_encoder_weights(SMALL)
        b = build_encoder_weights(SMALL)
        np.testing.assert_array_equal(a["the stem"].w, b["the stem"].w)
        np.testing.assert_array_equal(a["scale 4 attention"].mlp_w2,
                                      b["scale 4 attention"].mlp_w2)

    def test_seed_changes_weights(self):
        a = build_encoder_weights(SMALL)
        b = build_encoder_weights(dataclasses.replace(SMALL, seed=8))
        assert np.abs(a["the stem"].w - b["the stem"].w).max() > 0

    def test_stage_names_in_forward_order(self):
        # the keys are the stage names errors print, in draw and forward order
        later = [f"scale {k} {s}" for k in (2, 3, 4) for s in
                 ("downsample block", "downsample attention", "residual block", "attention")]
        assert list(build_encoder_weights(SMALL)) == [
            "the stem", "scale 1 residual block", "scale 1 attention", *later]

    def test_stem_draw_replication(self):
        # pins the documented draw order: stem comes first from the stream
        w = build_encoder_weights(SMALL)
        rng = np.random.default_rng(SMALL.seed)
        cin = enc._IN_CHANNELS * SMALL.unshuffle_factor ** 2

        def uniform(shape, fan_in):
            u = rng.random(shape, dtype=np.float32)
            return (2 * u - 1) * np.float32(math.sqrt(3.0 / fan_in))

        # conv weights are drawn tap-major, (k, k, cin, cout), and kept as (cout, cin, k, k)
        np.testing.assert_array_equal(w["the stem"].w,
                                      uniform((3, 3, cin, 8), cin * 9).transpose(3, 2, 0, 1))
        # scale 1 has no downsample stage, so its plain block draws next
        np.testing.assert_array_equal(w["scale 1 residual block"].conv1.w,
                                      uniform((3, 3, 8, 8), 8 * 9).transpose(3, 2, 0, 1))

    def test_conv_weights_tap_major(self):
        # each tap's (cin, cout) weight is contiguous, so conv2d hands it to BLAS
        # in place; a C-contiguous copy, as a caller may build, gives the same bytes
        w = build_encoder_weights(SMALL)
        convs = [w["the stem"]] + [conv for blk in w.values() if isinstance(blk, ResBlockParams)
                                   for conv in (blk.conv1, blk.conv2, blk.skip) if conv]
        assert len(convs) == 18  # the stem, two in scale 1, five in each later scale
        rng = np.random.default_rng(44)
        for conv in convs:
            assert conv.w.transpose(2, 3, 1, 0).flags.c_contiguous
            copy = np.ascontiguousarray(conv.w)
            assert copy.flags.c_contiguous and not conv.w.flags.c_contiguous
            x = rand(rng, (2, conv.w.shape[1], 6, 8))
            for stride in (1, 2):
                assert (conv2d(x, copy, conv.b, stride).tobytes()
                        == conv2d(x, conv.w, conv.b, stride).tobytes())

    def test_attention_draw_replication(self):
        # Q, K and V are three (c, c) draws side by side in wqkv, then wo follows
        c = 8
        p = small_attention(seed=19, c=c)
        rng = np.random.default_rng(19)
        bound = np.float32(math.sqrt(3.0 / c))
        draws = [(2 * rng.random((c, c), dtype=np.float32) - 1) * bound for _ in range(4)]
        assert p.wqkv.shape == (c, 3 * c) and p.bqkv.shape == (3 * c,)
        for i in range(3):
            np.testing.assert_array_equal(p.wqkv[:, i * c:(i + 1) * c], draws[i])
        np.testing.assert_array_equal(p.wo, draws[3])
        assert len(dataclasses.fields(p)) == 12

    @pytest.mark.parametrize("pick, fan_in", [
        (lambda w: w["scale 2 downsample block"].conv1.w, 32 * 9),
        (lambda w: w["scale 4 attention"].mlp_w2, 2 * 64)])
    def test_uniform_range_and_std(self, pick, fan_in):
        w = pick(build_encoder_weights(EncoderConfig(
            unshuffle_factor=2, scale_channels=(32, 64, 64, 64), heads=2, mlp_ratio=2, seed=3)))
        assert np.abs(w).max() <= np.float32(math.sqrt(3.0 / fan_in))
        assert abs(float(w.std()) - 1.0 / math.sqrt(fan_in)) < 0.1 / math.sqrt(fan_in)

    def test_biases_zero_affine_identity(self):
        w = build_encoder_weights(SMALL)
        assert np.all(w["the stem"].b == 0)
        attn = w["scale 3 downsample attention"]
        assert np.all(attn.bqkv == 0) and np.all(attn.bo == 0)
        assert np.all(attn.ln1_gamma == 1) and np.all(attn.ln1_beta == 0)
        assert np.all(attn.ln2_gamma == 1) and np.all(attn.ln2_beta == 0)

    def test_skip_placement(self):
        w = build_encoder_weights(SMALL)
        assert "scale 1 downsample block" not in w and "scale 1 downsample attention" not in w
        assert w["scale 2 downsample block"].skip is not None  # 8 -> 16 with stride 2
        assert w["scale 3 downsample block"].skip is not None  # stride 2 alone forces it
        assert all(w[f"scale {k} residual block"].skip is None for k in range(1, 5))

    def test_fan_in_scale(self):
        w = build_encoder_weights(EncoderConfig())
        measured = float(w["the stem"].w.std())
        assert abs(measured - 1.0 / math.sqrt(384 * 9)) < 0.1 / math.sqrt(384 * 9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(heads=7)  # does not divide 320
        with pytest.raises(ValueError):
            EncoderConfig(scale_channels=(8, 16, 16))
        with pytest.raises(ValueError):
            EncoderConfig(mlp_ratio=0)
        with pytest.raises(ValueError):
            EncoderConfig(unshuffle_factor=0)

    def test_config_error_is_typed(self):
        with pytest.raises(ConfigError, match="heads=7 must divide channel width 320"):
            EncoderConfig(heads=7)
        for bad in ({"scale_channels": (8, 0, 8, 8)}, {"mlp_ratio": 0}, {"unshuffle_factor": 0}):
            with pytest.raises(ConfigError):
                EncoderConfig(**bad)


    @pytest.mark.parametrize("bad, message", [
        ({"heads": 0}, "heads must be >= 1, got 0"),
        ({"heads": -1}, "heads must be >= 1, got -1"),
        ({"seed": -1}, "seed must be >= 0, got -1")])
    def test_heads_and_seed_checked_before_use(self, bad, message):
        with pytest.raises(ConfigError) as exc:
            EncoderConfig(**bad)
        assert str(exc.value) == message
        assert ConfigError.__bases__ == (CamTrajError,) and issubclass(CamTrajError, ValueError)


class TestEncoderForward:
    def test_small_forward_shapes(self):
        rng = np.random.default_rng(25)
        x = rand(rng, (1, 3, 6, 16, 32))
        feats = encoder_forward(x, SMALL)
        assert type(feats) is tuple
        assert len(feats) == 4
        expected = shape_schedule(SMALL, 1, 3, 16, 32)[2:]
        for f, s in zip(feats, expected):
            assert f.shape == s
            assert f.dtype == np.float32
            assert np.all(np.isfinite(f))

    def test_four_d_input_is_batch_one(self):
        rng = np.random.default_rng(26)
        x = rand(rng, (1, 2, 6, 16, 16))
        a = encoder_forward(x, SMALL)
        b = encoder_forward(x[0], SMALL)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_zero_input_propagates_zero(self):
        cfg = dataclasses.replace(SMALL, use_posemb=False)
        x = np.zeros((1, 2, 6, 16, 16), dtype=np.float32)
        for f in encoder_forward(x, cfg):
            assert np.all(f == 0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(27)
        x = rand(rng, (1, 2, 6, 16, 16))
        a = encoder_forward(x, SMALL)
        b = encoder_forward(x, SMALL)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_explicit_weights_match_default(self):
        rng = np.random.default_rng(28)
        x = rand(rng, (1, 2, 6, 16, 16))
        w = build_encoder_weights(SMALL)
        a = encoder_forward(x, SMALL, weights=w)
        b = encoder_forward(x, SMALL)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_posemb_affects_features(self):
        rng = np.random.default_rng(29)
        x = rand(rng, (1, 3, 6, 16, 16))
        a = encoder_forward(x, SMALL)
        b = encoder_forward(x, dataclasses.replace(SMALL, use_posemb=False))
        assert np.abs(a[0] - b[0]).max() > 1e-4

    def test_input_validation(self):
        with pytest.raises(ShapeMismatch):
            encoder_forward(np.zeros((2, 6, 16), dtype=np.float32), SMALL)
        with pytest.raises(ShapeMismatch):
            encoder_forward(np.zeros((1, 2, 5, 16, 16), dtype=np.float32), SMALL)
        with pytest.raises(IndivisibleDims):
            encoder_forward(np.zeros((1, 2, 6, 20, 16), dtype=np.float32), SMALL)

    def test_features_indexable(self):
        rng = np.random.default_rng(30)
        x = rand(rng, (1, 2, 6, 16, 16))
        feats = encoder_forward(x, SMALL)
        np.testing.assert_array_equal(feats[0], list(feats)[0])
        np.testing.assert_array_equal(feats[-1], feats[3])

    @pytest.mark.parametrize("shape", [
        (0, 2, 6, 16, 16), (1, 0, 6, 16, 16), (1, 2, 6, 0, 16), (1, 2, 6, 16, 0)])
    def test_empty_dims_rejected(self, shape):
        with pytest.raises(ShapeMismatch, match="empty"):
            encoder_forward(np.zeros(shape, dtype=np.float32), SMALL)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_drawing(self, monkeypatch, bad):
        def no_draw(*args):
            raise AssertionError("weights drawn for rejected input")

        monkeypatch.setattr(enc, "_uniform", no_draw)
        x = np.zeros((1, 2, 6, 16, 16), dtype=np.float32)
        x[0, 1, 3, 5, 7] = bad
        with pytest.raises(NonFiniteInput, match="1 non-finite"):
            encoder_forward(x, SMALL)


    def test_float64_past_float32_range_rejected(self):
        # finite float64 values the float32 cast would overflow: named as such,
        # with no RuntimeWarning from the cast
        x = np.full((2, 6, 16, 32), 1e39)
        x[0, 0, 0, :4] = (np.nan, np.inf, 3e38, -1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput,
                               match="^input holds 6141 finite values outside the float32 range$"):
                encoder_forward(x, SMALL)

    def test_out_of_memory_names_shape_and_stage(self, monkeypatch):
        def fails(name, fail_at):
            real, calls = getattr(enc, name), []

            def wrapper(*args, **kwargs):
                calls.append(1)
                if len(calls) == fail_at:
                    raise MemoryError
                return real(*args, **kwargs)
            return wrapper

        x = rand(np.random.default_rng(38), (2, 6, 16, 16))
        # the third residual block is scale 2's plain block; the second attention
        # block is scale 2's first
        for name, fail_at, stage in (("res_block", 3, "scale 2 residual block"),
                                     ("_attend", 2, "scale 2 downsample attention")):
            monkeypatch.setattr(enc, name, fails(name, fail_at))
            with pytest.raises(ConfigError) as exc:
                encoder_forward(x, SMALL)
            monkeypatch.undo()
            assert str(exc.value) == ("cannot allocate the forward pass of input shape "
                                      f"(1, 2, 6, 16, 16): out of memory in {stage}")
            assert exc.value.__cause__ is None and exc.value.__suppress_context__

    # SMALL draws 9 taps for the stem and each 3x3 conv, one for a 1x1 skip, and
    # per attention block three QKV blocks and wo (its first half), then w1, w2
    @pytest.mark.parametrize("fail_at, stage", [
        pytest.param(1, "the stem", id="stem"),  # its first tap
        pytest.param(10, "scale 1 residual block", id="conv1"),  # its first tap
        pytest.param(28, "scale 1 attention", id="qkv"),  # the Q block
        pytest.param(32, "scale 1 attention", id="mlp"),  # w1, the MLP half's first
        pytest.param(43, "scale 2 downsample block", id="conv2"),  # its first tap
        pytest.param(52, "scale 2 downsample block", id="skip"),  # the 1x1 skip conv
        pytest.param(53, "scale 2 downsample attention", id="down-qkv"),
    ])
    def test_out_of_memory_in_a_draw_names_the_stage_drawn(self, monkeypatch, fail_at, stage):
        real, calls = enc._uniform, []

        def fails(*args):
            calls.append(1)
            if len(calls) == fail_at:
                raise MemoryError
            return real(*args)

        monkeypatch.setattr(enc, "_uniform", fails)
        with pytest.raises(ConfigError) as exc:
            encoder_forward(rand(np.random.default_rng(39), (2, 6, 16, 16)), SMALL)
        assert str(exc.value) == ("cannot allocate the forward pass of input shape "
                                  f"(1, 2, 6, 16, 16): out of memory in {stage}")
        assert len(calls) == fail_at

    def test_weight_past_numpy_size_limit_refused_by_shape(self):
        # the stem's float32 (2**61, 24, 3, 3) weight passes numpy's size limit
        cfg = EncoderConfig(scale_channels=(2 ** 61, 8, 8, 8), heads=1, unshuffle_factor=2)
        message = f"^cannot allocate float32 weights of shape \\({2 ** 61}, 24, 3, 3\\)$"
        with pytest.raises(ConfigError, match=message):
            encoder_forward(np.zeros((2, 6, 16, 16), dtype=np.float32), cfg)
        with pytest.raises(ConfigError, match=message):
            build_encoder_weights(cfg)


class TestSink:
    def test_each_map_sent_once_made_and_not_kept(self, monkeypatch):
        # map k goes to the sink right after its attention block, the (2k-1)-th,
        # outside any np.errstate; by then every earlier map's storage is freed
        x = rand(np.random.default_rng(45), (2, 3, 6, 16, 32))
        want = encoder_forward(x, SMALL)
        attends, got, refs = [], [], []
        real = enc._attend

        def attend(*args):
            attends.append(1)
            return real(*args)

        def sink(feat):
            assert [r for r in refs if r() is not None] == []
            assert np.geterr() == outside
            got.append((len(attends), feat.copy()))
            root = feat
            while root.base is not None:
                root = root.base
            refs.append(weakref.ref(root))

        monkeypatch.setattr(enc, "_attend", attend)
        outside = np.geterr()
        assert encoder_forward(x, SMALL, sink=sink) == ()
        assert [at for at, _ in got] == [1, 3, 5, 7]
        for (_, a), b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("error", [OSError("disk full"), MemoryError()])
    def test_sink_error_propagates_unchanged(self, error):
        calls = []

        def sink(feat):
            calls.append(feat.shape)
            if len(calls) == 2:
                raise error

        with pytest.raises(type(error)) as info:
            encoder_forward(rand(np.random.default_rng(46), (1, 2, 6, 16, 16)), SMALL,
                            sink=sink)
        assert info.value is error and len(calls) == 2


class TestWeightStream:
    CFG = EncoderConfig(unshuffle_factor=2, scale_channels=(8, 16, 16, 16),
                        heads=4, mlp_ratio=3, seed=11)

    def test_streamed_matches_explicit_second_config(self):
        rng = np.random.default_rng(33)
        x = rand(rng, (2, 3, 6, 16, 32))
        streamed = encoder_forward(x, self.CFG)
        explicit = encoder_forward(x, self.CFG, weights=build_encoder_weights(self.CFG))
        assert len(streamed) == len(explicit) == 4
        for a, b in zip(streamed, explicit):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_draw_error_propagates_and_starts_no_thread(self, monkeypatch):
        boom = RuntimeError("draw failed")
        real = enc._uniform
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise boom
            return real(*args)

        monkeypatch.setattr(enc, "_uniform", failing)
        before = threading.active_count()
        x = rand(np.random.default_rng(34), (1, 2, 6, 16, 16))
        with pytest.raises(RuntimeError) as info:
            encoder_forward(x, SMALL)
        assert info.value is boom
        assert len(calls) == 3
        assert threading.active_count() == before

    def test_compute_error_propagates_and_starts_no_thread(self, monkeypatch):
        boom = RuntimeError("forward failed")

        def failing(*args, **kwargs):
            raise boom

        monkeypatch.setattr(enc, "temporal_attention_block", failing)
        before = threading.active_count()
        x = rand(np.random.default_rng(35), (1, 2, 6, 16, 16))
        with pytest.raises(RuntimeError) as info:
            encoder_forward(x, SMALL)
        assert info.value is boom
        assert threading.active_count() == before

    def test_success_starts_no_thread(self):
        before = threading.active_count()
        encoder_forward(rand(np.random.default_rng(36), (1, 2, 6, 16, 16)), SMALL)
        assert threading.active_count() == before


def track_taps(monkeypatch) -> list:
    """Weak references to every part ``_uniform`` draws from now on; each draw
    asserts that no part drawn before it is alive."""
    refs, real = [], enc._uniform

    def uniform(*args):
        assert [r for r in refs if r() is not None] == [], f"draw {len(refs)}"
        w = real(*args)
        refs.append(weakref.ref(w))
        return w
    monkeypatch.setattr(enc, "_uniform", uniform)
    return refs


class TestInlineDraw:
    def test_each_block_drawn_after_previous_ran(self, monkeypatch):
        # a one-band conv takes each tap right after its draw and draws the next
        # only after that tap's GEMM; an attention block draws its MLP half only
        # after its attention half ran
        log = []
        real_uniform, real_taps = enc._uniform, enc._taps
        real_mhsa, real_silu = enc.multi_head_self_attention, enc.silu

        def uniform(rng, shape, fan_in):
            log.append(f"draw {shape}")
            return real_uniform(rng, shape, fan_in)

        def taps(w):
            for dy, dx, tap in real_taps(w):
                log.append(f"tap {dy},{dx}")
                yield dy, dx, tap

        def mhsa(*args, **kwargs):
            log.append("attention")
            return real_mhsa(*args, **kwargs)

        def silu(x):
            log.append("silu")
            return real_silu(x)

        for name, fn in (("_uniform", uniform), ("_taps", taps),
                         ("multi_head_self_attention", mhsa), ("silu", silu)):
            monkeypatch.setattr(enc, name, fn)
        encoder_forward(rand(np.random.default_rng(37), (1, 2, 6, 16, 16)), SMALL)

        def conv(cin, cout, k):
            return [e for t in range(k * k) for e in (f"draw {(cin, cout)}", "tap %d,%d" % divmod(t, k))]

        def res(cin, cout, skip):
            return (conv(cin, cout, 3) + ["silu"] + conv(cout, cout, 3)
                    + (conv(cin, cout, 1) if skip else []))

        def attention(c):  # Q, K, V and wo, then w1 and w2; every block is one tile
            hidden = SMALL.mlp_ratio * c
            return ([f"draw {(c, c)}"] * 4 + ["attention", f"draw {(c, hidden)}",
                                              f"draw {(hidden, c)}", "silu"])

        want = conv(24, 8, 3) + res(8, 8, False) + attention(8)  # stem, scale 1
        for prev, c in zip(SMALL.scale_channels, SMALL.scale_channels[1:]):
            want += res(prev, c, True) + attention(c) + res(c, c, False) + attention(c)
        assert log == want

    def test_drawn_weights_dead_before_the_next_draw(self, monkeypatch):
        # each tap of a one-band conv, and each half of an attention block, is
        # drawn only once every weight drawn before it is dead
        older, group, draws = [], [], []
        state = {"half": False, "start": True}  # inside a half; at its first draw
        real_uniform, real_halves = enc._uniform, enc.AttentionParams.halves.fget

        def uniform(rng, shape, fan_in):
            if state["start"] or not state["half"]:  # a tap, or a half's first part
                older.extend(group)
                group.clear()
            state["start"] = False
            assert [r for r in older if r() is not None] == [], f"draw {len(draws)}"
            draws.append(shape)
            w = real_uniform(rng, shape, fan_in)
            group.append(weakref.ref(w))
            return w

        def drawn(half, names):  # the half's fused or single weights
            group.extend(weakref.ref(getattr(half, name)) for name in names)
            state["half"] = False
            return half

        def halves(self):
            gen = real_halves(self)
            state.update(half=True, start=True)
            yield drawn(next(gen), ("wqkv", "wo"))
            state.update(half=True, start=True)
            yield drawn(next(gen), ("mlp_w1", "mlp_w2"))

        monkeypatch.setattr(enc, "_uniform", uniform)
        monkeypatch.setattr(enc.AttentionParams, "halves", property(halves))
        feats = encoder_forward(rand(np.random.default_rng(40), (1, 2, 6, 16, 16)), SMALL)
        assert len(feats) == 4
        # 15 3x3 convs of 9 taps, three 1x1 skips, 7 attention blocks of 6 draws
        assert len(draws) == 15 * 9 + 3 + 7 * 6
        assert [r for r in older + group if r() is not None] == []

    def test_several_bands_draw_each_tap_once(self, monkeypatch):
        # a conv of several bands draws each tap once, runs it over every band
        # and drops it before the next: the same draws and bytes as the whole weight
        monkeypatch.setattr(enc, "_TILE_BYTES", 1)  # one output row per band
        rng = np.random.default_rng(48)
        x, b = rand(rng, (2, 3, 5, 4)), rand(rng, (4,))
        whole = enc._drawn(enc._Draw(np.random.default_rng(3), (4, 3, 3, 3), (3, 4), 27))
        taps = track_taps(monkeypatch)
        got = conv2d(x, enc._Draw(np.random.default_rng(3), (4, 3, 3, 3), (3, 4), 27), b)
        assert len(taps) == 9
        assert got.tobytes() == conv2d(x, whole, b).tobytes()

    @pytest.mark.parametrize("add", [False, True])
    def test_several_bands_hold_one_tap_at_a_time(self, monkeypatch, add):
        # writing its own output or adding into add_to, a conv of several bands
        # holds one drawn tap at a time and gives the one-band bytes
        rng = np.random.default_rng(52)
        x, b, y = rand(rng, (3, 3, 7, 6)), rand(rng, (3,)), rand(rng, (3, 3, 7, 6))

        def run():  # GEMMs of 3 columns: the same bits at any row count past one
            w = enc._Draw(np.random.default_rng(4), (3, 3, 3, 3), (3, 3), 27)
            return conv2d(x, w, b, add_to=y.copy() if add else None).tobytes()
        want = run()
        monkeypatch.setattr(enc, "_TILE_BYTES", 1)  # one output row per band
        taps = track_taps(monkeypatch)
        assert run() == want
        assert len(taps) == 9 and [t for t in taps if t() is not None] == []

    def test_inline_forward_holds_one_mlp_half(self):
        # at the default config the widest weights held at once are one MLP half,
        # w1 and w2 of a 1280-wide block (52.4 MB; the whole block is 78.6 MB)
        x = rand(np.random.default_rng(47), (1, 2, 6, 64, 64))
        tracemalloc.start()
        try:
            encoder_forward(x, EncoderConfig(), sink=lambda feat: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 2 * 1280 * 5120 * 4

    def test_cli_import_loads_no_thread_pool(self):
        src = str(Path(enc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = ("import sys, camtraj.cli; "
                "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout == "[]\n"


@st.composite
def shuffle_cases(draw):
    r = draw(st.integers(1, 4))
    b, n, c = (draw(st.integers(1, 3)) for _ in range(3))
    h, w = (r * draw(st.integers(1, 4)) for _ in range(2))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    bits = np.random.default_rng(seed).integers(0, 2 ** 32, (b, n, c, h, w), dtype=np.uint32)
    return bits.view(np.float32), r


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shuffle_cases())
def test_pixel_shuffle_inverts_unshuffle_exactly(case):
    x, r = case
    y = pixel_unshuffle(x, r)
    assert y.shape == (*x.shape[:2], x.shape[2] * r * r, x.shape[3] // r, x.shape[4] // r)
    assert y.transpose(3, 4, 0, 1, 2).flags.c_contiguous  # (h/r, w/r, b, n, c*r*r) storage
    assert unshuffle_inverse(y, r).tobytes() == x.tobytes()
    assert pixel_unshuffle(unshuffle_inverse(y, r), r).tobytes() == y.tobytes()


@st.composite
def conv_cases(draw):
    n, cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    h, w = (2 * draw(st.integers(0, 4)) + 1 for _ in range(2))
    k, stride = draw(st.sampled_from((1, 3))), draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # channels-last storage seen through an NCHW transpose: a non-contiguous input
    x = rand(rng, (n, h, w, cin)).transpose(0, 3, 1, 2)
    banded = draw(st.booleans())  # forced bands of one output row each
    return x, rand(rng, (cout, cin, k, k)), rand(rng, (cout,)), stride, banded


@settings(max_examples=80, deadline=None, derandomize=True)
@given(conv_cases())
def test_conv2d_matches_direct_summation(case):
    x, w, b, stride, banded = case
    with pytest.MonkeyPatch.context() as mp:
        if banded:
            mp.setattr(enc, "_TILE_BYTES", 1)
        got = conv2d(x, w, b, stride=stride)
    ref = naive_conv2d(x, w, b, stride)
    # a view of (Ho, Wo, N, Cout) storage
    assert got.shape == ref.shape and got.dtype == np.float32
    assert got.transpose(2, 3, 0, 1).flags.c_contiguous
    np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from((1, 3)), st.sampled_from((1, 2)),
       st.integers(0, 2 ** 32 - 1))
@example(1, 1, 3, 1, 0)  # h or w = 1: the outer taps of a 3x3 kernel have no valid window
@example(1, 8, 3, 2, 1)
@example(9, 1, 3, 2, 2)
def test_conv2d_matches_padded_copy_bitwise(h, w, k, stride, seed):
    # the tap buffers hold the bytes a zero-padded copy gives, so each GEMM and
    # the output are the same bits
    rng = np.random.default_rng(seed)
    n, cin, cout = (int(v) for v in rng.integers(1, 5, 3))
    x = rand(rng, (h, w, n, cin)).transpose(2, 3, 0, 1)  # encoder storage, an NCHW view
    wt = rand(rng, (k, k, cin, cout)).transpose(3, 2, 0, 1)  # tap-major, as drawn
    b = rand(rng, (cout,))
    got, ref = conv2d(x, wt, b, stride), padded_conv2d(x, wt, b, stride)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("call, error", [
    (lambda: pixel_unshuffle(np.zeros((1, 1, 4, 4, 4), np.float32), 0), IndivisibleDims),
    (lambda: pixel_unshuffle(np.zeros((1, 1, 4, 4, 4), np.float32), -2), IndivisibleDims),
    (lambda: temporal_attention_block(np.zeros((2, 3, 8), np.float32), small_attention(), 0),
     ShapeMismatch),
    (lambda: temporal_attention_block(np.zeros((2, 3, 8), np.float32), small_attention(), -2),
     ShapeMismatch),
    (lambda: verify_plucker(np.zeros((0, 6, 4, 4), np.float32)), ShapeMismatch),
    (lambda: verify_plucker(np.zeros((2, 6, 0, 4), np.float32)), ShapeMismatch),
], ids=["unshuffle-r0", "unshuffle-r-2", "heads0", "heads-2", "verify-no-frames",
        "verify-no-rows"])
def test_degenerate_arguments_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def nchw_forward(x, cfg, weights):
    """encoder_forward with C-contiguous (b*n, c, h, w) activations between
    blocks and attention token rows in (b, y, x) order, made by copies."""
    b, n = x.shape[:2]
    x = pixel_unshuffle(x, cfg.unshuffle_factor)
    stem = weights["the stem"]
    x = np.ascontiguousarray(conv2d(x.reshape(b * n, *x.shape[2:]), stem.w, stem.b))
    feats = []
    for k in range(1, 5):
        stages = [("residual block", "attention")]
        if k > 1:
            stages.insert(0, ("downsample block", "downsample attention"))
        for blk, attn in ((weights[f"scale {k} {s}"], weights[f"scale {k} {a}"])
                          for s, a in stages):
            x = np.ascontiguousarray(res_block(x, blk))
            bn, c, h, w = x.shape
            rows = np.ascontiguousarray(x.reshape(b, n, c, h, w).transpose(0, 3, 4, 1, 2))
            out = temporal_attention_block(rows.reshape(-1, n, c), attn, cfg.heads,
                                           cfg.use_posemb)
            out = out.reshape(b, h, w, n, c).transpose(0, 3, 4, 1, 2)
            x = np.ascontiguousarray(out).reshape(bn, c, h, w)
        feats.append(x.reshape(b, n, *x.shape[1:]))
    return feats


@pytest.mark.parametrize("b, n", [(1, 3), (2, 4)])
@pytest.mark.parametrize("use_posemb", [True, False])
def test_forward_matches_nchw_layout_bytes(b, n, use_posemb):
    cfg = dataclasses.replace(SMALL, use_posemb=use_posemb)
    x = rand(np.random.default_rng(39), (b, n, 6, 16, 32))
    ref = nchw_forward(x, cfg, build_encoder_weights(cfg))
    got = encoder_forward(x, cfg)
    assert [f.shape for f in got] == [f.shape for f in ref]
    assert [f.tobytes() for f in got] == [f.tobytes() for f in ref]


def test_attend_passes_and_returns_views(monkeypatch):
    # activations are stored (h, w, b*n, c): the token rows handed to the block
    # are a view of them, and the maps returned a view of the block's new output
    real, seen = enc.temporal_attention_block, {}

    def recording(x, p, heads, use_posemb):
        seen["rows"] = x
        seen["out"] = real(x, p, heads, use_posemb)
        return seen["out"]

    monkeypatch.setattr(enc, "temporal_attention_block", recording)
    b, n, c, h, w = 2, 3, 8, 4, 5
    x = rand(np.random.default_rng(40), (h, w, b * n, c)).transpose(2, 3, 0, 1)
    got = enc._attend(x, small_attention(c=c), dataclasses.replace(SMALL, heads=2), n)
    assert seen["rows"].shape == (h * w * b, n, c) and np.shares_memory(seen["rows"], x)
    assert got.shape == (b * n, c, h, w) and np.shares_memory(got, seen["out"])
    assert not np.shares_memory(seen["out"], x)  # the block left the rows as they were


def test_every_conv_reads_channels_last_storage(monkeypatch):
    # from the unshuffle on, activations are stored (h, w, b*n, c), so every
    # conv, the stem included, copies whole rows into its tap buffers
    real, seen = enc.conv2d, []

    def recording(x, w, b, stride=1, add_to=None):
        seen.append(x.transpose(2, 3, 0, 1).flags.c_contiguous)
        return real(x, w, b, stride, add_to)

    monkeypatch.setattr(enc, "conv2d", recording)
    weights = build_encoder_weights(SMALL)
    convs = sum(1 if isinstance(blk, enc.ConvParams)
                else sum(c is not None for c in (blk.conv1, blk.conv2, blk.skip))
                for blk in weights.values() if not isinstance(blk, enc.AttentionParams))
    encoder_forward(rand(np.random.default_rng(41), (2, 3, 6, 16, 32)), SMALL, weights)
    assert len(seen) == convs and all(seen)
