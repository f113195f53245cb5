"""Deterministic multi-scale trajectory encoder, forward pass only.

The network turns a ray-embedding sequence (b, n, 6, h, w) into four feature
maps at 1/8, 1/16, 1/32, and 1/64 of the input resolution: pixel unshuffle
(factor 8), a 3x3 stem conv, then four scales. Every scale except the first
starts with a stride-2 downsample residual block; each residual block is
followed by a temporal attention block that attends over the frame axis only,
treating each (batch, y, x) position as an independent token row.

There is no training here. Weights are drawn from
``numpy.random.default_rng(cfg.seed)`` (PCG64) in a fixed, documented order,
so the forward pass is reproducible bit-for-bit from the seed: the same seed
and config give the same output bits on every run. Conv and linear weights
are fan-in uniform (He et al., ICCV 2015), ``(2u - 1) * sqrt(3 / fan_in)``
for float32 ``u = rng.random(shape)``, std 1/sqrt(fan_in); biases start at
zero, LayerNorm affine at identity. Conv weights are drawn tap-major, as
(k, k, cin, cout), and kept as (cout, cin, k, k) views of that storage.

The network is one sequence of blocks, named by the stages errors print:
"the stem", then per scale k "scale k downsample block" and
"scale k downsample attention" (from scale 2 on), "scale k residual block"
and "scale k attention", whose output is scale k's feature map. Weights are
drawn in this order, so ``encoder_forward`` without weights draws each conv
or attention block just before it runs and drops it before the next draw: one
of them, at most 79 MB at the default config, is held instead of the full
0.9 GB. ``build_encoder_weights`` returns the drawn blocks as a dict from stage
name to block.

From the unshuffle on, every activation is stored once as (h, w, b*n, c)
and each block reads a free view of it: (b*n, c, h, w) frames for the k*k
shifted GEMMs of :func:`conv2d` (no im2col, no per-tap weight copy),
(h*w*b, n, c) token rows for temporal attention, and (b, n, c, h, w) for the
features, returned or streamed to a sink. Convs run over bands of output rows
and attention over tiles of token rows, within ``_TILE_BYTES``; each linear is
one 2-D GEMM on a tile's (rows * n, c) tokens.
Q, K and V are stored fused, one (c, 3c) weight and one (3c,) bias per block,
drawn as three (c, c) blocks in Q, K, V order, so they come from a single
product with no per-call copy. Bias and residual adds and the SiLU,
LayerNorm and softmax steps work in place on their own temporaries.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IndivisibleDims, NonFiniteInput, ShapeMismatch

LN_EPS = 1e-5
_TILE_BYTES = 8 << 20  # bound on the widest temporary of an attention tile or a conv band
_IN_CHANNELS = 6  # the Plücker ray layout: moment, then direction


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture hyperparameters plus the weight-init seed."""

    unshuffle_factor: int = 8
    scale_channels: tuple[int, int, int, int] = (320, 640, 1280, 1280)
    heads: int = 8
    mlp_ratio: int = 4
    seed: int = 0
    use_posemb: bool = True

    def __post_init__(self):
        if self.unshuffle_factor < 1:
            raise ConfigError(f"unshuffle_factor must be >= 1, got {self.unshuffle_factor}")
        if len(self.scale_channels) != 4 or any(c < 1 for c in self.scale_channels):
            raise ConfigError(f"need 4 positive scale channels, got {self.scale_channels}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        for c in self.scale_channels:
            if c % self.heads != 0:
                raise ConfigError(f"heads={self.heads} must divide channel width {c}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


class ConvParams(NamedTuple):
    w: np.ndarray  # (cout, cin, k, k); drawn as a view of (k, k, cin, cout) storage
    b: np.ndarray  # (cout,)


@dataclass(frozen=True)
class ResBlockParams:
    conv1: ConvParams
    conv2: ConvParams
    skip: ConvParams | None  # 1x1, present when channels or stride change
    stride: int = 1

    @property
    def convs(self) -> Iterator[ConvParams | None]:  # in the order res_block runs them
        return iter((self.conv1, self.conv2, self.skip))


class _ResBlockDraw(NamedTuple):
    """A residual block of the inline stream: ``convs`` draws each conv as it is taken."""
    convs: Iterator[ConvParams | None]
    stride: int


@dataclass(frozen=True)
class AttentionParams:
    """Temporal attention block weights for width c."""

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    wqkv: np.ndarray  # (c, 3c): Q, K, V column blocks, applied as x @ w
    bqkv: np.ndarray  # (3c,)
    wo: np.ndarray  # (c, c)
    bo: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    mlp_w1: np.ndarray  # (c, ratio*c)
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray  # (ratio*c, c)
    mlp_b2: np.ndarray

    @property
    def width(self) -> int:
        return self.wo.shape[0]


Block = ConvParams | ResBlockParams | AttentionParams


# --- primitive ops ----------------------------------------------------------

def silu(x: np.ndarray) -> np.ndarray:
    # x * sigmoid(x), written via tanh so large |x| cannot overflow exp
    out = x * 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    out *= x
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize over the last axis with LN_EPS, then apply the affine parameters."""
    out = x - x.mean(axis=-1, keepdims=True)
    var = np.square(out).mean(axis=-1, keepdims=True)
    var += LN_EPS
    out /= np.sqrt(var, out=var)
    out *= gamma
    out += beta
    return out


def sinusoidal_posemb(n: int, c: int) -> np.ndarray:
    """(n, c) sine/cosine temporal position table, float32.

    Even channels carry sin(pos / 10000^(2i/c)), odd channels the matching
    cos; recomputed from (n, c) alone, so identical on every call.
    """
    pos = np.arange(n, dtype=np.float64)[:, None]
    half = (c + 1) // 2
    i = np.arange(half, dtype=np.float64)[None, :]
    ang = pos / np.power(10000.0, 2.0 * i / c)
    pe = np.zeros((n, 2 * half), dtype=np.float32)
    pe[:, 0::2] = np.sin(ang)
    pe[:, 1::2] = np.cos(ang)
    return pe[:, :c]


def pixel_unshuffle(x: np.ndarray, r: int) -> np.ndarray:
    """Space-to-channel rearrangement on a (b, n, c, h, w) tensor.

    Output channel c*r*r + dy*r + dx holds input channel c at spatial offset
    (dy, dx) within each r x r tile; lossless and bit-exact. The output is a
    (b, n, c*r*r, h/r, w/r) view of C-contiguous (h/r, w/r, b, n, c*r*r)
    storage, the channels-last layout the encoder's activations keep.

    Raises:
        ShapeMismatch: if x is not 5-dimensional.
        IndivisibleDims: if r < 1 or h or w is not divisible by r.
    """
    if x.ndim != 5:
        raise ShapeMismatch(f"expected (b, n, c, h, w), got shape {x.shape}")
    b, n, c, h, w = x.shape
    if r < 1 or h % r or w % r:
        raise IndivisibleDims(f"spatial dims {h}x{w} not divisible by r={r}")
    y = x.reshape(b, n, c, h // r, r, w // r, r).transpose(3, 5, 0, 1, 2, 4, 6)
    return np.ascontiguousarray(y).reshape(h // r, w // r, b, n, -1).transpose(2, 3, 4, 0, 1)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1) -> np.ndarray:
    """'Same'-padded 2D convolution on (N, C, H, W) as k*k shifted GEMMs.

    Reads ``x`` as (H, W, N, C), a free view of encoder activations, and runs
    over bands of whole output rows: for each tap, a band's shifted (for stride
    2, strided) window, zero past the border, goes into one reused buffer, times
    the tap's ``w.transpose(2, 3, 1, 0)[dy, dx]``, into the band's rows of one
    (Ho, Wo, N, Cout) output, returned as an (N, Cout, Ho, Wo) view. Scratch is
    the band's buffer and one tap's product, each within ``_TILE_BYTES`` unless
    one output row is wider; bands depend only on shapes, so every run gives the
    same bytes. BLAS reads the tap-major weights of this module in place; a
    C-contiguous (Cout, Cin, k, k) array gives the same bytes via a copy.
    """
    cout, cin, k, _ = w.shape
    n, _, h, wd = x.shape
    pad = (k - 1) // 2
    ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    src = x.transpose(2, 3, 0, 1)  # (H, W, N, C)
    taps = w.transpose(2, 3, 1, 0)  # (k, k, Cin, Cout)

    def window(size, n_out, off):  # outputs [lo, hi) whose input i * stride + off is in range
        lo = max(0, -(off // stride))
        hi = max(lo, min(n_out, (size - 1 - off) // stride + 1))
        return lo, hi, slice(lo * stride + off, hi * stride + off, stride)
    rows = max(1, _TILE_BYTES // (4 * wo * n * max(cin, cout)))  # output rows per band
    tap = np.empty((min(rows, ho), wo, n, cin), dtype=np.float32)
    out = np.empty((ho, wo, n, cout), dtype=np.float32)
    for r0 in range(0, ho, rows):
        band, dst = tap[:ho - r0], out[r0:r0 + rows].reshape(-1, cout)
        for t in range(k * k):
            dy, dx = divmod(t, k)
            y0, y1, ys = window(h, len(band), r0 * stride + dy - pad)  # band-relative rows
            x0, x1, xs = window(wd, wo, dx - pad)
            band[:y0] = band[y1:] = band[y0:y1, :x0] = band[y0:y1, x1:] = 0  # past the border
            np.copyto(band[y0:y1, x0:x1], src[ys, xs])
            if t:
                dst += band.reshape(-1, cin) @ taps[dy, dx]
            else:
                np.matmul(band.reshape(-1, cin), taps[dy, dx], out=dst)
    out += b
    return out.transpose(2, 3, 0, 1)


def res_block(x: np.ndarray, p: ResBlockParams | _ResBlockDraw) -> np.ndarray:
    """conv3x3 -> SiLU -> conv3x3 plus skip; 1x1 skip conv when present."""
    convs = p.convs  # each taken just before it runs, so a streamed block draws it then
    h = conv2d(x, *next(convs), p.stride)
    h = silu(h)
    h = conv2d(h, *next(convs), 1)
    skip = next(convs)
    h += x if skip is None else conv2d(x, *skip, p.stride)
    return h


def multi_head_self_attention(x: np.ndarray, p: AttentionParams, heads: int,
                              return_weights: bool = False):
    """Self-attention over axis 1 of an (R, n, c) tensor.

    Q, K and V come from one (c, 3c) GEMM on the flattened (R * n, c) rows.
    Returns the projected output, plus the (R, heads, n, n) softmax matrix
    when ``return_weights`` is set.
    """
    r, n, c = x.shape
    hd = c // heads
    scale = 1.0 / math.sqrt(hd)
    qkv = x.reshape(r * n, c) @ p.wqkv
    qkv += p.bqkv
    q, k, v = qkv.reshape(r, n, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= scale
    weights = softmax(scores)
    heads_out = np.empty((r, n, heads, hd), dtype=weights.dtype)
    np.matmul(weights, v, out=heads_out.transpose(0, 2, 1, 3))
    out = heads_out.reshape(r * n, c) @ p.wo
    out += p.bo
    out = out.reshape(r, n, c)
    return (out, weights) if return_weights else out


def temporal_attention_block(x: np.ndarray, p: AttentionParams, heads: int,
                             use_posemb: bool = True) -> np.ndarray:
    """Pre-norm attention + MLP over the temporal axis of (R, n, c) rows.

    z  = x + PosEmb
    z2 = MHSA(LayerNorm(z)) + z
    out = MLP(LayerNorm(z2)) + z2

    With the attention output projection and the MLP final layer at zero,
    both branches vanish and out is exactly x + PosEmb. Rows are independent,
    so the block runs over tiles of whole rows, each written straight into one
    (R, n, c) output. Tiles depend only on shapes, so every run gives the same
    bytes. A tile holds as many rows (at least one) as keep its widest
    temporary, the (rows * n, hidden) MLP layer, the (rows * n, 3c) QKV or the
    (rows, heads, n, n) scores, within ``_TILE_BYTES``.

    Raises:
        ShapeMismatch: for non-3D input, a width not matching the weights,
            or heads < 1 or not dividing the width.
    """
    if x.ndim != 3:
        raise ShapeMismatch(f"expected (rows, n, c), got shape {x.shape}")
    r, n, c = x.shape
    if c != p.width:
        raise ShapeMismatch(f"input width {c} does not match weights width {p.width}")
    if heads < 1 or c % heads:
        raise ShapeMismatch(f"heads={heads} must divide width {c}")
    pe = sinusoidal_posemb(n, c) if use_posemb else None
    out = np.empty((r, n, c), dtype=np.result_type(x, p.mlp_w2))
    widest = out.itemsize * n * max(p.mlp_w1.shape[1], 3 * c, heads * n)
    step = max(1, _TILE_BYTES // widest)
    for i in range(0, r, step):
        z = x[i:i + step] + pe if use_posemb else x[i:i + step]
        z2 = multi_head_self_attention(layer_norm(z, p.ln1_gamma, p.ln1_beta), p, heads)
        z2 += z
        del z  # free the posemb sum before the MLP's wide temporaries
        h = layer_norm(z2, p.ln2_gamma, p.ln2_beta).reshape(-1, c) @ p.mlp_w1
        h += p.mlp_b1
        h = silu(h)
        tile = out[i:i + step].reshape(-1, c)
        np.matmul(h, p.mlp_w2, out=tile)
        tile += p.mlp_b2
        tile += z2.reshape(-1, c)
    return out


# --- weight construction ----------------------------------------------------

def _uniform(rng, shape: tuple, fan_in: int) -> np.ndarray:
    """(2u - 1) * sqrt(3 / fan_in), u = rng.random(shape, float32); u - 0.5 is exact."""
    try:
        w = rng.random(shape, dtype=np.float32)
    except (MemoryError, ValueError):  # ValueError: past numpy's size limit
        raise ConfigError(f"cannot allocate float32 weights of shape {shape}") from None
    w -= np.float32(0.5)
    w *= np.float32(2.0 * math.sqrt(3.0 / fan_in))
    return w


def _init_conv(rng, cout: int, cin: int, k: int) -> ConvParams:
    w = _uniform(rng, (k, k, cin, cout), cin * k * k).transpose(3, 2, 0, 1)  # tap-major
    return ConvParams(w, np.zeros(cout, dtype=np.float32))


def _init_linear(rng, din: int, dout: int) -> tuple[np.ndarray, np.ndarray]:
    w = _uniform(rng, (din, dout), din)
    return w, np.zeros(dout, dtype=np.float32)


def _init_attention(rng, c: int, mlp_ratio: int) -> AttentionParams:
    # Q, K and V are three (c, c) draws in stream order, stored side by side
    wqkv = np.concatenate([_uniform(rng, (c, c), c) for _ in range(3)], axis=1)
    wo, bo = _init_linear(rng, c, c)
    w1, b1 = _init_linear(rng, c, mlp_ratio * c)
    w2, b2 = _init_linear(rng, mlp_ratio * c, c)
    ones = np.ones(c, dtype=np.float32)
    zeros = np.zeros(c, dtype=np.float32)
    return AttentionParams(ones, zeros, wqkv, np.zeros(3 * c, dtype=np.float32), wo, bo,
                           ones.copy(), zeros.copy(), w1, b1, w2, b2)


def _init_res_block(rng, cin: int, cout: int, stride: int) -> _ResBlockDraw:
    def convs():  # conv1, conv2, skip: the draw order is the run order
        yield _init_conv(rng, cout, cin, 3)
        yield _init_conv(rng, cout, cout, 3)
        yield _init_conv(rng, cout, cin, 1) if cin != cout or stride != 1 else None
    return _ResBlockDraw(convs(), stride)


def _stages(cfg: EncoderConfig) -> Iterator[tuple[str, Callable, tuple]]:
    """(stage, init, args) in forward order: ``init(rng, *args)`` draws the stage's block."""
    r, c1 = cfg.unshuffle_factor, cfg.scale_channels[0]
    yield "the stem", _init_conv, (c1, _IN_CHANNELS * r * r, 3)
    for k, (prev, c) in enumerate(zip((c1, *cfg.scale_channels), cfg.scale_channels), 1):
        if k > 1:
            yield f"scale {k} downsample block", _init_res_block, (prev, c, 2)
            yield f"scale {k} downsample attention", _init_attention, (c, cfg.mlp_ratio)
        yield f"scale {k} residual block", _init_res_block, (c, c, 1)
        yield f"scale {k} attention", _init_attention, (c, cfg.mlp_ratio)


def build_encoder_weights(cfg: EncoderConfig) -> dict[str, Block]:
    """Draw all weights from PCG64 seeded with cfg.seed.

    Returns a dict from stage name to block (ConvParams, ResBlockParams or
    AttentionParams), in forward order, keyed by the names errors print.
    Each conv and linear weight is ``(2u - 1) * sqrt(3 / fan_in)`` for
    float32 uniform ``u = rng.random(shape)``: within +-sqrt(3 / fan_in),
    std 1/sqrt(fan_in). Conv weights are drawn as (k, k, cin, cout), kept as
    (cout, cin, k, k) views. Biases zero; LayerNorm affine at identity.
    Changing any architectural field changes the stream, so weights are only
    comparable across identical configs. :func:`encoder_forward` draws the
    same stream block by block when no weights are passed.
    """
    rng = np.random.default_rng(cfg.seed)
    blocks = ((stage, init(rng, *args)) for stage, init, args in _stages(cfg))
    return {stage: ResBlockParams(*b.convs, b.stride) if isinstance(b, _ResBlockDraw) else b
            for stage, b in blocks}


# --- full forward -----------------------------------------------------------

def shape_schedule(cfg: EncoderConfig, b: int, n: int, h: int, w: int) -> list:
    """The six tensor shapes of the forward pass, in order.

    Entries: after unshuffle, after the stem conv, then after each of the
    four scales. Spatial dims must divide by 8 * unshuffle_factor (the three
    stride-2 stages after the unshuffle).

    Raises:
        IndivisibleDims.
    """
    r = cfg.unshuffle_factor
    divisor = r * 8
    if h % divisor or w % divisor:
        raise IndivisibleDims(f"spatial dims {h}x{w} not divisible by {divisor}")
    c1, c2, c3, c4 = cfg.scale_channels
    hr, wr = h // r, w // r
    return [
        (b, n, _IN_CHANNELS * r * r, hr, wr),
        (b, n, c1, hr, wr),
        (b, n, c1, hr, wr),
        (b, n, c2, hr // 2, wr // 2),
        (b, n, c3, hr // 4, wr // 4),
        (b, n, c4, hr // 8, wr // 8),
    ]


def _attend(x: np.ndarray, p: AttentionParams, cfg: EncoderConfig, n: int) -> np.ndarray:
    """Attention over the n frames of (b*n, c, h, w) maps stored (h, w, b*n, c).

    The token rows, one per (y, x, b), and the returned maps are views.
    """
    bn, c, h, w = x.shape
    rows = x.transpose(2, 3, 0, 1).reshape(-1, n, c)
    out = temporal_attention_block(rows, p, cfg.heads, cfg.use_posemb)
    return out.reshape(h, w, bn, c).transpose(2, 3, 0, 1)


@contextlib.contextmanager
def _named_errors(shape: tuple, stage: str) -> Iterator[None]:
    """Float32 overflow and out of memory in the block as errors naming shape and stage."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except MemoryError:
        raise ConfigError(f"cannot allocate the forward pass of input shape {shape}: "
                          f"out of memory in {stage}") from None
    except FloatingPointError:
        raise NonFiniteInput(f"the forward pass of input shape {shape} overflows float32 "
                             f"in {stage}") from None


def encoder_forward(p: np.ndarray, cfg: EncoderConfig, weights: dict[str, Block] | None = None,
                    sink: Callable[[np.ndarray], object] | None = None) -> tuple[np.ndarray, ...]:
    """Run the full encoder on an (n, c, h, w) or (b, n, c, h, w) input.

    A 4D input is treated as batch size 1. Without ``weights`` the weights of
    :func:`build_encoder_weights` are drawn inline, each conv or attention
    block just before it runs, so the full set is never held at once. Pass
    that dict, with byte-identical results, to reuse it across calls or to
    probe modified parameters. One loop runs each stage's block by its type.
    Each "scale k attention" output, a (b, n, c, h, w) view of its (h, w, b*n, c)
    storage, goes to ``sink`` at once, outside any ``np.errstate``, and is not
    kept, so the return is ``()`` and an exception from ``sink`` propagates as
    is. Without ``sink`` the four maps are returned as a tuple, scale 1 first.

    Raises:
        IndivisibleDims: spatial dims not divisible by 8 * unshuffle_factor.
        ShapeMismatch: wrong rank or channel count, or an empty batch,
            frame or spatial dim.
        NonFiniteInput: the input holds NaN, infinity or values past the
            float32 range, or the forward pass overflows float32, naming the
            input shape and the stage reached.
        ConfigError: the forward pass runs out of memory, naming the input
            shape and the stage it reached.
    """
    src = np.asarray(p)
    del p  # a caller that passes its only reference gets the input freed after unshuffle
    with np.errstate(over="ignore"):  # values cast past float32's range are counted below
        x = src.astype(np.float32, copy=False)
    if x.ndim == 4:
        x = x[None]
    if x.ndim != 5:
        raise ShapeMismatch(f"expected 4D or 5D input, got shape {x.shape}")
    if x.shape[2] != _IN_CHANNELS:
        raise ShapeMismatch(f"expected {_IN_CHANNELS} input channels, got {x.shape[2]}")
    b, n, _, h, w = shape = x.shape
    if 0 in (b, n, h, w):
        raise ShapeMismatch(f"empty batch, frame or spatial dim in shape {x.shape}")
    shape_schedule(cfg, b, n, h, w)  # validates divisibility up front
    bad = x.size - np.count_nonzero(np.isfinite(x))
    if bad:
        past = np.count_nonzero(np.isfinite(src)) - (x.size - bad)
        raise NonFiniteInput(f"input holds {past} finite values outside the float32 range"
                             if past else f"input holds {bad} non-finite values")
    del src
    with _named_errors(shape, "pixel unshuffle"):
        x = pixel_unshuffle(x, cfg.unshuffle_factor)
        x = x.reshape(b * n, *x.shape[2:])  # frames are independent outside attention
    feats, rng = [], np.random.default_rng(cfg.seed)
    for stage, init, args in _stages(cfg):
        with _named_errors(shape, stage):  # the stage is named before its draw
            blk = init(rng, *args) if weights is None else weights[stage]
            if isinstance(blk, ConvParams):
                x = conv2d(x, *blk)
            elif isinstance(blk, AttentionParams):
                x = _attend(x, blk, cfg, n)
            else:
                x = res_block(x, blk)
            del blk  # block i is dead when block i+1 is drawn
        if stage.endswith(" attention") and "downsample" not in stage:  # scale k's map
            (feats.append if sink is None else sink)(x.reshape(b, n, *x.shape[1:]))
    return tuple(feats)
