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
drawn in this order, so ``encoder_forward`` without weights draws each conv tap
and attention half (QKV and wo, then the MLP) just before it runs: at most one
MLP half, 52 MB at the default config, is held instead of the full 0.9 GB. A
residual block run in frame groups draws its two convs whole before the first
group. Before an MLP half is drawn, the C heap's free pages go back to the OS
(glibc's ``malloc_trim``; nothing elsewhere), so its weights do not land beside
freed memory that stays resident. ``build_encoder_weights`` returns the drawn
blocks as a dict from stage name to block.

From the unshuffle on, every activation is stored once as (h, w, b*n, c)
and each block reads a free view of it: (b*n, c, h, w) frames for the k*k
shifted GEMMs of :func:`conv2d` (no im2col, no per-tap weight copy),
(h*w*b, n, c) token rows for temporal attention, and (b, n, c, h, w) for the
features, returned or streamed to a sink. Convs run each tap over bands of
output rows, residual blocks whose activations outweigh their weights over
groups of frames, and attention over tiles of token rows, within ``_TILE_BYTES``;
each linear is one 2-D GEMM on a tile's (rows * n, c) tokens.
Q, K and V are stored fused, one (c, 3c) weight and one (3c,) bias per block,
drawn as three (c, c) blocks in Q, K, V order, so they come from a single
product with no per-call copy. Adds, SiLU, LayerNorm and softmax work in place, and so
does a residual block, in the array it is given, of any layout; attention returns a
new array. A 16-frame 256x384 clip encodes in about 114 MB peak RSS (2-core VM, numpy 2.4.6).
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IndivisibleDims, NonFiniteInput, ShapeMismatch

LN_EPS = 1e-5
# bound on the widest temporary of an attention tile, a conv band or a frame group;
# at 8 MiB, the stem's bands set the peak RSS of a 16-frame 256x384 encode
_TILE_BYTES = 4 << 20
_IN_CHANNELS = 6  # the Plücker ray layout: moment, then direction
_CHUNK = 1 << 15  # elements per in-place step of silu, so its temporary stays in cache


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


class _Draw(NamedTuple):
    """A weight not yet drawn: ``parts()`` draws it from ``rng`` as ``part``-shaped
    blocks, each as it is taken. A conv's (cout, cin, k, k) has its taps as parts."""
    rng: np.random.Generator
    shape: tuple
    part: tuple
    fan_in: int

    def parts(self) -> Iterator[np.ndarray]:
        count = math.prod(self.shape) // math.prod(self.part)
        return (_uniform(self.rng, self.part, self.fan_in) for _ in range(count))


class ConvParams(NamedTuple):
    w: np.ndarray  # (cout, cin, k, k), a view of (k, k, cin, cout) storage; or a _Draw
    b: np.ndarray  # (cout,)


@dataclass(frozen=True)
class ResBlockParams:
    conv1: ConvParams
    conv2: ConvParams
    skip: ConvParams | None  # 1x1, present when channels or stride change
    stride: int = 1


@dataclass(frozen=True)
class AttentionParams:
    """Temporal attention block weights for width c; in the inline stream the four
    projection weights are ``_Draw``s, drawn as their half is taken."""

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

    @property
    def halves(self) -> Iterator[AttentionParams]:
        """The block with wqkv and wo drawn, then with the MLP's: each as it is taken."""
        yield dataclasses.replace(self, wqkv=_drawn(self.wqkv), wo=_drawn(self.wo))
        yield dataclasses.replace(self, mlp_w1=_drawn(self.mlp_w1), mlp_w2=_drawn(self.mlp_w2))


Block = ConvParams | ResBlockParams | AttentionParams


# --- primitive ops ----------------------------------------------------------

def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) via tanh, so large |x| cannot overflow exp, in place over chunks
    of x, or of a copy where x is not contiguous in any order: x may be overwritten."""
    out = x if np.may_share_memory(x.ravel(order="K"), x) else np.array(x)
    flat = out.ravel(order="K")  # a view of out's storage
    for i in range(0, flat.size, _CHUNK):
        t = flat[i:i + _CHUNK] * 0.5
        np.tanh(t, out=t)
        t += 1.0
        t *= 0.5
        flat[i:i + _CHUNK] *= t
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


def _taps(w) -> Iterator[tuple[int, int, np.ndarray]]:
    """(dy, dx, (cin, cout) weight) per tap, tap-major; a ``_Draw`` draws each as taken."""
    cout, cin, k, _ = w.shape
    taps = w.parts() if isinstance(w, _Draw) else iter(
        w.transpose(2, 3, 1, 0).reshape(k * k, cin, cout))
    for t in range(k * k):
        yield *divmod(t, k), next(taps)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1,
           add_to: np.ndarray | None = None) -> np.ndarray:
    """'Same'-padded 2D convolution on (N, C, H, W) as k*k shifted GEMMs.

    Reads ``x`` as (H, W, N, C), a free view of encoder activations. Taps run
    outermost, each over bands of whole output rows: a band's shifted (for
    stride 2, strided) window, zero past the border, goes into one reused
    buffer, times the tap's weight, into the band's rows of one (Ho, Wo, N, Cout)
    accumulator. That is the output, returned as an (N, Cout, Ho, Wo) view, or,
    with ``add_to`` ((N, Cout, Ho, Wo) of any layout), a new array added into it
    after the bias. Scratch beyond that stays within ``_TILE_BYTES`` unless one
    output row is wider; bands depend only on shapes, so every run gives the
    same bytes. One tap of a ``_Draw`` is held at a time, drawn once for all bands.
    """
    cout, cin, k, _ = w.shape
    n, _, h, wd = x.shape
    pad = (k - 1) // 2
    ho, wo = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    src = x.transpose(2, 3, 0, 1)  # (H, W, N, C)

    def window(size, n_out, off):  # outputs [lo, hi) whose input i * stride + off is in range
        lo = max(0, -(off // stride))
        hi = max(lo, min(n_out, (size - 1 - off) // stride + 1))
        return lo, hi, slice(lo * stride + off, hi * stride + off, stride)
    rows = max(1, _TILE_BYTES // (4 * wo * n * max(cin, cout)))  # output rows per band
    buf = np.empty((min(rows, ho), wo, n, cin), dtype=np.float32)
    acc = np.empty((ho, wo, n, cout), dtype=np.float32)
    for dy, dx, tap in _taps(w):
        x0, x1, xs = window(wd, wo, dx - pad)
        for r0 in range(0, ho, rows):
            band, s = buf[:ho - r0], acc[r0:r0 + rows].reshape(-1, cout)
            y0, y1, ys = window(h, len(band), r0 * stride + dy - pad)  # band-relative rows
            band[:y0] = band[y1:] = band[y0:y1, :x0] = band[y0:y1, x1:] = 0  # past the border
            np.copyto(band[y0:y1, x0:x1], src[ys, xs])
            if dy or dx:
                s += band.reshape(-1, cin) @ tap
            else:
                np.matmul(band.reshape(-1, cin), tap, out=s)
        del tap  # dead before the next is drawn
    acc += b
    out = acc.transpose(2, 3, 0, 1)
    return out if add_to is None else np.add(add_to, out, out=add_to)


def res_block(x: np.ndarray, p: ResBlockParams) -> np.ndarray:
    """conv3x3 -> SiLU -> conv3x3 plus skip; 1x1 skip conv when present. With no
    third activation, (conv2 + bias) + skip adds into x (overwritten: callers use
    the return value) or, for a 1x1 skip conv, into conv2's output. Convs treat
    frames apart, so an identity block whose two conv weights take fewer bytes
    than conv1's output runs over groups of frames, each group's conv1 output
    within ``_TILE_BYTES``, with both weights drawn whole before the first."""
    if p.skip is not None:  # conv1's output is dead once conv2 returns
        out = conv2d(silu(conv2d(x, *p.conv1, p.stride)), *p.conv2)
        return conv2d(x, *p.skip, p.stride, add_to=out)
    n, _, hi, wi = x.shape
    frame = 4 * p.conv1.w.shape[0] * hi * wi  # conv1's output bytes per frame
    step = max(1, _TILE_BYTES // frame)
    if step < n and 4 * (math.prod(p.conv1.w.shape) + math.prod(p.conv2.w.shape)) < n * frame:
        p = _drawn(p)  # held for every group
    else:
        step = n
    for i in range(0, n, step):
        conv2d(silu(conv2d(x[i:i + step], *p.conv1, p.stride)), *p.conv2, add_to=x[i:i + step])
    return x


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
    both branches vanish and out is exactly x + PosEmb, a new (R, n, c) array:
    x is left untouched. Rows are independent, so each of ``p.halves``
    (attention, then MLP) adds into out over tiles of whole rows, which depend
    only on shapes: every run gives the same bytes. A tile holds as many rows
    (at least one) as keep its widest temporary, the (rows * n, hidden) MLP
    layer, the (rows * n, 3c) QKV or the (rows, heads, n, n) scores, within ``_TILE_BYTES``.

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
    out = x.astype(np.result_type(x, p.bo))
    if use_posemb:
        out += sinusoidal_posemb(n, c)
    step = max(1, _TILE_BYTES // (out.itemsize * n * max(p.mlp_w1.shape[1], 3 * c, heads * n)))
    tiles = [out[i:i + step] for i in range(0, r, step)]
    a = next(halves := p.halves)
    for z in tiles:
        z += multi_head_self_attention(layer_norm(z, a.ln1_gamma, a.ln1_beta), a, heads)
    del a  # the MLP's weights are drawn once the attention's are dead,
    _trim_heap()  # and once the heap they held is back with the OS
    m = next(halves)
    for z in tiles:
        h = layer_norm(z, m.ln2_gamma, m.ln2_beta).reshape(-1, c) @ m.mlp_w1
        h += m.mlp_b1
        h = silu(h) @ m.mlp_w2
        h += m.mlp_b2
        z += h.reshape(z.shape)
    del m  # and the MLP's are dead too: the next block starts
    _trim_heap()  # without their freed pages resident
    return out


# --- weight construction ----------------------------------------------------

def _uniform(rng, shape: tuple, fan_in: int) -> np.ndarray:
    """(2u - 1) * sqrt(3 / fan_in), u = rng.random(shape, float32); u - 0.5 is exact."""
    w = rng.random(shape, dtype=np.float32)
    w -= np.float32(0.5)
    w *= np.float32(2.0 * math.sqrt(3.0 / fan_in))
    return w


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's ``malloc_trim``, or None where the C library has none (macOS, musl, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # no such symbol; Windows cannot dlopen(NULL)
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _trim_heap() -> None:
    """Hand the C heap's free pages back to the OS, where the C library can.

    glibc keeps freed heap memory resident for reuse; a weight too large for the
    holes left behind would otherwise add its whole size to the peak RSS."""
    if (trim := _malloc_trim()) is not None:
        trim(0)


def _drawn(w):
    """``w`` with every ``_Draw`` in it drawn, in field order: the stream's."""
    if isinstance(w, (ResBlockParams, AttentionParams)):
        return dataclasses.replace(w, **{f.name: _drawn(getattr(w, f.name))
                                         for f in dataclasses.fields(w)})
    if isinstance(w, ConvParams):
        return ConvParams(_drawn(w.w), w.b)
    if not isinstance(w, _Draw):
        return w
    parts = list(w.parts())
    if len(w.shape) == 4:  # a conv's taps, kept tap-major
        return np.stack(parts).reshape(*w.shape[2:], *w.part).transpose(3, 2, 0, 1)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def _layer(rng, shape: tuple, part: tuple, fan_in: int, bias: int) -> tuple[_Draw, np.ndarray]:
    """A ``shape`` weight to draw as ``part``s and its zero bias, unless numpy cannot make it."""
    if 4 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError(f"cannot allocate float32 weights of shape {shape}")
    return _Draw(rng, shape, part, fan_in), np.zeros(bias, dtype=np.float32)


def _conv_draw(rng, cout: int, cin: int, k: int) -> ConvParams:
    return ConvParams(*_layer(rng, (cout, cin, k, k), (cin, cout), cin * k * k, cout))


def _attention_draw(rng, c: int, mlp_ratio: int) -> AttentionParams:
    h = mlp_ratio * c
    wqkv, bqkv = _layer(rng, (c, 3 * c), (c, c), c, 3 * c)  # Q, K, V: three (c, c) draws
    wo, bo = _layer(rng, (c, c), (c, c), c, c)
    w1, b1 = _layer(rng, (c, h), (c, h), c, h)
    w2, b2 = _layer(rng, (h, c), (h, c), h, c)
    ones, zeros = np.ones(c, dtype=np.float32), np.zeros(c, dtype=np.float32)
    return AttentionParams(ones, zeros, wqkv, bqkv, wo, bo, ones.copy(), zeros.copy(),
                           w1, b1, w2, b2)


def _init_attention(rng, c: int, mlp_ratio: int) -> AttentionParams:
    return _drawn(_attention_draw(rng, c, mlp_ratio))


def _res_block_draw(rng, cin: int, cout: int, stride: int) -> ResBlockParams:
    skip = _conv_draw(rng, cout, cin, 1) if cin != cout or stride != 1 else None
    return ResBlockParams(_conv_draw(rng, cout, cin, 3), _conv_draw(rng, cout, cout, 3),
                          skip, stride)


def _stages(cfg: EncoderConfig) -> Iterator[tuple[str, Callable, tuple, bool]]:
    """(stage, init, args, is_map) in forward order: ``init(rng, *args)`` is the
    stage's block, and ``is_map`` marks the four whose output is a scale's map."""
    r, c1 = cfg.unshuffle_factor, cfg.scale_channels[0]
    yield "the stem", _conv_draw, (c1, _IN_CHANNELS * r * r, 3), False
    for k, (prev, c) in enumerate(zip((c1, *cfg.scale_channels), cfg.scale_channels), 1):
        if k > 1:
            yield f"scale {k} downsample block", _res_block_draw, (prev, c, 2), False
            yield f"scale {k} downsample attention", _attention_draw, (c, cfg.mlp_ratio), False
        yield f"scale {k} residual block", _res_block_draw, (c, c, 1), False
        yield f"scale {k} attention", _attention_draw, (c, cfg.mlp_ratio), True


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
    same stream tap by tap and half by half when no weights are passed. A
    weight past numpy's size limit raises ConfigError; one past memory raises
    numpy's own MemoryError. Both name the weight's shape.
    """
    rng = np.random.default_rng(cfg.seed)
    return {stage: _drawn(init(rng, *args)) for stage, init, args, _ in _stages(cfg)}


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

    The token rows, one per (y, x, b), view x; the maps returned view the block's new output.
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
    :func:`build_encoder_weights` are drawn inline, each conv tap or attention
    half just before it runs (a residual block run in frame groups draws its two
    convs first), so the full set is never held at once. Pass
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
        ConfigError: a weight is past numpy's size limit, naming its shape; or the
            forward pass, draws included, runs out of memory, naming the input shape and stage.
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
    for stage, init, args, is_map in _stages(cfg):
        with _named_errors(shape, stage):  # the stage is named before its draws
            blk = init(rng, *args) if weights is None else weights[stage]
            if isinstance(blk, ConvParams):
                x = conv2d(x, *blk)
            elif isinstance(blk, AttentionParams):
                x = _attend(x, blk, cfg, n)
            else:  # after a map, a downsample block: it writes no input a map shares
                x = res_block(x, blk)
        if is_map:
            (feats.append if sink is None else sink)(x.reshape(b, n, *x.shape[1:]))
    return tuple(feats)
