"""NPY v1.0 codec: byte layout, round trips, and error taxonomy."""

import io
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from camtraj.errors import (BadMagic, ShapeMismatch, TruncatedPayload, UnsupportedDtype,
                            UnsupportedOrder)
from camtraj import npyio
from camtraj.npyio import (READ_CHUNK, read_npy, read_npy_file, read_npy_frames, write_npy,
                           write_npy_file, write_npy_frames)


def dumps(arr):
    buf = io.BytesIO()
    write_npy(arr, buf)
    return buf.getvalue()


def loads(data):
    return read_npy(io.BytesIO(data))


class TestRoundTrip:
    def test_bitwise_random(self):
        rng = np.random.default_rng(0)
        for shape in [(3,), (4, 5), (2, 3, 4), (1, 6, 8, 9), (2, 16, 6, 32, 48)]:
            arr = rng.standard_normal(shape).astype(np.float32)
            back = loads(dumps(arr))
            assert back.shape == arr.shape
            assert back.dtype == np.float32
            assert back.tobytes() == arr.tobytes()

    def test_nan_and_inf_bit_patterns(self):
        # distinct NaN payload bits must survive verbatim
        vals = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0],
                        dtype=np.float32)
        weird_nan = np.frombuffer(struct.pack("<I", 0x7FC01234), dtype=np.float32)
        arr = np.concatenate([vals, weird_nan])
        back = loads(dumps(arr))
        assert back.tobytes() == arr.tobytes()

    def test_empty_shape(self):
        arr = np.zeros((0,), dtype=np.float32)
        back = loads(dumps(arr))
        assert back.shape == (0,)
        assert back.dtype == np.float32

    def test_scalar_shape(self):
        arr = np.float32(7.5).reshape(())
        back = loads(dumps(arr))
        assert back.shape == ()
        assert float(back) == 7.5

    def test_zero_in_middle_of_shape(self):
        arr = np.zeros((4, 0, 3), dtype=np.float32)
        assert loads(dumps(arr)).shape == (4, 0, 3)

    def test_fortran_input_written_as_c_order(self):
        rng = np.random.default_rng(1)
        arr = np.asfortranarray(rng.standard_normal((5, 7)).astype(np.float32))
        back = loads(dumps(arr))
        np.testing.assert_array_equal(back, arr)
        assert back.flags["C_CONTIGUOUS"]

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((3, 8, 8)).astype(np.float32)
        path = tmp_path / "a.npy"
        write_npy_file(arr, path)
        back = read_npy_file(path)
        assert back.tobytes() == arr.tobytes()

    def test_result_is_writable(self):
        back = loads(dumps(np.ones((2, 2), dtype=np.float32)))
        back[0, 0] = 5.0
        assert back[0, 0] == 5.0


class TestByteLayout:
    def test_magic_and_version(self):
        data = dumps(np.zeros((1,), dtype=np.float32))
        assert data[:6] == b"\x93NUMPY"
        assert data[6:8] == b"\x01\x00"

    def test_preamble_multiple_of_64(self):
        for shape in [(1,), (1000000,), (16, 6, 256, 384), (), (0,)]:
            data = dumps(np.zeros(shape, dtype=np.float32))
            (hlen,) = struct.unpack("<H", data[8:10])
            assert (10 + hlen) % 64 == 0
            assert data[10 + hlen - 1:10 + hlen] == b"\n"

    def test_header_dict_text(self):
        data = dumps(np.zeros((2, 3), dtype=np.float32))
        (hlen,) = struct.unpack("<H", data[8:10])
        header = data[10:10 + hlen].decode("ascii")
        assert header.startswith(
            "{'descr': '<f4', 'fortran_order': False, 'shape': (2, 3), }")
        assert header.rstrip("\n").endswith(" ") or header.rstrip("\n").endswith("}")

    def test_reference_scale_payload_size(self):
        arr = np.zeros((16, 6, 256, 384), dtype=np.float32)
        data = dumps(arr)
        (hlen,) = struct.unpack("<H", data[8:10])
        payload = len(data) - 10 - hlen
        assert payload == 16 * 6 * 256 * 384 * 4
        assert payload == 37748736

    def test_numpy_reads_our_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((4, 6, 8)).astype(np.float32)
        path = tmp_path / "ours.npy"
        write_npy_file(arr, path)
        back = np.load(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr)

    def test_we_read_numpy_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((7, 5)).astype(np.float32)
        path = tmp_path / "theirs.npy"
        np.save(path, arr)
        back = read_npy_file(path)
        np.testing.assert_array_equal(back, arr)


class TestWriteErrors:
    def test_float64_rejected(self):
        with pytest.raises(UnsupportedDtype):
            dumps(np.zeros((2,), dtype=np.float64))

    def test_int_rejected(self):
        with pytest.raises(UnsupportedDtype):
            dumps(np.zeros((2,), dtype=np.int32))

    def test_nothing_written_on_reject(self):
        buf = io.BytesIO()
        with pytest.raises(UnsupportedDtype):
            write_npy(np.zeros((2,), dtype=np.float64), buf)
        assert buf.getvalue() == b""


class TestReadErrors:
    def test_wrong_magic(self):
        with pytest.raises(BadMagic):
            loads(b"NOTNPY" + b"\x01\x00" + b"\x00" * 64)

    def test_empty_input(self):
        with pytest.raises(BadMagic):
            loads(b"")

    def test_wrong_version(self):
        good = dumps(np.zeros((1,), dtype=np.float32))
        with pytest.raises(BadMagic):
            loads(good[:6] + b"\x02\x00" + good[8:])

    def test_truncated_before_header_length(self):
        good = dumps(np.zeros((1,), dtype=np.float32))
        with pytest.raises(BadMagic):
            loads(good[:9])

    def test_truncated_header(self):
        good = dumps(np.zeros((1,), dtype=np.float32))
        with pytest.raises(BadMagic):
            loads(good[:20])

    def test_malformed_header_dict(self):
        header = b"not a dict at all" + b" " * 36 + b"\n"
        data = b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header
        with pytest.raises(BadMagic):
            loads(data)

    def test_unexpected_header_keys(self):
        header = b"{'descr': '<f4', 'fortran_order': False, 'shape': (1,), 'x': 1}"
        header += b" " * (64 - (10 + len(header) + 1) % 64) + b"\n"
        data = (b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header
                + b"\x00" * 4)
        with pytest.raises(BadMagic):
            loads(data)

    def test_float64_descr(self, tmp_path):
        path = tmp_path / "f8.npy"
        np.save(path, np.zeros((3,), dtype=np.float64))
        with pytest.raises(UnsupportedDtype):
            read_npy_file(path)

    def test_big_endian_descr(self):
        good = dumps(np.zeros((1,), dtype=np.float32))
        with pytest.raises(UnsupportedDtype):
            loads(good.replace(b"'<f4'", b"'>f4'"))

    def test_fortran_order(self, tmp_path):
        path = tmp_path / "f.npy"
        np.save(path, np.asfortranarray(np.zeros((3, 4), dtype=np.float32)))
        with pytest.raises(UnsupportedOrder):
            read_npy_file(path)

    def test_invalid_shape_entry(self):
        good = dumps(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(BadMagic):
            loads(good.replace(b"(2, 3)", b"(2, -3)"))

    def test_truncated_payload_counts(self):
        good = dumps(np.zeros((5,), dtype=np.float32))
        with pytest.raises(TruncatedPayload) as exc:
            loads(good[:-8])
        assert exc.value.expected == 20
        assert exc.value.actual == 12

    def test_truncated_payload_empty(self):
        good = dumps(np.ones((2, 2), dtype=np.float32))
        (hlen,) = struct.unpack("<H", good[8:10])
        with pytest.raises(TruncatedPayload) as exc:
            loads(good[:10 + hlen])
        assert exc.value.expected == 16
        assert exc.value.actual == 0


def preamble(shape):
    """An unpadded NPY v1.0 preamble declaring a float32 array of ``shape``."""
    text = f"{{'descr': '<f4', 'fortran_order': False, 'shape': {shape!r}, }}\n".encode()
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text


class Unseekable(io.RawIOBase):
    """A pipe-like byte source: readable, not seekable."""

    def __init__(self, data):
        self._src = io.BytesIO(data)

    def readable(self):
        return True

    def readinto(self, b):
        return self._src.readinto(b)


class TestHostileHeader:
    HUGE = (4_000_000_000_000,)

    def test_huge_declared_shape_is_truncated_payload(self):
        with pytest.raises(TruncatedPayload) as exc:
            loads(preamble(self.HUGE) + b"\0" * 8)
        assert exc.value.expected == 16_000_000_000_000
        assert exc.value.actual == 8

    def test_huge_declared_shape_from_file(self, tmp_path):
        path = tmp_path / "hostile.npy"
        path.write_bytes(preamble(self.HUGE))
        with pytest.raises(TruncatedPayload):
            read_npy_file(path)

    def test_unseekable_source(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        data = dumps(arr)
        back = read_npy(io.BufferedReader(Unseekable(data)))
        assert back.tobytes() == arr.tobytes() and back.shape == (2, 3)
        with pytest.raises(TruncatedPayload) as exc:
            read_npy(io.BufferedReader(Unseekable(data[:-4])))
        assert (exc.value.expected, exc.value.actual) == (24, 20)

    def test_huge_declared_shape_from_pipe_allocates_little(self):
        for tail in (b"", b"\0" * 1000):
            tracemalloc.start()
            try:
                with pytest.raises(TruncatedPayload) as exc:
                    read_npy(io.BufferedReader(Unseekable(preamble(self.HUGE) + tail)))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (exc.value.expected, exc.value.actual) == (16_000_000_000_000, len(tail))
            assert peak < 2 * READ_CHUNK

    def test_unseekable_source_across_chunks(self, monkeypatch):
        monkeypatch.setattr(npyio, "READ_CHUNK", 7)
        arr = np.linspace(-3, 3, 11, dtype=np.float32)
        back = read_npy(io.BufferedReader(Unseekable(dumps(arr))))
        assert back.tobytes() == arr.tobytes()
        back[0] = 1.0  # writable, like the seekable path's result
        with pytest.raises(TruncatedPayload) as exc:
            read_npy(io.BufferedReader(Unseekable(dumps(arr)[:-5])))
        assert (exc.value.expected, exc.value.actual) == (44, 39)

    @pytest.mark.parametrize("shape", [(1,) * 70, (0, 10 ** 30), (0, 2 ** 40, 2 ** 40),
                                       (5, 10 ** 30), (2 ** 63, 0), (True,)])
    def test_shape_numpy_cannot_make_is_bad_magic(self, shape):
        data = preamble(shape) + b"\0" * 4
        for source in (io.BytesIO(data), io.BufferedReader(Unseekable(data))):
            with pytest.raises(BadMagic, match=r"^invalid shape \("):
                read_npy(source)

    @pytest.mark.parametrize("header, message", [
        ("{1: 2, 'a': 3}", "header keys [1, 'a']"),
        ("-" * 20000 + "1", "malformed header dict: ")])
    def test_odd_header_is_bad_magic(self, header, message):
        text = header.encode()
        with pytest.raises(BadMagic) as exc:
            loads(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text)
        assert str(exc.value).startswith(message)

    def test_reads_from_current_position(self):
        arr = np.linspace(-1, 1, 7, dtype=np.float32)
        buf = io.BytesIO(b"junk" + dumps(arr) + b"tail")
        buf.seek(4)
        assert read_npy(buf).tobytes() == arr.tobytes()
        assert buf.read() == b"tail"


class TestFrames:
    """The frame-stream path writes write_npy's bytes and reads with read_npy's checks."""

    @pytest.mark.parametrize("shape", [(3, 2, 5), (1, 4), (0, 3), (2,)])
    def test_frames_round_trip(self, shape):
        arr = np.random.default_rng(0).standard_normal(shape).astype(np.float32)
        buf = io.BytesIO()
        write_npy_frames(iter(arr), shape, buf)
        assert buf.getvalue() == dumps(arr)
        for source in (io.BytesIO(buf.getvalue()), Unseekable(buf.getvalue())):
            frames = [f.copy() for f in read_npy_frames(source)]
            assert len(frames) == shape[0]
            for got, want in zip(frames, arr):
                assert got.tobytes() == want.tobytes() and got.shape == want.shape

    def test_short_reads(self):
        class Trickle(Unseekable):  # a pipe that hands out at most `limit` bytes per read
            def readinto(self, b):
                return self._src.readinto(memoryview(b)[:limit])

        arr = np.arange(2400, dtype=np.float32).reshape(2, 30, 40)
        for limit in (7, 200):
            frames = [f.copy() for f in read_npy_frames(Trickle(dumps(arr)))]
            assert np.stack(frames).tobytes() == arr.tobytes()
            assert read_npy(Trickle(dumps(arr))).tobytes() == arr.tobytes()

    def test_short_writes(self):
        class Dribble(io.RawIOBase):  # a raw sink that takes at most 7 bytes per write
            def __init__(self):
                self.out = io.BytesIO()

            def writable(self):
                return True

            def write(self, b):
                return self.out.write(memoryview(b)[:7])

        arr = np.arange(48, dtype=np.float32).reshape(2, 3, 8)
        for write in (lambda sink: write_npy(arr, sink),
                      lambda sink: write_npy_frames(iter(arr), arr.shape, sink)):
            sink = Dribble()
            write(sink)
            assert sink.out.getvalue() == dumps(arr)

    def test_sink_taking_nothing_raises(self):
        class Stuck(io.RawIOBase):  # takes no bytes; fails the test instead of spinning forever
            calls = 0

            def writable(self):
                return True

            def write(self, b):
                self.calls += 1
                assert self.calls < 100, "writer kept calling a sink that takes nothing"
                return 0

        arr = np.ones((2, 3), dtype=np.float32)
        with pytest.raises(OSError):
            write_npy(arr, Stuck())
        with pytest.raises(OSError):
            write_npy_frames(iter(arr), arr.shape, Stuck())

    def test_one_reused_buffer(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        bases = {id(f.base) for f in read_npy_frames(io.BytesIO(dumps(arr)))}
        assert len(bases) == 1

    def test_truncated_before_any_frame(self):
        data = dumps(np.ones((3, 4), dtype=np.float32))[:-4]
        frames = read_npy_frames(io.BytesIO(data))
        with pytest.raises(TruncatedPayload) as exc:
            next(frames)
        assert (exc.value.expected, exc.value.actual) == (48, 44)
        frames = read_npy_frames(Unseekable(data))  # a pipe fails at the short frame
        next(frames), next(frames)
        with pytest.raises(TruncatedPayload) as exc:
            next(frames)
        assert (exc.value.expected, exc.value.actual) == (48, 44)

    @pytest.mark.parametrize("data, error", [
        (b"\x93NUMPZ\x01\x00", BadMagic),
        (preamble((1,) * 70) + b"\0" * 4, BadMagic),
        (preamble((0, 10 ** 30)), BadMagic),
        (preamble((0, 2 ** 40, 2 ** 40)), BadMagic),
        (preamble((5, 10 ** 30)), BadMagic),
        (preamble((2 ** 63, 0)), BadMagic),
        (preamble(()) + b"\0" * 4, ShapeMismatch),
        (preamble((2,)).replace(b"<f4", b"<f8"), UnsupportedDtype),
        (preamble((2,)).replace(b"False", b"True "), UnsupportedOrder)])
    def test_header_faults(self, data, error):
        with pytest.raises(error):
            next(read_npy_frames(io.BytesIO(data)))

    def test_writer_checks_frames(self):
        with pytest.raises(ShapeMismatch):
            write_npy_frames([np.zeros((2, 3), np.float32)], (1, 3, 2), io.BytesIO())
        with pytest.raises(ShapeMismatch):
            write_npy_frames([np.zeros(3, np.float32)], (2, 3), io.BytesIO())
        with pytest.raises(UnsupportedDtype):
            write_npy_frames([np.zeros(3)], (1, 3), io.BytesIO())


# Any 32-bit pattern as float32, drawn often from the quiet and signalling
# NaN payloads of either sign.
float32_bits = st.builds(
    lambda a: a.view(np.float32),
    arrays(np.uint32, array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=6),
           elements=st.one_of(st.integers(0, 2 ** 32 - 1),
                              st.integers(0x7F800001, 0x7FFFFFFF),
                              st.integers(0xFF800001, 0xFFFFFFFF))))


class TestRoundTripProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(float32_bits)
    @example(np.array(0x7FC01234, dtype=np.uint32).view(np.float32))  # 0-d NaN payload
    @example(np.zeros((0,), dtype=np.float32))
    @example(np.zeros((3, 0, 2), dtype=np.float32))
    def test_bit_exact_for_any_bits_and_shape(self, arr):
        data = dumps(arr)
        for source in (io.BytesIO(data), Unseekable(data)):
            back = read_npy(source)
            assert back.shape == arr.shape and back.dtype == np.float32
            assert back.tobytes() == arr.tobytes()
        assert dumps(back) == data
