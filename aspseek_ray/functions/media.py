"""Pure-numpy codecs for the uncompressed public media formats (plus
PNG, whose only compression is stdlib ``zlib``) — the decode kernels
behind pipelines/multimodal.py. Three small compressed codecs live in
their own modules: QOI images (functions/qoi.py), and IMA-ADPCM and
G.711 audio inside WAV (functions/adpcm.py, functions/g711.py).

This container ships no PIL/ffmpeg/librosa, so the codecs are built from
the public specs directly. Implemented here:

* **PNG** (8-bit gray/RGB/RGBA, non-interlaced, all five scanline
  filters, chunk CRCs verified) — DEFLATE via stdlib ``zlib``, filters
  in numpy.
* **BMP** (Windows BITMAPINFOHEADER, 24-bit BI_RGB, bottom-up rows,
  4-byte row padding) — the canonical uncompressed image interchange.
* **WAV** (RIFF/WAVE, PCM16 mono/stereo) — canonical uncompressed audio;
  ``wav_decode`` also dispatches the IMA-ADPCM and G.711 format tags.
* **Y4M** (YUV4MPEG2, C444 plain ASCII header + raw frames) — the
  standard uncompressed video stream format ffmpeg reads/writes.

Every other container (WebP, MP3, H.264, ...) raises
NotImplementedError: that seam is where PIL/ffmpeg would plug in.
Encoders exist so tests and the synthetic media generator produce REAL
payload bytes that any external tool could open; decoders are vectorized
numpy (no per-pixel Python)."""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "bmp_encode", "bmp_decode", "wav_encode", "wav_decode",
    "y4m_encode", "y4m_decode", "resize_nearest",
    "png_encode", "png_decode", "decode_image",
]


# --------------------------------------------------------------------- BMP
def bmp_encode(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB -> 24-bit BI_RGB BMP bytes (bottom-up rows,
    rows padded to 4 bytes, pixels stored BGR per the spec)."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("bmp_encode expects (h, w, 3) uint8")
    h, w = img.shape[:2]
    row_bytes = w * 3
    pad = (-row_bytes) % 4
    stride = row_bytes + pad
    pixel_bytes = stride * h
    # BGR, bottom-up, padded
    bgr = img[::-1, :, ::-1]
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :row_bytes] = bgr.reshape(h, row_bytes)
    header = struct.pack("<2sIHHI", b"BM", 14 + 40 + pixel_bytes, 0, 0, 54)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, pixel_bytes,
                       2835, 2835, 0, 0)
    return header + info + rows.tobytes()


def bmp_decode(data: bytes) -> np.ndarray:
    """24-bit BI_RGB BMP bytes -> (h, w, 3) uint8 RGB."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP file")
    off = struct.unpack_from("<I", data, 10)[0]
    hdr_size = struct.unpack_from("<I", data, 14)[0]
    if hdr_size < 40:
        raise NotImplementedError("BITMAPCOREHEADER BMPs not supported")
    w, h = struct.unpack_from("<ii", data, 18)
    planes, bpp = struct.unpack_from("<HH", data, 26)
    comp = struct.unpack_from("<I", data, 30)[0]
    if bpp != 24 or comp != 0:
        raise NotImplementedError(f"only 24-bit BI_RGB supported "
                                  f"(got bpp={bpp} comp={comp})")
    bottom_up = h > 0
    h = abs(h)
    stride = (w * 3 + 3) // 4 * 4
    rows = np.frombuffer(data, dtype=np.uint8, count=stride * h, offset=off)
    rows = rows.reshape(h, stride)[:, : w * 3].reshape(h, w, 3)
    if bottom_up:
        rows = rows[::-1]
    return rows[:, :, ::-1].copy()   # BGR -> RGB


def resize_nearest(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize (pixel-center sampling), vectorized."""
    h, w = img.shape[:2]
    ys = np.minimum(((np.arange(out_h) + 0.5) * h / out_h).astype(np.int64),
                    h - 1)
    xs = np.minimum(((np.arange(out_w) + 0.5) * w / out_w).astype(np.int64),
                    w - 1)
    return img[ys][:, xs]


# --------------------------------------------------------------------- WAV
def wav_encode(samples: np.ndarray, rate: int = 16_000) -> bytes:
    """(n,) or (n, ch) int16 PCM -> RIFF/WAVE bytes."""
    if samples.dtype != np.int16:
        raise ValueError("wav_encode expects int16 samples")
    if samples.ndim == 1:
        samples = samples[:, None]
    n, ch = samples.shape
    data = samples.astype("<i2").tobytes()
    byte_rate = rate * ch * 2
    fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, ch, rate, byte_rate,
                      ch * 2, 16)
    hdr = struct.pack("<4sI4s", b"RIFF", 4 + len(fmt) + 8 + len(data),
                      b"WAVE")
    return hdr + fmt + struct.pack("<4sI", b"data", len(data)) + data


def wav_decode(data: bytes) -> tuple[np.ndarray, int]:
    """RIFF/WAVE bytes -> ((n, ch) int16 samples, sample_rate) for
    PCM16, G.711 (A-law 0x0006 / mu-law 0x0007) and IMA-ADPCM (0x0011).
    Walks RIFF chunks, so extra chunks (LIST/fact) are tolerated."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a WAV file")
    pos, rate, ch, raw, audio_fmt = 12, None, None, None, None
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        body = data[pos + 8: pos + 8 + size]
        if cid == b"fmt ":
            audio_fmt, ch, rate = struct.unpack_from("<HHI", body, 0)
            bits = struct.unpack_from("<H", body, 14)[0]
            if audio_fmt == 0x11:
                # IMA ADPCM: the real compressed-audio codec
                from aspseek_ray.functions.adpcm import adpcm_decode
                return adpcm_decode(data)
            if audio_fmt not in (1, 6, 7) or \
                    bits != (16 if audio_fmt == 1 else 8):
                raise NotImplementedError(
                    "only PCM16, G.711 and IMA-ADPCM WAV supported "
                    f"(got format {audio_fmt}, {bits} bits)")
        elif cid == b"data":
            raw = body
        pos += 8 + size + (size & 1)   # chunks are word-aligned
    if rate is None or raw is None:
        raise ValueError("WAV missing fmt/data chunk")
    if audio_fmt in (6, 7):
        # G.711 A-law / mu-law: table expansion to int16
        from aspseek_ray.functions.g711 import g711_wav_decode
        return g711_wav_decode(data, audio_fmt, ch, rate, raw)
    samples = np.frombuffer(raw, dtype="<i2")
    return samples.reshape(-1, ch), int(rate)


# --------------------------------------------------------------------- Y4M
def y4m_encode(frames: np.ndarray, fps: int = 25) -> bytes:
    """(n_frames, h, w, 3) uint8 (treated as raw 4:4:4 planes) ->
    YUV4MPEG2 C444 bytes."""
    if frames.ndim != 4 or frames.shape[3] != 3 or frames.dtype != np.uint8:
        raise ValueError("y4m_encode expects (n, h, w, 3) uint8")
    n, h, w, _ = frames.shape
    out = [f"YUV4MPEG2 W{w} H{h} F{fps}:1 Ip A1:1 C444\n".encode()]
    planes = frames.transpose(0, 3, 1, 2)   # (n, 3, h, w) — Y, U, V planes
    for i in range(n):
        out.append(b"FRAME\n")
        out.append(planes[i].tobytes())
    return b"".join(out)


def y4m_decode(data: bytes) -> tuple[np.ndarray, int]:
    """YUV4MPEG2 C444 bytes -> ((n, h, w, 3) uint8, fps)."""
    nl = data.index(b"\n")
    head = data[:nl].decode()
    if not head.startswith("YUV4MPEG2"):
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = fps = None
    colorspace = None                    # no C tag: 4:2:0 by the spec
    for tok in head.split()[1:]:
        if tok[0] == "W":
            w = int(tok[1:])
        elif tok[0] == "H":
            h = int(tok[1:])
        elif tok[0] == "F":
            fps = int(tok[1:].split(":")[0])
        elif tok[0] == "C":
            colorspace = tok
    if colorspace != "C444":
        raise NotImplementedError("only C444 (4:4:4) streams supported")
    frame_bytes = w * h * 3
    frames = []
    pos = nl + 1
    while pos < len(data):
        fe = data.index(b"\n", pos)          # FRAME line (may carry params)
        if not data[pos:fe].startswith(b"FRAME"):
            raise ValueError("malformed Y4M frame header")
        start = fe + 1
        plane = np.frombuffer(data, np.uint8, count=frame_bytes,
                              offset=start)
        frames.append(plane.reshape(3, h, w).transpose(1, 2, 0))
        pos = start + frame_bytes
    return np.stack(frames) if frames else np.empty((0, h, w, 3), np.uint8), fps


# --------------------------------------------------------------------- PNG
# PNG (ISO/IEC 15948) IS implementable without PIL: the only compression
# is DEFLATE, which the stdlib `zlib` provides, and the five scanline
# filters are small integer recurrences. Supported profile: bit depth 8,
# color types 0 (gray) / 2 (RGB) / 6 (RGBA), non-interlaced — the profile
# virtually all machine-generated web PNGs use. Palette (3), 16-bit and
# Adam7 interlace raise NotImplementedError (honest seams, like the other
# codecs' unsupported variants).

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 6: 4}


def _png_chunk(tag: bytes, body: bytes) -> bytes:
    import zlib

    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor (PNG spec §9.4) over int16/int32 arrays."""
    p = a + b - c
    pa_, pb_, pc_ = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa_ <= pb_) & (pa_ <= pc_), a,
                    np.where(pb_ <= pc_, b, c))


def png_encode(img: np.ndarray, filter_type: int | None = None) -> bytes:
    """uint8 image -> PNG bytes. (h, w) -> gray, (h, w, 3) -> RGB,
    (h, w, 4) -> RGBA, always bit depth 8, non-interlaced.

    ``filter_type``: fix one scanline filter 0-4, or None (default) to
    cycle ``row % 5`` — deterministic, spec-legal, and it exercises every
    filter path in any decoder reading the output."""
    import zlib

    if img.dtype != np.uint8:
        raise ValueError("png_encode expects uint8")
    if img.ndim == 2:
        color, ch = 0, 1
        img = img[:, :, None]
    elif img.ndim == 3 and img.shape[2] == 3:
        color, ch = 2, 3
    elif img.ndim == 3 and img.shape[2] == 4:
        color, ch = 6, 4
    else:
        raise ValueError("png_encode expects (h,w), (h,w,3) or (h,w,4)")
    h, w = img.shape[:2]
    raw = img.reshape(h, w * ch)
    prior = np.zeros(w * ch, np.uint8)
    left = np.zeros_like(raw[0])
    out = bytearray()
    for r in range(h):
        row = raw[r]
        ft = (r % 5) if filter_type is None else filter_type
        left[:ch] = 0
        left[ch:] = row[:-ch]
        if ft == 0:
            flt = row
        elif ft == 1:                       # Sub
            flt = row - left                # uint8 wraps mod 256 per spec
        elif ft == 2:                       # Up
            flt = row - prior
        elif ft == 3:                       # Average
            avg = (left.astype(np.int16) + prior.astype(np.int16)) >> 1
            flt = row - avg.astype(np.uint8)
        elif ft == 4:                       # Paeth
            upleft = np.zeros_like(prior)
            upleft[ch:] = prior[:-ch]
            pred = _paeth(left.astype(np.int16), prior.astype(np.int16),
                          upleft.astype(np.int16))
            flt = row - pred.astype(np.uint8)
        else:
            raise ValueError(f"bad filter type {ft}")
        out.append(ft)
        out += flt.tobytes()
        prior = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(bytes(out), 6))
            + _png_chunk(b"IEND", b""))


def png_decode(data: bytes) -> np.ndarray:
    """PNG bytes -> uint8 array: (h, w) for gray, (h, w, 3) RGB,
    (h, w, 4) RGBA. Verifies every chunk CRC; concatenates multiple
    IDATs; unfilters all five scanline filters."""
    import zlib

    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG file")
    pos, ihdr, idat = 8, None, bytearray()
    while pos + 8 <= len(data):
        length = struct.unpack_from(">I", data, pos)[0]
        tag = data[pos + 4: pos + 8]
        body = data[pos + 8: pos + 8 + length]
        crc = struct.unpack_from(">I", data, pos + 8 + length)[0]
        if zlib.crc32(tag + body) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {tag!r} CRC mismatch")
        if tag == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
        pos += 12 + length
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, depth, color, comp, filt, interlace = ihdr
    if comp != 0 or filt != 0:
        raise ValueError("bad IHDR compression/filter method")
    if depth != 8 or color not in _PNG_CHANNELS or interlace != 0:
        raise NotImplementedError(
            f"only 8-bit gray/RGB/RGBA non-interlaced PNGs supported "
            f"(depth={depth} color={color} interlace={interlace})")
    ch = _PNG_CHANNELS[color]
    rb = w * ch                              # bytes per scanline
    raw = np.frombuffer(zlib.decompress(bytes(idat)), np.uint8)
    if len(raw) != h * (rb + 1):
        raise ValueError("PNG decompressed size mismatch")
    raw = raw.reshape(h, rb + 1)
    out = np.empty((h, rb), np.uint8)
    prior = np.zeros(rb, np.int32)
    for r in range(h):
        ft = int(raw[r, 0])
        flt = raw[r, 1:].astype(np.int32)
        if ft == 0:
            rec = flt
        elif ft == 1:                       # Sub: per-channel prefix sum
            rec = flt.reshape(w, ch).cumsum(axis=0).reshape(rb) & 0xFF
        elif ft == 2:                       # Up
            rec = (flt + prior) & 0xFF
        elif ft == 3:                       # Average: sequential in x
            rec = flt.copy()
            rec[:ch] = (flt[:ch] + (prior[:ch] >> 1)) & 0xFF
            for x in range(ch, rb, ch):
                rec[x:x + ch] = (flt[x:x + ch]
                                 + ((rec[x - ch:x] + prior[x:x + ch]) >> 1)
                                 ) & 0xFF
        elif ft == 4:                       # Paeth: sequential in x
            rec = flt.copy()
            up = prior
            rec[:ch] = (flt[:ch] + up[:ch]) & 0xFF   # a=c=0 -> pred=b
            for x in range(ch, rb, ch):
                pred = _paeth(rec[x - ch:x], up[x:x + ch], up[x - ch:x])
                rec[x:x + ch] = (flt[x:x + ch] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter type {ft}")
        out[r] = rec
        prior = rec.astype(np.int32)
    if ch == 1:
        return out.reshape(h, w)
    return out.reshape(h, w, ch)


def decode_image(payload: bytes) -> np.ndarray:
    """Sniff + decode an image payload (BMP, PNG or QOI) to (h, w, 3)
    uint8 RGB: gray is replicated across channels, RGBA drops alpha —
    the normalized shape every image stage downstream consumes."""
    if payload[:2] == b"BM":
        return bmp_decode(payload)
    if payload[:8] == _PNG_SIG:
        img = png_decode(payload)
        if img.ndim == 2:
            return np.repeat(img[:, :, None], 3, axis=2)
        return np.ascontiguousarray(img[:, :, :3])
    if payload[:4] == b"qoif":
        from aspseek_ray.functions.qoi import qoi_decode
        img = qoi_decode(payload)
        return np.ascontiguousarray(img[:, :, :3])
    raise NotImplementedError(
        "unknown image container (only BMP, PNG and QOI are decoded)")
