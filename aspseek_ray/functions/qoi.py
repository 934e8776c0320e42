"""QOI ("Quite OK Image") codec — pure numpy + stdlib, no PIL.

QOI (Dominic Szablewski, 2021; spec is public domain, one page at
qoiformat.org) is the lossless byte-oriented image format built from five
ops over a running 64-slot color index:

  QOI_OP_RGB   0xFE  r g b            literal RGB (alpha carried over)
  QOI_OP_RGBA  0xFF  r g b a          literal RGBA
  QOI_OP_INDEX 0b00iiiiii             replay index[i]
  QOI_OP_DIFF  0b01_dr_dg_db          per-channel delta in -2..1 (bias 2)
  QOI_OP_LUMA  0b10_dddddd + byte     dg in -32..31 (bias 32), dr-dg /
                                      db-dg in -8..7 (bias 8)
  QOI_OP_RUN   0b11rrrrrr             repeat prev pixel 1..62x (bias -1;
                                      62/63 values 0xFE/0xFF are the
                                      RGB/RGBA tags)

Index slot = (3r + 5g + 7b + 11a) % 64, updated once per decoded chunk.
All deltas wrap mod 256. Header: b"qoif", BE u32 width/height, u8
channels (3|4), u8 colorspace; trailer: seven 0x00 then 0x01.

Like the PNG lane this codec is LOSSLESS, so the independent-codec
oracle contract applies directly: the engine decodes QOI payloads, the
SQL oracle re-decodes a BMP twin of the same pixels, and the exact
integer channel sums must agree (see multimodal.synth_qoi_media_table).

Reference semantics: SURVEY.md §2 multimodal lane (the reference tree is
empty; QOI is the public spec named above)."""

from __future__ import annotations

import struct

import numpy as np

_MAGIC = b"qoif"
_END = b"\x00" * 7 + b"\x01"


def _hash(r: int, g: int, b: int, a: int) -> int:
    return (r * 3 + g * 5 + b * 7 + a * 11) % 64


def qoi_encode(img: np.ndarray, colorspace: int = 0) -> bytes:
    """(h, w, 3|4) uint8 -> QOI bytes. The encoder prefers ops in the
    spec's reference order (run > index > diff > luma > literal), so any
    conforming decoder reproduces the input bitwise."""
    if img.ndim != 3 or img.shape[2] not in (3, 4):
        raise ValueError("qoi_encode wants (h, w, 3|4) uint8")
    h, w, ch = img.shape
    out = bytearray()
    out += _MAGIC
    out += struct.pack(">IIBB", w, h, ch, colorspace)

    if ch == 3:
        px = np.concatenate([img, np.full((h, w, 1), 255, np.uint8)],
                            axis=2).reshape(-1, 4)
    else:
        px = img.reshape(-1, 4).copy()
    index = np.zeros((64, 4), dtype=np.uint8)
    pr, pg, pb, pa_ = 0, 0, 0, 255
    run = 0
    n = px.shape[0]
    pl = px.tolist()
    for i in range(n):
        r, g, b, a = pl[i]
        if (r, g, b, a) == (pr, pg, pb, pa_):
            run += 1
            if run == 62 or i == n - 1:
                out.append(0xC0 | (run - 1))
                run = 0
            continue
        if run:
            out.append(0xC0 | (run - 1))
            run = 0
        slot = _hash(r, g, b, a)
        ie = index[slot]
        if ie[0] == r and ie[1] == g and ie[2] == b and ie[3] == a:
            out.append(slot)
        else:
            index[slot] = (r, g, b, a)
            if a == pa_:
                dr = (r - pr + 128) % 256 - 128
                dg = (g - pg + 128) % 256 - 128
                db = (b - pb + 128) % 256 - 128
                dr_dg = dr - dg
                db_dg = db - dg
                if -2 <= dr <= 1 and -2 <= dg <= 1 and -2 <= db <= 1:
                    out.append(0x40 | ((dr + 2) << 4) | ((dg + 2) << 2)
                               | (db + 2))
                elif (-32 <= dg <= 31 and -8 <= dr_dg <= 7
                      and -8 <= db_dg <= 7):
                    out.append(0x80 | (dg + 32))
                    out.append(((dr_dg + 8) << 4) | (db_dg + 8))
                else:
                    out += bytes((0xFE, r, g, b))
            else:
                out += bytes((0xFF, r, g, b, a))
        pr, pg, pb, pa_ = r, g, b, a
    out += _END
    return bytes(out)


def qoi_decode(data: bytes) -> np.ndarray:
    """QOI bytes -> (h, w, 3|4) uint8 (shape follows the header's
    channel count)."""
    if data[:4] != _MAGIC or len(data) < 22:
        raise ValueError("not a QOI stream")
    w, h, ch, _cs = struct.unpack(">IIBB", data[4:14])
    if ch not in (3, 4):
        raise ValueError(f"bad QOI channel count {ch}")
    if w <= 0 or h <= 0 or w * h > 64_000_000:
        raise ValueError("bad QOI dimensions")
    n = w * h
    out = np.empty((n, 4), dtype=np.uint8)
    index = [(0, 0, 0, 0)] * 64
    r, g, b, a = 0, 0, 0, 255
    p = 14
    end = len(data) - 8
    i = 0
    buf = data
    while i < n:
        if p >= end:
            raise ValueError("truncated QOI stream")
        b1 = buf[p]
        p += 1
        if b1 == 0xFE:                              # RGB
            r, g, b = buf[p], buf[p + 1], buf[p + 2]
            p += 3
        elif b1 == 0xFF:                            # RGBA
            r, g, b, a = buf[p], buf[p + 1], buf[p + 2], buf[p + 3]
            p += 4
        else:
            tag = b1 & 0xC0
            if tag == 0x00:                         # INDEX
                r, g, b, a = index[b1]
            elif tag == 0x40:                       # DIFF
                r = (r + ((b1 >> 4) & 3) - 2) % 256
                g = (g + ((b1 >> 2) & 3) - 2) % 256
                b = (b + (b1 & 3) - 2) % 256
            elif tag == 0x80:                       # LUMA
                dg = (b1 & 0x3F) - 32
                b2 = buf[p]
                p += 1
                r = (r + dg + ((b2 >> 4) & 0x0F) - 8) % 256
                g = (g + dg) % 256
                b = (b + dg + (b2 & 0x0F) - 8) % 256
            else:                                   # RUN
                run = (b1 & 0x3F) + 1
                run = min(run, n - i)
                out[i:i + run] = (r, g, b, a)
                i += run
                continue
        index[_hash(r, g, b, a)] = (r, g, b, a)
        out[i] = (r, g, b, a)
        i += 1
    if buf[end:end + 8] != _END:
        raise ValueError("bad QOI end marker")
    img = out.reshape(h, w, 4)
    return np.ascontiguousarray(img[:, :, :3]) if ch == 3 else img


def is_qoi(payload: bytes) -> bool:
    return payload[:4] == _MAGIC
