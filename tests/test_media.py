"""Pure-numpy media codecs (functions/media.py): byte-exact round trips,
spec details (BMP row padding/BGR/bottom-up, WAV chunk walk, Y4M header),
and the real multimodal kernels over them."""

import struct

import numpy as np
import pytest

from aspseek_ray.functions.media import (
    bmp_decode,
    bmp_encode,
    resize_nearest,
    wav_decode,
    wav_encode,
    y4m_decode,
    y4m_encode,
)


def test_bmp_roundtrip_odd_width():
    rng = np.random.default_rng(1)
    for w, h in [(1, 1), (3, 2), (5, 7), (64, 33)]:   # odd widths need padding
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        back = bmp_decode(bmp_encode(img))
        assert back.shape == (h, w, 3)
        assert np.array_equal(back, img)


def test_bmp_spec_details():
    img = np.zeros((2, 3, 3), np.uint8)
    img[0, 0] = [255, 0, 0]          # top-left RED
    data = bmp_encode(img)
    assert data[:2] == b"BM"
    w, h = struct.unpack_from("<ii", data, 18)
    assert (w, h) == (3, 2)
    off = struct.unpack_from("<I", data, 10)[0]
    stride = (3 * 3 + 3) // 4 * 4
    assert stride == 12              # padded from 9
    # bottom-up: the LAST stored row is the top row; pixels are BGR
    top_row = data[off + stride:off + stride + 9]
    assert top_row[:3] == bytes([0, 0, 255])


def test_wav_roundtrip_and_chunks():
    rng = np.random.default_rng(2)
    mono = rng.integers(-30000, 30000, size=500, dtype=np.int16)
    back, rate = wav_decode(wav_encode(mono, 8000))
    assert rate == 8000
    assert np.array_equal(back[:, 0], mono)
    stereo = rng.integers(-30000, 30000, size=(100, 2), dtype=np.int16)
    back2, _ = wav_decode(wav_encode(stereo, 44100))
    assert np.array_equal(back2, stereo)
    # extra RIFF chunk before data is tolerated (chunk walk)
    raw = wav_encode(mono, 8000)
    fmt_end = 12 + 8 + 16
    extra = struct.pack("<4sI", b"LIST", 4) + b"INFO"
    patched = raw[:fmt_end] + extra + raw[fmt_end:]
    patched = patched[:4] + struct.pack("<I", len(patched) - 8) + patched[8:]
    back3, _ = wav_decode(patched)
    assert np.array_equal(back3[:, 0], mono)


def test_y4m_roundtrip():
    rng = np.random.default_rng(3)
    frames = rng.integers(0, 256, size=(4, 6, 5, 3), dtype=np.uint8)
    data = y4m_encode(frames, fps=10)
    assert data.startswith(b"YUV4MPEG2 W5 H6 F10:1")
    back, fps = y4m_decode(data)
    assert fps == 10
    assert np.array_equal(back, frames)


def test_resize_nearest_exact():
    # 2x2 checkerboard upscaled 2x: each source pixel becomes a 2x2 block
    img = np.array([[[0, 0, 0], [255, 255, 255]],
                    [[255, 255, 255], [0, 0, 0]]], np.uint8)
    up = resize_nearest(img, 4, 4)
    assert up.shape == (4, 4, 3)
    assert np.array_equal(up[:2, :2], np.zeros((2, 2, 3), np.uint8))
    assert np.array_equal(up[:2, 2:], np.full((2, 2, 3), 255, np.uint8))


def test_compressed_formats_are_a_declared_seam():
    # only BMP/PNG/QOI/WAV (PCM16, G.711, IMA-ADPCM)/Y4M decode; every
    # other container is an honest seam that fails loudly instead of
    # decoding to garbage
    from aspseek_ray.functions.media import decode_image
    from aspseek_ray.pipelines.multimodal import DecodeStage

    def wav_with_format(tag: int) -> bytes:
        raw = wav_encode(np.zeros(8, np.int16), 8000)
        return raw[:20] + struct.pack("<H", tag) + raw[22:]

    payloads = [
        b"RIFF\x00\x00\x00\x00WEBPVP8 ",                  # WebP
        b"\xff\xd8\xff\xe0\x00\x10JFIF\x00",                # JPEG
        b"GIF89a\x01\x00\x01\x00\x00\x00\x00",              # GIF
        b"fLaC\x00\x00\x00\x22",                          # FLAC
        b"RIFF\x00\x00\x00\x00AVI LIST",                   # AVI
        wav_with_format(0x03),                              # IEEE float
        wav_with_format(0x55),                              # MP3 in WAV
    ]
    for p in payloads:
        with pytest.raises(NotImplementedError):
            DecodeStage()._features(p)
        with pytest.raises(NotImplementedError):
            decode_image(p)


def test_decode_stage_real_features(ray_session):
    from aspseek_ray.pipelines.multimodal import (
        extract_media_features,
        synth_media_dataset,
    )

    ds = synth_media_dataset(30)
    f = extract_media_features(ds).to_pandas()
    assert len(f) == 30
    by_type = dict(zip(f["media_id"], zip(f["media_type"], f["features"])))
    # image features carry the true encoded dims
    import ray
    import pyarrow as pa
    src = pa.concat_tables(ray.get(ds.to_arrow_refs())).to_pylist()
    for row in src:
        kind, feat = by_type[row["media_id"]]
        feat = list(feat)
        if kind == "image":
            assert (int(feat[0]), int(feat[1])) == (row["meta"]["width"],
                                                    row["meta"]["height"])
        elif kind == "audio":
            assert int(feat[1]) == 8000                 # sample rate
            assert 0.0 < feat[2] < 1.0                  # sine RMS
            assert abs(feat[2] - 20000 / 32768 / np.sqrt(2)) < 0.05
        else:
            assert int(feat[3]) == 5                    # fps
            assert (int(feat[1]), int(feat[2])) == (row["meta"]["height"],
                                                    row["meta"]["width"])


def test_resize_stage_real_pixels(ray_session):
    from aspseek_ray.pipelines.multimodal import resize_images, synth_media_dataset

    r = resize_images(synth_media_dataset(30), max_side=16).to_pandas()
    assert len(r) == 10
    assert (r[["out_w", "out_h"]].max(axis=1) <= 16).all()
    for _, row in r.iterrows():      # payload is a REAL decodable BMP
        img = bmp_decode(row["payload"])
        assert img.shape == (row["out_h"], row["out_w"], 3)


def test_pixel_stats_exact(ray_session):
    """PixelStatsStage means equal the decoded image's exact channel means
    (int64 sums / n) and only image rows survive."""
    from aspseek_ray.pipelines.multimodal import (
        media_pixel_stats,
        synth_media_dataset,
        synth_media_table,
    )

    r = media_pixel_stats(synth_media_dataset(30)).to_pandas()
    src = synth_media_table(30).to_pylist()
    imgs = {row["media_id"]: row for row in src
            if row["media_type"] == "image"}
    assert set(r["media_id"]) == set(imgs)
    for _, row in r.iterrows():
        img = bmp_decode(imgs[row["media_id"]]["payload"])
        h, w = img.shape[:2]
        assert (row["width"], row["height"]) == (w, h)
        s = img.reshape(-1, 3).sum(axis=0, dtype=np.int64)
        assert row["mean_r"] == s[0] / (w * h)
        assert row["mean_g"] == s[1] / (w * h)
        assert row["mean_b"] == s[2] / (w * h)


def test_audio_stats_exact(ray_session):
    from aspseek_ray.pipelines.multimodal import (
        media_audio_stats,
        synth_media_dataset,
        synth_media_table,
    )

    r = media_audio_stats(synth_media_dataset(30)).to_pandas()
    wavs = {row["media_id"]: row for row in synth_media_table(30).to_pylist()
            if row["media_type"] == "audio"}
    assert set(r["media_id"]) == set(wavs)
    for _, row in r.iterrows():
        samples, rate = wav_decode(wavs[row["media_id"]]["payload"])
        s = samples[:, 0].astype(np.int64)
        assert row["rate"] == rate and row["n_samples"] == len(s)
        assert row["peak_abs"] == int(np.abs(s).max())
        assert row["mean_sample"] == s.sum() / len(s)
        assert row["zero_cross"] == int(
            np.count_nonzero((s[1:] < 0) != (s[:-1] < 0)))


def test_frame_luma_exact(ray_session):
    from aspseek_ray.pipelines.multimodal import (
        media_frame_luma,
        synth_media_dataset,
        synth_media_table,
    )

    r = media_frame_luma(synth_media_dataset(30)).to_pandas()
    vids = {row["media_id"]: row for row in synth_media_table(30).to_pylist()
            if row["media_type"] == "video"}
    assert set(r["media_id"]) == set(vids)
    for mid, grp in r.groupby("media_id"):
        frames, fps = y4m_decode(vids[mid]["payload"])
        n, h, w = frames.shape[:3]
        assert len(grp) == n
        assert (grp["fps"] == fps).all()
        g = grp.sort_values("frame_idx").reset_index(drop=True)
        for fi in range(n):
            assert g.loc[fi, "mean_y"] == (
                frames[fi, :, :, 0].astype(np.int64).sum() / (h * w))


# ---------------------------------------------------------------- PNG codec
def _png_rng():
    return np.random.Generator(np.random.PCG64(21))


def test_png_roundtrip_all_color_types_and_filters():
    from aspseek_ray.functions.media import png_decode, png_encode

    rng = _png_rng()
    for shape in [(11, 7), (11, 7, 3), (11, 7, 4), (1, 1, 3), (6, 1)]:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
        for ft in (None, 0, 1, 2, 3, 4):      # None = row%5 cycle
            back = png_decode(png_encode(img, ft))
            assert back.dtype == np.uint8 and back.shape == img.shape
            assert (back == img).all(), (shape, ft)


def test_png_spec_details():
    """Signature, IHDR layout, chunk CRCs, and multi-IDAT streams per
    ISO/IEC 15948."""
    import struct
    import zlib

    from aspseek_ray.functions.media import png_decode, png_encode

    img = _png_rng().integers(0, 256, size=(9, 13, 3), dtype=np.uint8)
    data = png_encode(img, 0)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    # IHDR is the first chunk: 13-byte body, big-endian w/h, depth 8,
    # color type 2 (truecolor), no interlace
    assert struct.unpack_from(">I", data, 8)[0] == 13
    assert data[12:16] == b"IHDR"
    w, h, depth, color, comp, filt, inter = struct.unpack(">IIBBBBB",
                                                          data[16:29])
    assert (w, h, depth, color, comp, filt, inter) == (13, 9, 8, 2, 0, 0, 0)
    # a flipped payload byte must fail the CRC check
    bad = bytearray(data)
    bad[45] ^= 0x01
    with pytest.raises(ValueError, match="CRC"):
        png_decode(bytes(bad))
    # the zlib stream may arrive split across several IDAT chunks
    pos, idat = 8, b""
    pre, post = data[:33], b""
    while pos + 8 <= len(data):
        ln = struct.unpack_from(">I", data, pos)[0]
        tag = data[pos + 4: pos + 8]
        if tag == b"IDAT":
            idat = data[pos + 8: pos + 8 + ln]
        elif tag == b"IEND":
            post = data[pos: pos + 12 + ln]
        pos += 12 + ln

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))

    cut = len(idat) // 2
    split = pre + chunk(b"IDAT", idat[:cut]) + chunk(b"IDAT", idat[cut:]) + post
    assert (png_decode(split) == img).all()


def test_png_unsupported_profiles_are_declared_seams():
    import struct
    import zlib

    from aspseek_ray.functions.media import png_decode

    def mini(depth, color, interlace):
        ihdr = struct.pack(">IIBBBBB", 1, 1, depth, color, 0, 0, interlace)
        def chunk(tag, body):
            return (struct.pack(">I", len(body)) + tag + body
                    + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))
        return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
                + chunk(b"IDAT", zlib.compress(b"\x00\x00"))
                + chunk(b"IEND", b""))

    for depth, color, inter in [(16, 2, 0), (8, 3, 0), (8, 2, 1), (1, 0, 0)]:
        with pytest.raises(NotImplementedError):
            png_decode(mini(depth, color, inter))
    with pytest.raises(ValueError, match="not a PNG"):
        png_decode(b"GIF89a...")


def test_paeth_predictor_spec():
    """paeth(a,b,c) returns whichever of a/b/c is nearest to a+b-c, ties
    broken a, then b (PNG spec §9.4)."""
    from aspseek_ray.functions.media import _paeth

    a = np.array([1, 100, 3, 5], np.int16)    # left
    b = np.array([2, 3, 100, 5], np.int16)    # up
    c = np.array([3, 2, 2, 5], np.int16)      # upper-left
    # p = a+b-c -> [0, 101, 101, 5]; distances decide, ties prefer a then b
    assert _paeth(a, b, c).tolist() == [1, 100, 100, 5]


def test_decode_image_normalizes_channels():
    from aspseek_ray.functions.media import decode_image, png_encode

    rng = _png_rng()
    g = rng.integers(0, 256, size=(5, 6), dtype=np.uint8)
    assert (decode_image(png_encode(g))
            == np.repeat(g[:, :, None], 3, axis=2)).all()
    rgba = rng.integers(0, 256, size=(5, 6, 4), dtype=np.uint8)
    assert (decode_image(png_encode(rgba)) == rgba[:, :, :3]).all()
    rgb = rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8)
    assert (decode_image(bmp_encode(rgb)) == rgb).all()
    with pytest.raises(NotImplementedError):
        decode_image(b"RIFF\x00\x00\x00\x00WEBPVP8 ")


def test_png_pixel_stats_match_bmp_twin(ray_session):
    """The independent-codec invariant behind the
    multimodal_png_pixel_stats oracle: decoding the PNG payload and the
    BMP twin of the same pixels yields identical exact channel sums."""
    import ray.data as rd

    from aspseek_ray.pipelines.multimodal import (
        media_pixel_stats,
        synth_png_media_table,
    )

    t = synth_png_media_table(18)
    got = media_pixel_stats(
        rd.from_arrow(t.select(["media_id", "media_type", "payload"]))
    ).to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(got) == 18
    for i, row in got.iterrows():
        img = bmp_decode(t["payload_bmp"][i].as_py())
        h, w = img.shape[:2]
        s = img.reshape(-1, 3).sum(axis=0, dtype=np.int64)
        assert (row["width"], row["height"]) == (w, h)
        assert row["mean_r"] == s[0] / (w * h)
        assert row["mean_g"] == s[1] / (w * h)
        assert row["mean_b"] == s[2] / (w * h)


def test_resize_stage_handles_png(ray_session):
    from aspseek_ray.functions.media import png_decode
    from aspseek_ray.pipelines.multimodal import (
        resize_images,
        synth_png_media_table,
    )
    import ray.data as rd

    t = synth_png_media_table(9)
    r = resize_images(rd.from_arrow(t), max_side=16).to_pandas()
    assert len(r) == 9
    for _, row in r.iterrows():      # PNG in -> REAL decodable PNG out
        img = png_decode(row["payload"])
        assert img.shape[:2] == (row["out_h"], row["out_w"])
