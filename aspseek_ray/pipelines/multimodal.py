"""Multimodal columns: image/audio/video as ``binary`` payload columns
with typed metadata, processed by actor-pool map_batches stages.

The decode kernels are REAL (functions/media.py, pure numpy + stdlib
zlib): BMP, PNG and QOI images (PNG: 8-bit gray/RGB/RGBA, all five
scanline filters, CRC-verified), WAV audio (PCM16, G.711 and IMA-ADPCM),
and YUV4MPEG2 (Y4M C444) video.
Payloads are sniffed by magic bytes; every other container raises
NotImplementedError — that seam is where PIL/ffmpeg would plug in, and
those libraries are not in this container. The synthetic media
generators emit real bytes any external tool could open.

At 100-TB scale: payloads dominate block size — keep ``batch_size`` small
(64–256 rows), ``concurrency`` (the upper bound of an actor pool that
starts at one actor) sized to the node, and never carry the
binary column past the stage that needs it (the stages below drop it from
their output)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from aspseek_ray.functions.media import (
    bmp_encode,
    decode_image,
    png_encode,
    resize_nearest,
    wav_decode,
    wav_encode,
    y4m_decode,
    y4m_encode,
)

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("media_type", pa.string()),         # "image" | "audio" | "video"
    ("payload", pa.binary()),
    ("meta", pa.struct([("width", pa.int32()), ("height", pa.int32()),
                        ("duration_ms", pa.int32())])),
])

FEATURE_DIM = 8


def _sniff(payload: bytes) -> str:
    if payload[:2] == b"BM":
        return "bmp"
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if payload[:4] == b"qoif":
        return "qoi"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:9] == b"YUV4MPEG2":
        return "y4m"
    raise NotImplementedError(
        "unknown media container (only BMP, PNG, QOI, WAV and Y4M are "
        "decoded; others need PIL/ffmpeg, not present in this container)")


class DecodeStage:
    """Actor-pool decode/feature-extract stage: one small batch per call,
    REAL pixel/sample math per media type. Output (media_id, media_type,
    n_bytes, features[8]); the payload column never leaves this stage.

    Feature layout (float32, fixed 8 lanes):
      image: [w, h, mean_r, mean_g, mean_b, std_luma, aspect, 0]
      audio: [n_samples, rate, rms, zero_cross_rate, dur_s, peak, ch, 0]
      video: [n_frames, h, w, fps, mean_luma, std_luma, dur_s, 0]"""

    def __init__(self, feature_dim: int = FEATURE_DIM):
        assert feature_dim == FEATURE_DIM
        self.feature_dim = feature_dim

    def _features(self, payload: bytes) -> np.ndarray:
        kind = _sniff(payload)
        f = np.zeros(FEATURE_DIM, dtype=np.float32)
        if kind in ("bmp", "png", "qoi"):
            img = decode_image(payload).astype(np.float32)
            h, w = img.shape[:2]
            luma = img @ np.array([0.299, 0.587, 0.114], np.float32)
            f[:7] = [w, h, img[..., 0].mean(), img[..., 1].mean(),
                     img[..., 2].mean(), luma.std(), w / h]
        elif kind == "wav":
            samples, rate = wav_decode(payload)
            mono = samples.astype(np.float32).mean(axis=1) / 32768.0
            n = len(mono)
            zc = (np.count_nonzero(np.signbit(mono[1:]) !=
                                   np.signbit(mono[:-1])) / max(1, n - 1))
            f[:7] = [n, rate, float(np.sqrt((mono ** 2).mean())) if n else 0.0,
                     zc, n / rate, float(np.abs(mono).max()) if n else 0.0,
                     samples.shape[1]]
        else:
            frames, fps = y4m_decode(payload)
            y = frames[..., 0].astype(np.float32)        # Y plane
            n, h, w = frames.shape[:3]
            f[:7] = [n, h, w, fps, y.mean() if n else 0.0,
                     y.std() if n else 0.0, n / fps if fps else 0.0]
        return f

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats, n_bytes = [], []
        for p in batch["payload"].to_pylist():
            p = p or b""
            n_bytes.append(len(p))
            feats.append(self._features(p))
        out = batch.select(["media_id", "media_type"])
        out = out.append_column("n_bytes", pa.array(n_bytes, pa.int64()))
        return out.append_column(
            "features", pa.array([f.tolist() for f in feats],
                                 type=pa.list_(pa.float32())))


def extract_media_features(ds: rd.Dataset, concurrency: int = 2,
                           batch_size: int = 128) -> rd.Dataset:
    """Run the decode actor pool over a MEDIA_SCHEMA dataset. The binary
    payload column is dropped by the stage output (never carried further)."""
    return ds.map_batches(DecodeStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=(1, concurrency))


class ResizeStage:
    """Actor-pool image-resize stage: REAL decode (BMP or PNG) ->
    nearest-neighbor resize (aspect preserved, longest side <= max_side)
    -> re-encode in the source container. Keeps only image rows; output
    (media_id, out_w, out_h, payload)."""

    def __init__(self, max_side: int = 256):
        self.max_side = max_side

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = pa.compute.equal(batch["media_type"], "image")
        batch = batch.filter(keep)
        ids, ws, hs, payloads = [], [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            p = p or b""
            img = decode_image(p)
            h, w = img.shape[:2]
            scale = min(1.0, self.max_side / max(w, h, 1))
            ow, oh = max(1, int(w * scale)), max(1, int(h * scale))
            ids.append(mid)
            ws.append(ow)
            hs.append(oh)
            enc = png_encode if _sniff(p) == "png" else bmp_encode
            payloads.append(enc(resize_nearest(img, ow, oh)))
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "out_w": pa.array(ws, pa.int32()),
                         "out_h": pa.array(hs, pa.int32()),
                         "payload": pa.array(payloads, pa.binary())})


class FrameSampleStage:
    """Actor-pool video frame sampler: REAL Y4M parse, one output row per
    sampled frame (every ``stride_ms`` of stream time, capped at
    ``max_frames``), per-frame features from the actual planes:
    [mean_y, mean_u, mean_v, std_y, std_u, std_v, ts_s, 0]."""

    def __init__(self, stride_ms: int = 1000, max_frames: int = 16,
                 feature_dim: int = FEATURE_DIM):
        self.stride_ms = stride_ms
        self.max_frames = max_frames
        self.feature_dim = feature_dim

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = pa.compute.equal(batch["media_type"], "video")
        batch = batch.filter(keep)
        ids, idxs, tss, feats = [], [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            frames, fps = y4m_decode(p or b"")
            n = len(frames)
            if n == 0:
                continue
            dur_ms = int(n * 1000 / fps) if fps else 0
            n_samples = min(self.max_frames,
                            max(1, dur_ms // self.stride_ms + 1))
            for si in range(n_samples):
                ts = si * self.stride_ms
                fi = min(n - 1, int(ts * fps / 1000))
                fr = frames[fi].astype(np.float32)
                f = np.zeros(self.feature_dim, dtype=np.float32)
                f[:7] = [fr[..., 0].mean(), fr[..., 1].mean(),
                         fr[..., 2].mean(), fr[..., 0].std(),
                         fr[..., 1].std(), fr[..., 2].std(), ts / 1000.0]
                ids.append(mid)
                idxs.append(si)
                tss.append(ts)
                feats.append(f.tolist())
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "frame_idx": pa.array(idxs, pa.int32()),
                         "ts_ms": pa.array(tss, pa.int32()),
                         "frame_features": pa.array(
                             feats, pa.list_(pa.float32()))})


def resize_images(ds: rd.Dataset, max_side: int = 256,
                  concurrency: int = 2, batch_size: int = 128) -> rd.Dataset:
    return ds.map_batches(ResizeStage, fn_constructor_kwargs={"max_side": max_side},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=(1, concurrency))


def sample_frames(ds: rd.Dataset, stride_ms: int = 1000, max_frames: int = 16,
                  concurrency: int = 2, batch_size: int = 64) -> rd.Dataset:
    return ds.map_batches(FrameSampleStage,
                          fn_constructor_kwargs={"stride_ms": stride_ms,
                                                 "max_frames": max_frames},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=(1, concurrency))


class PixelStatsStage:
    """Actor-pool image pixel statistics in EXACT arithmetic: per-channel
    means from int64 byte sums (one float64 division at the end), so the
    result is bit-reproducible and can be checked by a SQL oracle that
    extracts the same BMP bytes (for PNG payloads, a BMP twin of the same
    pixels — an independent-codec check). Keeps only image rows; output
    (media_id, width, height, mean_r, mean_g, mean_b)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = pa.compute.equal(batch["media_type"], "image")
        batch = batch.filter(keep)
        ids, ws, hs = [], [], []
        mr, mg, mb = [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            img = decode_image(p or b"")
            h, w = img.shape[:2]
            s = img.reshape(-1, 3).sum(axis=0, dtype=np.int64)
            n = h * w
            ids.append(mid)
            ws.append(w)
            hs.append(h)
            mr.append(s[0] / n)
            mg.append(s[1] / n)
            mb.append(s[2] / n)
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "width": pa.array(ws, pa.int64()),
                         "height": pa.array(hs, pa.int64()),
                         "mean_r": pa.array(mr, pa.float64()),
                         "mean_g": pa.array(mg, pa.float64()),
                         "mean_b": pa.array(mb, pa.float64())})


def media_pixel_stats(ds: rd.Dataset, concurrency: int = 2,
                      batch_size: int = 128) -> rd.Dataset:
    """Exact per-image channel means over a MEDIA_SCHEMA dataset — the
    oracle-checkable slice of the decode stage (DecodeStage's float32
    feature lanes are NOT bit-mirrorable in SQL; integer byte sums are)."""
    return ds.map_batches(PixelStatsStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=(1, concurrency))


class AudioStatsStage:
    """Actor-pool audio statistics in EXACT arithmetic over channel 0 of
    the decoded PCM16 samples: peak/zero-crossings are integers, the mean
    is one float64 division of an int64 sum — bit-reproducible, so a SQL
    oracle that re-parses the WAV bytes can check it. Keeps only audio
    rows; output (media_id, n_samples, rate, peak_abs, mean_sample,
    zero_cross)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = pa.compute.equal(batch["media_type"], "audio")
        batch = batch.filter(keep)
        payloads = [p or b"" for p in batch["payload"].to_pylist()]
        # ADPCM payloads decode in ONE vectorized pass: all their
        # (block, channel) streams share a single state loop, so the
        # per-sample cost is paid per batch, not per clip (~20x on a
        # 96-clip batch vs per-payload decoding)
        from aspseek_ray.functions.adpcm import adpcm_decode_many, is_adpcm
        adp = [i for i, p in enumerate(payloads) if is_adpcm(p)]
        pre = dict(zip(adp, adpcm_decode_many([payloads[i] for i in adp]))
                   ) if adp else {}
        ids, ns, rates, peaks, means, zcs = [], [], [], [], [], []
        for i, (mid, p) in enumerate(zip(batch["media_id"].to_pylist(),
                                         payloads)):
            samples, rate = pre[i] if i in pre else wav_decode(p)
            s = samples[:, 0].astype(np.int64)
            n = len(s)
            ids.append(mid)
            ns.append(n)
            rates.append(rate)
            peaks.append(int(np.abs(s).max()) if n else 0)
            means.append(s.sum() / n if n else 0.0)
            zcs.append(int(np.count_nonzero((s[1:] < 0) != (s[:-1] < 0))))
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "n_samples": pa.array(ns, pa.int64()),
                         "rate": pa.array(rates, pa.int64()),
                         "peak_abs": pa.array(peaks, pa.int64()),
                         "mean_sample": pa.array(means, pa.float64()),
                         "zero_cross": pa.array(zcs, pa.int64())})


def media_audio_stats(ds: rd.Dataset, concurrency: int = 2,
                      batch_size: int = 128) -> rd.Dataset:
    """Exact channel-0 PCM stats over a MEDIA_SCHEMA dataset — the
    oracle-checkable slice of the audio decode path."""
    return ds.map_batches(AudioStatsStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=(1, concurrency))


class FrameLumaStage:
    """Actor-pool per-frame luma means in EXACT arithmetic: one row per
    decoded Y4M frame with mean_y = int64 sum of the Y plane / (h*w) —
    bit-reproducible, SQL-oracle-checkable. Keeps only video rows;
    output (media_id, frame_idx, width, height, fps, mean_y)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        keep = pa.compute.equal(batch["media_type"], "video")
        batch = batch.filter(keep)
        ids, idxs, ws, hs, fpss, mys = [], [], [], [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            frames, fps = y4m_decode(p or b"")
            n, h, w = frames.shape[:3]
            ysums = frames[..., 0].reshape(n, -1).sum(axis=1,
                                                      dtype=np.int64)
            for fi in range(n):
                ids.append(mid)
                idxs.append(fi)
                ws.append(w)
                hs.append(h)
                fpss.append(fps)
                mys.append(ysums[fi] / (h * w))
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "frame_idx": pa.array(idxs, pa.int64()),
                         "width": pa.array(ws, pa.int64()),
                         "height": pa.array(hs, pa.int64()),
                         "fps": pa.array(fpss, pa.int64()),
                         "mean_y": pa.array(mys, pa.float64())})


def media_frame_luma(ds: rd.Dataset, concurrency: int = 2,
                     batch_size: int = 64) -> rd.Dataset:
    """Exact per-frame luma means over a MEDIA_SCHEMA dataset — the
    oracle-checkable slice of the video decode path."""
    return ds.map_batches(FrameLumaStage, batch_format="pyarrow",
                          batch_size=batch_size, concurrency=(1, concurrency))


def synth_media_table(n: int = 256, seed: int = 9) -> pa.Table:
    """Deterministic media table with REAL payload bytes: BMP noise
    images, PCM16 WAV tones, Y4M C444 gradient clips — all openable by
    standard external tools. Metadata matches the encoded content.
    Pure-Arrow builder (no Ray) so oracle fixtures can materialize it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ids, types, payloads, metas = [], [], [], []
    for i in range(n):
        kind = ("image", "audio", "video")[i % 3]
        ids.append(i)
        types.append(kind)
        if kind == "image":
            w, h = int(rng.integers(8, 64)), int(rng.integers(8, 64))
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            payloads.append(bmp_encode(img))
            metas.append({"width": w, "height": h, "duration_ms": 0})
        elif kind == "audio":
            rate = 8000
            dur_ms = int(rng.integers(50, 1500))
            t = np.arange(rate * dur_ms // 1000, dtype=np.float64) / rate
            freq = float(rng.integers(100, 2000))
            wave = (np.sin(2 * np.pi * freq * t) * 20000).astype(np.int16)
            payloads.append(wav_encode(wave, rate))
            metas.append({"width": 0, "height": 0, "duration_ms": dur_ms})
        else:
            fps = 5
            n_frames = int(rng.integers(1, 20))
            w, h = int(rng.integers(8, 32)), int(rng.integers(8, 32))
            base = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            frames = np.stack([(base.astype(np.int64) + 7 * k) % 256
                               for k in range(n_frames)]).astype(np.uint8)
            payloads.append(y4m_encode(frames, fps))
            metas.append({"width": w, "height": h,
                          "duration_ms": int(n_frames * 1000 / fps)})
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(types, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
    })


def synth_media_dataset(n: int = 256, seed: int = 9) -> rd.Dataset:
    return rd.from_arrow(synth_media_table(n, seed))


def synth_qoi_media_table(n: int = 96, seed: int = 23) -> pa.Table:
    """Deterministic QOI image table with a BMP TWIN column, same
    independent-codec contract as :func:`synth_png_media_table`:
    ``payload`` is real QOI bytes (RGB and RGBA alternating; image
    content cycles flat/gradient/palette/noise/alpha-step regions so all
    six QOI ops — RUN, INDEX, DIFF, LUMA, RGB, RGBA — occur in the
    corpus), ``payload_bmp`` the same pixels as 24-bit BMP (alpha
    dropped; alpha never reaches the pixel-stats query)."""
    from aspseek_ray.functions.qoi import qoi_encode

    rng = np.random.Generator(np.random.PCG64(seed))
    ids, qois, bmps, metas = [], [], [], []
    for i in range(n):
        w, h = int(rng.integers(8, 64)), int(rng.integers(8, 64))
        ch = (3, 4)[i % 2]
        mode = i % 5
        if mode == 0:      # flat -> RUN chunks
            img = np.full((h, w, ch), int(rng.integers(0, 256)), np.uint8)
        elif mode == 1:    # smooth gradient -> DIFF/LUMA
            base = (np.add.outer(np.arange(h), np.arange(w)) % 256)
            img = np.stack([base] * ch, axis=2).astype(np.uint8)
            img[..., 1] = (img[..., 1] + rng.integers(
                0, 3, (h, w), dtype=np.uint8))
        elif mode == 2:    # tiny palette -> INDEX replays
            pal = rng.integers(0, 256, (6, ch), dtype=np.uint8)
            img = pal[rng.integers(0, 6, (h, w))]
        elif mode == 3:    # noise -> RGB/RGBA literals
            img = rng.integers(0, 256, (h, w, ch), dtype=np.uint8)
        else:              # alpha steps on RGBA -> RGBA literals
            img = np.full((h, w, ch), 40, np.uint8)
            if ch == 4:
                img[h // 2:, :, 3] = 128
            img[::3, ::3, 0] = 200
        ids.append(i)
        qois.append(qoi_encode(np.ascontiguousarray(img)))
        bmps.append(bmp_encode(np.ascontiguousarray(img[:, :, :3])))
        metas.append({"width": w, "height": h, "duration_ms": 0})
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(["image"] * n, pa.string()),
        "payload": pa.array(qois, pa.binary()),
        "payload_bmp": pa.array(bmps, pa.binary()),
        "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
    })



def synth_adpcm_media_table(n: int = 96, seed: int = 19) -> pa.Table:
    """Deterministic IMA-ADPCM audio table with a PCM16-WAV TWIN column,
    the compressed-audio edition of the independent-codec contract:
    ``payload`` is a real MS IMA-ADPCM WAV (fmt 0x11; tones + noise,
    mono/stereo, whole and partial final blocks), ``payload_pcm`` a PCM16
    WAV of the encoder's IN-LOOP reconstruction — the signal every
    conforming ADPCM decoder must reproduce BITWISE, because an ADPCM
    encoder is defined by quantizing against the decoder's own state (see
    functions/adpcm.py). The engine decodes the ADPCM payload; the SQL
    oracle re-parses the PCM twin byte-by-byte; exact integer sample
    stats must agree."""
    from aspseek_ray.functions.adpcm import adpcm_encode
    from aspseek_ray.functions.media import wav_encode

    rng = np.random.Generator(np.random.PCG64(seed))
    ids, adps, pcms, metas = [], [], [], []
    for i in range(n):
        rate = (8000, 16000)[i % 2]
        ch = (1, 2)[(i // 2) % 2]
        dur_ms = int(rng.integers(20, 400))
        nsamp = rate * dur_ms // 1000
        t = np.arange(nsamp, dtype=np.float64) / rate
        freq = float(rng.integers(80, 3000))
        sig = (np.sin(2 * np.pi * freq * t) * float(rng.integers(5000, 25000))
               + rng.normal(0.0, 400.0, nsamp))
        s = np.clip(sig, -32768, 32767).astype(np.int16)
        if ch == 2:
            s = np.stack([s, np.roll(s, nsamp // 3)], axis=1)
        payload, recon = adpcm_encode(s, rate=rate)
        ids.append(i)
        adps.append(payload)
        pcms.append(wav_encode(recon, rate))
        metas.append({"width": 0, "height": 0, "duration_ms": dur_ms})
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(["audio"] * n, pa.string()),
        "payload": pa.array(adps, pa.binary()),
        "payload_pcm": pa.array(pcms, pa.binary()),
        "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
    })



def synth_g711_media_table(n: int = 96, seed: int = 31) -> pa.Table:
    """Deterministic G.711 audio table with a PCM16-WAV TWIN column,
    telephony edition of the independent-codec contract: ``payload`` is
    a real G.711 WAV (format tags 0x0007 mu-law / 0x0006 A-law
    alternating, mono/stereo, with the customary fact chunk), and
    ``payload_pcm`` a PCM16 WAV of the codes' normative table expansion
    — the signal every conforming G.711 decoder must reproduce BITWISE
    (the expansion tables ARE the spec; see functions/g711.py). The
    engine decodes the companded payload; the SQL oracle re-parses the
    PCM twin byte-by-byte; exact integer sample stats must agree."""
    from aspseek_ray.functions.g711 import g711_wav_encode
    from aspseek_ray.functions.media import wav_encode

    rng = np.random.Generator(np.random.PCG64(seed))
    ids, g711s, pcms, metas = [], [], [], []
    for i in range(n):
        law = ("ulaw", "alaw")[i % 2]
        ch = (1, 2)[(i // 2) % 2]
        rate = 8000
        dur_ms = int(rng.integers(20, 400))
        nsamp = rate * dur_ms // 1000
        t = np.arange(nsamp, dtype=np.float64) / rate
        freq = float(rng.integers(80, 3400))        # telephony band
        sig = (np.sin(2 * np.pi * freq * t)
               * float(rng.integers(2000, 28000))
               + rng.normal(0.0, 300.0, nsamp))
        s = np.clip(sig, -32768, 32767).astype(np.int16)
        if ch == 2:
            s = np.stack([s, np.roll(s, nsamp // 3)], axis=1)
        payload, recon = g711_wav_encode(s, rate=rate, law=law)
        ids.append(i)
        g711s.append(payload)
        pcms.append(wav_encode(recon, rate))
        metas.append({"width": 0, "height": 0, "duration_ms": dur_ms})
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(["audio"] * n, pa.string()),
        "payload": pa.array(g711s, pa.binary()),
        "payload_pcm": pa.array(pcms, pa.binary()),
        "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
    })


def synth_png_media_table(n: int = 96, seed: int = 11) -> pa.Table:
    """Deterministic PNG image table with a BMP TWIN column: ``payload``
    is real PNG bytes (cycling gray / RGB / RGBA color types, the
    encoder's row%5 filter cycle exercising every scanline filter) and
    ``payload_bmp`` is the SAME pixels as 24-bit BMP (gray replicated,
    alpha dropped). The engine decodes the PNG; the SQL oracle re-decodes
    the BMP twin byte-by-byte — two independent codecs must agree on the
    exact per-channel integer sums for the query to pass."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ids, pngs, bmps, metas = [], [], [], []
    for i in range(n):
        w, h = int(rng.integers(8, 64)), int(rng.integers(8, 64))
        kind = ("gray", "rgb", "rgba")[i % 3]
        if kind == "gray":
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            rgb = np.repeat(img[:, :, None], 3, axis=2)
        elif kind == "rgb":
            img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
            rgb = img
        else:
            img = rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)
            rgb = np.ascontiguousarray(img[:, :, :3])
        ids.append(i)
        pngs.append(png_encode(img))
        bmps.append(bmp_encode(rgb))
        metas.append({"width": w, "height": h, "duration_ms": 0})
    return pa.table({
        "media_id": pa.array(ids, pa.int64()),
        "media_type": pa.array(["image"] * n, pa.string()),
        "payload": pa.array(pngs, pa.binary()),
        "payload_bmp": pa.array(bmps, pa.binary()),
        "meta": pa.array(metas, type=MEDIA_SCHEMA.field("meta").type),
    })
