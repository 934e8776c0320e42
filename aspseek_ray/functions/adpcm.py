"""IMA ADPCM WAV codec (Microsoft wFormatTag 0x11) in pure numpy — the
compressed-audio sibling of the PNG/QOI image codecs, from the
public IMA/DVI specification (the same 4-bit coder RFC 3551 registers as
DVI4): 4 bits per sample, a 89-entry step-size table, and a per-block
header carrying the (predictor, step index) state so every block decodes
independently.

That block independence is the scale story AND the vectorization story:
the decoder runs the sequential sample loop only WITHIN a block, with
every step vectorized across all blocks x channels (numpy state arrays,
~505 tiny ops per WAV instead of a per-sample Python loop), and a 100-TB
audio corpus splits at block boundaries for free.

Exactness contract the oracle relies on: an ADPCM encoder is DEFINED by
tracking the decoder's reconstruction in-loop (it quantizes each delta
against the previously *reconstructed* sample, not the source). So
``adpcm_encode`` returns the payload bytes together with that in-loop
reconstruction, and decode(payload) must equal it BITWISE — that is the
codec's defining invariant, checked here by a twin-column oracle
(pipelines/multimodal.synth_adpcm_media_table): the engine decodes the
ADPCM WAV, the SQL oracle re-parses a PCM16 WAV twin of the in-loop
reconstruction, and the exact integer sample stats must agree.

Container layout (MS IMA, public): fmt(0x11) with wSamplesPerBlock,
a fact chunk with the true frame count, data as fixed-size blocks —
per channel a 4-byte header (int16 first sample, uint8 step index,
reserved), then nibble bytes low-nibble-first, stereo interleaved in
4-byte (8-sample) groups per channel.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["adpcm_encode", "adpcm_decode", "adpcm_decode_many",
           "is_adpcm", "IMA_STEP_TABLE", "IMA_INDEX_TABLE"]


def is_adpcm(data: bytes) -> bool:
    """Cheap sniff: RIFF/WAVE whose fmt chunk carries wFormatTag 0x11."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        return False
    pos = 12
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        if cid == b"fmt ":
            return struct.unpack_from("<H", data, pos + 8)[0] == 0x11
        pos += 8 + size + (size & 1)
    return False

IMA_INDEX_TABLE = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)

IMA_STEP_TABLE = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31,
    34, 37, 41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130,
    143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411,
    1552, 1707, 1878, 2066, 2272, 2499, 2749, 3024, 3327, 3660, 4026,
    4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493, 10442,
    11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623,
    27086, 29794, 32767], dtype=np.int32)


def _step_nibbles(delta: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Vectorized IMA quantizer: signed deltas + current steps -> 4-bit
    codes (sign | 3 magnitude bits), the exact bit-serial rule."""
    sign = (delta < 0).astype(np.int32)
    mag = np.abs(delta)
    b2 = (mag >= step).astype(np.int32)
    mag = mag - b2 * step
    half = step >> 1
    b1 = (mag >= half).astype(np.int32)
    mag = mag - b1 * half
    quarter = step >> 2
    b0 = (mag >= quarter).astype(np.int32)
    return (sign << 3) | (b2 << 2) | (b1 << 1) | b0


def _reconstruct(pred: np.ndarray, step: np.ndarray,
                 nib: np.ndarray) -> np.ndarray:
    """Vectorized IMA reconstruction: diff = step/8 (+ step/4, step/2,
    step per magnitude bit), signed, clamped to int16."""
    diff = (step >> 3) + np.where(nib & 1, step >> 2, 0) \
        + np.where(nib & 2, step >> 1, 0) + np.where(nib & 4, step, 0)
    out = pred + np.where(nib & 8, -diff, diff)
    return np.clip(out, -32768, 32767)


def adpcm_encode(samples: np.ndarray, rate: int = 16_000,
                 samples_per_block: int = 505,
                 ) -> tuple[bytes, np.ndarray]:
    """(n,) or (n, ch) int16 PCM -> (IMA-ADPCM WAV bytes, the in-loop
    reconstruction as (n, ch) int16). samples_per_block - 1 must be a
    multiple of 8 (MS layout packs nibbles in 4-byte groups)."""
    if samples.dtype != np.int16:
        raise ValueError("adpcm_encode expects int16 samples")
    if samples.ndim == 1:
        samples = samples[:, None]
    n, ch = samples.shape
    spb = samples_per_block
    if (spb - 1) % 8:
        raise ValueError("samples_per_block - 1 must be a multiple of 8")
    if n == 0:
        raise ValueError("empty audio")
    nblocks = -(-n // spb)
    # pad with the last frame so padding nibbles stay near-zero
    padded = np.vstack([samples, np.repeat(samples[-1:], nblocks * spb - n,
                                           axis=0)]).astype(np.int32)
    blocks = padded.reshape(nblocks, spb, ch)

    # --- encode, vectorized across (blocks, channels) ---
    pred = blocks[:, 0, :].copy()            # header sample, verbatim
    # seed each block's step index from its own median sample-to-sample
    # delta (vectorized argmin over the step table). Real encoders carry
    # the index across blocks, which is inherently sequential; seeding
    # per block keeps blocks independent (the header stores the index,
    # so any conforming decoder honors it) and avoids the index-0 attack
    # transient that would otherwise start every block.
    med = np.median(np.abs(np.diff(blocks, axis=1)), axis=1)  # (nb, ch)
    tail = n - (nblocks - 1) * spb   # real frames in the last block
    if tail > 1:
        # the pad region's zero deltas would drag the last block's
        # seed toward index 0 — take its median over real frames only
        med[-1] = np.median(
            np.abs(np.diff(blocks[-1, :tail, :], axis=0)), axis=0)
    index = np.searchsorted(IMA_STEP_TABLE,
                            np.maximum(med, 1)).astype(np.int32)
    index = np.clip(index, 0, 88)
    start_index = index.copy()
    nibs = np.empty((nblocks, spb - 1, ch), dtype=np.uint8)
    recon = np.empty((nblocks, spb, ch), dtype=np.int32)
    recon[:, 0, :] = pred
    for t in range(1, spb):
        step = IMA_STEP_TABLE[index]
        nib = _step_nibbles(blocks[:, t, :] - pred, step)
        pred = _reconstruct(pred, step, nib)
        index = np.clip(index + IMA_INDEX_TABLE[nib & 7], 0, 88)
        nibs[:, t - 1, :] = nib
        recon[:, t, :] = pred

    # --- pack blocks: per-channel 4-byte header, then 4-byte nibble
    # groups interleaved per channel ---
    headers = np.zeros((nblocks, ch, 4), dtype=np.uint8)
    first = blocks[:, 0, :].astype("<i2")
    headers[..., 0] = (first & 0xFF).astype(np.uint8)
    headers[..., 1] = ((first >> 8) & 0xFF).astype(np.uint8)
    headers[..., 2] = start_index.astype(np.uint8)
    lo = nibs[:, 0::2, :].astype(np.uint8)
    hi = nibs[:, 1::2, :].astype(np.uint8)
    bytes_per_ch = (spb - 1) // 2
    packed = (lo | (hi << 4))                # (nblocks, bytes_per_ch, ch)
    # group nibble bytes in 4-byte runs per channel: (nblocks, groups, ch, 4)
    groups = packed.transpose(0, 2, 1).reshape(nblocks, ch,
                                               bytes_per_ch // 4, 4)
    interleaved = groups.transpose(0, 2, 1, 3)   # blk, grp, ch, 4
    block_align = 4 * ch + bytes_per_ch * ch
    data = np.concatenate(
        [headers.reshape(nblocks, -1),
         interleaved.reshape(nblocks, -1)], axis=1).tobytes()
    assert len(data) == nblocks * block_align

    byte_rate = (rate * block_align + spb - 1) // spb
    fmt = struct.pack("<4sIHHIIHHHH", b"fmt ", 20, 0x11, ch, rate,
                      byte_rate, block_align, 4, 2, spb)
    fact = struct.pack("<4sII", b"fact", 4, n)
    hdr = struct.pack("<4sI4s", b"RIFF",
                      4 + len(fmt) + len(fact) + 8 + len(data), b"WAVE")
    payload = (hdr + fmt + fact
               + struct.pack("<4sI", b"data", len(data)) + data)
    return payload, recon.reshape(-1, ch)[:n].astype(np.int16)


def _parse_container(data: bytes):
    """ADPCM WAV bytes -> (pred0 (nb, ch), index0 (nb, ch),
    nib (nb, ch, spb-1), spb, ch, rate, nframes|None)."""
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ValueError("not a WAV file")
    pos, fmt, raw, nframes = 12, None, None, None
    while pos + 8 <= len(data):
        cid, size = struct.unpack_from("<4sI", data, pos)
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"fact":
            (nframes,) = struct.unpack_from("<I", body, 0)
        elif cid == b"data":
            raw = body
        pos += 8 + size + (size & 1)
    if fmt is None or raw is None:
        raise ValueError("WAV missing fmt/data chunk")
    tag, ch, rate = struct.unpack_from("<HHI", fmt, 0)
    if tag != 0x11:
        raise NotImplementedError(f"not IMA ADPCM (wFormatTag={tag:#x})")
    block_align = struct.unpack_from("<H", fmt, 12)[0]
    spb = struct.unpack_from("<H", fmt, 18)[0] if len(fmt) >= 20 else (
        (block_align - 4 * ch) * 2 // ch + 1)
    nblocks = len(raw) // block_align
    if nblocks == 0:
        raise ValueError("no full ADPCM block")
    buf = np.frombuffer(raw[:nblocks * block_align],
                        dtype=np.uint8).reshape(nblocks, block_align)

    # headers: (nblocks, ch) predictor + step index
    hdr = buf[:, :4 * ch].reshape(nblocks, ch, 4)
    pred = (hdr[..., 0].astype(np.int32)
            | (hdr[..., 1].astype(np.int32) << 8))
    pred = np.where(pred >= 32768, pred - 65536, pred)
    index = np.clip(hdr[..., 2].astype(np.int32), 0, 88)

    # nibble bytes: de-interleave the per-channel 4-byte groups
    body = buf[:, 4 * ch:].reshape(nblocks, -1, ch, 4)   # blk, grp, ch, 4
    packed = body.transpose(0, 2, 1, 3).reshape(nblocks, ch, -1)
    nib = np.empty((nblocks, ch, packed.shape[2] * 2), dtype=np.int32)
    nib[..., 0::2] = packed & 0x0F
    nib[..., 1::2] = packed >> 4
    return pred, index, nib, spb, ch, int(rate), nframes


def _run_streams(pred: np.ndarray, index: np.ndarray,
                 nib: np.ndarray, spb: int) -> np.ndarray:
    """The IMA state recurrence over flat independent streams:
    pred/index (S,), nib (S, spb-1) -> (S, spb) int32 samples. Every
    (block, channel) pair is one stream, so payloads sharing a
    samples_per_block can run through ONE loop together — the batch
    decoder's whole trick."""
    out = np.empty((len(pred), spb), dtype=np.int32)
    out[:, 0] = pred
    for t in range(1, spb):
        step = IMA_STEP_TABLE[index]
        nt = nib[:, t - 1]
        pred = _reconstruct(pred, step, nt)
        index = np.clip(index + IMA_INDEX_TABLE[nt & 7], 0, 88)
        out[:, t] = pred
    return out


def _assemble(streams: np.ndarray, nblocks: int, ch: int, spb: int,
              nframes) -> np.ndarray:
    # (nb*ch, spb) -> (nb, ch, spb) -> (nb*spb, ch)
    samples = (streams.reshape(nblocks, ch, spb)
                      .transpose(0, 2, 1)
                      .reshape(-1, ch).astype(np.int16))
    return samples[:nframes] if nframes is not None else samples


def adpcm_decode(data: bytes) -> tuple[np.ndarray, int]:
    """IMA-ADPCM WAV bytes -> ((n, ch) int16 samples, rate). Trusts the
    per-block headers (any conforming encoder decodes, not just ours);
    truncates to the fact-chunk frame count when present."""
    pred, index, nib, spb, ch, rate, nframes = _parse_container(data)
    nblocks = len(pred)
    streams = _run_streams(pred.reshape(-1), index.reshape(-1),
                           nib.reshape(nblocks * ch, -1), spb)
    return _assemble(streams, nblocks, ch, spb, nframes), rate


def adpcm_decode_many(payloads: list) -> list:
    """Batch decoder: [(samples, rate), ...] for a list of ADPCM WAVs.
    All (block, channel) streams of all payloads that share a
    samples_per_block are concatenated and run through a SINGLE state
    loop — the per-sample cost is paid once per batch, not once per
    clip, which is what makes an actor-pool audio stage batch-vectorized
    rather than per-row."""
    parsed = [_parse_container(p) for p in payloads]
    by_spb: dict[int, list[int]] = {}
    for i, (_, _, _, spb, _, _, _) in enumerate(parsed):
        by_spb.setdefault(spb, []).append(i)
    results: list = [None] * len(payloads)
    for spb, idxs in by_spb.items():
        preds = np.concatenate(
            [parsed[i][0].reshape(-1) for i in idxs])
        indexes = np.concatenate(
            [parsed[i][1].reshape(-1) for i in idxs])
        nibs = np.concatenate(
            [parsed[i][2].reshape(parsed[i][2].shape[0]
                                  * parsed[i][2].shape[1], -1)
             for i in idxs])
        streams = _run_streams(preds, indexes, nibs, spb)
        lo = 0
        for i in idxs:
            pred, _index, _nib, _spb, ch, rate, nframes = parsed[i]
            nstreams = pred.size
            results[i] = (_assemble(streams[lo:lo + nstreams],
                                    len(pred), ch, spb, nframes), rate)
            lo += nstreams
    return results
