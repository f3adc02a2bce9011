"""Multimodal queries over the synthetic SYNM media and audio tables:
decode (with every corrupt-payload family), resize, frame sampling and
audio features.  Each is checked against a golden parquet synthesized
independently of the decoder."""

from __future__ import annotations

import pyarrow as pa
import ray.data

from org_dharts_dia_tesseract_ray.functions.multimodal import (
    apply_audio_features, apply_decode, apply_frame_sample, apply_resize,
    synth_audio_table, synth_media_table)

from . import GOLDEN, Query, mapped


def _media(**kwargs):
    return ray.data.from_arrow(synth_media_table(64, **kwargs))


def _q_media_decode(sf_dir: str):
    # corrupt_every exercises all three decode-failure families (bad magic,
    # truncation, CRC bit-flip) through the oracle, not just in unit tests;
    # px_checksum is the decoded-pixel CRC32 — proof the RLE decompression
    # actually ran, verified against an independent golden synthesis
    out = apply_decode(_media(corrupt_every=13))
    return out.select_columns(["item_id", "status", "width", "height",
                               "n_frames", "px_checksum"])


def _q_audio_features(sf_dir: str):
    """Audio leg of the multimodal contract: SYNM audio chunks decoded
    (CRC-validated) and reduced to integer-exact signal features
    (L1 energy / zero-crossing count / peak) per chunk; corrupt payloads
    yield the null decode_error row."""
    return apply_audio_features(ray.data.from_arrow(
        synth_audio_table(64, corrupt_every=13)))


def _q_media_resize(sf_dir: str):
    """Resize leg of the multimodal contract: decode frame 0 and emit the
    16x12 integer box-downsampled thumbnail (raster + CRC32); corrupt
    payloads yield the decode_error row.  The raster is hex-projected for
    the compare frame — the driver's hash path can't factorize raw BLOBs
    (DuckDB returns bytearray), the stage itself stays binary."""
    def hexpx(b: pa.Table) -> pa.Table:
        return pa.table({
            "item_id": b["item_id"], "status": b["status"],
            "rw": b["rw"], "rh": b["rh"],
            "pixels_hex": pa.array(
                [(v or b"").hex() for v in b["pixels"].to_pylist()],
                pa.string()),
            "px_crc": b["px_crc"],
        })

    return mapped(apply_resize(_media(corrupt_every=13)), hexpx)


def _q_media_frames(sf_dir: str):
    return apply_frame_sample(_media(kind="video"), every=4)


ROWS = [
    Query("media_decode", _q_media_decode, GOLDEN),
    Query("media_resize", _q_media_resize, GOLDEN),
    Query("media_frame_sample", _q_media_frames, GOLDEN),
    Query("audio_features", _q_audio_features, GOLDEN),
]
