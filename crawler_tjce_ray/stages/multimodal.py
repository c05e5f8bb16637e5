"""Multimodal actor-pool stages: decode / feature-extract / resize /
frame-sample over opaque ``binary`` columns.

Pattern (the load-bearing part): each stage is a callable CLASS passed
to ``map_batches(Cls, concurrency=N, batch_size=B)`` — real decoder
handles would be opened once per actor in ``__init__`` (model load,
codec context), per-batch work in ``__call__``.  Batch sizes stay
small because each row carries a large binary payload (at 100 TB the
object store must never hold batch_size × concurrency × payload
beyond worker heap — size B accordingly, e.g. 32–64 for images).

Image payloads decode through real codecs: pure-numpy PNG, BMP
(functions/imagecodec.py) and baseline JPEG (functions/jpegcodec.py)
alongside the deterministic FIMG fake container (sources/media.py);
remaining formats (WebP, progressive JPEG) raise a clearly-marked
``NotImplementedError`` — a full deployment routes those to PIL via
the same dispatch point.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from crawler_tjce_ray.functions import imagecodec
from crawler_tjce_ray.sources.media import MAGIC_AUD, MAGIC_IMG, MAGIC_VID


def decode_any_image(payload: bytes) -> np.ndarray:
    """Image payload → (h, w, c) uint8: FIMG header parse (zero-copy
    numpy view) or the real PNG/BMP/JPEG codecs.  Unknown magics raise
    NotImplementedError (the PIL routing point)."""
    if payload.startswith(MAGIC_IMG):
        w, h = np.frombuffer(payload, "<u2", count=2, offset=4)
        c = payload[8]
        return np.frombuffer(payload, np.uint8, offset=9).reshape(
            int(h), int(w), int(c)
        )
    return imagecodec.decode_image(payload)


class ImageDecodeStage:
    """Decode images (FIMG / PNG / BMP / JPEG) → (width, height, channels,
    mean_intensity).  Header parse is O(1) for FIMG; real codecs run
    one zlib inflate + vectorized defilter per payload."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, ws, hs, cs, means = [], [], [], [], []
        kinds = t["kind"].to_pylist()
        for mid, kind, payload in zip(
            t["media_id"].to_pylist(), kinds, t["payload"].to_pylist()
        ):
            if kind != "image":
                continue
            arr = decode_any_image(payload)
            h, w, c = arr.shape
            ids.append(mid)
            ws.append(int(w))
            hs.append(int(h))
            cs.append(int(c))
            means.append(float(arr.mean()) if arr.size else 0.0)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
            "channels": pa.array(cs, pa.int64()),
            "mean_intensity": pa.array(means, pa.float64()),
        })


class ImageResizeStage:
    """Resize (integer-factor box downsample) images, emitting a new
    binary column — a binary→binary transform with payload-size
    reduction (the thumbnailing stage of a training pipeline).  FIMG
    thumbnails stay FIMG; real-format inputs (PNG/BMP/JPEG) re-encode as
    PNG (the standard lossless thumbnail container)."""

    def __init__(self, factor: int = 2) -> None:
        self.factor = factor

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, blobs, ws, hs = [], [], [], []
        for mid, kind, payload in zip(
            t["media_id"].to_pylist(), t["kind"].to_pylist(),
            t["payload"].to_pylist(),
        ):
            if kind != "image":
                continue
            is_fake = payload.startswith(MAGIC_IMG)
            pix = decode_any_image(payload)
            h, w, c = pix.shape
            # clamp: a factor larger than a dimension must yield a 1-px
            # axis, not a reshape error
            f = max(1, min(self.factor, w, h))
            nw, nh = max(1, w // f), max(1, h // f)
            pix = pix[: nh * f, : nw * f]
            small = (
                pix.reshape(nh, f, nw, f, c).mean(axis=(1, 3)).astype(np.uint8)
            )
            if is_fake:
                head = MAGIC_IMG + np.array([nw, nh], "<u2").tobytes() + bytes([c])
                blob = head + small.tobytes()
            else:
                blob = imagecodec.encode_png(small)
            ids.append(mid)
            blobs.append(blob)
            ws.append(nw)
            hs.append(nh)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "payload": pa.array(blobs, pa.binary()),
            "width": pa.array(ws, pa.int64()),
            "height": pa.array(hs, pa.int64()),
        })


def decode_any_audio(payload: bytes) -> tuple[int, np.ndarray]:
    """Audio payload → (sample_rate, int16 samples): FAUD header parse
    (zero-copy numpy view) or the real WAV codec.  Unknown magics
    raise NotImplementedError (the ffmpeg routing point)."""
    if payload.startswith(MAGIC_AUD):
        sr, n = (int(x) for x in np.frombuffer(payload, "<u4", count=2, offset=4))
        return sr, np.frombuffer(payload, "<i2", count=n, offset=12)
    from crawler_tjce_ray.functions import wavcodec

    if wavcodec.is_wav(payload):
        return wavcodec.decode_wav(payload)
    raise NotImplementedError(
        f"no codec for audio magic {payload[:4]!r}; route to ffmpeg"
    )


class AudioFeatureStage:
    """Audio feature extraction: duration + RMS over int16 samples
    (FAUD / WAV payloads)."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, durs, rmss = [], [], []
        for mid, kind, payload in zip(
            t["media_id"].to_pylist(), t["kind"].to_pylist(),
            t["payload"].to_pylist(),
        ):
            if kind != "audio":
                continue
            try:
                sr, samples = decode_any_audio(payload)
            except NotImplementedError:
                # unknown container (e.g. Ogg): skip the row rather
                # than abort the whole query — matches the pre-codec
                # behavior of silently passing over unparseable blobs
                continue
            n = len(samples)
            ids.append(mid)
            durs.append(n / sr)
            rmss.append(
                float(np.sqrt((samples.astype(np.float64) ** 2).mean()))
                if n else 0.0
            )
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "duration_s": pa.array(durs, pa.float64()),
            "rms": pa.array(rmss, pa.float64()),
        })


def decode_any_video(payload: bytes,
                     stride: int = 1) -> tuple[np.ndarray, int]:
    """Video payload → ``(frames, total_frame_count)`` with frames as
    (n_sampled, h*w) grayscale uint8 at every ``stride``-th position:
    FVID header parse (zero-copy numpy view slice) or the real
    uncompressed-AVI codec (which decodes ONLY the sampled frames —
    luma conversion for skipped frames would be wasted actor-pool
    work).  Unknown magics raise NotImplementedError (the ffmpeg
    routing point)."""
    if payload.startswith(MAGIC_VID):
        w, h, nf = (
            int(x) for x in np.frombuffer(payload, "<u2", count=3, offset=4)
        )
        frames = np.frombuffer(
            payload, np.uint8, count=nf * w * h, offset=10
        ).reshape(nf, h * w)
        return frames[::stride], nf
    from crawler_tjce_ray.functions import avicodec

    if avicodec.is_avi(payload):
        frames, total = avicodec.decode_avi(payload, frame_stride=stride)
        return frames.reshape(frames.shape[0], -1), total
    raise NotImplementedError(
        f"no codec for video magic {payload[:4]!r}; route to ffmpeg"
    )


class FrameSampleStage:
    """Frame sampling: every ``stride``-th frame of each video
    (FVID / uncompressed AVI), one output row per sampled frame
    (row-expanding map_batches — the video→frames explode of a
    multimodal pipeline)."""

    def __init__(self, stride: int = 4, emit_frames: bool = True) -> None:
        self.stride = stride
        # emit_frames=False skips serializing pixel bytes through the
        # object store when the consumer only needs frame stats
        self.emit_frames = emit_frames

    def __call__(self, t: pa.Table) -> pa.Table:
        mids, fidx, blobs, means = [], [], [], []
        for mid, kind, payload in zip(
            t["media_id"].to_pylist(), t["kind"].to_pylist(),
            t["payload"].to_pylist(),
        ):
            if kind != "video":
                continue
            try:
                frames, nf = decode_any_video(payload, stride=self.stride)
            except NotImplementedError:
                continue  # unknown container: skip, don't abort
            for i, k in enumerate(range(0, nf, self.stride)):
                mids.append(mid)
                fidx.append(k)
                if self.emit_frames:
                    blobs.append(frames[i].tobytes())
                means.append(float(frames[i].mean()))
        cols = {
            "media_id": pa.array(mids, pa.int64()),
            "frame_idx": pa.array(fidx, pa.int64()),
            "mean_intensity": pa.array(means, pa.float64()),
        }
        if self.emit_frames:
            cols["frame"] = pa.array(blobs, pa.binary())
        return pa.table(cols)


# ---------------------------------------------------------------------------
# driver-registry queries (rows-only: binary container parsing is not
# DuckDB-expressible; kernel behavior pinned in tests/test_multimodal.py)
# ---------------------------------------------------------------------------

def _media_ds():
    import ray.data as rd

    from crawler_tjce_ray.sources.media import media_cache_dir

    return rd.read_parquet(media_cache_dir())


# driver-state ceiling (BASELINE.md table): the q_multimodal_* queries
# return per-media FEATURE rows (scalars only — payloads never reach
# the driver), so the driver frame is O(#media).  Past this ceiling
# the honest path is ds.write_parquet(features_dir) and a downstream
# aggregate — asserted up front from parquet metadata (O(1)), not
# discovered after the collect.
MEDIA_MAX_DRIVER_ROWS = 5_000_000


def _assert_media_driver_bound(rows_per_media: int = 1) -> None:
    """O(1) precheck: #media rows (parquet metadata) × the stage's
    worst-case output rows per media must fit the documented driver
    ceiling; raises naming the streaming fallback otherwise."""
    import glob as _glob

    import pyarrow.parquet as pq

    from crawler_tjce_ray.sources.media import media_cache_dir

    d = media_cache_dir()
    n = sum(
        pq.read_metadata(p).num_rows
        for p in _glob.glob(f"{d}/*.parquet")
    )
    if n * rows_per_media > MEDIA_MAX_DRIVER_ROWS:
        raise ValueError(
            f"multimodal feature collect: {n} media × {rows_per_media} "
            f"rows exceeds MEDIA_MAX_DRIVER_ROWS={MEDIA_MAX_DRIVER_ROWS}; "
            f"write_parquet the feature Dataset and aggregate downstream "
            f"instead of collecting to the driver")


def _stage_concurrency() -> tuple[int, int]:
    """Actor-pool size derived from the cluster, not hard-coded: an
    autoscaling (2, cpus-2) pool — a fixed ``concurrency=2`` ran the
    stage 2-wide on a 32-cpu node while leaving headroom for the
    read/reduce tasks on small ones."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return (2, max(2, cpus - 2))


def q_multimodal_image_features(sf_dir: str) -> pd.DataFrame:
    """Actor-pool decode: small batches (binary payloads), pool sized
    to the cluster."""
    _assert_media_driver_bound()
    out = (
        _media_ds()
        .map_batches(
            ImageDecodeStage, batch_format="pyarrow", batch_size=32,
            concurrency=_stage_concurrency(),
        )
        .to_pandas()
    )
    return out.sort_values("media_id").reset_index(drop=True)


def q_multimodal_frame_sample(sf_dir: str) -> pd.DataFrame:
    # ≤ 64 sampled-frame stat rows per video (synthetic clips are short;
    # a longer-clip corpus lowers the media ceiling proportionally)
    _assert_media_driver_bound(rows_per_media=64)
    out = (
        _media_ds()
        .map_batches(
            FrameSampleStage, batch_format="pyarrow", batch_size=32,
            concurrency=_stage_concurrency(),
            fn_constructor_kwargs={"emit_frames": False},
        )
        .to_pandas()
    )
    return out.sort_values(["media_id", "frame_idx"]).reset_index(drop=True)


def q_multimodal_audio_features(sf_dir: str) -> pd.DataFrame:
    _assert_media_driver_bound()
    out = (
        _media_ds()
        .map_batches(
            AudioFeatureStage, batch_format="pyarrow", batch_size=32,
            concurrency=_stage_concurrency(),
        )
        .to_pandas()
    )
    out["rms"] = np.round(out["rms"], 6)
    out["duration_s"] = np.round(out["duration_s"], 6)
    return out.sort_values("media_id").reset_index(drop=True)





class VideoEmbedStage:
    """Composed stage: fake video → fixed-size embedding (16-bin
    intensity histogram over sampled frames, L2-normalized).  The
    multimodal decode→feature→embedding composition of a training
    pipeline; swap the histogram for a real encoder in ``__init__``."""

    def __init__(self, stride: int = 4, bins: int = 16) -> None:
        self.stride = stride
        self.bins = bins

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, vecs = [], []
        for mid, kind, payload in zip(
            t["media_id"].to_pylist(), t["kind"].to_pylist(),
            t["payload"].to_pylist(),
        ):
            if kind != "video":
                continue
            try:
                frames, _nf = decode_any_video(payload, stride=self.stride)
            except NotImplementedError:
                continue  # unknown container: skip, don't abort
            hist = np.histogram(frames, bins=self.bins, range=(0, 256))[0]
            vec = hist.astype(np.float64)
            norm = np.linalg.norm(vec)
            ids.append(mid)
            vecs.append((vec / norm if norm else vec).tolist())
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float64())),
        })


def q_multimodal_video_nn(sf_dir: str) -> pd.DataFrame:
    """End-to-end multimodal composition: decode+frame-sample+embed in
    an actor pool, then per-video nearest neighbor by cosine — the
    BLOCKED form: the small embedding index (ids + matrix, ~dim floats
    per video — tiny next to the payloads) is ``ray.put`` once and
    each batch computes its own rows' argmax against it inside
    ``map_batches``.  No N×N similarity matrix ever exists and the
    O(N²) dot products distribute across the pool; past broadcast-index
    scale the IVF recipe (pipelines/similarity.py) takes over.
    Rows-only (binary decode isn't SQL-expressible)."""
    import ray

    _assert_media_driver_bound()  # broadcast index is O(#videos × 16 floats)
    emb_ds = (
        _media_ds()
        .map_batches(
            VideoEmbedStage, batch_format="pyarrow", batch_size=32,
            concurrency=_stage_concurrency(),
        )
        .materialize()
    )
    idx = emb_ds.to_pandas().sort_values("media_id").reset_index(drop=True)
    ids_all = idx["media_id"].to_numpy(dtype=np.int64)
    mat_all = np.stack(idx["embedding"].apply(np.asarray).to_numpy())
    index_ref = ray.put((ids_all, mat_all))

    def nn_batch(df: pd.DataFrame) -> pd.DataFrame:
        ids_g, mat_g = ray.get(index_ref)
        bids = df["media_id"].to_numpy(dtype=np.int64)
        bmat = np.stack(df["embedding"].apply(np.asarray).to_numpy())
        sims = bmat @ mat_g.T
        # mask self-similarity (ids_g is sorted)
        rows = np.arange(len(bids))
        sims[rows, np.searchsorted(ids_g, bids)] = -np.inf
        k = sims.argmax(axis=1)
        return pd.DataFrame({
            "media_id": bids,
            "nn_media_id": ids_g[k],
            "cosine": np.round(sims[rows, k], 6),
        })

    out = emb_ds.map_batches(nn_batch, batch_format="pandas").to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


def q_multimodal_image_resize(sf_dir: str) -> pd.DataFrame:
    """Binary→binary thumbnailing stage end-to-end: resize by 2 and
    report the payload-size reduction per image (rows-only)."""
    _assert_media_driver_bound()
    out = (
        _media_ds()
        .map_batches(
            ImageResizeStage, batch_format="pyarrow", batch_size=32,
            concurrency=_stage_concurrency(),
            fn_constructor_kwargs={"factor": 2},
        )
        .map_batches(
            lambda t: pa.table({
                "media_id": t["media_id"],
                "width": t["width"],
                "height": t["height"],
                "payload_bytes": pa.array(
                    [len(b) for b in t["payload"].to_pylist()], pa.int64()
                ),
            }),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    return out.sort_values("media_id").reset_index(drop=True)


PHASH_BANDS = 4        # 16-bit bands: hamming ≤ 3 ⇒ ≥ 1 identical band
PHASH_MAX_HAMMING = 3


class ImagePHashStage:
    """Perceptual-hash stage (aHash over an 8×8 luma thumbnail —
    public technique): decode → channel-mean luma → 8×8 block means →
    64 bits (cell > mean), emitted with the four 16-bit band keys for
    pigeonhole blocking.  Payloads decode through ``decode_any_image``
    (FIMG / PNG / BMP / JPEG) exactly like ``ImageDecodeStage``."""

    def __call__(self, t: pa.Table) -> pa.Table:
        ids, phs = [], []
        for mid, kind, payload in zip(
            t["media_id"].to_pylist(), t["kind"].to_pylist(),
            t["payload"].to_pylist(),
        ):
            if kind != "image":
                continue
            pix = decode_any_image(payload).astype(np.float64)
            h, w, _c = pix.shape
            luma = pix.mean(axis=2)
            ys = np.array_split(np.arange(h), 8)
            xs = np.array_split(np.arange(w), 8)
            cells = np.array([
                [luma[np.ix_(y, x)].mean() if len(y) and len(x) else 0.0
                 for x in xs]
                for y in ys
            ])
            bits = (cells > cells.mean()).flatten()
            ph = np.packbits(bits).view(">u8")[0]
            ids.append(mid)
            phs.append(int(np.uint64(ph)))
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            # int64 bit-view of the uint64 hash (Arrow-friendly)
            "phash": pa.array(
                np.array(phs, np.uint64).view(np.int64), pa.int64()
            ),
        })


def phash_dedup_pairs(media_ds, nb_band: int = 1) -> pd.DataFrame:
    """Near-dup image pairs (hamming ≤ ``PHASH_MAX_HAMMING``) from any
    media Dataset — the multimodal sibling of ``dedup.q_dedup_simhash``:
    an actor-pool hash stage, then the same ``dedup.hamming_pairs``
    ``PHASH_BANDS``×16-bit band blocking (only (band key, id, hash)
    rows shuffle, never payloads) with vectorized XOR-popcount
    verification in-bucket.  Hash rows are corpus-scale, so each band's
    group sub-buckets on the band key's low bits — callers size
    ``nb_band`` from the media corpus bytes (equal keys co-locate for
    any power-of-two value)."""
    from crawler_tjce_ray.pipelines.dedup import hamming_pairs

    hashed = media_ds.map_batches(
        ImagePHashStage, batch_format="pyarrow", batch_size=32,
        concurrency=_stage_concurrency(),
    )
    return hamming_pairs(hashed, ("media_id", "media_a", "media_b"),
                         "phash", PHASH_BANDS, nb_band, PHASH_MAX_HAMMING)


def q_multimodal_phash_dedup(sf_dir: str) -> pd.DataFrame:
    """Image near-dup detection over the media corpus (rows-only;
    behavior pinned with planted near-identical images in
    tests/test_multimodal.py)."""
    import os

    from crawler_tjce_ray.pipelines import exchange
    from crawler_tjce_ray.sources.media import media_cache_dir

    d = media_cache_dir()
    nbytes = sum(
        os.path.getsize(os.path.join(r, f))
        for r, _, fs in os.walk(d) for f in fs
    )
    return phash_dedup_pairs(
        _media_ds(),
        nb_band=exchange.band_subbuckets(
            exchange.buckets_for_bytes(nbytes or None), PHASH_BANDS))


QUERIES = {
    "multimodal_image_features": q_multimodal_image_features,
    "multimodal_image_resize": q_multimodal_image_resize,
    "multimodal_frame_sample": q_multimodal_frame_sample,
    "multimodal_audio_features": q_multimodal_audio_features,
    "multimodal_video_nn": q_multimodal_video_nn,
    "multimodal_phash_dedup": q_multimodal_phash_dedup,
}
