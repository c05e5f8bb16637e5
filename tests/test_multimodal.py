"""Multimodal stage plumbing tests: fake-container decode, resize,
audio features, frame sampling — schema, actor signature, row
expansion, determinism."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from crawler_tjce_ray.sources.media import (
    MAGIC_IMG, make_audio, make_image, make_video,
)
from crawler_tjce_ray.stages.multimodal import (
    AudioFeatureStage, FrameSampleStage, ImageDecodeStage, ImageResizeStage,
)


def _tbl(rows):
    return pa.Table.from_pylist(rows)


class TestKernels:
    def test_image_decode_header(self):
        payload = make_image(1, seed=7)
        t = _tbl([{"media_id": 1, "kind": "image", "payload": payload}])
        out = ImageDecodeStage()(t)
        assert out.column_names == [
            "media_id", "width", "height", "channels", "mean_intensity",
        ]
        w, h, c = (
            out["width"][0].as_py(), out["height"][0].as_py(),
            out["channels"][0].as_py(),
        )
        assert len(payload) == 9 + w * h * c
        assert 0.0 <= out["mean_intensity"][0].as_py() <= 255.0

    def test_image_decode_unsupported_format_raises(self):
        """PNG/BMP/JPEG decode for real now; formats without a
        pure-numpy codec (WebP) still raise at the PIL routing
        point."""
        t = _tbl([{"media_id": 1, "kind": "image",
                   "payload": b"RIFF\x00\x00\x00\x00WEBP"}])
        with pytest.raises(NotImplementedError):
            ImageDecodeStage()(t)

    def test_resize_halves_dims(self):
        payload = make_image(2, seed=7)
        t = _tbl([{"media_id": 2, "kind": "image", "payload": payload}])
        out = ImageResizeStage(factor=2)(t)
        w0, h0 = np.frombuffer(payload, "<u2", count=2, offset=4)
        assert out["width"][0].as_py() == max(1, int(w0) // 2)
        assert out["height"][0].as_py() == max(1, int(h0) // 2)
        blob = out["payload"][0].as_py()
        assert blob.startswith(MAGIC_IMG)
        assert len(blob) < len(payload)

    def test_audio_features(self):
        payload = make_audio(3, seed=7)
        t = _tbl([{"media_id": 3, "kind": "audio", "payload": payload}])
        out = AudioFeatureStage()(t)
        assert out["duration_s"][0].as_py() > 0
        assert out["rms"][0].as_py() > 0

    def test_frame_sample_expands_rows(self):
        from crawler_tjce_ray.stages.multimodal import decode_any_video

        # ordinal 4 is a real AVI in the v6 corpus; ordinal 2 is FVID —
        # the explode must behave identically for both containers
        for mid in (2, 4):
            payload = make_video(mid, seed=7)
            nf = decode_any_video(payload)[1]
            t = _tbl([{"media_id": mid, "kind": "video", "payload": payload}])
            out = FrameSampleStage(stride=4)(t)
            assert out.num_rows == len(range(0, nf, 4))
            assert out["frame_idx"].to_pylist() == list(range(0, nf, 4))

    def test_non_matching_kinds_skipped(self):
        t = _tbl([
            {"media_id": 5, "kind": "audio", "payload": make_audio(5, 7)},
            {"media_id": 6, "kind": "video", "payload": make_video(6, 7)},
        ])
        assert ImageDecodeStage()(t).num_rows == 0


@pytest.mark.usefixtures("ray_session")
class TestPipelines:
    def test_image_features_pipeline(self):
        from crawler_tjce_ray.stages.multimodal import q_multimodal_image_features

        out = q_multimodal_image_features("")
        assert len(out) == 100  # 300 media round-robin over 3 kinds
        assert out["media_id"].is_monotonic_increasing
        # determinism: second run identical
        out2 = q_multimodal_image_features("")
        assert out.equals(out2)

    def test_frame_sample_pipeline(self):
        from crawler_tjce_ray.stages.multimodal import q_multimodal_frame_sample

        out = q_multimodal_frame_sample("")
        assert set(out.columns) == {"media_id", "frame_idx", "mean_intensity"}
        assert (out["frame_idx"] % 4 == 0).all()
        assert out["media_id"].nunique() == 100

    def test_audio_pipeline(self):
        from crawler_tjce_ray.stages.multimodal import q_multimodal_audio_features

        out = q_multimodal_audio_features("")
        assert len(out) == 100
        assert (out["duration_s"] > 0).all()


@pytest.mark.usefixtures("ray_session")
class TestVideoNN:
    def test_composed_pipeline(self):
        from crawler_tjce_ray.stages.multimodal import q_multimodal_video_nn

        out = q_multimodal_video_nn("")
        assert len(out) == 100
        assert (out["media_id"] != out["nn_media_id"]).all()
        assert (out["cosine"] <= 1.0 + 1e-9).all()
        assert out.equals(q_multimodal_video_nn(""))


class TestReviewRegressions:
    def test_resize_factor_larger_than_image(self):
        """factor > dimension must yield a 1-px axis, not a reshape
        ValueError."""
        payload = make_image(9, seed=7)  # dims in [8, 32]
        t = _tbl([{"media_id": 9, "kind": "image", "payload": payload}])
        out = ImageResizeStage(factor=64)(t)
        assert out.num_rows == 1
        assert out["width"][0].as_py() >= 1 and out["height"][0].as_py() >= 1

    def test_frame_sample_no_frames_mode(self):
        payload = make_video(10, seed=7)
        t = _tbl([{"media_id": 10, "kind": "video", "payload": payload}])
        out = FrameSampleStage(stride=4, emit_frames=False)(t)
        assert "frame" not in out.column_names
        assert out.num_rows > 0


class TestPHashDedup:
    """Perceptual-hash near-dup: planted copies and lightly-perturbed
    copies are found; unrelated images are not paired."""

    def _payload(self, w, h, pix):
        head = MAGIC_IMG + np.array([w, h], "<u2").tobytes() + bytes([3])
        return head + pix.tobytes()

    def test_stage_deterministic_and_64bit(self):
        from crawler_tjce_ray.stages.multimodal import ImagePHashStage

        payload = make_image(5, seed=7)
        t = _tbl([{"media_id": 5, "kind": "image", "payload": payload}])
        a = ImagePHashStage()(t)["phash"][0].as_py()
        b = ImagePHashStage()(t)["phash"][0].as_py()
        assert a == b

    @pytest.mark.parametrize("nb_band", [1, 16])
    def test_planted_near_dups_found(self, nb_band):
        import ray.data as rd

        from crawler_tjce_ray.stages.multimodal import phash_dedup_pairs

        rng = np.random.RandomState(3)
        rows = []
        base = []
        for i in range(8):
            pix = rng.randint(0, 256, size=(24, 32, 3), dtype=np.uint8)
            base.append(pix)
            rows.append({"media_id": i, "kind": "image",
                         "payload": self._payload(32, 24, pix)})
        # 8..10: exact copies of 0..2 (hamming 0)
        for i in range(3):
            rows.append({"media_id": 8 + i, "kind": "image",
                         "payload": self._payload(32, 24, base[i])})
        # 11: lightly perturbed copy of 3 (+-1 noise keeps block means)
        noisy = np.clip(
            base[3].astype(np.int16)
            + rng.randint(-1, 2, size=base[3].shape), 0, 255
        ).astype(np.uint8)
        rows.append({"media_id": 11, "kind": "image",
                     "payload": self._payload(32, 24, noisy)})

        out = phash_dedup_pairs(rd.from_pandas(pd.DataFrame(rows)),
                                nb_band=nb_band)
        pairs = set(zip(out["media_a"], out["media_b"]))
        for i in range(3):
            assert (i, 8 + i) in pairs
        assert (3, 11) in pairs
        # distinct random images must not collide at hamming <= 3
        assert all(a in (0, 1, 2, 3) or a >= 8 for a, _ in pairs)

    def test_query_runs_on_media_corpus(self):
        from crawler_tjce_ray.stages.multimodal import q_multimodal_phash_dedup

        out = q_multimodal_phash_dedup("ignored")
        assert list(out.columns) == ["media_a", "media_b", "hamming"]
