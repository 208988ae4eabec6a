"""Synthetic dataset generation and condition derivation."""

import hashlib

import numpy as np
import pytest

from splitstream import data as dt
from splitstream.config import ExperimentConfig
from splitstream.data import (CONDITION_KINDS, VOCAB, condition_to_input, dataset_arrays,
                              derive_condition, generate_dataset, read_ppm,
                              sobel_magnitude, write_ppm)
from splitstream.experiment import synthesize_data


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_dataset(16, 42)
        b = generate_dataset(16, 42)
        for x, y in zip(a, b):
            assert x.image.tobytes() == y.image.tobytes()
            assert x.prompt == y.prompt
            for k in x.conditions:
                assert x.conditions[k].tobytes() == y.conditions[k].tobytes()

    def test_bytes_pinned_across_commits(self):
        # digest of images, prompts, shape specs and all conditions, as first
        # generated; any change to the synthesis that moves a byte fails here
        h = hashlib.sha256()
        for s in generate_dataset(48, 2025):
            h.update(s.image.tobytes())
            h.update(" ".join(s.prompt).encode())
            for spec in s.shapes:
                h.update(repr((spec.kind, spec.color, spec.params)).encode())
            for kind in CONDITION_KINDS:
                h.update(s.conditions[kind].tobytes())
        assert h.hexdigest() == "dcd2d3b8b39d78cadd74a7da3c2eb3969d3dec43e3ac88166e3749935adf6cee"

    @pytest.mark.parametrize("condition, digest", [
        ("canny_like", "df49f13ff5a0bc244a41a469664d37d1c541e3db41f0ba170a5373da513635be"),
        ("scribble", "8ab2c3f445dad685387a51fcc56006dbd6af38dacfae5827695d2bb53a63eae3"),
        ("segmentation", "8d6a509d467c42d161a9ebe01c6af39ccf4e577a69300ef81dbf4cce3706c717"),
    ])
    def test_synthesized_splits_pinned_across_commits(self, condition, digest):
        # the arrays and prompts of all three splits at smoke.ini's seed and sizes, as
        # first generated; rendering the one condition kind asked for moves no byte
        cfg = ExperimentConfig()
        cfg.seed = 7
        cfg.dataset.n_train, cfg.dataset.n_public, cfg.dataset.n_private = 32, 24, 4
        cfg.dataset.condition = condition
        data = synthesize_data(cfg.validate())
        h = hashlib.sha256()
        for images, conds, prompts in (data.train, data.public, data.private):
            h.update(images.tobytes())
            h.update(conds.tobytes())
            h.update("\n".join(" ".join(p) for p in prompts).encode())
        assert h.hexdigest() == digest

    def test_different_seed_differs(self):
        a = generate_dataset(4, 1)
        b = generate_dataset(4, 2)
        assert any(x.image.tobytes() != y.image.tobytes() for x, y in zip(a, b))

    def test_n_one(self):
        assert len(generate_dataset(1, 7)) == 1

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 7)

    def test_closed_vocabulary(self):
        vocab = set(VOCAB)
        for s in generate_dataset(10_000, 3):
            assert set(s.prompt) <= vocab
            assert 1 <= len(s.shapes) <= 3

    def test_image_range_and_shape(self):
        for s in generate_dataset(8, 4):
            assert s.image.shape == (3, 32, 32)
            assert s.image.dtype == np.float32
            assert 0.0 <= s.image.min() and s.image.max() <= 1.0


class TestConditions:
    def test_constant_image_gives_zero_edges(self):
        img = np.full((3, 32, 32), 0.5, dtype=np.float32)
        assert np.all(derive_condition(img, "canny_like") == 0)
        assert np.all(derive_condition(img, "scribble") == 0)

    def test_sobel_matches_stencil_oracle(self):
        rng = np.random.default_rng(5)
        gray = rng.random((32, 32)).astype(np.float32)
        got = sobel_magnitude(gray)
        kx = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
        gp = np.pad(gray.astype(np.float64), 1, mode="edge")
        gx = np.zeros((32, 32))
        gy = np.zeros((32, 32))
        for i in range(32):
            for j in range(32):
                win = gp[i : i + 3, j : j + 3]
                gx[i, j] = (kx * win).sum()
                gy[i, j] = (kx.T * win).sum()
        want = np.sqrt(gx**2 + gy**2)
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("hw", [16, 40])
    def test_sobel_rejects_other_sizes(self, hw):
        # the clamped padding index is built for the dataset's image size
        with pytest.raises(ValueError, match="expects"):
            sobel_magnitude(np.zeros((hw, hw), dtype=np.float32))

    def test_segmentation_palette_count(self):
        # a one-shape sample has exactly two flat colors: background + shape
        for s in generate_dataset(50, 9):
            if len(s.shapes) == 1:
                seg = s.conditions["segmentation"]
                colors = np.unique(seg.reshape(3, -1).T, axis=0)
                assert len(colors) == 2
                break
        else:
            pytest.fail("no single-shape sample drawn")

    def test_segmentation_needs_ground_truth(self):
        img = np.zeros((3, 32, 32), dtype=np.float32)
        with pytest.raises(ValueError, match="ground-truth"):
            derive_condition(img, "segmentation")

    def test_condition_shapes(self):
        samples = generate_dataset(12, 11)
        assert {spec.kind for s in samples for spec in s.shapes} == {"circle", "rect", "triangle"}
        channels = {"canny_like": 1, "scribble": 1, "segmentation": 3}
        for s in samples:
            for kind in CONDITION_KINDS:
                cond = s.conditions[kind]
                assert cond.shape == (channels[kind], 32, 32) and cond.dtype == np.float32
                # the public function and the generator's shared pass agree byte for byte
                again = derive_condition(s.image, kind, s.shapes)
                assert again.shape == cond.shape and again.dtype == cond.dtype
                assert again.tobytes() == cond.tobytes()

    def test_scribble_is_blocky(self):
        s = generate_dataset(1, 12)[0]
        sc = s.conditions["scribble"][0]
        blocks = sc.reshape(8, 4, 8, 4)
        # every 4x4 block is constant
        assert np.all(blocks.max(axis=(1, 3)) == blocks.min(axis=(1, 3)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown condition"):
            derive_condition(np.zeros((3, 32, 32)), "depth")


class TestArrays:
    def test_dataset_arrays_shapes(self):
        samples = generate_dataset(6, 13)
        images, conds, prompts = dataset_arrays(samples, "canny_like")
        assert images.shape == (6, 3, 32, 32)
        assert conds.shape == (6, 3, 32, 32)
        assert len(prompts) == 6

    def test_condition_to_input_tiles(self):
        c = np.ones((1, 32, 32), dtype=np.float32)
        assert condition_to_input(c).shape == (3, 32, 32)
        c3 = np.ones((3, 32, 32), dtype=np.float32)
        assert condition_to_input(c3) is c3


class TestPpm:
    def test_roundtrip_bit_identical_file(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.random((3, 16, 16)).astype(np.float32)
        p1 = tmp_path / "a.ppm"
        p2 = tmp_path / "b.ppm"
        write_ppm(p1, img)
        back = read_ppm(p1)
        write_ppm(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        # quantization error bounded by half a level
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6

    def test_header(self, tmp_path):
        img = np.zeros((3, 8, 4), dtype=np.float32)
        p = tmp_path / "h.ppm"
        write_ppm(p, img)
        assert p.read_bytes().startswith(b"P6\n4 8\n255\n")

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((1, 8, 8)))
