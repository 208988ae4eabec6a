"""Synthetic shape dataset with derived condition maps.

Samples are 32x32 RGB scenes of 1-3 shaded shapes (circle / rect /
triangle) in palette colors on a dark gradient background, with prompts
naming them from a closed vocabulary. Conditions range from detailed to
coarse: a Sobel edge map (canny_like), a blocky downsampled edge sketch
(scribble), and a flat-color segmentation map rendered from the
generator's own ground truth.

Each sample's masks and edge map are computed once and shared by its
conditions: one mask per shape paints both the image and the segmentation,
and one gray -> Sobel -> threshold pass feeds both canny_like and scribble.
`derive_condition` rebuilds any one condition from the same helpers, so the
two paths give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngState

IMAGE_HW = 32

COUNT_WORDS = ["one", "two", "three"]
COLOR_WORDS = ["red", "green", "blue", "yellow", "purple", "cyan", "orange", "white"]
SHAPE_WORDS = ["circle", "rect", "triangle"]
VOCAB = COUNT_WORDS + COLOR_WORDS + SHAPE_WORDS

PALETTE = np.array(
    [
        [1.0, 0.15, 0.15],  # red
        [0.15, 1.0, 0.15],  # green
        [0.2, 0.2, 1.0],    # blue
        [1.0, 1.0, 0.2],    # yellow
        [0.65, 0.2, 0.85],  # purple
        [0.2, 1.0, 1.0],    # cyan
        [1.0, 0.55, 0.15],  # orange
        [1.0, 1.0, 1.0],    # white
    ],
    dtype=np.float32,
)

BACKGROUND = np.zeros(3, dtype=np.float32)

CONDITION_KINDS = ("canny_like", "scribble", "segmentation")

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float32)
SOBEL_Y = SOBEL_X.T

EDGE_THRESHOLD = 0.5


@dataclass
class ShapeSpec:
    kind: str
    color: int  # palette index
    params: tuple  # geometry, kind-specific


@dataclass
class ShapeSample:
    image: np.ndarray  # (3, 32, 32) in [0, 1]
    prompt: list[str]
    shapes: list[ShapeSpec]
    conditions: dict[str, np.ndarray]


# The pixel grid, built once as an open grid: xs is one row (1, W) and ys one
# column (H, 1), and numpy broadcasts them to (H, W) per pixel.
_XS = np.arange(IMAGE_HW, dtype=np.float32)[None, :]
_YS = np.arange(IMAGE_HW, dtype=np.float32)[:, None]
_XS.flags.writeable = False
_YS.flags.writeable = False

# dark vertical gradient every image starts from
_BACKDROP = np.broadcast_to(0.05 + 0.10 * _YS / (IMAGE_HW - 1), (3, IMAGE_HW, IMAGE_HW))

# sobel_magnitude's edge padding: padded row/column i reads clamp(i - 1)
_CLAMPED = np.clip(np.arange(-1, IMAGE_HW + 1), 0, IMAGE_HW - 1)
_CLAMPED.flags.writeable = False
_EDGE_INDEX = np.ix_(_CLAMPED, _CLAMPED)


def _shape_mask(spec: ShapeSpec) -> np.ndarray:
    xs, ys = _XS, _YS
    if spec.kind == "circle":
        cx, cy, r = spec.params
        return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    if spec.kind == "rect":
        x0, y0, x1, y1 = spec.params
        return (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    if spec.kind == "triangle":
        cx, y0, y1, half = spec.params
        frac = np.clip((ys - y0) / max(y1 - y0, 1e-6), 0.0, 1.0)
        inside_rows = (ys >= y0) & (ys <= y1)
        return inside_rows & (np.abs(xs - cx) <= frac * half)
    raise ValueError(f"unknown shape kind {spec.kind!r}")


def _shading(spec: ShapeSpec) -> np.ndarray:
    """Radial falloff so images are shaded while segmentation stays flat."""
    xs, ys = _XS, _YS
    if spec.kind == "circle":
        cx, cy, r = spec.params
        d = np.sqrt((xs - cx) ** 2 + (ys - cy) ** 2) / max(r, 1.0)
    elif spec.kind == "rect":
        x0, y0, x1, y1 = spec.params
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        d = np.maximum(np.abs(xs - cx) / max((x1 - x0) / 2.0, 1.0),
                       np.abs(ys - cy) / max((y1 - y0) / 2.0, 1.0))
    else:
        cx, y0, y1, half = spec.params
        d = np.abs(ys - (y0 + y1) / 2.0) / max((y1 - y0) / 2.0, 1.0)
    return 1.0 - 0.35 * np.minimum(d, 1.0)  # d >= 0


def _segmentation(shapes: list[ShapeSpec], masks: list[np.ndarray]) -> np.ndarray:
    seg = np.empty((3, IMAGE_HW, IMAGE_HW), dtype=np.float32)
    seg[:] = BACKGROUND[:, None, None]
    for spec, mask in zip(shapes, masks):
        np.copyto(seg, PALETTE[spec.color][:, None, None], where=mask)
    return seg


def _edges(image: np.ndarray) -> np.ndarray:
    """Thresholded Sobel edges of the gray image, (H, W) in {0, 1}."""
    gray = np.asarray(image, dtype=np.float32).mean(axis=0)
    return (sobel_magnitude(gray) > EDGE_THRESHOLD).astype(np.float32)


def _scribble(edges: np.ndarray) -> np.ndarray:
    # average-pool 4x, re-threshold (more than 4 of 16 edge pixels), upsample back
    blocky = (edges.reshape(8, 4, 8, 4).sum(axis=(1, 3)) > 4).astype(np.float32)
    return blocky.repeat(4, axis=0).repeat(4, axis=1)[None]


def _draw_sample(rng: RngState) -> ShapeSample:
    n_shapes = int(rng.integers(1, 3))
    shapes: list[ShapeSpec] = []
    for _ in range(n_shapes):
        kind = SHAPE_WORDS[int(rng.integers(0, 2))]
        color = int(rng.integers(0, len(PALETTE) - 1))
        if kind == "circle":
            params = (float(rng.integers(9, 23)), float(rng.integers(9, 23)),
                      float(rng.integers(4, 8)))
        elif kind == "rect":
            x0 = int(rng.integers(3, 18))
            y0 = int(rng.integers(3, 18))
            params = (float(x0), float(y0),
                      float(x0 + int(rng.integers(6, 11))),
                      float(y0 + int(rng.integers(6, 11))))
        else:
            y0 = int(rng.integers(3, 14))
            params = (float(rng.integers(9, 23)), float(y0),
                      float(y0 + int(rng.integers(8, 14))),
                      float(rng.integers(5, 9)))
        shapes.append(ShapeSpec(kind, color, params))

    # shaded shapes over the backdrop; each mask also paints the segmentation
    masks = [_shape_mask(spec) for spec in shapes]
    img = _BACKDROP.copy()
    for spec, mask in zip(shapes, masks):
        np.copyto(img, PALETTE[spec.color][:, None, None] * _shading(spec), where=mask)

    prompt: list[str] = []
    groups: dict[tuple[int, str], int] = {}
    for spec in shapes:
        groups[(spec.color, spec.kind)] = groups.get((spec.color, spec.kind), 0) + 1
    for (color, kind), count in groups.items():
        prompt += [COUNT_WORDS[count - 1], COLOR_WORDS[color], kind]

    image = np.clip(img, 0.0, 1.0)
    edges = _edges(image)
    conditions = {"canny_like": edges[None], "scribble": _scribble(edges),
                  "segmentation": _segmentation(shapes, masks)}
    return ShapeSample(image=image, prompt=prompt, shapes=shapes, conditions=conditions)


def generate_dataset(n: int, seed: int) -> list[ShapeSample]:
    """n deterministic samples; identical seeds give byte-identical data."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    rng = RngState(seed).split("shape-dataset")
    return [_draw_sample(rng) for _ in range(n)]


def _conv3(xp: np.ndarray, k: np.ndarray) -> np.ndarray:
    """3x3 correlation of an edge-padded map, trimmed back to the unpadded size."""
    h, w = xp.shape[0] - 2, xp.shape[1] - 2
    out = np.zeros((h, w), dtype=xp.dtype)
    for i in range(3):
        for j in range(3):
            if k[i, j]:  # adding a zero tap changes no bit of the sum
                out += k[i, j] * xp[i : i + h, j : j + w]
    return out


def sobel_magnitude(gray: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of an (IMAGE_HW, IMAGE_HW) map, edges clamped."""
    if gray.shape != (IMAGE_HW, IMAGE_HW):
        raise ValueError(f"sobel_magnitude expects ({IMAGE_HW}, {IMAGE_HW}), got {gray.shape}")
    xp = gray[_EDGE_INDEX]
    gx = _conv3(xp, SOBEL_X)
    gy = _conv3(xp, SOBEL_Y)
    return np.sqrt(gx * gx + gy * gy)


def derive_condition(image: np.ndarray, kind: str, shapes: list[ShapeSpec] | None = None) -> np.ndarray:
    """Condition map for an image; segmentation needs the generator's shapes."""
    if kind not in CONDITION_KINDS:
        raise ValueError(f"unknown condition kind {kind!r}, have {CONDITION_KINDS}")
    if kind == "segmentation":
        if shapes is None:
            raise ValueError("segmentation condition needs the ground-truth shape list")
        return _segmentation(shapes, [_shape_mask(spec) for spec in shapes])
    edges = _edges(image)
    return edges[None] if kind == "canny_like" else _scribble(edges)


def condition_to_input(cond: np.ndarray) -> np.ndarray:
    """Expand a 1-channel condition to the encoder's 3-channel input."""
    if cond.shape[0] == 3:
        return cond
    return np.repeat(cond, 3, axis=0)


def dataset_arrays(samples: list[ShapeSample], cond_kind: str):
    """Stack a sample list into protocol-ready arrays."""
    images = np.stack([s.image for s in samples])
    conds = np.stack([condition_to_input(s.conditions[cond_kind]) for s in samples])
    prompts = [s.prompt for s in samples]
    return images, conds, prompts


# ---------------------------------------------------------------------------
# PPM image files (P6, maxval 255)


def write_ppm(path, image01: np.ndarray) -> None:
    img = np.asarray(image01)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"write_ppm expects (3,H,W), got {img.shape}")
    h, w = img.shape[1:]
    pix = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(pix.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise ValueError("not a P6 ppm file")
    w, h = (int(v) for v in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"unsupported maxval {maxval}")
    pix = np.frombuffer(parts[3][: w * h * 3], dtype=np.uint8).reshape(h, w, 3)
    return (pix.transpose(2, 0, 1).astype(np.float32)) / 255.0
