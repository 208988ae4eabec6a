"""Synthetic shape dataset with derived condition maps.

Samples are 32x32 RGB scenes of 1-3 shaded shapes (circle / rect /
triangle) in palette colors on a dark gradient background, with prompts
naming them from a closed vocabulary. Conditions range from detailed to
coarse: a Sobel edge map (canny_like), a blocky downsampled edge sketch
(scribble), and a flat-color segmentation map rendered from the
generator's own ground truth.

A dataset is held as batch arrays: images (N, 3, H, W) float32, one
`ConditionMaps` per condition kind asked for, the prompts and the scenes'
shape lists. Condition maps are discrete, so they are held as uint8 codes
(N, H, W): 0 for the background and 1 + palette index on shape pixels in a
segmentation, 0/1 in an edge map. `ConditionMaps` alone knows that format:
indexed with any rows, it returns them as the encoder's float32 3-channel
input, and a reader materializes only the rows it reads.

Each scene's shapes are drawn one sample at a time, with the same scalar
RNG calls in the same order whatever is rendered. Scenes are then rendered
in chunks of `CHUNK`, straight into the dataset's arrays and codes: one
mask per shape paints both the image and the segmentation, one gray ->
Sobel -> threshold pass feeds both canny_like and scribble, and only the
condition kinds asked for are rendered. `derive_condition` renders a batch
of one through the same helpers, so the two give the same codes.
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

# kind -> the encoder's float32 input pixel of each code, channel-major
# (3, codes), so `take` gathers rows straight into channel planes. An edge
# map's one channel is repeated three times.
_LEVELS = {
    "canny_like": np.array([[0.0, 1.0]] * 3, dtype=np.float32),
    "scribble": np.array([[0.0, 1.0]] * 3, dtype=np.float32),
    "segmentation": np.ascontiguousarray(np.vstack([BACKGROUND, PALETTE]).T),
}

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float32)
SOBEL_Y = SOBEL_X.T

EDGE_THRESHOLD = 0.5


@dataclass
class ShapeSpec:
    kind: str
    color: int  # palette index
    params: tuple  # geometry, kind-specific


# The pixel grid, built once as an open grid: xs is one row (1, W) and ys one
# column (H, 1), and numpy broadcasts them against (m, 1, 1) shape parameters
# to (m, H, W), one map per shape.
_XS = np.arange(IMAGE_HW, dtype=np.float32)[None, :]
_YS = np.arange(IMAGE_HW, dtype=np.float32)[:, None]
_XS.flags.writeable = False
_YS.flags.writeable = False

# dark vertical gradient every image starts from
_BACKDROP = np.broadcast_to(0.05 + 0.10 * _YS / (IMAGE_HW - 1), (3, IMAGE_HW, IMAGE_HW))

# sobel_magnitude's edge padding: padded row/column i reads clamp(i - 1)
_CLAMPED = np.clip(np.arange(-1, IMAGE_HW + 1), 0, IMAGE_HW - 1)
_CLAMPED.flags.writeable = False

# scenes rendered per numpy batch: bounds the temporaries of a large dataset
CHUNK = 64


def _circle(cx, cy, r):
    d2 = (_XS - cx) ** 2 + (_YS - cy) ** 2
    return d2 <= r * r, np.sqrt(d2) / np.maximum(r, 1.0)


def _rect(x0, y0, x1, y1):
    inside = (_XS >= x0) & (_XS <= x1) & (_YS >= y0) & (_YS <= y1)
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    return inside, np.maximum(np.abs(_XS - cx) / np.maximum((x1 - x0) / 2.0, 1.0),
                              np.abs(_YS - cy) / np.maximum((y1 - y0) / 2.0, 1.0))


def _triangle(cx, y0, y1, half):
    frac = np.clip((_YS - y0) / np.maximum(y1 - y0, 1e-6), 0.0, 1.0)
    inside = (_YS >= y0) & (_YS <= y1) & (np.abs(_XS - cx) <= frac * half)
    return inside, np.abs(_YS - (y0 + y1) / 2.0) / np.maximum((y1 - y0) / 2.0, 1.0)


# kind -> (mask, distance) of m shapes of that kind, from their float32
# parameters as (m, 1, 1) columns; the distance is 0 at a shape's centre and
# 1 at its rim
_GEOMETRY = {"circle": _circle, "rect": _rect, "triangle": _triangle}


class ConditionMaps:
    """The condition maps of one kind for a split, held as uint8 codes
    (n, H, W).

    Indexing takes rows as numpy does (an index array, a slice or one row)
    and returns them as the encoder's float32 input, (k, 3, H, W) or for one
    row (3, H, W); only the rows asked for are materialized. `select` keeps
    rows as codes.
    """

    def __init__(self, kind: str, codes: np.ndarray):
        self.kind = kind
        self.codes = codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows) -> np.ndarray:
        planes = _LEVELS[self.kind].take(self.codes[rows], axis=1)  # (3, [k,] H, W)
        return np.ascontiguousarray(np.moveaxis(planes, 0, -3))

    def select(self, rows) -> "ConditionMaps":
        """The maps of `rows`, still as codes."""
        return ConditionMaps(self.kind, self.codes[rows])


def _empty(n: int, kinds) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Unfilled images (n, 3, H, W) and condition codes (n, H, W) of the given kinds."""
    unknown = set(kinds) - set(CONDITION_KINDS)
    if unknown:
        raise ValueError(f"unknown condition kind {sorted(unknown)[0]!r}, have {CONDITION_KINDS}")
    return (np.empty((n, 3, IMAGE_HW, IMAGE_HW), dtype=np.float32),
            {kind: np.empty((n, IMAGE_HW, IMAGE_HW), dtype=np.uint8) for kind in kinds})


def _render(scenes: list[list[ShapeSpec]], images: np.ndarray, conds: dict[str, np.ndarray]) -> None:
    """Render B scenes into images (B, 3, H, W) and into each condition's
    codes in conds, kind -> (B, H, W).

    Masks and shading are computed for all shapes of a kind at once. Each
    pixel then shows the last shape of its scene that covers it, in drawing
    order, or else the backdrop (the background in the segmentation).
    """
    specs = [spec for scene in scenes for spec in scene]
    strange = {spec.kind for spec in specs} - _GEOMETRY.keys()
    if strange:
        raise ValueError(f"unknown shape kind {sorted(strange)[0]!r}")
    masks = np.empty((len(specs), IMAGE_HW, IMAGE_HW), dtype=bool)
    dist = np.empty((len(specs), IMAGE_HW, IMAGE_HW), dtype=np.float32)
    for kind, geometry in _GEOMETRY.items():
        idx = [i for i, spec in enumerate(specs) if spec.kind == kind]
        if idx:
            params = np.array([specs[i].params for i in idx], dtype=np.float32)
            masks[idx], dist[idx] = geometry(*params.T[:, :, None, None])
    palette_idx = np.array([spec.color for spec in specs], dtype=np.uint8)

    # the shape each pixel shows, as an index into specs, or -1
    top = np.full((len(scenes), IMAGE_HW, IMAGE_HW), -1)
    owners = [b for b, scene in enumerate(scenes) for _ in scene]
    for i, (owner, mask) in enumerate(zip(owners, masks)):
        np.copyto(top[owner], i, where=mask)
    b, y, x = np.nonzero(top >= 0)
    shown = top[b, y, x]

    images[:] = _BACKDROP
    # radial falloff, so images are shaded while segmentation stays flat
    shading = 1.0 - 0.35 * np.minimum(dist[shown, y, x], 1.0)
    images[b, :, y, x] = PALETTE[palette_idx[shown]] * shading[:, None]
    np.clip(images, 0.0, 1.0, out=images)

    if "segmentation" in conds:
        seg = conds["segmentation"]
        seg[:] = 0
        seg[b, y, x] = 1 + palette_idx[shown]
    if conds.keys() & {"canny_like", "scribble"}:
        edges = _edges(images)
        if "canny_like" in conds:
            conds["canny_like"][:] = edges
        if "scribble" in conds:
            conds["scribble"][:] = _scribble(edges)


def _edges(images: np.ndarray) -> np.ndarray:
    """Thresholded Sobel edges of gray (..., 3, H, W) images, (..., H, W) codes in {0, 1}."""
    gray = np.asarray(images, dtype=np.float32).mean(axis=-3)
    return (sobel_magnitude(gray) > EDGE_THRESHOLD).view(np.uint8)


def _scribble(edges: np.ndarray) -> np.ndarray:
    """(B, H, W) sketch of (B, H, W) edge codes: pool 4x, threshold (more than
    4 of 16 edge pixels), upsample back."""
    blocky = (edges.reshape(-1, 8, 4, 8, 4).sum(axis=(2, 4)) > 4).view(np.uint8)
    return blocky.repeat(4, axis=1).repeat(4, axis=2)


def _draw_scene(rng: RngState) -> list[ShapeSpec]:
    shapes: list[ShapeSpec] = []
    for _ in range(int(rng.integers(1, 3))):
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
    return shapes


def _prompt(shapes: list[ShapeSpec]) -> list[str]:
    groups: dict[tuple[int, str], int] = {}
    for spec in shapes:
        groups[(spec.color, spec.kind)] = groups.get((spec.color, spec.kind), 0) + 1
    prompt: list[str] = []
    for (color, kind), count in groups.items():
        prompt += [COUNT_WORDS[count - 1], COLOR_WORDS[color], kind]
    return prompt


def generate_dataset(n: int, seed: int, kinds=CONDITION_KINDS):
    """n deterministic samples as (images (n, 3, H, W), {kind: ConditionMaps}
    of the given kinds, prompts, shape lists); identical seeds give
    byte-identical data, whatever kinds are asked for."""
    if n < 1:
        raise ValueError(f"dataset size must be >= 1, got {n}")
    images, conds = _empty(n, kinds)
    rng = RngState(seed).split("shape-dataset")
    shapes: list[list[ShapeSpec]] = []
    for start in range(0, n, CHUNK):
        scenes = [_draw_scene(rng) for _ in range(min(CHUNK, n - start))]
        rows = slice(start, start + len(scenes))
        _render(scenes, images[rows], {kind: c[rows] for kind, c in conds.items()})
        shapes += scenes
    return (images, {kind: ConditionMaps(kind, c) for kind, c in conds.items()},
            [_prompt(scene) for scene in shapes], shapes)


def _conv3(xp: np.ndarray, k: np.ndarray) -> np.ndarray:
    """3x3 correlation of edge-padded (..., H + 2, W + 2) maps, trimmed back to
    the unpadded size."""
    h, w = xp.shape[-2] - 2, xp.shape[-1] - 2
    out = np.zeros(xp.shape[:-2] + (h, w), dtype=xp.dtype)
    for i in range(3):
        for j in range(3):
            if k[i, j]:  # adding a zero tap changes no bit of the sum
                out += k[i, j] * xp[..., i : i + h, j : j + w]
    return out


def sobel_magnitude(gray: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude of (..., IMAGE_HW, IMAGE_HW) maps, edges clamped."""
    if gray.shape[-2:] != (IMAGE_HW, IMAGE_HW):
        raise ValueError(f"sobel_magnitude expects (..., {IMAGE_HW}, {IMAGE_HW}), "
                         f"got {gray.shape}")
    xp = gray[..., _CLAMPED[:, None], _CLAMPED]
    gx = _conv3(xp, SOBEL_X)
    gy = _conv3(xp, SOBEL_Y)
    return np.sqrt(gx * gx + gy * gy)


def derive_condition(image: np.ndarray, kind: str, shapes: list[ShapeSpec] | None = None) -> np.ndarray:
    """Condition codes (H, W) for an image; segmentation needs the generator's shapes."""
    if kind not in CONDITION_KINDS:
        raise ValueError(f"unknown condition kind {kind!r}, have {CONDITION_KINDS}")
    if kind == "segmentation":
        if shapes is None:
            raise ValueError("segmentation condition needs the ground-truth shape list")
        images, conds = _empty(1, (kind,))
        _render([shapes], images, conds)
        return conds[kind][0]
    edges = _edges(np.asarray(image)[None])
    return edges[0] if kind == "canny_like" else _scribble(edges)[0]


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
