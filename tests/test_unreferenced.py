"""Every top-level def and class in the package has a caller in the program
(`src/`, `scripts/` or `perfbench/`), or is listed below with the reason it
stays. A new unreferenced name fails, and so does a listed one that has
gained a caller: it then leaves the list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitstream"

# module.name -> why it stays without a caller in the program
UNREFERENCED = {
    "checkpoint.load_checkpoint": "read side of the checkpoint format; the tests round-trip "
                                  "saved weights through it",
    "data.derive_condition": "re-derives a sample's condition from its image; the data "
                             "tests check generated conditions against it",
    "data.read_ppm": "read side of the PPM writer; the tests read written images back",
    "diffusion.sample_step": "the reverse diffusion step; nothing samples images yet, the "
                             "diffusion tests pin its statistics",
    "models.control_forward": "the whole control path in one call; the acceptance suite "
                              "checks the zero-conv identity through it",
    "models.unet_denoise": "the whole denoiser in one call; the acceptance and protocol tests "
                           "compare the split server path against it",
    "tensor.attention": "composed attention the fused attention nodes are checked against",
    "tensor.permute": "primitive of the composed attention graph in the model tests",
    "tensor.relu": "op of the gradient checks and of the UnSplit toy clients in the tests",
    "tensor.sum_all": "reduction the model tests backpropagate from",
    "tensor.sum_squares": "reduction the gradient checks backpropagate from",
}


def _referenced_names() -> set[str]:
    names = set()
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update((node.name, node.asname))
    return names


def test_unreferenced_definitions_are_listed():
    referenced = _referenced_names()
    found = {
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in referenced
    }
    assert not found - UNREFERENCED.keys(), "unreferenced and not listed"
    assert not UNREFERENCED.keys() - found, "listed but referenced (or gone): drop from the list"
