"""Every top-level def and class in the package, and every method and
property of its classes (dunders aside), has a caller in the program
(`src/`, `scripts/` or `perfbench/`), and every dataclass field is read as
an attribute there, or is listed below with the reason it stays. A new
unreferenced name or unread field fails, and so does a listed one that has
gained a reader: it then leaves its list."""

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
    "models.unet_denoise": "the whole denoiser in one call; the acceptance and protocol tests "
                           "compare the split server path against it",
    "tensor.attention": "composed attention the fused attention nodes are checked against",
    "tensor.permute": "primitive of the composed attention graph in the model tests",
    "tensor.relu": "op of the gradient checks and of the UnSplit toy clients in the tests",
    "tensor.sum_all": "reduction the model tests backpropagate from",
    "tensor.sum_squares": "reduction the gradient checks backpropagate from",
}

# module.Class.method -> why it stays without a caller in the program
UNREFERENCED_METHODS: dict[str, str] = {}

# module.Class.field -> why it stays although the program never reads it
UNREAD_FIELDS = {
    "wire.GradientPacket.n_pred": "perfbench reads it by name; it goes in the next "
                                  "benchmark change",
}


def _program_trees():
    for top in ("src", "scripts", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            yield ast.parse(path.read_text())


def _referenced_names() -> set[str]:
    names = set()
    for tree in _program_trees():
        for node in ast.walk(tree):
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_unreferenced_methods_are_listed():
    referenced = _referenced_names()
    found = {
        f"{path.stem}.{cls.name}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _is_dunder(node.name) and node.name not in referenced
    }
    assert not found - UNREFERENCED_METHODS.keys(), "unreferenced and not listed"
    assert not UNREFERENCED_METHODS.keys() - found, "listed but referenced (or gone): drop it"


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated `@dataclass` or `@dataclass(...)`."""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def test_unread_dataclass_fields_are_listed():
    read = {node.attr for tree in _program_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = {
        f"{path.stem}.{cls.name}.{stmt.target.id}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read
    }
    assert not found - UNREAD_FIELDS.keys(), "unread and not listed"
    assert not UNREAD_FIELDS.keys() - found, "listed but read (or gone): drop from the list"
