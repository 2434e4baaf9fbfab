"""File formats: network / zonotope / system JSON, result JSON, CSV outputs.

All floats serialize with 17 significant digits so that re-parsing reproduces
bit-identical values.
"""

import json

import numpy as np

from .model import network_from_dict, network_to_dict, require_finite
from .reach import Box, LinearSystem, Zonotope


def format_float(x):
    if not np.isfinite(x):
        raise ValueError("refusing to serialize a non-finite float")
    return format(float(x), ".17g")


def dumps17(obj, indent=0):
    """JSON text with 17-significant-digit floats, round-trip safe."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {dumps17(v, indent + 2).lstrip()}'
            for k, v in obj.items())
        return f"{pad}{{\n{items}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else obj
        items = ", ".join(dumps17(v).strip() for v in seq)
        return f"{pad}[{items}]"
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if isinstance(obj, (float, np.floating)):
        return pad + format_float(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if obj is None:
        return pad + "null"
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from None


def _from_file(path, make, *args):
    """make(*args), with ``path`` prefixed to the message of its ValueError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_network(path):
    return _from_file(path, network_from_dict, _load_json(path))


def save_network(net, path):
    with open(path, "w") as fh:
        fh.write(dumps17(network_to_dict(net)))
        fh.write("\n")


def load_zonotope(path):
    data = _load_json(path)
    try:
        G = np.asarray(data["G"], dtype=float)
        center = np.asarray(data["center"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: zonotope JSON needs numeric 'G', 'center'") from None
    return _from_file(path, Zonotope, G, center)


def load_system(path, controller):
    """System JSON {A, B, T, c?, dt?}; dt is informational only."""
    data = _load_json(path)
    try:
        A = np.asarray(data["A"], dtype=float)
        B = np.asarray(data["B"], dtype=float)
        T = data["T"]
        drift = np.asarray(data["c"], dtype=float) if "c" in data else None
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: system JSON needs numeric 'A', 'B', 'T' "
                         "(and 'c' if given)") from None
    # a whole number >= 1, where JSON true is a bool, not an int; inf % 1 is
    # NaN, which is truthy
    if type(T) not in (int, float) or T % 1 or T < 1:
        raise ValueError(f"{path}: system T must be a whole number of steps "
                         f">= 1, got {T!r}")
    return _from_file(path, LinearSystem, A, B, controller, int(T), drift)


def parse_box(text, dim=None):
    """Per-dimension ranges 'lo..hi' joined by commas, e.g. '-1..1,-0.5..0.5'."""
    lo, hi = [], []
    for part in text.split(","):
        pieces = part.split("..")
        if len(pieces) != 2:
            raise ValueError(f"bad box range {part!r}; expected 'lo..hi'")
        try:
            a, b = float(pieces[0]), float(pieces[1])
        except ValueError:
            raise ValueError(f"bad box range {part!r}") from None
        if a > b:
            raise ValueError(f"box range {part!r} has lo > hi")
        lo.append(a)
        hi.append(b)
    box = Box(np.array(lo), np.array(hi))
    if dim is not None and box.dim != dim:
        raise ValueError(f"box has {box.dim} dims, expected {dim}")
    return box


def parse_vector(text, dim=None):
    try:
        vec = np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise ValueError(f"bad vector {text!r}; expected comma-separated floats") \
            from None
    require_finite(vec, f"vector {text!r}")
    if dim is not None and vec.shape[0] != dim:
        raise ValueError(f"vector has {vec.shape[0]} entries, expected {dim}")
    return vec


def polytope_to_dict(poly):
    faces = []
    for i in range(poly.normals.shape[0]):
        face = {"c": poly.normals[i].tolist(), "d": float(poly.offsets[i])}
        if poly.lbs is not None:
            face["lb"] = float(poly.lbs[i])
        faces.append(face)
    return {"faces": faces}


def write_faces_csv(path, polytopes):
    """One row per face: step number, normal components, then the offset.
    Steps count from 1, as the step file names do (``step001.json`` holds
    the faces of step 1), and the step-t faces bound the step-t points of
    ``write_trajectories_csv``."""
    with open(path, "w") as fh:
        for t, poly in enumerate(polytopes, start=1):
            for i in range(poly.normals.shape[0]):
                comps = ",".join(format_float(v) for v in poly.normals[i])
                fh.write(f"{t},{comps},{format_float(poly.offsets[i])}\n")


def write_trajectories_csv(path, cloud):
    """Point cloud rows: step index then state components; step 0 holds
    the points of the initial set."""
    with open(path, "w") as fh:
        for t in range(cloud.shape[0]):
            for row in cloud[t]:
                comps = ",".join(format_float(v) for v in row)
                fh.write(f"{t},{comps}\n")
