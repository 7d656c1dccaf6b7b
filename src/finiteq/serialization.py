"""File formats shared by the library and the command line.

* state JSON:  {"d": int, "lambda": float, "components": [[re, im], ...]}
* zeros CSV:   header ``re,im,multiplicity``, one row per zero
* zeros SVG:   self-contained scatter of the cell rectangle and zero markers
  (circles; an optional overlay set uses triangles)

All writers go through a temp file in the target directory followed by an
atomic rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .hilbert import FiniteState
from .theta import _integer, _positive
from .zak import SystemParams
from .zeros import ZeroSet

__all__ = [
    "write_atomic",
    "state_to_dict",
    "state_from_dict",
    "save_state",
    "load_state",
    "save_zeros_csv",
    "load_zeros_csv",
    "zeros_svg",
    "save_svg",
]


_SVG_SIZE = 480  # pixels along the longer side of the cell in zeros_svg


def write_atomic(path, text: str):
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)  # mkstemp defaults to owner-only
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def state_to_dict(state: FiniteState, params: SystemParams) -> dict:
    return {
        "d": state.d,
        "lambda": params.lam,
        "components": [[float(c.real), float(c.imag)] for c in state.components],
    }


def state_from_dict(data: dict) -> tuple[FiniteState, float]:
    try:
        d = _integer(data["d"], "d", 1)
        lam = _positive(data["lambda"], "lambda")
        comps = [complex(re, im) for re, im in data["components"]]
        if any(isinstance(x, bool) for pair in data["components"] for x in pair):
            raise ValueError("components must be numbers, not booleans")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state record: {exc}") from exc
    if len(comps) != d:
        raise ValueError(f"state record claims d={d} but has {len(comps)} components")
    return FiniteState(comps, normalize=False), lam


def save_state(path, state: FiniteState, params: SystemParams):
    write_atomic(path, json.dumps(state_to_dict(state, params), indent=1) + "\n")


def load_state(path) -> tuple[FiniteState, float]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed state file {path}: {exc}") from exc
    return state_from_dict(data)


def save_zeros_csv(path, zs: ZeroSet):
    """Write the zeros CSV at `path`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["re", "im", "multiplicity"])
    for z, m in zip(zs.positions, zs.multiplicities):
        # 17 significant digits read back as the same double, bit for bit
        writer.writerow([f"{z.real:.17g}", f"{z.imag:.17g}", int(m)])
    write_atomic(path, buf.getvalue())


def load_zeros_csv(path) -> tuple[np.ndarray, np.ndarray]:
    positions, mults = [], []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not row[0].strip():
                continue
            if i == 0 and row[0].strip().lower() == "re":
                continue
            try:
                positions.append(complex(float(row[0]), float(row[1])))
                mults.append(int(row[2]) if len(row) > 2 and row[2].strip() else 1)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"malformed zeros CSV row {row!r}: {exc}") from exc
    if not positions:
        raise ValueError(f"no zeros found in {path}")
    return np.asarray(positions, dtype=complex), np.asarray(mults, dtype=int)


def zeros_svg(zs: ZeroSet, overlay: ZeroSet | None = None) -> str:
    """Scatter of zero positions over the cell rectangle, as an SVG document.

    Primary zeros are drawn as circles, overlay zeros (if given) as
    triangles, mirroring the circle/triangle marker pairing of a two-state
    comparison plot.  Circles are used for nothing else, so a structural
    count of circle elements equals the number of primary zeros.  The
    overlay must share the primary set's params, whose cell the plot draws;
    otherwise ValueError.
    """
    p = zs.params
    if overlay is not None and overlay.params != p:
        raise ValueError(f"overlay must share the cell of the primary set: {overlay.params} against {p}")
    width, height = p.cell_width, p.cell_height
    margin = 40.0
    s = _SVG_SIZE / max(width, height)
    w_px = width * s + 2 * margin
    h_px = height * s + 2 * margin

    def to_px(z: complex):
        return margin + (z.real - p.a) * s, margin + (p.b + height - z.imag) * s

    def circle(x, y):
        return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="none" stroke="steelblue" stroke-width="2"/>'

    def triangle(x, y, r=6.0):
        pts = f"{x:.2f},{y - r:.2f} {x - 0.866 * r:.2f},{y + 0.5 * r:.2f} {x + 0.866 * r:.2f},{y + 0.5 * r:.2f}"
        return f'<polygon points="{pts}" fill="none" stroke="firebrick" stroke-width="2"/>'

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px:.0f}" height="{h_px:.0f}" '
        f'viewBox="0 0 {w_px:.0f} {h_px:.0f}">',
        f'<rect x="{margin}" y="{margin}" width="{width * s:.2f}" height="{height * s:.2f}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
        f'<text x="{margin}" y="{margin - 10:.0f}" font-size="12">'
        f'cell [{p.a:.3g}, {p.a + width:.3g}) x [{p.b:.3g}, {p.b + height:.3g}), '
        f'd={p.d}, lambda={p.lam:g}</text>',
    ]
    for zeros, marker, label_dy in ((zs, circle, -7), (overlay, triangle, 14)):
        for z, m in zip(zeros.positions, zeros.multiplicities) if zeros is not None else ():
            x, y = to_px(z)
            parts.append(marker(x, y))
            if m > 1:
                parts.append(f'<text x="{x + 7:.2f}" y="{y + label_dy:.2f}" font-size="11">x{int(m)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_svg(path, zs: ZeroSet, overlay: ZeroSet | None = None):
    write_atomic(path, zeros_svg(zs, overlay))
