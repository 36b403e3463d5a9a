"""Artifact serialization: CSV tables, JSON reports, binary trajectories.

Outputs are deterministic byte-for-byte for identical inputs: floats are
written with repr (shortest round-trip), dict keys are sorted, and no
timestamps appear anywhere.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grid import Grid

_MAGIC = b"OWTRAJ01"


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_ledger_csv(path, ledger) -> Path:
    """Energy ledger rows: (t, u_norm_sq, f_norm_sq, bound_rhs, margin)."""
    t = ledger.times
    usq = ledger.u_norm_sq
    bound = ledger.gronwall_bound()
    rows = [(t[i], usq[i], ledger.f_norm_sq[i], bound[i], bound[i] - usq[i])
            for i in range(len(t))]
    return write_csv(path, ("t", "u_norm_sq", "f_norm_sq", "bound_rhs",
                            "margin"), rows)


def write_seminorm_csv(path, rows) -> Path:
    """Semi-norm table rows: (eps, m, j, k, l, value)."""
    return write_csv(path, ("eps", "m", "j", "k", "l", "value"), rows)


def write_check_csv(path, rows) -> Path:
    """Generic check table: (module, check, lhs, rhs, ratio, grid_params)."""
    return write_csv(path, ("module", "check", "lhs", "rhs", "ratio",
                            "grid_params"), rows)


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _records(grid: Grid) -> np.dtype:
    """One snapshot record: float64 t, then the values as <c16, which are
    the interleaved re/im float64 of the format, in row-major node order."""
    return np.dtype([("t", "<f8"), ("u", "<c16", grid.shape)])


def write_trajectory(path, result) -> Path:
    """Flat binary dump of a solve's snapshots (little-endian, 64-bit floats).

    Layout: magic "OWTRAJ01"; uint32 dim; uint32 points per axis; float64
    domain length; float64 dt; uint32 stride; uint32 snapshot count; then per
    snapshot a float64 time followed by interleaved re/im float64 values in
    row-major node order.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    grid, snap_t = result.grid, result.snap_times
    stride = 0
    if len(result.times) > 2 and len(snap_t) > 1:
        stride = int(round((snap_t[1] - snap_t[0]) / result.dt))
    records = np.empty(len(snap_t), dtype=_records(grid))
    records["t"], records["u"] = snap_t, result.states
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIddII", grid.dim, grid.points,
                             grid.length, result.dt, stride, len(snap_t)))
        fh.write(records.tobytes())
    return path


def read_trajectory(path):
    """Inverse of write_trajectory: returns (grid, dt, stride, snap_times,
    states), states of shape (count, *grid.shape)."""
    raw = Path(path).read_bytes()
    if raw[:8] != _MAGIC:
        raise ValueError("not a trajectory file (bad magic)")
    dim, points, length, dt, stride, count = struct.unpack_from("<IIddII", raw, 8)
    grid = Grid(dim, points, length)
    records = np.frombuffer(raw, dtype=_records(grid), count=count,
                            offset=8 + struct.calcsize("<IIddII"))
    return grid, dt, stride, records["t"], records["u"]
