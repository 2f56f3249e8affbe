"""CSV artifact helpers: fixed-format floats, atomic writes, small readers.

Every writer formats floats with %.17g so identical runs produce
byte-identical files, and lands the artifact via write-then-rename so a
crashed run never leaves a half-written CSV behind.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "format_value",
    "write_csv",
    "write_field_csv",
    "read_field_csv",
    "read_series_csv",
]


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write rows atomically; returns the final path.

    rows is an iterable of row sequences, or one 2-D float array, which is
    formatted in blocks of _BLOCK_ROWS rows with one %.17g template per
    block (the same bytes as the row-by-row path, several times faster).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            if isinstance(rows, np.ndarray):
                _write_float_blocks(handle, rows)
            else:
                for row in rows:
                    writer.writerow([format_value(v) for v in row])
        try:
            os.replace(tmp, path)
        except OSError as exc:
            # name the artifact, not the temporary file it was written to
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


_BLOCK_ROWS = 256


def _write_float_blocks(handle, table: np.ndarray) -> None:
    if table.ndim != 2 or table.dtype.kind != "f":
        raise ValueError("an array of rows must be a 2-D float table")
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    for lo in range(0, table.shape[0], _BLOCK_ROWS):
        block = table[lo : lo + _BLOCK_ROWS]
        handle.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def write_field_csv(path: str, eigenvalues: np.ndarray, coeffs: np.ndarray) -> str:
    """Spectral coefficient vector as rows of index,lambda,coefficient."""
    lam = np.asarray(eigenvalues, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if lam.shape != c.shape or lam.ndim != 1:
        raise ValueError("eigenvalues and coefficients must be equal-length 1-d")
    rows = ((i + 1, lam[i], c[i]) for i in range(lam.size))
    return write_csv(path, ["index", "lambda", "coefficient"], rows)


def read_field_csv(path: str, n_modes: int) -> np.ndarray:
    """Coefficients from an index,lambda,coefficient file, padded to n_modes.

    Indices are 1-based and must be unique; entries beyond n_modes are an
    error rather than a silent truncation.
    """
    coeffs = np.zeros(n_modes)
    seen = set()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}:{line_no}: expected 3 columns")
            try:
                idx, value = int(row[0]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            if idx < 1 or idx > n_modes:
                raise ValueError(
                    f"{path}:{line_no}: index {idx} outside 1..{n_modes}"
                )
            if idx in seen:
                raise ValueError(f"{path}:{line_no}: duplicate index {idx}")
            seen.add(idx)
            coeffs[idx - 1] = value
    return coeffs


def read_series_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Two-column time series (t, value) of finite numbers; t must be
    strictly increasing."""
    ts, vs = [], []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{line_no}: expected 2 columns")
            try:
                time, value = float(row[0]), float(row[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
            if not (math.isfinite(time) and math.isfinite(value)):
                raise ValueError(f"{path}:{line_no}: t and value must be finite")
            ts.append(time)
            vs.append(value)
    if not ts:
        raise ValueError(f"{path}: no data rows")
    t = np.array(ts)
    if np.any(np.diff(t) <= 0.0):
        raise ValueError(f"{path}: time column must be strictly increasing")
    return t, np.array(vs)
