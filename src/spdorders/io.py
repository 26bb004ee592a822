"""File formats shared with the CLI: matrix documents, cone-spec
documents, and CSV exports.  Writers emit 17 significant digits."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cones import ConeSpec
from .core import _is_json_number
from .errors import FileFormatError, InvalidParameters, SpdError


def format17(value: float) -> str:
    return f"{float(value):.17g}"


def matrix_document(mat) -> str:
    """Render a matrix as the shared one-object text document
    {"n": ..., "data": [[...], ...]} with 17 significant digits."""
    a = np.asarray(mat, dtype=float)
    rows = ", ".join("[" + ", ".join(format17(v) for v in row) + "]" for row in a)
    return f'{{"n": {a.shape[0]}, "data": [{rows}]}}\n'


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise FileFormatError("not valid JSON: nested too deeply") from None


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc}") from exc


def write_text_file(path, text: str) -> None:
    """Write an output file; an unwritable path raises SpdError naming it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SpdError(f"cannot write {path}: {exc.strerror or exc}") from exc


def parse_matrix_document(text: str) -> np.ndarray:
    doc = _load_json(text)
    if not isinstance(doc, dict) or "n" not in doc or "data" not in doc:
        raise FileFormatError('matrix document needs fields "n" and "data"')
    n = doc["n"]
    data = doc["data"]
    if not _is_json_number(n, int) or n < 1:
        raise FileFormatError('"n" must be a positive integer')
    if (
        not isinstance(data, list)
        or len(data) != n
        or any(not isinstance(row, list) or len(row) != n for row in data)
    ):
        raise FileFormatError(f'"data" must be an {n}x{n} array of numbers')
    if not all(_is_json_number(v) for row in data for v in row):
        raise FileFormatError("matrix entries must be numbers")
    try:
        return np.array(data, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise FileFormatError(f"matrix entries must be numbers: {exc}") from exc


def read_matrix_file(path) -> np.ndarray:
    """Read a matrix document; a file that cannot be read, is not UTF-8 or
    is not a valid document raises FileFormatError."""
    return parse_matrix_document(_read_text(path))


def write_matrix_file(path, mat) -> None:
    write_text_file(path, matrix_document(mat))


def read_cone_spec_file(path) -> ConeSpec:
    """Read a cone-spec document, with read_matrix_file's errors."""
    doc = _load_json(_read_text(path))
    if not isinstance(doc, dict):
        raise FileFormatError("cone spec document must be an object")
    try:
        return ConeSpec.from_dict(doc)
    except (InvalidParameters, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad cone spec: {exc}") from exc


def write_rows_csv(path, rows, header) -> None:
    """Write an iterable of coordinate rows with a header line."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format17(v) for v in row))
    write_text_file(path, "\n".join(lines) + "\n")


def section_filename(spec: ConeSpec) -> str:
    if spec.mu is not None:
        return f"section_{spec.kind}_{spec.mu:g}.csv"
    return f"section_{spec.kind}.csv"


def leaf_filename(c: float) -> str:
    return f"leaf_{c:g}.csv"
