"""Problem ingestion, instance generators, and suite orchestration.

Problems travel as JSON files with matrices stored as row-major nested
arrays of decimal strings (17 significant digits), which keeps the format
human-diffable and bit-stable across platforms.  The ``run`` entry point
dispatches a validated problem to the appropriate pipeline and aggregates
a machine-readable report with one boolean per enabled check.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from json.decoder import WHITESPACE
from typing import Any, Callable

import numpy as np

from .errors import (
    EnumerationBoundError,
    FormrepError,
    HypothesisRefusedError,
    InternalCheckError,
    SingularMatrixError,
    SpecFormatError,
)
from .general import (
    RepresentationResult,
    _clamped_weight,
    _gap_margin,
    associate_general,
    check_gap_hypothesis,
)
from .involution import enumerate_diagonal_involutions, make_involution
from .offdiag import _kernel_report, assemble_offdiag, direct_coefficient, offdiag_problem
from .spectral import _gram_norm, _in_frame, _sign, random_orthogonal, symmetrize
from .stability import _stability

_KINDS = ("general", "offdiag", "family")
_REQUIRED_MATRICES = {"general": ("A", "H", "J"), "offdiag": ("A_plus", "A_minus", "T")}
_SQUARE_SYMMETRIC = {"A", "H", "J", "A_plus", "A_minus"}
#: Rows of a matrix per ``%`` in ``save_spec``: no string it builds spans more rows.
_WRITE_BLOCK = 256

#: Largest size ``gen_counterexample`` materializes.
MAX_FAMILY_SIZE = 64
#: Largest family size a family run admits to the exhaustive involution sweep.
MAX_FAMILY_INDEX = 6
#: Largest matrix dimension a generator draws or a problem file may hold.
MAX_RANDOM_DIM = 2048

#: Largest entry magnitude in a problem file: products of two entries stay finite.
MAX_ENTRY = 1e150
#: What ``float()`` raises on a decoded JSON value it cannot convert.
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)
_SCAN = json.JSONDecoder().scan_once
#: Characters of a problem file read at a time: loading holds one window of the file's text.
_CHUNK = 1 << 20


@dataclass
class ProblemSpec:
    """Validated problem description, ready for ``run``."""

    kind: str
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    family_name: str | None = None
    sizes: list[int] | None = None
    seed: int = 0
    force: bool = False
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def tol_scale(self) -> float:
        return float(self.tolerances.get("tol_scale", 1.0))


@dataclass
class Report:
    """Aggregated run outcome; ``exit_code`` follows the 0/1/2 contract."""

    kind: str
    spec_echo: dict[str, Any]
    checks: dict[str, bool]
    certificate: dict[str, Any] | None = None
    representation: dict[str, Any] | None = None
    kernel: dict[str, Any] | None = None
    stability: dict[str, Any] | None = None
    family: dict[str, Any] | None = None
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_dict(self) -> dict[str, Any]:
        return {**asdict(self), "passed": self.passed, "exit_code": self.exit_code}


def _real(spec: ProblemSpec) -> ProblemSpec:
    for name, mat in sorted(spec.matrices.items()):
        if np.iscomplexobj(mat):
            raise SpecFormatError(f"matrix {name} is complex: problem files hold real entries")
        if 0 in np.shape(mat):
            raise SpecFormatError(f"matrix {name} is empty: problem files hold non-empty matrices")
    return spec


class _Stack(np.ndarray):
    """A matrix that ``load_spec`` stacked from float64 rows of one nonzero width."""


def _strings_to_matrix(rows: Any, name: str) -> np.ndarray:
    """A matrix from its rows, lists read by ``float()`` or float arrays, or from a ``_Stack``."""
    stacked = isinstance(rows, _Stack)
    if not stacked and not (
        isinstance(rows, list) and rows and all(isinstance(r, (list, np.ndarray)) for r in rows)
    ):
        raise SpecFormatError(f"matrix {name} must be a non-empty list of rows")
    width = len(rows[0])
    if max(len(rows), width) > MAX_RANDOM_DIM:
        raise SpecFormatError(
            f"matrix {name} is {len(rows)} x {width}, above the dimension cap {MAX_RANDOM_DIM}"
        )
    if not stacked and (width == 0 or any(len(r) != width for r in rows)):
        raise SpecFormatError(f"matrix {name} has ragged or empty rows")
    if not stacked and any(bool in map(type, r) for r in rows if isinstance(r, list)):
        raise SpecFormatError(f"matrix {name} has a non-numeric entry: true or false")
    try:
        data = np.asarray(rows) if stacked else np.array(
            [r if isinstance(r, np.ndarray) else list(map(float, r)) for r in rows]
        )
    except _NOT_A_FLOAT as exc:
        raise SpecFormatError(f"matrix {name} has a non-numeric entry: {exc}") from exc
    if not np.isfinite(data).all():
        raise SpecFormatError(f"matrix {name} contains NaN or Inf")
    if np.max(np.abs(data)) > MAX_ENTRY:
        raise SpecFormatError(f"matrix {name} has an entry of magnitude above {MAX_ENTRY:g}")
    return data


def _float_row(text: str, start: int) -> tuple[Any, int]:
    """The row at ``start``, as float64 if it is a list whose entries all convert.  A row whose
    text holds a ``u`` or an ``l`` (one memchr each), as ``true`` and ``false`` do and no number
    does, is left for ``_strings_to_matrix`` to refuse: ``float()`` would read a bool as 1 or 0."""
    row, end = _SCAN(text, start)
    if text.find("u", start, end) >= 0 or text.find("l", start, end) >= 0:
        return row, end
    try:
        return (np.array(list(map(float, row))) if isinstance(row, list) else row), end
    except _NOT_A_FLOAT:
        return row, end


class _Window:
    """The text of an open file that is not yet consumed, read ``_CHUNK`` characters at a time.
    A value is scanned again after a refill while its scan fails or ends within two characters
    of the window's end (a number cut as ``1.``, ``1e`` or ``1e+`` scans as ``1``)."""

    def __init__(self, handle: Any) -> None:
        self.handle, self.text, self.at, self.eof = handle, "", 0, False

    def refill(self) -> None:
        """Drop the consumed text and read at least as much as is left, so the window at least
        doubles on each rescan: a value spanning k windows costs O(k) rescans."""
        rest = self.text[self.at :]
        more = self.handle.read(max(_CHUNK, len(rest)))
        self.text, self.at, self.eof = rest + more, 0, not more

    def skip(self) -> str:
        """Consume whitespace; the next character, or ``""`` at the end of the file."""
        while True:
            self.at = WHITESPACE.match(self.text, self.at).end()
            if self.at < len(self.text) or self.eof:
                return self.text[self.at : self.at + 1]
            self.refill()

    def expect(self, chars: str) -> str:
        """Consume whitespace and then one of ``chars``, which is returned."""
        char = self.skip()
        if not char or char not in chars:
            raise json.JSONDecodeError(f"Expecting one of {chars!r}", self.text, self.at)
        self.at += 1
        return char

    def scan(self, scan: Callable[[str, int], tuple[Any, int]] = _SCAN) -> Any:
        """The value after any whitespace, read by ``scan``."""
        self.skip()
        while True:
            try:
                value, end = scan(self.text, self.at)
                if end < len(self.text) - 2 or self.eof:
                    self.at = end
                    return value
            except (StopIteration, ValueError):
                if self.eof:
                    raise
            self.refill()


def _items(window: _Window, close: str, read: Callable[[], Any]) -> list[Any]:
    """``read()`` for each element of the array or object whose opening is at the cursor."""
    window.at += 1
    items = [] if window.skip() == close else [read()]
    while window.expect("," + close) == ",":
        items.append(read())
    return items


def _value(window: _Window, level: int = 0) -> Any:
    """The value at the cursor.  The file's object (level 0), its ``"matrices"`` object (1)
    and each matrix (2) are walked here, each row read by ``_float_row``; json's scanner reads
    every other value, so a malformed file fails where ``json.loads`` would.  A matrix whose
    rows all convert to one nonzero width is stacked when it closes; any other stays rows."""
    char = window.skip()
    if char == "{" and level < 2:
        return dict(_items(window, "}", lambda: _pair(window, level)))
    if char != "[" or level != 2:
        return window.scan()
    rows = _items(window, "]", lambda: window.scan(_float_row))
    widths = {len(r) if isinstance(r, np.ndarray) else -1 for r in rows}
    return np.array(rows).view(_Stack) if len(widths) == 1 and min(widths) > 0 else rows


def _pair(window: _Window, level: int) -> tuple[str, Any]:
    if window.skip() != '"':
        raise json.JSONDecodeError("Expecting property name", window.text, window.at)
    key = window.scan()
    window.expect(":")
    # Level 3: the value of any other top-level key is read by the scanner.
    return key, _value(window, level + 1 if level or key == "matrices" else 3)


def _matrix_digest(arr: np.ndarray) -> dict[str, Any]:
    """Shape and SHA-256 of the float64 (complex128 if complex) C-order bytes."""
    data = np.ascontiguousarray(arr, np.complex128 if np.iscomplexobj(arr) else np.float64)
    return {"shape": list(data.shape), "sha256": hashlib.sha256(data).hexdigest()}


def _spec_dict(spec: ProblemSpec, encode: Callable[[np.ndarray], Any]) -> dict[str, Any]:
    out: dict[str, Any] = {
        "kind": spec.kind,
        "seed": int(spec.seed),
        "force": bool(spec.force),
        "tolerances": {k: float(v) for k, v in sorted(spec.tolerances.items())},
        "matrices": {name: encode(mat) for name, mat in sorted(spec.matrices.items())},
    }
    if spec.kind == "family":
        out["family"] = {"name": spec.family_name, "sizes": list(spec.sizes or [])}
    return out


def spec_to_dict(spec: ProblemSpec) -> dict[str, Any]:
    return _spec_dict(
        _real(spec), lambda m: [["%.17g" % v for v in row] for row in np.atleast_2d(m).tolist()]
    )


def _tolerance(name: str, value: Any) -> float:
    """A tolerance must be a finite number above zero."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and 0 < value <= sys.float_info.max):
        raise SpecFormatError(f"tolerance {name} must be a finite number > 0, got {value!r}")
    return float(value)


def spec_from_dict(raw: dict[str, Any]) -> ProblemSpec:
    if not isinstance(raw, dict):
        raise SpecFormatError("problem spec must be a JSON object")
    kind = raw.get("kind")
    if kind not in _KINDS:
        raise SpecFormatError(f"unknown kind {kind!r}; expected one of {_KINDS}")
    seed = raw.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise SpecFormatError(f"seed must be a nonnegative integer, got {seed!r}")
    force = raw.get("force", False)
    if not isinstance(force, bool):
        raise SpecFormatError(f"force must be true or false, got {force!r}")
    tolerances_raw = raw.get("tolerances", {}) or {}
    if not isinstance(tolerances_raw, dict):
        raise SpecFormatError("tolerances must be an object of name -> number")
    unknown = sorted(set(map(str, tolerances_raw)) - {"tol_scale"})
    if unknown:
        raise SpecFormatError(f"unknown tolerance {', '.join(unknown)}; the only one is tol_scale")
    tolerances = {str(k): _tolerance(str(k), v) for k, v in tolerances_raw.items()}

    matrices_raw = raw.get("matrices", {}) or {}
    if not isinstance(matrices_raw, dict):
        raise SpecFormatError("matrices must be an object of name -> rows")

    family_name = None
    sizes = None
    if kind == "family":
        fam = raw.get("family")
        if not isinstance(fam, dict) or "name" not in fam or "sizes" not in fam:
            raise SpecFormatError("kind family requires a family object with name and sizes")
        family_name = str(fam["name"])
        sizes = fam["sizes"]
        if not isinstance(sizes, list) or not sizes or not all(
            type(s) is int and s >= 1 for s in sizes
        ):
            raise SpecFormatError("family sizes must be a non-empty list of positive integers")
        if matrices_raw:
            raise SpecFormatError("kind family carries no matrices")
        matrices: dict[str, np.ndarray] = {}
    else:
        required = _REQUIRED_MATRICES[kind]
        for name in required:
            if name not in matrices_raw:
                raise SpecFormatError(f"field {name} required for kind {kind}")
        unexpected = sorted(set(matrices_raw) - set(required))
        if unexpected:
            raise SpecFormatError(
                f"unexpected matrices for kind {kind}: {', '.join(unexpected)}"
            )
        matrices = {
            name: _strings_to_matrix(matrices_raw[name], name) for name in required
        }
        _validate_dimensions(kind, matrices)

    return ProblemSpec(
        kind=kind,
        matrices=matrices,
        family_name=family_name,
        sizes=sizes,
        seed=seed,
        force=force,
        tolerances=tolerances,
    )


def _validate_dimensions(kind: str, matrices: dict[str, np.ndarray]) -> None:
    for name, mat in matrices.items():
        if name in _SQUARE_SYMMETRIC and mat.shape[0] != mat.shape[1]:
            raise SpecFormatError(f"matrix {name} must be square, got {mat.shape}")
    if kind == "general":
        dims = {name: matrices[name].shape[0] for name in ("A", "H", "J")}
        if len(set(dims.values())) != 1:
            raise SpecFormatError(f"dimension mismatch among A, H, J: {dims}")
    elif kind == "offdiag":
        p = matrices["A_plus"].shape[0]
        q = matrices["A_minus"].shape[0]
        if matrices["T"].shape != (p, q):
            raise SpecFormatError(
                f"T must be {p} x {q} to match A_plus and A_minus, got {matrices['T'].shape}"
            )


def load_spec(path: str) -> ProblemSpec:
    """Load and validate a problem-spec JSON file, read through a ``_Window``.  A file the
    walk refuses is decoded whole, so its refusal is json's own message and an undecodable
    byte is reported at its place in the file; a pipe, which cannot be read twice, is read
    whole first."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            window = _Window(handle if handle.seekable() else io.StringIO(handle.read()))
            try:
                raw = _value(window)
                if window.skip():
                    raise json.JSONDecodeError("Extra data", window.text, window.at)
            except (StopIteration, ValueError, RecursionError):
                window.handle.seek(0)
                json.loads(window.handle.read())
                raise
    except FileNotFoundError as exc:
        raise SpecFormatError(f"spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SpecFormatError(f"parse error in {path}: nesting too deep") from exc
    return spec_from_dict(raw)


def save_spec(spec: ProblemSpec, path: str) -> None:
    """Write ``json.dump(spec_to_dict(spec), indent=2, sort_keys=True)`` and a newline: json
    renders the rest with ``{}`` for each matrix (no other value at that depth is an object),
    and each matrix is formatted in its place, one ``%`` per ``_WRITE_BLOCK`` rows."""
    rest = json.dumps(_spec_dict(_real(spec), lambda _: {}), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        for name, mat in sorted(spec.matrices.items()):
            key, mat = f"\n    {json.dumps(name)}: ", np.atleast_2d(mat)
            before, _, rest = rest.partition(key + "{}")
            row = "\n      [" + ",".join(['\n        "%.17g"'] * mat.shape[1]) + "\n      ]"
            handle.write(before + key + "[")
            for start in range(0, len(mat), _WRITE_BLOCK):
                rows = mat[start : start + _WRITE_BLOCK]
                text = ",".join([row] * len(rows)) % tuple(rows.ravel().tolist())
                handle.write("," + text if start else text)
            handle.write("\n    ]")
        handle.write(rest + "\n")


# ----------------------------------------------------------------------
# Instance generators
# ----------------------------------------------------------------------


def counterexample_pair(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Weight/coefficient truncation with blocks ``diag(k+1, 1/(k+1))`` and swaps.

    The weight mixes arbitrarily large and arbitrarily small spectral parts
    while the coefficient swaps them, so the associated matrix stays
    bounded (norm 1) while the weight condition number grows like
    ``(size+1)^2`` and no diagonal splitting ever certifies a gap.
    """
    if size < 1:
        raise FormrepError(f"family size must be >= 1, got {size}")
    n = 2 * size
    weight = np.zeros((n, n))
    coeff = np.zeros((n, n))
    for k in range(1, size + 1):
        i = 2 * (k - 1)
        weight[i, i] = k + 1.0
        weight[i + 1, i + 1] = 1.0 / (k + 1.0)
        coeff[i, i + 1] = 1.0
        coeff[i + 1, i] = 1.0
    return weight, coeff


def gen_counterexample(size: int) -> ProblemSpec:
    """Materialized single-truncation problem for the swap family.

    The splitting candidate ``diag(1, -1, ...)`` is included so the forced
    construction has a reference involution; the gap check is expected to
    refuse it, which is why ``force`` is set.
    """
    if not 1 <= size <= MAX_FAMILY_SIZE:
        raise FormrepError(
            f"family size must be between 1 and {MAX_FAMILY_SIZE}, got {size}"
        )
    weight, coeff = counterexample_pair(size)
    splitting = np.diag(np.array([1.0, -1.0] * size))
    return ProblemSpec(
        kind="general",
        matrices={"A": weight, "H": coeff, "J": splitting},
        seed=0,
        force=True,
    )


def gen_constant(size: int) -> ProblemSpec:
    """Flat reference truncation: ``A = I`` and ``H = J = diag(1, -1, ...)``, of dimension
    ``2 size``.  Its own splitting certifies the gap; ``force`` is set as for the swap family."""
    if size < 1:
        raise FormrepError(f"family size must be >= 1, got {size}")
    signs = np.array([1.0, -1.0] * size)
    return ProblemSpec(
        kind="general",
        matrices={"A": np.eye(2 * size), "H": np.diag(signs), "J": np.diag(signs)},
        force=True,
    )


#: Truncation families by name: each maps a size to the general problem of that truncation.
FAMILIES: dict[str, Callable[[int], ProblemSpec]] = {
    "counterexample": gen_counterexample,
    "constant": gen_constant,
}


def _random_psd(
    n: int, rng: np.random.Generator, low: float = 0.3, high: float = 3.0, kernel_dim: int = 0
) -> np.ndarray:
    """``Q diag(0, ..., 0, u) Q*``: a random frame ``Q``, ``kernel_dim`` zeros, ``u`` uniform."""
    if not 0 <= kernel_dim <= n:
        raise FormrepError(f"kernel dimension {kernel_dim} must lie in [0, block size {n}]")
    frame = random_orthogonal(n, rng)
    vals = np.concatenate([np.zeros(kernel_dim), rng.uniform(low, high, n - kernel_dim)])
    return (frame * vals) @ frame.T


def gen_random(
    kind: str,
    n: int | tuple[int, int],
    seed: int,
    alpha_target: float = 0.5,
    kernel_dims: tuple[int, int] = (1, 1),
) -> ProblemSpec:
    """Seeded random instance generator.

    ``general`` draws a weight and splitting with a shared eigenbasis (so
    they commute exactly), a coefficient whose blocks clear the
    ``alpha_target`` margin on both sides plus a bounded coupling; the gap
    condition is satisfied by construction.  ``offdiag`` draws PSD blocks
    with prescribed kernel dimensions and a coupling whose support pattern
    cycles with the seed (generic, kernel-avoiding, one-sided).
    """
    rng = np.random.default_rng(seed)
    if kind == "general":
        if not isinstance(n, int) or not 2 <= n <= MAX_RANDOM_DIM:
            raise FormrepError(f"general instances need 2 <= n <= {MAX_RANDOM_DIM}")
        if not 0.0 < alpha_target <= 1.0:
            raise FormrepError(f"alpha_target must lie in (0, 1], got {alpha_target}")
        dim_plus = int(rng.integers(1, n))
        dim_minus = n - dim_plus
        frame = random_orthogonal(n, rng)
        signs = np.concatenate([np.ones(dim_plus), -np.ones(dim_minus)])
        splitting = (frame * signs) @ frame.T
        weight_vals = np.where(
            rng.uniform(size=n) < 0.25, 0.0, rng.uniform(0.1, 5.0, size=n)
        )
        weight = (frame * weight_vals) @ frame.T
        plus_block = _random_psd(dim_plus, rng, alpha_target, alpha_target + 2.5)
        minus_block = -_random_psd(dim_minus, rng, alpha_target, alpha_target + 2.5)
        coupling = rng.standard_normal((dim_plus, dim_minus))
        coupling *= rng.uniform(0.2, 2.0) / max(np.linalg.norm(coupling, 2), 1e-12)
        blocks = np.zeros((n, n))
        blocks[:dim_plus, :dim_plus] = plus_block
        blocks[dim_plus:, dim_plus:] = minus_block
        blocks[:dim_plus, dim_plus:] = coupling
        blocks[dim_plus:, :dim_plus] = coupling.T
        coeff = frame @ blocks @ frame.T
        return ProblemSpec(
            kind="general",
            matrices={
                "A": (weight + weight.T) / 2.0,
                "H": (coeff + coeff.T) / 2.0,
                "J": (splitting + splitting.T) / 2.0,
            },
            seed=seed,
        )
    if kind == "offdiag":
        if not (isinstance(n, tuple) and len(n) == 2):
            raise FormrepError("offdiag instances need n = (dim_plus, dim_minus)")
        dim_plus, dim_minus = int(n[0]), int(n[1])
        if not (1 <= dim_plus <= MAX_RANDOM_DIM and 1 <= dim_minus <= MAX_RANDOM_DIM):
            raise FormrepError(f"offdiag block sizes must be in [1, {MAX_RANDOM_DIM}]")
        ker_plus, ker_minus = int(kernel_dims[0]), int(kernel_dims[1])
        block_plus = _random_psd(dim_plus, rng, kernel_dim=ker_plus)
        block_minus = _random_psd(dim_minus, rng, kernel_dim=ker_minus)
        coupling = rng.standard_normal((dim_plus, dim_minus))
        coupling *= rng.uniform(0.3, 1.5) / max(np.linalg.norm(coupling, 2), 1e-12)
        mode = seed % 3
        if mode in (1, 2):
            # Restrict the coupling range so it annihilates the plus kernel.
            vals, vecs = np.linalg.eigh(block_plus)
            ran_plus = vecs[:, vals > 1e-8]
            coupling = ran_plus @ (ran_plus.T @ coupling)
        if mode == 1:
            # Also kill the coupling on the minus kernel.
            vals, vecs = np.linalg.eigh(block_minus)
            ran_minus = vecs[:, vals > 1e-8]
            coupling = (coupling @ ran_minus) @ ran_minus.T
        return ProblemSpec(
            kind="offdiag",
            matrices={
                "A_plus": (block_plus + block_plus.T) / 2.0,
                "A_minus": (block_minus + block_minus.T) / 2.0,
                "T": coupling,
            },
            seed=seed,
        )
    raise FormrepError(f"gen_random supports kinds general and offdiag, got {kind!r}")


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------


def _check_residuals_finite(report: Report) -> None:
    try:
        json.dumps(asdict(report), allow_nan=False)
    except ValueError as exc:
        raise InternalCheckError("report contains a non-finite number") from exc


def _represented(
    owned: list[RepresentationResult], tol: float, checks: dict[str, bool], **numbers: Any
) -> dict[str, Any]:
    """Report sections of the result that ``owned`` holds, which it empties: its residual checks,
    the pipeline's ``checks``, then the suite's, which gets and frees the result's arrays."""
    result = owned.pop()
    sections = {
        "checks": {
            "first_rep_residual": result.first_rep_residual <= 1e-10 * tol,
            "second_rep_residual": result.second_rep_residual <= 1e-10 * tol,
            **checks,
        },
        "representation": {
            "first_rep_residual": result.first_rep_residual,
            "second_rep_residual": result.second_rep_residual,
            "gap_radius": result.gap_radius,
            "operator_norm": result.decomposition.source_norm,
            **numbers,
        },
    }
    owned = [result.weight, result.operator, result.decomposition]
    del result
    stab = _stability(owned, 1)
    sections["checks"]["stability_conditions_agree"] = all(stab.conditions.values())
    return {**sections, "stability": asdict(stab)}


def _run_general(spec: ProblemSpec) -> dict[str, Any]:
    tol, mats = spec.tol_scale, spec.matrices
    owned = [make_involution(mats.pop("J"))]  # passed on with A and H; only J itself is kept
    splitting = owned[0].matrix
    try:
        result = associate_general(mats.pop("A"), mats.pop("H"), owned.pop(), spec.force, spec.seed)
    except HypothesisRefusedError as exc:
        return {
            "checks": {"hypothesis_certified": False},
            "certificate": asdict(exc.certificate),
            "representation": {"refusal": str(exc)},
        }
    cert, owned, n = result.certificate, [result], result.decomposition.n
    checks: dict[str, bool] = {}
    margin = _gap_margin(result, splitting)
    if cert.satisfied:
        checks["gap_margin"] = margin >= -1e-8 * tol
        checks["gap_radius_above_alpha"] = result.gap_radius >= cert.alpha_star - 1e-8 * tol
    del splitting, result  # the suite sets the run's peak: drop the matrices nothing reads again
    sections = _represented(owned, tol, checks, certified=cert.satisfied, gap_margin=margin)
    gap, norm = sections["stability"]["shifted_gap"], sections["representation"]["operator_norm"]
    sections["checks"]["shifted_unit_gap"] = not _sign(gap - 1.0, n, 1.0 + norm, scale=2 * tol) < 0
    return {**sections, "certificate": asdict(cert)}


def _run_offdiag(spec: ProblemSpec) -> dict[str, Any]:
    tol, mats = spec.tol_scale, spec.matrices
    problem = offdiag_problem(mats.pop("A_plus"), mats.pop("A_minus"), mats.pop("T"))
    try:  # C is checked, and freed, before B is assembled
        direct_coefficient(problem)
        direct = True
    except InternalCheckError:
        direct = False
    result = assemble_offdiag(problem, probe_seed=spec.seed)
    checks = {"shifted_gap_at_least_one": result.gap_radius >= 1.0 - 1e-10 * tol}
    checks["direct_coefficient_identity"] = direct
    kernel = _kernel_report(problem, result.decomposition)
    checks["kernel_dims_match"] = kernel.dims_match
    checks["kernel_principal_angle"] = kernel.principal_angle <= 1e-8 * tol
    coupling_norm, owned = problem.coupling_norm, [result]
    del problem, result  # the suite sets the run's peak: drop the matrices nothing reads again
    return {
        **_represented(owned, tol, checks, coupling_norm=coupling_norm),
        "kernel": {
            "theorem_dim": kernel.theorem_kernel.dim,
            "oracle_dim": kernel.oracle_kernel.dim,
            "ker_plus_dim": kernel.ker_diag_plus.dim,
            "ker_minus_dim": kernel.ker_diag_minus.dim,
            "annihilator_plus_dim": kernel.annihilator_plus.dim,
            "annihilator_minus_dim": kernel.annihilator_minus.dim,
            "principal_angle": kernel.principal_angle,
        },
    }


def _family_size(size: int, spec: ProblemSpec) -> tuple[bool, dict[str, float]]:
    """Whether a diagonal splitting certifies the gap of the family's truncation ``spec`` of
    ``size``, and its norms.  The weight condition and the proxy for coefficient-preserves-domain,
    ``||(A+I)^(1/2) H (A+I)^(-1/2)||``, come from the clamped weight; the operator and suite
    norms from the run of ``spec``."""
    mats = spec.matrices
    sym_h = symmetrize(mats["H"], "family coefficient")
    weight = _clamped_weight(symmetrize(mats["A"], "family weight"))
    if weight.eigenvalues[0] <= 0.0:
        raise SingularMatrixError(f"family weight at size {size} is singular")
    certified = False
    for inv in enumerate_diagonal_involutions(weight.n):
        try:
            certified = check_gap_hypothesis(mats["A"], mats["H"], inv).satisfied
        except FormrepError:
            continue
        if certified:
            break
    grow = np.sqrt(1.0 + weight.eigenvalues)
    conj_norm = _gram_norm(grow[:, None] * _in_frame(weight, sym_h) / grow)
    sections = _run_general(spec)
    stab = sections["stability"]
    return certified, {
        "operator": sections["representation"]["operator_norm"],
        "weight_condition": weight.source_norm / float(weight.eigenvalues[0]),
        "weighted_abs": stab["norm_weighted_abs"],
        "weighted_abs_inverse": stab["norm_weighted_abs_inverse"],
        "sign_conjugate": stab["norm_sign_conjugate"],
        "coefficient_conjugate": conj_norm,
    }


def _run_family(spec: ProblemSpec) -> dict[str, Any]:
    """Run each truncation of the family through the general pipeline; sizes are checked
    against ``MAX_FAMILY_INDEX``, the bound of the exhaustive sweep, before any is run."""
    if spec.family_name not in FAMILIES:
        raise SpecFormatError(
            f"unknown family {spec.family_name!r}; known: {sorted(FAMILIES)}"
        )
    if not spec.sizes:
        raise SpecFormatError("family runs need a non-empty list of sizes")
    sizes = list(spec.sizes)
    for size in sizes:
        if size > MAX_FAMILY_INDEX:
            raise EnumerationBoundError(
                f"family index {size} exceeds the exhaustive-sweep bound {MAX_FAMILY_INDEX}"
            )
        if size < 1:
            raise FormrepError(f"family index must be >= 1, got {size}")
    tol, generator = spec.tol_scale, FAMILIES[spec.family_name]
    rows = [_family_size(size, generator(size)) for size in sizes]
    outcomes = [certified for certified, _ in rows]
    sequences = {key: [float(norms[key]) for _, norms in rows] for key in rows[0][1]}
    checks: dict[str, bool] = {}
    if spec.family_name == "counterexample":
        # The family is defined by gap-search failure: failing is the PASS.
        checks["gap_search_fails_every_size"] = not any(outcomes)
        checks["operator_norm_is_one"] = all(
            abs(v - 1.0) <= 1e-12 * tol for v in sequences["operator"]
        )
        checks["weight_condition_quadratic"] = all(
            abs(cond - (size + 1) ** 2) <= 1e-10 * tol * (size + 1) ** 2
            for size, cond in zip(sizes, sequences["weight_condition"])
        )
    elif spec.family_name == "constant":
        checks["gap_search_succeeds_every_size"] = all(outcomes)
    return {
        "checks": checks,
        "family": {
            "name": spec.family_name,
            "truncation_sizes": sizes,
            "norm_sequences": sequences,
            "gap_search_outcomes": outcomes,
        },
    }


def run(spec: ProblemSpec) -> Report:
    """Dispatch a problem to its pipeline and aggregate the report.

    Each pipeline returns the report sections it fills; the report's kind, spec echo,
    finiteness check and wall time are added here.  The pipeline pops each matrix from a copy
    of the spec's dict at its last read, which frees it if the caller kept no reference.
    Check failures are encoded in the report (exit code 1); malformed or mathematically
    inadmissible inputs raise library errors that callers map to exit code 2.
    """
    pipelines = {"general": _run_general, "offdiag": _run_offdiag, "family": _run_family}
    if spec.kind not in pipelines:
        raise SpecFormatError(f"unknown kind {spec.kind!r}")
    start = time.perf_counter()
    kind, spec_echo = spec.kind, _spec_dict(spec, _matrix_digest)
    spec = replace(spec, matrices=dict(spec.matrices))  # popped at each matrix's last read
    sections = pipelines[kind](spec)
    report = Report(kind=kind, spec_echo=spec_echo, **sections)
    _check_residuals_finite(report)
    report.wall_time_s = time.perf_counter() - start
    return report
