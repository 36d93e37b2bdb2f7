"""Admissible boundary fields and convex bodies on the cap grid.

A field is *admissible* here when it satisfies the Robin condition
df/drho = cot(theta) f on the boundary circle; it is the support function of a
convex body when additionally Hess(f) + f*metric is positive definite.  A
body (CapillaryBody) is a CapillaryField that certify or random_body accepted,
carrying its provenance; it goes wherever a field goes.  certify returns the
body or raises a ValueError naming every gate the field failed, and a body on
the same grid passes through it unchanged.  The module provides the canonical
fields (the unit cap ell, horizontal linear functions), a seeded random body
generator, certification and a bit-exact JSON round trip.  ell(grid) is one
body per grid: its values and tensor are certified once per live grid.
"""

from __future__ import annotations

import io
import json
import re
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ._floattext import float_lines, read_floats
from .capgrid import ROBIN_GATE, CapGrid, ShapeTensor, a_of, robin_residual, tensor_eigenvalues

# A support function certifies as convex when the smallest eigenvalue of its
# shape tensor clears this floor (relative to max(1, sup|h|)); the floor only
# absorbs finite-difference noise on exact degenerate cases such as linear
# functions, whose shape tensor vanishes identically.
EIG_GATE = 1e-6


@dataclass
class CapillaryField:
    """Scalar field on the cap satisfying the contact-angle Robin condition.

    robin_max, the largest boundary Robin residual, and scale, max(1, sup|h|)
    which every gate on the field is relative to, are computed from the values
    on construction, the shape tensor on first read; values must not be mutated.
    """

    grid: CapGrid
    values: np.ndarray
    robin_max: float = field(init=False)
    scale: float = field(init=False)
    # Not a cached property: its class-wide lock would queue threads on each
    # other's tensors.  Two threads racing on one field write the same bytes.
    _tensor: ShapeTensor | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = self.grid.check_field(self.values)
        self.robin_max = float(np.max(np.abs(robin_residual(self.grid, self.values))))
        self.scale = max(1.0, float(np.max(np.abs(self.values))))

    @property
    def robin_gate(self) -> float:
        """Largest admissible robin_max: capgrid.ROBIN_GATE times scale."""
        return ROBIN_GATE * self.scale

    @property
    def tensor(self) -> ShapeTensor:
        """Shape tensor Hess(f) + f * metric: node-shaped planes rr, rp, pp."""
        if self._tensor is None:
            self._tensor = a_of(self.grid, self.values)
        return self._tensor

    @property
    def min_eig(self) -> float:
        """Smallest eigenvalue of the shape tensor over all nodes."""
        return float(np.min(tensor_eigenvalues(self.tensor)[0]))


@dataclass
class CapillaryBody(CapillaryField):
    """Convex body with prescribed contact angle: its support function, as a
    field that certify or random_body accepted, and where it came from."""

    provenance: dict[str, Any] | None = None


def as_field(grid: CapGrid, obj) -> CapillaryField:
    """A field (a body included) on grid as it is; anything else wrapped anew."""
    if isinstance(obj, CapillaryField):
        if obj.grid is grid:
            return obj
        obj = obj.values
    return CapillaryField(grid, obj)


def ell_values(grid: CapGrid) -> np.ndarray:
    """Support function of the unit cap: 1 - cos(theta) cos(rho)."""
    return np.repeat(_ell_column(grid), grid.n_phi, axis=1)


def _ell_column(grid: CapGrid) -> np.ndarray:
    """ell_values on one meridian, shaped (n_rho+1, 1); it broadcasts to the
    same products as the full array, without holding a full-grid copy."""
    return (1.0 - grid.cos_theta * grid.cos_rho)[:, None]


# Read-only arrays that depend on the grid alone, per live grid: a dict keyed
# by (builder, arguments), each entry built on first use, never with the grid.
# The lock makes threads racing on a fresh grid build each entry once; it is
# re-entrant because one builder may read another's entry.
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_TABLES_LOCK = threading.RLock()


def _table(grid: CapGrid, build, *args):
    """build(grid, *args) with its arrays made read-only, once per live grid."""
    key = (build, *args)
    with _TABLES_LOCK:
        tables = _TABLES.setdefault(grid, {})
        entry = tables.get(key)
        if entry is None:
            entry = build(grid, *args)
            for array in entry if isinstance(entry, tuple) else (entry,):
                array.flags.writeable = False
            tables[key] = entry
    return entry


def certify(grid: CapGrid, values, provenance: dict | None = None) -> CapillaryBody:
    """The body with support function values, or ValueError naming every gate failed.

    The Robin gate is relative to the sup norm (see capgrid.ROBIN_GATE); the
    convexity gate requires min_eig > EIG_GATE * max(1, sup|h|).  A field of
    the wrong shape or with NaN or inf entries fails first, in check_field.
    A body on grid is returned as it is; a field on grid passes its shape
    tensor on to the body.
    """
    if isinstance(values, CapillaryBody) and values.grid is grid:
        return values
    tensor = None
    if isinstance(values, CapillaryField):
        tensor = values._tensor if values.grid is grid else None
        values = values.values
    body = CapillaryBody(grid, values, provenance)
    body._tensor = tensor
    reasons = []
    if body.robin_max > body.robin_gate:
        reasons.append(
            f"robin residual {body.robin_max:.3e} exceeds gate {body.robin_gate:.3e}"
        )
    meig = body.min_eig
    if meig <= EIG_GATE * body.scale:
        reasons.append(f"min shape-tensor eigenvalue {meig:.3e} not positive")
    if reasons:
        raise ValueError("certification failed: " + "; ".join(reasons))
    return body


def ell(grid: CapGrid) -> CapillaryBody:
    """The grid's unit cap, certified once per live grid: every call shares its
    read-only values and shape-tensor planes, the identity up to truncation."""
    values, *planes = _table(grid, _cap_arrays)
    body = CapillaryBody(grid, values, {"kind": "unit-cap"})
    body._tensor = ShapeTensor(*planes)
    return body


def _cap_arrays(grid: CapGrid) -> tuple[np.ndarray, ...]:
    """ell's arrays, not its body: a body holds its grid and would keep it alive."""
    body = certify(grid, ell_values(grid))
    return (body.values, *body.tensor)


def horizontal_linear(grid: CapGrid, direction: Sequence[float]) -> CapillaryField:
    """Restriction of a horizontal linear function x -> <x, a> to the cap.

    direction may be a 2-vector (a1, a2) or a 3-vector with vanishing vertical
    component; a vertical component is rejected because vertical translations
    break the contact-angle condition.
    """
    d = np.asarray(direction, dtype=float)
    if d.shape == (3,):
        if abs(d[2]) > 1e-14 * max(1.0, float(np.max(np.abs(d)))):
            raise ValueError("direction must be horizontal (zero vertical component)")
        d = d[:2]
    if d.shape != (2,):
        raise ValueError(f"direction must have 2 (or 3) components, got shape {d.shape}")
    values = grid.sin_rho[:, None] * (
        d[0] * np.cos(grid.phi_nodes)[None, :] + d[1] * np.sin(grid.phi_nodes)[None, :]
    )
    return CapillaryField(grid, values)


# -- random generation ------------------------------------------------------

def enforce_contact_angle(grid: CapGrid, values: np.ndarray) -> np.ndarray:
    """Return a copy of the field with its discrete boundary defect cancelled.

    Fields that satisfy the contact-angle condition in closed form still leave
    a truncation-error residual under the boundary derivative stencil, which
    can trip the admissibility gate on coarse grids.  Subtracting separable
    corrections built from quartic and quintic radial profiles (matched to the
    azimuthal mode parity, so the pole stays regular) removes the discrete
    defect to roundoff while perturbing the field by O(defect) in sup norm.
    """
    values = grid.check_field(values).astype(float, copy=True)
    res = robin_residual(grid, values)
    spec = np.fft.rfft(res)
    k = np.arange(spec.size)
    for parity, lift in enumerate(_table(grid, _parity_lifts)):
        part = np.fft.irfft(np.where(k % 2 == parity, spec, 0.0), grid.n_phi)
        values -= np.outer(lift, part)
    return values


def _parity_lifts(grid: CapGrid) -> tuple[np.ndarray, np.ndarray]:
    """enforce_contact_angle's quartic and quintic radial profiles, each
    divided by its own boundary defect.

    The boundary stencil never reaches the pole-reflected rows, so the
    profile's own defect scales every mode of its parity.
    """
    x = grid.rho_nodes / grid.theta
    lifts = []
    for prof in (x**4, x**5):
        scale = grid.boundary_d_rho(prof) - grid.cot_theta * prof[-1]
        lifts.append(prof / scale)
    return tuple(lifts)


def _mode_profiles(grid: CapGrid, mode_cap: int) -> list[tuple[int, np.ndarray]]:
    """Radial profiles paired with their azimuthal frequency m.

    For m = 0 the profile cos(k*pi*rho/theta) is smooth across the pole and has
    vanishing radial derivative at the boundary.  For m >= 1 the same cosine is
    tapered by sin(rho)^m, which restores smoothness at the pole (an m-fold
    azimuthal oscillation must vanish to order m there); differencing two
    cosines of equal parity keeps both the profile and its radial derivative
    zero on the boundary row, so the Neumann lift stays exact.
    """
    rho = grid.rho_nodes
    theta = grid.theta
    profiles: list[tuple[int, np.ndarray]] = []
    for m in range(mode_cap + 1):
        for k in range(mode_cap + 1):
            if m == 0:
                p = np.cos(k * np.pi * rho / theta)
            else:
                taper = np.sin(rho) ** m
                p = taper * (
                    np.cos(k * np.pi * rho / theta) - np.cos((k + 2) * np.pi * rho / theta)
                )
            top = float(np.max(np.abs(p)))
            if top < 1e-13:
                continue
            profiles.append((m, p / top))
    return profiles


def _mode_table(grid: CapGrid, mode_cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The datum's terms in draw order, one row each: the radial profile, the
    azimuthal row and the weight.  Each profile of _mode_profiles gives a
    cos(m phi) row, then a sin(m phi) row when m > 0, both weighted 1/(1+m)^2."""
    profiles, trig, weights = [], [], []
    for m, prof in _mode_profiles(grid, mode_cap):
        rows = [np.cos(m * grid.phi_nodes)]
        if m > 0:
            rows.append(np.sin(m * grid.phi_nodes))
        for row in rows:
            profiles.append(prof)
            trig.append(row)
            weights.append(1.0 / (1.0 + m) ** 2)
    return (np.array(profiles).reshape(-1, grid.n_rho + 1),
            np.array(trig).reshape(-1, grid.n_phi), np.array(weights))


def _random_neumann_datum(grid: CapGrid, rng: np.random.Generator, mode_cap: int) -> np.ndarray:
    """Seeded smooth datum u with max|u| = 1: a weighted sum of mode_table terms.

    The coefficients are drawn in the table's (m, k, cos/sin) order, one
    array draw being the stream of one scalar draw per term, so a seed is
    reproducible independent of grid size.  The contraction adds each node's
    products in term order, starting from zero, as a loop over outer
    products does, and calls no BLAS; a reordering sum (``@``, tensordot,
    ``optimize=True``) would change every body's bytes.
    """
    profiles, trig, weights = _table(grid, _mode_table, mode_cap)
    coef = rng.standard_normal(weights.size) * weights
    u = np.einsum("tj,ti->ji", coef[:, None] * profiles, trig, optimize=False)
    top = float(np.max(np.abs(u)))
    if top > 0:
        u /= top
    return u


# A random body must clear min_eig >= MARGIN * base_radius; the amplitude is
# halved at most MAX_HALVINGS times to get there.
MARGIN = 0.05
MAX_HALVINGS = 50
# random_body does not try a halving whose predicted tensor (see
# _predicted_misses) misses the margin by more than a guard: PREDICTION_GUARD
# times eps * (n_phi/2)^2 / sin(rho_0)^2 * max|h|, the roundoff of a spectral
# second phi-derivative on the pole row.  Measured node by node, the
# prediction's min_eig differs from the exact one by at most 1.2 times that
# scale (grids 8x8 to 512x512 and 256x16 to 16x512, theta 0.01 to 3.1,
# amplitude up to 4), so every halving it skips would fail the exact check too.
PREDICTION_GUARD = 64.0

def _cap_meridian_tensor(grid: CapGrid) -> ShapeTensor:
    """The enforced unit cap's shape tensor on the meridian phi = 0: planes
    shaped (n_rho+1, 1), which broadcast against node-shaped ones.  The cap is
    rotationally symmetric, so its tensor is the same on every meridian up to
    roundoff (0.13 times the guard scale of PREDICTION_GUARD, on grids with
    odd factors in n_phi; none on powers of two)."""
    full = a_of(grid, enforce_contact_angle(grid, ell_values(grid)))
    return ShapeTensor._make(plane[:, :1].copy() for plane in full)


# Huge radii or amplitudes may overflow: -inf reads as a sure miss and NaN never
# does, so no acceptable halving is skipped and the exact check still decides.
@np.errstate(over="ignore", invalid="ignore")
def _predicted_misses(grid: CapGrid, lv: np.ndarray, u: np.ndarray,
                      base_radius: float, amplitude: float) -> int:
    """Number of leading halvings of amplitude that the margin check would reject.

    enforce_contact_angle and a_of are linear, so the body at amplitude a has
    the shape tensor r*A0 + a*A1 up to roundoff, with A0 the tensor of the
    unit cap and A1 that of lv*u, both passed through
    enforce_contact_angle.  With B = r*A0 - (MARGIN*r - guard)*I and C = A1,
    a halving is a sure miss when tr(B + aC) or det(B + aC) is negative at
    some node (see PREDICTION_GUARD for the guard).  Only the traces, the
    determinants and the mixed term of det(B + aC) are kept while the
    amplitudes are walked; B's are one value per ring.
    """
    A0 = _table(grid, _cap_meridian_tensor)
    lu = enforce_contact_angle(grid, lv * u)
    bound = base_radius * np.max(lv) + amplitude * np.max(np.abs(lu))
    guard = PREDICTION_GUARD * np.finfo(float).eps * (grid.n_phi / 2 / grid.sin_rho[0]) ** 2 * bound
    C = a_of(grid, lu)
    del lu
    shift = MARGIN * base_radius - guard
    b00 = base_radius * A0.rr - shift
    b11 = base_radius * A0.pp - shift
    b01 = base_radius * A0.rp
    c00, c11, c01 = C.rr, C.pp, C.rp
    tr_b, det_b = b00 + b11, b00 * b11 - b01 * b01
    # Peak memory stays that of an exact attempt: C, the three results and
    # one full-size temporary at a time.
    tr_c = c00 + c11
    det_c = c00 * c11
    det_c -= c01 * c01
    mixed = b00 * c11
    mixed += b11 * c00
    mixed -= (2.0 * b01) * c01
    del C, c00, c11, c01
    # One value and one mask buffer serve every halving.  Most nodes miss the
    # early halvings (44-87% miss the first, theta 2.2 at 256x256), so
    # restricting later halvings to the nodes that missed costs more in
    # gathers than it saves.
    value = np.empty(tr_c.shape)
    miss = np.empty(tr_c.shape, dtype=bool)
    amp = amplitude
    for k in range(MAX_HALVINGS + 1):
        # Written so that a NaN never counts as a miss.
        np.multiply(tr_c, amp, out=value)
        value += tr_b
        if not np.less(value, 0, out=miss).any():
            np.multiply(det_c, amp, out=value)
            value += mixed
            value *= amp
            value += det_b
            if not np.less(value, 0, out=miss).any():
                return k
        amp *= 0.5
    return MAX_HALVINGS + 1


def random_body(
    grid: CapGrid,
    seed: int,
    base_radius: float = 1.0,
    amplitude: float = 0.25,
    mode_cap: int = 3,
) -> CapillaryBody:
    """Seeded random convex body h = base_radius*ell + amplitude*ell*u.

    u is a random combination of boundary-compatible smooth modes (see
    _mode_profiles) and the residual discrete boundary defect is projected
    out, so the contact-angle gate passes at any resolution.  If the
    perturbed field fails the convexity margin min_eig >= MARGIN*base_radius
    the amplitude is halved and the same u is retried; exceeding MAX_HALVINGS
    raises RuntimeError.  Halvings that two shape tensors show to fail (see
    _predicted_misses) are not tried, so an accepted body costs two shape
    tensors and is the body the plain halving loop returns.
    """
    if base_radius <= 0:
        raise ValueError(f"base_radius must be positive, got {base_radius}")
    if amplitude < 0:
        raise ValueError(f"amplitude must be non-negative, got {amplitude}")
    rng = np.random.default_rng(seed)
    u = _random_neumann_datum(grid, rng, mode_cap)
    lv = _ell_column(grid)
    amp = float(amplitude)
    misses = _predicted_misses(grid, lv, u, base_radius, amp)
    for k in range(MAX_HALVINGS + 1):
        if k >= misses:
            values = enforce_contact_angle(grid, base_radius * lv + amp * lv * u)
            body = CapillaryBody(grid, values, {
                "seed": int(seed),
                "params": {
                    "base_radius": float(base_radius),
                    "amplitude": float(amplitude),
                    "effective_amplitude": amp,
                    "mode_cap": int(mode_cap),
                },
            })
            if body.min_eig >= MARGIN * base_radius:
                return body
        amp *= 0.5
    raise RuntimeError(
        f"generation failed: no convex body within {MAX_HALVINGS} amplitude halvings "
        f"(seed={seed}, base_radius={base_radius}, amplitude={amplitude})"
    )


# Weight of the oscillatory lift in random_capillary_field.
FIELD_AMPLITUDE = 1.0


def random_capillary_field(grid: CapGrid, seed: int, mode_cap: int = 3) -> CapillaryField:
    """Seeded random admissible field, convex or not.

    A mix of the unit-cap support function, an oscillatory Neumann lift and
    horizontal linear components.  Useful as the free slot in inequality
    trials.
    """
    rng = np.random.default_rng(seed)
    u = _random_neumann_datum(grid, rng, mode_cap)
    lv = _ell_column(grid)
    values = rng.uniform(0.5, 1.5) * lv + FIELD_AMPLITUDE * lv * u
    a1, a2 = rng.uniform(-0.5, 0.5, size=2)
    values = values + horizontal_linear(grid, (a1, a2)).values
    values = enforce_contact_angle(grid, values)
    return CapillaryField(grid, values)


# -- serialization -------------------------------------------------------------

def body_to_dict(body: CapillaryBody) -> dict:
    """JSON-ready dict; values are row-major, radial index slow."""
    return _body_dict(body, body.values.ravel(order="C").tolist())


def _body_dict(body: CapillaryBody, values) -> dict:
    return {
        "theta": body.grid.theta,
        "n_rho": body.grid.n_rho,
        "n_phi": body.grid.n_phi,
        "values": values,
        "provenance": body.provenance,
    }


def body_from_dict(data: dict, grid: CapGrid | None = None) -> CapillaryBody:
    """Inverse of body_to_dict; a malformed dict raises ValueError.

    theta must be a number, n_rho and n_phi integers and values a flat list
    of numbers, as JSON reads them: no strings, bools or nested lists.  An
    integer theta or value must fit a float.  values may also be the float64
    array that load_body reads from a file save_body wrote.
    """
    if not isinstance(data, dict):
        raise ValueError(f"body must be a JSON object, got {type(data).__name__}")
    missing = [k for k in ("theta", "n_rho", "n_phi", "values") if k not in data]
    if missing:
        raise ValueError(f"body is missing {', '.join(missing)}")
    theta, n_rho, n_phi, values = (data[k] for k in ("theta", "n_rho", "n_phi", "values"))
    if isinstance(theta, bool) or not isinstance(theta, (int, float)):
        problem = f"theta is {type(theta).__name__}, not a number"
    elif not _fits_float(theta):
        problem = "theta is an integer too large for a float"
    elif any(isinstance(n, bool) or not isinstance(n, int) for n in (n_rho, n_phi)):
        problem = "n_rho and n_phi must be integers"
    elif isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        problem = None
    # One C-level pass: bool, str and list are types of their own.
    elif not (isinstance(values, list) and set(map(type, values)) <= {float, int}):
        problem = "values must be a flat list of numbers"
    else:
        problem = None
        try:
            values = np.array(values, dtype=float)
        except OverflowError:
            problem = "values holds an integer too large for a float"
    if problem:
        raise ValueError(f"body theta, n_rho, n_phi or values is malformed: {problem}")
    if grid is None:
        grid = CapGrid(theta, n_rho, n_phi)
    elif (grid.theta, grid.n_rho, grid.n_phi) != (theta, n_rho, n_phi):
        raise ValueError("grid does not match serialized body")
    return certify(grid, values.reshape(grid.node_shape), data.get("provenance"))


def _fits_float(x: float | int) -> bool:
    """Whether float(x) does not overflow."""
    try:
        float(x)
    except OverflowError:
        return False
    return True


def save_body(body: CapillaryBody, path) -> None:
    """Write body_to_dict(body) as json.dump(..., indent=1) does, plus a newline.

    json's indenting encoder runs in Python, so the values list, nearly all
    of the file, is written instead by the numpy kernel of capaf._floattext,
    byte for byte as repr writes each float: that is how json writes a
    finite float, and a certified body holds no other.  The kernel finds
    the shortest round-trip digits itself for 1e-4 <= |x| < 1e16; zeros,
    powers of two, smaller or larger magnitudes and the rare value too close
    to its rounding interval's edge to call go through Python's repr.  The
    head and tail of the file come from json.dumps.
    """
    head, tail = json.dumps(_body_dict(body, None), indent=1).split('"values": null', 1)
    # Each item is ',\n  ' and a value; the first takes no comma.
    items = float_lines(body.values.reshape(-1, 1), b",\n ", b"", shortest=True)
    with open(path, "wb") as fh:
        fh.write(f'{head}"values": ['.encode("utf-8"))
        fh.write(next(items)[1:])
        fh.writelines(items)
        fh.write(f"\n ]{tail}\n".encode("utf-8"))


def load_body(path, grid: CapGrid | None = None) -> CapillaryBody:
    """Read a body file; a malformed or uncertifiable one raises a ValueError
    whose message starts with the path.

    The file is read once, as bytes.  In a file that save_body wrote, the
    values list is read by capaf._floattext.read_floats, and the rest, with
    null in its place, by json; every other file is read by json.load as
    UTF-8 text.  Both give body_from_dict the same dict, so its checks and
    messages hold either way.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = _saved_body_dict(raw)
        if data is None:
            data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        return body_from_dict(data, grid)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


_VALUES_KEY = b'"values": ['
_BRACKET = re.compile(rb"[][{}]")


def _saved_body_dict(raw: bytes) -> dict | None:
    """The dict json.load reads from raw, its values as a float64 array, if
    raw holds the values list in save_body's layout, else None.

    The list is cut at the first '"values": [' and the first ']' after it.
    That key is at the top level when no bracket but the object's own '{'
    comes before it.  json.load keeps the last of duplicate keys, so the
    parse of the rest must find it the object's only values key.
    """
    at = raw.find(_VALUES_KEY)
    end = raw.find(b"]", at)
    if at < 0 or end < 0 or raw[:1] != b"{" or _BRACKET.search(raw, 1, at):
        return None
    values = read_floats(raw[at + len(_VALUES_KEY):end])
    if values is None:
        return None
    top = []

    def pairs_hook(pairs):
        top[:] = pairs
        return dict(pairs)

    try:
        data = json.loads((raw[:at] + b'"values": null' + raw[end + 1:]).decode("utf-8"),
                          object_pairs_hook=pairs_hook)
    except ValueError:
        return None
    if [value for key, value in top if key == "values"] != [None]:
        return None
    data["values"] = values
    return data
