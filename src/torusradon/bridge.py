"""Bridge from Euclidean parallel-beam sinograms to torus transform data.

The object sits inside one fundamental domain (support radius rho < 1/2
around (1/2, 1/2)). The closed torus geodesic of primitive direction v
lifts to Euclidean lines spaced 1/|v| apart in perpendicular offset, so the
period-1 torus datum at offset tau is |v|^-1 times the sum of the Euclidean
arc-length data over the strand offsets tau + j/|v| that meet the support.

Offsets are stored on a uniform [0, 1) grid holding the 1-periodized
profile, read between grid points through its trigonometric interpolant P.
Slice coefficient m of direction v is the strand-sum quadrature of P's
Fourier transform at frequency m|v| (the projection-slice theorem): the
strand offsets of a profile grid with M_u points are the points qh,
h = 1 / (M_u |v|), inside the support window [c_v - rho, c_v + rho], and
the coefficient is h sum_q P(qh) exp(-2 pi i m|v| qh). Over the window
this sum is geometric, so the bridge sums it exactly: one windowed
Dirichlet kernel per Fourier mode of P. The window matters: it cuts off
the interpolant's Gibbs tail outside the support, which an unwindowed
Fourier-slice evaluation keeps.

`bridge_ingest` treats every (direction, m) pair of the family as one row
and sums the kernels of all rows in one batched pass over small chunks of
rows, so its memory does not grow with the family.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CorruptInput, DimensionMismatch, GeometryViolation, MissingAngle,
                     TorusRadonError)
from .fields import band_frequencies
from .lattice import PrimitiveDirection, primitive_reduce
from .sinogram import TorusSinogram, canonical_family, layout


@dataclass(frozen=True)
class EuclideanSinogram:
    """Parallel-beam data tagged by primitive directions.

    values[i, j] is the arc-length line integral for directions[i] at
    perpendicular offset j / n_offsets, 1-periodized; offsets are measured
    along the unit normal (-v2, v1) / |v| from the origin."""

    directions: tuple[PrimitiveDirection, ...]
    n_offsets: int
    values: np.ndarray
    support_radius: float
    center: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.directions), self.n_offsets):
            raise ValueError("values shape does not match directions x offsets")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "directions", tuple(self.directions))
        if not (0.0 < self.support_radius):
            raise GeometryViolation("support radius must be positive")
        if self.support_radius >= 0.5:
            raise GeometryViolation("support radius must be < 1/2 to fit one fundamental domain")
        rows: dict[tuple[int, ...], int] = {}
        for i, v in enumerate(self.directions):
            rows.setdefault(v.v, i)
        object.__setattr__(self, "_rows", rows)

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.n_offsets) / self.n_offsets

    def row(self, v: PrimitiveDirection) -> np.ndarray:
        """The data row of direction v (its first one, if listed twice)."""
        return self.values[self.row_index([v.v])[0]]

    def row_index(self, vs) -> np.ndarray:
        """The row of each direction vector in vs (its first one, if listed
        twice); MissingAngle names the first vector without data."""
        rows = [self._rows.get(v, -1) for v in vs]
        if -1 in rows:
            raise MissingAngle(f"no Euclidean data for direction {vs[rows.index(-1)]}")
        return np.array(rows, dtype=np.intp)


def _unit_normal_offset(v1, v2, point):
    """The offset of point along the unit normal (-v2, v1) / |v|, for
    integer direction components or arrays of them."""
    return (-v2 * point[0] + v1 * point[1]) / np.sqrt(v1 * v1 + v2 * v2)


def disk_sinogram(directions, n_offsets: int, radius: float,
                  center=(0.5, 0.5)) -> EuclideanSinogram:
    """Analytic parallel-beam data of a unit-density disk: chord length
    2 sqrt(radius^2 - t^2) at signed distance t from the disk center."""
    dirs = tuple(v if isinstance(v, PrimitiveDirection) else primitive_reduce(v)
                 for v in directions)
    if not (0.0 < radius < 0.5):
        raise GeometryViolation("disk radius must lie in (0, 1/2)")
    s = np.arange(n_offsets) / n_offsets
    values = np.zeros((len(dirs), n_offsets))
    for i, v in enumerate(dirs):
        c = _unit_normal_offset(*v.v, center)
        for shift in range(-2, 3):
            t = s + shift - c
            inside = np.abs(t) <= radius
            values[i, inside] += 2.0 * np.sqrt(radius**2 - t[inside] ** 2)
    return EuclideanSinogram(dirs, n_offsets, values, radius, tuple(center))


# rows of Dirichlet kernels built per pass: each pass's temporaries stay a
# few hundred kB, so the call's memory does not grow with the family, and
# larger chunks measured slower (192 rows at K = 16: 1.3x the time, 2.6 MB peak)
_CHUNK_ROWS = 48


def _symmetric_spectra(samples: np.ndarray) -> np.ndarray:
    """c_f for the 1-periodic trigonometric interpolant of each row of
    uniform real samples, f = -floor(N/2) .. floor(N/2), with
    c_-f = conj(c_f); for even N the Nyquist mode is split in half between
    f = +-N/2."""
    N = samples.shape[1]
    half = np.fft.rfft(samples) / N
    if N % 2 == 0:
        half[:, -1] /= 2.0
    return np.concatenate([np.conj(half[:, :0:-1]), half], axis=1)


def bridge_ingest(sino: EuclideanSinogram, family, K: int) -> TorusSinogram:
    """Resample Euclidean parallel-beam data onto torus transform data.

    Slice coefficient m of direction v is the windowed strand-sum quadrature
    g(m) = h sum_q P(qh) exp(-2 pi i m|v| qh) of the module docstring. For
    P(t) = sum_f c_f exp(2 pi i f t) the sum over q_lo <= q <= q_hi is
    geometric: g(m) = h sum_f c_f D(a), a = (f - m|v|) h, with the windowed
    Dirichlet kernel D(a) = exp(i pi S a) sin(pi Q a) / sin(pi a),
    S = q_lo + q_hi, Q = q_hi - q_lo + 1, and its limit Q where
    sin(pi a) = 0 (f = m|v|, which integer |v| allows).

    Each (direction, m) pair, 0 <= m <= m_max, is one row. The rows are
    summed in chunks of `_CHUNK_ROWS`, each with one rfft over its
    directions' profiles and one row-wise reduction against their spectra;
    the phase exp(i pi S a) = exp(i pi S h f) exp(-i pi S h m|v|) is applied
    once per direction and once per row. One gather then fills the family's
    flat layout, with g(-m) = conj(g(m)) since the profile is real. The
    shared mean is the equal-weight average of the real m = 0 values, summed
    in sorted subspace order.
    """
    rho = sino.support_radius
    members = canonical_family(family)
    if not members:
        raise ValueError("family must be nonempty")
    if (members[0].n, members[0].d) != (2, 1):
        raise DimensionMismatch("the bridge is a planar (n=2) line operation")
    # the layout first: a band too large to lay out fails before the row kernels run
    index, offsets, _ = layout(members, K)
    vs = [A.basis[0] for A in members]
    profile = sino.row_index(vs)
    # the per-direction scalars of the quadrature, as arrays over the members
    v1, v2 = np.array(vs).T
    norm_sq = v1 * v1 + v2 * v2
    speed = np.sqrt(norm_sq)
    c_v = _unit_normal_offset(v1, v2, sino.center)
    m_max = K // np.maximum(np.abs(v1), np.abs(v2))
    # quadrature grid no coarser than the stored offsets, so it adds no
    # aliasing beyond the offset grid's own
    h = 1.0 / (np.maximum(2 * m_max + 2, sino.n_offsets) * speed)
    q_lo, q_hi = np.ceil((c_v - rho) / h), np.floor((c_v + rho) / h)
    S, Q = q_lo + q_hi, q_hi - q_lo + 1
    # direction i owns rows start[i] + m, m = 0..m_max[i]
    owner = np.repeat(np.arange(len(members)), m_max + 1)
    start = np.cumsum(m_max + 1) - (m_max + 1)
    nu = (np.arange(owner.size) - start[owner]) * speed[owner]
    f = np.arange(-(sino.n_offsets // 2), sino.n_offsets // 2 + 1)
    g = np.empty(owner.size, np.complex128)
    for lo in range(0, owner.size, _CHUNK_ROWS):
        rows = slice(lo, lo + _CHUNK_ROWS)
        i = owner[rows]
        d = slice(i[0], i[-1] + 1)  # the chunk's directions
        c = _symmetric_spectra(sino.values[profile[d]])
        c *= np.exp(1j * np.pi * S[d, None] * h[d, None] * f)
        a = (f - nu[rows, None]) * h[i, None]
        den = np.sin(np.pi * a)
        ratio = np.divide(np.sin(np.pi * Q[i, None] * a), den,
                          out=np.broadcast_to(Q[i, None], a.shape).copy(), where=den != 0)
        phase = np.exp(-1j * np.pi * S[i] * h[i] * nu[rows])
        g[rows] = h[i] * phase * np.einsum("rf,rf->r", ratio, c[i - i[0]])
    k1, k2 = band_frequencies(2, K)[:, index]
    # k = m (-v2, v1) on the support; pick each entry's m from its k
    i = np.repeat(np.arange(len(members)), np.diff(offsets))
    m = (k1 * -v2[i] + k2 * v1[i]) // norm_sq[i]
    picked = g[start[i] + np.abs(m)]
    values = np.where(m > 0, picked, np.conj(picked))
    # sum() adds in member order, one float at a time
    return TorusSinogram(members, K, sum(g[start].real.tolist()) / len(members), values)


# --- CSV exchange format -------------------------------------------------------

CSV_HEADER = "angle_vx,angle_vy,offset,value"


def sinogram_to_csv(sino: EuclideanSinogram) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    offs = sino.offsets
    for v, row in zip(sino.directions, sino.values):
        for o, val in zip(offs, row):
            buf.write(f"{v.v[0]},{v.v[1]},{o:.17g},{val:.17g}\n")
    return buf.getvalue()


def sinogram_from_csv(text: str, support_radius: float,
                      center=(0.5, 0.5)) -> EuclideanSinogram:
    """Parse the CSV written by sinogram_to_csv. Raises CorruptInput on a
    wrong header, a row without four fields, an angle that is not a
    primitive integer direction, a number that is not finite, offsets off
    the uniform [0, 1) grid, or directions with different offset counts."""
    rows = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not rows or rows[0][1].strip() != CSV_HEADER:
        raise CorruptInput(f"expected header {CSV_HEADER!r}")
    grouped: dict[PrimitiveDirection, list[tuple[float, float]]] = {}
    for i, ln in rows[1:]:
        fields = ln.split(",")
        if len(fields) != 4:
            raise CorruptInput(f"line {i}: want 4 fields, got {len(fields)}")
        try:
            v = PrimitiveDirection((int(fields[0]), int(fields[1])))
        except (ValueError, TorusRadonError) as e:
            raise CorruptInput(f"line {i}: angle is not a primitive integer direction: {e}") from e
        try:
            offset, value = float(fields[2]), float(fields[3])
        except ValueError as e:
            raise CorruptInput(f"line {i}: {e}") from e
        if not (math.isfinite(offset) and math.isfinite(value)):
            raise CorruptInput(f"line {i}: non-finite number")
        grouped.setdefault(v, []).append((offset, value))
    if not grouped:
        raise CorruptInput("no data rows")
    counts = {len(pairs) for pairs in grouped.values()}
    if len(counts) != 1:
        raise CorruptInput("directions carry different offset counts")
    M = counts.pop()
    values = np.zeros((len(grouped), M))
    for i, (v, pairs) in enumerate(grouped.items()):
        pairs.sort()
        offs = np.array([o for o, _ in pairs])
        if np.max(np.abs(offs - np.arange(M) / M)) > 1e-9:
            raise CorruptInput(f"offsets for {v.v} are not the uniform [0,1) grid")
        values[i] = [val for _, val in pairs]
    return EuclideanSinogram(tuple(grouped), M, values, support_radius, tuple(center))
