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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CorruptInput, DimensionMismatch, GeometryViolation, MissingAngle,
                     TorusRadonError)
from .fields import band_frequencies
from .lattice import PrimitiveDirection, direction_of, primitive_reduce
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
        rows: dict[PrimitiveDirection, int] = {}
        for i, v in enumerate(self.directions):
            rows.setdefault(v, i)
        object.__setattr__(self, "_rows", rows)

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.n_offsets) / self.n_offsets

    def row(self, v: PrimitiveDirection) -> np.ndarray:
        """The data row of direction v (its first one, if listed twice)."""
        try:
            return self.values[self._rows[v]]
        except KeyError:
            raise MissingAngle(f"no Euclidean data for direction {v.v}") from None


def _unit_normal_offset(v: PrimitiveDirection, point) -> float:
    speed = math.sqrt(v.v[0] ** 2 + v.v[1] ** 2)
    return (-v.v[1] * point[0] + v.v[0] * point[1]) / speed


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
        c = _unit_normal_offset(v, center)
        for shift in range(-2, 3):
            t = s + shift - c
            inside = np.abs(t) <= radius
            values[i, inside] += 2.0 * np.sqrt(radius**2 - t[inside] ** 2)
    return EuclideanSinogram(dirs, n_offsets, values, radius, tuple(center))


def _symmetric_spectrum(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, c_f) for the 1-periodic trigonometric interpolant of uniform real
    samples, f = -floor(N/2) .. floor(N/2), with c_-f = conj(c_f); for even
    N the Nyquist mode is split in half between f = +-N/2."""
    N = samples.shape[0]
    half = np.fft.rfft(samples) / N
    if N % 2 == 0:
        half[-1] /= 2.0
    f = np.arange(1 - half.size, half.size)
    return f, np.concatenate([np.conj(half[:0:-1]), half])


def _windowed_transform(f, c, nu, h: float, q_lo: int, q_hi: int) -> np.ndarray:
    """h * sum over q_lo <= q <= q_hi of P(qh) exp(-2 pi i nu qh) at each
    frequency nu, for P(t) = sum_f c_f exp(2 pi i f t). The sum over q is
    geometric, so each term is the Dirichlet kernel in a = (f - nu) h,
    exp(i pi a (q_lo + q_hi)) sin(pi Q a) / sin(pi a), with its limit Q
    where sin(pi a) = 0 (f = nu, which integer |v| allows)."""
    Q = q_hi - q_lo + 1
    a = (f[None, :] - nu[:, None]) * h
    den = np.sin(np.pi * a)
    ratio = np.divide(np.sin(np.pi * Q * a), den, out=np.full_like(den, float(Q)),
                      where=den != 0)
    return h * ((np.exp(1j * np.pi * (q_lo + q_hi) * a) * ratio) @ c)


def bridge_ingest(sino: EuclideanSinogram, family, K: int) -> TorusSinogram:
    """Resample Euclidean parallel-beam data onto torus transform data.

    Per direction v, slice coefficient m is the windowed strand-sum
    quadrature g(m) = h sum_q P(qh) exp(-2 pi i m|v| qh) of the module
    docstring, summed in closed form by `_windowed_transform` and written
    straight into the slice's block of the family's flat layout. The shared
    mean is the equal-weight average of the per-direction m = 0 values,
    summed in sorted subspace order.
    """
    rho = sino.support_radius
    members = canonical_family(family)
    if not members:
        raise ValueError("family must be nonempty")
    if (members[0].n, members[0].d) != (2, 1):
        raise DimensionMismatch("the bridge is a planar (n=2) line operation")
    index, offsets, _ = layout(members, K)
    k1, k2 = band_frequencies(2, K)[:, index]
    values, means = np.empty(index.size, np.complex128), []
    for A, lo, hi in zip(members, offsets.tolist(), offsets[1:].tolist()):
        v = direction_of(A)
        f, c = _symmetric_spectrum(sino.row(v))
        norm_sq = v.v[0] ** 2 + v.v[1] ** 2
        speed = math.sqrt(norm_sq)
        c_v = _unit_normal_offset(v, sino.center)
        m_max = K // max(abs(x) for x in v.v)
        # quadrature grid no coarser than the stored offsets, so it adds
        # no aliasing beyond the offset grid's own
        h = 1.0 / (max(2 * m_max + 2, sino.n_offsets) * speed)
        q_lo, q_hi = math.ceil((c_v - rho) / h), math.floor((c_v + rho) / h)
        g = _windowed_transform(f, c, np.arange(m_max + 1) * speed, h, q_lo, q_hi)
        # the profile is real: g(-m) = conj(g(m)) and g(0) is real
        means.append(g[0].real)
        # k = m (-v2, v1) on the support; pick each entry's m from its k
        m = (k1[lo:hi] * -v.v[1] + k2[lo:hi] * v.v[0]) // norm_sq
        values[lo:hi] = np.where(m > 0, g[np.abs(m)], np.conj(g[np.abs(m)]))
    mean = sum(means) / len(means)
    return TorusSinogram(members, K, mean, values)


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
