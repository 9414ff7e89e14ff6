import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusradon import bridge
from torusradon.bridge import (
    CSV_HEADER,
    EuclideanSinogram,
    bridge_ingest,
    disk_sinogram,
    sinogram_from_csv,
    sinogram_to_csv,
)
from torusradon.errors import CorruptInput, DimensionMismatch, GeometryViolation, MissingAngle
from torusradon.fields import sobolev_norm
from torusradon.lattice import PrimitiveDirection, direction_cover, line, line_cover, primitive_reduce
from torusradon.phantoms import phantom
from torusradon.sinogram import sinogram_norm, canonical_weight
from torusradon.transforms import forward_sinogram


def exact_disk_field(K, rho, center=(0.5, 0.5)):
    """Closed-form band coefficients of the disk indicator (Bessel J1)."""
    from scipy.special import j1
    from torusradon.fields import TorusField

    ks = np.arange(-K, K + 1)
    KX, KY = np.meshgrid(ks, ks, indexing="ij")
    r = np.sqrt(KX**2 + KY**2)
    arr = np.empty((2 * K + 1,) * 2, dtype=complex)
    nz = r > 0
    arr[nz] = rho * j1(2 * np.pi * rho * r[nz]) / r[nz]
    arr[~nz] = np.pi * rho**2
    arr *= np.exp(-2j * np.pi * (KX * center[0] + KY * center[1]))
    return TorusField(2, K, arr)


def test_axis_direction_matches_forward():
    # v = (1,0): one strand, so the bridge reduces to a plain resampling
    K, rho = 32, 0.2
    v = primitive_reduce((1, 0))
    A = line(v)
    exact = exact_disk_field(K, rho)
    truth = forward_sinogram(exact, [v])

    bridged = bridge_ingest(disk_sinogram([v], 2048, rho), [v], K)
    rel = sobolev_norm(bridged.slices[A] - truth.slices[A], 0.0) / sobolev_norm(truth.slices[A], 0.0)
    assert rel < 1e-3  # measured 2.3e-5
    assert abs(bridged.mean - truth.mean) < 1e-4

    # against the grid-sampled embedded phantom the comparison bottoms out
    # at the phantom's own discretization error
    ph = phantom("disk", {"radius": rho}, K=K, N=256)
    t_grid = forward_sinogram(ph.field, [v])
    bridged256 = bridge_ingest(disk_sinogram([v], 256, rho), [v], K)
    rel_g = sobolev_norm(bridged256.slices[A] - t_grid.slices[A], 0.0) / sobolev_norm(
        t_grid.slices[A], 0.0)
    assert rel_g < 1e-2  # measured 4.2e-3


def test_oblique_direction_strand_sum():
    K, rho = 32, 0.2
    v = primitive_reduce((2, -1))
    A = line(v)
    exact = exact_disk_field(K, rho)
    truth = forward_sinogram(exact, [v])
    bridged = bridge_ingest(disk_sinogram([v], 2048, rho), [v], K)
    num = sobolev_norm(bridged.slices[A] - truth.slices[A], 0.0)
    den = sobolev_norm(truth.slices[A], 0.0)
    assert num / den < 5e-4  # measured 8.9e-5


def test_bridge_error_decreases_under_offset_refinement():
    K, rho = 16, 0.2
    v = primitive_reduce((3, 2))
    A = line(v)
    exact = exact_disk_field(K, rho)
    truth = forward_sinogram(exact, [v])
    errs = []
    for M in (128, 512, 2048):
        bridged = bridge_ingest(disk_sinogram([v], M, rho), [v], K)
        errs.append(sobolev_norm(bridged.slices[A] - truth.slices[A], 0.0))
    assert errs[0] > errs[1] > errs[2]


def test_bridge_refinement_halves_error_until_floor():
    # doubling the offset grid should at least halve the reconstruction
    # error while above the comparison floor
    from torusradon.inversion import invert_filtered

    K, rho = 12, 0.2
    cover = direction_cover(K)
    ph = phantom("disk", {"radius": rho}, K=K, N=512)
    w = canonical_weight(cover, K)
    errs = []
    for M in (64, 128, 256):
        g = bridge_ingest(disk_sinogram(cover, M, rho), cover, K)
        rec = invert_filtered(g, w)
        errs.append(sobolev_norm(rec - ph.field, 0.0))
    floor = errs[-1]
    for a, b in zip(errs, errs[1:]):
        if a > 2 * floor:
            assert a / b >= 2.0


def test_zero_sinogram_gives_zero_data():
    K = 8
    v = primitive_reduce((1, 0))
    sino = EuclideanSinogram((v,), 64, np.zeros((1, 64)), 0.2)
    g = bridge_ingest(sino, [v], K)
    assert g.mean == 0
    assert np.all(g.slices[line(v)].coeffs == 0)


def test_missing_angle():
    sino = disk_sinogram([primitive_reduce((1, 0))], 64, 0.2)
    with pytest.raises(MissingAngle):
        bridge_ingest(sino, [primitive_reduce((0, 1))], 8)


def test_geometry_violation():
    with pytest.raises(GeometryViolation):
        disk_sinogram([primitive_reduce((1, 0))], 64, 0.6)
    with pytest.raises(GeometryViolation):
        EuclideanSinogram((primitiveDirection := primitive_reduce((1, 0)),), 8,
                          np.zeros((1, 8)), 0.5)


def test_csv_round_trip():
    dirs = direction_cover(2)
    sino = disk_sinogram(dirs, 32, 0.25)
    text = sinogram_to_csv(sino)
    back = sinogram_from_csv(text, 0.25)
    assert back.directions == sino.directions
    assert np.allclose(back.values, sino.values)
    assert back.n_offsets == sino.n_offsets


def test_full_bridge_small_pipeline():
    from torusradon.inversion import invert_filtered
    from torusradon.fields import to_samples

    K, N = 8, 256
    rho = 0.2
    ph = phantom("disk", {"radius": rho}, K=K, N=N)
    cover = direction_cover(K)
    sino = disk_sinogram(cover, N, rho)
    g = bridge_ingest(sino, cover, K)
    w = canonical_weight(cover, K)
    rec = invert_filtered(g, w)
    truth_grid = to_samples(ph.field, N).real
    rec_grid = to_samples(rec, N).real
    rel = np.linalg.norm(rec_grid - truth_grid) / np.linalg.norm(truth_grid)
    assert rel < 0.05


def strand_sum_oracle(sino, family, K):
    """The strand loop that bridge_ingest sums in closed form, kept as its
    independent check: the profile at u / M_u is |v|^-1 times the
    trigonometric interpolant summed over the strand offsets in the support
    window, then transformed. Returns {line: coefficients for m = -m_max..m_max}."""
    def interpolate(samples, points):
        M = samples.shape[0]
        coeffs = np.fft.rfft(samples) / M
        weights = np.full(coeffs.shape[0], 2.0)
        weights[0] = 1.0
        if M % 2 == 0:
            weights[-1] = 1.0
        # mode 16 p + r: sum_p exp(2 pi i 16 p x) sum_r c[p, r] exp(2 pi i r x),
        # so each point takes one exp per p and per r, not one per mode
        c = np.zeros(-(-coeffs.shape[0] // 16) * 16, complex)
        c[:coeffs.shape[0]] = weights * coeffs
        c = c.reshape(-1, 16)
        fine = np.exp(2j * np.pi * np.outer(points, np.arange(16))) @ c.T
        coarse = np.exp(2j * np.pi * np.outer(points, 16 * np.arange(c.shape[0])))
        return np.einsum("xp,xp->x", coarse, fine).real

    rho, out = sino.support_radius, {}
    for v in family:
        speed = math.sqrt(v.v[0] ** 2 + v.v[1] ** 2)
        c_v = (-v.v[1] * sino.center[0] + v.v[0] * sino.center[1]) / speed
        m_max = K // max(abs(x) for x in v.v)
        M_u = max(2 * m_max + 2, sino.n_offsets)
        tau = np.arange(M_u) / M_u / speed
        j_lo = np.ceil((c_v - rho - tau) * speed).astype(int)
        j_hi = np.floor((c_v + rho - tau) * speed).astype(int)
        js = j_lo[:, None] + np.arange((j_hi - j_lo).max() + 1)
        vals = interpolate(sino.row(v), ((tau[:, None] + js / speed) % 1.0).ravel())
        profile = (vals.reshape(js.shape) * (js <= j_hi[:, None])).sum(axis=1) / speed
        out[line(v)] = (np.fft.fft(profile) / M_u)[np.arange(-m_max, m_max + 1)]
    return out


def ingest_defect(sino, family, K):
    """Largest |closed form - strand loop| over every slice coefficient and
    the shared mean of bridge_ingest(sino, family, K)."""
    g = bridge_ingest(sino, family, K)
    want = strand_sum_oracle(sino, family, K)
    zero = {A: coeffs[coeffs.size // 2] for A, coeffs in want.items()}
    worst = abs(g.mean - sum(zero[A] for A in sorted(zero)) / len(zero))
    for A, expected in want.items():
        v1, v2 = A.basis[0]
        ms = np.arange(expected.size) - expected.size // 2
        got = g.slices[A].coeffs[K - ms * v2, K + ms * v1]
        worst = max(worst, float(np.max(np.abs(got - expected)[ms != 0], initial=0.0)))
    return worst


def oracle_defect(K, n_offsets, center, skip=()):
    """ingest_defect on direction_cover(K) for a disk of radius 0.2."""
    cover = [v for v in direction_cover(K) if v.v not in skip]
    return ingest_defect(disk_sinogram(cover, n_offsets, 0.2, center), cover, K)


@pytest.mark.parametrize("center", [(0.5, 0.5), (0.57, 0.44)])
def test_closed_form_matches_strand_loop(center):
    assert oracle_defect(16, 256, center) < 1e-13


def test_closed_form_matches_strand_loop_on_cover_32():
    # (7, 24) is left out: |v| = 25, so at the default centre (c_v +- rho)/h
    # is an exact integer, an endpoint sample of the window is kept or
    # dropped by rounding, and the two codes differ there by 1.7e-5 (3.7e-6
    # with 256 offsets). 64 offsets keep the loop's run time to ~2 s.
    assert oracle_defect(32, 64, (0.5, 0.5), skip=[(7, 24)]) < 1e-13


@pytest.mark.parametrize("n_offsets, center", [
    (255, (0.5, 0.5)),  # odd: no Nyquist mode to split
    (16, (0.5, 0.5)),  # M_u = 2 m_max + 2 = 34 > 16 for the axis directions
    (256, (0.31, 0.66)),  # far off centre: every window moves
])
def test_closed_form_matches_strand_loop_edge_cases(n_offsets, center):
    assert oracle_defect(16, n_offsets, center) < 1e-13


# |v|^2 = 65 for all six, but at K = 14 m_max is 1 for (1, 8) and 2 for (4, 7)
SHARED_LENGTH = [primitive_reduce(v) for v in [(1, 8), (4, 7), (8, 1), (7, 4), (1, -8), (4, -7)]]


@pytest.mark.parametrize("sino", [
    # N = 2 m_max + 2: 4 for (1, 8) and 6 for (4, 7)
    disk_sinogram(SHARED_LENGTH, 4, 0.2, (0.55, 0.43)),
    # N = 16 for both, and the off-centre disk gives (1, 8) Q = 52 and
    # (4, 7) Q = 51: a kernel shared without Q reads the wrong row
    disk_sinogram(SHARED_LENGTH, 16, 0.2, (0.55, 0.43)),
    # support radius 0.05: (8, 1) with N = 4 and (4, -7) with N = 6 both hold
    # Q = 4 points, so a kernel shared without N reads the wrong row. A disk
    # that small misses most of 4 offsets, so the profiles are random.
    EuclideanSinogram(tuple(SHARED_LENGTH), 4, np.random.default_rng(65).standard_normal((6, 4)),
                      0.05, (0.55, 0.43)),
], ids=["disk-4-offsets", "disk-16-offsets", "random-4-offsets"])
def test_closed_form_matches_strand_loop_where_rows_share_a_length(sino):
    assert ingest_defect(sino, SHARED_LENGTH, 14) < 1e-13


def test_ingest_reads_rows_by_direction_not_position():
    cover = direction_cover(16)
    sino = disk_sinogram(cover, 256, 0.2, (0.57, 0.44))
    backwards = EuclideanSinogram(sino.directions[::-1], 256, sino.values[::-1], 0.2, sino.center)
    assert np.array_equal(bridge_ingest(backwards, cover, 16).values,
                          bridge_ingest(sino, cover, 16).values)
    assert ingest_defect(backwards, cover, 16) < 1e-13


def test_ingest_at_band_zero_stores_only_the_mean():
    cover = direction_cover(4)
    sino = disk_sinogram(cover, 64, 0.2)
    g = bridge_ingest(sino, cover, 0)
    assert g.values.size == 0
    assert g.mean.real > 0  # the disk's mass, pi rho^2 up to the quadrature
    assert ingest_defect(sino, cover, 0) < 1e-13


def test_missing_angle_names_the_first_missing_member():
    # members are read in sorted subspace order, not in the given order
    cover = direction_cover(4)
    missing = sorted([line(v) for v in cover if v.v in ((1, 1), (3, 4), (1, -4))])
    assert len(missing) == 3
    sino = disk_sinogram([v for v in cover if line(v) not in missing], 64, 0.2)
    first = missing[0].basis[0]
    with pytest.raises(MissingAngle, match=re.escape(f"direction {first}")):
        bridge_ingest(sino, cover[::-1], 4)


def test_a_band_too_large_to_lay_out_fails_before_the_row_kernels(monkeypatch):
    # the rows of --band 100000 took 9 s before the layout's MemoryError
    def no_layout(members, K):
        raise MemoryError(f"layout at K={K}")

    def no_rows(profiles):
        raise AssertionError("the row kernels ran before the layout")

    monkeypatch.setattr(bridge, "layout", no_layout)
    monkeypatch.setattr(bridge, "_symmetric_spectra", no_rows)
    cover = direction_cover(1)
    with pytest.raises(MemoryError, match="layout at K=100000"):
        bridge_ingest(disk_sinogram(cover, 8, 0.2), cover, 100000)


def ingest_peak(K):
    cover = direction_cover(K)
    sino = disk_sinogram(cover, 256, 0.2)
    bridge_ingest(sino, cover, K)  # fills the layout cache
    tracemalloc.start()
    try:
        bridge_ingest(sino, cover, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(cover), peak


def test_ingest_peak_memory():
    members, peak = ingest_peak(16)
    assert members == 320
    assert peak < 2e6  # the result holds 1,088 values


def test_ingest_peak_memory_does_not_grow_with_the_family():
    members, peak = ingest_peak(32)
    assert members == 1296
    assert peak < 2e6  # chunks of rows: the same bound as 320 members


def test_row_lookup_first_occurrence_wins():
    v, w = primitive_reduce((1, 0)), primitive_reduce((0, 1))
    values = np.arange(12.0).reshape(3, 4)
    sino = EuclideanSinogram((v, w, v), 4, values, 0.2)
    assert np.array_equal(sino.row(v), values[0])
    assert np.array_equal(sino.row(w), values[1])
    with pytest.raises(MissingAngle):
        sino.row(primitive_reduce((1, 1)))


CSV_TEXT = sinogram_to_csv(disk_sinogram(direction_cover(2), 8, 0.25))
ROW = "1,0,0,0.5"


@pytest.mark.parametrize("text", [
    "angle_vx,angle_vy,value\n" + ROW,                     # header
    CSV_HEADER + "\n1,0,0.5",                              # field count
    CSV_HEADER + "\n1.5,0,0,0.5",                          # angle not an integer
    CSV_HEADER + "\n2,0,0,0.5",                            # angle not primitive
    CSV_HEADER + "\n1,0,0,nan",                            # value not finite
    CSV_HEADER + "\n1,0,inf,0.5",                          # offset not finite
    CSV_HEADER + "\n1,0,0,0.5\n1,0,0.3,0.5",               # grid not uniform
    CSV_HEADER + "\n1,0,0,1\n1,0,0.5,1\n0,1,0,1",          # offset counts differ
    CSV_HEADER + "\n",                                    # no rows
    "",
])
def test_csv_rejects_corrupt_text(text):
    with pytest.raises(CorruptInput):
        sinogram_from_csv(text, 0.25)


@given(st.integers(0, len(CSV_TEXT)))
@settings(max_examples=200)
def test_csv_truncation_parses_or_raises_corrupt_input(cut):
    try:
        sino = sinogram_from_csv(CSV_TEXT[:cut], 0.25)
    except CorruptInput:
        return
    assert np.all(np.isfinite(sino.values))


# each refusal of the bridge module, with its typed error and the start of its message
@pytest.mark.parametrize("call, error, start", [
    (lambda: EuclideanSinogram((PrimitiveDirection((1, 0)),), 4, np.zeros((1, 3)), 0.2), ValueError,
     "values shape does not match directions x offsets"),
    (lambda: EuclideanSinogram((PrimitiveDirection((1, 0)),), 4, np.zeros((1, 4)), 0.0),
     GeometryViolation, "support radius must be positive"),
    (lambda: bridge_ingest(disk_sinogram(direction_cover(1), 8, 0.2), [], 1), ValueError,
     "family must be nonempty"),
    (lambda: bridge_ingest(disk_sinogram(direction_cover(1), 8, 0.2), line_cover(1, 3), 1),
     DimensionMismatch, "the bridge is a planar (n=2) line operation"),
])
def test_bridge_refusals(call, error, start):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(start)
