import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resolvinv import geometry
from resolvinv.errors import EmptyInputError, InvalidInputError
from resolvinv.geometry import (
    HullPolygon,
    ImaginaryAxis,
    PointSpectrum,
    PositiveHalfLine,
    UnitCircle,
    convex_hull,
    hull_distance,
    hull_separated_from,
)
from resolvinv.tolerance import EPS, SPECTRUM_EPS, distinct, unit_frame

finite_complex = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                                    allow_nan=False, allow_infinity=False)


def brute_force_hull_members(points):
    """Points of S on the hull boundary: those not strictly inside any
    triangle of other points (tiny sets only)."""
    members = []
    for p in points:
        others = [q for q in points if q != p]
        inside = False
        for a, b, c in itertools.combinations(others, 3):
            # barycentric test
            d1 = b - a
            d2 = c - a
            det = d1.real * d2.imag - d2.real * d1.imag
            if abs(det) < 1e-12:
                continue
            r = p - a
            k1 = (r.real * d2.imag - d2.real * r.imag) / det
            k2 = (d1.real * r.imag - r.real * d1.imag) / det
            if k1 > 1e-9 and k2 > 1e-9 and 1 - k1 - k2 > 1e-9:
                inside = True
                break
        if not inside:
            members.append(p)
    return set(members)


class TestConvexHull:
    def test_single_point(self):
        hull = convex_hull([1 + 0j])
        assert hull.vertices == (1 + 0j,)

    def test_interior_point_dropped(self):
        pts = [0j, 1 + 0j, 1j, 0.2 + 0.2j]
        hull = convex_hull(pts)
        expected = brute_force_hull_members(pts)
        assert set(hull.vertices) == expected == {0j, 1 + 0j, 1j}

    def test_collinear_segment(self):
        hull = convex_hull([-1 + 0j, 1 + 0j, 0j])
        assert set(hull.vertices) == {-1 + 0j, 1 + 0j}
        assert len(hull.vertices) == 2

    def test_duplicates_collapse(self):
        hull = convex_hull(distinct([2 + 1j, 2 + 1j, 2 + 1j]))
        assert hull.vertices == (2 + 1j,)

    def test_exact_duplicates_give_the_first_pair(self):
        # every pair is 0 apart, and the signs of the zeros tell the
        # points apart: the farthest pair is the first, not a point twice
        pts = [0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
        assert _bits(convex_hull(pts).vertices) == _bits(pts[:2])

    def test_small_extreme_point_kept(self):
        # 1e-10 lies within 1e-12 of the spread of the set from 0, but is
        # the far end of the segment and must stay a vertex
        pts = [0j, 1e-10 + 0j, -100 + 0j]
        hull = convex_hull(pts)
        assert set(hull.vertices) == {-100 + 0j, 1e-10 + 0j}
        for p in pts:
            assert hull_distance(hull, p) <= 1e-12 * (1 + abs(p))

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            convex_hull([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_point_raises(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite point"):
            convex_hull([0j, bad, 1j])

    def test_counterclockwise_orientation(self):
        hull = convex_hull([0j, 2 + 0j, 2 + 2j, 0 + 2j, 1 + 1j])
        v = hull.vertices
        assert len(v) == 4
        area = sum((v[i].real * v[(i + 1) % 4].imag
                    - v[(i + 1) % 4].real * v[i].imag) for i in range(4))
        assert area > 0


class TestHullDistance:
    def test_interior_point(self):
        hull = convex_hull([0j, 1 + 0j, 1j])
        assert hull_distance(hull, 0.2 + 0.2j) == 0.0

    def test_segment_perpendicular(self):
        hull = convex_hull([-1 + 0j, 1 + 0j])
        assert hull_distance(hull, 1j) == pytest.approx(1.0, abs=1e-14)

    def test_exterior_against_edge_sampling(self):
        hull = convex_hull([0j, 1 + 0j, 1j])
        z = 2 + 0j
        # oracle: dense sampling of the hull boundary
        best = min(
            abs(z - (a + t * (b - a)))
            for a, b in hull.edges()
            for t in np.linspace(0, 1, 20001)
        )
        assert hull_distance(hull, z) == pytest.approx(best, abs=1e-7)
        assert hull_distance(hull, z) == pytest.approx(1.0, abs=1e-12)

    def test_point_hull(self):
        hull = convex_hull([3 + 4j])
        assert hull_distance(hull, 0j) == pytest.approx(5.0)


class TestSeparation:
    def test_point_inside_circle(self):
        hull = convex_hull([0.5 + 0j])
        ok, d = hull_separated_from(hull, UnitCircle(), 0.0)
        assert ok and d == pytest.approx(0.5)

    def test_segment_crosses_circle(self):
        hull = convex_hull([0.5 + 0j, 1.5 + 0j])
        ok, d = hull_separated_from(hull, UnitCircle(), 0.0)
        assert not ok and d == 0.0

    def test_hull_outside_circle(self):
        hull = convex_hull([3 + 0j, 4 + 1j, 4 - 1j])
        ok, d = hull_separated_from(hull, UnitCircle(), 0.0)
        assert ok and d == pytest.approx(2.0)

    def test_hull_contains_circle(self):
        hull = convex_hull([3 + 3j, -3 + 3j, -3 - 3j, 3 - 3j])
        ok, d = hull_separated_from(hull, UnitCircle(), 0.0)
        assert not ok and d == 0.0

    def test_imaginary_axis_margin(self):
        hull = convex_hull([2 + 1j, 3 + 0j, 2 - 1j])
        ok, d = hull_separated_from(hull, ImaginaryAxis(), 1.0)
        assert ok and d == pytest.approx(2.0)

    def test_imaginary_axis_crossing(self):
        hull = convex_hull([-1 + 0j, 1 + 1j])
        ok, d = hull_separated_from(hull, ImaginaryAxis(), 0.0)
        assert not ok and d == 0.0

    def test_positive_ray(self):
        hull = convex_hull([-2 + 1j, -1 + 2j])
        _, d = hull_separated_from(hull, PositiveHalfLine(), 0.0)
        # nearest ray point is the origin
        assert d == pytest.approx(hull_distance(hull, 0j))

    def test_positive_ray_above(self):
        hull = convex_hull([1 + 1j, 2 + 2j])
        _, d = hull_separated_from(hull, PositiveHalfLine(), 0.0)
        assert d == pytest.approx(1.0)

    def test_positive_ray_crossing(self):
        hull = convex_hull([1 - 1j, 1 + 1j])
        ok, d = hull_separated_from(hull, PositiveHalfLine(), 0.0)
        assert not ok and d == 0.0

    def test_negative_margin_rejected(self):
        hull = convex_hull([1 + 0j])
        with pytest.raises(ValueError):
            hull_separated_from(hull, UnitCircle(), -0.1)


points_strategy = st.lists(
    st.complex_numbers(min_magnitude=0, max_magnitude=100,
                       allow_nan=False, allow_infinity=False),
    min_size=1, max_size=12)


@given(points_strategy)
@settings(max_examples=200, deadline=None)
def test_hull_idempotent(points):
    hull = convex_hull(points)
    again = convex_hull(hull.vertices)
    assert set(again.vertices) == set(hull.vertices)


@given(points_strategy)
@settings(max_examples=200, deadline=None)
def test_hull_contains_inputs(points):
    hull = convex_hull(points)
    for p in points:
        assert hull_distance(hull, p) <= 1e-12 * (1 + abs(p))


def _merging_hull(points):
    """The vertices of convex_hull as it was with a near-duplicate merge of
    its own, relative to each pair: two framed points at most EPS * max of
    their moduli apart were one vertex."""
    pts = list(points)
    w = unit_frame(pts)[0].tolist()
    uniq = []
    for i in sorted(range(len(w)), key=lambda i: (w[i].real, w[i].imag)):
        if all(abs(w[i] - w[j]) > EPS * max(abs(w[i]), abs(w[j]))
               for j in uniq):
            uniq.append(i)
    if len(uniq) == 1:
        return (pts[uniq[0]],)

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and ((w[out[-1]] - w[out[-2]]).conjugate()
                                     * (w[i] - w[out[-2]])).imag <= 0.0:
                out.pop()
            out.append(i)
        return out

    ring = chain(uniq)[:-1] + chain(reversed(uniq))[:-1]
    if len(ring) <= 2:
        ring = max(((i, j) for n, i in enumerate(uniq) for j in uniq[n + 1:]),
                   key=lambda ij: abs(w[ij[0]] - w[ij[1]]))
    return tuple(pts[i] for i in ring)


@st.composite
def planted_pairs(draw, spreads):
    """Random points in the square [-1, 1]^2 with partners planted at one of
    ``spreads`` times EPS * max|point| from some of them, all scaled by
    2^j for |j| <= 1000."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(1, 30))
    pts = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
    if draw(st.booleans()):  # collinear
        pts = pts.real * cmath.exp(1j * draw(st.floats(-np.pi, np.pi)))
    gap = draw(st.sampled_from(spreads)) * EPS * np.abs(pts).max()
    near = pts[:draw(st.integers(0, m))]
    near = near + gap * np.exp(2j * np.pi * rng.uniform(0, 1, near.size))
    j = draw(st.integers(-1000, 1000))
    return [complex(math.ldexp(z.real, j), math.ldexp(z.imag, j))
            for z in np.concatenate([pts, near])]


def _bits(points):
    return [(z.real.hex(), z.imag.hex()) for z in points]


@given(planted_pairs([1.0 + 2.0 ** -20]))
@settings(max_examples=300, deadline=None)
def test_hull_of_distinct_points_is_the_merging_hull(points):
    # on points that pass the series' pole gap a pair-relative merge never
    # fires, so dropping it leaves every vertex's bits
    points = distinct(points)
    assert _bits(convex_hull(points).vertices) == _bits(
        _merging_hull(points))


@st.composite
def collinear_sets(draw):
    """3 to 40 points, equispaced or random along a line: one whose
    direction scales them exactly (collinear bit for bit) or one at a
    random angle, a quarter of them with each point moved off it by up to
    2^-e of its modulus (e from 30 to 60), or a real spread of 2^-e (e
    from 40 to 1100) under a large imaginary one; all scaled by 2^j for
    |j| <= 1000."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(3, 40))
    t = (np.arange(m) + rng.uniform(-5, 5) if draw(st.booleans())
         else rng.standard_normal(m))
    line = draw(st.sampled_from(["exact", "angle", "vertical"]))
    if line == "vertical":
        pts = 1j * t + np.ldexp(rng.uniform(-1, 1, m),
                                -draw(st.integers(40, 1100)))
    else:
        pts = t * (draw(st.sampled_from([1, 1j, 1 + 1j, 0.5 - 2j]))
                   if line == "exact" else
                   cmath.exp(1j * draw(st.floats(-np.pi, np.pi))))
        if draw(st.integers(0, 3)) == 0:
            pts = pts * (1.0 + 1j * rng.uniform(-1, 1, m) * 2.0 ** -draw(
                st.integers(30, 60)))
    j = draw(st.integers(-1000, 1000))
    return [complex(math.ldexp(z.real, j), math.ldexp(z.imag, j))
            for z in rng.permutation(pts)]


@given(collinear_sets())
@settings(max_examples=300, deadline=None)
def test_collinear_hull_is_the_scanned_farthest_pair(points):
    # on distinct points the merging hull is the old one, whose collinear
    # fallback scanned every pair in Python for the first farthest one
    points = distinct(points)
    want = _bits(_merging_hull(points))
    assert _bits(convex_hull(points).vertices) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_BLOCK", 1)  # one row of pairs per block
        assert _bits(convex_hull(points).vertices) == want


@st.composite
def collinear_ties(draw):
    """3 to 40 points at small integer steps along a line, so that many
    pairs tie at the largest distance (and some points repeat), all
    scaled by 2^j for |j| <= 1000."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.integers(3, 40))
    t = rng.integers(-3, 4, m).astype(float)
    pts = t * draw(st.sampled_from([1, 1j, 1 + 1j, 0.5 - 2j, -3 + 4j]))
    j = draw(st.integers(-1000, 1000))
    return np.ldexp(pts.real, j) + 1j * np.ldexp(pts.imag, j)


@given(st.one_of(collinear_ties(), collinear_sets().map(np.array)))
@settings(max_examples=300, deadline=None)
def test_farthest_pair_is_the_full_tables_first_maximum(w):
    # only the pairs a < b are formed; the full symmetric table's first
    # row-major maximum, its diagonal excluded, is the same pair
    dz = w[:, None] - w
    d = np.hypot(dz.real, dz.imag)
    np.fill_diagonal(d, -1.0)
    k = int(d.argmax())
    want = (k // w.size, k % w.size)
    assert geometry._farthest_pair(w) == want
    # one row of pairs per block, and blocks of 300 // m rows
    for block in [1, 300]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_BLOCK", block)
            assert geometry._farthest_pair(w) == want


@given(planted_pairs([0.0, 0.5, 1.0, 1.0 + 2.0 ** -20]))
@settings(max_examples=300, deadline=None)
def test_hull_of_near_duplicates_holds_every_point(points):
    hull = convex_hull(points)
    assert (hull_distance(hull, np.array(points)) == 0.0).all()


@given(points_strategy, finite_complex, st.floats(0, 10))
@example([1e-9, 10], 0j, 0.0)  # 1e-9: past EPS, within SPECTRUM_EPS of 10
@settings(max_examples=200, deadline=None)
def test_point_set_separation_matches_distance(points, z, margin):
    # the point's distance, with the spectrum rule's floor
    # SPECTRUM_EPS * max|vertex| in place of the point rule's EPS one
    hull = convex_hull(points)
    ok, d = hull_separated_from(hull, PointSpectrum((z,)), margin)
    expect = hull_distance(hull, z)
    if expect <= SPECTRUM_EPS * max(abs(v) for v in hull.vertices):
        expect = 0.0
    assert d == expect
    assert ok == (d > margin)


@given(points_strategy, finite_complex,
       st.floats(-np.pi, np.pi),
       st.complex_numbers(max_magnitude=10, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=150, deadline=None)
def test_distance_equivariance(points, z, phi, shift):
    rot = cmath.exp(1j * phi)
    d1 = hull_distance(convex_hull(points), z)
    d2 = hull_distance(convex_hull([rot * p + shift for p in points]),
                       rot * z + shift)
    scale = max(1.0, d1)
    assert abs(d1 - d2) <= 1e-9 * scale


def _reference_hull_distance(hull, z):
    """Point-by-point loop: 0 inside (every edge turns left towards z, and
    z in the vertices' bounding box), else the nearest clamped projection
    onto an edge.  It runs in the frame the kernel gives z, the data
    scaled by 2^-k to largest part of the hull and z in [1/2, 1): the
    scaling is exact, and without it the squared edge length of tiny data
    underflows."""
    parts = [abs(x) for p in hull.vertices + (z,) for x in (p.real, p.imag)]
    k = math.frexp(max(parts))[1]

    def scaled(p):
        return complex(math.ldexp(p.real, -k), math.ldexp(p.imag, -k))

    return math.ldexp(_scaled_reference(
        [scaled(p) for p in hull.vertices], scaled(z)), k)


def _scaled_reference(v, z):
    ring = list(zip(v, v[1:] + v[:1]))
    cross = [((b - a).conjugate() * (z - a)).imag for a, b in ring]
    re, im = [p.real for p in v], [p.imag for p in v]
    if (len(v) > 2 and min(cross) >= 0 and min(re) <= z.real <= max(re)
            and min(im) <= z.imag <= max(im)):
        return 0.0
    best = math.inf
    for a, b in ring:
        d = b - a
        L2 = abs(d) ** 2
        t = ((z - a).conjugate() * d).real / L2 if L2 else 0.0
        best = min(best, abs(z - (a + min(1.0, max(0.0, t)) * d)))
    return best


@given(points_strategy, st.lists(finite_complex, min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_hull_distance_matches_the_point_loop(points, zs):
    hull = convex_hull(points)
    d = hull_distance(hull, np.array(zs))
    scale = max(abs(p) for p in hull.vertices)
    for got, z in zip(d, zs):
        want = _reference_hull_distance(hull, z)
        assert abs(got - want) <= 1e-12 * max(scale, abs(z)) + 1e-9 * want


def test_spectrum_point_distances():
    assert UnitCircle().distance_to(0.5j) == pytest.approx(0.5)
    assert UnitCircle().distance_to(3 + 0j) == pytest.approx(2.0)
    assert PositiveHalfLine().distance_to(2 + 3j) == pytest.approx(3.0)
    assert PositiveHalfLine().distance_to(-3 - 4j) == pytest.approx(5.0)
    assert ImaginaryAxis().distance_to(-2 + 7j) == pytest.approx(2.0)
    assert PointSpectrum((1j, -1j)).distance_to(0j) == pytest.approx(1.0)


def test_degenerate_hull_spectrum_distance():
    point = HullPolygon((0.25 + 0j,))
    assert hull_separated_from(point, UnitCircle())[1] == pytest.approx(0.75)
    seg = HullPolygon((-0.5 + 0j, 0.5 + 0j))
    assert hull_separated_from(seg, UnitCircle())[1] == pytest.approx(0.5)


@pytest.mark.parametrize("k", range(-1060, 1020, 53))
def test_segment_distance_at_every_scale(k):
    # below about 2^-530 the squared edge length of the unscaled data
    # underflows, and the point 0 on the segment got the distance of an end
    seg = convex_hull([-5.03 * 2.0 ** k + 0j, 0.0183 * 2.0 ** k + 0j])
    assert hull_distance(seg, 0j) == 0.0
    assert hull_distance(seg, 1j * 2.0 ** k) == 2.0 ** k


def test_tiny_hull_distance_ignores_the_other_points_scale():
    # the point 1 in the same call must not move 0 into a frame where the
    # tiny segment's squared length underflows
    seg = convex_hull([6.8631999012018e-200 + 0j, 4.0112641230263976e-200j])
    alone = hull_distance(seg, 0j)
    assert alone == pytest.approx(3.4631462666173655e-200, rel=1e-12, abs=0)
    assert hull_distance(seg, np.array([0j, 1 + 0j]))[0] == alone


def test_sliver_hull_membership():
    # every cross product's sign is rounding for a point on the line of
    # this thin triangle's long edges; the point lies 6 beyond its tip
    r = cmath.exp(2j)
    hull = convex_hull([0j, 1.5571239624309817e-78 * r, -1j * r])
    assert hull_distance(hull, -7j * r) == pytest.approx(6.0, rel=1e-12)


@given(st.floats(-np.pi, np.pi), st.floats(-80, -10), st.floats(-3, 3),
       st.floats(1.5, 10))
@settings(max_examples=200, deadline=None)
def test_thin_triangle_beyond_its_tip(phi, log_width, log_length, k):
    rot = cmath.exp(1j * phi)
    length = 10.0 ** log_length
    hull = convex_hull([0j, 10.0 ** log_width * rot, -1j * length * rot])
    d = hull_distance(hull, -1j * k * length * rot)
    assert d == pytest.approx((k - 1) * length, rel=1e-9)


class TestArrays:
    HULL = convex_hull([0j, 2 + 0j, 2 + 2j, 1j])
    POINTS = np.array([1 + 1j, 3 + 0j, -1 - 1j, 2 + 1j, 5 + 5j, 0.5j])

    def test_hull_distance_of_an_array_is_elementwise(self):
        d = hull_distance(self.HULL, self.POINTS)
        assert isinstance(d, np.ndarray) and d.shape == self.POINTS.shape
        assert d.tolist() == [hull_distance(self.HULL, complex(z))
                              for z in self.POINTS]
        assert isinstance(hull_distance(self.HULL, 1j), float)

    def test_large_point_sets_match_small_blocks(self):
        rng = np.random.default_rng(0)
        z = 3 * (rng.standard_normal(300_001) + 1j * rng.standard_normal(
            300_001))
        d = hull_distance(self.HULL, z)
        assert np.array_equal(d[-7:], hull_distance(self.HULL, z[-7:]))

    @pytest.mark.parametrize("spectrum", [
        UnitCircle(), PositiveHalfLine(), ImaginaryAxis(),
        PointSpectrum([1j, -1j, 4 + 0j])])
    def test_distance_to_takes_an_array(self, spectrum):
        d = spectrum.distance_to(self.POINTS)
        assert d.shape == self.POINTS.shape
        assert d.tolist() == pytest.approx(
            [spectrum.distance_to(complex(z)) for z in self.POINTS],
            rel=1e-15)

    def test_point_spectrum_holds_an_array(self):
        spectrum = PointSpectrum((1j, 2 + 0j))
        assert isinstance(spectrum.points, np.ndarray)
        assert spectrum.points.dtype == complex
        assert spectrum.points.tolist() == [1j, 2 + 0j]
        with pytest.raises(EmptyInputError):
            PointSpectrum(())


def test_ray_distance_from_the_nearer_end():
    # nearest the ray at its end 0, inside an edge of the hull
    hull = convex_hull([-1 + 2j, -1 - 2j, -3 + 0j])
    ok, d = hull_separated_from(hull, PositiveHalfLine())
    assert ok and d == pytest.approx(1.0)
    # nearest the ray at a hull vertex above it, with a vertex in Re < 0
    hull = convex_hull([1 + 1j, 3 + 2j, -2 + 4j])
    ok, d = hull_separated_from(hull, PositiveHalfLine())
    assert ok and d == pytest.approx(1.0)


def test_hull_distance_near_the_float_range():
    # the kernel squares edge lengths and projections: in the data's own
    # scale they stay finite, and only a distance past the float range is
    # inf, never NaN, with no warning
    hull = convex_hull([1e308 + 0j, -1e308j])
    z = np.array([0j, -1e308 - 1e308j, 1.7e308 + 1.7e308j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = hull_distance(hull, z)
        assert hull_distance(hull, 0j) == d[0]
    np.testing.assert_allclose(d[:2], [1e308 / math.sqrt(2), 1e308],
                               rtol=1e-15)
    assert d[2] == math.inf
