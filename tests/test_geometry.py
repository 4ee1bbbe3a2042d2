"""Geometry layer: windows, point processes, lattices, nearest-site queries."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from renergy.energy_field import (EnergyFieldSpec, FieldRealization, Kernel, draw_field,
                                  field_values)
from renergy.geometry import (BLOCK, PointSet, Window, block_spans, hex_cell_circumradius,
                              hex_lattice, hex_pitch, nearest_site_indices,
                              sample_in_hex_cell, separation, substream)

# Reference values for a unit-density triangular lattice (closed forms
# sqrt(2/sqrt(3)) and sqrt(2/(3*sqrt(3))), frozen by an independent script).
PITCH_AT_UNIT_DENSITY = 1.0745699318235419
CELL_RADIUS_AT_UNIT_DENSITY = 0.62040323940139973


def test_substream_reproducible_and_keyed():
    a = substream(42, 7).standard_normal(5)
    b = substream(42, 7).standard_normal(5)
    c = substream(42, 8).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(substream(43, 7).standard_normal(5), a)


def test_substream_multicomponent_keys_differ():
    assert not np.array_equal(substream(1, 2, 3).standard_normal(4),
                              substream(1, 3, 2).standard_normal(4))


def test_substream_rejects_negative_seed():
    with pytest.raises(ValueError):
        substream(-1, 0)


def test_block_spans_split_at_block_edges():
    assert list(block_spans(0, 0)) == list(block_spans(300, 300)) == []
    assert list(block_spans(3, 10)) == [(0, 3, 10)]
    assert list(block_spans(200, BLOCK)) == [(0, 200, BLOCK)]
    assert list(block_spans(BLOCK - 1, 2 * BLOCK + 5)) == [
        (0, BLOCK - 1, BLOCK), (1, 0, BLOCK), (2, 0, 5)]
    for start, stop in ((-1, 3), (5, 3)):
        with pytest.raises(ValueError):
            list(block_spans(start, stop))


def test_window_basics():
    w = Window(4.0, 2.0)
    assert w.area == 8.0
    assert np.array_equal(w.center, [2.0, 1.0])
    with pytest.raises(ValueError):
        Window(0.0, 1.0)


def test_pointset_is_immutable_and_copies():
    pts = np.zeros((3, 2))
    ps = PointSet(pts)
    pts[0, 0] = 5.0
    assert ps.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        ps.points[0, 0] = 1.0


def _center_block(intensity, window, rng, n=1):
    """A block of n draws of the energy-center process at the given intensity."""
    return draw_field(EnergyFieldSpec(gamma=1.0, lambda_e=intensity, nu=1.0),
                      window, rng, n)


def test_ppp_void_probability():
    # P(no point in a unit window at intensity 1) = exp(-1)
    w = Window(1.0, 1.0)
    counts = _center_block(1.0, w, substream(101, 0), 4000).counts
    p = np.count_nonzero(counts == 0) / 4000
    assert abs(p - math.exp(-1.0)) < 0.025  # ~3.3 binomial sd


def test_ppp_count_mean_and_variance():
    w = Window(5.0, 4.0)
    counts = _center_block(10.0, w, substream(55, 0), 500).counts
    # Poisson(200): mean within 4 standard errors, variance within 25%
    assert abs(counts.mean() - 200.0) < 4.0 * math.sqrt(200.0 / 500)
    assert 150.0 < counts.var() < 250.0


def test_ppp_points_inside_window():
    w = Window(3.0, 7.0)
    ps = _center_block(30.0, w, substream(9, 0), 4).centers
    assert np.all(ps.points[:, 0] >= 0) and np.all(ps.points[:, 0] < 3.0)
    assert np.all(ps.points[:, 1] >= 0) and np.all(ps.points[:, 1] < 7.0)
    assert ps.intensity == 30.0


def test_minimal_image_distance():
    w = Window(10.0, 10.0, wrap=True)
    flat = Window(10.0, 10.0, wrap=False)
    dx, dy = np.array([1.0 - 9.0]), np.array([1.0 - 9.0])
    assert separation(dx, dy, w)[0] == pytest.approx(math.sqrt(8.0))
    assert separation(dx, dy, flat)[0] == pytest.approx(math.sqrt(128.0))
    assert dx[0] == -8.0 and dy[0] == -8.0  # inputs are left untouched
    # on the torus it is the minimum over the nine translated copies
    d = substream(3, 0).uniform(-10.0, 10.0, size=(2, 50))
    s = separation(d[0], d[1], w)
    for i in range(50):
        assert s[i] == pytest.approx(min(math.hypot(d[0, i] + ox, d[1, i] + oy)
                                         for ox in (-10.0, 0.0, 10.0)
                                         for oy in (-10.0, 0.0, 10.0)))


def test_nearest_breaks_ties_toward_lowest_index():
    sites = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = Window(10.0, 10.0, wrap=False)
    origin = np.array([[0.0, 0.0]])
    idx, d = nearest_site_indices(origin, sites, w)
    assert idx[0] == 0 and d[0] == pytest.approx(1.0)
    assert nearest_site_indices(origin, sites[::-1], w)[0][0] == 0
    with pytest.raises(ValueError):
        nearest_site_indices(origin, np.empty((0, 2)), w)


def _image_distances(point, sites, window):
    """Distance from point to every site by exhaustive search over the nine
    translated copies of the sites (the sites themselves when flat)."""
    shifts = [(ox * window.width, oy * window.height)
              for ox in (-1, 0, 1) for oy in (-1, 0, 1)] if window.wrap else [(0.0, 0.0)]
    px, py = point
    return [min(math.hypot(px - sx - ox, py - sy - oy) for ox, oy in shifts)
            for sx, sy in sites]


_BOX = (8.0, 6.0)
_box_points = st.lists(st.tuples(st.floats(0.0, _BOX[0], exclude_max=True),
                                 st.floats(0.0, _BOX[1], exclude_max=True)),
                       min_size=1, max_size=25)


@pytest.mark.parametrize("wrap", [True, False])
@settings(max_examples=60, deadline=None)
@given(sites=_box_points, queries=_box_points)
def test_neighbor_index_matches_exhaustive(wrap, sites, queries):
    """nearest_site_indices and the boolean field agree with the brute force."""
    w = Window(*_BOX, wrap=wrap)
    sites, queries = np.array(sites), np.array(queries)
    idx, dist = nearest_site_indices(queries, sites, w, chunk=7)
    spec = EnergyFieldSpec(gamma=2.0, lambda_e=1.0, nu=9.0, kernel=Kernel.BOOLEAN_MAX_EXP)
    vals = field_values(FieldRealization(spec, PointSet(sites), w), queries)
    for i, q in enumerate(queries):
        d = _image_distances(q, sites, w)
        d_exact = min(d)
        assert dist[i] == pytest.approx(d_exact, abs=1e-9)
        # the reported index must realize the minimal distance
        assert d[idx[i]] == pytest.approx(d_exact, abs=1e-9)
        assert vals[i, 0] == pytest.approx(2.0 * math.exp(-d_exact ** 2 / 9.0), rel=1e-9)


def test_nearest_site_indices_agrees_with_neighbor_index():
    """Cross-check against an independent neighbor index: scipy's kd-tree
    with a periodic box."""
    w = Window(5.0, 5.0, wrap=True)
    rng = substream(31, 0)
    sites = rng.uniform((0, 0), (5, 5), size=(40, 2))
    pts = rng.uniform((0, 0), (5, 5), size=(500, 2))
    idx_a, dist_a = nearest_site_indices(pts, sites, w, chunk=64)
    dist_b, idx_b = cKDTree(sites, boxsize=(5.0, 5.0)).query(pts)
    assert np.allclose(dist_a, dist_b, atol=1e-9)
    disagree = idx_a != idx_b
    # any disagreement must be an exact distance tie
    tied = separation(pts[disagree, 0] - sites[idx_b[disagree], 0],
                      pts[disagree, 1] - sites[idx_b[disagree], 1], w)
    assert np.allclose(dist_a[disagree], tied, atol=1e-9)


def test_hex_pitch_and_radius_reference_values():
    assert hex_pitch(1.0) == pytest.approx(PITCH_AT_UNIT_DENSITY, rel=1e-12)
    assert hex_cell_circumradius(1.0) == pytest.approx(CELL_RADIUS_AT_UNIT_DENSITY,
                                                       rel=1e-12)
    # scaling: pitch ~ density^(-1/2)
    assert hex_pitch(4.0) == pytest.approx(PITCH_AT_UNIT_DENSITY / 2.0, rel=1e-12)


def test_hex_lattice_commensurate_count_and_spacing():
    density = 2.0
    a = hex_pitch(density)
    w = Window(3 * a, 2 * math.sqrt(3.0) * a, wrap=True)
    lat = hex_lattice(density, w)
    assert len(lat.sites) == round(w.area * density) == 12
    assert lat.cell_area == pytest.approx(1.0 / density)
    pts = lat.sites.points
    # one site at the window center
    assert nearest_site_indices(w.center, pts, w)[1][0] < 1e-9
    # toroidal nearest-neighbor spacing equals the pitch for every site
    for i in range(len(pts)):
        others = np.delete(pts, i, axis=0)
        d = separation(others[:, 0] - pts[i, 0], others[:, 1] - pts[i, 1], w)
        assert d.min() == pytest.approx(a, rel=1e-9)


def test_hex_lattice_rejects_window_below_one_cell():
    with pytest.raises(ValueError):
        hex_lattice(1.0, Window(0.5, 0.5))


class TestHexCellSampler:
    R = 1.3

    def _sample(self, n, key=0):
        return sample_in_hex_cell(self.R, n, substream(88, key))

    def test_points_inside_hexagon(self):
        pts = self._sample(20000)
        x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
        s3 = math.sqrt(3.0)
        assert np.all(x <= s3 * self.R / 2 + 1e-12)
        assert np.all(x + s3 * y <= s3 * self.R + 1e-12)

    def test_radial_moments(self):
        # uniform hexagon with circumradius R: E[r^2] = 5 R^2 / 12 and
        # E[r^4] = 7 R^4 / 30 (independent quadrature oracle)
        pts = self._sample(200000, key=1)
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        m2, m4 = r2.mean(), (r2 ** 2).mean()
        se2 = r2.std() / math.sqrt(len(r2))
        se4 = (r2 ** 2).std() / math.sqrt(len(r2))
        assert abs(m2 - 5.0 * self.R ** 2 / 12.0) < 3 * se2
        assert abs(m4 - 7.0 * self.R ** 4 / 30.0) < 3 * se4

    def test_mean_distance_power_below_disk_moment(self):
        # the covering-disk fourth moment (2/(2+alpha)) R^4 dominates the
        # hexagon's (exact ratio 7/30 vs 1/3)
        pts = self._sample(100000, key=2)
        m4 = ((pts[:, 0] ** 2 + pts[:, 1] ** 2) ** 2).mean()
        assert m4 < (2.0 / 6.0) * self.R ** 4

    def test_empty_and_invalid(self):
        assert self._sample(0).shape == (0, 2)
        with pytest.raises(ValueError):
            sample_in_hex_cell(-1.0, 5, substream(88, 3))
