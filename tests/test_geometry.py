"""Geometry layer: windows, point processes, lattices, nearest-site queries."""

import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree

from renergy import geometry
from renergy.energy_field import (EnergyFieldSpec, FieldRealization, Kernel, draw_field,
                                  field_values)
from renergy.geometry import (PointSet, Window, default_window_side, hex_cell_circumradius,
                              hex_cell_distances, hex_lattice, hex_pitch,
                              nearest_site_indices, sample_in_hex_cell, separation,
                              substream)

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


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: sample_in_hex_cell(math.nan, 3, substream(1, 0)), ValueError,
                 id="hex-cell-nan"),
    pytest.param(lambda: sample_in_hex_cell(math.inf, 3, substream(1, 0)), ValueError,
                 id="hex-cell-inf"),
    pytest.param(lambda: hex_cell_distances(math.nan, 3, substream(1, 0)), ValueError,
                 id="hex-distances-nan"),
    pytest.param(lambda: hex_cell_distances(math.inf, 3, substream(1, 0)), ValueError,
                 id="hex-distances-inf"),
    pytest.param(lambda: default_window_side(0.78, math.nan), ValueError,
                 id="window-side-nu-nan"),
    pytest.param(lambda: default_window_side(math.nan, 1.0), ValueError,
                 id="window-side-lambda-b-nan"),
    pytest.param(lambda: default_window_side(0.78, math.inf), ValueError,
                 id="window-side-nu-inf"),
    pytest.param(lambda: Window(math.inf, 1.0), ValueError, id="window-inf"),
    pytest.param(lambda: substream(1.5, 2), TypeError, id="substream-float-seed"),
    pytest.param(lambda: substream(1, 2.5), TypeError, id="substream-float-key"),
])
def test_geometry_helpers_reject_non_finite_input(call, error):
    # each of these used to overflow, return nan or inf, drop the nan, or
    # truncate a seed or key to another stream's
    with pytest.raises(error):
        call()


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
    # the monkeypatch fixture would not be reset between hypothesis examples
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_NEAREST_CHUNK", 7)
        idx, dist = nearest_site_indices(queries, sites, w)
    spec = EnergyFieldSpec(gamma=2.0, lambda_e=1.0, nu=9.0, kernel=Kernel.BOOLEAN_MAX_EXP)
    vals = field_values(FieldRealization(spec, PointSet(sites), w), queries)
    for i, q in enumerate(queries):
        d = _image_distances(q, sites, w)
        d_exact = min(d)
        assert dist[i] == pytest.approx(d_exact, abs=1e-9)
        # the reported index must realize the minimal distance
        assert d[idx[i]] == pytest.approx(d_exact, abs=1e-9)
        assert vals[i, 0] == pytest.approx(2.0 * math.exp(-d_exact ** 2 / 9.0), rel=1e-9)


def test_nearest_site_indices_agrees_with_neighbor_index(monkeypatch):
    """Cross-check against an independent neighbor index: scipy's kd-tree
    with a periodic box."""
    monkeypatch.setattr(geometry, "_NEAREST_CHUNK", 64)
    w = Window(5.0, 5.0, wrap=True)
    rng = substream(31, 0)
    sites = rng.uniform((0, 0), (5, 5), size=(40, 2))
    pts = rng.uniform((0, 0), (5, 5), size=(500, 2))
    idx_a, dist_a = nearest_site_indices(pts, sites, w)
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


class TestHexCellDistances:
    """The cell's distance law drawn directly: two uniforms per point."""

    # z bound of the moment checks: fixed seeds, so a pass is deterministic,
    # and a correct law fails one with probability below 1e-4
    Z = 4.0

    @pytest.mark.parametrize("lambda_b, seed", [(0.78, 5), (5.0, 6)])
    def test_law_matches_rejection_sampled_positions(self, lambda_b, seed):
        R = hex_cell_circumradius(lambda_b)
        d = hex_cell_distances(R, 40000, substream(seed, 0))
        pts = sample_in_hex_cell(R, 40000, substream(seed, 1))
        p = stats.ks_2samp(d, np.hypot(pts[:, 0], pts[:, 1])).pvalue
        assert p > 0.01, f"two-sample KS p = {p:.3g} at lambda_b {lambda_b}"

    def test_moments_match_the_exact_values(self):
        R = 1.3
        r_in = R * math.sqrt(3.0) / 2.0
        n = 200000
        d = hex_cell_distances(R, n, substream(89, 0))
        # E[d^2] = r_in^2 E[u0] E[1 + u1^2 / 3] = 5 r_in^2 / 9
        d2 = d * d
        z = (d2.mean() - 5.0 * r_in ** 2 / 9.0) / (d2.std() / math.sqrt(n))
        assert abs(z) < self.Z
        # the inscribed disk holds pi r_in^2 of the cell's area 2 sqrt(3) r_in^2
        inside = math.pi * math.sqrt(3.0) / 6.0
        z = (np.mean(d <= r_in) - inside) / math.sqrt(inside * (1.0 - inside) / n)
        assert abs(z) < self.Z

    def test_distances_lie_in_the_cell(self):
        R = 0.7
        d = hex_cell_distances(R, 100000, substream(90, 0))
        assert d.shape == (100000,)
        assert np.all((d >= 0.0) & (d <= R))

        class Extreme:
            # uniforms at the ends of [0, 1): the center and the corner
            def __init__(self, u):
                self.u = u

            def random(self, shape):
                return np.full(shape, self.u)

        assert hex_cell_distances(R, 3, Extreme(0.0)).tolist() == [0.0] * 3
        top = hex_cell_distances(R, 3, Extreme(np.nextafter(1.0, 0.0)))
        assert np.all(top <= R) and top[0] == pytest.approx(R, rel=1e-15)

    def test_draw_is_one_block_of_uniforms(self):
        # the user stream's layout: one random((2, n)) call, u0 in row 0
        R, n = 1.1, 1000
        rng, ref = substream(91, 0), substream(91, 0)
        d = hex_cell_distances(R, n, rng)
        u0, u1 = ref.random((2, n))
        want = R * math.sqrt(3.0) / 2.0 * np.sqrt(u0 * (1.0 + u1 * u1 / 3.0))
        assert np.allclose(d, want, rtol=1e-14, atol=0.0)
        assert rng.random() == ref.random()

    def test_empty_and_invalid(self):
        assert hex_cell_distances(1.0, 0, substream(92, 0)).shape == (0,)
        with pytest.raises(ValueError):
            hex_cell_distances(-1.0, 5, substream(92, 1))
