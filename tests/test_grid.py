import numpy as np
import pytest

from randers_foliations.grid import (
    PeriodicGrid,
    derivative_values,
    dump_fields,
    trapezoid_integral,
)


@pytest.fixture
def grid2d():
    return PeriodicGrid((64, 64), (1.0, 2.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid((4, 64), (1.0, 1.0))
    with pytest.raises(ValueError):
        PeriodicGrid((64,), (1.0,))
    with pytest.raises(ValueError):
        PeriodicGrid((64, 64), (1.0, -1.0))


def test_spectral_derivative_exact_on_modes(grid2d):
    x, y = grid2d.meshgrid()
    f = np.sin(2 * np.pi * x / 1.0)
    df = derivative_values(f, grid2d, 0, "spectral")
    assert np.max(np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12
    g = np.cos(2 * np.pi * y / 2.0)
    dg = derivative_values(g, grid2d, 1, "spectral")
    assert np.max(np.abs(dg + np.pi * np.sin(np.pi * y))) < 1e-12


def test_derivative_of_constant_is_zero(grid2d):
    f = np.full(grid2d.sizes, 3.7)
    for scheme in ("spectral", "central4"):
        assert np.max(np.abs(derivative_values(f, grid2d, 0, scheme))) < 1e-13


def test_central4_convergence_order():
    errs = []
    for n in (64, 128):
        g = PeriodicGrid((n, 8), (2 * np.pi, 1.0))
        x = g.meshgrid()[0]
        f = np.exp(np.sin(x))
        df = derivative_values(f, g, 0, "central4")
        errs.append(np.max(np.abs(df - np.cos(x) * f)))
    # fourth order: halving h cuts the error by about 16
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.2)


def test_derivative_rejects_bad_axis_and_scheme(grid2d):
    f = np.zeros(grid2d.sizes)
    with pytest.raises(ValueError):
        derivative_values(f, grid2d, 2, "spectral")
    with pytest.raises(ValueError):
        derivative_values(f, grid2d, 0, "upwind")


def test_spectral_superalgebraic_convergence():
    # analytic periodic field: error below 1e-10 already at 64 points
    g = PeriodicGrid((64, 8), (2 * np.pi, 1.0))
    x = g.meshgrid()[0]
    f = np.exp(np.sin(x))
    df = derivative_values(f, g, 0, "spectral")
    assert np.max(np.abs(df - np.cos(x) * f)) < 1e-10


def test_trapezoid_unit_volume(grid2d):
    val = trapezoid_integral(grid2d, np.ones(grid2d.sizes))
    assert val == pytest.approx(2.0, abs=1e-14)


def test_trapezoid_spectral_accuracy():
    # smooth periodic integrand: trapezoid is spectrally accurate
    g = PeriodicGrid((32, 32), (2 * np.pi, 2 * np.pi))
    x, y = g.meshgrid()
    f = np.exp(np.sin(x)) * np.exp(np.cos(y))
    # reference value from a much finer grid of the same rule
    gref = PeriodicGrid((256, 256), (2 * np.pi, 2 * np.pi))
    xr, yr = gref.meshgrid()
    ref = trapezoid_integral(gref, np.exp(np.sin(xr)) * np.exp(np.cos(yr)))
    assert trapezoid_integral(g, f) == pytest.approx(ref, rel=1e-12)


def test_trapezoid_mask_and_nan_policy(grid2d):
    f = np.ones(grid2d.sizes)
    mask = np.ones(grid2d.sizes, bool)
    mask[0, 0] = False
    f[0, 0] = np.nan  # masked nodes may hold garbage
    val = trapezoid_integral(grid2d, f, mask=mask)
    assert val == pytest.approx(2.0 - grid2d.cell_volume, rel=1e-12)
    f[3, 3] = np.nan  # active nan must raise
    with pytest.raises(FloatingPointError):
        trapezoid_integral(grid2d, f, mask=mask)


def test_dump_fields_roundtrip(tmp_path, grid2d):
    x, y = grid2d.meshgrid()
    fields = {"scalar": np.sin(x), "vector": np.stack([x, y], axis=-1)}
    npz_path = tmp_path / "fields.npz"
    dump_fields(grid2d, fields, str(npz_path), "npz")
    data = np.load(npz_path)
    np.testing.assert_allclose(data["scalar"], np.sin(x))
    np.testing.assert_allclose(data["coord0"], x)
    csv_path = tmp_path / "fields.csv"
    dump_fields(grid2d, fields, str(csv_path), "csv")
    header = csv_path.read_text().splitlines()[0]
    assert header == "coord0,coord1,scalar,vector_0,vector_1"
