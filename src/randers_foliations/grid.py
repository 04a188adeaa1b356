"""Periodic structured grids, derivatives, and quadrature.

Fields are numpy arrays whose leading axes run over grid nodes and whose
trailing axes are tensor components.  Two derivative schemes are supported:

* ``spectral``: term-by-term real-FFT differentiation, exact for
  band-limited fields and superalgebraically convergent for analytic ones;
* ``central4``: fourth-order central differences on the periodic stencil.

Quadrature is the periodic trapezoid rule (node average times volume), which
is spectrally accurate for smooth integrands; excised nodes carry weight zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PeriodicGrid",
    "derivative_values",
    "trapezoid_integral",
    "SCHEMES",
]

SCHEMES = ("spectral", "central4")

MIN_SIZE = 8


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on the torus [0, L_1) x ... x [0, L_dim)."""

    sizes: tuple[int, ...]
    periods: tuple[float, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        periods = tuple(float(p) for p in self.periods)
        if len(sizes) != len(periods):
            raise ValueError("sizes and periods must have the same length")
        if len(sizes) not in (2, 3):
            raise ValueError("only 2- and 3-dimensional grids are supported")
        if any(s < MIN_SIZE for s in sizes):
            raise ValueError(f"grid sizes must be >= {MIN_SIZE}")
        if any(p <= 0 for p in periods):
            raise ValueError("periods must be positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "periods", periods)
        # quadrature scales by the cell volume: 0 (underflow) would pass any integral, inf none
        if not np.finfo(float).tiny <= self.cell_volume < np.inf:
            raise ValueError(f"periods {periods} at sizes {sizes} give a cell volume of "
                             f"{self.cell_volume:g}, which is not a finite normal float")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / s for p, s in zip(self.periods, self.sizes))

    @cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacings)  # inf or 0 past the float range, without a warning

    def axis_coords(self, axis: int) -> np.ndarray:
        n, L = self.sizes[axis], self.periods[axis]
        return np.arange(n) * (L / n)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.axis_coords(i) for i in range(self.dim)), indexing="ij"))


def _spectral_derivative(values: np.ndarray, axis: int, period: float, n: int) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)
    if n % 2 == 0:
        k[-1] = 0.0  # the Nyquist mode of a real field has no real derivative
    shape = [1] * values.ndim
    shape[axis] = k.size
    spectrum = np.fft.rfft(values, axis=axis)
    spectrum *= (1j * k).reshape(shape)
    return np.fft.irfft(spectrum, n=n, axis=axis)


def _central4_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    n = values.shape[axis]
    # two wrapped ghost layers on each side; the shifts are views into them
    padded = np.take(values, np.arange(-2, n + 2) % n, axis=axis)

    def shifted(s: int) -> np.ndarray:
        index = [slice(None)] * values.ndim
        index[axis] = slice(2 + s, 2 + s + n)
        return padded[tuple(index)]

    f1 = shifted(1) - shifted(-1)
    f2 = shifted(2) - shifted(-2)
    return (8.0 * f1 - f2) / (12.0 * h)


def derivative_values(values: np.ndarray, grid: PeriodicGrid, axis: int, scheme: str) -> np.ndarray:
    """Componentwise partial derivative along a grid axis."""
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for a {grid.dim}-dimensional grid")
    values = np.asarray(values)
    if scheme == "spectral":
        return _spectral_derivative(values, axis, grid.periods[axis], grid.sizes[axis])
    if scheme == "central4":
        return _central4_derivative(values, axis, grid.spacings[axis])
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def trapezoid_integral(
    grid: PeriodicGrid,
    values: np.ndarray,
    weight: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> float:
    """Periodic trapezoid quadrature; masked-out nodes contribute zero.

    ``mask`` is True on active nodes.  Raises on non-finite values at active
    nodes.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != grid.sizes:
        raise ValueError(f"scalar field shape {values.shape} does not match grid {grid.sizes}")
    integrand = values if weight is None else values * weight
    if mask is not None:
        if not np.all(np.isfinite(integrand[mask])):
            raise FloatingPointError("non-finite integrand at active nodes")
        integrand = np.where(mask, integrand, 0.0)
    else:
        if not np.all(np.isfinite(integrand)):
            raise FloatingPointError("non-finite integrand")
    return float(integrand.sum() * grid.cell_volume)
