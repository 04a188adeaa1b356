"""Periodic structured grids, derivatives, and quadrature.

Fields are numpy arrays whose leading axes run over grid nodes and whose
trailing axes are tensor components.  Two derivative schemes are supported:

* ``spectral``: term-by-term FFT differentiation, exact for band-limited
  fields and superalgebraically convergent for analytic ones;
* ``central4``: fourth-order central differences on the periodic stencil.

Quadrature is the periodic trapezoid rule (node average times volume), which
is spectrally accurate for smooth integrands; excised nodes carry weight zero.
"""

from __future__ import annotations

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

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(p / s for p, s in zip(self.periods, self.sizes))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis_coords(self, axis: int) -> np.ndarray:
        n, L = self.sizes[axis], self.periods[axis]
        return np.arange(n) * (L / n)

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.axis_coords(i) for i in range(self.dim)), indexing="ij"))

    @property
    def node_count(self) -> int:
        return int(np.prod(self.sizes))


def _spectral_derivative(values: np.ndarray, axis: int, period: float, n: int) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    shape = [1] * values.ndim
    shape[axis] = n
    ik = (1j * k).reshape(shape)
    return np.real(np.fft.ifft(ik * np.fft.fft(values, axis=axis), axis=axis))


def _central4_derivative(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    f1 = np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)
    f2 = np.roll(values, -2, axis=axis) - np.roll(values, 2, axis=axis)
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


def dump_fields(
    grid: PeriodicGrid, fields: dict[str, np.ndarray], path: str, fmt: str = "npz"
) -> None:
    """Write node coordinates and named component arrays for external plotting.

    ``npz`` stores the coordinate meshes as ``coord0``, ``coord1``, ... plus
    one array per field; ``csv`` emits a flat table with one row per node and
    one column per tensor component (multi-component fields are suffixed with
    the flattened component index).
    """
    coords = grid.meshgrid()
    if fmt == "npz":
        payload = {f"coord{i}": c for i, c in enumerate(coords)}
        for name, values in fields.items():
            payload[name] = np.asarray(values)
        np.savez(path, **payload)
        return
    if fmt == "csv":
        columns: list[tuple[str, np.ndarray]] = [
            (f"coord{i}", c.ravel()) for i, c in enumerate(coords)
        ]
        n_nodes = grid.node_count
        for name, values in fields.items():
            values = np.asarray(values)
            flat = values.reshape(n_nodes, -1)
            if flat.shape[1] == 1:
                columns.append((name, flat[:, 0]))
            else:
                for j in range(flat.shape[1]):
                    columns.append((f"{name}_{j}", flat[:, j]))
        with open(path, "w") as fh:
            fh.write(",".join(name for name, _ in columns) + "\n")
            data = np.column_stack([col for _, col in columns])
            for row in data:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return
    raise ValueError(f"unknown dump format {fmt!r}")


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
