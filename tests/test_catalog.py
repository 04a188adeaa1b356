"""The parameter table: every example reads exactly its rows, and any value
either builds or raises a one-line ExampleError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randers_foliations import catalog
from randers_foliations.catalog import (
    EXAMPLES,
    ExampleError,
    ExampleSpec,
    build_example,
    example_names,
    parse_params,
    sweep_points,
)
from randers_foliations.grid import MIN_SIZE


def _modes(name):
    rows = EXAMPLES[name].params
    return rows["beta_mode"].bounds if "beta_mode" in rows else (None,)


@pytest.fixture(scope="module")
def smallest():
    """The smallest grid size at which each example builds at its defaults."""
    sizes = {}
    for name in example_names():
        for n in range(MIN_SIZE, max(EXAMPLES[name].resolutions) + 1):
            try:
                build_example(ExampleSpec(name, {"n": n}))
            except ExampleError:
                continue
            sizes[name] = n
            break
    return sizes


class _Reads(dict):
    """Resolved parameters that record which keys are read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("name", example_names())
def test_builders_read_exactly_their_rows(name, smallest, monkeypatch):
    # the builder and the sweep (sweep_points) are the only readers
    resolved = []
    resolve = catalog.resolve_params

    def recording(*args):
        resolved.append(_Reads(resolve(*args)))
        return resolved[-1]

    monkeypatch.setattr(catalog, "resolve_params", recording)
    for mode in _modes(name):
        spec = ExampleSpec(name, {"n": smallest[name], **({"beta_mode": mode} if mode else {})})
        resolved.clear()
        build_example(spec)
        sweep_points(spec, [smallest[name]])
        read = set().union(*(values.read for values in resolved))
        rows = {k for k, row in EXAMPLES[name].params.items()
                if not isinstance(row.default, dict) or mode in row.default}
        assert read == rows | {"n"}, mode


def test_a_torus_sweeps_each_distinct_size_ascending():
    probe, points = sweep_points(ExampleSpec("flat-graph", {"amplitude": 0.04}), [64, 48, 64, 32])
    assert [(spec.name, spec.params) for spec, _ in points] == [
        ("flat-graph", {"amplitude": 0.04, "n": n}) for n in (32, 48, 64)
    ]
    assert [masks for _, masks in points] == [None] * 3
    # the probe of every torus sweep is the coarsest grid there is
    assert probe == ExampleSpec("flat-graph", {"amplitude": 0.04, "n": 8})


def test_the_sphere_sweeps_its_radii_at_the_finest_size():
    probe, [(spec, masks)] = sweep_points(ExampleSpec("sphere-latitudes", {"r0": (0.25, 0.5, 0.25)}), [64])
    # built once, at the smallest radius; a radius given twice is swept once
    assert spec == ExampleSpec("sphere-latitudes", {"r0": 0.25, "n": 64})
    # the probe: n = 32, at 0.4, the smallest radius n = 32 admits, rounded up
    assert probe == ExampleSpec("sphere-latitudes", {"r0": 0.4, "n": 32})
    assert [r0 for r0, _ in masks] == [0.5, 0.25]
    for r0, mask in masks:
        assert np.array_equal(mask, build_example(ExampleSpec("sphere-latitudes", {"n": 64, "r0": r0})).mask)
    # a larger radius judges a subset of the smaller radius's nodes
    (_, wide), (_, narrow) = masks
    assert wide.sum() < narrow.sum() and not np.any(wide & ~narrow)
    # the default radii, largest first, and the build's mask is the smallest radius's
    probe, [(spec, masks)] = sweep_points(ExampleSpec("sphere-latitudes"), [256])
    assert [r0 for r0, _ in masks] == [0.2, 0.1, 0.05]
    # a probe is never finer than its point, nor its radius smaller
    assert probe == ExampleSpec("sphere-latitudes", {"r0": 0.4, "n": 32})
    assert sweep_points(ExampleSpec("sphere-latitudes", {"r0": 0.6}), [24])[0] == ExampleSpec(
        "sphere-latitudes", {"r0": 0.6, "n": 24})
    assert np.array_equal(masks[-1][1], build_example(spec).mask)


def test_a_radius_that_leaves_no_node_is_rejected():
    # odd n puts no row on the equator: at n = 255 the rows nearest it lie 127 pi / 255 from a pole
    message = "excision radius 1.565 leaves no node at n = 255; it must be below 127 pi / n = 1.5646"
    for r0 in (1.565, (1.565, 0.2)):
        with pytest.raises(ExampleError, match=message):
            sweep_points(ExampleSpec("sphere-latitudes", {"r0": r0}), [255])
    with pytest.raises(ExampleError, match=message):
        build_example(ExampleSpec("sphere-latitudes", {"n": 255, "r0": 1.565}))
    # just inside, the two rows nearest the equator stay (phi holds MIN_SIZE nodes)
    _, [(_, [(_, mask)])] = sweep_points(ExampleSpec("sphere-latitudes", {"r0": 127 * math.pi / 255 - 1e-9}), [255])
    assert mask.shape == (255, MIN_SIZE) and mask.sum() == 2 * MIN_SIZE


def test_api_rejects_lists_for_scalars_and_unknown_names():
    with pytest.raises(ExampleError, match="amplitude takes one value"):
        build_example(ExampleSpec("flat-graph", {"amplitude": [0.1, 0.2]}))
    with pytest.raises(ExampleError, match="unknown parameter"):
        build_example(ExampleSpec("flat-graph", {"bogus": 1}))
    with pytest.raises(ExampleError, match="grid size n must be an integer"):
        build_example(ExampleSpec("flat-graph", {"n": 16.5}))


_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.0, -1.0, math.pi / 2, math.nan, math.inf, -math.inf]),
)


def _values(row):
    """In- and out-of-bounds numbers, wrong arity, lists for scalars, and text."""
    wrong = st.one_of(_NUMBERS, st.lists(_NUMBERS, max_size=4), st.text(max_size=6))
    if row.kind == "choice":
        return st.one_of(st.sampled_from(row.bounds), wrong)
    lo, hi = row.bounds
    inside = st.floats(max(lo, -0.7), min(hi, 0.7), exclude_min=True, exclude_max=True)
    if row.kind == "tuple":
        inside = st.lists(inside, min_size=row.arity or 1, max_size=row.arity or 3).map(tuple)
    return st.one_of(inside, inside, wrong)


def _params(name):
    # the rows of every beta_mode, so names from another mode are drawn too
    return st.fixed_dictionaries({}, optional={key: _values(row) for key, row in EXAMPLES[name].params.items()})


def _build_or_example_error(name, params, n):
    try:
        M = build_example(ExampleSpec(name, {**params, "n": n}))
    except ExampleError as exc:
        assert "\n" not in str(exc)
    else:
        assert M.grid.sizes[0] == n


# the grid rejects a period whose cell volume leaves the normal float range (a
# subnormal period among them) before any field is formed; a period just inside
# it can still overflow a graph leaf's slope squared to inf and its normal to
# nan (numpy warns), which the manifold then rejects with an ExampleError
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_params_build_or_raise_one_line_example_error(data, smallest):
    name = data.draw(st.sampled_from(example_names()))
    _build_or_example_error(name, data.draw(_params(name)), smallest[name])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_param_text_parses_or_raises_one_line_example_error(data, smallest):
    name = data.draw(st.sampled_from(example_names()))
    keys = st.sampled_from(sorted(EXAMPLES[name].params) + ["bogus"])
    texts = data.draw(st.dictionaries(keys, st.text("0123456789.,-+einfa", max_size=12), max_size=3))
    try:
        params = parse_params(name, texts)
    except ExampleError as exc:
        assert "\n" not in str(exc)
        return
    _build_or_example_error(name, params, smallest[name])
