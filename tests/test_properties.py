"""Property tests at random inputs: each closed form against its operator-trace
oracle, the stacked oracles against one-state calls, the discord inversion
against the discord curve, and the JSON table against the CSV table it must
read back as, token by token."""

import json
import math
import sys
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corr_radiance.cli import (
    MAX_KL,
    RunConfig,
    _json_floats,
    cmd_fig4,
    cmd_fig5,
    render_csv,
    render_json,
)
from corr_radiance.correlations import discord_to_c, discord_werner_closed
from corr_radiance.emission import (
    UNDEFINED_INTENSITY_TOL,
    DetectionGeometry,
    g2_closed_werner,
    g2_oracle,
    intensity_closed_x,
    intensity_oracle,
    x_emission,
)
from corr_radiance.qstate import DensityMatrix, XStateParams, make_werner, make_x_state, x_states

# the tolerances of verify.suite_intensity_oracle and verify.suite_g2_oracle
INTENSITY_TOL = 1e-12
G2_TOL = 1e-12

EPS = sys.float_info.epsilon


@st.composite
def x_params(draw):
    cx, cy, cz = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    try:
        return XStateParams(cx, cy, cz)
    except ValueError:
        assume(False)


geometries = st.builds(
    DetectionGeometry.from_sin_beta,
    st.floats(1.0, MAX_KL, exclude_min=True),
    st.floats(-1.0, 1.0),
)


@settings(max_examples=300, deadline=None, database=None)
@given(params=x_params(), geom=geometries)
def test_intensity_closed_form_matches_the_trace(params, geom):
    rho = make_x_state(params)
    assert abs(intensity_oracle(rho, geom) - intensity_closed_x(params, geom)) <= INTENSITY_TOL


@settings(max_examples=300, deadline=None, database=None)
@given(c=st.floats(0.0, 1.0), geom=geometries)
def test_g2_closed_form_matches_the_trace_away_from_the_dark_points(c, geom):
    # g2 = (1 - c)/b^2 with b = 1 - c cos(phase): the suite's c grid keeps
    # b >= 0.05 wherever 1 - c > 0, and there an absolute 1e-12 holds
    bracket = 1.0 - c * math.cos(geom.phase)
    assume(c == 1.0 or bracket >= 0.05)
    closed = g2_closed_werner(c, geom)
    numeric = g2_oracle(make_werner(c), geom)
    assert (closed is None) == (numeric is None)
    if closed is not None:
        assert abs(numeric - closed) <= G2_TOL


@settings(max_examples=300, deadline=None, database=None)
@given(c=st.floats(0.0, 1.0), geom=geometries)
def test_g2_closed_form_matches_the_trace_to_its_conditioning(c, geom):
    # both routes round the bracket b by a few ulp of 1, so near b = 0 the
    # relative error grows as eps/b; an absolute bound cannot hold there
    bracket = 1.0 - c * math.cos(geom.phase)
    assume(abs(abs(bracket) - UNDEFINED_INTENSITY_TOL) > 1e-14)
    closed = g2_closed_werner(c, geom)
    numeric = g2_oracle(make_werner(c), geom)
    assert (closed is None) == (numeric is None)
    if closed is not None:
        assert abs(numeric - closed) <= G2_TOL + 16.0 * EPS * closed / abs(bracket)


@settings(max_examples=300, deadline=None, database=None)
@given(params=x_params(), geom=geometries)
def test_emission_kernel_matches_the_traces_off_the_werner_line(params, geom):
    # g2 = (1 + cz)/I^2 for every Bell-diagonal state, with the same
    # conditioning in I as on the Werner line
    e = x_emission(0.5 * (params.cx + params.cy), params.cz, math.cos(geom.phase))
    intensity = float(e.intensity)
    assume(abs(intensity - UNDEFINED_INTENSITY_TOL) > 1e-14)
    rho = make_x_state(params)
    assert abs(intensity_oracle(rho, geom) - intensity) <= INTENSITY_TOL
    numeric = g2_oracle(rho, geom)
    assert bool(e.undefined) == (numeric is None)
    if numeric is not None:
        g2 = float(e.g2)
        assert abs(numeric - g2) <= G2_TOL + 16.0 * EPS * g2 / intensity


# the singlet cx = cy = cz = -1 is dark wherever cos(kl sin beta) = 1
SINGLET = XStateParams(-1.0, -1.0, -1.0)
stacks = st.lists(st.one_of(x_params(), st.just(SINGLET)), min_size=1, max_size=8)
conventions = st.sampled_from(("indexed", "centered"))


@settings(max_examples=300, deadline=None, database=None)
@given(params=stacks, geom=geometries, convention=conventions)
@example(params=[XStateParams(0.0, 0.0, 0.0), SINGLET], geom=DetectionGeometry(2.0, 0.0), convention="centered")
def test_stacked_oracles_equal_one_state_calls(params, geom, convention):
    stack = x_states([astuple(p) for p in params])
    intensity = intensity_oracle(stack, geom, convention)
    g2 = g2_oracle(stack, geom, convention)
    assert intensity.shape == g2.shape == (len(params),)
    for rho, i, g in zip(map(make_x_state, params), intensity.tolist(), g2.tolist()):
        assert i.hex() == intensity_oracle(rho, geom, convention).hex()
        one = g2_oracle(rho, geom, convention)
        if one is None:
            assert math.isnan(g)
        else:
            assert g.hex() == one.hex()


def unvalidated(mat) -> DensityMatrix:
    """A DensityMatrix holding ``mat`` without the construction checks, to
    reach the oracles' own non-real test."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "mat", mat)
    return rho


# imaginary parts on the diagonal that make tr(rho E- E+) non-real, and ones
# that leave it real (E- E+ has diagonal 2, 1, 1, 0) but make the pair rate
# tr(rho E-^2 E+^2) non-real (E-^2 E+^2 = 4 |ee><ee|)
NON_REAL = {
    "intensity": ((1, 1, 0.25j),),
    "photon-pair rate": ((0, 0, 0.25j), (1, 1, -0.25j), (2, 2, -0.25j)),
}


@settings(max_examples=100, deadline=None, database=None)
@given(
    params=stacks,
    at=st.integers(0, 8),
    label=st.sampled_from(sorted(NON_REAL)),
    geom=geometries,
    convention=conventions,
)
def test_a_non_real_member_raises_as_it_does_alone(params, at, label, geom, convention):
    stack = x_states([astuple(p) for p in params])
    # a member of intensity 1, so that its pair rate is checked too
    bad = make_x_state(XStateParams(0.0, 0.0, 0.0)).mat.copy()
    for row, col, value in NON_REAL[label]:
        bad[row, col] += value
    stack = np.insert(stack, min(at, len(params)), bad, axis=0)
    oracles = (g2_oracle,) if label == "photon-pair rate" else (intensity_oracle, g2_oracle)
    for oracle in oracles:
        with pytest.raises(ValueError, match=f"^{label} came out non-real") as alone:
            oracle(unvalidated(bad), geom, convention)
        with pytest.raises(ValueError) as stacked:
            oracle(stack, geom, convention)
        assert str(stacked.value) == str(alone.value)


# the tolerance discord_to_c bisects to, in c and in discord
INVERSION_TOL = 1e-9


def discord_slope(c: float) -> float:
    """dD/dc of the Werner discord; about 2c / ln 2 near c = 0."""
    if c == 1.0:
        return math.inf
    return -0.25 * math.log2(1.0 - c) - 0.5 * math.log2(1.0 + c) + 0.75 * math.log2(1.0 + 3.0 * c)


@settings(max_examples=2000, deadline=None, database=None)
@given(c=st.floats(0.0, 1.0))
def test_discord_inversion_round_trip(c):
    d = discord_werner_closed(c)
    assert 0.0 <= d <= 1.0
    c_back = discord_to_c(d)
    assert abs(discord_werner_closed(c_back) - d) <= INVERSION_TOL
    # the closed form rounds to a few eps in absolute terms, while D ~ c^2/ln 2
    # near c = 0: there an error in D moves the root by error / slope
    slope = discord_slope(c)
    assert abs(c_back - c) <= INVERSION_TOL + (8.0 * EPS / slope if slope > 0.0 else 0.0)
    if c >= 1e-6:
        assert abs(c_back - c) <= INVERSION_TOL


def csv_cells(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = text.removesuffix("\n").split("\n")
    return header.split(","), [row.split(",") for row in rows]


@settings(max_examples=40, deadline=None, database=None)
@given(
    command=st.sampled_from(["fig4", "fig5"]),
    kl=st.floats(1.0, 4.0 * math.pi, exclude_min=True),
    sin_beta=st.floats(-1.0, 1.0),
    grid_d=st.integers(2, 12),
    grid_b=st.integers(2, 12),
)
def test_json_values_read_back_as_the_csv_cells(command, kl, sin_beta, grid_d, grid_b):
    cfg = RunConfig(command=command, kl=kl, sin_beta=sin_beta, grid_d=grid_d, grid_b=grid_b)
    table = (cmd_fig4 if command == "fig4" else cmd_fig5)(cfg)
    columns, rows = csv_cells(render_csv(table))
    payload = json.loads(render_json(table, cfg))
    assert len(payload["rows"]) == len(rows) == len(table.rows)
    for record, cells in zip(payload["rows"], rows):
        assert list(record) == columns
        for value, cell in zip(record.values(), cells):
            if isinstance(value, str):
                assert value == cell
            elif value is None:
                assert cell == ""
            else:
                assert isinstance(value, float) and value == float(cell)


def read_back(x: float) -> str:
    """The JSON token of ``x`` as the float its CSV cell reads back as."""
    if math.isnan(x):
        return "null"
    if math.isinf(x):
        return json.dumps(x)
    return repr(float(format(x, ".12g")))


# raw float64 bit patterns, and hypothesis's floats for its own edge values
any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.floats(),
)

FORMATTER_EDGES = [
    0.0, -0.0, 5e-324, 1e-310, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
    999999999999.5, 1e12, 1.5e12, 9.99999999999e15, 1e16, -2.0000000000001, 1e-5,
]


@settings(max_examples=500, deadline=None, database=None)
@given(values=st.lists(any_float, min_size=1, max_size=64))
@example(values=FORMATTER_EDGES + [-x for x in FORMATTER_EDGES if x])
def test_json_tokens_are_the_csv_cells_read_back(values):
    """Each JSON token is the CSV token in repr's layout, made without reading
    it back. None of the 32 pinned tables has a cell with an exponent of 12
    to 15 or a subnormal one, so this test, with its edge values, is the only
    gate on those branches of the formatter."""
    assert _json_floats(np.array(values)) == list(map(read_back, values))


def test_json_writes_infinities_as_json_dumps_does():
    assert _json_floats(np.array([math.inf, -math.inf, math.nan])) == ["Infinity", "-Infinity", "null"]
