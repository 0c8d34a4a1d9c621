"""Property tests at random inputs: each closed form against its operator-trace
oracle, and the JSON table against the CSV table it must read back as."""

import json
import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corr_radiance.cli import MAX_KL, RunConfig, cmd_fig4, cmd_fig5, render_csv, render_json
from corr_radiance.emission import (
    UNDEFINED_INTENSITY_TOL,
    DetectionGeometry,
    g2_closed_werner,
    g2_oracle,
    intensity_closed_x,
    intensity_oracle,
)
from corr_radiance.qstate import XStateParams, make_werner, make_x_state

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
