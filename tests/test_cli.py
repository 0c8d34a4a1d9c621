"""Table shapes, formats, determinism, and exit codes of the front end."""

import dataclasses
import json
import math

import numpy as np
import pytest

from corr_radiance import verify
from corr_radiance.correlations import discord_to_c
from corr_radiance.emission import (
    CLASSIFY_TOL,
    STATISTICS,
    UNDEFINED_INTENSITY_TOL,
    PhotonStatistics,
    x_emission,
)
from corr_radiance.cli import (
    COMMANDS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    MAX_KL,
    MAX_TABLE_ROWS,
    RunConfig,
    Table,
    cmd_fig2,
    cmd_fig3,
    cmd_fig4,
    cmd_fig5,
    _crossing_marks,
    build_parser,
    cmd_transition,
    main,
    render_csv,
    render_json,
)
from cli_rows import rows_of

REF_D_T = 0.8668518157244345


def cfg(command, **kwargs):
    return RunConfig(command=command, **kwargs)


class TestTables:
    def test_fig2_shape_and_columns(self):
        table = cmd_fig2(cfg("fig2", grid_d=7, grid_b=5))
        assert table.columns == ("D", "c", "sin_beta", "I")
        assert len(table.rows) == 7 * 5

    def test_fig2_zero_discord_rows_are_flat(self):
        table = cmd_fig2(cfg("fig2", grid_d=3, grid_b=9))
        for row in rows_of(table)[:9]:
            assert row[0] == 0.0
            assert row[3] == pytest.approx(1.0, abs=1e-12)

    def test_fig3_endpoint_rows(self):
        table = cmd_fig3(cfg("fig3", grid_d=11))
        rows = rows_of(table)
        first, last = rows[0], rows[-1]
        assert (first[0], last[0]) == (0.0, 1.0)
        assert first[2] == pytest.approx(1.0, abs=1e-9)
        assert first[3] == pytest.approx(1.0, abs=1e-9)
        assert last[2] == pytest.approx(2.0, abs=1e-9)
        assert last[3] == pytest.approx(0.0, abs=1e-9)

    def test_fig4_flags_the_undefined_point(self):
        # (D, sin_beta) = (1, 0) is the 0/0 point of g2 at kl = pi
        table = cmd_fig4(cfg("fig4", grid_d=5, grid_b=5))
        assert len(table.rows) == 25
        rows = rows_of(table)
        undefined = [r for r in rows if r[5] == "undefined"]
        assert len(undefined) == 1
        row = undefined[0]
        assert (row[0], row[2]) == (1.0, 0.0)
        assert row[3] is None
        assert row[4] == "undefined"
        for r in rows:
            if r[5] == "":
                assert isinstance(r[3], float)

    def test_fig5_crossing_marker(self):
        table = cmd_fig5(cfg("fig5", grid_d=101, sin_beta=0.2))
        rows = rows_of(table)
        marked = [r for r in rows if r[5] == "crossing"]
        assert len(marked) == 1
        # the marker sits within one grid step of the true transition
        assert abs(marked[0][0] - REF_D_T) <= 1.0 / 100.0
        assert rows[0][2] == pytest.approx(1.0, abs=1e-12)
        assert rows[0][3] == "poissonian"
        assert rows[-1][3] == "sub_poissonian"

    @pytest.mark.parametrize("g2", [1.0 + 4504 * 2.0**-52, 1.0 - 1e-12])
    def test_fig5_crossing_follows_the_statistics_band(self, g2):
        # 1 + 4504 2^-52 == 1.0 + 1e-12: abs(g2 - 1) exceeds 1e-12 there,
        # while the statistics band counts the point as Poissonian
        e = x_emission(0.0, np.array([0.5, g2 - 1.0, -0.5]), 1.0)
        assert e.g2[1] == g2
        assert STATISTICS[e.statistics[1]] is PhotonStatistics.POISSONIAN
        previous = np.roll(e.statistics, 1)  # the row before; none before row 0
        marks = _crossing_marks(e.statistics, previous, np.arange(3) > 0)
        assert marks.tolist() == [0, 1, 0]

    def test_the_row_before_a_defined_row_is_defined(self):
        # _crossing_marks compares a row with the row before it: g2 is undefined
        # only where 1 - c cos(phi) < UNDEFINED_INTENSITY_TOL, which 1 - c bounds
        # from below, so on the longest axis only its last point (c = 1) can be
        d = np.linspace(0.0, 1.0, MAX_TABLE_ROWS)
        assert 1.0 - discord_to_c(float(d[-2])) >= 1e-9 > UNDEFINED_INTENSITY_TOL

    def test_fig5_without_crossing_has_no_marker(self):
        table = cmd_fig5(cfg("fig5", grid_d=41, sin_beta=1.0))
        assert all(r[5] == "" for r in rows_of(table))

    def test_transition_rows(self):
        # the summary line is returned to be printed only beside an --out file
        table, (summary,), status = cmd_transition(cfg("transition", sin_beta=0.2, out="t.csv"))
        assert rows_of(table)[0][4] == "ok"
        assert "c_star=" in summary
        assert status == EXIT_OK
        assert cmd_transition(cfg("transition", sin_beta=0.2))[1:] == ([], EXIT_OK)
        table, (summary,), _ = cmd_transition(cfg("transition", sin_beta=1.0, out="t.csv"))
        (row,) = rows_of(table)
        assert row[2] is None
        assert row[4] == "none"
        assert "none" in summary


class TestRendering:
    def test_csv_uses_lf_and_empty_cells_for_undefined(self):
        table = cmd_fig4(cfg("fig4", grid_d=5, grid_b=5))
        text = render_csv(table)
        assert "\r" not in text
        assert text.startswith("D,c,sin_beta,g2,statistics,flag\n")
        assert text.endswith("\n")
        undefined_lines = [l for l in text.splitlines() if l.endswith(",undefined")]
        assert undefined_lines == ["1,1,0,,undefined,undefined"]
        assert "nan" not in text.lower()

    def test_csv_has_twelve_significant_digits(self):
        table = cmd_fig3(cfg("fig3", grid_d=3))
        line = render_csv(table).splitlines()[2]
        assert line.split(",")[1] == "0.712407197338"

    def test_json_mirrors_csv_columns(self):
        config = cfg("fig3", grid_d=3, format="json")
        payload = json.loads(render_json(cmd_fig3(config), config))
        assert payload["config"]["command"] == "fig3"
        assert payload["config"]["kl"] == pytest.approx(math.pi)
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"D", "c", "I_sinb1", "I_sinb0"}

    def test_negative_zero_keeps_its_sign(self):
        # cells are memoised by bit pattern, and -0.0 == 0.0 as floats
        table = Table.of(("x",), (np.array([0.0, -0.0, 0.0]),))
        assert render_csv(table) == "x\n0\n-0\n0\n"
        payload = json.loads(render_json(table, cfg("fig3", format="json")))
        assert [math.copysign(1.0, r["x"]) for r in payload["rows"]] == [1.0, -1.0, 1.0]

    def test_json_undefined_becomes_null(self):
        config = cfg("fig4", grid_d=5, grid_b=5, format="json")
        payload = json.loads(render_json(cmd_fig4(config), config))
        undefined = [r for r in payload["rows"] if r["flag"] == "undefined"]
        assert len(undefined) == 1
        assert undefined[0]["g2"] is None


class TestMainEntry:
    def test_writes_byte_identical_files_across_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(["fig2", "--grid-d", "9", "--grid-b", "7", "--out", str(p)])
            assert code == EXIT_OK
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.count(b"\n") == 1 + 9 * 7

    def test_stdout_output(self, capsys):
        assert main(["fig3", "--grid-d", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "D,c,I_sinb1,I_sinb0"

    def test_transition_summary_printed_when_writing_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["transition", "--sin-beta", "1", "--out", str(out)]) == EXIT_OK
        assert "none" in capsys.readouterr().out
        assert "none" in out.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--kl", "0.5"],
            ["fig2", "--grid-d", "1"],
            ["fig5", "--sin-beta", "1.5"],
            ["fig2", "--format", "yaml"],
            ["unknown-command"],
            ["verify", "--tol-scale", "nan"],
            ["verify", "--tol-scale", "inf"],
            ["verify", "--tol-scale", "-1"],
            ["transition", "--kl", "1e300"],
            ["transition", "--kl", "1e12"],
            ["transition", "--kl", repr(math.nextafter(MAX_KL, math.inf))],
        ],
    )
    def test_invalid_arguments_exit_one(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        capsys.readouterr()

    def test_kl_cap_itself_is_accepted(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["transition", "--kl", repr(MAX_KL), "--out", str(out)]) == EXIT_OK
        assert out.read_text().startswith("kl,sin_beta,c_star,D_t,status\n1000,")
        capsys.readouterr()

    def test_kl_cap_keeps_phase_rounding_below_the_classification_band(self):
        # |phase| <= kl, and one ulp of kl is at most kl * 2**-52
        assert MAX_KL * 2.0**-52 < CLASSIFY_TOL / 4.0
        assert math.ulp(MAX_KL) < CLASSIFY_TOL / 4.0

    def test_kl_beyond_the_cap_names_it(self, capsys):
        assert main(["transition", "--kl", "1e300"]) == EXIT_USAGE
        assert "at most 1000" in capsys.readouterr().err

    def test_commands_are_looked_up_when_main_runs(self, monkeypatch, capsys):
        # the benchmark's tracer replaces the cmd_* attributes of the module
        import corr_radiance.cli as cli

        seen = []

        def traced(original):
            def wrapper(config):
                seen.append(config.command)
                return original(config)
            return wrapper

        for name in ("fig3", "transition", "verify"):
            monkeypatch.setattr(cli, "cmd_" + name, traced(getattr(cli, "cmd_" + name)))
        assert main(["fig3", "--grid-d", "3"]) == EXIT_OK
        assert main(["transition"]) == EXIT_OK
        assert main(["verify", "--tol-scale", "0"]) == EXIT_VERIFY
        assert seen == ["fig3", "transition", "verify"]
        capsys.readouterr()

    def test_unwritable_path_exits_three(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.csv"
        assert main(["fig3", "--grid-d", "3", "--out", str(target)]) == EXIT_IO
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["transition", "fig3"])
    def test_empty_out_exits_one_and_writes_nothing(self, command, tmp_path, monkeypatch, capsys):
        # realpath('') is the working directory, so the temporary file of an
        # empty --out went to the parent directory
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main([command, "--grid-d", "3", "--out", ""]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [work]
        assert list(work.iterdir()) == []

    def test_verify_self_test_fails_with_zero_tolerance(self, capsys):
        assert main(["verify", "--tol-scale", "0"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_verify_verdict_independent_of_grid_options(self, capsys):
        # the suites use fixed internal grids, so sweep sizes must not matter
        assert main(["verify", "--grid-d", "11", "--grid-b", "11"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_options_left_out_take_the_runconfig_defaults(self):
        parse = build_parser().parse_args
        given = {"--kl": ("kl", 2.5), "--grid-d": ("grid_d", 7), "--grid-b": ("grid_b", 9),
                 "--sin-beta": ("sin_beta", -0.5), "--format": ("format", "json"),
                 "--out": ("out", "t.csv"), "--tol-scale": ("tol_scale", 2.5)}
        fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
        assert {name for name, _ in given.values()} == fields.keys() - {"command"}
        assert all(fields[name] != value for name, value in given.values())
        for command in COMMANDS:
            default = RunConfig(command)
            assert RunConfig(**vars(parse([command]))) == default
            for option, (name, value) in given.items():
                got = RunConfig(**vars(parse([command, option, str(value)])))
                assert got == dataclasses.replace(default, **{name: value})


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        cfg("fig2").validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            cfg("fig2", kl=1.0).validate()
        with pytest.raises(ValueError):
            cfg("fig2", sin_beta=-1.2).validate()
        with pytest.raises(ValueError):
            cfg("nope").validate()
        with pytest.raises(ValueError):
            cfg("verify", tol_scale=-1.0).validate()

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_rejects_non_finite_tol_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            cfg("verify", tol_scale=scale).validate()

    def test_table_size_is_bounded_before_anything_is_built(self):
        # validation only: these grids are never allocated
        side = 1 << 11
        assert side * side == MAX_TABLE_ROWS
        cfg("fig2", grid_d=side, grid_b=side).validate()
        for command in ("fig2", "fig4"):
            with pytest.raises(ValueError, match="rows"):
                cfg(command, grid_d=side + 1, grid_b=side).validate()
        cfg("fig3", grid_d=MAX_TABLE_ROWS, grid_b=10**9).validate()
        for command in ("fig3", "fig5"):
            with pytest.raises(ValueError, match="rows"):
                cfg(command, grid_d=MAX_TABLE_ROWS + 1).validate()
        for command in ("transition", "verify"):
            cfg(command, grid_d=10**9, grid_b=10**9).validate()


DISCORD_SUITES = (
    verify.suite_discord_oracle,
    verify.suite_discord_symmetry,
    verify.suite_discord_zero_at_classical,
)


@pytest.mark.parametrize("suite", DISCORD_SUITES)
def test_unconverged_discord_optimum_fails_the_suite(suite, monkeypatch):
    real = verify.discord_numerics
    monkeypatch.setattr(
        verify, "discord_numerics",
        lambda *args, **kwargs: [dataclasses.replace(r, converged=False) for r in real(*args, **kwargs)],
    )
    result = suite()
    assert not result.passed
    assert result.max_deviation == math.inf


def count_optima(monkeypatch) -> list:
    """The member count of each stacked optimizer call in ``verify``."""
    calls = []
    real = verify.discord_numerics

    def counted(stack, measured):
        calls.append(len(stack))
        return real(stack, measured)

    monkeypatch.setattr(verify, "discord_numerics", counted)
    return calls


def test_discord_optima_are_shared_within_one_run_only(monkeypatch):
    calls = count_optima(monkeypatch)
    # of the suites' 16 optima, c = 0 and the measured-2 ones at c = 0.3 and
    # 0.9 are the oracle suite's own; the 11 measured-2 optima take one call
    # and the 2 measured-1 ones another
    assert all(r.passed for r in verify.run_all())
    assert calls == [11, 2]
    calls.clear()
    for suite in DISCORD_SUITES:
        suite()
    assert sum(calls) == 16


def test_a_run_that_raises_shares_no_optima_afterwards(monkeypatch):
    calls = count_optima(monkeypatch)

    def failing():
        raise RuntimeError("suite failed")

    monkeypatch.setattr(verify, "ALL_SUITES", (verify.suite_discord_oracle, failing))
    with pytest.raises(RuntimeError, match="suite failed"):
        verify.run_all()
    assert sum(calls) == 11
    calls.clear()
    verify.suite_discord_zero_at_classical()
    assert calls == [1]


@pytest.mark.parametrize("suite", verify.ALL_SUITES, ids=lambda s: s.__name__)
def test_each_verify_suite_passes_within_its_tolerance(suite):
    result = suite()
    assert result.passed
    assert result.max_deviation <= result.tolerance


def test_the_verify_suites_have_eighteen_distinct_names():
    assert len({suite.__name__ for suite in verify.ALL_SUITES}) == 18
    assert len({result.name for result in verify.run_all()}) == 18


@pytest.mark.parametrize("scale", [0.0, 1.0, 2.5])
def test_run_all_scales_each_suite_tolerance(scale):
    own = [suite() for suite in verify.ALL_SUITES]
    results = verify.run_all(scale)
    assert [r.name for r in results] == [r.name for r in own]
    for r, suite_result in zip(results, own):
        assert r.tolerance.hex() == (suite_result.tolerance * scale).hex()
        assert r.max_deviation.hex() == suite_result.max_deviation.hex()
        assert r.passed == (r.max_deviation <= r.tolerance)
