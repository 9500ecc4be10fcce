import pathlib

import numpy as np
import pytest

from rigidloc.cli import main
from rigidloc.errors import ConfigurationError
from rigidloc.geometry import SceneConfig
from rigidloc.harness import DEFAULT_RHO, DEFAULT_SIGMA_GRID, ExperimentConfig
from rigidloc.measurements import zeta_to_rho
from rigidloc.scenario import load_scenario


SCENARIO_DEFAULT = (pathlib.Path(__file__).resolve().parent.parent
                    / "demos" / "scenario_default.yaml")


def write_scenario(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FULL_SCENARIO = """
room:
  width: 12.0
  height: 9.0
anchors:
  count: 5
body:
  count: 4
  radius: 0.8
  wall_clearance: 2.0
noise:
  sigma: [0.2, 0.4]
  zeta_theta_degrees: 10.0
  tt_noisy: true
experiment:
  trials: 50
  methods: [mds, smds_full]
  master_seed: 99
  fixed_pose: true
  workers: 2
  output: results.csv
"""


def test_empty_scenario_gives_defaults(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path, ""))
    assert cfg.sigma_grid == DEFAULT_SIGMA_GRID
    assert cfg.rho == DEFAULT_RHO
    assert cfg.trials == 1000
    assert cfg.scene == SceneConfig()
    assert cfg.scene.anchors.n_anchors == 8 and cfg.scene.conformation.n_points == 8
    assert cfg.workers == 1
    assert not cfg.fixed_pose


def test_full_scenario_parses(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path, FULL_SCENARIO))
    assert cfg.scene.room_width == 12.0 and cfg.scene.room_height == 9.0
    assert cfg.scene.n_anchors == 5 and cfg.scene.n_landmarks == 4
    assert cfg.scene.body_radius == 0.8
    assert cfg.scene.wall_clearance == 2.0
    assert cfg.sigma_grid == (0.2, 0.4)
    assert cfg.rho == zeta_to_rho(np.deg2rad(10.0))
    assert cfg.tt_noisy
    assert cfg.trials == 50
    assert cfg.methods == ("mds", "smds_full")
    assert cfg.master_seed == 99
    assert cfg.fixed_pose
    assert cfg.workers == 2
    assert cfg.output_path == "results.csv"


def test_scalar_sigma_becomes_grid(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path, "noise:\n  sigma: 0.5\n"))
    assert cfg.sigma_grid == (0.5,)


def test_rho_excludes_zeta(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path, "noise:\n  rho: 120.0\n"))
    assert cfg.rho == 120.0
    both = "noise:\n  rho: 120.0\n  zeta_theta_degrees: 5.0\n"
    with pytest.raises(ConfigurationError):
        load_scenario(write_scenario(tmp_path, both, name="both.yaml"))


def test_zeta_and_rho_scenarios_load_equal_configs(tmp_path):
    # zeta_theta_degrees is converted once, on loading, to the rho it means
    for degrees in (2, 8, 30, 60):
        rho = zeta_to_rho(np.deg2rad(degrees))
        by_zeta = load_scenario(write_scenario(
            tmp_path, f"noise:\n  zeta_theta_degrees: {degrees}\n", name="zeta.yaml"))
        by_rho = load_scenario(write_scenario(
            tmp_path, f"noise:\n  rho: {rho!r}\n", name="rho.yaml"))
        assert by_zeta == by_rho == ExperimentConfig(rho=rho)


def test_zeta_is_checked_where_it_enters(tmp_path, capsys):
    # outside (0, 162] degrees, that is (0, 0.9 pi], or not a number, in the
    # file and on the command line; a string or a flag is rejected before
    # any conversion
    for zeta in ("0", "-0.1", "229.2", ".nan", "'8'", "true"):
        with pytest.raises(ConfigurationError, match="zeta"):
            load_scenario(write_scenario(tmp_path, f"noise:\n  zeta_theta_degrees: {zeta}\n"))
    for zeta in ("0", "-0.1", "229.2", "nan"):
        assert main(["crlb", str(SCENARIO_DEFAULT), f"--zeta-deg={zeta}"]) == 1
        assert "zeta" in capsys.readouterr().err
    # the widest half-width is the uniform limit
    cfg = load_scenario(write_scenario(tmp_path, "noise:\n  zeta_theta_degrees: 162\n"))
    assert cfg.rho == 0.0


def test_noise_beyond_the_float_range_is_an_error(tmp_path, capsys):
    # a sigma whose square overflows, and a half-width so small that its
    # rho is infinite, end with one error line and exit code 1
    tiny = write_scenario(tmp_path, "noise:\n  zeta_theta_degrees: 1.0e-200\n")
    with pytest.raises(ConfigurationError, match="rho"):
        load_scenario(tiny)
    for argv in (["run", str(SCENARIO_DEFAULT), "--trials", "2", "--sigma-grid", "1e155"],
                 ["crlb", str(SCENARIO_DEFAULT), "--sigma-grid", "1e155"],
                 ["run", str(SCENARIO_DEFAULT), "--trials", "2", "--zeta-deg", "1e-200"],
                 ["run", tiny, "--trials", "2"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_sigma_far_below_the_scene_is_an_error(capsys):
    # the gamma shape (d/sigma)^2 of the draws, and the range information
    # 1/sigma^2 of the bound, overflow (or sigma^2 underflows to 0): one
    # error line that names sigma, and exit code 1
    for sigma, argv in (("1e-160", ["run", "--trials", "2"]),
                        ("1e-160", ["run", "--trials", "2", "--workers", "2"]),
                        ("1e-160", ["crlb"]),
                        ("1e-170", ["crlb"])):
        assert main([*argv, str(SCENARIO_DEFAULT), "--sigma-grid", f"0.5,{sigma}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sigma {sigma} is too small")
        assert err.count("\n") == 1


def test_top_level_seed_is_rejected(tmp_path):
    # experiment.master_seed is the one spelling of the seed
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_scenario(write_scenario(tmp_path, "seed: 4242\n"))


def test_explicit_anchor_positions(tmp_path):
    text = """
anchors:
  positions: [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]
"""
    cfg = load_scenario(write_scenario(tmp_path, text))
    assert cfg.scene.anchors.n_anchors == 4
    assert np.asarray(cfg.scene.anchor_positions).shape == (2, 4)
    assert cfg.scene.anchor_positions[0][1] == 10.0


def test_explicit_body_points(tmp_path):
    text = """
body:
  points: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
"""
    cfg = load_scenario(write_scenario(tmp_path, text))
    assert cfg.scene.conformation.n_points == 3
    assert np.asarray(cfg.scene.body_points).shape == (2, 3)


def test_scene_is_given_one_way(tmp_path):
    # a count, radius or layout beside explicit points is an error, not
    # silently overridden by the points
    positions = "  positions: [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]\n"
    points = "  points: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]\n"
    for text in ("anchors:\n  layout: grid\n  count: 12\n" + positions,
                 "anchors:\n  count: 12\n" + positions,
                 "anchors:\n  layout: perimeter\n" + positions,
                 "anchors:\n  layout: grid\n",
                 "body:\n  count: 5\n" + points,
                 "body:\n  radius: 7.0\n" + points):
        with pytest.raises(ConfigurationError):
            load_scenario(write_scenario(tmp_path, text))
    config = load_scenario(write_scenario(tmp_path, "anchors:\n  layout: perimeter\n"))
    assert config.scene.anchors.n_anchors == 8


def test_explicit_points_load_equal_configs(tmp_path):
    # two loads of one positions file compare and hash equal
    text = ("anchors:\n  positions: [[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]]\n"
            "body:\n  points: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]\n")
    path = write_scenario(tmp_path, text)
    first, second = load_scenario(path), load_scenario(path)
    assert first == second
    assert hash(first) == hash(second)
    assert first.scene.anchors is not second.scene.anchors


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_scenario(write_scenario(tmp_path, "bogus_section: 1\n"))
    with pytest.raises(ConfigurationError):
        load_scenario(write_scenario(tmp_path, "noise:\n  sigmaa: 0.5\n"))


def test_scenario_values_are_not_coerced(tmp_path):
    # a fractional trial count or a negative seed is an error, not 2 or a crash
    for text in ("experiment:\n  trials: 2.5\n", "experiment:\n  master_seed: -1\n",
                 "experiment:\n  workers: 1.5\n",
                 "experiment:\n  methods: [mds, mds]\n"):
        with pytest.raises(ConfigurationError):
            load_scenario(write_scenario(tmp_path, text))
    # nor is a fractional count, a flag for a number or a quoted number:
    # each reaches its config as written, not as 8, 1.0 or 1.5
    for text in ("anchors:\n  count: 8.7\n", "body:\n  count: 5.9\n",
                 "room:\n  width: true\n", "noise:\n  rho: true\n",
                 "noise:\n  sigma: [true, 0.5]\n", "noise:\n  zeta_theta_degrees: '8'\n",
                 "body:\n  radius: '1.5'\n", "room:\n  height: .nan\n",
                 'anchors:\n  positions: [["0", "0"], ["10", "0"], [true, 10]]\n',
                 'body:\n  points: [[0.0, 0.0], [1.0, "0"], [0.0, 1.0]]\n'):
        with pytest.raises(ConfigurationError):
            load_scenario(write_scenario(tmp_path, text))
    config = load_scenario(write_scenario(
        tmp_path, "noise:\n  sigma: 1\n  zeta_theta_degrees: 8\nanchors:\n  count: 6\n"))
    assert config.sigma_grid == (1.0,) and config.rho == DEFAULT_RHO
    assert config.scene.n_anchors == 6
    # a quoted flag is an error, not True
    for text in ('noise:\n  tt_noisy: "false"\n', 'experiment:\n  fixed_pose: "no"\n'):
        with pytest.raises(ConfigurationError, match="true or false"):
            load_scenario(write_scenario(tmp_path, text))
    config = load_scenario(write_scenario(tmp_path, "noise:\n  tt_noisy: true\n"))
    assert config.tt_noisy is True and config.fixed_pose is False


def test_malformed_scenario_rejected(tmp_path):
    with pytest.raises(ConfigurationError):
        load_scenario(write_scenario(tmp_path, "- just\n- a list\n"))
    with pytest.raises(ConfigurationError):
        load_scenario(write_scenario(tmp_path, "room: [unclosed\n"))
    # a section is a mapping or empty; anything else is named as such,
    # not read as a list of keys or iterated
    for section, value in (("noise", "5"), ("experiment", "true"), ("noise", "[sigma]"),
                           ("room", "5"), ("noise", "abc"), ("body", "[]"),
                           ("anchors", "0")):
        with pytest.raises(ConfigurationError,
                           match=f"section '{section}' must be a mapping"):
            load_scenario(write_scenario(tmp_path, f"{section}: {value}\n"))
    assert load_scenario(write_scenario(tmp_path, "noise:\nroom: {}\n")) == \
        load_scenario(write_scenario(tmp_path, ""))
    # the output is a file path; a number would be opened as a file
    # descriptor, and the CSV written to it
    for value in ("2", "true", "[a]"):
        with pytest.raises(ConfigurationError, match="output must be a file path"):
            load_scenario(write_scenario(tmp_path, f"experiment:\n  output: {value}\n"))


def test_cli_section_that_is_not_a_mapping(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "noise: 5\n")
    for command in ("run", "crlb"):
        assert main([command, scenario]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scenario section 'noise' must be a mapping")
        assert err.count("\n") == 1


def test_cli_output_that_is_not_a_path(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "experiment:\n  trials: 2\n  output: 2\n")
    assert main(["run", scenario]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: output must be a file path, not 2\n"
    assert captured.out == ""


SMALL_RUN = """
noise:
  sigma: [0.3]
experiment:
  trials: 8
  methods: [smds_full]
  master_seed: 7
"""


def test_cli_run_writes_csv(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SMALL_RUN)
    out = tmp_path / "res.csv"
    assert main(["run", scenario, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,sigma,mse_t,rmse_t,mse_Q,conv_rate,crlb_t,crlb_Q,trials"
    assert len(lines) == 2
    assert lines[1].startswith("smds_full,0.3,")
    assert "wrote 1 rows" in capsys.readouterr().out


def test_cli_run_prints_without_out(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SMALL_RUN)
    assert main(["run", scenario]) == 0
    out = capsys.readouterr().out
    assert out.startswith("method,sigma,")
    assert out.count("\n") == 2


def test_cli_run_overrides(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SMALL_RUN)
    rc = main(["run", scenario, "--sigma-grid", "0.2,0.6",
               "--trials", "5", "--methods", "mds", "--seed", "11"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("mds,0.2,")
    assert lines[2].startswith("mds,0.6,")


def test_cli_crlb(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "noise:\n  sigma: [0.2, 0.5]\n")
    assert main(["crlb", scenario]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sigma,crlb_t,crlb_alpha,crlb_Q"
    assert len(lines) == 3
    first = [float(x) for x in lines[1].split(",")]
    second = [float(x) for x in lines[2].split(",")]
    assert first[0] == 0.2 and second[0] == 0.5
    assert second[1] > first[1] > 0.0


def test_cli_crlb_matches_the_fixed_pose_sweep(tmp_path, capsys):
    # `rigidloc crlb` and a fixed-pose sweep bound the same reference scene
    # on the same sigma grid, for a zeta scenario and a rho scenario
    shipped = SCENARIO_DEFAULT.read_text(encoding="utf-8")
    rho = shipped.replace("zeta_theta_degrees: 8.0", "rho: 40")
    assert rho != shipped
    grid = ["--sigma-grid", "0.3,0.6,1.2"]
    for scenario in (str(SCENARIO_DEFAULT), write_scenario(tmp_path, rho)):
        assert main(["crlb", scenario, *grid]) == 0
        bounds = capsys.readouterr().out.splitlines()[1:]
        assert main(["run", scenario, "--fixed-pose", "--trials", "3", "--methods", "mds",
                     *grid]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(bounds) == len(rows) == 3
        for bound, row in zip(bounds, rows):
            bound, row = bound.split(","), row.split(",")
            assert [bound[0], bound[1], bound[3]] == [row[1], row[6], row[7]]


def test_cli_crlb_writes_file(tmp_path, capsys):
    scenario = write_scenario(tmp_path, "noise:\n  sigma: [0.2]\n")
    out = tmp_path / "bounds.csv"
    assert main(["crlb", scenario, "--out", str(out)]) == 0
    assert out.read_text().startswith("sigma,crlb_t,")


def test_cli_crlb_leaves_the_sweep_output_alone(tmp_path, capsys):
    # experiment.output names the sweep's results; the bounds go to --out
    # or to stdout, so `crlb` after `run` keeps the run's file
    results = tmp_path / "results.csv"
    scenario = write_scenario(tmp_path, SMALL_RUN + f"  output: {results}\n")
    assert main(["run", scenario]) == 0
    sweep = results.read_text()
    assert sweep.startswith("method,sigma,")
    capsys.readouterr()
    assert main(["crlb", scenario]) == 0
    assert capsys.readouterr().out.startswith("sigma,crlb_t,")
    assert results.read_text() == sweep


def test_cli_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bad_method(tmp_path, capsys):
    scenario = write_scenario(tmp_path, SMALL_RUN)
    assert main(["run", scenario, "--methods", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "method,sigma," in out
    # 4 grid points x 3 methods plus header and the scene banner
    assert sum(1 for line in out.splitlines() if line.count(",") == 8) >= 13
