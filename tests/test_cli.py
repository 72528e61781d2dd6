import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import shrinkset
from shrinkset import evolution
from shrinkset.cli import main
from shrinkset.serialize import _svg_path, render_svg, threshold_report

SQUARE_GEOM = {"kernel": [[0, 0], [1, 0], [1, 1], [0, 1]], "radius": 0.0}
BALL_GEOM = {"kernel": [[0, 0]], "radius": 1.0}
RECTANGLE_GEOM = {"kernel": [[0, 0], [2, 0], [2, 1], [0, 1]], "radius": 0.0}
ROUNDED_GEOM = {**SQUARE_GEOM, "radius": 0.2}
TRIANGLE_GEOM = {"kernel": [[0.0, 0.0], [1.0, 0.0], [0.5, 0.8660254037844386]], "radius": 0.0}
# sha256 of `shrinkset simulate` output, pinned so that the CSV writer keeps
# its bytes: the square at M = 4 (default dt, and dt / 10), the rounded
# square growing at M = 1, and the triangle at 0.99 of its closed-form
# critical budget 2r(T - pi)/ln(T/pi), r its inradius, T = 3 sqrt(3)
GOLDEN = [
    (SQUARE_GEOM, ["--M", "4", "--horizon", "5"],
     "a7c975a514465d15a7a93a6d668d66e3d7f0c6881359db977ed81826c6d5d51f"),
    (SQUARE_GEOM, ["--M", "4", "--horizon", "5", "--dt", "0.00014142135623730954"],
     "1bcaaead6f5c43bb41a4114e4dd02ee5522410bbc19a4af583dfe9cf6ee7363e"),
    (ROUNDED_GEOM, ["--M", "1", "--horizon", "1"],
     "9a100d111957b904d090676b2252544f7509c82f7fe114b01b45beb8dcdc3f7f"),
    (TRIANGLE_GEOM, ["--M", "2.3337944316359884", "--horizon", "3"],
     "222db6cb618c5fca59096dd264cffdc33cb96db0d97394390339b59fe434dae2"),
]
# the same for the other commands: `threshold` on four shapes, `one-step`
# in the opening regime, and `validate` (whose report names no number)
VALIDATE_DIGEST = "c28e5d8065e108326f14a4975cb48ab8718f73df2f740f47e3fac2ef32faee1a"
PINNED = [
    (SQUARE_GEOM, ["threshold"],
     "662d577b3c7f54002f3c175d1f610309b5f607286f6284504d3cd69294481fcc"),
    (RECTANGLE_GEOM, ["threshold"],
     "08141f001e3c1dfdb9a6b7ed7b18940907dee688a5097ae94071bd72f711e641"),
    (ROUNDED_GEOM, ["threshold"],
     "3b831b13d7034177130c86b4dc89667a7b395176ba74f1821829be2f665265f9"),
    (TRIANGLE_GEOM, ["threshold"],
     "44af7444477bda148ddd257fe9d482dfee84beac87ba09c45b0f4d1a074708d4"),
    (SQUARE_GEOM, ["one-step", "--a", "0.3"],
     "5f6a89093662205204cd7619014722371906da671f84e86743ecf192c62185ff"),
    (SQUARE_GEOM, ["one-step", "--a", "0.95"],
     "b0e774fbba790d2219037f41a94a4960766c9b4a2bcfcb554e5c4a068e3e6b37"),
    (RECTANGLE_GEOM, ["one-step", "--a", "1.95"],
     "15fe8aad6a3371bc3fafedac66db942418aac925a5cad89cb4f57801783e2d95"),
    *((None, ["validate", "--seed", str(seed)], VALIDATE_DIGEST) for seed in range(4)),
]


@pytest.fixture
def geom(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(SQUARE_GEOM))
    return path


def read_csv(path):
    rows = []
    comments = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            comments[key.strip()] = float(val)
        elif not line.startswith("t,"):
            rows.append(line.split(","))
    return rows, comments


class TestSimulate:
    def test_csv_shape_and_events(self, geom, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main([
            "simulate", "--geometry", str(geom), "--M", "4.0",
            "--horizon", "5.0", "--out", str(out),
        ])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,a,perimeter,regime,rho"
        rows, comments = read_csv(out)
        assert set(comments) >= {"T_star", "T_dagger"}
        assert 0 < comments["T_dagger"] < comments["T_star"]
        assert float(rows[0][1]) == 1.0
        assert rows[0][3] == "Opening"

    def test_ball_stays_constant(self, tmp_path):
        g = tmp_path / "ball.json"
        g.write_text(json.dumps(BALL_GEOM))
        out = tmp_path / "trace.csv"
        rc = main([
            "simulate", "--geometry", str(g), "--M", str(2 * math.pi),
            "--horizon", "2.0", "--out", str(out),
        ])
        assert rc == 0
        rows, _ = read_csv(out)
        areas = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(areas - math.pi)) <= 1e-8

    def test_zero_budget_is_quadratic(self, geom, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main([
            "simulate", "--geometry", str(geom), "--M", "0.0",
            "--horizon", "1.0", "--c1", "1.0", "--c2", "0.0",
            "--out", str(out),
        ])
        assert rc == 0
        rows, comments = read_csv(out)
        for r in rows[:: max(len(rows) // 20, 1)]:
            t, a = float(r[0]), float(r[1])
            assert a == pytest.approx(1 + 4 * t + math.pi * t * t, rel=1e-8)
        assert comments["J"] == pytest.approx(3 + math.pi / 3, rel=1e-12)

    @pytest.mark.parametrize("geometry, argv, digest", GOLDEN)
    def test_golden_bytes(self, geometry, argv, digest, tmp_path):
        g = tmp_path / "shape.json"
        g.write_text(json.dumps(geometry))
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--geometry", str(g), *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_stats_phase_log(self, geom, tmp_path):
        plain, stats = tmp_path / "plain.csv", tmp_path / "stats.csv"
        argv = ["simulate", "--geometry", str(geom), "--M", "4", "--horizon", "5"]
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--stats", "--out", str(stats)]) == 0
        text = stats.read_text()
        # the phase lines follow the CSV unchanged
        assert text.startswith(plain.read_text())
        lines = text[len(plain.read_text()):].splitlines()
        _, comments = read_csv(plain)
        phases = [line.removeprefix("# phase=").split(",") for line in lines]
        assert [p[:2] for p in phases] == [["Opening", "0"], ["Ball", ""]]
        (_, _, t0, t1, r0), (_, _, b0, b1, _) = phases
        assert float(t0) == 0.0 and float(r0) == 0.0
        assert float(t1) == float(b0) == comments["T_dagger"]
        assert float(b1) == comments["T_star"]

    def test_stats_is_read_by_simulate_and_threshold_only(self, geom, capsys):
        for argv in (["one-step", "--geometry", str(geom), "--a", "0.5"], ["validate"]):
            assert main([*argv, "--stats"]) == 1
            assert "error:" in capsys.readouterr().err

    def test_svg_snapshots(self, geom, tmp_path):
        out = tmp_path / "trace.csv"
        rc = main([
            "simulate", "--geometry", str(geom), "--M", "4.0",
            "--horizon", "5.0", "--svg-every", "0.2", "--out", str(out),
        ])
        assert rc == 0
        svgs = sorted(tmp_path.glob("trace.t*.svg"))
        assert len(svgs) >= 2
        assert svgs[0].read_text().startswith("<svg")

    def test_svg_snapshots_end_slack_is_relative(self, tmp_path):
        # a square 1e-14 across, read every quarter of its 1e-14 run: t = 0,
        # 2.5e-15, ..., 1e-14 is five snapshots (an absolute 1e-12 slack
        # past the end once added 399 more, all of the last set)
        geom = tmp_path / "tiny.json"
        geom.write_text(json.dumps({**SQUARE_GEOM, "kernel": [
            [0, 0], [1e-14, 0], [1e-14, 1e-14], [0, 1e-14]
        ]}))
        out = tmp_path / "trace.csv"
        assert main([
            "simulate", "--geometry", str(geom), "--M", "0", "--horizon", "1e-14",
            "--dt", "1e-15", "--svg-every", "2.5e-15", "--out", str(out),
        ]) == 0
        assert len(list(tmp_path.glob("trace.t*.svg"))) == 5

    @pytest.mark.parametrize(
        "option, config", [(["--svg-every", "0"], {}), ([], {"svg_every": -0.5})]
    )
    def test_svg_period_not_positive(self, geom, tmp_path, option, config):
        # such a period once made the snapshot loop run for ever, so the
        # command runs in a child process that a timeout can stop
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        src = os.path.dirname(os.path.dirname(shrinkset.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "shrinkset.cli", "simulate", "--config", str(cfg),
             "--geometry", str(geom), "--M", "4", "--horizon", "1",
             "--out", str(tmp_path / "t.csv"), *option],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert "svg_every must be finite and positive" in done.stderr
        assert not list(tmp_path.glob("*.svg"))

    @pytest.mark.parametrize("period", ["nan", "inf"])
    def test_svg_period_not_finite(self, geom, tmp_path, period, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "simulate", "--geometry", str(geom), "--M", "4", "--horizon", "1",
            "--svg-every", period, "--out", str(out),
        ]) == 1
        assert "svg_every must be finite and positive" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.svg"))

    def test_config_file_with_override(self, geom, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 100.0, "horizon": 1.0}))
        out = tmp_path / "trace.csv"
        rc = main([
            "simulate", "--config", str(cfg), "--geometry", str(geom),
            "--M", "0.0", "--out", str(out),
        ])
        assert rc == 0
        rows, _ = read_csv(out)
        assert float(rows[-1][1]) > 1.0  # override to M=0 means growth


class TestThreshold:
    def test_report_fields(self, geom, tmp_path):
        out = tmp_path / "report.json"
        rc = main([
            "threshold", "--geometry", str(geom), "--tol", "0.01",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report) >= {"M0", "bracket", "iterations", "T_dagger"}
        assert report["bracket"][0] <= report["M0"] <= report["bracket"][1]
        assert report["M0"] == pytest.approx(3.5535, abs=0.05)
        assert report["T_dagger"] == pytest.approx(0.0656, abs=0.01)

    def test_stats_root_log(self, geom, tmp_path):
        plain, stats = tmp_path / "plain.json", tmp_path / "stats.json"
        argv = ["threshold", "--geometry", str(geom)]
        assert main([*argv, "--out", str(plain)]) == 0
        assert main([*argv, "--stats", "--out", str(stats)]) == 0
        report, logged = json.loads(plain.read_text()), json.loads(stats.read_text())
        # without --stats the report keeps its four keys; with it, the same
        # values and one entry per evaluation of the excess, in call order
        assert list(report) == ["M0", "bracket", "iterations", "T_dagger"]
        roots = logged.pop("roots")
        assert logged == report
        assert len(roots) == report["iterations"] <= 10
        traj = evolution._Trajectory(shrinkset.RoundedSet.from_polygon(SQUARE_GEOM["kernel"]))
        assert roots[0]["M"] == traj.floor and roots[1]["M"] == traj.cap
        for entry in roots:
            assert list(entry) == ["M", "excess", "seconds"]
            assert entry["excess"] == traj.excess(entry["M"]) and entry["seconds"] >= 0.0
        assert {report["M0"], *report["bracket"]} <= {entry["M"] for entry in roots}

    def test_one_trajectory_per_call(self, geom, tmp_path, monkeypatch):
        init = evolution._Trajectory.__init__
        built = []

        def counted(self, omega0):
            built.append(omega0)
            init(self, omega0)

        monkeypatch.setattr(evolution._Trajectory, "__init__", counted)
        # the CLI reaches the public functions, as a tracer hooking them sees
        calls = []
        for name in ("critical_budget", "ball_time_at_critical"):
            original = getattr(shrinkset.threshold, name)

            def hooked(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for key, mod in list(sys.modules.items()):
                if key.split(".")[0] == "shrinkset" and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, hooked)
        out = tmp_path / "report.json"
        assert main(["threshold", "--geometry", str(geom), "--out", str(out)]) == 0
        assert len(built) == 1
        assert sorted(calls) == ["ball_time_at_critical", "critical_budget"]
        # the report is the public functions' answer, byte for byte
        omega0 = built[0]
        m0, bracket, roots = shrinkset.critical_budget(omega0, 1e-3, full_output=True)
        t_dagger = shrinkset.ball_time_at_critical(omega0, m0)
        assert out.read_text() == threshold_report(m0, bracket, roots, t_dagger)


class TestOneStep:
    def test_opening_regime(self, geom, tmp_path):
        out = tmp_path / "sol.json"
        rc = main([
            "one-step", "--geometry", str(geom), "--a", "0.9",
            "--out", str(out),
        ])
        assert rc == 0
        sol = json.loads(out.read_text())
        rho = math.sqrt(0.1 / (4 - math.pi))
        assert sol["regime"] == "Opening"
        assert sol["rho"] == pytest.approx(rho, rel=1e-12)
        assert sol["radius"] == pytest.approx(rho, rel=1e-12)
        assert sol["perimeter"] == pytest.approx(4 - 2 * (4 - math.pi) * rho)

    def test_ball_regime(self, geom, tmp_path):
        out = tmp_path / "sol.json"
        rc = main([
            "one-step", "--geometry", str(geom), "--a", "0.3",
            "--out", str(out),
        ])
        assert rc == 0
        sol = json.loads(out.read_text())
        assert sol["regime"] == "Ball"
        assert sol["kernel"] == [[0.5, 0.5]]

    def test_infeasible_area_is_numeric_error(self, geom, capsys):
        assert main(["one-step", "--geometry", str(geom), "--a", "2.0"]) == 2


class TestValidate:
    def test_default_suites_pass(self, capsys):
        assert main(["validate", "--seed", "7"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_fault_detected(self, capsys):
        assert main(["validate", "--seed", "7", "--inject-perturbation"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_injected_fault_fails_every_raster_row(self, capsys):
        # the error scales with each row's tolerance, whatever the set's size
        assert main(["validate", "--suite", "raster", "--inject-perturbation"]) == 3
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 16 and all(status == "FAIL" for _, status in rows)

    def test_suite_none(self):
        assert main(["validate", "--suite", "none"]) == 0

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["validate", "--suite", "invariants", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines[0].startswith("steiner-growth-0 ")
        assert lines[-1].split() == ["overall", "PASS"]


class TestErrors:
    def test_missing_geometry(self):
        assert main(["simulate", "--M", "1.0"]) == 1

    def test_bad_geometry_payload(self, tmp_path):
        g = tmp_path / "bad.json"
        g.write_text(json.dumps({"kernel": "nope"}))
        assert main(["simulate", "--geometry", str(g), "--M", "1.0"]) == 1

    @pytest.mark.parametrize(
        "config, geometry, argv, message",
        [
            ([1, 2], None, ["simulate", "--M", "1"], "config must be a JSON object"),
            ({}, "missing", ["simulate", "--M", "1"], "cannot read geometry"),
            ({}, {"kernel": [[0, 0], [1, 0]], "radius": 0.0}, ["simulate", "--M", "1"],
             "geometry has zero area"),
            ({}, SQUARE_GEOM, ["simulate"], "simulate needs a budget M"),
            ({}, SQUARE_GEOM, ["one-step"], "one-step needs a target area a"),
            # sample counts that numpy refuses before it allocates: these
            # raised out of main
            ({}, SQUARE_GEOM, ["simulate", "--M", "1", "--horizon", "1e300"], "cannot sample"),
            ({}, SQUARE_GEOM, ["simulate", "--M", "1", "--dt", "1e-300"], "cannot sample"),
            # past the float range of the areas: these raised out of main or
            # went on with an overflowed area
            ({}, {"kernel": [[0, 0]], "radius": 1e160}, ["simulate", "--M", "1"],
             "radius 1e+160: the square overflows"),
            ({}, {"kernel": [[0, 0], [1e160, 0], [1e160, 1e160], [0, 1e160]]}, ["threshold"],
             "vertices span"),
            ({}, {"kernel": [[0, 0]], "radius": 1e154}, ["threshold"], "set area overflows"),
            ({}, {"kernel": [[0, 0]], "radius": 1e154}, ["one-step", "--a", "1"],
             "set area overflows"),
            ({}, {"kernel": [[0, 0], [1.2e154, 0], [0, 1.2e154]]}, ["one-step", "--a", "1"],
             "vertices span"),
            # ln(M / 2pi) raised ValueError, and pi rho^2 overflowed to inf
            # rows with a warning
            ({}, SQUARE_GEOM, ["simulate", "--M", "5e-324"],
             "budget M must be finite and at least"),
            ({}, SQUARE_GEOM, ["simulate", "--M", "1", "--horizon", "1e200", "--dt", "1e198"],
             "the area passes the float range"),
            # a NaN target area exited 2, as an area outside the domain does
            ({}, SQUARE_GEOM, ["one-step", "--a", "nan"], "target area must be finite"),
        ],
    )
    def test_input_error_message(self, config, geometry, argv, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        g = tmp_path / "g.json"
        if geometry is not None:
            if geometry != "missing":
                g.write_text(json.dumps(geometry))
            argv = [*argv, "--geometry", str(g)]
        assert main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_nan_tolerance(self, geom):
        assert main(["threshold", "--geometry", str(geom), "--tol", "nan"]) == 1

    @pytest.mark.parametrize("weight", [["--c1", "nan"], ["--c2", "inf"]])
    def test_non_finite_cost_weight(self, weight, geom, tmp_path, capsys):
        # a nan weight wrote "# J=nan", and inf * 0 at extinction did too
        out = tmp_path / "trace.csv"
        argv = ["simulate", "--geometry", str(geom), "--M", "4", "--horizon", "1"]
        assert main([*argv, *weight, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--geometry", "square.json", "--M", "abc"],
            ["simulate", "--geometry", "square.json", "--M", "1", "--no-such-option"],
            # options the command does not read
            ["one-step", "--geometry", "square.json", "--a", "0.3", "--dt", "7",
             "--tol", "3", "--seed", "4", "--M", "9"],
            ["threshold", "--geometry", "square.json", "--a", "7", "--M", "1"],
            ["validate", "--suite", "none", "--geometry", "square.json"],
            [],
        ],
    )
    def test_usage_error(self, argv, geom, monkeypatch, capsys):
        # exit 2 is reserved for an input outside the problem's domain
        monkeypatch.chdir(geom.parent)
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert "--svg-every" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, config, key",
        [
            # a deleted key, a threshold-only key and a misspelt one
            ("simulate", {"M": 4, "horizon": 1, "T": 0.2, "tol": 5, "svg_evry": 1}, "'T'"),
            ("simulate", {"M": 4, "horizon": 1, "tol": 5}, "'tol'"),
            ("threshold", {"M": 4}, "'M'"),
            ("one-step", {"a": 0.5, "out": "x.json"}, "'out'"),
            ("validate", {"seed": 1, "geometry": SQUARE_GEOM}, "'geometry'"),
        ],
    )
    def test_config_key_not_read(self, command, config, key, geom, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command != "validate":
            argv += ["--geometry", str(geom)]
        assert main(argv) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, key",
        [
            ("simulate", {"M": "abc", "horizon": 1}, "'M'"),
            ("simulate", {"svg_every": "x", "M": 4, "horizon": 1}, "'svg_every'"),
            ("threshold", {"tol": "x"}, "'tol'"),
            ("one-step", {"a": [0.5]}, "'a'"),
            ("validate", {"seed": "x"}, "'seed'"),
            ("validate", {"seed": 1.7}, "'seed'"),
            ("validate", {"seed": 2.0}, "'seed'"),
            ("simulate", {"M": True, "horizon": 1}, "'M'"),
            ("threshold", {"tol": None}, "'tol'"),
        ],
    )
    def test_config_value_of_wrong_type(self, command, config, key, geom, tmp_path, capsys):
        # typed like the command-line option: a usage error, not a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)]
        if command != "validate":
            argv += ["--geometry", str(geom)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    @pytest.mark.parametrize("config", [None, {"seed": -1}])
    def test_negative_seed(self, config, tmp_path, capsys):
        argv = ["validate", "--seed", "-1"]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["validate", "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'seed'" in err

    def test_unreadable_config(self, tmp_path, geom):
        assert main([
            "simulate", "--config", str(tmp_path / "missing.json"),
            "--geometry", str(geom), "--M", "1.0",
        ]) == 1


class TestRenderSvg:
    def test_stadium_path_is_closed(self):
        # two sides and two half-turn arcs, the last ending where it began
        svg = render_svg([shrinkset.RoundedSet.stadium((0.3, -0.2), (2.1, 1.4), 0.35)])
        path = re.search(r' d="([^"]*)"', svg).group(1).split()
        assert path.count("L") == 2 and path.count("A") == 2 and path[-1] == "Z"
        start, end = map(float, path[1:3]), map(float, path[-3:-1])
        assert list(end) == pytest.approx(list(start), abs=1e-12)

    def test_stadium_half_turns_are_one_arc(self):
        # a half-turn's span is pi only up to rounding: it was split in two
        # whenever it rounded above pi, on 574 of these 3000 stadiums
        rng = np.random.default_rng(18)
        for p, q, r in rng.random((3000, 3, 2)) * 4.0 - 2.0:
            path = _svg_path(shrinkset.RoundedSet.stadium(p, q, abs(r[0]) + 0.01))
            assert path.count("A") == 2 and path.count("L") == 2

    def test_no_sets(self):
        empty = '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
        assert render_svg([]) == empty
        assert render_svg([shrinkset.RoundedSet.empty()]) == empty


class TestImport:
    def test_benchmark_hooks_load_on_first_lookup(self):
        # importing the package loads no scipy module: the former tail
        # root-finder and distance transform, which only the benchmark's
        # tracer looks up, load on that lookup, and both names still resolve
        code = (
            "import sys\n"
            "import shrinkset\n"
            "from shrinkset import evolution, raster\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
            "brentq, edt = evolution.brentq, raster.distance_transform_edt\n"
            "from scipy.optimize import brentq as want_brentq\n"
            "from scipy.ndimage import distance_transform_edt as want_edt\n"
            "assert brentq is want_brentq and edt is want_edt\n"
            "assert not hasattr(evolution, 'distance_transform_edt')\n"
        )
        src = os.path.dirname(os.path.dirname(shrinkset.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_validate_without_scipy(self):
        # the random sets build their own hull: validate's report is the
        # same with scipy unimportable
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from shrinkset.cli import main\n"
            "sys.exit(main(['validate', '--seed', '0']))\n"
        )
        src = os.path.dirname(os.path.dirname(shrinkset.__file__))
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert hashlib.sha256(done.stdout).hexdigest() == VALIDATE_DIGEST


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, geom, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            rc = main([
                "simulate", "--geometry", str(geom), "--M", "3.7",
                "--horizon", "2.0", "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("geometry, argv, digest", PINNED)
    def test_pinned_bytes(self, geometry, argv, digest, tmp_path):
        if geometry is not None:
            g = tmp_path / "shape.json"
            g.write_text(json.dumps(geometry))
            argv = [*argv, "--geometry", str(g)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestOutputFile:
    """--out and the SVG snapshots are rewritten in place, not truncated to
    zero first; the bytes are those of a fresh file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold"],
            ["one-step", "--a", "0.9"],
            ["simulate", *GOLDEN[0][1]],
        ],
    )
    def test_rewrite_leaves_no_stale_tail(self, argv, geom, tmp_path):
        fresh, out = tmp_path / "fresh.out", tmp_path / "old.out"
        assert main([*argv, "--geometry", str(geom), "--out", str(fresh)]) == 0
        want = fresh.read_bytes()
        out.write_bytes(b"stale\n" * (len(want) // 6 + 100))
        assert main([*argv, "--geometry", str(geom), "--out", str(out)]) == 0
        assert out.read_bytes() == want
        if argv[0] == "simulate":
            assert hashlib.sha256(want).hexdigest() == GOLDEN[0][2]

    def test_svg_rerun_leaves_no_stale_tail(self, geom, tmp_path):
        argv = ["simulate", "--geometry", str(geom), "--M", "4", "--horizon", "1",
                "--svg-every", "0.5"]
        first, second = tmp_path / "first", tmp_path / "second"
        first.mkdir()
        second.mkdir()
        assert main([*argv, "--out", str(first / "t.csv")]) == 0
        svgs = sorted(p.name for p in first.glob("t.t*.svg"))
        assert len(svgs) >= 2
        for name in svgs:
            (second / name).write_text("<stale/>\n" * 10_000)
        assert main([*argv, "--out", str(second / "t.csv")]) == 0
        for name in svgs:
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_dev_null(self, geom):
        assert main(["threshold", "--geometry", str(geom), "--out", os.devnull]) == 0

    def test_new_file_mode_follows_umask(self, geom, tmp_path):
        out = tmp_path / "report.json"
        umask = os.umask(0o002)
        try:
            assert main(["threshold", "--geometry", str(geom), "--out", str(out)]) == 0
        finally:
            os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o002

    def test_existing_file_keeps_inode_and_mode(self, geom, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old")
        out.chmod(0o600)
        before = out.stat()
        assert main(["threshold", "--geometry", str(geom), "--out", str(out)]) == 0
        after = out.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mode == before.st_mode
        assert json.loads(out.read_text())["M0"] > 0

    @pytest.mark.parametrize("target", ["no-such-dir/report.json", "."])
    def test_unwritable_out_is_usage_error(self, target, geom, tmp_path, capsys):
        out = tmp_path / target
        assert main(["threshold", "--geometry", str(geom), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")

    def test_unwritable_snapshot_is_usage_error(self, geom, tmp_path, capsys):
        # a directory where the first snapshot should go
        (tmp_path / "t.t0.svg").mkdir()
        assert main([
            "simulate", "--geometry", str(geom), "--M", "4", "--horizon", "1",
            "--svg-every", "0.5", "--out", str(tmp_path / "t.csv"),
        ]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write output:")


class TestRepeatedMain:
    """main builds its parser once per process; no call may leak state into
    the next."""

    def test_suite_selection_does_not_accumulate(self, tmp_path):
        out = tmp_path / "report.txt"
        assert main(["validate", "--suite", "none"]) == 0
        assert main(["validate", "--suite", "invariants", "--out", str(out)]) == 0
        names = [line.split()[0] for line in out.read_text().splitlines()]
        assert names[0] == "steiner-growth-0" and names[-1] == "overall"
        assert not [n for n in names if n.startswith("raster-")]

    def test_help_usage_error_then_run(self, geom, capsys):
        assert main(["threshold", "--help"]) == 0
        assert "--tol" in capsys.readouterr().out
        assert main(["threshold", "--geometry", str(geom), "--M", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
        assert main(["threshold", "--geometry", str(geom)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert set(json.loads(captured.out)) >= {"M0", "bracket", "iterations", "T_dagger"}

    def test_same_argv_same_report(self, geom, capsys):
        argv = ["threshold", "--geometry", str(geom), "--tol", "0.01"]
        reports = []
        for _ in range(2):
            assert main(argv) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and reports[0]
