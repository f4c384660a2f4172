import json
import math
import shlex
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from driftwell import (Grid1D, Grid2D, build_field_2d, build_potential_1d,
                       cli, liouville_q)
from driftwell import pde2d
from driftwell.cli import COMMANDS, SCHEMA, _solver_pair, build_parser, main
from driftwell.io import _CHUNK_ROWS, CSV_VERSION, write_csv, write_json
from driftwell.potential import CATALOG_1D


def read_csv_body(path):
    """CSV lines with comments stripped (drops the timestamp line too)."""
    lines = path.read_text().splitlines()
    assert lines[0] == "# driftwell-csv v1"
    return [ln for ln in lines if not ln.startswith("#")]


def stable_lines(path):
    """Output lines minus the CSV timestamp comment and eigen.json's
    runtime_s, the two fields allowed to differ between reruns."""
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("# timestamp: ") and '"runtime_s": ' not in ln]


class TestEig1d:
    def test_dirichlet_baseline(self, tmp_path):
        rc = main(["eig1d", "--potential", "constant", "--c", "0", "--p", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "eigen.json").read_text())
        assert data["lambda"] == pytest.approx(np.pi**2 / 4, rel=1e-6)
        body = read_csv_body(tmp_path / "eigenfunction.csv")
        assert body[0] == "x,u1,v1"
        assert len(body) == 1 + data["n"]

    def test_ax_p40(self, tmp_path):
        rc = main(["eig1d", "--potential", "power", "--alpha", "2",
                   "--p", "40", "--out", str(tmp_path)])
        assert rc == 0
        lam = json.loads((tmp_path / "eigen.json").read_text())["lambda"]
        cf = math.sqrt(2 / math.pi) * 40**1.5 * math.exp(-20.0)
        assert 0.85 <= lam / cf <= 1.15

    def test_loose_rtol_keeps_the_loop_value(self, tmp_path):
        # rtol 1e-4 stops the loop about 2e-8 above lambda_1; the value the
        # loop reached is reported, not a bisected one
        rc = main(["eig1d", "--potential", "sine", "--p", "0", "--rtol", "1e-4",
                   "--out", str(tmp_path)])
        assert rc == 0
        lam = json.loads((tmp_path / "eigen.json").read_text())["lambda"]
        assert lam == pytest.approx(2.4674010245303735, rel=1e-12)

    def test_overflow_guard_exit_code(self, tmp_path, capsys):
        rc = main(["eig1d", "--potential", "power", "--alpha", "2",
                   "--p", "2000", "--out", str(tmp_path)])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert "asym" in err["error"]
        assert err["kind"] == "OverflowGuardError"

    @pytest.mark.parametrize("m", ["1", "2"])
    def test_past_window_exit_3(self, tmp_path, capsys, m):
        # spread 190 * 2 = 380 > 300: m = 1 printed a floored lambda with a
        # tiny residual, m = 2 spun in the bisection
        out = tmp_path / "out"
        rc = main(["eig1d", "--potential", "sine", "--l", repr(1.5 * math.pi),
                   "--n", "801", "--p", "190", "--m", m, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "OverflowGuardError" and "asym" in record["error"]
        assert not (out / "eigen.json").exists()

    def test_multiple_eigenvalues(self, tmp_path):
        rc = main(["eig1d", "--potential", "constant", "--c", "0", "--p", "0",
                   "--m", "3", "--n", "1001", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "eigen.json").read_text())
        lams = [e["lambda"] for e in data["eigenvalues"]]
        expect = [(k * np.pi / 2) ** 2 for k in (1, 2, 3)]
        np.testing.assert_allclose(lams, expect, rtol=1e-4)

    @pytest.mark.parametrize("flags", [
        ["--m", "2", "--rtol", "0"],        # bisection stalled on adjacent floats
        ["--rtol", "-1"], ["--rtol", "nan"], ["--rtol", "inf"],
        ["--m", "0"], ["--m", "-2"],        # wrote one eigenvalue
        ["--m", "900", "--n", "801"], ["--n", "0"],
    ])
    def test_bad_config_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = main(["eig1d", "--potential", "constant", "--c", "0", "--p", "0",
                   *flags, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "ConfigError"
        assert not out.exists()


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential = power\nwhatever = 3\n")
        rc = main(["eig1d", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "whatever" in json.loads(capsys.readouterr().err)["error"]

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential = constant\nc = 0\np = 0\nn = 501\n"
                       "# comment line\nl = 1.0\n")
        rc = main(["eig1d", "--config", str(cfg), "--n", "2001",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "eigen.json").read_text())["n"] == 2001

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = not_a_number\n")
        assert main(["eig1d", "--config", str(cfg)]) == 2

    def test_p0_key_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eig1d", "--p0", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p0 = 1\n")
        capsys.readouterr()
        assert main(["eig1d", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "p0" in json.loads(capsys.readouterr().err)["error"]

    def test_unknown_potential_exit_2(self, tmp_path):
        assert main(["eig1d", "--potential", "cubic",
                     "--out", str(tmp_path)]) == 2


def exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def readme_examples():
    """argv (without the program name) of each line of the README's CLI
    block, split as the CI step splits them."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "driftwell" for argv in lines)
    return [argv[1:] for argv in lines]


class ReadRecorder(dict):
    """A config dict that records every key a command reads from it."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


class TestParser:
    def test_one_flag_per_schema_key(self):
        # each command takes one flag per key it reads, spelled --key with
        # dashes; every SCHEMA key is read by some command
        sub = build_parser()._subparsers._group_actions[0]
        assert list(sub.choices) == list(COMMANDS)
        for name, sp in sub.choices.items():
            dests = [a.dest for a in sp._actions if a.dest in SCHEMA]
            assert sorted(dests) == sorted(set(COMMANDS[name][1])), name
            for action in sp._actions:
                if action.dest in SCHEMA:
                    assert action.option_strings == [
                        "--" + action.dest.replace("_", "-")]
        assert set().union(*(keys for _, keys in COMMANDS.values())) == set(SCHEMA)

    def test_named_command_parser_holds_only_its_subparser(self):
        full = build_parser()._subparsers._group_actions[0].choices
        for name in COMMANDS:
            sub = build_parser(name)._subparsers._group_actions[0]
            assert list(sub.choices) == [name]
            assert ([(a.option_strings, a.dest, a.type)
                     for a in sub.choices[name]._actions]
                    == [(a.option_strings, a.dest, a.type)
                        for a in full[name]._actions])

    def test_catalog_texts_list_their_tables(self, tmp_path, capsys):
        # the --potential and --field help and make_field's message name
        # every key of their tables, in table order
        sp = build_parser("well")._subparsers._group_actions[0].choices["well"]
        helps = {a.dest: a.help for a in sp._actions}
        assert helps["potential"] == "1D catalog: " + ", ".join(CATALOG_1D)
        assert helps["field"] == "2D catalog: " + ", ".join(cli._FIELD_PARAMS)
        assert list(CATALOG_1D) == ["power", "sine", "quartic", "constant"]
        assert list(cli._FIELD_PARAMS) == ["vortex", "two-bump", "constant",
                                           "separable"]
        out = tmp_path / "out"
        assert main(["well", "--field", "spiral", "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == (
            "unknown field 'spiral' (" + ", ".join(cli._FIELD_PARAMS) + ")")

    def test_dashed_flags_parse(self):
        parser = build_parser()
        assert parser.parse_args(["asym", "--p-list", "1,2.5"]).p_list == [1.0, 2.5]
        args = parser.parse_args([
            "evolve2d", "--t-end", "0.3",
            "--window-start", "0.1", "--window-end", "0.2",
            "--snapshot-every", "0.05"])
        assert (args.t_end, args.window_start, args.window_end,
                args.snapshot_every) == (0.3, 0.1, 0.2, 0.05)

    def test_readme_examples_parse(self):
        examples = readme_examples()
        assert len(examples) >= 14
        assert {argv[0] for argv in examples} == set(COMMANDS)
        for argv in examples:
            assert build_parser().parse_args(argv).command == argv[0]

    def test_readme_examples_read_only_their_keys(self, tmp_path, monkeypatch):
        commands = dict(COMMANDS)
        for k, argv in enumerate(readme_examples()):
            run, keys = commands[argv[0]]
            seen = set()
            monkeypatch.setitem(COMMANDS, argv[0], (
                lambda cfg, run=run, seen=seen: run(ReadRecorder(cfg, seen)),
                keys))
            if "--out" in argv:
                argv[argv.index("--out") + 1] = str(tmp_path / str(k))
            assert main(argv) == 0, argv
            read = {key for key in seen if not key.startswith("_")}
            assert read and read <= set(keys), (argv[0], read - set(keys))


class TestNamedCommandParser:
    """main builds the parser of the named command alone; each argv keeps
    the exit code, stderr line and parse it had with the full parser."""

    CHOICES = "'eig1d', 'asym', 'bounds', 'well', 'sweep', 'evolve2d', 'lifespan'"

    @pytest.mark.parametrize("argv,code,error", [
        (["eig1d", "--field", "vortex"], 2,
         "driftwell: unrecognized arguments: --field vortex"),
        (["eig1d", "--n", "abc"], 2,
         "driftwell eig1d: argument --n: invalid int value: 'abc'"),
        (["eig1d", "--help"], 0, None),
        (["--help"], 0, None),
        (["eig2d"], 2, "driftwell: argument command: invalid choice: "
                       f"'eig2d' (choose from {CHOICES})"),
        ([], 2, "driftwell: the following arguments are required: command"),
    ])
    def test_exit_code_and_stderr(self, capsys, argv, code, error):
        assert exit_code(argv) == code
        out, err = capsys.readouterr()
        if error is None:
            assert err == ""
            with pytest.raises(SystemExit) as full:
                build_parser().parse_args(argv)
            assert full.value.code == 0
            assert capsys.readouterr().out == out
        else:
            assert err == json.dumps({"error": error, "kind": "ConfigError",
                                      "exit_code": 2}) + "\n"

    def test_same_namespace_as_full_parser(self, monkeypatch, capsys):
        parsed = []
        monkeypatch.setattr(cli, "resolve_config",
                            lambda args: parsed.append(args) or {})
        for name, (_, keys) in COMMANDS.items():
            monkeypatch.setitem(COMMANDS, name, (lambda cfg: 0, keys))
        sweep = ["sweep", "--config", "run.cfg", "--potential", "power",
                 "--alpha", "3", "--c", "1", "--l", "2", "--n", "801",
                 "--p", "5", "--p-list", "10,20,30", "--tol", "0.1",
                 "--rtol", "1e-9", "--out", "out/"]
        for argv in [*readme_examples(), sweep]:
            assert main(argv) == 0, argv
            assert parsed.pop() == build_parser().parse_args(argv), argv
        assert capsys.readouterr().err == ""


class TestLibraryQuickstart:
    def test_runs_and_matches_its_comments(self):
        # the README's python block under "## Library quickstart", run as
        # written; its comments give lambda and the well depth
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = (text.split("\n## Library quickstart\n", 1)[1]
                 .split("```python\n", 1)[1].split("```", 1)[0])
        scope = {}
        exec(block, scope)
        assert f"{scope['lam']:.2e}" == "4.05e-07"
        assert f"{float(np.exp(scope['asym'].log_lambda)):.2e}" == "4.05e-07"
        assert f"{scope['wells'].max_depth:.4f}" == "0.4995"
        assert scope["bound"].log_upper_quotient >= np.log(scope["lam"])


class TestUnreadKeys:
    """A flag or config-file key the command does not read exits 2 with
    one JSON line and nothing written; each ran with the default before."""

    @pytest.mark.parametrize("args", [
        ["eig1d", "--potential", "power", "--n", "401", "--p-list", "40"],
        ["lifespan", "--potential", "power", "--n", "401", "--p-list", "40"],
        ["sweep", "--potential", "power", "--n", "401", "--p-list", "10,20,30",
         "--beta", "0.1"],
        ["asym", "--potential", "power", "--n", "401", "--tau", "1"],
        ["evolve2d", "--field", "constant", "--nx", "19", "--ny", "19",
         "--n", "51"],
        # keys the command reads, but not for this catalog entry, field kind
        # or well mode
        ["eig1d", "--potential", "sine", "--l", "2", "--n", "201", "--p", "3",
         "--alpha", "3", "--c", "5"],
        ["well", "--potential", "quartic", "--l", "2", "--n", "201",
         "--nx", "51", "--radius", "3"],
        ["well", "--field", "two-bump", "--nx", "19", "--ny", "19",
         "--n", "51"],
        ["evolve2d", "--field", "vortex", "--nx", "19", "--ny", "19",
         "--tau", "1e-3", "--t-end", "0.1", "--cx", "2"],
    ])
    def test_flag_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert exit_code([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and record["exit_code"] == 2
        assert args[-2] in record["error"]
        assert not out.exists()

    def test_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("potential = power\nn = 401\ntau = 1\n")
        out = tmp_path / "out"
        assert main(["eig1d", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError"
        assert "eig1d does not read key 'tau'" in record["error"]
        assert not out.exists()


class TestAsym:
    def test_catalog_columns(self, tmp_path):
        rc = main(["asym", "--potential", "power", "--alpha", "2",
                   "--p-list", "20,40,80", "--n", "2001",
                   "--out", str(tmp_path)])
        assert rc == 0
        body = read_csv_body(tmp_path / "asym.csv")
        assert body[0] == "p,log_lambda_product,log_lambda_closed,ratio,reliable"
        rows = [ln.split(",") for ln in body[1:]]
        ratios = [float(r[3]) for r in rows]
        assert all(0.8 < r < 1.3 for r in ratios)
        assert [r[4] for r in rows] == ["true"] * 3

    def test_reliable_column_carries_the_ordering_check(self, tmp_path):
        # b = c x has no well, so the well-ordering check fails: the
        # product formula is still written, flagged unreliable
        for job in ("asym", "sweep"):
            rc = main([job, "--potential", "constant", "--c", "1",
                       "--p-list", "10,20,30", "--n", "1001",
                       "--out", str(tmp_path / job)])
            assert rc == 0
            body = read_csv_body(tmp_path / job / f"{job}.csv")
            assert body[0].endswith(",reliable")
            assert [ln.split(",")[-1] for ln in body[1:]] == ["false"] * 3

    def test_no_closed_form_at_p0(self, tmp_path):
        # the closed forms are large-p limits; p = 0 wrote -inf and inf
        rc = main(["asym", "--potential", "power", "--n", "401",
                   "--p-list", "0,1", "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln.split(",") for ln in read_csv_body(tmp_path / "asym.csv")[1:]]
        assert [r[0] for r in rows] == ["0.0", "1.0"]
        assert rows[0][2:4] == ["nan", "nan"]
        assert math.isfinite(float(rows[0][1]))
        assert all(math.isfinite(float(v)) for v in rows[1][:4])

    @pytest.mark.parametrize("potential, l", [("sine", "9.42"),
                                              ("quartic", "1.2")])
    def test_no_closed_form_outside_its_domain(self, tmp_path, potential, l):
        # the sine form needs l < 2 pi and the quartic form l > sqrt(2);
        # outside them asym exited 2 and wrote nothing
        rc = main(["asym", "--potential", potential, "--l", l,
                   "--p-list", "10,20,30", "--out", str(tmp_path)])
        assert rc == 0
        rows = [ln.split(",") for ln in read_csv_body(tmp_path / "asym.csv")[1:]]
        assert [r[0] for r in rows] == ["10.0", "20.0", "30.0"]
        assert all(r[2:] == ["nan", "nan", "false"] for r in rows)
        assert all(math.isfinite(float(r[1])) for r in rows)

    def test_determinism_modulo_timestamp(self, tmp_path):
        # reruns write the same bytes apart from the CSV timestamp line and
        # eigen.json's runtime_s (a wall time)
        jobs = {
            "asym": (["asym", "--potential", "sine", "--l", str(1.5 * np.pi),
                      "--p-list", "30,60", "--n", "1001"], ["asym.csv"]),
            "eig1d": (["eig1d", "--potential", "quartic", "--l", "2",
                       "--p", "20", "--n", "801"],
                      ["eigen.json", "eigenfunction.csv"]),
            "well": (["well", "--field", "two-bump", "--nx", "99", "--ny", "99"],
                     ["well.json", "potential.csv"]),
            "evolve2d": (["evolve2d", "--field", "vortex", "--p", "30",
                          "--nx", "23", "--ny", "17", "--tau", "1e-3",
                          "--t-end", "0.05", "--snapshot-every", "0.02",
                          "--line=-0.9,-0.3,0.8,0.6"],
                         ["fit.json", "norms.csv", "profile.csv", "section.csv",
                          "section_line.csv", "adjoint_profile.csv",
                          "snapshot_0000.csv", "snapshot_0001.csv"]),
        }
        for job, (args, files) in jobs.items():
            for run in ("a", "b"):
                assert main(args + ["--out", str(tmp_path / job / run)]) == 0
            for name in files:
                a, b = (tmp_path / job / run / name for run in ("a", "b"))
                assert a.read_text().count("runtime_s") == (name == "eigen.json")
                assert stable_lines(a) == stable_lines(b), name


class TestSweep:
    def test_ax_fit(self, tmp_path):
        rc = main(["sweep", "--potential", "power", "--alpha", "2",
                   "--p-list", "10,20,30,40,50,60", "--n", "2001",
                   "--out", str(tmp_path)])
        assert rc == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["decay"]
        assert fit["fitted_b0"] == pytest.approx(0.5, rel=0.05)
        assert fit["abs_diff"] < 0.05 * 0.5
        body = read_csv_body(tmp_path / "sweep.csv")
        assert body[0].startswith("p,lambda_solver,log_lambda_asym")
        assert len(body) == 7

    def test_constant_drift_reports_no_decay(self, tmp_path):
        rc = main(["sweep", "--potential", "constant", "--c", "1",
                   "--p-list", "5,10,15,20", "--n", "1001",
                   "--out", str(tmp_path)])
        assert rc == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert not fit["decay"]
        assert fit["fitted_b0"] is None
        # running rate (1/p) log(1/lambda) is negative and growing toward 0
        body = read_csv_body(tmp_path / "sweep.csv")
        rates = [float(ln.split(",")[5]) for ln in body[1:]]
        assert all(r < 0 for r in rates)
        assert rates[-1] > rates[0]

    def test_needs_three_points(self, tmp_path):
        assert main(["sweep", "--potential", "power", "--p-list", "10,20",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("p_list", [
        "0,1,2",    # wrote a NaN confidence_half_width after a sqrt warning
        "1,1,1",    # exited 3 on a singular matrix
    ])
    def test_needs_three_distinct_positive_p(self, tmp_path, capsys, p_list):
        out = tmp_path / "out"
        assert main(["sweep", "--potential", "power", "--n", "401",
                     "--p-list", p_list, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError"
        assert "3 distinct positive" in record["error"]
        assert not out.exists()

    def test_asymptotic_fallback_beyond_solver_window(self, tmp_path):
        # beyond p*range(b) = 300 assembly refuses; the sweep must switch
        # to the log-domain asymptotics and still recover the depth
        rc = main(["sweep", "--potential", "sine", "--l", str(1.5 * np.pi),
                   "--p-list", "100,200,280,320,360", "--n", "2001",
                   "--out", str(tmp_path)])
        assert rc == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["fitted_b0"] == pytest.approx(2.0, rel=0.05)
        body = read_csv_body(tmp_path / "sweep.csv")
        sources = [ln.split(",")[6] for ln in body[1:]]
        assert sources[0] == "solver" and sources[-1] == "asymptotics"


def reference_past_window(pot, p):
    """The spread test cli._solver_pair made itself before assembly owned
    the window; kept as the oracle for TestSolverWindow."""
    return p * (float(pot.b.max()) - float(pot.b.min())) > 300.0


class TestSolverWindow:
    """sweep, bounds and lifespan take the asymptotic value exactly where
    the former spread test did, on both sides of the window's edge."""

    @pytest.mark.parametrize("kind,l,params,ps", [
        ("power", 1.0, {"alpha": 2.0}, [599.0, 600.0, 600.0000001, 601.0]),
        ("sine", 1.5 * math.pi, {}, [149.0, 150.0, 150.5, 190.0]),
        ("quartic", 2.0, {}, [133.0, 133.4, 133.5, 134.0]),
    ])
    def test_routes_like_the_spread_test(self, kind, l, params, ps):
        pot = build_potential_1d(kind, Grid1D(l, 801), **params)
        routed = [_solver_pair(pot, p, 1e-10) is None for p in ps]
        assert routed == [reference_past_window(pot, p) for p in ps]
        assert any(routed) and not all(routed)


class TestRtolConfig:
    """rtol is checked once, before any work, for every command that
    solves the pencil."""

    COMMANDS = {
        "eig1d": ["eig1d", "--potential", "power", "--n", "801"],
        "sweep": ["sweep", "--potential", "power", "--p-list", "10,20,30",
                  "--n", "801"],
        "bounds": ["bounds", "--potential", "power", "--p-list", "10,20",
                   "--n", "801"],
        "lifespan": ["lifespan", "--potential", "power", "--n", "801"],
    }

    @pytest.mark.parametrize("rtol", ["-1", "nan", "0"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_rtol_exit_2(self, tmp_path, capsys, command, rtol):
        out = tmp_path / "out"
        rc = main([*self.COMMANDS[command], f"--rtol={rtol}", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and "rtol" in record["error"]
        assert not out.exists()

    def test_bad_rtol_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rtol = -1e-10\n")
        out = tmp_path / "out"
        assert main(["lifespan", "--config", str(cfg), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "ConfigError"
        assert not out.exists()


class TestTolConfig:
    """tol must be finite and nonnegative, checked before any work: -1
    raised a traceback, nan kept no well and inf was written as Infinity."""

    COMMANDS = {
        "well": ["well", "--potential", "power", "--n", "801"],
        "sweep": ["sweep", "--potential", "power", "--p-list", "10,20,30",
                  "--n", "801"],
        "bounds": ["bounds", "--potential", "power", "--p-list", "10,20",
                   "--n", "801"],
    }

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_tol_exit_2(self, tmp_path, capsys, command, tol):
        out = tmp_path / "out"
        rc = main([*self.COMMANDS[command], f"--tol={tol}", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and "tol" in record["error"]
        assert not out.exists()


class TestBounds:
    COLUMNS = ("p,log_upper_explicitC,log_upper_quotient,lower,lambda_solver,"
               "log_upper_combined")

    def test_power_sandwich(self, tmp_path):
        rc = main(["bounds", "--potential", "power", "--alpha", "2",
                   "--p-list", "10,20,40", "--out", str(tmp_path)])
        assert rc == 0
        body = read_csv_body(tmp_path / "bounds.csv")
        assert body[0] == self.COLUMNS
        rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
        assert [r[0] for r in rows] == [10.0, 20.0, 40.0]
        for p, log_exp, log_quot, lower, lam, log_up in rows:
            assert lower <= lam <= math.exp(log_up)
            assert log_up <= min(log_exp, log_quot)
            assert math.log(lam) <= log_quot

    def test_beyond_solver_window_has_no_solver_value(self, tmp_path):
        # spread p * range(b) = 160 * 2 = 320 > 300: the solver column is nan
        rc = main(["bounds", "--potential", "sine", "--l", str(1.5 * np.pi),
                   "--p-list", "160", "--n", "2001", "--out", str(tmp_path)])
        assert rc == 0
        body = read_csv_body(tmp_path / "bounds.csv")
        assert len(body) == 2
        row = dict(zip(self.COLUMNS.split(","), body[1].split(",")))
        assert row["lambda_solver"] == "nan"
        assert math.isfinite(float(row["log_upper_combined"]))

    def test_infeasible_levels_exit_3(self, tmp_path, capsys):
        # beta + omega = 0.5 is not below the well depth (1 - h)^2 / 2
        rc = main(["bounds", "--potential", "power", "--alpha", "2",
                   "--p-list", "10,20", "--beta", "0.2", "--omega", "0.3",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "CollarError"


class TestBetaOmegaConfig:
    """beta must be finite and positive and omega finite, checked before any
    work; each of these exited 3 with a CollarError after well detection."""

    @pytest.mark.parametrize("key,value", [
        ("beta", "nan"), ("beta", "-1"), ("beta", "0"), ("beta", "inf"),
        ("omega", "nan"), ("omega", "inf"), ("omega", "-inf")])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_exit_2(self, tmp_path, capsys, monkeypatch, key, value, given):
        def no_work(*args, **kwargs):
            raise AssertionError("well detection ran")

        monkeypatch.setattr(cli, "detect_wells", no_work)
        out = tmp_path / "out"
        argv = ["bounds", "--potential", "power", "--p-list", "10,20",
                "--n", "401", "--out", str(out)]
        if given == "flag":
            argv.append(f"--{key}={value}")
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and key in record["error"]
        assert not out.exists()


class TestWell:
    def test_two_bump_field(self, tmp_path):
        rc = main(["well", "--field", "two-bump", "--nx", "199", "--ny", "199",
                   "--tol", "0.05", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "well.json").read_text())
        depths = sorted(w["depth"] for w in data["wells"])
        assert depths == pytest.approx([2 * 0.4 / np.pi, 2 * 2 * 0.25 / np.pi],
                                       abs=2e-3)
        assert data["b0"] == pytest.approx(max(depths))
        body = read_csv_body(tmp_path / "potential.csv")
        assert body[0] == "x,y,b,q"

    def test_1d_quartic(self, tmp_path):
        rc = main(["well", "--potential", "quartic", "--l", "2",
                   "--n", "2001", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "well.json").read_text())
        assert data["b0"] == pytest.approx(2.25, abs=0.03)
        assert data["ordering_check"] is True
        assert read_csv_body(tmp_path / "potential.csv")[0] == "x,b,a,q"

    def test_separable_power_field(self, tmp_path):
        # b = (x^2 + y^2) / 2 on the 31^2 grid (h = 1/16): one well, whose
        # barrier is the lowest boundary-adjacent node (1 - h, 0)
        rc = main(["well", "--field", "separable", "--potential", "power",
                   "--alpha", "2", "--nx", "31", "--ny", "31",
                   "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "well.json").read_text())
        assert len(data["wells"]) == 1
        assert data["b0"] == data["wells"][0]["depth"] == 0.439453125
        assert "ordering_check" not in data
        body = read_csv_body(tmp_path / "potential.csv")
        assert body[0] == "x,y,b,q"
        assert len(body) == 1 + 33 * 33


class TestBuilderConfig:
    """A bad grid or field value reaches the builders through make_field or
    make_potential and must exit 2, not with a traceback."""

    @pytest.mark.parametrize("args", [
        ["well", "--field", "vortex", "--nx", "0"],
        ["well", "--field", "two-bump", "--l", "-1"],
        ["evolve2d", "--field", "constant", "--cx", "nan"],
        ["eig1d", "--potential", "power", "--l", "inf", "--n", "101"],
    ])
    def test_bad_builder_input_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "ConfigError"
        assert not out.exists()


class TestHugeFiniteP:
    """A finite p too large to evaluate: the asymptotics cannot integrate
    exp(p b) (its piece count overflowed an int cast), and q = p^2/4 |a|^2
    overflows to meet a zero speed.  Each exits 2 with one JSON line and
    writes nothing; `well` wrote well.json and a non-finite q before."""

    @pytest.mark.parametrize("args", [
        ["asym", "--potential", "power", "--p-list", "1e308"],
        ["lifespan", "--potential", "power", "--p", "1e300"],
        ["sweep", "--potential", "power", "--p-list", "1,2,1e300"],
        ["well", "--potential", "power", "--p", "1e300"],
        ["well", "--field", "vortex", "--nx", "19", "--ny", "19",
         "--p", "1e300"],
    ])
    def test_exit_2_writes_nothing(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evolve2d_far_departure_points(self, tmp_path):
        # at p = 1e300 every moving node departs from ~1e297 away: its
        # gather row is empty (the cast of its cell index warned before)
        assert main(["evolve2d", "--field", "vortex", "--p", "1e300",
                     "--nx", "19", "--ny", "19", "--t-end", "0.05",
                     "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert math.isfinite(fit["rate_l2"]) and math.isfinite(fit["rate_max"])


class TestPowerAlpha:
    """alpha = inf or nan made asym write a nan row and eig1d solve the
    zero-drift problem; the front door's finiteness rule refuses it before
    the catalog sees it."""

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["asym", "eig1d"])
    def test_nonfinite_alpha_exit_2(self, tmp_path, capsys, command, alpha):
        out = tmp_path / "out"
        assert main([command, "--potential", "power", "--alpha", alpha,
                     "--n", "101", "--p", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": f"alpha must be finite, got {float(alpha)!r}",
            "kind": "ConfigError", "exit_code": 2}
        assert not out.exists()


class TestFiniteP:
    """p and every p_list entry must be finite; checked before any work."""

    COMMANDS = {
        "eig1d": ["eig1d", "--potential", "power", "--n", "801", "--p", "nan"],
        "sweep": ["sweep", "--potential", "power", "--n", "801",
                  "--p-list", "10,20,inf"],
        "lifespan": ["lifespan", "--potential", "power", "--n", "801",
                     "--p=-inf"],
        "asym": ["asym", "--potential", "power", "--p-list", "nan,1"],
        "bounds": ["bounds", "--potential", "power", "--p-list", "1,inf"],
        "evolve2d": ["evolve2d", "--field", "constant", "--nx", "19",
                     "--ny", "19", "--p", "nan"],
        "well": ["well", "--potential", "power", "--n", "801", "--p", "nan"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_nonfinite_p_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([*self.COMMANDS[command], "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError"
        assert "p must be finite" in record["error"]
        assert not out.exists()


class TestFiniteNumbers:
    """Every float key, p_list entry and line number must be finite, checked
    before any work after the rtol, p, tol and beta checks.  Before, a
    non-finite window end wrote Infinity into fit.json, a line wrote nan
    rows into section_line.csv after RuntimeWarnings, snapshot_every inf
    ran with no snapshots, and a field parameter warned before exit 2."""

    # the zero-drift evolve2d run of each evolve2d case, less its key
    EVOLVE = ["evolve2d", "--field", "constant", "--cx", "0", "--p", "0",
              "--nx", "9", "--ny", "9"]
    CASES = {
        "window_start": (EVOLVE + ["--cy", "0", "--tau", "1e-3",
                                   "--t-end", "0.02"], "-inf", "-inf"),
        "window_end": (EVOLVE + ["--cy", "0", "--tau", "1e-3",
                                 "--t-end", "0.05"], "inf", "inf"),
        "line": (EVOLVE + ["--cy", "0", "--tau", "1e-3", "--t-end", "0.05"],
                 "0,0,inf,0", "((0.0, 0.0), (inf, 0.0))"),
        "snapshot_every": (EVOLVE + ["--cy", "0", "--tau", "1e-3",
                                     "--t-end", "0.05"], "inf", "inf"),
        "tau": (EVOLVE + ["--cy", "0", "--t-end", "0.05"], "inf", "inf"),
        "t_end": (EVOLVE + ["--cy", "0", "--tau", "1e-3"], "nan", "nan"),
        "cy": (EVOLVE + ["--tau", "1e-3", "--t-end", "0.05"], "nan", "nan"),
        "radius": (["well", "--field", "vortex", "--nx", "9", "--ny", "9"],
                   "inf", "inf"),
        "strength": (["well", "--field", "vortex", "--nx", "9", "--ny", "9"],
                     "inf", "inf"),
        "cx": (["well", "--field", "constant"], "inf", "inf"),
        "c": (["asym", "--potential", "constant", "--p-list", "1,2"],
              "-inf", "-inf"),
        "l": (["eig1d", "--potential", "power", "--n", "101"], "inf", "inf"),
    }

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("key", sorted(CASES))
    def test_exit_2(self, tmp_path, capsys, key, given):
        argv, value, shown = self.CASES[key]
        out = tmp_path / "out"
        argv = [*argv, "--out", str(out)]
        if given == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [{
            "error": f"{key} must be finite, got {shown}",
            "kind": "ConfigError", "exit_code": 2}]
        assert not out.exists()

    def test_earlier_checks_keep_their_message(self, tmp_path, capsys):
        # rtol inf fails its own check before the finiteness rule
        assert main(["eig1d", "--rtol", "inf", "--l", "inf",
                     "--out", str(tmp_path / "out")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "rtol must satisfy 0 < rtol < inf, got inf"


class TestWriteJson:
    def test_nan_refused_and_no_file(self, tmp_path):
        path = tmp_path / "fit.json"
        with pytest.raises(ValueError):
            write_json(path, {"rate": float("nan")})
        with pytest.raises(ValueError):
            write_json(path, {"window": [np.float64(-np.inf), 0.02]})
        assert not path.exists()


class TestNonnegativeP:
    """p and every p_list entry must be nonnegative; eig1d, lifespan,
    bounds and sweep raised a traceback, evolve2d, asym and well ran."""

    COMMANDS = {
        "eig1d": ["eig1d", "--potential", "power", "--n", "801", "--p", "-5"],
        "lifespan": ["lifespan", "--potential", "power", "--n", "801",
                     "--p", "-5"],
        "bounds": ["bounds", "--potential", "power", "--n", "801",
                   "--p-list", "-2"],
        "sweep": ["sweep", "--potential", "power", "--n", "801",
                  "--p-list=-1,2,3"],
        "asym": ["asym", "--potential", "power", "--p-list=1,-3"],
        "evolve2d": ["evolve2d", "--field", "constant", "--nx", "19",
                     "--ny", "19", "--p", "-1"],
        "well": ["well", "--potential", "power", "--n", "801", "--p", "-1"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_negative_p_exit_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        assert main([*self.COMMANDS[command], "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError"
        assert "nonnegative" in record["error"]
        assert not out.exists()


class TestEmptyPList:
    """A p_list with no number exits 2 before any work; asym and bounds ran
    at the default p = 10 and exited 0."""

    @pytest.mark.parametrize("command", ["asym", "bounds", "sweep"])
    @pytest.mark.parametrize("text", ["", ",", " ; "])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_no_number_exit_2(self, tmp_path, capsys, command, text, given):
        out = tmp_path / "out"
        argv = [command, "--potential", "power", "--n", "401", "--out", str(out)]
        if given == "flag":
            argv += ["--p-list", text]
        else:
            (tmp_path / "run.cfg").write_text(f"p_list = {text}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError"
        assert ("--p-list" if given == "flag" else "p_list") in record["error"]
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", ",", "1,2,3"])
    def test_line_keeps_its_message(self, tmp_path, capsys, text):
        (tmp_path / "run.cfg").write_text(f"line = {text}\n")
        out = tmp_path / "out"
        assert main(["evolve2d", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert "line needs 4 numbers x0,y0,x1,y1" in record["error"]
        assert exit_code(["evolve2d", "--line", text, "--out", str(out)]) == 2
        assert "--line" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()


class TestEvolve2d:
    def test_pure_diffusion(self, tmp_path):
        rc = main(["evolve2d", "--field", "constant", "--cx", "0", "--cy", "0",
                   "--p", "0", "--nx", "49", "--ny", "49", "--tau", "1e-3",
                   "--t-end", "0.8", "--line=-1,-0.5,1,0.7",
                   "--window-start", "0.5", "--window-end", "0.8",
                   "--snapshot-every", "0.4", "--out", str(tmp_path)])
        assert rc == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert fit["rate_l2"] == pytest.approx(np.pi**2 / 2, rel=0.05)
        assert fit["plateau"]
        assert fit["window"] == [0.5, 0.8]
        for name in ("norms.csv", "profile.csv", "section.csv",
                     "section_line.csv", "adjoint_profile.csv",
                     "snapshot_0000.csv", "snapshot_0001.csv"):
            assert (tmp_path / name).exists(), name
        body = read_csv_body(tmp_path / "profile.csv")
        assert body[0] == "x1,x2,u"
        assert len(body) == 1 + 49 * 49

    @pytest.mark.parametrize("flags, window", [
        (["--window-start", "0.01"], [0.01, 0.1]),
        (["--window-end", "0.09"], [0.06, 0.09]),
    ])
    def test_half_given_window(self, tmp_path, flags, window):
        # only the missing end takes its default (0.6 t_end or t_end)
        rc = main(["evolve2d", "--field", "constant", "--cx", "0", "--cy", "0",
                   "--p", "0", "--nx", "19", "--ny", "19", "--tau", "1e-3",
                   "--t-end", "0.1", *flags, "--out", str(tmp_path)])
        assert rc == 0
        assert json.loads((tmp_path / "fit.json").read_text())["window"] == window

    @pytest.mark.parametrize("flags", [["--tau", "0"], ["--tau=-1e-3"],
                                       ["--tau", "0.1", "--t-end", "0.01"],
                                       ["--snapshot-every=-0.1"]])
    def test_bad_step_config_exit_2(self, tmp_path, capsys, flags):
        rc = main(["evolve2d", "--field", "constant", "--cx", "0", "--cy", "0",
                   "--p", "0", "--nx", "19", "--ny", "19", *flags,
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["kind"] == "ConfigError"

    def test_unrecordable_step_count_exit_2(self, tmp_path, capsys):
        # 1e300 steps: numpy refuses the samples array before any step
        out = tmp_path / "out"
        rc = main(["evolve2d", "--field", "constant", "--nx", "9", "--ny", "9",
                   "--tau", "1e-300", "--t-end", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and "cannot record" in record["error"]
        assert not out.exists()

    @pytest.mark.parametrize("flags, window", [
        (["--field", "vortex", "--p", "40", "--t-end", "1",
          "--window-start", "2"], "(2.0, 1.0)"),
        (["--field", "constant", "--nx", "9", "--ny", "9", "--t-end", "0.01",
          "--tau", "0.001"], "(0.006, 0.01)"),
        (["--field", "constant", "--nx", "9", "--ny", "9", "--t-end", "0.1",
          "--tau", "0.001", "--window-start", "0.08", "--window-end", "0.05"],
         "(0.08, 0.05)"),
    ], ids=["past-the-run", "too-few-steps", "inverted"])
    def test_unusable_window_refused_before_stepping(self, tmp_path, capsys,
                                                      monkeypatch, flags, window):
        def no_steps(*args, **kwargs):
            raise AssertionError("evolve ran")
        monkeypatch.setattr(pde2d, "evolve", no_steps)
        out = tmp_path / "out"
        assert main(["evolve2d", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [{
            "error": f"window {window} holds fewer than 10 samples",
            "kind": "ConfigError", "exit_code": 2}]
        assert not out.exists()

    @pytest.mark.parametrize("start, rc", [("0.105", 0), ("0.115", 2)])
    def test_window_needs_ten_samples(self, tmp_path, start, rc):
        # samples at 0.01, ..., 0.2: [0.105, 0.2] holds 10, [0.115, 0.2] 9
        held = pde2d.select_window(pde2d.sample_times(0.2, 0.01),
                                   (0.105, 0.2))
        assert np.count_nonzero(held) == 10
        assert main(["evolve2d", "--field", "constant", "--nx", "9",
                     "--ny", "9", "--tau", "0.01", "--t-end", "0.2",
                     "--window-start", start, "--out", str(tmp_path)]) == rc

    def test_nonfinite_rate_exit_2(self, tmp_path, capsys):
        # sample times ~1e-300 apart: the fitted slope is 0/0 and -x/0, and
        # fit.json would hold NaN/Infinity, which is not JSON
        out = tmp_path / "out"
        rc = main(["evolve2d", "--field", "constant", "--cx", "0", "--cy", "0",
                   "--p", "0", "--nx", "19", "--ny", "19", "--tau", "1e-300",
                   "--t-end", "1e-299", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and "not finite" in record["error"]
        assert not out.exists()


class TestLifespan:
    def test_ax_p40(self, tmp_path):
        rc = main(["lifespan", "--potential", "power", "--alpha", "2",
                   "--p", "40", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "lifespan.json").read_text())
        assert data["source"] == "solver"
        assert data["half_life"] == pytest.approx(
            math.log(2) / data["lambda"], rel=1e-12)
        # magnitude ~ ln 2 / 4.16e-7 ~ 1.7e6 time units
        assert data["half_life"] == pytest.approx(1.67e6, rel=0.2)
        assert (tmp_path / "colony.csv").exists()

    def test_colony_is_the_eig1d_eigenfunction(self, tmp_path):
        args = ["--potential", "sine", "--l", str(1.5 * np.pi), "--p", "30",
                "--n", "801"]
        assert main(["lifespan", *args, "--out", str(tmp_path / "life")]) == 0
        assert main(["eig1d", *args, "--out", str(tmp_path / "eig")]) == 0
        colony = read_csv_body(tmp_path / "life" / "colony.csv")
        eigen = read_csv_body(tmp_path / "eig" / "eigenfunction.csv")
        assert colony[0] == eigen[0] == "x,u1,v1"
        assert len(colony) == 802
        assert ([ln.split(",")[1] for ln in colony]
                == [ln.split(",")[1] for ln in eigen])

    def test_log_safe_beyond_solver_range(self, tmp_path):
        rc = main(["lifespan", "--potential", "power", "--alpha", "2",
                   "--p", "4000", "--n", "2001", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "lifespan.json").read_text())
        assert data["source"] == "asymptotics"
        assert data["lambda"] is None          # underflows a double
        assert data["lifespan"] is None        # overflows a double
        assert data["log_lifespan"] == pytest.approx(-data["log_lambda"])
        assert data["log_lifespan"] > 1900.0


class TestSelfcheck:
    def test_removed_exit_2(self, capsys):
        # the invariant battery is gone; tier-1 checks each invariant once
        assert exit_code(["selfcheck", "--seed", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["kind"] == "ConfigError" and record["exit_code"] == 2
        assert "selfcheck" in record["error"]


def reference_fmt(value):
    """Per-cell formatting of every CSV cell through one type dispatch
    (test oracle for write_csv's float fast path)."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def reference_write_csv(path, columns, rows, meta=None):
    """The former row-by-row writer, verbatim but for its `_fmt`, which is
    `reference_fmt` here (test oracle for write_csv)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_VERSION}",
             f"# timestamp: {datetime.now(timezone.utc).isoformat()}"]
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {reference_fmt(meta[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join([repr(v) if type(v) is float
                               else reference_fmt(v) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def reference_lattice_rows(xs, ys, *fields):
    """CSV rows (x_i, y_j, f[i, j], ...), i outer, as Python floats; one
    lattice line is converted at a time.  (The former row source of the
    lattice CSVs, verbatim; test oracle for write_csv's lattice columns.)"""
    y_list = ys.tolist()
    for i, x in enumerate(xs.tolist()):
        yield from zip(repeat(x), y_list, *(f[i].tolist() for f in fields))


def bytes_past_timestamp(path):
    """The file's bytes minus its second line, the timestamp comment."""
    lines = path.read_bytes().split(b"\n")
    assert lines[1].startswith(b"# timestamp: ")
    return b"\n".join(lines[:1] + lines[2:])


def mixed_rows():
    """Rows of five float columns and one str column: Python floats, numpy
    float64 and float32 scalars, signed zeros, nan, infinities, a subnormal
    and magnitudes across the float64 range."""
    rng = np.random.default_rng(3)
    col = rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)
    return [
        (1.5, -0.0, 0.0, float("nan"), "solver", float("-inf")),
        (np.float64(0.1), np.float32(0.1), -7.0, 3.0, "true", float("inf")),
        (np.float64("nan"), np.float64("-inf"), np.float64(-0.0),
         2.0**31 - 1, "asymptotics", 5e-324),
        *zip(col.tolist(), col, (col * 1e-10).tolist(),
             map(float, range(50)), ["s"] * 50,
             rng.standard_normal(50).astype(np.float32)),
    ]


def chunks_written(monkeypatch, *args, **kwargs):
    """write_csv(*args, **kwargs), returning each text it wrote after the
    comment and header lines."""
    texts, real_open = [], Path.open

    class Log:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            texts.append(text)
            return self.fh.write(text)

    with monkeypatch.context() as m:
        m.setattr(Path, "open", lambda path, *a, **k: Log(real_open(path, *a, **k)))
        write_csv(*args, **kwargs)
    return texts[1:]


def chunk_lines(chunk):
    assert chunk.endswith("\n")
    return chunk[:-1].split("\n")


class TestWriteCsv:
    META = {"p": np.float64(40.0), "n": np.int64(3), "potential": "sine"}

    def test_rows_match_dispatch_oracle(self, tmp_path):
        rows = mixed_rows()
        meta = self.META
        write_csv(tmp_path / "t.csv", list("abcdef"), list(zip(*rows)),
                  meta=meta)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "# driftwell-csv v1"
        assert lines[1].startswith("# timestamp: ")
        expect = ([f"# {k}: {reference_fmt(meta[k])}" for k in sorted(meta)]
                  + ["a,b,c,d,e,f"]
                  + [",".join(reference_fmt(v) for v in row) for row in rows])
        assert lines[2:] == expect
        assert lines[6] == "1.5,-0.0,0.0,nan,solver,-inf"

    def test_mixed_table_bytes_match_row_oracle(self, tmp_path):
        # the same table given as arrays: four float64 columns, a float32
        # one widened exactly, and a str one
        rows = mixed_rows()
        columns = [np.array(col) for col in zip(*rows)]
        columns[5] = columns[5].astype(np.float32)
        assert [col.dtype.kind for col in columns] == list("ffffUf")
        write_csv(tmp_path / "new.csv", list("abcdef"), columns, meta=self.META)
        reference_write_csv(tmp_path / "old.csv", list("abcdef"),
                            zip(*(col.tolist() for col in columns)),
                            meta=self.META)
        assert (bytes_past_timestamp(tmp_path / "new.csv")
                == bytes_past_timestamp(tmp_path / "old.csv"))

    @pytest.mark.parametrize("nrows", [1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                       2 * _CHUNK_ROWS + 7])
    def test_table_chunks_match_row_oracle(self, tmp_path, monkeypatch, nrows):
        # float and str columns of a 1D table, across every chunk boundary:
        # chunks of at most the cap, of whole rows
        table = mixed_rows()
        rows = (table * -(-nrows // len(table)))[:nrows]
        chunks = chunks_written(monkeypatch, tmp_path / "new.csv",
                                list("abcdef"), list(zip(*rows)), meta=self.META)
        assert [len(chunk_lines(c)) for c in chunks] == (
            [_CHUNK_ROWS] * (nrows // _CHUNK_ROWS)
            + [nrows % _CHUNK_ROWS] * bool(nrows % _CHUNK_ROWS))
        reference_write_csv(tmp_path / "old.csv", list("abcdef"), rows,
                            meta=self.META)
        assert (bytes_past_timestamp(tmp_path / "new.csv")
                == bytes_past_timestamp(tmp_path / "old.csv"))

    @pytest.mark.parametrize("case", ["mixed", "signed-zeros", "nans",
                                      "constant", "zero-background",
                                      "transposed", "float32"])
    def test_lattice_blocks_match_row_oracle(self, tmp_path, monkeypatch,
                                             case):
        # fields a bit-keyed encoder could get wrong, each with cells its
        # f column must write, as broadcast lattice columns
        xs = np.array([-1.0, -0.0, 1e-300])
        ys = np.array([-0.5, 0.0, 0.1, 1 / 3, 0.5])
        f, g = np.random.default_rng(4).standard_normal((2, 3, 5))
        if case == "mixed":
            f[0, :] = [np.nan, np.inf, -np.inf, -0.0, 1e-300]
            g *= 1e-300
            g[2, 1] = np.nan
            cells = (b"nan", b"inf", b"-inf", b"-0.0", b"1e-300")
        elif case == "signed-zeros":
            f = np.zeros((3, 5))
            f[:, ::2] = -0.0
            g = -f
            cells = (b"0.0", b"-0.0")
        elif case == "nans":
            f[:, 1::2] = np.nan
            f[:, ::2] = np.copysign(np.nan, -1.0)
            g = np.copysign(np.nan, -f[::-1])
            assert np.signbit(f).any() and not np.signbit(f).all()
            cells = (b"nan",)
        elif case == "constant":
            f, g = np.full((3, 5), 0.1), np.full((3, 5), -2.5)
            cells = (b"0.1",)
        elif case == "zero-background":
            f = np.zeros((3, 5))
            f[1, 1:3] = 0.25
            f[2, 3] = -3.5
            g = f * f
            cells = (b"0.0", b"0.25", b"-3.5")
        elif case == "transposed":
            f, g = np.random.default_rng(5).standard_normal((2, 5, 3)) \
                .transpose(0, 2, 1)
            assert not f.flags.c_contiguous and not g.flags.c_contiguous
            cells = (repr(float(f[1, 2])).encode(),)
        else:   # float32, widened exactly to float64
            f, g = f.astype(np.float32), g.astype(np.float32) / 3
            cells = (repr(float(f[0, 1])).encode(),)
        meta = {"p": 40.0, "field": "vortex"}
        chunks = chunks_written(monkeypatch, tmp_path / "new.csv",
                                ["x", "y", "f", "g"],
                                [xs[:, None], ys[None, :], f, g], meta=meta)
        # 15 rows make one chunk
        assert len(chunks) == 1
        got = [tuple(row.split(",")) for row in chunk_lines(chunks[0])]
        expect = [tuple(map(repr, row))
                  for row in reference_lattice_rows(xs, ys, f, g)]
        assert got == expect
        reference_write_csv(tmp_path / "old.csv", ["x", "y", "f", "g"],
                            reference_lattice_rows(xs, ys, f, g), meta=meta)
        new = bytes_past_timestamp(tmp_path / "new.csv")
        assert new == bytes_past_timestamp(tmp_path / "old.csv")
        for cell in cells:
            assert b"," + cell + b"," in new

    @pytest.mark.parametrize("nx,ny", [
        (2 * (_CHUNK_ROWS // 50), 50),      # two full chunks
        (2 * (_CHUNK_ROWS // 50) + 7, 50),  # a short last chunk
        (3, _CHUNK_ROWS + 1),               # lines longer than the cap
        (1, _CHUNK_ROWS + 3), (1, 5),       # nx == 1
        (_CHUNK_ROWS + 5, 1), (4, 1),       # ny == 1
        (150, 150),                         # square: y is not sliced as x
    ])
    def test_lattice_chunks_cross_boundaries(self, tmp_path, monkeypatch,
                                             nx, ny):
        # whole lines per chunk, at most the cap unless one line is longer,
        # and the row oracle's bytes across every chunk boundary, with y
        # given as a row and as a 1-D array
        rng = np.random.default_rng(nx * 100003 + ny)
        xs, ys = rng.standard_normal(nx), rng.standard_normal(ny)
        f = rng.integers(-3, 4, (nx, ny)) / 4.0    # repeated cell texts
        g = rng.standard_normal((nx, ny))
        step = max(1, _CHUNK_ROWS // ny)
        reference_write_csv(tmp_path / "old.csv", ["x", "y", "f", "g"],
                            reference_lattice_rows(xs, ys, f, g))
        for y in (ys[None, :], ys):
            chunks = chunks_written(monkeypatch, tmp_path / "new.csv",
                                    ["x", "y", "f", "g"], [xs[:, None], y, f, g])
            assert len(chunks) == -(-nx // step)
            for k, chunk in enumerate(chunks):
                rows = chunk_lines(chunk)
                assert len(rows) == min(step, nx - k * step) * ny
                assert rows[0].startswith(repr(float(xs[k * step])) + ",")
            assert (bytes_past_timestamp(tmp_path / "new.csv")
                    == bytes_past_timestamp(tmp_path / "old.csv"))

    def test_two_bump_potential_csv_matches_row_oracle(self, tmp_path):
        # the full-size well --field file, written through the CLI
        rc = main(["well", "--field", "two-bump", "--nx", "199", "--ny", "199",
                   "--tol", "0.05", "--p", "40", "--out", str(tmp_path)])
        assert rc == 0
        grid = Grid2D(1.0, 1.0, 199, 199)
        fld = build_field_2d("bumps", grid, bumps=cli.TWO_BUMP)
        reference_write_csv(tmp_path / "old.csv", ["x", "y", "b", "q"],
                            reference_lattice_rows(grid.lattice_x(),
                                                   grid.lattice_y(), fld.b,
                                                   liouville_q(fld, 40.0)),
                            meta={"p": 40.0, "field": "two-bump"})
        new = bytes_past_timestamp(tmp_path / "potential.csv")
        assert new == bytes_past_timestamp(tmp_path / "old.csv")
        assert new.count(b"\n") == 4 + 201 * 201

    @pytest.mark.parametrize("columns", [
        [[], [], []],                                          # 1D table
        [np.array([], dtype=str), np.zeros(0), []],            # str column
        [np.zeros((0, 1)), np.zeros((1, 4)), np.zeros((0, 4))],  # no lines
        [np.zeros((3, 1)), np.zeros((1, 0)), np.zeros((3, 0))],  # empty lines
    ])
    def test_zero_rows_bytes(self, tmp_path, columns):
        write_csv(tmp_path / "new.csv", ["a", "b", "c"], columns)
        reference_write_csv(tmp_path / "old.csv", ["a", "b", "c"], [])
        new = bytes_past_timestamp(tmp_path / "new.csv")
        assert new == bytes_past_timestamp(tmp_path / "old.csv")
        assert new.endswith(b"\na,b,c\n")

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="broadcast"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], [1.0, 2.0, 3.0]])
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("column", [
        [1, 2, 3], np.arange(3, dtype=np.int32), [True, False, True],
        np.array([1.0, None, "a"], dtype=object), np.array([1.0, 2.0, 3.0], dtype=object),
    ], ids=["int", "int32", "bool", "object", "object-floats"])
    def test_columns_neither_float_nor_str_refused(self, tmp_path, column):
        # no caller writes one; the per-cell formatting they took is gone
        with pytest.raises(TypeError, match="floats or str"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[0.5, 1.5, 2.5], column])
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("column", [(np.float32(0.1), "x"), (0.1, "x"),
                                        (1, "x")],
                             ids=["float32", "float", "int"])
    def test_str_sequence_with_other_cells_refused(self, tmp_path, column):
        # numpy reads these as str and would write 0.1 for the float32 cell,
        # where a float column writes 0.10000000149011612
        with pytest.raises(TypeError, match="column 1 mixes str"):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[0.5, 1.5], column])
        assert not (tmp_path / "t.csv").exists()

    def test_str_sequence_accepted(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[0.5, 1.5], ("true", "false")])
        assert read_csv_body(tmp_path / "t.csv") == ["a,b", "0.5,true",
                                                     "1.5,false"]
