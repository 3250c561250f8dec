import json
from pathlib import Path

import numpy as np
import pytest

from gradsteer import LossScale, SolverConfig
from gradsteer.cli import (ConfigError, CsvError, EXIT_CONFIG, EXIT_DIVERGED,
                           EXIT_GRADCHECK, EXIT_OK, ingest_csv, main,
                           parse_config, run_fit, run_gradcheck, run_simulate)

from conftest import REPO, TABLE_V, TABLE_W

DATA_CSV = REPO / "data" / "michaelis_menten.csv"
GOLDEN_CFG = REPO / "configs" / "michaelis_menten.cfg"


# both agents frozen at their zero start: the follower's cap of one iteration
# returns it, and an eps_tol above the leader's first residual (2.68 for this
# problem) leaves the leader converged without a step
FROZEN = {"max_inner": "1", "eps_tol": "10.0"}


def write_config(path: Path, **overrides) -> Path:
    """Small, fast Michaelis-Menten configuration for CLI tests."""
    base = {
        "model": "michaelis_menten",
        "data": str(DATA_CSV),
        "train_indices": "1,3,5,7",
        "validation_indices": "2,4,6",
        "loss_scale": "half",
        "alpha": "0.01", "beta": "0.1",
        "gamma1": "0.01",
        "eps_tol": "1e-5", "inner_tol": "1e-5",
        "z": "0.005", "mu": "100.0",
        "terminal_mode": "penalty",
        "T": "0.75", "N_t": "400",
        "u_max": "10.0",
        "theta0": "3.9, 0.0178",
        "leader_mask": "1,0",
        "control": "grid",
        "max_outer": "3", "max_inner": "60",
        "out_dir": "out",
        "seed": "0",
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    cfg = path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg


class TestIngestCsv:
    def test_table_file(self):
        data = ingest_csv(DATA_CSV)
        assert len(data) == 7
        assert data.inputs[0, 0] == 0.3330
        assert data.outputs[0] == 3.6360

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvError, match="no such file"):
            ingest_csv(tmp_path / "nope.csv")

    def test_no_samples(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("w,v\n")
        with pytest.raises(CsvError, match="no samples"):
            ingest_csv(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(CsvError, match="h.csv:1"):
            ingest_csv(f)

    def test_non_numeric_row_names_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("w,v\n0.1,abc\n")
        with pytest.raises(CsvError, match="bad.csv:2"):
            ingest_csv(f)

    @pytest.mark.parametrize("row", ["0.5,nan", "0.7,inf", "-inf,1.0"])
    def test_non_finite_cell_names_line(self, tmp_path, capsys, row):
        f = tmp_path / "nf.csv"
        f.write_text(f"w,v\n0.1,0.2\n{row}\n0.3,0.4\n")
        with pytest.raises(CsvError, match=f"nf.csv:3: non-finite"):
            ingest_csv(f)
        cfg = write_config(tmp_path, data=str(f), train_indices="1",
                           validation_indices="2")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert f"{f}:3: " in capsys.readouterr().err

    def test_wrong_column_count(self, tmp_path):
        f = tmp_path / "cols.csv"
        f.write_text("w,v\n0.1,0.2,0.3\n")
        with pytest.raises(CsvError, match="2 columns"):
            ingest_csv(f)

    def test_roundtrip_exact(self, tmp_path, table_data):
        out = tmp_path / "rt.csv"
        out.write_text("w,v\n" + "".join(
            f"{float(x)!r},{float(y)!r}\n"
            for x, y in zip(table_data.inputs[:, 0], table_data.outputs)))
        back = ingest_csv(out)
        assert np.array_equal(back.inputs, table_data.inputs)
        assert np.array_equal(back.outputs, table_data.outputs)


class TestParseConfig:
    def test_golden_config(self):
        cfg = parse_config(GOLDEN_CFG)
        assert cfg.grid.steps == 2000
        assert cfg.solver.mu == 1e5
        assert cfg.loss_scale.value == "one"
        assert cfg.split.train_indices == (0, 2, 4, 6)
        assert np.array_equal(cfg.partition.leader_mask, [1.0, 0.0])

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path, model=None)
        with pytest.raises(ConfigError, match="model"):
            parse_config(cfg)

    def test_unknown_key_has_line(self, tmp_path, capsys):
        # gamma2, u1_init and u2_init are retired keys
        for key in ("bogus_key", "gamma2", "u1_init", "u2_init"):
            cfg = write_config(tmp_path)
            with open(cfg, "a") as fh:
                fh.write(f"{key} = 1\n")
            message = f":{len(cfg.read_text().splitlines())}: unknown key '{key}'"
            with pytest.raises(ConfigError, match=message):
                parse_config(cfg)
            assert main(["fit", str(cfg)]) == EXIT_CONFIG
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("alpha", "-0.5"), ("beta", "0"), ("gamma1", "1.5"),
        ("eps_tol", "0"), ("z", "-0.1"), ("mu", "-3"), ("N_t", "1"),
        ("T", "-2"), ("u_max", "0"), ("theta0", "1,not_a_number"),
        ("leader_mask", "1,2"), ("control", "fourier"),
        ("control", "basis ²"),  # a digit that int() cannot read
        ("loss_scale", "double"), ("terminal_mode", "soft"),
        ("train_indices", "0,1"),
        # index sets hold each sample once
        ("train_indices", "1,1,3,5,7"), ("validation_indices", "2,4,4"),
        # retired keys, refused whatever their value
        ("gamma2", "-1"), ("u1_init", "99"),
    ])
    def test_invariant_violations_rejected(self, tmp_path, key, value):
        # the message names the key, at the line that sets it
        cfg = write_config(tmp_path, **{key: value})
        line = cfg.read_text().splitlines().index(f"{key} = {value}") + 1
        with pytest.raises(ConfigError, match=f":{line}: .*{key}"):
            parse_config(cfg)

    def test_line_precise_message(self, tmp_path):
        cfg = write_config(tmp_path)
        lines = cfg.read_text().splitlines()
        idx = next(i for i, ln in enumerate(lines) if ln.startswith("alpha"))
        lines[idx] = "alpha = -1"
        cfg.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f":{idx + 1}: alpha"):
            parse_config(cfg)

    def test_grid_rule_names_its_key(self, tmp_path):
        cfg = write_config(tmp_path, N_t="1")
        idx = cfg.read_text().splitlines().index("N_t = 1")
        with pytest.raises(ConfigError, match=f":{idx + 1}: N_t: must be at least 2"):
            parse_config(cfg)

    def test_overlapping_split_rejected(self, tmp_path):
        cfg = write_config(tmp_path, train_indices="1,2", validation_indices="2,3")
        with pytest.raises(ConfigError):
            parse_config(cfg)

    def test_comments_and_blanks_ok(self, tmp_path):
        cfg = write_config(tmp_path)
        text = "# leading comment\n\n" + cfg.read_text() + "\n# trailing\n"
        cfg.write_text(text)
        parse_config(cfg)

    def test_required_keys_only_take_defaults(self, tmp_path):
        cfg = tmp_path / "minimal.cfg"
        cfg.write_text(f"model = michaelis_menten\ndata = {DATA_CSV}\n"
                       "train_indices = 1,3,5,7\nvalidation_indices = 2,4,6\n"
                       "T = 0.75\nN_t = 400\ntheta0 = 3.9, 0.0178\n"
                       "leader_mask = 1,0\n", encoding="utf-8")
        parsed = parse_config(cfg)
        assert parsed.solver == SolverConfig()
        assert parsed.loss_scale is LossScale.HALF
        assert parsed.basis_size == 0  # a grid control
        assert (parsed.out_dir, parsed.seed) == (Path("out"), 0)


class TestRunFit:
    def test_outputs_and_exit(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o1"
        assert run_fit(cfg, out) == EXIT_OK
        for name in ("report.json", "trajectory.csv", "controls.csv",
                     "fit_plot.svg", "residuals_plot.svg"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["theta"]) == 2
        assert report["outer_iterations"] == len(report["history"])
        assert len(report["residuals"]["values"]) == 7

    def test_deterministic_modulo_timestamp(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_fit(cfg, out1)
        run_fit(cfg, out2)

        def strip_ts(p: Path):
            return [ln for ln in (p / "report.json").read_text().splitlines()
                    if '"timestamp"' not in ln]

        assert strip_ts(out1) == strip_ts(out2)
        for name in ("trajectory.csv", "controls.csv", "fit_plot.svg",
                     "residuals_plot.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_gamma_zero_not_converged(self, tmp_path):
        cfg = write_config(tmp_path, **FROZEN)
        out = tmp_path / "oz"
        assert run_fit(cfg, out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False  # the follower stopped at its cap
        assert report["outer_iterations"] == 1
        first = report["history"][0]
        assert first["leader_grad_norm"] < float(FROZEN["eps_tol"])
        assert first["gamma1_used"] == first["gamma2_used"] == 0.0

    def test_divergent_config_exit_3(self, tmp_path, capsys):
        # an extreme target makes the exponential model's flow overflow within
        # the first integration step
        csv = tmp_path / "exp.csv"
        csv.write_text("w,v\n10.0,1e30\n10.0,1e30\n")
        cfg = write_config(tmp_path, model="exponential", data=str(csv),
                           train_indices="1", validation_indices="2",
                           theta0="1.0, 0.1", leader_mask="1,0", T="1.0",
                           N_t="50")
        code = main(["--out", str(tmp_path / "dv"), "fit", str(cfg)])
        assert code == EXIT_DIVERGED


class TestGoldenFit:
    # frozen report values of the small config for both control kinds; a
    # change to the solver's arithmetic or its order of operations moves them
    GOLDEN = {
        "grid": ([3.8650927085490725, 0.01732237487656885],
                 0.003699321835916024, 5.636879272023238,
                 0.05636895820863399),
        "basis 4": ([3.871569981772874, 0.017407093610953713],
                    0.0035369548142296712, 5.657508702399101,
                    0.05657525251234326),
    }

    @pytest.mark.parametrize("control", sorted(GOLDEN))
    def test_report_values(self, tmp_path, control):
        theta, phi, j1, j2 = self.GOLDEN[control]
        out = tmp_path / "o"
        assert run_fit(write_config(tmp_path, control=control), out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["theta"] == pytest.approx(theta, rel=1e-12)
        assert report["Phi"] == pytest.approx(phi, rel=1e-12)
        assert report["J1"] == pytest.approx(j1, rel=1e-12)
        assert report["J2"] == pytest.approx(j2, rel=1e-12)
        assert report["outer_iterations"] == 3
        assert report["converged"] is False


class TestRunSimulate:
    def test_linear_decay(self, tmp_path):
        csv = tmp_path / "lin.csv"
        csv.write_text("w,v\n1.0,0.0\n")
        cfg = write_config(tmp_path, model="linear", data=str(csv),
                           train_indices="1", validation_indices=None,
                           theta0="2.0", leader_mask="0", T="1.0", N_t="50")
        # validation_indices removed; re-add a legal split on one sample? not
        # possible with a single row, so build a 2-row file instead
        csv.write_text("w,v\n1.0,0.0\n1.0,0.0\n")
        cfg = write_config(tmp_path, model="linear", data=str(csv),
                           train_indices="1", validation_indices="2",
                           theta0="2.0", leader_mask="0", T="1.0", N_t="50")
        out = tmp_path / "sim"
        assert run_simulate(cfg, out) == EXIT_OK
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "t,theta_1"
        last = float(rows[-1].split(",")[1])
        assert abs(last) < 2.0  # decays toward zero

    def test_repeatable(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_simulate(cfg, out1)
        run_simulate(cfg, out2)
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_matches_degenerate_fit_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, **FROZEN)
        sim_out, fit_out = tmp_path / "sd", tmp_path / "fd"
        run_simulate(cfg, sim_out)
        run_fit(cfg, fit_out)
        assert (sim_out / "trajectory.csv").read_bytes() == \
            (fit_out / "trajectory.csv").read_bytes()


class TestRunGradcheck:
    def test_passes_and_writes_table(self, tmp_path):
        cfg = write_config(tmp_path, N_t="300", mu="100.0")
        out = tmp_path / "gc"
        assert run_gradcheck(cfg, out) == EXIT_OK
        lines = (out / "gradcheck.csv").read_text().splitlines()
        assert lines[0] == "functional,direction,fd,adjoint,rel_error"
        assert len(lines) == 41  # 20 directions x 2 functionals
        for line in lines[1:]:
            functional, direction, *numbers = line.split(",")
            assert functional in ("follower", "leader")
            int(direction)
            assert all(np.isfinite(float(cell)) for cell in numbers), line

    def test_corruption_fails(self, tmp_path):
        cfg = write_config(tmp_path, N_t="300", mu="100.0")
        out = tmp_path / "gcf"
        assert run_gradcheck(cfg, out, corruption=1e-2) == EXIT_GRADCHECK

    def test_shipped_config_seed_3(self, tmp_path):
        # the shipped reference config on its own grid (N_t = 2000, mu = 1e5):
        # seed 3 draws the controls and directions that an adjoint of the
        # continuous costate equation got wrong by more than the tolerance
        text = GOLDEN_CFG.read_text(encoding="utf-8")
        text = text.replace("../data/michaelis_menten.csv", str(DATA_CSV))
        text = text.replace("seed = 0", "seed = 3")
        assert "seed = 3" in text and str(DATA_CSV) in text
        cfg = tmp_path / "reference.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert main(["--out", str(tmp_path / "gc"), "gradcheck", str(cfg)]) \
            == EXIT_OK


class TestMain:
    def test_version(self, capsys):
        assert main(["version"]) == EXIT_OK
        from gradsteer import __version__
        assert capsys.readouterr().out.strip() == __version__

    def test_config_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = michaelis_menten\n")
        assert main(["fit", str(bad)]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_missing_config_exit(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.cfg")]) == EXIT_CONFIG

    @pytest.mark.parametrize("which,kind", [("config", "directory"),
                                            ("data", "directory"),
                                            ("config", "latin-1"),
                                            ("data", "latin-1")])
    def test_unreadable_input_exit(self, tmp_path, capsys, which, kind):
        # a directory, or a file that is not UTF-8, is a config error that
        # names the path, not a traceback
        csv = tmp_path / "data.csv"
        csv.write_bytes(DATA_CSV.read_bytes())
        cfg = write_config(tmp_path, data=str(csv))
        target = cfg if which == "config" else csv
        if kind == "directory":
            target.unlink()
            target.mkdir()
        else:
            target.write_bytes(target.read_bytes() + b"# caf\xe9\n")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {target}: ")

    def test_split_index_beyond_data(self, tmp_path, capsys):
        # the dataset has 7 rows; the message names the key and the 1-based
        # index as written
        cfg = write_config(tmp_path, validation_indices="2,4,9")
        line = cfg.read_text().splitlines().index("validation_indices = 2,4,9")
        assert main(["simulate", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:{line + 1}: validation_indices: sample 9 " in err

    @pytest.mark.parametrize("overrides", [
        {"theta0": "nan, 0.02"},
        {"theta0": "3.8, 0.02, 1.0", "leader_mask": "1,0,0"},
        {"model": "linear", "theta0": "3.8, 0.02"},
    ])
    def test_bad_theta0_names_its_line(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, **overrides)
        idx = next(i for i, ln in enumerate(cfg.read_text().splitlines())
                   if ln.startswith("theta0"))
        assert main(["fit", str(cfg)]) == EXIT_CONFIG
        assert f"{cfg}:{idx + 1}: theta0: " in capsys.readouterr().err

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path, N_t="200", T="0.5", max_outer="1")
        target = tmp_path / "elsewhere"
        assert main(["--out", str(target), "simulate", str(cfg)]) == EXIT_OK
        assert (target / "trajectory.csv").exists()
