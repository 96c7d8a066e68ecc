"""Command-line entry point: file emission, precedence, determinism.

Commands run in-process through main(argv) against temporary output
directories; determinism contracts compare emitted files byte for byte.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import numpy as np
import pytest

from qwjumps import CoinSpec, Protocol, RunConfig, classical_evolve, evolve
from qwjumps import cli_runner
from qwjumps.cli_runner import DEFAULT_RNG_SEED, main
from qwjumps.observables import fit_alpha

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_ok(argv: list[str]) -> None:
    assert main(argv) == 0


def read_rows(path) -> list[str]:
    return path.read_text().splitlines()


def _exit_at_once(run):
    """A sweep worker that dies the way one killed by the system does."""
    os._exit(1)


def _fail_to_evolve(run):
    """An evolution that raises, in the parent and in forked pool workers."""
    raise RuntimeError("injected")


class TestWalkCommand:
    def test_smoke_run_emits_the_expected_rows_and_columns(self, tmp_path):
        run_ok(["walk", "--tmax", "100", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "observables.csv")
        assert rows[0] == "t,m2,m4,kappa,S,IPR,JSD,S_e"
        assert len(rows) == 1 + 101
        final_m2 = float(rows[-1].split(",")[1])
        assert final_m2 > 0.0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert set(fit) == {"alpha", "intercept", "window", "residual"}

    @pytest.mark.parametrize("protocol", [p.value for p in Protocol])
    def test_default_run_succeeds_for_every_protocol(self, tmp_path, protocol):
        run_ok(["walk", "--protocol", protocol, "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "observables.csv")
        assert rows[0] == "t,m2,m4,kappa,S,IPR,JSD,S_e"
        assert len(rows) == 1 + 201
        for row in rows[1:]:
            value = float(row.split(",")[6])
            assert 0.0 <= value <= 1.0

    def test_config_echo_reports_the_resolved_run(self, tmp_path):
        run_ok(
            [
                "walk",
                "--tmax",
                "50",
                "--coin",
                "K",
                "--theta",
                "0.3",
                "--out",
                str(tmp_path),
            ]
        )
        echo = json.loads((tmp_path / "config.json").read_text())
        assert echo["command"] == "walk"
        assert echo["coin"] == "K"
        assert echo["theta"] == 0.3
        assert echo["tmax"] == 50
        assert echo["rng_seed"] is None

    def test_reruns_are_byte_identical(self, tmp_path):
        argv = [
            "walk",
            "--protocol",
            "random",
            "--tmax",
            "120",
            "--carpet",
            "--out",
            str(tmp_path),
        ]
        names = ("observables.csv", "fit.json", "config.json", "carpet.csv")
        run_ok(argv)
        first = {name: (tmp_path / name).read_bytes() for name in names}
        run_ok(argv)
        for name in names:
            assert (tmp_path / name).read_bytes() == first[name]

    def test_random_protocol_defaults_the_shuffle_seed(self, tmp_path):
        run_ok(
            ["walk", "--protocol", "random", "--tmax", "30", "--out", str(tmp_path)]
        )
        echo = json.loads((tmp_path / "config.json").read_text())
        assert echo["rng_seed"] == DEFAULT_RNG_SEED

    def test_classical_run_drops_the_quantum_columns(self, tmp_path):
        run_ok(["walk", "--tmax", "40", "--classical", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "observables.csv")
        assert rows[0] == "t,m2,m4,kappa,S,IPR"
        assert len(rows) == 1 + 41

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["walk", "--classical", "--carpet"], "carpet"),
            (["walk", "--theta", "2.0"], "theta"),
            (["walk", "--protocol", "fibonacci", "--rng-seed", "7"], "rng_seed"),
            (["carpet", "--theta", "2.0"], "theta"),
            (["carpet", "--protocol", "fibonacci", "--rng-seed", "7"], "rng_seed"),
        ],
        ids=["walk-classical-carpet", "walk-theta", "walk-rng-seed", "carpet-theta",
             "carpet-rng-seed"],
    )
    def test_a_refused_run_creates_no_out_dir(self, tmp_path, capsys, argv, named):
        out = tmp_path / "out"
        assert main([*argv, "--tmax", "20", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_zero_step_run_emits_a_degenerate_fit_marker(self, tmp_path):
        run_ok(["walk", "--tmax", "0", "--out", str(tmp_path)])
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert "error" in fit


class TestConfigResolution:
    def test_flags_override_the_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": 0.3, "tmax": 50}))
        run_ok(
            [
                "walk",
                "--config",
                str(cfg),
                "--tmax",
                "60",
                "--out",
                str(tmp_path),
            ]
        )
        echo = json.loads((tmp_path / "config.json").read_text())
        assert echo["theta"] == 0.3
        assert echo["tmax"] == 60

    def test_unknown_config_fields_are_named_in_the_diagnostic(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"t_max": 50}))
        assert main(["walk", "--config", str(cfg)]) == 2
        assert "t_max" in capsys.readouterr().err

    def test_out_of_range_theta_is_named_in_the_diagnostic(
        self, tmp_path, capsys
    ):
        assert main(["walk", "--theta", "2.0", "--out", str(tmp_path)]) == 2
        assert "theta" in capsys.readouterr().err

    def test_a_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps([1]))
        assert main(["walk", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rng_seed_with_a_deterministic_protocol_fails(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "walk",
                "--protocol",
                "fibonacci",
                "--rng-seed",
                "7",
                "--tmax",
                "20",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "rng_seed" in capsys.readouterr().err


class TestOptionPolicy:
    """Every command parses rng_seed and seed_symbol under one rule."""

    @pytest.mark.parametrize("command", ["seq", "walk", "carpet", "sweep"])
    def test_rng_seed_and_seed_symbol_are_checked_alike(
        self, tmp_path, capsys, command
    ):
        out = ["--out", str(tmp_path)]
        rng = ["--protocol", "fibonacci", "--rng-seed", "7"]
        assert main([command, *rng, *out]) == 2
        assert "rng_seed" in capsys.readouterr().err
        assert main([command, "--seed-symbol", "2", *out]) == 2
        assert "seed_symbol" in capsys.readouterr().err
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed_symbol": 1.0}))
        assert main([command, "--config", str(cfg), *out]) == 2
        assert "seed_symbol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, echo_name, echoed",
        [
            (["walk", "--tmax", "30"], "config.json", 1),
            (
                ["sweep", "--theta", "0.5", "--protocol", "standard",
                 "--coin", "H", "--tmax", "50"],
                "sweep_config.json",
                [1],
            ),
        ],
        ids=["walk", "sweep"],
    )
    def test_seed_symbol_string_from_a_config_file_is_accepted(
        self, tmp_path, argv, echo_name, echoed
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"seed_symbol": "1"}))
        run_ok([*argv, "--config", str(cfg), "--out", str(tmp_path)])
        echo = json.loads((tmp_path / echo_name).read_text())
        assert echo["seed_symbol"] == echoed


class TestConfigFileTypes:
    """Config-file values are held to the types their flags accept."""

    @pytest.mark.parametrize(
        "command, entry, option",
        [
            ("walk", {"classical": "false"}, "classical"),
            ("walk", {"classical": 1}, "classical"),
            ("walk", {"carpet": "no"}, "carpet"),
            ("sweep", {"full_scale": "no"}, "full_scale"),
            ("walk", {"theta": [0.1, 0.2]}, "theta"),
            ("walk", {"theta": None}, "theta"),
            ("carpet", {"theta": "0.5"}, "theta"),
            ("sweep", {"protocol": 5}, "protocol"),
            ("sweep", {"protocol": ["fibonacci", 5]}, "protocol"),
            ("sweep", {"theta": "abc"}, "theta"),
            ("sweep", {"theta": [0.1, True]}, "theta"),
            ("walk", {"out": None}, "out"),
            ("walk", {"out": 7}, "out"),
            ("sweep", {"protocol": []}, "protocol"),
            ("walk", {"coin": "both"}, "coin"),
            ("walk", {"protocol": "foo"}, "protocol"),
            ("walk", {"tmax": "20"}, "tmax"),
            ("sweep", {"jobs": True}, "jobs"),
        ],
    )
    def test_values_of_the_wrong_type_are_refused(
        self, tmp_path, capsys, command, entry, option
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(entry))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err
        assert not (tmp_path / "out").exists()

    def test_single_values_and_json_booleans_are_accepted(self, tmp_path):
        cfg = tmp_path / "walk.json"
        cfg.write_text(json.dumps({"classical": False, "theta": 1, "tmax": 20}))
        run_ok(["walk", "--config", str(cfg), "--out", str(tmp_path / "walk")])
        echo = json.loads((tmp_path / "walk" / "config.json").read_text())
        assert echo["classical"] is False and echo["theta"] == 1.0
        cfg = tmp_path / "sweep.json"
        cfg.write_text(
            json.dumps(
                {"protocol": "standard", "theta": 0.5, "coin": "H", "tmax": 20}
            )
        )
        run_ok(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")])
        echo = json.loads((tmp_path / "sweep" / "sweep_config.json").read_text())
        assert echo["protocol"] == ["standard"] and echo["theta"] == [0.5]


def _parity_cases():
    single_run = [
        ("protocol", ["fibonacci"], "fibonacci"),
        ("seed_symbol", ["1"], 1),
        ("rng_seed", ["5"], 5),
        ("out", ["res"], "res"),
    ]
    coin = [("coin", ["K"], "K"), ("theta", ["0.3"], 0.3)]
    per_command = {
        "seq": [
            *single_run,
            ("tmax", ["50"], 50),
            ("stride", ["7"], 7),
            ("tau_max", ["10"], 10),
        ],
        "walk": [
            *single_run,
            *coin,
            ("tmax", ["40"], 40),
            ("stride", ["3"], 3),
            ("classical", [], True),
            ("carpet", [], True),
        ],
        "carpet": [*single_run, *coin, ("tmax", ["12"], 12)],
        "sweep": [
            *single_run[2:],
            ("protocol", ["fibonacci", "standard"], ["fibonacci", "standard"]),
            ("seed_symbol", ["both"], "both"),
            ("coin", ["both"], "both"),
            ("theta", ["1.0", "0.25"], [1.0, 0.25]),
            ("tmax", ["25"], 25),
            ("full_scale", [], True),
            ("jobs", ["2"], 2),
        ],
    }
    return [
        pytest.param(command, *case, id=f"{command}-{case[0]}")
        for command, cases in per_command.items()
        for case in cases
    ]


class TestFlagFileParity:
    """An option given as a flag or in --config yields the same files."""

    # Flags every run of a command shares, unless the option under test
    # replaces one.  random admits rng_seed; sweep's fixed tmax keeps
    # --full-scale short.
    BASE = {
        "seq": {"protocol": ["random"], "tmax": ["40"]},
        "walk": {"protocol": ["random"], "tmax": ["30"]},
        "carpet": {"protocol": ["random"], "tmax": ["10"]},
        "sweep": {
            "protocol": ["random"],
            "theta": ["0.5"],
            "coin": ["H"],
            "seed_symbol": ["0"],
            "tmax": ["20"],
        },
    }

    @pytest.mark.parametrize("command, option, tokens, value", _parity_cases())
    def test_flag_and_file_values_write_identical_files(
        self, tmp_path, monkeypatch, command, option, tokens, value
    ):
        base = {**self.BASE[command]}
        base.pop(option, None)
        argv = [command]
        for key, values in base.items():
            argv += ["--" + key.replace("_", "-"), *values]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option: value}))
        files = {}
        for side, extra in (
            ("flag", ["--" + option.replace("_", "-"), *tokens]),
            ("file", ["--config", str(config)]),
        ):
            (tmp_path / side).mkdir()
            monkeypatch.chdir(tmp_path / side)
            run_ok(argv + extra)
            files[side] = {
                str(path.relative_to(tmp_path / side)): path.read_bytes()
                for path in (tmp_path / side).rglob("*")
                if path.is_file()
            }
        echo = "sweep_config.json" if command == "sweep" else "config.json"
        out = "res" if option == "out" else "."
        assert str(Path(out, echo)) in files["flag"]
        assert files["flag"] == files["file"]


class TestSeqCommand:
    def test_aperiodic_report_emits_all_four_diagnostics(self, tmp_path):
        run_ok(
            [
                "seq",
                "--protocol",
                "fibonacci",
                "--tmax",
                "499",
                "--out",
                str(tmp_path),
            ]
        )
        for name in (
            "sequence.csv",
            "sequence.json",
            "lzc_curve.csv",
            "ones_fraction.csv",
            "acf.csv",
            "psd.csv",
            "config.json",
        ):
            assert (tmp_path / name).exists()
        rows = read_rows(tmp_path / "sequence.csv")
        assert rows[0] == "b_t"
        assert len(rows) == 1 + 500

    def test_constant_word_replaces_spectra_with_degenerate_markers(
        self, tmp_path
    ):
        run_ok(["seq", "--tmax", "99", "--out", str(tmp_path)])
        assert (tmp_path / "acf.degenerate.txt").exists()
        assert (tmp_path / "psd.degenerate.txt").exists()
        assert not (tmp_path / "acf.csv").exists()
        assert not (tmp_path / "psd.csv").exists()
        assert (tmp_path / "lzc_curve.csv").exists()

    def test_shuffled_word_report_is_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["seq", "--protocol", "random", "--tmax", "299"]
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert (a / "psd.csv").read_bytes() == (b / "psd.csv").read_bytes()
        record = json.loads((a / "sequence.json").read_text())
        assert record["rng_seed"] == DEFAULT_RNG_SEED

    def test_short_words_get_an_adapted_complexity_stride(self, tmp_path):
        run_ok(
            [
                "seq",
                "--protocol",
                "periodic",
                "--tmax",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        echo = json.loads((tmp_path / "config.json").read_text())
        assert echo["stride"] == 11

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["--tmax", "1"], "tmax"),
            (["--tmax", "10", "--tau-max", "50"], "tau_max"),
            (["--tmax", "10", "--stride", "50"], "stride"),
        ],
        ids=["tmax", "tau_max", "stride"],
    )
    def test_horizons_beyond_the_word_are_refused_before_any_file(
        self, tmp_path, capsys, argv, option
    ):
        out = tmp_path / "out"
        assert main(["seq", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and option in err
        assert not out.exists()


class TestSweepCommand:
    ARGV = [
        "sweep",
        "--theta",
        "0.5",
        str(math.pi / 4),
        "--protocol",
        "standard",
        "periodic",
        "--coin",
        "H",
        "--tmax",
        "50",
    ]

    def test_grid_cells_land_in_one_file_per_family_and_walker(self, tmp_path):
        run_ok(self.ARGV + ["--out", str(tmp_path)])
        qw = read_rows(tmp_path / "alpha_qw_H.csv")
        cw = read_rows(tmp_path / "alpha_cw_H.csv")
        assert qw[0] == "theta,protocol,alpha,stderr"
        assert len(qw) == 1 + 2 * 2
        assert len(cw) == 1 + 2 * 2
        for row in qw[1:]:
            theta, protocol, alpha, stderr = row.split(",")
            assert protocol in ("standard", "periodic")
            assert float(alpha) > 0.0
            assert float(stderr) >= 0.0
        config = json.loads((tmp_path / "sweep_config.json").read_text())
        assert config["seed_symbol"] == [0, 1]

    def test_parallel_execution_matches_the_sequential_files(self, tmp_path):
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        run_ok(self.ARGV + ["--out", str(seq_dir)])
        run_ok(self.ARGV + ["--jobs", "2", "--out", str(par_dir)])
        for name in ("alpha_qw_H.csv", "alpha_cw_H.csv"):
            assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()

    def test_parallel_two_coin_two_seed_sweep_with_random_matches(self, tmp_path):
        argv = [
            "sweep",
            "--theta",
            "0.3",
            "1.1",
            "--protocol",
            "random",
            "fibonacci",
            "--coin",
            "both",
            "--seed-symbol",
            "both",
            "--tmax",
            "60",
        ]
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        run_ok(argv + ["--jobs", "1", "--out", str(seq_dir)])
        run_ok(argv + ["--jobs", "2", "--out", str(par_dir)])
        for walker in ("qw", "cw"):
            for family in ("H", "K"):
                name = f"alpha_{walker}_{family}.csv"
                assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()

    def test_quantum_rows_average_the_fits_of_their_seed_cells(self, tmp_path):
        run_ok(
            [
                "sweep",
                "--theta",
                "0.3",
                "1.1",
                "--protocol",
                "fibonacci",
                "random",
                "--coin",
                "K",
                "--tmax",
                "60",
                "--out",
                str(tmp_path),
            ]
        )
        rows = read_rows(tmp_path / "alpha_qw_K.csv")[1:]
        assert len(rows) == 2 * 2
        for row in rows:
            theta, protocol, alpha, stderr = row.split(",")
            alphas = []
            for seed_symbol in (0, 1):
                config = RunConfig(
                    coin=CoinSpec("K", float(theta)),
                    protocol=protocol,
                    t_max=60,
                    seed_symbol=seed_symbol,
                    rng_seed=DEFAULT_RNG_SEED if protocol == "random" else None,
                    record_fields=("m2",),
                )
                series = evolve(config).series
                alphas.append(fit_alpha(series.times, series.column("m2")).alpha)
            spread = abs(alphas[0] - alphas[1]) / 2.0
            assert float(alpha) == pytest.approx(sum(alphas) / 2.0, rel=1e-12)
            assert float(stderr) == pytest.approx(spread, rel=1e-12, abs=1e-15)

    def test_rows_of_unequal_axes_match_their_own_cells(self, tmp_path):
        # 2 families x 3 thetas x 2 protocols x 2 seeds: a reshape in the
        # wrong axis order would pair rows with other cells' fits.
        thetas, protocols = ["0.3", "0.7", "1.1"], ["fibonacci", "random"]
        run_ok(
            [
                "sweep", "--coin", "both", "--theta", *thetas,
                "--protocol", *protocols, "--seed-symbol", "both",
                "--tmax", "60", "--out", str(tmp_path),
            ]
        )
        for family in ("H", "K"):
            fits = {}
            for theta in thetas:
                for protocol in protocols:
                    alphas = []
                    for seed_symbol in (0, 1):
                        config = RunConfig(
                            coin=CoinSpec(family, float(theta)),
                            protocol=protocol,
                            t_max=60,
                            seed_symbol=seed_symbol,
                            rng_seed=DEFAULT_RNG_SEED if protocol == "random" else None,
                            record_fields=("m2",),
                        )
                        result = evolve(config)
                        times = result.series.times
                        m2_qw = result.series.column("m2")
                        # The classical m2(t) is exactly sum_{s<t} J_s^2.
                        m2_cw = np.cumsum(np.concatenate(([0], result.jumps**2)))
                        alphas.append(
                            (
                                fit_alpha(times, m2_qw).alpha,
                                fit_alpha(times, m2_cw[times]).alpha,
                            )
                        )
                    fits[theta, protocol] = np.array(alphas)
            for w, walker in enumerate(("qw", "cw")):
                rows = read_rows(tmp_path / f"alpha_{walker}_{family}.csv")[1:]
                labels = [tuple(row.split(",")[:2]) for row in rows]
                assert labels == [(t, p) for t in thetas for p in protocols]
                for row in rows:
                    theta, protocol, alpha, stderr = row.split(",")
                    seed_alphas = fits[theta, protocol][:, w]
                    spread = abs(seed_alphas[0] - seed_alphas[1]) / 2.0
                    assert float(alpha) == pytest.approx(seed_alphas.mean(), rel=1e-12)
                    assert float(stderr) == pytest.approx(spread, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_out_of_range_theta_is_refused_before_any_file(
        self, tmp_path, capsys, source
    ):
        out = tmp_path / "out"
        if source == "flag":
            argv = ["sweep", "--theta", "2.0"]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"theta": [0.5, 2.0]}))
            argv = ["sweep", "--config", str(cfg)]
        assert main([*argv, "--tmax", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "theta must lie in [0, pi/2] radians, got 2.0" in err
        assert not out.exists()

    def test_classical_rows_fit_the_evolved_classical_walker(self, tmp_path):
        run_ok(
            [
                "sweep",
                "--theta",
                "0.5",
                "--coin",
                "H",
                "--seed-symbol",
                "1",
                "--tmax",
                "300",
                "--out",
                str(tmp_path),
            ]
        )
        rows = read_rows(tmp_path / "alpha_cw_H.csv")[1:]
        assert len(rows) == len(Protocol)
        for row in rows:
            _, protocol, alpha, stderr = row.split(",")
            config = RunConfig(
                coin=CoinSpec("H", 0.0),
                protocol=protocol,
                t_max=300,
                seed_symbol=1,
                rng_seed=DEFAULT_RNG_SEED if protocol == "random" else None,
                record_fields=("m2",),
            )
            series = classical_evolve(config).series
            expected = fit_alpha(series.times, series.column("m2")).alpha
            assert abs(float(alpha) - expected) <= 1e-9
            assert float(stderr) == 0.0

    # Two thetas make two distinct cells, so --jobs 2 fails inside the pool.
    @pytest.mark.parametrize("jobs", [[], ["--jobs", "2"]], ids=["serial", "pool"])
    def test_degenerate_cell_aborts_with_its_identity(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        # Every cell's evolution raises, and the sweep must name the first one.
        monkeypatch.setattr(cli_runner, "evolve", _fail_to_evolve)
        code = main(
            [
                "sweep",
                "--theta",
                "0.5",
                "1.0",
                "--protocol",
                "standard",
                "--coin",
                "H",
                "--tmax",
                "20",
                "--out",
                str(tmp_path),
                *jobs,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sweep cell failed" in err
        assert "standard" in err

    def test_worker_processes_are_capped_at_the_cell_count(
        self, tmp_path, monkeypatch
    ):
        started = []

        class RecordingPool:
            """Runs cells in-process and records the requested pool size."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, worker, cells):
                return map(worker, cells)

        monkeypatch.setattr(cli_runner, "ProcessPoolExecutor", RecordingPool)
        run_ok(self.ARGV + ["--jobs", "64", "--out", str(tmp_path)])
        # 2 thetas x 2 protocols x 2 seed symbols, one coin family: 8 cells,
        # 6 distinct, as standard gives both seed symbols one schedule.
        assert started == [6]
        config = json.loads((tmp_path / "sweep_config.json").read_text())
        assert config["jobs"] == 64

    def test_cells_sharing_a_coin_and_a_schedule_evolve_once(
        self, tmp_path, monkeypatch
    ):
        evolved = []

        def counting_evolve(run):
            evolved.append(run)
            return evolve(run)

        monkeypatch.setattr(cli_runner, "evolve", counting_evolve)
        thetas, protocols = ["0.3", "1.1"], ["standard", "fibonacci", "periodic"]
        run_ok(
            [
                "sweep", "--coin", "both", "--theta", *thetas,
                "--protocol", *protocols, "--seed-symbol", "both",
                "--tmax", "80", "--out", str(tmp_path),
            ]
        )
        # 24 cells; standard and fibonacci give both seed symbols one
        # schedule, so 2 families x 2 thetas x 4 schedules evolve.
        assert len(evolved) == 16
        assert {(run.protocol.value, run.seed_symbol) for run in evolved} == {
            ("standard", 0), ("fibonacci", 0), ("periodic", 0), ("periodic", 1)
        }
        for family in ("H", "K"):
            per_cell = []
            for theta in thetas:
                for protocol in protocols:
                    for seed_symbol in (0, 1):
                        run = RunConfig(
                            coin=CoinSpec(family, float(theta)),
                            protocol=protocol,
                            t_max=80,
                            seed_symbol=seed_symbol,
                            record_fields=("m2",),
                        )
                        result = evolve(run)
                        times = result.series.times
                        m2_cw = np.cumsum(np.concatenate(([0], result.jumps**2)))
                        per_cell.append(
                            (
                                fit_alpha(times, result.series.column("m2")).alpha,
                                fit_alpha(times, m2_cw[times]).alpha,
                            )
                        )
            # fits[theta, protocol, seed, walker], as the sweep reduces them.
            fits = np.array(per_cell).reshape(len(thetas), len(protocols), 2, 2)
            mean = fits.mean(axis=2)
            stderr = fits.std(axis=2, ddof=1) / math.sqrt(2)
            for w, walker in enumerate(("qw", "cw")):
                rows = read_rows(tmp_path / f"alpha_{walker}_{family}.csv")[1:]
                expected = [
                    f"{theta},{protocol},{mean[i, j, w].item()!r},"
                    f"{stderr[i, j, w].item()!r}"
                    for i, theta in enumerate(thetas)
                    for j, protocol in enumerate(protocols)
                ]
                assert rows == expected

    # periodic gives the two seed symbols two schedules, so --jobs 2 runs
    # two distinct cells in the pool, and each of them fails there.
    def test_a_cell_that_fails_in_the_pool_names_its_protocol(
        self, tmp_path, capsys, monkeypatch
    ):
        started = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(cli_runner, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli_runner, "evolve", _fail_to_evolve)
        code = main(
            [
                "sweep", "--theta", "0.5", "--protocol", "periodic", "--coin", "H",
                "--seed-symbol", "both", "--tmax", "20", "--jobs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        assert started == [2]
        err = capsys.readouterr().err
        assert "sweep cell failed" in err
        assert "periodic" in err

    def test_a_tmax_that_leaves_one_fit_time_is_refused_before_any_file(
        self, tmp_path, capsys
    ):
        # The default fit window [max(10, t/10), t] is [10, 10] at tmax 10.
        out = tmp_path / "out"
        argv = [
            "sweep", "--theta", "0.5", "--protocol", "standard", "--coin", "H",
            "--seed-symbol", "0", "--out", str(out),
        ]
        assert main([*argv, "--tmax", "10"]) == 2
        assert "tmax must be at least 11, got 10" in capsys.readouterr().err
        assert not out.exists()
        run_ok([*argv, "--tmax", "11"])
        assert len(read_rows(out / "alpha_qw_H.csv")) == 2

    def test_a_worker_that_dies_ends_the_sweep_with_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_runner, "_sweep_cell", _exit_at_once)
        code = main(
            [
                "sweep", "--theta", "0.5", "--protocol", "periodic", "--coin", "H",
                "--seed-symbol", "both", "--tmax", "20", "--jobs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: a sweep worker process died")

    def test_duplicate_protocols_are_rejected(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "standard",
                "standard",
                "--tmax",
                "50",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "duplicates" in capsys.readouterr().err


class TestCarpetCommand:
    @pytest.mark.parametrize("t_max, sites", [(20, 81), (0, 5)])
    def test_row_count_covers_every_step_and_site(self, tmp_path, t_max, sites):
        run_ok(["carpet", "--tmax", str(t_max), "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "carpet.csv")
        assert rows[0] == "t,x,A_norm"
        assert len(rows) == 1 + (t_max + 1) * sites
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert max(abs(v) for v in values) <= 1.0

    def test_walk_and_carpet_write_the_same_carpet(self, tmp_path):
        run = ["--protocol", "fibonacci", "--coin", "K", "--theta", "0.7", "--tmax", "60"]
        run_ok(["walk", "--carpet", *run, "--out", str(tmp_path / "walk")])
        run_ok(["carpet", *run, "--out", str(tmp_path / "carpet")])
        walked = (tmp_path / "walk" / "carpet.csv").read_bytes()
        assert walked == (tmp_path / "carpet" / "carpet.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv", [["carpet"], ["walk", "--carpet"]], ids=["carpet", "walk"]
    )
    def test_carpet_memory_stays_below_a_quarter_of_the_dense_carpet(
        self, tmp_path, argv
    ):
        # tracemalloc also counts numpy's buffers; the dense carpet of tmax
        # 400 holds 401 x 1601 float64 cells.
        bound = 401 * 1601 * 8 / 4
        run_ok([*argv, "--tmax", "2", "--out", str(tmp_path)])  # first-call costs
        tracemalloc.start()
        try:
            run_ok([*argv, "--tmax", "400", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


    @pytest.mark.parametrize(
        "argv", [["carpet"], ["walk", "--carpet"]], ids=["carpet", "walk"]
    )
    def test_a_carpet_above_two_gib_is_refused_at_once(self, tmp_path, capsys, argv):
        start = time.perf_counter()
        out = tmp_path / "out"
        assert main([*argv, "--tmax", "8192", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "tmax" in capsys.readouterr().err
        assert not out.exists()

    def test_the_two_gib_boundary_lies_between_tmax_8191_and_8192(
        self, tmp_path, capsys, monkeypatch
    ):
        # (t_max + 1) (4 t_max + 1) float64 cells pass 2 GiB at t_max = 8192.
        # The stub evolves nothing, so 8191 costs no steps once past the check.
        monkeypatch.setattr(cli_runner, "evolve", lambda run, carpet_row: None)
        assert main(["carpet", "--tmax", "8191", "--out", str(tmp_path / "ok")]) == 0
        refused = tmp_path / "refused"
        assert main(["carpet", "--tmax", "8192", "--out", str(refused)]) == 2
        assert "tmax 8192" in capsys.readouterr().err
        assert not refused.exists()

    def test_the_two_gib_rule_binds_only_a_carpet(self, tmp_path, monkeypatch):
        # A walk without --carpet holds no carpet, so tmax 8192 reaches evolve;
        # the stub runs 4 of its steps to keep the test fast.
        reached = []

        def short_evolve(run):
            reached.append(run.t_max)
            return evolve(replace(run, t_max=4))

        monkeypatch.setattr(cli_runner, "evolve", short_evolve)
        run_ok(["walk", "--tmax", "8192", "--out", str(tmp_path)])
        assert reached == [8192]
        assert (tmp_path / "observables.csv").exists()
        assert not (tmp_path / "carpet.csv").exists()

    def test_the_carpet_reaches_the_writer_one_time_row_at_a_time(
        self, tmp_path, monkeypatch
    ):
        sizes = []

        def record(fh, block):
            sizes.append(tuple(len(c) for c in block))

        monkeypatch.setattr(cli_runner, "_write_block", record)
        run_ok(["carpet", "--tmax", "20", "--out", str(tmp_path)])
        assert sizes == [(81, 81, 81)] * 21


class TestCsvWriter:
    @pytest.mark.parametrize(
        "column, cells",
        [
            (
                np.array([-3, 0, 2**62], dtype=np.int64),
                ["-3", "0", "4611686018427387904"],
            ),
            (np.array([0, 1, 255], dtype=np.uint8), ["0", "1", "255"]),
            (np.array(["fibonacci", "H"]), ["fibonacci", "H"]),
            (
                np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-05,
                          0.1, 1 / 3]),
                ["nan", "inf", "-inf", "-0.0", "5e-324", "1e+16", "1e-05", "0.1",
                 "0.3333333333333333"],
            ),
        ],
        ids=["int64", "uint8", "str", "float64"],
    )
    def test_cells_are_plain_ints_strings_and_shortest_roundtrip_floats(
        self, tmp_path, column, cells
    ):
        path = tmp_path / "out.csv"
        cli_runner._write_csv(path, ["v"], (column,))
        assert read_rows(path) == ["v", *cells]

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            cli_runner._write_csv(
                tmp_path / "out.csv", ["a", "b"], (np.arange(3), np.arange(2))
            )

    def test_blocks_follow_one_header_in_order(self, tmp_path):
        path = tmp_path / "out.csv"
        blocks = [
            (np.array([0, 0]), np.array([0.5, -1.0])),
            (np.array([1]), np.array([2.0])),
            (np.array([], dtype=int), np.array([])),
            (np.array([2]), np.array([0.25])),
        ]
        with cli_runner._open_csv(path, ["t", "v"]) as fh:
            for block in blocks:
                cli_runner._write_block(fh, block)
        assert path.read_text() == "t,v\n0,0.5\n0,-1.0\n1,2.0\n2,0.25\n"


class TestPackaging:
    def test_console_script_is_registered(self):
        # The declaration in pyproject.toml is what an install registers;
        # it must name the main() the tests above drive.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts.get("qwjumps") == "qwjumps.cli_runner:main"
        module_name, _, attr = scripts["qwjumps"].partition(":")
        assert getattr(importlib.import_module(module_name), attr) is main

        # An installed copy must register the same entry point.
        try:
            dist = distribution("qwjumps")
        except PackageNotFoundError:
            return
        installed = {
            ep.name: ep.value
            for ep in dist.entry_points
            if ep.group == "console_scripts"
        }
        assert installed.get("qwjumps") == scripts["qwjumps"]
