"""Command-line entry point: file emission, precedence, determinism.

Commands run in-process through main(argv) against temporary output
directories; determinism contracts compare emitted files byte for byte.
"""

from __future__ import annotations

import importlib
import json
import math
from importlib.metadata import PackageNotFoundError, distribution
from pathlib import Path

import pytest

from qwjumps import CoinSpec, Protocol, RunConfig, classical_evolve
from qwjumps.cli_runner import DEFAULT_RNG_SEED, main
from qwjumps.observables import fit_alpha

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_ok(argv: list[str]) -> None:
    assert main(argv) == 0


def read_rows(path) -> list[str]:
    return path.read_text().splitlines()


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

    def test_degenerate_cell_aborts_with_its_identity(self, tmp_path, capsys):
        # tmax=10 collapses the default fit window to a single time, so
        # every cell raises and the sweep must name the first one.
        code = main(
            [
                "sweep",
                "--theta",
                "0.5",
                "--protocol",
                "standard",
                "--coin",
                "H",
                "--tmax",
                "10",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "sweep cell failed" in err
        assert "standard" in err

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
    def test_row_count_covers_every_step_and_site(self, tmp_path):
        run_ok(["carpet", "--tmax", "20", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "carpet.csv")
        assert rows[0] == "t,x,A_norm"
        assert len(rows) == 1 + 21 * 81
        values = [float(r.split(",")[2]) for r in rows[1:]]
        assert max(abs(v) for v in values) <= 1.0


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
