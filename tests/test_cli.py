"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.io.serialization import load_instance, save_instance
from tests.conftest import build_random_instance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.npz"
    save_instance(build_random_instance(0, cap_range=(4, 8)), path)
    return str(path)


class TestGenerate:
    def test_uniform(self, tmp_path, capsys):
        out = str(tmp_path / "u.npz")
        code = main(
            ["generate", "--kind", "uniform", "--n", "128", "-o", out]
        )
        assert code == 0
        instance = load_instance(out)
        assert instance.network.n_nodes == 128
        assert "wrote" in capsys.readouterr().out

    def test_clustered(self, tmp_path):
        out = str(tmp_path / "c.npz")
        code = main(
            [
                "generate", "--kind", "clustered", "--n", "128",
                "--clusters", "5", "--seed", "3", "-o", out,
            ]
        )
        assert code == 0
        instance = load_instance(out)
        assert instance.network.n_nodes == 133  # points + centers


class TestSolve:
    def test_solve_and_save(self, instance_file, tmp_path, capsys):
        out = str(tmp_path / "sol.json")
        code = main(["solve", instance_file, "--method", "wma", "-o", out])
        assert code == 0
        payload = json.loads(open(out).read())
        assert payload["meta"]["algorithm"] == "wma"
        assert "objective" in capsys.readouterr().out

    def test_solve_without_output(self, instance_file, capsys):
        assert main(["solve", instance_file, "--method", "hilbert"]) == 0
        assert "hilbert" in capsys.readouterr().out

    def test_seeded_method(self, instance_file):
        assert main(
            ["solve", instance_file, "--method", "random", "--seed", "4"]
        ) == 0


class TestStats:
    def test_stats(self, instance_file, capsys):
        assert main(["stats", instance_file]) == 0
        out = capsys.readouterr().out
        assert "network" in out
        assert "avg_degree" in out


class TestCompare:
    def test_compare(self, instance_file, capsys):
        code = main(
            ["compare", instance_file, "--methods", "wma,hilbert"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wma" in out
        assert "vs_best" in out

    def test_unknown_method(self, instance_file, capsys):
        code = main(["compare", instance_file, "--methods", "bogus"])
        assert code == 2
        assert "unknown" in capsys.readouterr().err


class TestRefine:
    def test_refine_round_trip(self, instance_file, tmp_path, capsys):
        sol_path = str(tmp_path / "sol.json")
        assert main(
            ["solve", instance_file, "--method", "random", "-o", sol_path]
        ) == 0
        out_path = str(tmp_path / "refined.json")
        code = main(
            ["refine", instance_file, sol_path, "-o", out_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "refined" in out
        payload = json.loads(open(out_path).read())
        assert payload["meta"]["algorithm"].endswith("+ls")


class TestExport:
    def test_export_with_solution(self, instance_file, tmp_path, capsys):
        sol_path = str(tmp_path / "sol.json")
        main(["solve", instance_file, "--method", "wma", "-o", sol_path])
        out_path = str(tmp_path / "scenario.json")
        code = main(
            ["export", instance_file, "--solution", sol_path, "-o", out_path]
        )
        assert code == 0
        payload = json.loads(open(out_path).read())
        assert set(payload) == {"network", "instance", "solution"}

    def test_export_without_solution(self, instance_file, tmp_path):
        out_path = str(tmp_path / "scenario.json")
        assert main(["export", instance_file, "-o", out_path]) == 0
        payload = json.loads(open(out_path).read())
        assert set(payload) == {"network", "instance"}


class TestBench:
    def test_bench_fig9b(self, capsys, monkeypatch):
        # Patch the factory registry call path with a small sweep by
        # overriding the default sizes through argv only; fig9b with its
        # default 512-node network is fast enough to run directly.
        code = main(
            ["bench", "--experiment", "fig9b", "--methods", "wma,hilbert"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "objective" in out
        assert "wma" in out

    def test_bench_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["bench", "--experiment", "fig99"])

    def test_bench_registry_covers_all_choices(self):
        """Every experiment id offered by the CLI resolves to a factory."""
        import repro.cli as cli
        from repro.bench import experiments as ex

        factories = {
            "fig6a": (ex.fig6a_cases, "n"),
        }
        # Re-derive the mapping the command builds, by invoking the
        # private handler's dict through a tiny shim: simply ensure the
        # names in EXPERIMENTS exist as factory functions.
        mapping = {
            "fig6a": ex.fig6a_cases, "fig6b": ex.fig6b_cases,
            "fig6c": ex.fig6c_cases, "fig6d": ex.fig6d_cases,
            "fig7a": ex.fig7a_cases, "fig7b": ex.fig7b_cases,
            "fig7c": ex.fig7c_cases, "fig7d": ex.fig7d_cases,
            "fig8a": ex.fig8a_cases, "fig8b": ex.fig8b_cases,
            "fig8c": ex.fig8c_cases, "fig8d": ex.fig8d_cases,
            "fig9a": ex.fig9a_cases, "fig9b": ex.fig9b_cases,
            "fig10": ex.fig10_cases, "fig12a": ex.fig12a_cases,
            "fig13a": ex.fig13a_cases, "fig13b": ex.fig13b_cases,
        }
        assert set(cli.EXPERIMENTS) == set(mapping)
        for factory in mapping.values():
            assert callable(factory)


class TestOracleCommand:
    def test_build_then_up_to_date(self, tmp_path, capsys):
        cache = str(tmp_path / "blobs")
        argv = [
            "oracle", "build", "--kind", "uniform", "--n", "64",
            "--cache-dir", cache,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "shortcuts, 64 nodes" in out
        # Second build finds the fingerprint-keyed blob and skips work.
        assert main(argv) == 0
        assert "up to date" in capsys.readouterr().out

    def test_build_from_instance_file(self, instance_file, tmp_path, capsys):
        cache = str(tmp_path / "blobs")
        code = main(
            ["oracle", "build", instance_file, "--cache-dir", cache]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out

    def test_info_reports_cache_status(self, tmp_path, capsys):
        cache = str(tmp_path / "blobs")
        base = ["--kind", "uniform", "--n", "64", "--cache-dir", cache]
        assert main(["oracle", "info", *base]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cached"] is False
        assert doc["n_nodes"] == 64
        assert main(["oracle", "build", *base]) == 0
        capsys.readouterr()
        assert main(["oracle", "info", *base]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cached"] is True
        assert doc["cache_path"].startswith(cache)

    def test_build_and_info_ch_kind(self, tmp_path, capsys):
        cache = str(tmp_path / "blobs")
        base = ["--kind", "clustered", "--n", "64", "--cache-dir", cache]
        assert main(["oracle", "build", *base]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "shortcuts" in out
        assert main(["oracle", "build", *base]) == 0
        assert "up to date" in capsys.readouterr().out
        assert main(["oracle", "info", *base]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "ch"
        assert doc["cached"] is True
        assert doc["n_shortcuts"] >= 0
        assert doc["avg_upward_degree"] > 0
        assert doc["blob_bytes"] > 0

    def test_info_writes_output_file(self, tmp_path, capsys):
        out = str(tmp_path / "info.json")
        code = main(
            ["oracle", "info", "--kind", "uniform", "--n", "64",
             "--cache-dir", str(tmp_path / "b"), "-o", out]
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["format_version"] >= 1
        assert "wrote" in capsys.readouterr().out


class TestProfileOracleFlag:
    def test_profile_oracle_alt_is_rejected(self, capsys):
        argv = ["profile", "--kind", "uniform", "--n", "64", "--oracle", "alt"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'alt'" in capsys.readouterr().err

    def test_profile_oracle_ch_matches_kernel(self, tmp_path):
        base = [
            "profile", "--kind", "uniform", "--n", "64", "--seed", "1",
            "--method", "wma",
        ]
        ch_path = tmp_path / "ch.json"
        off_path = tmp_path / "off.json"
        assert main(base + ["--oracle", "ch", "-o", str(ch_path)]) == 0
        assert main(base + ["--oracle", "off", "-o", str(off_path)]) == 0
        ch = json.loads(ch_path.read_text())
        off = json.loads(off_path.read_text())
        assert ch["objective"] == off["objective"]
        assert ch["metrics"]["ch.upward_settles"] > 0
        assert off["metrics"]["ch.upward_settles"] == 0
