"""Unit tests for the repro CLI (repro.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuit import save_bench_file
from repro.cli import main
from repro.itc02 import load
from repro.itc02.format import save_soc_file
from repro.synth import GeneratorSpec, generate_circuit

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def soc_file(tmp_path):
    path = tmp_path / "d695.soc"
    save_soc_file(path, load("d695"))
    return str(path)


@pytest.fixture
def bench_file(tmp_path):
    netlist = generate_circuit(
        GeneratorSpec(name="clidemo", inputs=6, outputs=3, flip_flops=4,
                      target_gates=40, seed=5)
    )
    path = tmp_path / "clidemo.bench"
    save_bench_file(path, netlist)
    return str(path)


class TestTdvCommand:
    def test_reports_both_volumes(self, soc_file, capsys):
        assert main(["tdv", soc_file]) == 0
        out = capsys.readouterr().out
        assert "2,987,712" in out  # Eq. 3 on d695
        assert "1,216,666" in out  # modular
        assert "-59.3%" in out

    def test_mono_patterns_override(self, soc_file, capsys):
        assert main(["tdv", soc_file, "--mono-patterns", "600"]) == 0
        out = capsys.readouterr().out
        assert "T_mono = 600" in out


class TestAtpgCommand:
    def test_reports_coverage(self, bench_file, capsys):
        assert main(["atpg", bench_file]) == 0
        out = capsys.readouterr().out
        assert "fault coverage" in out
        assert "patterns:" in out

    def test_seed_changes_nothing_fatal(self, bench_file, capsys):
        assert main(["atpg", bench_file, "--seed", "9"]) == 0


class TestVectorsCommand:
    def test_writes_file(self, bench_file, tmp_path, capsys):
        out_path = tmp_path / "v.vec"
        assert main(["vectors", bench_file, "--chains", "2",
                     "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("Design clidemo")
        assert "Chain" in text

    def test_round_trips_through_parser(self, bench_file, tmp_path):
        from repro.atpg import parse_vectors

        out_path = tmp_path / "v.vec"
        main(["vectors", bench_file, "-o", str(out_path)])
        program = parse_vectors(out_path.read_text())
        assert program.pattern_count > 0

    def test_stdout_mode(self, bench_file, capsys):
        assert main(["vectors", bench_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Design clidemo")


class TestItc02Command:
    def test_suite_overview(self, capsys):
        assert main(["itc02"]) == 0
        out = capsys.readouterr().out
        assert "a586710" in out and "Dominated by" in out

    def test_single_soc_tree_and_explanation(self, capsys):
        assert main(["itc02", "p34392"]) == 0
        out = capsys.readouterr().out
        assert "Soc p34392" in out
        assert "ISO=" in out
        assert "modular testing changes TDV" in out

    def test_unknown_soc_fails_cleanly(self, capsys):
        assert main(["itc02", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_cone_example_runs(self, capsys):
        assert main(["experiments", "cone-example"]) == 0
        out = capsys.readouterr().out
        assert "20,000" in out

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "bogus"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag,value,message", [
        # NaN would run with no deadline at all: clock() > nan is never true.
        ("--deadline", "nan", "must be a finite number of seconds > 0, got nan"),
        ("--deadline", "soon", "expected a number, got 'soon'"),
        ("--retries", "-1", "must be >= 0, got -1"),
        ("--retries", "x", "expected an integer, got 'x'"),
        ("--workers", "x", "expected an integer, got 'x'"),
    ])
    def test_bad_runtime_flag_names_the_flag(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "cone-example", "--no-cache", flag, value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [
            line for line in captured.err.splitlines()
            if line.startswith("repro experiments: error: ")
        ]
        assert errors == [f"repro experiments: error: argument {flag}: {message}"]
        assert "Traceback" not in captured.err


class TestVerilogInput:
    def test_atpg_accepts_verilog(self, tmp_path, capsys):
        from repro.circuit.verilog import save_verilog_file
        from repro.synth import GeneratorSpec, generate_circuit

        netlist = generate_circuit(
            GeneratorSpec(name="vdemo", inputs=6, outputs=3, flip_flops=4,
                          target_gates=40, seed=5)
        )
        path = tmp_path / "vdemo.v"
        save_verilog_file(path, netlist)
        assert main(["atpg", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fault coverage" in out

    def test_vectors_accepts_verilog(self, tmp_path, capsys):
        from repro.circuit.verilog import save_verilog_file
        from repro.synth import GeneratorSpec, generate_circuit

        netlist = generate_circuit(
            GeneratorSpec(name="vdemo", inputs=6, outputs=3, flip_flops=4,
                          target_gates=40, seed=5)
        )
        path = tmp_path / "vdemo.v"
        save_verilog_file(path, netlist)
        assert main(["vectors", str(path)]) == 0
        assert capsys.readouterr().out.startswith("Design vdemo")


class TestNativeItc02Input:
    def test_tdv_accepts_native_format(self, tmp_path, capsys):
        text = (
            "SocName mini\n"
            "Module 0\n  Level 0\n  Inputs 4\n  Outputs 4\n"
            "  Test 1\n    TamUse 1\n    ScanUse 1\n    Patterns 2\n"
            "Module 1\n  Level 1\n  Inputs 6\n  Outputs 6\n"
            "  ScanChains 1 50\n"
            "  Test 1\n    TamUse 1\n    ScanUse 1\n    Patterns 20\n"
        )
        path = tmp_path / "mini.soc"
        path.write_text(text)
        assert main(["tdv", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mini" in out and "TDV modular" in out


class TestErrorsAreOneLine:
    """A ReproError exits 2 with one stderr line, never a traceback."""

    # The top core embeds a core the file never defines.
    UNDEFINED_EMBED = (
        "Soc bad\nTop top\nCore top\n    Inputs 4\n    Outputs 4\n"
        "    Patterns 10\n    Embeds ghost\nEnd\n"
    )
    BAD_INTEGER = (
        "Soc bad\nTop top\nCore top\n    Inputs x\n    Outputs 4\n"
        "    Patterns 10\nEnd\n"
    )

    # Native ITC'02 files the reader used to leak a bare ValueError on.
    NATIVE = "SocName bad\nModule 0 'top'\n    Level {level}\n    {line}\n"
    NATIVE_CHAINS = NATIVE.format(level=0, line="ScanChains 2 10 1x")
    NATIVE_CHAIN = NATIVE.format(level=0, line="ScanChain 0 6x")
    NATIVE_LEVEL = NATIVE.format(level=-1, line="Inputs 4")

    @pytest.mark.parametrize("text,message", [
        (UNDEFINED_EMBED, "embeds unknown core 'ghost'"),
        (BAD_INTEGER, "line 4: expected an integer, got 'x'"),
        (NATIVE_CHAINS, "ScanChains: expected an integer, got '1x'"),
        (NATIVE_CHAIN, "ScanChain: expected an integer, got '6x'"),
        (NATIVE_LEVEL, "module 0: Level must be >= 0, got -1"),
    ])
    def test_bad_soc_file(self, tmp_path, text, message):
        path = tmp_path / "bad.soc"
        path.write_text(text)
        self.assert_one_line_error(["tdv", str(path)], message)

    @pytest.mark.parametrize("args,message", [
        (["tdv", "{d695}", "--mono-patterns", "1"],
         "monolithic pattern count 1 violates the Eq. 2 lower bound 234"),
        (["tdv", "{d695}", "--mono-patterns", "1", "--json"],
         "monolithic pattern count 1 violates the Eq. 2 lower bound 234"),
    ], ids=["tdv-mono-patterns", "tdv-json-mono-patterns"])
    def test_out_of_range_number(self, args, message):
        d695 = SRC / "repro" / "itc02" / "data" / "d695.soc"
        args = [arg.format(d695=d695) for arg in args]
        self.assert_one_line_error(args, message)

    @pytest.mark.parametrize("value,message", [
        ("0", "must be >= 1, got 0"),
        ("x", "expected an integer, got 'x'"),
    ], ids=["zero", "not-an-int"])
    def test_bad_chains_refused_before_atpg(self, tmp_path, c17, value, message):
        """The parser refuses --chains before any ATPG job runs, so the
        cache directory stays empty (a bad count once left an entry)."""
        c17_path = tmp_path / "c17.bench"
        save_bench_file(c17_path, c17)
        cache = tmp_path / "cache"
        completed = self.run_repro([
            "vectors", str(c17_path), "--chains", value,
            "--cache-dir", str(cache),
        ])
        assert completed.returncode == 2
        assert completed.stdout == ""
        errors = [
            line for line in completed.stderr.splitlines()
            if line.startswith("repro vectors: error: ")
        ]
        assert errors == [
            f"repro vectors: error: argument --chains: {message}"
        ]
        assert "Traceback" not in completed.stderr
        assert not cache.exists() or not any(cache.iterdir())

    @pytest.mark.parametrize("name,value", [
        ("REPRO_POPULATION_N", "abc"),
        ("REPRO_POPULATION_N", "1.5"),
        ("REPRO_POPULATION_SHARD", "x"),
    ], ids=["n-not-an-int", "n-fraction", "shard-not-an-int"])
    def test_bad_population_env_var(self, name, value):
        self.assert_one_line_error(
            ["experiments", "population"],
            f"{name} must be an integer >= 1, got {value!r}",
            env={name: value},
        )

    @pytest.mark.parametrize("command", ["run", "vectors", "tdv"])
    @pytest.mark.parametrize("kind,message", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "not utf-8 text (invalid start byte at byte 0)"),
    ])
    def test_unreadable_input_file(self, tmp_path, command, kind, message):
        path = tmp_path / ("design.soc" if command == "tdv" else "design.bench")
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe INPUT(a)\n")
        self.assert_one_line_error(
            [command, str(path)], f"cannot read {path}: {message}"
        )

    @staticmethod
    def run_repro(args, env=None):
        env = {**os.environ, **(env or {}), "PYTHONPATH": str(SRC)}
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    @classmethod
    def assert_one_line_error(cls, args, message, env=None):
        completed = cls.run_repro(args, env)
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert completed.stderr.startswith("repro: error: ")
        assert completed.stderr.count("\n") == 1
        assert message in completed.stderr
        assert "Traceback" not in completed.stderr
