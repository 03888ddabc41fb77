"""Command-line interface: output contracts, exit codes, round-trips."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from factorlab import ParityParams, bundled_connected_graphs, cli, from_graph6, g_na, harness, to_graph6
from factorlab.cli import main


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, argv):
    """Exit code and stderr of main(argv), whether it returns or argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestConstruct:
    def test_gna_roundtrip_and_sidecar(self, capsys):
        code, out, err = run_cli(capsys, ["construct", "g-na", "--n", "12", "--a", "2"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        g = from_graph6(lines[0])
        assert g == g_na(12, 2).graph
        sidecar = json.loads(lines[1])
        assert sidecar["family"] == "g-na"
        assert sidecar["n"] == 12 and sidecar["m"] == g.m
        assert sidecar["blocks"]["w"] == [11]
        assert sidecar["blocks"]["indep"] == [8, 9, 10]
        assert "constructed" in err

    def test_all_families(self, capsys):
        for argv in (
            ["construct", "g-na", "--n", "14", "--a", "3"],
            ["construct", "book", "--n", "12", "--s", "1", "--b", "3"],
            ["construct", "book", "--n", "20", "--s", "2", "--b", "5"],
        ):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            line = out.strip().split("\n")[0]
            from_graph6(line)  # parses

    def test_missing_param_is_usage_error(self, capsys):
        # refused through main's one error handler, as one "error:" line
        for argv, missing in ((["construct", "g-na", "--n", "12"], "--a"),
                              (["construct", "book", "--n", "12", "--b", "3"], "--s"),
                              (["construct", "book", "--n", "12", "--s", "1"], "--b")):
            code, out, err = run_cli(capsys, argv)
            assert code == 2 and out == ""
            assert err == f"error: construct {argv[1]} requires {missing}\n"

    def test_bad_params_reported(self, capsys):
        code, _, err = run_cli(capsys, ["construct", "g-na", "--n", "5", "--a", "2"])
        assert code == 2
        assert "error" in err
        # no such family: argparse's invalid choice
        for argv in (["construct", "odd-1b", "--n", "12", "--b", "3"],
                     ["construct", "h-nab", "--n", "14", "--a", "2", "--b", "4"]):
            code, err = run_exit(capsys, argv)
            assert code == 2 and "invalid choice" in err

    def test_order_above_limit_names_n(self, capsys):
        # rejected before any adjacency row is built, naming the requested order
        code, out, err = run_cli(capsys, ["construct", "g-na", "--n", "20000", "--a", "2"])
        assert code == 2 and out == ""
        assert "20000" in err and len(err.strip().splitlines()) == 1


class TestRho:
    def test_k10(self, capsys, monkeypatch):
        from factorlab import complete

        code, out, _ = run_cli(capsys, ["rho"], stdin=to_graph6(complete(10)) + "\n",
                               monkeypatch=monkeypatch)
        assert code == 0
        data = json.loads(out.strip())
        assert abs(data["rho"] - 9.0) <= 1e-9
        assert data["method"] == "power"
        assert "residual" in data and "iterations" in data

    def test_quotient_mode(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run_cli(capsys, ["construct", "g-na", "--n", "14", "--a", "3"])
        g6_line, sidecar = out.strip().split("\n")
        blocks_file = tmp_path / "blocks.json"
        blocks_file.write_text(sidecar)
        code, out, _ = run_cli(
            capsys,
            ["rho", "--quotient", str(blocks_file)],
            stdin=g6_line + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        data = json.loads(out.strip())
        assert data["method"] == "quotient" and data["parts"] == 4
        from factorlab import spectral_radius

        assert abs(data["rho"] - spectral_radius(from_graph6(g6_line)).rho) <= 1e-8

    def test_quotient_not_equitable_names_vertex_and_part(self, capsys, monkeypatch, tmp_path):
        # Ch is P_4; in {0, 1} | {2, 3} vertex 1 has a neighbour in part 1 and vertex 0 none
        blocks_file = tmp_path / "ne.json"
        blocks_file.write_text('{"blocks": {"x": [0, 1], "y": [2, 3]}}')
        code, out, err = run_cli(capsys, ["rho", "--quotient", str(blocks_file)], stdin="Ch\n",
                                 monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "error: partition not equitable at vertex 1, part 1\n"

    @pytest.mark.parametrize(
        "content",
        [None, "not json", "[1,2]", '{"x":1}', '{"blocks":[[0,1]]}', '{"blocks":{"x":"ab"}}',
         '{"blocks":{"x":[-1]}}', "[" * 100_000],
        ids=["missing", "not-json", "list", "no-blocks", "blocks-list", "block-str", "negative", "deep"],
    )
    def test_bad_sidecar_is_input_error(self, capsys, monkeypatch, tmp_path, content):
        sidecar = tmp_path / "blocks.json"
        if content is not None:
            sidecar.write_text(content)
        g6 = to_graph6(g_na(14, 3).graph)
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{g6}\n{g6}\n"))
        code, err = run_exit(capsys, ["rho", "--quotient", str(sidecar)])
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "option", [["--max-iter", "-1"], ["--tol", "-1"], ["--tol", "0"]],
        ids=["max-iter-negative", "tol-negative", "tol-zero"],
    )
    def test_bad_solver_option_is_input_error(self, capsys, monkeypatch, option):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bo\n"))
        start = time.perf_counter()
        code, err = run_exit(capsys, ["rho", *option])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    def test_malformed_graph6_is_input_error(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["rho"], stdin="A_X\n", monkeypatch=monkeypatch)
        assert code == 2
        assert "line 1" in err


class TestCheckParityFactor:
    def test_gna_no_factor_witness(self, capsys, monkeypatch):
        g6 = to_graph6(g_na(12, 2).graph)
        code, out, _ = run_cli(
            capsys,
            ["check-parity-factor", "--a", "2", "--b", "4", "--method", "both"],
            stdin=g6 + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        data = json.loads(out.strip())
        assert data["criterion"] == "no_factor"
        assert data["search"] == "no_factor"
        assert data["agree"] is True
        w = data["witness"]
        assert w["eta"] <= -2
        assert w["eta"] == 4 * len(w["S"]) - 2 * len(w["T"]) + w["deg_sum"] - w["q"]

    def test_certificate_emitted(self, capsys, monkeypatch):
        from factorlab import cycle

        code, out, _ = run_cli(
            capsys,
            ["check-parity-factor", "--a", "2", "--b", "2", "--method", "search"],
            stdin=to_graph6(cycle(6)) + "\n",
            monkeypatch=monkeypatch,
        )
        data = json.loads(out.strip())
        assert data["search"] == "exists"
        assert len(data["certificate"]["edges"]) == 6

    def test_matching_method(self, capsys, monkeypatch):
        from factorlab import cycle

        g6s = [to_graph6(g_na(12, 2).graph), to_graph6(cycle(6))]
        code, out, _ = run_cli(
            capsys,
            ["check-parity-factor", "--a", "2", "--b", "4", "--method", "matching"],
            stdin="\n".join(g6s) + "\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        first, second = map(json.loads, out.strip().split("\n"))
        assert first == {"a": 2, "b": 4, "m": 34, "matching": "no_factor", "n": 12}
        assert second["matching"] == "exists"
        assert second["certificate"] == {"edges": [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]], "degrees": [2] * 6}

    def test_matching_refuses_no_parity(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bo\n"))
        code, err = run_exit(capsys, ["check-parity-factor", "--a", "2", "--b", "4", "--method", "matching",
                                      "--no-parity"])
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and "--no-parity" in err

    @pytest.mark.parametrize("method", [None, "both", "criterion"])
    def test_no_parity_needs_method_search(self, capsys, monkeypatch, method):
        # K_{2,3}: under `both`, --no-parity compared the parity criterion with
        # the plain search and printed "agree": false; criterion ignored it
        monkeypatch.setattr("sys.stdin", io.StringIO("D]o\n"))
        argv = ["check-parity-factor", "--a", "2", "--b", "4", "--no-parity"]
        code = main(argv + (["--method", method] if method else []))
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "--no-parity" in err

    def test_bogus_certificate_is_refused(self, capsys, monkeypatch):
        from factorlab import FactorCertificate, Verdict, cycle

        bogus = Verdict(exists=True, certificate=FactorCertificate(edges=((0, 3),), degrees=(1, 0, 0, 1, 0, 0)))
        monkeypatch.setattr(cli, "decide_by_search", lambda *args, **kwargs: bogus)
        code, out, err = run_cli(
            capsys, ["check-parity-factor", "--a", "2", "--b", "2", "--method", "search"],
            stdin=to_graph6(cycle(6)) + "\n", monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "certificate" in err

    @pytest.mark.parametrize("method", ["criterion", "search", "both", "matching"])
    def test_odd_order_is_skipped_not_fatal(self, capsys, monkeypatch, method):
        # K_2, K_3, K_4 at a = 1: K_3 has n*a odd, and the run carries on to K_4
        code, out, err = run_cli(
            capsys, ["check-parity-factor", "--a", "1", "--b", "3", "--method", method],
            stdin="A_\nBw\nC~\n", monkeypatch=monkeypatch,
        )
        assert code == 0 and err == ""
        first, second, third = map(json.loads, out.strip().split("\n"))
        assert second == {"a": 1, "b": 3, "m": 3, "n": 3, "status": "skipped_parity"}
        for line, n in ((first, 2), (third, 4)):
            assert line["n"] == n and "status" not in line
            assert all(line[name] == "exists" for name in cli.METHODS[method])

    def test_no_parity_decides_odd_orders(self, capsys, monkeypatch):
        # the n*a rule is the parity factor's; a plain [1,3]-factor of K_3 exists
        code, out, _ = run_cli(
            capsys, ["check-parity-factor", "--a", "1", "--b", "3", "--method", "search", "--no-parity"],
            stdin="Bw\n", monkeypatch=monkeypatch,
        )
        assert code == 0 and json.loads(out)["search"] == "exists"

    def test_bogus_witness_is_refused(self, capsys, monkeypatch):
        from factorlab import Verdict, criterion_witness, cycle

        # S = T = {} on C_6 at (2,2): the cells are right, but eta = 0 violates nothing
        clean = criterion_witness(cycle(6), 0, 0, ParityParams(2, 2))
        monkeypatch.setattr(cli, "decide_by_criterion", lambda *args, **kwargs: Verdict(exists=False, witness=clean))
        code, out, err = run_cli(
            capsys, ["check-parity-factor", "--a", "2", "--b", "2", "--method", "criterion"],
            stdin=to_graph6(cycle(6)) + "\n", monkeypatch=monkeypatch,
        )
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "witness" in err

    @pytest.mark.parametrize("method", ["criterion", "search"])
    def test_size_limit_names_the_force_flag(self, capsys, monkeypatch, method):
        # g_na(19, 2) is above both soft caps: 19 vertices, 111 edges
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(g_na(19, 2).graph) + "\n"))
        code, err = run_exit(capsys, ["check-parity-factor", "--a", "2", "--b", "4", "--method", method])
        assert code == 2
        assert "--force" in err

    def test_forced_refusal_does_not_name_the_flag(self, capsys, monkeypatch):
        # g_na(25, 2) is above the criterion's table ceiling, which --force does not lift
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(g_na(25, 2).graph) + "\n"))
        code, err = run_exit(capsys, ["check-parity-factor", "--a", "2", "--b", "4", "--method", "criterion", "--force"])
        assert code == 2
        assert err == "error: criterion tables hold 2^n entries; n <= 24 even with force\n"

    def test_table_ceiling_does_not_offer_the_flag(self, capsys, monkeypatch):
        # without --force too, g_na(25, 2) is refused at the table ceiling, which --force would not lift
        monkeypatch.setattr("sys.stdin", io.StringIO(to_graph6(g_na(25, 2).graph) + "\n"))
        code, err = run_exit(capsys, ["check-parity-factor", "--a", "2", "--b", "4", "--method", "criterion"])
        assert code == 2
        assert len(err.splitlines()) == 1 and "n <= 24" in err and "--force" not in err

    @pytest.mark.parametrize("method,graphs", [
        # g_na(19, 2) is above the criterion cap of 18 vertices
        ("criterion", [g_na(19, 2).graph]),
        # K_10's 45 edges are above the search cap of 40; g_na(12, 2) before it is decided
        ("both", [g_na(12, 2).graph, from_graph6("I~~~~~~~w")]),
    ], ids=["criterion", "both"])
    def test_size_limit_is_one_line_and_the_run_goes_on(self, capsys, monkeypatch, method, graphs):
        stdin = "".join(to_graph6(g) + "\n" for g in graphs) + "C~\n"  # K_4 last
        code, out, err = run_cli(capsys, ["check-parity-factor", "--a", "2", "--b", "4", "--method", method],
                                 stdin=stdin, monkeypatch=monkeypatch)
        assert code == 2
        *decided, refused, k4 = map(json.loads, out.strip().split("\n"))
        assert len(decided) == len(graphs) - 1
        assert all(line[name] == "no_factor" for line in decided for name in cli.METHODS[method])
        g = graphs[-1]
        assert refused == {"a": 2, "b": 4, "m": g.m, "n": g.n, "status": "size_limit"}
        assert k4["n"] == 4 and all(k4[name] == "exists" for name in cli.METHODS[method])
        assert len(err.strip().splitlines()) == 1 and "--force" in err

    def test_identical_outputs_for_identical_inputs(self, capsys, monkeypatch):
        g6 = to_graph6(g_na(11, 2).graph)
        argv = ["check-parity-factor", "--a", "2", "--b", "4", "--method", "both"]
        _, out1, _ = run_cli(capsys, argv, stdin=g6 + "\n", monkeypatch=monkeypatch)
        _, out2, _ = run_cli(capsys, argv, stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert out1 == out2

    def test_bad_parity_params(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys,
            ["check-parity-factor", "--a", "2", "--b", "3"],
            stdin="A_\n",
            monkeypatch=monkeypatch,
        )
        assert code == 2

    def test_file_input_and_multiple_graphs(self, capsys, tmp_path):
        from factorlab import cycle

        corpus = tmp_path / "two.g6"
        corpus.write_text(to_graph6(cycle(4)) + "\n" + to_graph6(cycle(6)) + "\n")
        code, out, _ = run_cli(
            capsys,
            ["check-parity-factor", "--a", "2", "--b", "2", "--method", "criterion",
             "--in", str(corpus)],
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert all(json.loads(line)["criterion"] == "exists" for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--in", "{tmp}/missing.g6"],
        ["verify", "--suite", "oracle", "--corpus", "{tmp}/missing.g6"],
        ["rho", "--in", "{tmp}/latin.g6"],
        ["rho", "--in", "{tmp}/empty.g6"],
        ["verify", "--suite", "eq1", "--samples", "10", "--out", "{tmp}/no/such/dir.csv"],
        ["verify", "--suite", "lemma2.2", "--samples", "0"],
        ["verify", "--suite", "eq1", "--samples", "-3"],
        ["verify", "--suite", "oracle", "--corpus", "{tmp}/k2.g6", "--jobs", "0"],
        ["verify", "--suite", "oracle", "--corpus", "{tmp}/k2.g6", "--jobs", "-5"],
    ],
    ids=["missing-in", "missing-corpus", "non-ascii-in", "empty-in", "unwritable-out", "samples-0", "samples-negative",
         "jobs-0", "jobs-negative"],
)
def test_outside_input_is_input_error(capsys, tmp_path, argv):
    (tmp_path / "latin.g6").write_bytes("C~\nC\u00e9\n".encode("utf-8"))
    (tmp_path / "k2.g6").write_text("A_\n")
    (tmp_path / "empty.g6").write_text("")
    code, err = run_exit(capsys, [arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_unwritable_out_fails_before_the_run(capsys, monkeypatch, tmp_path):
    def runner(args):
        pytest.fail("the suite ran before --out was opened")

    monkeypatch.setitem(cli.SUITES, "lemma2.7", (runner, ()))
    code, err = run_exit(capsys, ["verify", "--suite", "lemma2.7", "--out", str(tmp_path / "no" / "r.csv")])
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


class ClosedPipe:
    """A stdout whose reader has gone away: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_quietly(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "sink", "w") as sink:
        monkeypatch.setattr("sys.stdout", ClosedPipe(sink.fileno()))
        code = main(["construct", "g-na", "--n", "12", "--a", "2"])
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_broken_pipe_at_shutdown(unbuffered):
    # the interpreter flushes stdout again at exit; that flush must not fail either
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "factorlab.cli", "construct", "g-na", "--n", "12", "--a", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60, text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert "Broken pipe" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_only_check_parity_factor_names_force(capsys, tmp_path):
    # verify takes no --force, so its report names only the library's force=True
    corpus = tmp_path / "gna19.g6"
    corpus.write_text(to_graph6(g_na(19, 2).graph) + "\n")
    code, out, _ = run_cli(capsys, ["verify", "--suite", "oracle", "--corpus", str(corpus)])
    assert code == 1
    assert "capped at n <= 18" in out and "--force" not in out
    # a forced run past the soft cap is quiet: stderr stays empty
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "factorlab.cli", "check-parity-factor", "--a", "2", "--b", "4",
         "--method", "criterion", "--force"],
        input=to_graph6(g_na(20, 2).graph) + "\n", capture_output=True, env=env, timeout=60, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["criterion"] == "no_factor"


@pytest.mark.parametrize(
    "argv, env_seed",
    [
        (["verify", "--suite", "lemma9.9"], None),
        (["verify", "--suite", "eq1", "--samples", "10"], "abc"),
    ],
    ids=["unknown-suite", "seed-env-not-int"],
)
def test_verify_usage_error(capsys, monkeypatch, argv, env_seed):
    if env_seed is not None:
        monkeypatch.setenv("FACTORLAB_SEED", env_seed)
    code, err = run_exit(capsys, argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("factorlab verify: error:")


class TestVerify:
    def test_eq1_suite_passes(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, out, err = run_cli(
            capsys,
            ["verify", "--suite", "eq1", "--samples", "2000", "--out", str(out_file)],
        )
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["all_pass"] is True
        text = out_file.read_text()
        assert text.startswith("block,trials,odd_count,pass")
        assert "ok" in err

    def test_lemma_28_suite(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "lemma2.8"])
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["failures"] == 0

    def test_oracle_suite_with_corpus_file(self, capsys, tmp_path):
        corpus = tmp_path / "c.g6"
        lines = [to_graph6(g_na(11, 2).graph), to_graph6(g_na(12, 2).graph)]
        corpus.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, ["verify", "--suite", "oracle", "--corpus", str(corpus)]
        )
        assert code == 0
        summary = json.loads(out.strip().split("\n")[-1])
        assert summary["all_pass"] is True

    def test_survey_deterministic_and_never_fails(self, capsys, tmp_path):
        f1, f2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        argv = ["verify", "--suite", "survey", "--n", "11", "--a", "2", "--b", "4",
                "--samples", "5", "--seed", "9"]
        code1, _, _ = run_cli(capsys, argv + ["--out", str(f1)])
        code2, _, _ = run_cli(capsys, argv + ["--out", str(f2)])
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_env_seed_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("FACTORLAB_SEED", "77")
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        argv = ["verify", "--suite", "survey", "--n", "11", "--a", "2", "--b", "4",
                "--samples", "3"]
        run_cli(capsys, argv + ["--out", str(f1)])
        run_cli(capsys, argv + ["--out", str(f2)], stdin=None)
        assert "seed=77" in f1.read_text()
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize(
        "suite, extra",
        [
            ("lemma2.8", ["--samples", "5", "--corpus", "/no/such/file", "--jobs", "3"]),
            ("oracle", ["--samples", "5"]),
            ("lemma2.6", ["--samples", "5"]),
            ("lemma2.7", ["--samples", "5"]),
            ("lemma2.8", ["--samples", "5"]),
            ("lemma2.2", ["--corpus", "c.g6"]),
            ("eq1", ["--jobs", "2"]),
            ("survey", ["--corpus", "c.g6", "--jobs", "3"]),
        ],
    )
    def test_option_the_suite_ignores_is_refused(self, capsys, monkeypatch, suite, extra):
        # each once ran the suite with exit 0 and dropped the option silently
        monkeypatch.setitem(cli.SUITES, suite, (lambda args: pytest.fail("the suite ran"), cli.SUITES[suite][1]))
        code, err = run_exit(capsys, ["verify", "--suite", suite, *extra])
        assert code == 2
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1 and suite in err

    def test_jobs_1_and_the_defaulted_options_are_accepted_by_every_suite(self, capsys, monkeypatch):
        def stub(args):
            return harness.GridReport("stub", ("pass",))

        for suite in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, suite, (stub, cli.SUITES[suite][1]))
            argv = ["verify", "--suite", suite, "--jobs", "1", "--seed", "3", "--n", "12", "--a", "2", "--b", "4"]
            assert run_exit(capsys, argv) == (0, f"suite {suite}: ok\n")


# sha256 of `verify` stdout (report plus summary line), one per suite run.
GOLDEN_VERIFY_DIGESTS = {
    "lemma2.2": "4c16941662c14c27e94d1590ec7b5a3c91260b9e99d348e6cd656c047be48ae9",
    "lemma2.3": "68385db4032f3ed9176a3139ea8d102ab285fc0748ed2b4cc9118c2b3280d7bc",
    "eq1": "c0a4b498b27573e67e3f914e65aeecc4c7472bf1232c9a05c89e49417ddf1033",
    "survey": "d2e4f35043ed8b1ff56ff50b7f661db92b84a7bb5d75e04afb8f958d81839dd6",
    "oracle": "8862a31ee25d148a8e3609ade66b4ae5a69b3923d82a60d292453b77551f385a",
    "lemma2.6": "0942674c9ecdbaf1555857adcadff5ea11c817ce77610bfdfcb7d52dd23b5e28",
    "lemma2.8": "b2b8045e7128e991e4ba2e619d699f7a581f1ea5dbc422348bc12ee8bd7df316",
    "lemma2.7": "9564d808ce7c9e1891e83121c2013afc30135c095900c43bc43f164e7a101b2b",
}


def test_golden_verify_digests(capsys, tmp_path):
    corpus = tmp_path / "n6.g6"
    corpus.write_text("".join(to_graph6(g) + "\n" for g in bundled_connected_graphs(6)))
    runs = [
        ("lemma2.2", ["--samples", "300", "--seed", "3"]),
        ("lemma2.3", ["--samples", "300", "--seed", "3"]),
        ("eq1", ["--samples", "300", "--seed", "3"]),
        ("survey", ["--n", "12", "--samples", "6", "--seed", "2"]),
        ("oracle", ["--corpus", str(corpus)]),
        ("oracle", ["--corpus", str(corpus), "--jobs", "2"]),
        ("lemma2.6", []),
        ("lemma2.8", []),
        ("lemma2.7", []),
    ]
    for suite, extra in runs:
        code, out, _ = run_cli(capsys, ["verify", "--suite", suite, *extra])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_DIGESTS[suite], (suite, extra)


# sha256 of `check-parity-factor` stdout over the n <= 6 corpus plus g_na(12, 2),
# keeping the graphs whose order n has n*a even (the parity precondition).
GOLDEN_CHECK_DIGESTS = {
    (2, 4, "criterion"): "d012a13dced33bc55770a75f940db118b7b5910a07a862df1c095eb4f30cb0c6",
    (2, 4, "search"): "dfda1c74e2b6de1280ade070b51dc5db9e85fb52ffa97b52dee6952a7f61d836",
    (2, 4, "both"): "e74618be720d056772ae4aab59f4722705951705bce2e9569cf63dced2761809",
    (2, 4, "matching"): "c72a339f7382ec08ec7daf313ff09fc3e8030d80061a4028525e90ce183aacec",
    (1, 3, "criterion"): "e5df766c23d89e01a5ac23b973851cf9787e98c908222b8a121b063734965f99",
    (1, 3, "search"): "e4cbb8fb74a3dc56e984796ddabee9f2e517d2f7968f6ec9878680c73b74dc30",
    (1, 3, "both"): "1ad77d089c83341dbb7956ae7226dfc47ae7f6ab2f6327e7ed06a304ec360976",
    (1, 3, "matching"): "65af9dbe3324d1bde17c2594d79fe9e89448294b4d53cf5141688a33a431bd0d",
}


@pytest.mark.parametrize("a,b,method", list(GOLDEN_CHECK_DIGESTS))
def test_golden_check_digests(capsys, monkeypatch, a, b, method):
    graphs = [g for n in range(1, 7) for g in bundled_connected_graphs(n) if n * a % 2 == 0]
    graphs.append(g_na(12, 2).graph)
    stdin = "".join(to_graph6(g) + "\n" for g in graphs)
    argv = ["check-parity-factor", "--a", str(a), "--b", str(b), "--method", method]
    code, out, _ = run_cli(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CHECK_DIGESTS[(a, b, method)]
