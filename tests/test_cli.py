import json
import subprocess
import sys

import pytest

from modnull import InputError, validate_coloring
from modnull.cli import main

TRIANGLE = "0 1\n0 2\n1 2\n"
PARTITION_122 = "1\n2\n2\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_compute_moments_json(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    p = write(tmp_path, "part.txt", PARTITION_122)
    code, out, err = run_cli(capsys, "compute", "--graph", g, "--partition", p)
    assert code == 0 and err == ""
    doc = json.loads(out)
    for key in ("n", "m", "K", "mu", "sigma2", "delta2", "r1", "r2"):
        assert key in doc
    assert doc["n"] == 3 and doc["m"] == 3 and doc["K"] == 2
    assert doc["Q"] == pytest.approx(-2 / 9, abs=1e-12)
    assert doc["mu"] == pytest.approx(-0.148148148148148, abs=1e-12)
    assert doc["config"]["command"] == "compute"


def test_test_subcommand_pinned_values(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    p = write(tmp_path, "part.txt", PARTITION_122)
    code, out, _ = run_cli(capsys, "test", "--graph", g, "--partition", p)
    assert code == 0
    doc = json.loads(out)
    assert doc["z_sigma"] == pytest.approx(-0.70711, abs=1e-5)
    assert doc["p_value"] == pytest.approx(0.76025, abs=1e-5)
    assert doc["sidedness"] == "upper"
    assert set(doc["conditions"]) == {
        "stat_31",
        "stat_311",
        "stat_c1",
        "holds_c1",
        "n",
        "m",
        "kmax",
    }


def test_conditions_subcommand(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, _ = run_cli(capsys, "conditions", "--graph", g)
    assert code == 0
    doc = json.loads(out)
    assert doc["stat_31"] == pytest.approx(2.0, abs=1e-12)
    assert doc["holds_c1"] is False
    assert doc["kmax"] == 2


def test_generate_then_compute_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    code, out, _ = run_cli(
        capsys, "generate", "--model", "reg:d=1", "--n", "4", "--seed", "7",
        "--out", str(out_path),
    )
    assert code == 0
    echo = json.loads(out)
    assert echo["config"]["master_seed"] == 7 and echo["m"] == 2
    text1 = out_path.read_text()
    assert text1.startswith("# n=4\n")
    # regeneration is byte identical
    run_cli(capsys, "generate", "--model", "reg:d=1", "--n", "4", "--seed", "7",
            "--out", str(out_path))
    assert out_path.read_text() == text1

    ones = write(tmp_path, "ones.txt", "1\n1\n1\n1\n")
    code, out, _ = run_cli(capsys, "compute", "--graph", str(out_path), "--partition", ones)
    assert code == 0
    assert json.loads(out)["Q"] == 0.0


def test_generate_to_stdout_echoes_config_on_stderr(capsys):
    code, out, err = run_cli(capsys, "generate", "--model", "er:p=1.0", "--n", "3")
    assert code == 0
    assert out == "# n=3\n0 1\n0 2\n1 2\n"
    assert json.loads(err)["config"]["command"] == "generate"


def test_enumerate_check(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    p = write(tmp_path, "p.txt", "0.3333333333333333\n0.6666666666666667\n")
    code, out, _ = run_cli(capsys, "enumerate-check", "--graph", g, "--probs", p)
    assert code == 0
    doc = json.loads(out)
    assert doc["max_rel_err"] <= 1e-11
    assert doc["mu_closed_form"] == pytest.approx(-4 / 27, abs=1e-12)


def test_null_sample_outputs_and_determinism(tmp_path, capsys):
    g_path = tmp_path / "g.txt"
    run_cli(capsys, "generate", "--model", "reg:d=4", "--n", "40", "--seed", "3",
            "--out", str(g_path))
    out_csv = tmp_path / "samples.csv"
    args = ["null-sample", "--graph", str(g_path), "--K", "2", "--reps", "300",
            "--seed", "11", "--out", str(out_csv)]
    assert run_cli(capsys, *args)[0] == 0
    csv1 = out_csv.read_bytes()
    summary1 = (tmp_path / "samples.summary.json").read_bytes()
    assert run_cli(capsys, *args, "--threads", "8")[0] == 0
    assert out_csv.read_bytes() == csv1
    assert (tmp_path / "samples.summary.json").read_bytes() == summary1
    lines = csv1.decode().splitlines()
    assert lines[0] == "replicate,q,z"
    assert len(lines) == 301
    doc = json.loads(summary1)
    assert doc["config"]["master_seed"] == 11
    assert doc["config"]["reps"] == 300
    assert 0.0 <= doc["ks"] <= 1.0


def test_be_study_files(tmp_path, capsys):
    out_csv = tmp_path / "be.csv"
    args = ["be-study", "--model", "reg:d=6", "--sizes", "50,100", "--reps", "150",
            "--seed", "5", "--out", str(out_csv)]
    assert run_cli(capsys, *args)[0] == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,m,ks,bound_shape,fitted_C,seed_used,ks_sigma,ks_delta,sigma2_over_delta2"
    assert len(lines) == 3
    doc = json.loads((tmp_path / "be.summary.json").read_text())
    assert doc["config"]["sizes"] == [50, 100]
    assert doc["config"]["master_seed"] == 5
    assert len(doc["per_size"]) == 2


def test_slln_study_files(tmp_path, capsys):
    out_csv = tmp_path / "slln.csv"
    args = ["slln-study", "--model", "reg:d=6", "--sizes", "50,100,200,400",
            "--reps", "3", "--seed", "5", "--out", str(out_csv)]
    assert run_cli(capsys, *args)[0] == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "path,n,value"
    assert len(lines) == 1 + 3 * 4
    doc = json.loads((tmp_path / "slln.summary.json").read_text())
    assert doc["paths"] == 3
    assert len(doc["per_path"]) == 3


@pytest.mark.parametrize("command, extra", [
    ("generate", ["--n", "60"]),
    ("be-study", ["--sizes", "30,60", "--reps", "100"]),
    ("slln-study", ["--sizes", "30,60", "--reps", "3"]),
])
def test_model_echo_is_the_resolved_spec(tmp_path, capsys, command, extra):
    # Two spellings of one model give one graph, so they must give one artifact:
    # every command echoes the parsed spec, not the text it was given.
    artifacts = []
    for i, model in enumerate(("er:p=2e-1", " er : p = 0.2 ")):
        out = tmp_path / f"{i}.csv"
        code, stdout, _ = run_cli(capsys, command, "--model", model, *extra, "--seed", "4",
                                  "--out", str(out))
        assert code == 0
        summary = out.with_suffix(".summary.json")
        echo = summary.read_text() if summary.exists() else stdout
        assert json.loads(echo)["config"]["model"] == "er:p=0.2"
        artifacts.append((out.read_bytes(), echo))
    assert artifacts[0] == artifacts[1]


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MODNULL_SEED", "321")
    code, out, _ = run_cli(capsys, "generate", "--model", "er:p=1.0", "--n", "3",
                           "--out", str(tmp_path / "g.txt"))
    assert code == 0
    assert json.loads(out)["config"]["master_seed"] == 321


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_unparsable_seed_env_exits_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MODNULL_SEED", value)
    out = tmp_path / "g.txt"
    code, _, err = run_cli(capsys, "generate", "--model", "er:p=1.0", "--n", "3",
                           "--out", str(out))
    assert code == 2 and not out.exists()
    assert json.loads(err) == {
        "code": 2,
        "message": "bad MODNULL_SEED: seed must be an integer",
        "context": {"command": "generate"},
    }


def test_input_errors_exit_2_with_json(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "0 0\n")
    part = write(tmp_path, "p.txt", "1\n")
    code, out, err = run_cli(capsys, "compute", "--graph", bad, "--partition", part)
    assert code == 2
    doc = json.loads(err)
    assert doc["code"] == 2 and "self-loop" in doc["message"]
    assert doc["context"]["command"] == "compute"
    assert err.count("\n") == 1

    code, _, err = run_cli(capsys, "compute", "--graph", str(tmp_path / "nope.txt"),
                           "--partition", part)
    assert code == 2
    assert json.loads(err)["code"] == 2


@pytest.mark.parametrize(
    "text,loop,line",
    [
        ("0 1\r\n0 2\r\n1 2\r\n", "0 1\r\n0 2\r\n2 2\r\n", 3),
        ("0 1\r0 2\r1 2", "0 1\r0 2\r2 2", 3),
        ("0\u00a01\u20280 2\n\n1\u30002\n", "0\u00a01\u20280 2\n\n2\u30002\n", 4),
    ],
)
def test_graph_files_read_as_bytes_or_text_alike(tmp_path, capsys, text, loop, line):
    # An ASCII graph file reaches the parser as bytes, any other one as
    # decoded text; line ends and spaces of either kind read the same.
    p = write(tmp_path, "part.txt", PARTITION_122)
    outs = []
    for name, body in (("plain.txt", TRIANGLE), ("other.txt", text)):
        code, out, _ = run_cli(capsys, "compute", "--graph", write(tmp_path, name, body),
                               "--partition", p)
        assert code == 0
        outs.append({k: v for k, v in json.loads(out).items() if k != "config"})
    assert outs[0] == outs[1]
    code, _, err = run_cli(capsys, "compute", "--graph", write(tmp_path, "loop.txt", loop),
                           "--partition", p)
    assert code == 2
    assert json.loads(err)["message"] == f"line {line}: self-loop at vertex 2"


def test_unwritable_out_exits_2_with_json(tmp_path, capsys):
    out = str(tmp_path / "missing" / "g.txt")
    code, _, err = run_cli(capsys, "generate", "--model", "er:p=0.5", "--n", "5", "--out", out)
    assert code == 2
    doc = json.loads(err)
    assert doc["code"] == 2 and out in doc["message"]
    assert doc["context"]["command"] == "generate"
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text,line",
    [("1\n2\nx\n", 3), ("# c\n\n1\n2 3\n", 4), ("1\r\n\r\n1.5\r\n", 3), ("1\n1 # c\n", 2)],
)
def test_partition_errors_name_their_line(tmp_path, capsys, text, line):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    part = write(tmp_path, "part.txt", text)
    code, _, err = run_cli(capsys, "compute", "--graph", g, "--partition", part)
    assert code == 2
    assert json.loads(err)["message"] == f"{part} line {line}: colors must be integers"


@pytest.mark.parametrize("text,line,message", [
    ("1\n0\n2\n", 2, "colors must be integers >= 1"),
    ("1\n2\n-3\n", 3, "colors must be integers >= 1"),
    ("1\n2\nx\n0\n", 3, "colors must be integers"),
])
def test_partition_colors_below_one_name_their_line(tmp_path, capsys, text, line, message):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    part = write(tmp_path, "part.txt", text)
    code, out, err = run_cli(capsys, "compute", "--graph", g, "--partition", part)
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == f"{part} line {line}: {message}"


def test_directive_below_the_edges_bounds_them(tmp_path, capsys):
    g = write(tmp_path, "g.txt", "0 5\n# n=3\n")
    code, out, err = run_cli(capsys, "conditions", "--graph", g)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["message"] == "line 1: vertex id 5 >= n=3"


@pytest.mark.parametrize(
    "text,line",
    [
        ("0 4611686018427387904\n", 1),
        ("# n=4611686018427387905\n0 1\n", 1),
        ("0 1\n2 4611686018427387904\n1 2\n", 2),
        ("0 1\n# n=4611686018427387905\n", 2),
    ],
    ids=["largest-id", "directive", "largest-id-below", "directive-below"],
)
def test_vertex_count_beyond_any_array_exits_2(tmp_path, capsys, text, line):
    # n int64s need 8n bytes, more than numpy can size: refused at the line
    # that sets n, the directive's or the largest id's.
    g = write(tmp_path, "g.txt", text)
    code, out, err = run_cli(capsys, "conditions", "--graph", g)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err)["message"] == (
        f"line {line}: n=4611686018427387905 vertices, but an int64 array holds at most "
        "1152921504606846975 entries")


@pytest.mark.parametrize(
    "command,flag,body",
    [
        ("conditions", "--graph", b"0 1\n1\xa02\n"),
        ("compute", "--partition", b"1\n\xe9\n1\n"),
        ("enumerate-check", "--probs", b"0.5\n\xe9\n"),
    ],
    ids=["graph", "partition", "probs"],
)
def test_undecodable_files_exit_2(tmp_path, capsys, command, flag, body):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(body)
    args = ["--graph", str(bad)] if flag == "--graph" else ["--graph", g, flag, str(bad)]
    code, out, err = run_cli(capsys, command, *args)
    assert code == 2 and out == "" and err.count("\n") == 1
    doc = json.loads(err)
    assert doc["code"] == 2 and doc["message"].startswith(f"cannot read {bad}: not UTF-8")


def test_partition_reader_accepts_comments_blanks_and_signs(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    part = write(tmp_path, "part.txt", "# colors\n+1\n\n 2 \r\n\t2\n")
    code, out, _ = run_cli(capsys, "compute", "--graph", g, "--partition", part)
    assert code == 0 and json.loads(out)["Q"] == pytest.approx(-2 / 9, abs=1e-12)
    empty = write(tmp_path, "empty.txt", "# nothing\n\n")
    code, _, err = run_cli(capsys, "compute", "--graph", g, "--partition", empty)
    assert code == 2 and json.loads(err)["message"] == f"{empty}: partition file is empty"


def test_uncaught_errors_exit_4_with_json(tmp_path, capsys, monkeypatch):
    import modnull.cli as cli

    def fail(_):
        raise MemoryError("Unable to allocate 8.00 PiB")

    monkeypatch.setattr(cli, "condition_statistics", fail)
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run_cli(capsys, "conditions", "--graph", g)
    assert code == 4 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    doc = json.loads(err)
    assert doc == {
        "code": 4,
        "message": "MemoryError: Unable to allocate 8.00 PiB",
        "context": {"command": "conditions"},
    }


def test_domain_errors_exit_3(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    ones = write(tmp_path, "ones.txt", "1\n1\n1\n")
    code, _, err = run_cli(capsys, "test", "--graph", g, "--partition", ones)
    assert code == 3
    assert json.loads(err)["code"] == 3

    code, _, err = run_cli(capsys, "generate", "--model", "reg:d=1", "--n", "5")
    assert code == 3
    assert "even" in json.loads(err)["message"]

    path30 = write(tmp_path, "p30.txt", "".join(f"{i} {i+1}\n" for i in range(30)))
    code, _, err = run_cli(capsys, "enumerate-check", "--graph", path30, "--K", "2")
    assert code == 3
    assert "guard" in json.loads(err)["message"]


def test_unknown_flag_exits_2_with_json(tmp_path, capsys):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    code, out, err = run_cli(capsys, "conditions", "--graph", g, "--bogus", "x")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "code": 2,
        "message": "unrecognized arguments: --bogus x",
        "context": {"command": "conditions"},
    }
    assert err.count("\n") == 1 and "usage" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["null-sample", "--graph", "g.txt", "--K", "2", "--reps", "abc", "--out", "s.csv"],
         "argument --reps: invalid int value: 'abc'"),
        (["be-study", "--model", "reg:d=6", "--sizes", "10,x", "--reps", "100", "--out", "b.csv"],
         "argument --sizes: bad size list '10,x'"),
        (["slln-study", "--model", "reg:d=6", "--sizes", "50,100", "--reps", "2",
          "--threads", "2", "--out", "s.csv"],
         "unrecognized arguments: --threads 2"),
        (["conditions"], "the following arguments are required: --graph"),
        ([], "the following arguments are required: command"),
        (["generate", "--model", "er:p=1.0", "--n", "3", "--seed", "abc"],
         "argument --seed: seed must be an integer"),
        (["compute", "--graph", "g.txt", "--partition", "part.txt", "--probs", "p.txt",
          "--K", "9"],
         "argument --K: not allowed with argument --probs"),
        (["be-study", "--model", "reg:d=6", "--sizes", "50,100", "--reps", "100",
          "--probs", "p.txt", "--K", "7", "--out", "b.csv"],
         "argument --K: not allowed with argument --probs"),
    ],
    ids=["bad-int", "bad-sizes", "slln-threads", "missing-option", "missing-command",
         "bad-seed", "compute-K-and-probs", "be-study-K-and-probs"],
)
def test_argument_errors_exit_2_with_json(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    command = argv[0] if argv else None
    assert json.loads(err) == {"code": 2, "message": message, "context": {"command": command}}
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["slln-study", "-h"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: modnull slln-study") and "--threads" not in out


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["null-sample", "be-study"])
def test_threads_below_one_exit_2(tmp_path, capsys, command, threads):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    args = {
        "null-sample": ["--graph", g, "--K", "2", "--reps", "10"],
        "be-study": ["--model", "reg:d=6", "--sizes", "50,100", "--reps", "100"],
    }[command]
    out = tmp_path / "out.csv"
    code, _, err = run_cli(capsys, command, *args, "--threads", threads, "--out", str(out))
    assert code == 2 and not out.exists()
    assert json.loads(err)["message"] == f"threads must be >= 1, got {threads}"


@pytest.mark.parametrize("command", ["compute", "test"])
def test_partition_color_beyond_probs_exits_2(tmp_path, capsys, command):
    g = write(tmp_path, "tri.txt", TRIANGLE)
    part = write(tmp_path, "part.txt", "1\n5\n2\n")
    probs = write(tmp_path, "p.txt", "0.2\n0.3\n0.5\n")
    code, out, err = run_cli(capsys, command, "--graph", g, "--partition", part,
                             "--probs", probs)
    assert code == 2 and out == ""
    assert json.loads(err)["message"] == f"{part} line 2: color 5 exceeds K=3"


@pytest.mark.parametrize("text,line", [("0.5\ninf\n", 2), ("-inf\n1\n", 1),
                                       ("1e308\n1e308\n", 1)], ids=["inf", "-inf", "1e308"])
def test_probability_file_with_huge_values_exits_2(tmp_path, capsys, text, line):
    # These used to reach math.fsum, which raised ValueError or OverflowError (exit 4).
    g = write(tmp_path, "tri.txt", TRIANGLE)
    probs = write(tmp_path, "p.txt", text)
    code, out, err = run_cli(capsys, "enumerate-check", "--graph", g, "--probs", probs)
    assert code == 2 and out == "" and err.count("\n") == 1
    raw = text.splitlines()[line - 1]
    assert json.loads(err) == {"code": 2, "message": f"line {line}: not a probability: {raw!r}",
                               "context": {"command": "enumerate-check"}}


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "modnull.cli", "generate", "--model", "er:p=1.0",
         "--n", "3"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "# n=3\n0 1\n0 2\n1 2\n"


@pytest.mark.parametrize("command", ["null-sample", "be-study", "slln-study", "enumerate-check",
                                     "compute", "test", "null-sample --partition"])
def test_zero_colors_exit_2(tmp_path, capsys, command):
    g = write(tmp_path, "g.txt", "0 1\n2 3\n")
    out = str(tmp_path / "out.csv")
    # A flag fault, found before the partition (which does not exist) is read.
    part = ["--partition", str(tmp_path / "missing.txt")]
    args = {
        "null-sample": ["--graph", g, "--reps", "10", "--out", out],
        "be-study": ["--model", "reg:d=2", "--sizes", "4,8", "--reps", "10", "--out", out],
        "slln-study": ["--model", "reg:d=2", "--sizes", "4,8", "--reps", "2", "--out", out],
        "enumerate-check": ["--graph", g],
        "compute": ["--graph", g, *part],
        "test": ["--graph", g, *part],
        "null-sample --partition": ["--graph", g, *part, "--reps", "10", "--out", out],
    }[command]
    command = command.split()[0]
    for K in ("0", "-3"):
        code, stdout, err = run_cli(capsys, command, *args, "--K", K)
        assert code == 2 and stdout == "" and err.count("\n") == 1
        assert json.loads(err) == {"code": 2, "message": "need at least one color",
                                   "context": {"command": command}}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt"]


@pytest.mark.parametrize("command", ["compute", "test"])
@pytest.mark.parametrize("text,K,line,values", [
    ("1\n0\n2\n1\n", None, 2, [1, 0, 2, 1]),
    ("1\n2\n-3\n1\n", None, 3, [1, 2, -3, 1]),
    ("1\n4\n2\n1\n", 3, 2, [1, 4, 2, 1]),
    ("1\n2\n1.5\n1\n", None, 3, [1, 2, 1.5, 1]),
    ("1\n2\n", None, None, [1, 2]),
    ("# no colors\n", None, None, None),
], ids=["zero", "negative", "K+1", "malformed", "length", "empty"])
def test_partition_refusals_are_the_library_message_at_a_line(
        tmp_path, capsys, command, text, K, line, values):
    g = write(tmp_path, "g.txt", "0 1\n2 3\n")
    part = write(tmp_path, "part.txt", text)
    flags = [] if K is None else ["--K", str(K)]
    code, out, err = run_cli(capsys, command, "--graph", g, "--partition", part, *flags)
    assert code == 2 and out == "" and err.count("\n") == 1
    if values is None:
        message = "partition file is empty"
    else:
        with pytest.raises(InputError) as refused:
            validate_coloring(values, n=4, K=K)
        message = str(refused.value)
        assert getattr(refused.value, "index", None) == (None if line is None else line - 1)
    where = f"{part}: " if line is None else f"{part} line {line}: "
    assert json.loads(err)["message"] == where + message


@pytest.mark.parametrize("command", ["compute", "test"])
def test_cli_checks_a_partition_twice(tmp_path, capsys, monkeypatch, command):
    # Once as a file, once in the library call that uses it.
    import modnull.cli
    import modnull.colors
    import modnull.moments
    import modnull.simulation

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_coloring(*args, **kwargs)

    for module in (modnull.cli, modnull.colors, modnull.moments, modnull.simulation):
        monkeypatch.setattr(module, "validate_coloring", counted)
    g = write(tmp_path, "g.txt", "0 1\n2 3\n")
    part = write(tmp_path, "part.txt", "1\n2\n1\n2\n")
    for flags in ([], ["--K", "3"], ["--probs", write(tmp_path, "p.txt", "0.5\n0.5\n")]):
        calls.clear()
        code, _, err = run_cli(capsys, command, "--graph", g, "--partition", part, *flags)
        assert code == 0 and err == "" and len(calls) == 2


@pytest.mark.parametrize("lines", [2, 7])
@pytest.mark.parametrize("command", ["compute", "test", "null-sample"])
def test_partition_of_the_wrong_length_exits_2(tmp_path, capsys, command, lines):
    g = write(tmp_path, "g.txt", "0 1\n2 3\n")
    part = write(tmp_path, "part.txt", "1\n2\n" * (lines // 2) + "1\n" * (lines % 2))
    out = str(tmp_path / "out.csv")
    extra = ["--reps", "10", "--out", out] if command == "null-sample" else []
    code, stdout, err = run_cli(capsys, command, "--graph", g, "--partition", part, *extra)
    assert code == 2 and stdout == "" and err.count("\n") == 1
    message = f"{part}: coloring has length {lines}, expected 4"
    assert json.loads(err) == {"code": 2, "message": message, "context": {"command": command}}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.txt", "part.txt"]
