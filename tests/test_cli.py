import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import RATIONALS, ROW_MUTATIONS, elements, mutated_rows, polys
from trilie import cli
from trilie.brackets import closed_triple_fn
from trilie.cli import CHECKS, main
from trilie.parsing import MAX_EXPONENT
from trilie.report import VerdictReport


def run_cli(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_verify_pass_exit_zero():
    code, out = run_cli(["verify", "anticommutativity", "--bracket", "omega", "--window", "-2..2"])
    assert code == 0
    assert "[PASS" in out


def test_negative_window_value_accepted():
    code, out = run_cli(["verify", "structure-maps", "--window", "-3..3"])
    assert code == 0


def test_flagged_does_not_fail_run():
    code, out = run_cli(["verify", "structure-maps", "--window", "-2..2"])
    assert code == 0
    assert "FLAGGED" in out


def test_json_format_schema():
    code, out = run_cli(
        ["verify", "table-5-1", "--window", "-3..3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "reports", "status"}
    for rep in doc["reports"]:
        assert set(rep) == {"check", "params", "status", "counterexamples", "notes", "stats"}
    # exact rationals only: no floats anywhere in the document
    def no_floats(node):
        if isinstance(node, float):
            raise AssertionError("float leaked into a report")
        if isinstance(node, dict):
            for v in node.values():
                no_floats(v)
        if isinstance(node, list):
            for v in node:
                no_floats(v)

    no_floats(doc)


def test_config_error_exit_two(capsys, tmp_path):
    config_args = []
    for i, body in enumerate(
        (
            "[1, 2]",
            '{"window": 5}',
            '{"beta": 1}',
            '{"k": 1.5}',
            '{"samples": 2.5}',
            '{"bracket": "xyz"}',
            '{"windw": "-2..2"}',
        )
    ):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(body)
        config_args.append(["verify", "anticommutativity", "--config", str(path)])
    for args in (
        *config_args,
        ["verify", "fundamental-identity", "--window", "5..1"],
        ["verify", "fundamental-identity", "--beta", "const:0"],
        ["verify", "fundamental-identity", "--bracket", "fk", "--beta", "support:0=1/0"],
        ["verify", "fundamental-identity", "--bracket", "fk", "--beta", "const:1/0"],
        ["verify", "fundamental-identity", "--samples", "-3"],
        ["analyze", "derived-series", "--depth", "-1"],
        ["analyze", "derived-series", "--bracket", "fk", "--depth", "0", "--window=-3..3"],
        ["analyze", "vandermonde", "--seed-element", "0"],
    ):
        code, _ = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2, args
        assert err.startswith("trilie: ") and "Traceback" not in err, err


def test_more_config_faults_exit_two(capsys, tmp_path):
    unreadable = tmp_path / "latin1.json"
    unreadable.write_bytes(b'{"window": "\xff"}')
    for args in (
        ["verify", "anticommutativity", "--window", "a..b"],
        ["verify", "anticommutativity", "--window", "3"],
        ["verify", "anticommutativity", "--bracket", "fk", "--beta", "const:abc"],
        ["verify", "anticommutativity", "--bracket", "fk", "--beta", "support:x=1"],
        ["verify", "anticommutativity", "--bracket", "fk", "--beta", "poly:0"],
        ["verify", "anticommutativity", "--config", str(unreadable)],
        ["verify", "anticommutativity", "--config", str(tmp_path / "missing.json")],
        ["analyze", "ideal-closure", "--seed-element", "M[99]", "--window=-2..2"],
        ["verify", "basis-independence", "--bracket", "fk", "--beta", "support:1=1", "--s0", "0"],
        ["verify", "section3-structure", "--bracket", "fk", "--beta", "support:1=1", "--s0", "0"],
    ):
        code, _ = run_cli(args)
        err = capsys.readouterr().err
        assert code == 2, args
        assert err.startswith("trilie: ") and "Traceback" not in err, err


@pytest.mark.parametrize("error", [RuntimeError("kernel\nexploded"), ValueError("not a config fault")])
def test_internal_error_exits_three_in_one_line(monkeypatch, capsys, error):
    def broken(cfg):
        raise error

    monkeypatch.setitem(CHECKS, "anticommutativity", broken)
    code, out = run_cli(["verify", "anticommutativity", "--window", "-1..1"])
    err = capsys.readouterr().err
    assert code == 3
    assert out == ""
    assert err == f"trilie: internal error: {type(error).__name__}: {' '.join(str(error).split())}\n"


# the characters of both grammars and the weight specs, without the 'e' of a
# decimal exponent, which Fraction reads in const and support values
GRAMMAR_TEXT = st.text(alphabet="LM[]t^*/+-=,:. 0123456789", max_size=16)


@settings(max_examples=200)
@given(
    flag=st.sampled_from(["--seed-element=", "--beta=poly:", "--beta=const:", "--beta=support:"]),
    body=st.one_of(
        GRAMMAR_TEXT,
        elements().map(str),
        polys().map(str),
        st.tuples(RATIONALS, st.integers(0, 9_999_999)).map(lambda p: f"{p[0]}*t^{p[1]} + 1"),
        RATIONALS.map(str),
        st.dictionaries(st.integers(-3, 3), RATIONALS, min_size=1, max_size=3).map(
            lambda values: ",".join(f"{t}={c}" for t, c in values.items())
        ),
    ),
)
def test_grammar_fuzz_keeps_the_exit_contract(flag, body):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(["analyze", "structure-maps", "--window=-1..1", flag + body])
    finally:
        sys.stdout, sys.stderr = old
    text = err.getvalue()
    assert code in (0, 2), (code, text)
    if any(int(d) > MAX_EXPONENT for d in re.findall(r"\^\s*[+-]?(\d+)", body)):
        assert code == 2, body
    if code == 0:
        assert text == ""
    else:
        assert re.fullmatch(r"trilie: [^\n]*\n", text), text


@settings(max_examples=25)
@given(
    check=st.sampled_from(("anticommutativity", "fundamental-identity", "module-axioms")),
    bracket=st.sampled_from(("omega", "fk")),
    k=st.integers(-3, 3),
    beta=st.sampled_from(("const:1", "const:1/2", "support:0=1,2=-1/3", "poly:1/2*t^2-1")),
    lo=st.integers(-4, 4),
    size=st.integers(1, 4),
    samples=st.integers(0, 5),
    mutation=st.sampled_from(sorted(ROW_MUTATIONS)),
)
def test_sweep_fuzz_keeps_the_exit_contract(check, bracket, k, beta, lo, size, samples, mutation):
    """The three basis sweeps on drawn options, windows of one to four
    indices in -4..4 and intact or mutated rows: exit 0, 1 or 2, never a
    traceback, and 1 only with a counterexample in the report."""
    window = f"--window={lo}..{min(lo + size - 1, 4)}"
    argv = ["verify", check, "--bracket", bracket, f"--k={k}", f"--beta={beta}", window, f"--samples={samples}"]
    out, err = io.StringIO(), io.StringIO()
    with mutated_rows(mutation), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "json"])
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert re.fullmatch(r"trilie: [^\n]*\n", err.getvalue()), err.getvalue()
        return
    assert err.getvalue() == ""
    failing = [rep for rep in json.loads(out.getvalue())["reports"] if rep["status"] == "fail"]
    assert (code == 1) == bool(failing)
    assert all(rep["counterexamples"] for rep in failing)


def test_weight_exponents_stop_at_the_cap(capsys):
    argv = ["analyze", "structure-maps", "--window=-1..1"]
    assert main([*argv, f"--beta=poly:t^{MAX_EXPONENT} + 1"]) == 0
    assert capsys.readouterr().err == ""
    assert main([*argv, f"--beta=poly:t^{MAX_EXPONENT + 1}"]) == 2
    assert capsys.readouterr().err == f"trilie: exponent above the cap of {MAX_EXPONENT} at column 3\n"


def test_unknown_check_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "does-not-exist"])
    assert exc.value.code == 2


def test_analyze_seed_element():
    code, out = run_cli(
        ["analyze", "ideal-closure", "--bracket", "omega", "--seed-element", "M[2]", "--window", "-4..4"]
    )
    assert code == 0
    assert "PASS" in out


def test_ideal_closure_honours_depth():
    reports = {}
    for depth in ("0", "8"):
        args = ["analyze", "ideal-closure", "--window=-6..6", "--depth", depth, "--format", "json"]
        code, out = run_cli(args)
        assert code == 0
        (reports[depth],) = json.loads(out)["reports"]
    assert reports["0"] != reports["8"]
    assert reports["8"]["status"] == "pass"
    # depth 0 cuts every closure at its seed: flagged, not failed
    assert reports["0"]["status"] == "flagged"
    assert reports["0"]["counterexamples"] == []
    assert reports["0"]["stats"]["reached_dimensions"] == "1"
    assert "closure of L[-6] reaches dimension 1 < 26 within depth 0" in reports["0"]["notes"]


def test_analyze_bad_seed_element():
    code, _ = run_cli(
        ["analyze", "ideal-closure", "--bracket", "omega", "--seed-element", "L[1", "--window", "-3..3"]
    )
    assert code == 2


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"window": "-2..2", "bracket": "fk", "k": 0}))
    code, out = run_cli(["verify", "anticommutativity", "--config", str(cfg), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["params"]["bracket"] == "fk(k=0, beta=const:1)"
    # flags override the file
    code, out = run_cli(
        ["verify", "anticommutativity", "--config", str(cfg), "--bracket", "omega", "--format", "json"]
    )
    doc = json.loads(out)
    assert doc["reports"][0]["params"]["bracket"] == "omega"


def test_table_names():
    code, out = run_cli(["table", "wxy", "--window", "-2..2"])
    assert code == 0
    with pytest.raises(SystemExit):
        run_cli(["table", "nope"])


def test_every_registered_check_runs_small():
    for name in CHECKS:
        code, out = run_cli(
            ["verify", name, "--window", "-2..2", "--samples", "2", "--k", "0",
             "--format", "json"]
        )
        assert code == 0, f"{name} exited {code}:\n{out}"
        doc = json.loads(out)  # every check must serialize cleanly
        assert doc["status"] in ("pass", "flagged")


def test_identical_runs_are_byte_identical():
    args = ["analyze", "vandermonde", "--window", "-4..4", "--samples", "15", "--seed", "11", "--format", "json"]
    assert run_cli(args) == run_cli(args)


def test_vandermonde_params_match_stats(monkeypatch):
    code, out = run_cli(["analyze", "vandermonde", "--samples", "0", "--window", "-2..2", "--format", "json"])
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["params"]["trials"] == rep["stats"]["trials"] == 1

    # the aggregate keeps at most 8 counterexamples, however many trials fail
    def failing_extract(*args):
        rep = VerdictReport("vandermonde-extract", {})
        for i in range(5):
            rep.record_failure(f"failure {i}")
        return None, rep

    monkeypatch.setattr(cli, "vandermonde_extract", failing_extract)
    code, out = run_cli(["analyze", "vandermonde", "--samples", "3", "--window", "-2..2", "--format", "json"])
    assert code == 1
    (rep,) = json.loads(out)["reports"]
    assert rep["status"] == "fail"
    assert rep["counterexamples"] == [f"failure {i}" for i in (0, 1, 2, 3, 4, 0, 1, 2)]


def test_the_cli_imports_neither_numpy_nor_sympy():
    # both are installed for tests only; the runtime is the standard library
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, trilie.cli; print(sorted({'numpy', 'sympy'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("bracket", cli.CHOICES["bracket"])
def test_every_bracket_choice_has_a_kernel(bracket):
    args = cli.build_parser().parse_args(["verify", "anticommutativity", "--bracket", bracket])
    spec = cli.make_config(args).tri_spec()
    assert closed_triple_fn(spec)(("L", 1), ("L", 2), ("M", 0)) is not None


def test_every_public_name_resolves():
    import trilie

    assert [name for name in trilie.__all__ if not hasattr(trilie, name)] == []


# -- a report that cannot be written ------------------------------------------


def _cli_process(args, **kwargs):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen(
        [sys.executable, "-m", "trilie.cli", *args], stderr=subprocess.PIPE, env=env, **kwargs
    )


def test_a_pipe_closed_before_the_report_keeps_the_verdict_status():
    proc = _cli_process(["report"], stdout=subprocess.PIPE)
    proc.stdout.close()  # no reader is left when the report is written
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_a_pipe_closed_after_the_first_bytes_keeps_the_verdict_status():
    proc = _cli_process(["report"], stdout=subprocess.PIPE)
    try:
        import fcntl

        # a one-page pipe holds less than the report, so the close below
        # interrupts its writing
        fcntl.fcntl(proc.stdout.fileno(), fcntl.F_SETPIPE_SZ, 4096)
    except (ImportError, AttributeError, OSError):
        pass
    first = os.read(proc.stdout.fileno(), 16)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0
    assert first.startswith(b"[")
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device here")
def test_a_full_device_exits_2_with_one_line():
    with open("/dev/full", "w") as full:
        proc = _cli_process(["report"], stdout=full)
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert err == "trilie: cannot write the report: [Errno 28] No space left on device\n"
