import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

from uimlab import analysis, cli
from uimlab.construct import sporadic_function, sporadic_partial_function, sporadic_spec
from uimlab.ftable import FunctionTable, load_table, save_table
from uimlab.construct import save_spec, spec_to_json_obj


AND3 = FunctionTable(2, 2, 3, (0, 0, 0, 0, 0, 0, 1, 1))


@pytest.fixture
def and3_file(tmp_path):
    path = tmp_path / "and3.json"
    save_table(AND3, path)
    return str(path)


def test_ofo_word(capsys):
    assert cli.main(["ofo", "balloon"]) == 0
    assert capsys.readouterr().out.strip() == "balon"


def test_ofo_tuple_form(capsys):
    assert cli.main(["ofo", "(1,1,2)"]) == 0
    assert capsys.readouterr().out.strip() == "(1,2)"


def test_ofo_empty_tuple(capsys):
    assert cli.main(["ofo", "()"]) == 0
    assert capsys.readouterr().out == "()\n"


def test_ofo_rejects_symbol_zero(capsys):
    assert cli.main(["ofo", "(0,1)"]) == 2
    assert "symbols are 1-based" in capsys.readouterr().err


def test_minors_rejects_position_zero(and3_file, capsys):
    assert cli.main(["minors", and3_file, "--pair", "0,2"]) == 2
    assert "positions are 1-based" in capsys.readouterr().err


def test_minors_all_pairs(and3_file, capsys):
    assert cli.main(["minors", and3_file]) == 0
    out = capsys.readouterr().out
    assert out.count("minor for pair") == 3
    assert "{1,2}" in out


def test_minors_single_pair_json(and3_file, capsys):
    assert cli.main(["minors", and3_file, "--pair", "1,3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {
            "pair": [0, 2],
            "minor": {
                "arity": 2,
                "codomain_size": 2,
                "domain_size": 2,
                "values": [0, 0, 0, 1],
            },
        }
    ]


def test_check_exit_codes(tmp_path, and3_file, capsys):
    good = tmp_path / "maj.json"
    save_table(FunctionTable(2, 2, 3, (0, 0, 0, 1, 0, 1, 1, 1)), good)
    assert cli.main(["check", str(good)]) == 0
    assert "yes" in capsys.readouterr().out
    assert cli.main(["check", and3_file]) == 1
    assert "no" in capsys.readouterr().out


def test_check_json(and3_file, capsys):
    assert cli.main(["check", and3_file, "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"has_uim": False}


def test_classify_human_and_json(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_table(sporadic_function(3), path)
    assert cli.main(["classify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "category:               OTHER" in out
    assert cli.main(["classify", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["category"] == "OTHER"
    assert data["inv_group_order"] == 1


# classify --json output, byte for byte, for a table without a restriction
# record (arity above the alphabet) and one with it.
CLASSIFY_JSON = [
    (
        sporadic_function(3),
        '{"category":"OTHER","equiv_ofo_determined":false,"has_uim":true,'
        '"inv_group_order":1,"ofo_determined":false,"supp_determined":false,'
        '"totally_symmetric":false,"two_set_transitive":false,'
        '"two_set_transitive_degenerate":false}\n',
    ),
    (
        FunctionTable.from_callable(3, 2, 3, lambda t: int(t[0] == 1)),
        '{"category":"OFO-EQ","equiv_ofo_determined":true,"has_uim":true,'
        '"inv_group_order":2,"ofo_determined":true,"restriction":'
        '{"equiv_ofo_determined":true,"inv_group_order":2,"ofo_determined":true,'
        '"two_set_transitive":false,"two_set_transitive_degenerate":false},'
        '"supp_determined":false,"totally_symmetric":false,'
        '"two_set_transitive":false,"two_set_transitive_degenerate":false}\n',
    ),
]


@pytest.mark.parametrize("table, expected", CLASSIFY_JSON, ids=["k3n4", "k3n3"])
def test_classify_json_is_pinned(tmp_path, capsys, table, expected):
    path = tmp_path / "f.json"
    save_table(table, path)
    assert cli.main(["classify", str(path), "--json"]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("minors",
         '{"domain_size":2,"codomain_size":2,"arity":2,"values":[true,false,false,true]}',
         "values[0] is not an integer or null"),
        ("classify",
         '{"domain_size":true,"codomain_size":2,"arity":2,"values":[0]}',
         "missing or non-integer field 'domain_size'"),
    ],
    ids=["bool-values", "bool-domain-size"],
)
def test_table_file_with_a_json_bool_is_rejected(tmp_path, capsys, command, text, message):
    path = tmp_path / "t.json"
    path.write_text(text)
    assert cli.main([command, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_classify_rejects_partial(tmp_path, capsys):
    path = tmp_path / "p.json"
    save_table(sporadic_partial_function(3, 2), path)
    assert cli.main(["classify", str(path)]) == 2
    assert "classify expects a total table" in capsys.readouterr().err


def test_construct_prop4_roundtrip(tmp_path):
    out = tmp_path / "f.json"
    assert cli.main([
        "construct", "prop4", "--k", "3", "--alpha", "1", "--beta", "0",
        "-o", str(out),
    ]) == 0
    table = load_table(out)
    assert table == sporadic_function(3)
    # writing the loaded table again reproduces the file byte for byte
    first = out.read_bytes()
    save_table(table, out)
    assert out.read_bytes() == first
    assert cli.main(["check", str(out)]) == 0


def test_construct_prop4_partial(tmp_path):
    out = tmp_path / "p.json"
    assert cli.main([
        "construct", "prop4", "--k", "4", "--m", "2", "-o", str(out),
    ]) == 0
    assert b"null" in out.read_bytes()
    assert load_table(out) == sporadic_partial_function(4, 2)
    assert cli.main(["check", str(out)]) == 0


def test_construct_gpphi_matches_prop4(tmp_path):
    spec_path = tmp_path / "spec.json"
    save_spec(sporadic_spec(3), spec_path)
    via_spec = tmp_path / "a.json"
    direct = tmp_path / "b.json"
    assert cli.main(["construct", "gpphi", "--spec", str(spec_path),
                     "-o", str(via_spec)]) == 0
    assert cli.main(["construct", "prop4", "--k", "3", "-o", str(direct)]) == 0
    assert via_spec.read_bytes() == direct.read_bytes()


def test_construct_gpphi_rejects_bad_spec(tmp_path, capsys):
    obj = spec_to_json_obj(sporadic_spec(2))
    obj["base_arity"] = 3  # shape no longer matches the minor tables
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(obj))
    assert cli.main(["construct", "gpphi", "--spec", str(spec_path),
                     "-o", str(tmp_path / "out.json")]) == 2
    assert "error" in capsys.readouterr().err


def _set(path, value):
    """A change to a spec object: the field at ``path`` becomes ``value``."""
    def change(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value
    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (_set(["codomain_size"], True), "gluing spec: missing or non-integer field 'codomain_size'"),
        (_set(["domain_size"], True), "gluing spec: missing or non-integer field 'domain_size'"),
        (_set(["base_arity"], True), "gluing spec: missing or non-integer field 'base_arity'"),
        (_set(["base", "max_size"], True), "supp table: missing or non-integer field 'max_size'"),
        (_set(["base", "codomain_size"], True),
         "supp table: missing or non-integer field 'codomain_size'"),
        (_set(["base", "entries", "0,1"], False), "supp table: entry '0,1' is not an integer"),
        (_set(["minors", "0,1", 1], True), "value True is a bool, not an integer"),
        (_set(["twists", "1,2", 0], True), "gluing spec: twist '1,2' is not a list of integers"),
    ],
    ids=["codomain-size", "domain-size", "base-arity", "base-max-size",
         "base-codomain-size", "base-entry", "minor-value", "twist-image"],
)
def test_construct_gpphi_rejects_a_json_bool(tmp_path, capsys, change, message):
    # each bool equals the integer it replaces, so only its type is wrong
    obj = spec_to_json_obj(sporadic_spec(2))
    change(obj)
    spec_path = tmp_path / "bool.json"
    spec_path.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    assert cli.main(["construct", "gpphi", "--spec", str(spec_path), "-o", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_construct_gpphi_reports_violations(tmp_path, capsys):
    obj = spec_to_json_obj(sporadic_spec(2))
    obj["minors"]["0,1"][0] = 1  # breaks agreement with the base at (1,1)
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(obj))
    assert cli.main(["construct", "gpphi", "--spec", str(spec_path),
                     "-o", str(tmp_path / "out.json")]) == 2
    assert "disagrees with the base" in capsys.readouterr().err


def test_malformed_table_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_readme_suite_table_matches_the_suites():
    # each row is | `name` | `param=value`, ... | what it replays |
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` \| (.*?) \|", readme, re.MULTILINE)
    documented = {name: {key: int(value) for key, value in re.findall(r"`(\w+)=(\d+)`", cell)}
                  for name, cell in rows}
    assert sorted(documented) == analysis.suite_names() and len(rows) == len(documented)
    for name, defaults in documented.items():
        params = inspect.signature(analysis._SUITES[name]).parameters.values()
        assert defaults == {p.name: p.default for p in params}, name


def test_verify_pass(capsys):
    assert cli.main(["verify", "--suite", "lemma-hatsigma", "--n", "4"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_json(capsys):
    assert cli.main(["verify", "--suite", "lemma-ofodeltaI", "--k", "2",
                     "--n", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert data["params"] == {"k": 2, "n": 3}


def test_verify_failure_exit(monkeypatch, capsys):
    def fake(name, **params):
        return analysis.SuiteReport(name, params, 1, False, "synthetic", 0.0)

    monkeypatch.setattr(analysis, "verify_suite", fake)
    assert cli.main(["verify", "--suite", "uim-2st"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_bad_params_exit(capsys):
    assert cli.main(["verify", "--suite", "prop-suppord", "--k", "3",
                     "--n", "4"]) == 2


def test_verify_rejects_a_flag_the_suite_does_not_take(capsys):
    assert cli.main(["verify", "--suite", "lemma-hatsigma", "--k", "3"]) == 2
    assert "takes no parameter k; it accepts n" in capsys.readouterr().err


def test_every_suite_parameter_is_one_integer_flag():
    params = set()
    for name in analysis.suite_names():
        for p in inspect.signature(analysis._SUITES[name]).parameters.values():
            assert type(p.default) is int, (name, p.name)
            params.add(p.name)
    args = cli.build_parser().parse_args(["verify", "--suite", "uim-2st"])
    assert set(vars(args)) - {"command", "suite", "json", "fn"} == params


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "prop-ofominor", "--k", "4"],
        ["--suite", "lemma-hatsigma", "--n", "10"],
        ["--suite", "lemma-ofodeltaI", "--k", "10", "--n", "10"],
        ["--suite", "ofo-identities", "--k", "5", "--triple-total", "10"],
        ["--suite", "lemma-hatsigma", "--n", "20000"],
        ["--suite", "lemma-ofodeltaI", "--k", "3000", "--n", "3000"],
        ["--suite", "prop-ofominor", "--k", "20000", "--n", "20000"],
        ["--suite", "ofo-identities", "--max-len", "40"],
        # unit terms at k = 1: the range is refused without being summed
        ["--suite", "ofo-identities", "--k", "1", "--max-len", str(10**12)],
        # 6,310,983 checks at the default k = 3
        ["--suite", "ofo-identities", "--triple-total", "10"],
        ["--suite", "renaming-invariance", "--k", "2", "--b", "8", "--n", "3"],
        # one table, but 12! - 1 symbol renamings
        ["--suite", "renaming-invariance", "--k", "12", "--b", "1", "--n", "2"],
    ],
    ids=["prop-ofominor", "lemma-hatsigma", "lemma-ofodeltaI", "ofo-identities",
         "lemma-hatsigma-n20000", "lemma-ofodeltaI-k3000-n3000",
         "prop-ofominor-k20000-n20000", "ofo-identities-max-len40",
         "ofo-identities-k1-max-len1e12",
         "ofo-identities-triple-total10", "renaming-invariance-b8",
         "renaming-invariance-k12"],
)
def test_verify_rejects_work_beyond_the_suite_guard(argv, capsys):
    started = time.perf_counter()
    assert cli.main(["verify", *argv]) == 2
    assert time.perf_counter() - started < 1
    assert "suite guard" in capsys.readouterr().err


# Parameters whose range of cases is empty: the run says so, and builds no
# classifier for a case outside the range.
EMPTY_RANGES = [
    ["--suite", "prop-ofominor", "--n", "1"],
    ["--suite", "uim-2st", "--n", "1"],
    ["--suite", "prop-42", "--k", "0"],
    ["--suite", "prop-52", "--m", "0"],
    ["--suite", "prop-52", "--k", "1"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "lemma-hatsigma", "--n", "1"],
        ["--suite", "lemma-ofodeltaI", "--k", "0"],
        ["--suite", "prop-ofominor", "--b", "0"],
        ["--suite", "uim-2st", "--b", "0"],
        ["--suite", "prop-suppord", "--b", "0"],
        ["--suite", "renaming-invariance", "--b", "0"],
        ["--suite", "ofo-identities", "--k", "0"],
        ["--suite", "ofo-identities", "--k", "-1"],
        ["--suite", "ofo-identities", "--max-len", "-2"],
        ["--suite", "ofo-identities", "--triple-total", "-1"],
        *EMPTY_RANGES,
    ],
    ids=["lemma-hatsigma", "lemma-ofodeltaI", "prop-ofominor", "uim-2st",
         "prop-suppord", "renaming-invariance", "ofo-identities-k0",
         "ofo-identities-k-1", "ofo-identities-max-len-2",
         "ofo-identities-triple-total-1", "prop-ofominor-n1", "uim-2st-n1",
         "prop-42-k0", "prop-52-m0", "prop-52-k1"],
)
def test_verify_rejects_a_run_that_checks_nothing(argv, capsys):
    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("error: ")
    if argv in EMPTY_RANGES:
        assert captured.err == f"error: suite {argv[1]!r} made no checks with these parameters\n"


def test_search_human_output(capsys):
    assert cli.main(["search", "--k", "2", "--b", "2", "--n", "3",
                     "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "classified 256 of 256 tables" in out
    assert "fingerprint:" in out


def test_search_json_and_report_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert cli.main(["search", "--k", "2", "--b", "2", "--n", "3",
                     "--exhaustive", "--json", "--report", str(report_path)]) == 0
    stdout_obj = json.loads(capsys.readouterr().out)
    file_obj = json.loads(report_path.read_text())
    assert stdout_obj["counts"] == file_obj["counts"]
    assert stdout_obj["fingerprint"] == file_obj["fingerprint"]
    assert sum(stdout_obj["counts"].values()) == 256


def test_search_sampled_cli(capsys):
    assert cli.main(["search", "--k", "2", "--b", "2", "--n", "4",
                     "--samples", "10", "--seed", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classified"] == 10
    assert data["parameters"]["seed"] == 1


def test_search_guard_exit(capsys):
    assert cli.main(["search", "--k", "2", "--b", "2", "--n", "5",
                     "--exhaustive"]) == 2
    assert "guard" in capsys.readouterr().err


def test_search_remap_guard_exit(capsys):
    # 9! * 2**9 = 185794560 permutation remap entries: rejected before building
    assert cli.main(["search", "--k", "2", "--b", "2", "--n", "9",
                     "--samples", "1"]) == 2
    assert "185794560" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, params",
    [
        (["--suite", "prop-52", "--k", "4", "--m", "3"], {"k": 4, "m": 3}),
        (["--suite", "uim-2st", "--n", "3"], {"n": 3}),
        (["--suite", "ofo-identities", "--k", "2"], {"k": 2}),
        (["--suite", "renaming-invariance", "--k", "3", "--b", "2", "--n", "2"],
         {"k": 3, "b": 2, "n": 2}),
    ],
)
def test_suite_params_from_flags(argv, params):
    args = cli.build_parser().parse_args(["verify", *argv])
    assert cli._suite_params(args) == params


def test_search_requires_a_mode():
    with pytest.raises(SystemExit) as exc:
        cli.main(["search", "--k", "2", "--b", "2", "--n", "3"])
    assert exc.value.code == 2


def test_search_threads_flag(capsys):
    fingerprints = []
    for threads in ("1", "2"):
        assert cli.main(["search", "--k", "2", "--b", "3", "--n", "3",
                         "--exhaustive", "--json", "--threads", threads]) == 0
        fingerprints.append(json.loads(capsys.readouterr().out)["fingerprint"])
    assert fingerprints == [
        "aac14372d5b49118db67eabc2edc0e165a70e13cc9ee862434f2e32acbd9c6d5"
    ] * 2
    assert cli.main(["search", "--k", "2", "--b", "3", "--n", "3",
                     "--exhaustive", "--threads", "0"]) == 2


@pytest.mark.parametrize("mode", [["--samples", "3"], ["--exhaustive"]],
                         ids=["sampled", "exhaustive"])
def test_search_rejects_an_empty_codomain(mode, capsys):
    assert cli.main(["search", "--k", "2", "--b", "0", "--n", "3", *mode]) == 2
    assert "codomain size must be >= 1" in capsys.readouterr().err


def test_verify_whole_space_guard_exit(capsys):
    assert cli.main(["verify", "--suite", "prop-suppord", "--n", "5"]) == 2
    assert f"space of 2**32 tables exceeds the exhaustive guard {2**24}" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--suite", "uim-2st", "--n", "14"],
         f"space of 2**16384 tables exceeds the exhaustive guard {2**24}"),
        (["verify", "--suite", "renaming-invariance", "--n", "14"],
         f"space of 3**16384 tables exceeds the exhaustive guard {2**24}"),
        (["search", "--k", "2", "--b", "2", "--n", "14", "--exhaustive"],
         f"space of 2**16384 tables exceeds the exhaustive guard {2**24}"),
        (["search", "--k", "5", "--b", "2", "--n", "6", "--samples", "2"],
         f"space of 2**15625 tables exceeds the "
         f"{sys.get_int_max_str_digits()}-digit limit"),
        # an exponent too long to print is named as a power, not in digits
        (["search", "--k", "2", "--b", "2", "--n", "20000", "--exhaustive"],
         f"space of 2**(2**20000) tables exceeds the exhaustive guard {2**24}"),
        (["verify", "--suite", "uim-2st", "--n", "20000"],
         f"space of 2**(2**20000) tables exceeds the exhaustive guard {2**24}"),
    ],
    ids=["uim-2st", "renaming-invariance", "exhaustive", "sampled",
         "exhaustive-n20000", "uim-2st-n20000"],
)
def test_an_out_of_reach_space_exits_2_naming_it(argv, message, capsys):
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        # 7**8 entries: refused before the spec's minor tables are built
        (["construct", "prop4", "--k", "7", "-o", "unused.json"],
         f"a table of 7**8 entries exceeds the table size guard {2**20}"),
        # 7! * 6**7 remap entries: refused before the table is built
        (["verify", "--suite", "prop-42", "--k", "6"],
         f"1410877440 permutation remap entries (n! * k**n) exceed guard {2**24}"),
        # one-entry tables: n! is named, not formed
        (["search", "--k", "1", "--b", "2", "--n", "2000", "--samples", "1"],
         f"2000! * 1**2000 permutation remap entries (n! * k**n) exceed guard {2**24}"),
    ],
    ids=["construct-prop4-k7", "prop-42-k6", "search-k1-n2000"],
)
def test_a_table_out_of_reach_exits_2_at_once(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    started = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - started < 1
    assert message in capsys.readouterr().err


def test_check_refuses_a_table_beyond_the_table_size_guard(tmp_path, capsys):
    path = tmp_path / "n20000.json"
    path.write_text(json.dumps(
        {"domain_size": 2, "codomain_size": 2, "arity": 20000, "values": [0]}
    ))
    assert cli.main(["check", str(path)]) == 2
    assert f"a table of 2**20000 entries exceeds the table size guard {2**20}" in (
        capsys.readouterr().err
    )


def test_check_refuses_a_shape_beyond_the_remap_guard(tmp_path, capsys):
    # check decides through the shape's classifier: 9! * 2**9 remap entries
    path = tmp_path / "n9.json"
    save_table(FunctionTable(2, 2, 9, (0,) * 2**9), path)
    assert cli.main(["check", str(path)]) == 2
    assert "185794560 permutation remap entries" in capsys.readouterr().err


def test_entry_point_declared_in_pyproject(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["uimlab"]
    module, _, attr = target.partition(":")
    main = getattr(import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["uimlab", "ofo", "kayak"])
    assert main() == 0
    assert capsys.readouterr().out.strip() == "kay"


@pytest.mark.skipif(shutil.which("uimlab") is None, reason="script not installed")
def test_console_script():
    proc = subprocess.run(["uimlab", "ofo", "kayak"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "kay"


def test_python_dash_m():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "uimlab", "ofo", "kayak"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "kay"
