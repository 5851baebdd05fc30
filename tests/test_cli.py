"""Command-line interface: exit codes, outputs, reproducibility."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from colexjump.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_code_build_prints_parameters(capsys):
    code, out, _ = run(["code", "build", "--builtin", "tetra15", "--kind", "3d"], capsys)
    assert code == 0
    assert "n=15 k=1 d=3" in out


def test_code_build_inner(capsys):
    code, out, _ = run(
        ["code", "build", "--builtin", "tetra15", "--kind", "inner", "--facet", "rgb"],
        capsys,
    )
    assert code == 0
    assert "n=8 k=0" in out


def test_colex_validate_and_hash(capsys):
    code, out, _ = run(["colex", "validate", "--builtin", "tri7"], capsys)
    assert code == 0 and "valid" in out
    code, h1, _ = run(["colex", "hash", "--builtin", "tri7"], capsys)
    code, h2, _ = run(["colex", "hash", "--builtin", "tri7"], capsys)
    assert h1 == h2 and len(h1.strip()) == 64


def test_jump_roundtrip_noiseless(capsys):
    code, out, _ = run(
        [
            "jump", "roundtrip", "--builtin", "tetra15", "--facet", "rgb",
            "--p", "0", "--q", "0", "--trials", "4", "--seed", "3",
        ],
        capsys,
    )
    assert code == 0
    assert "0 logical failures" in out
    assert "seed 3" in out


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["code", "build", "--builtin", "tetra15"])  # missing --kind
    assert exc.value.code == 2


def test_domain_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["colex", "validate", "--colex", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_schedule_make_and_verify(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0 1 2 0 3 1\n")
    sched_path = tmp_path / "sched.jsonl"
    code, out, _ = run(
        ["schedule", "make", "--stack", "6", "--sequence", str(seq), "--output", str(sched_path)],
        capsys,
    )
    assert code == 0
    assert '"swaps": []' in sched_path.read_text()  # an empty round reads back
    code, out, _ = run(["schedule", "verify", "--schedule", str(sched_path)], capsys)
    assert code == 0 and "OK" in out
    # tamper: drop one swap record's contents
    lines = sched_path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        rec = json.loads(line)
        if rec["swaps"]:
            rec["swaps"] = rec["swaps"][1:]
            lines[i] = json.dumps(rec, sort_keys=True)
            break
    sched_path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(["schedule", "verify", "--schedule", str(sched_path)], capsys)
    assert code == 1 and "VIOLATION" in out


def _made_schedule(tmp_path, capsys):
    """Lines of a `schedule make` file for an 8-step sequence, and its path."""
    seq = tmp_path / "seq.txt"
    seq.write_text("0 1 2 0 3 1 2 0\n")
    path = tmp_path / "sched.jsonl"
    code, _, _ = run(
        ["schedule", "make", "--stack", "6", "--sequence", str(seq), "--output", str(path)],
        capsys,
    )
    assert code == 0
    return path, path.read_text().splitlines()


def test_schedule_stack_missing_a_sequence_qubit_is_a_violation(tmp_path, capsys):
    path, lines = _made_schedule(tmp_path, capsys)
    head = json.loads(lines[0])
    head["meta"]["initial_order"][head["meta"]["initial_order"].index(3)] = 9
    path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
    code, out, _ = run(["schedule", "verify", "--schedule", str(path)], capsys)
    assert code == 1
    assert out == "VIOLATION: qubit 3 of the sequence is not on the stack\n"


def _renumber_last_step(lines):
    recs = [json.loads(line) for line in lines[1:]]
    for rec in recs:
        rec["step"] = 80 if rec["step"] == 8 else rec["step"]
    return lines[:1] + [json.dumps(rec) for rec in recs]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_renumber_last_step, "steps must run 1..8"),
        (
            lambda lines: lines[:3]
            + ['{"step": 2, "round": 1, "swaps": [[1, 2], [3, 4]]}']
            + lines[3:],
            "second record for step 2 round 1",
        ),
        (lambda lines: lines + ['{"step": 3, "round": 7, "swaps": []}'], "round 7 is not 1 or 2"),
        (lambda lines: lines[:-1], "steps must run 1..7"),
        (lambda lines: lines[1:], "the first line must be the meta record"),
        (lambda lines: [], "the first line must be the meta record"),
        (
            lambda lines: [lines[0].replace('"sequence"', '"seq"')] + lines[1:],
            "meta needs 'sequence' as list",
        ),
        (
            lambda lines: lines + ['{"step": 9, "swaps": []}'],
            "a record needs step, round and swaps",
        ),
        (
            lambda lines: lines + ['{"step": [9], "round": 1, "swaps": []}'],
            "step [9] is not an int",
        ),
        (
            lambda lines: lines + ['{"step": 9, "round": 1, "swaps": [3]}'],
            "swaps must be a list of position pairs",
        ),
        (lambda lines: lines[:-1] + [lines[-1][:-9]], "line 17: not JSON"),
        (lambda lines: lines[:3] + ["", ""] + [lines[3][:1]] + lines[4:], "line 6: not JSON"),
        (
            lambda lines: ["", ""] + lines + ['{"step": 3, "round": 7, "swaps": []}'],
            "line 20: round 7 is not 1 or 2",
        ),
    ],
    ids=["renumbered-step", "duplicate-record", "round-7", "missing-round", "no-meta",
         "empty-file", "meta-key", "record-key", "list-step", "bad-pair", "truncated",
         "not-json-after-blanks", "round-7-after-blanks"],
)
def test_malformed_schedule_file_is_a_usage_error(tmp_path, capsys, edit, message):
    path, lines = _made_schedule(tmp_path, capsys)
    path.write_text("".join(line + "\n" for line in edit(lines)))
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "verify", "--schedule", str(path)])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and message in out.err and "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["schedule", "make", "--sequence", "{seq}"],
        ["schedule", "make", "--stack", "4"],
        ["schedule", "verify"],
    ],
)
def test_schedule_missing_flag_is_a_usage_error(tmp_path, capsys, argv):
    seq = tmp_path / "seq.txt"
    seq.write_text("0 1 2 0\n")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(seq=seq) for arg in argv])
    out = capsys.readouterr()
    required = {"make": ["--stack", "--sequence"], "verify": ["--schedule"]}[argv[1]]
    missing = [flag for flag in required if flag not in argv]
    assert exc.value.code == 2 and out.out == ""
    assert f"the following arguments are required: {', '.join(missing)}" in out.err


@pytest.mark.parametrize(
    "argv, culprit",
    [
        (["colex", "info", "--colex", "{dir}"], "{dir}"),
        (["colex", "validate", "--colex", "{latin1}"], "{latin1}"),
        (["schedule", "make", "--stack", "4", "--sequence", "{dir}"], "{dir}"),
        (["schedule", "make", "--stack", "4", "--sequence", "{latin1}"], "{latin1}"),
        (["schedule", "make", "--stack", "4", "--sequence", "{seq}", "--output", "{dir}"], "{dir}"),
        (["schedule", "verify", "--schedule", "{dir}"], "{dir}"),
        (["schedule", "verify", "--schedule", "{latin1}"], "{latin1}"),
        (
            ["simulate", "collapse", "--builtin", "tetra15", "--trials", "2", "--trace",
             "--out-dir", "{seq}"],
            "{seq}",
        ),
    ],
    ids=["colex-dir", "colex-latin1", "sequence-dir", "sequence-latin1", "output-dir",
         "schedule-dir", "schedule-latin1", "out-dir-is-a-file"],
)
def test_unreadable_or_unwritable_path_is_a_domain_error(tmp_path, capsys, argv, culprit):
    """A path that is a directory, a file that is not UTF-8 text, or an
    output directory that is a file exits 1 with one `error:` line naming
    the path, no traceback and no output file."""
    paths = {"dir": tmp_path / "a-dir", "latin1": tmp_path / "latin1.txt", "seq": tmp_path / "seq.txt"}
    paths["dir"].mkdir()
    paths["latin1"].write_bytes(b"\xff\xfe 0 1\n")
    paths["seq"].write_text("0 1 2 0\n")
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(paths[culprit[1:-1]]) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("action, workers", [("collapse", 1), ("singleshot", 1), ("collapse", 2)])
def test_simulate_loads_the_lattice_once(tmp_path, capsys, monkeypatch, action, workers):
    """The main process parses the lattice once, whatever the worker count."""
    from colexjump import cli

    loads = []
    real = cli._load_colex
    monkeypatch.setattr(cli, "_load_colex", lambda args: loads.append(1) or real(args))
    code, _, _ = run(
        ["simulate", action, "--builtin", "tetra15", "--trials", "4", "--workers", str(workers),
         "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0 and len(loads) == 1


def test_simulate_bad_facet_fails_before_the_trace_opens(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "collapse", "--builtin", "tetra15", "--facet", "rgy", "--trace",
         "--trials", "3", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1 and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, want",
    [
        (["collapse", "--facet", "rg"], 1),
        (["singleshot", "--kind", "inner", "--facet", "rg"], 1),
        (["measure-k", "--facet", "rg"], 1),
        (["measure-k", "--pair", "ry"], 2),
        (["collapse", "--p", "1.5"], 1),
        (["collapse", "--trace", "--label", "x" * 300], 2),
        (["singleshot", "--label", "x" * 300], 2),
    ],
    ids=["collapse-facet", "singleshot-facet", "measure-k-facet", "measure-k-pair", "rate",
         "collapse-long-label", "singleshot-long-label"],
)
def test_simulate_failure_makes_no_out_dir(tmp_path, capsys, argv, want):
    """A run that fails a check neither creates `--out-dir` nor prints the
    seed."""
    out_dir = tmp_path / "fresh"
    try:
        trials = [] if argv[0] == "measure-k" else ["--trials", "2"]
        code = main(["simulate", argv[0], "--builtin", "tetra15", *argv[1:], *trials,
                     "--out-dir", str(out_dir)])
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert code == want
    assert out.out == "" and "Traceback" not in out.err
    assert not out_dir.exists()


def test_malformed_sequence_file_is_a_usage_error(tmp_path, capsys):
    seq = tmp_path / "seq.txt"
    seq.write_text("0 1 x\n")
    output = tmp_path / "schedule.jsonl"
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "make", "--stack", "3", "--sequence", str(seq), "--output", str(output)])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert f"{seq}: token 3 ('x') is not an integer" in out.err and "Traceback" not in out.err
    assert out.out == "" and not output.exists()


def test_simulate_outputs_reproducible(tmp_path, capsys):
    base = [
        "simulate", "collapse", "--builtin", "tetra15", "--p", "0.03", "--q", "0.03",
        "--trials", "60", "--seed", "9", "--trace",
    ]
    for label, sub in (("a", "one"), ("b", "two")):
        run(base + ["--label", label, "--out-dir", str(tmp_path / sub)], capsys)
    for suffix in (".csv", ".json", ".trace.jsonl"):
        one = (tmp_path / "one" / ("a" + suffix)).read_bytes()
        two = (tmp_path / "two" / ("b" + suffix)).read_bytes()
        if suffix == ".json":
            # config echo embeds the label; compare results payloads instead
            ja = json.loads(one)
            jb = json.loads(two)
            assert ja["results"] == jb["results"]
            assert ja["seed"] == jb["seed"]
            assert ja["colex_hash"] == jb["colex_hash"]
        else:
            assert one == two


def test_simulate_json_embeds_metadata(tmp_path, capsys):
    run(
        [
            "simulate", "collapse", "--builtin", "tetra15", "--p", "0", "--q", "0",
            "--trials", "10", "--seed", "4", "--label", "meta", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    payload = json.loads((tmp_path / "meta.json").read_text())
    assert payload["tool"] == "colexjump"
    assert payload["version"]
    assert payload["seed"] == 4
    assert "colex_hash" in payload
    assert payload["config"]["trials"] == 10


def test_simulate_exhaustive_weight1(tmp_path, capsys):
    code, out, _ = run(
        [
            "simulate", "exhaustive-weight1", "--builtin", "tetra15",
            "--label", "w1", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "0 failures" in out


def test_simulate_measure_k(tmp_path, capsys):
    code, out, _ = run(
        [
            "simulate", "measure-k", "--builtin", "tetra15", "--pair", "rg",
            "--cap", "4", "--label", "k", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "k.json").read_text())
    assert payload["results"]["K_hat"]["rg"] == 1.0


def test_simulate_measure_k_pair_in_either_order(tmp_path, capsys):
    code, _, _ = run(
        ["simulate", "measure-k", "--builtin", "tetra15", "--pair", "gr",
         "--label", "k", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "k.json").read_text())
    assert payload["results"] == {"K_hat": {"rg": 1.0}, "cap": 4}


@pytest.mark.parametrize("pair", ["ry", "r", "rr", "rz", ""])
def test_simulate_measure_k_pair_outside_the_facet_is_a_usage_error(tmp_path, capsys, pair):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "measure-k", "--builtin", "tetra15", "--pair", pair,
              "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "use one of rg, rb, gb" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_simulate_bad_rate_writes_no_trace(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "collapse", "--builtin", "tetra15", "--p", "1.5", "--trace",
         "--trials", "3", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1 and "probabilities must lie in [0, 1]" in err
    assert list(tmp_path.iterdir()) == []


def test_jump_collapse_and_blowup_actions(capsys):
    for action in ("collapse", "blowup"):
        code, out, _ = run(
            [
                "jump", action, "--builtin", "tetra15", "--facet", "rgb",
                "--p", "0", "--q", "0", "--trials", "2", "--seed", "1",
            ],
            capsys,
        )
        assert code == 0
        assert "0 logical failures" in out


def test_simulate_workers_merge_identically(tmp_path, capsys):
    base = [
        "simulate", "collapse", "--builtin", "tetra15", "--p", "0.05", "--q", "0.05",
        "--trials", "80", "--seed", "13",
    ]
    run(base + ["--workers", "1", "--label", "w1", "--out-dir", str(tmp_path)], capsys)
    run(base + ["--workers", "3", "--label", "w3", "--out-dir", str(tmp_path)], capsys)
    one = json.loads((tmp_path / "w1.json").read_text())
    three = json.loads((tmp_path / "w3.json").read_text())
    assert one["results"] == three["results"]
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


@pytest.mark.parametrize("kind", ["inner", "3d"])
def test_simulate_singleshot_workers_merge_identically(tmp_path, capsys, kind):
    base = [
        "simulate", "singleshot", "--builtin", "tetra15", "--kind", kind,
        "--p", "0.05", "--q", "0.05", "--trials", "40", "--seed", "13",
    ]
    for workers in ("1", "3"):
        label = "w" + workers
        run(base + ["--workers", workers, "--label", label, "--out-dir", str(tmp_path)], capsys)
    for suffix in (".csv", ".json"):
        one = (tmp_path / ("w1" + suffix)).read_bytes()
        three = (tmp_path / ("w3" + suffix)).read_bytes()
        if suffix == ".json":
            one, three = json.loads(one)["results"], json.loads(three)["results"]
        assert one == three


def test_simulate_trace_identical_across_workers(tmp_path, capsys):
    base = [
        "simulate", "collapse", "--builtin", "tetra15", "--p", "0.05", "--q", "0.05",
        "--trials", "50", "--seed", "17", "--trace", "--out-dir", str(tmp_path),
    ]
    for workers in ("1", "2"):
        run(base + ["--workers", workers, "--label", "w" + workers], capsys)
    one = (tmp_path / "w1.trace.jsonl").read_bytes()
    assert one.count(b"\n") == 50
    assert (tmp_path / "w2.trace.jsonl").read_bytes() == one


@pytest.mark.parametrize("action", ["collapse", "singleshot"])
def test_simulate_workers_run_the_first_span_on_the_main_runner(
    tmp_path, capsys, monkeypatch, action
):
    """With `--workers 2` the runner the main process built runs the span
    from trial 0, and a pool process builds its own for the rest; outputs
    equal a one-worker run's."""
    from colexjump import cli

    spans, span_runner = [], cli._span_runner

    def recording(args, cx):  # a pool process records into its own copy
        runner = span_runner(args, cx)

        def run_span(first, count, trace_fh):
            spans.append((first, count))
            return runner(first, count, trace_fh)

        return run_span

    monkeypatch.setattr(cli, "_span_runner", recording)
    base = [
        "simulate", action, "--builtin", "tetra15", "--p", "0.05", "--q", "0.05",
        "--trials", "30", "--seed", "3", "--out-dir", str(tmp_path),
    ]
    for workers in ("1", "2"):
        assert run(base + ["--workers", workers, "--label", "w" + workers], capsys)[0] == 0
    assert spans == [(0, 30), (0, 15)]
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    one, two = (json.loads((tmp_path / f"w{w}.json").read_text()) for w in (1, 2))
    assert one["results"] == two["results"]


def test_simulate_zero_trials_with_workers(tmp_path, capsys):
    code, out, _ = run(
        [
            "simulate", "collapse", "--builtin", "tetra15", "--trials", "0",
            "--workers", "2", "--label", "none", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0 and "0 trials" in out


def test_simulate_singleshot_inner(tmp_path, capsys):
    code, out, _ = run(
        [
            "simulate", "singleshot", "--builtin", "tetra15", "--kind", "inner",
            "--p", "0", "--q", "0", "--trials", "20", "--seed", "2",
            "--label", "ss", "--out-dir", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "0 failures" in out


_T15 = ["--builtin", "tetra15"]
_SIM_OUT = ["--label", "x", "--out-dir", "out"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["colex", "validate", "--builtin", "tri7", "--save", "F"], "--save",
                     id="colex-validate---save"),
        pytest.param(["colex", "hash", "--builtin", "tri7", "--save", "F"], "--save",
                     id="colex-hash---save"),
        pytest.param(["colex", "hash", "--builtin", "tri7", "--colex", "{colex}"], "--colex",
                     id="two-lattice-sources"),
        pytest.param(["code", "build", "--builtin", "tri7", "--kind", "2d", "--facet", "rgb"],
                     "--facet", id="code-2d---facet"),
        pytest.param(["schedule", "verify", "--schedule", "{sched}", "--output", "F"], "--output",
                     id="schedule-verify---output"),
        pytest.param(["schedule", "verify", "--schedule", "{sched}", "--stack", "9"], "--stack",
                     id="schedule-verify---stack"),
        pytest.param(["schedule", "make", "--stack", "4", "--sequence", "{seq}", "--schedule", "X",
                      "--output", "F"], "--schedule", id="schedule-make---schedule"),
        pytest.param(["simulate", "measure-k", *_T15, "--p", "0.3", *_SIM_OUT], "--p",
                     id="measure-k---p"),
        pytest.param(["simulate", "measure-k", *_T15, "--trials", "2", *_SIM_OUT], "--trials",
                     id="measure-k---trials"),
        pytest.param(["simulate", "measure-k", *_T15, "--workers", "2", *_SIM_OUT], "--workers",
                     id="measure-k---workers"),
        pytest.param(["simulate", "measure-k", *_T15, "--seed", "3", *_SIM_OUT], "--seed",
                     id="measure-k---seed"),
        pytest.param(["simulate", "measure-k", *_T15, "--trace", *_SIM_OUT], "--trace",
                     id="measure-k---trace"),
        pytest.param(["simulate", "measure-k", *_T15, "--exhaustive-weight1", *_SIM_OUT],
                     "--exhaustive-weight1", id="measure-k---exhaustive-weight1"),
        pytest.param(["simulate", "collapse", *_T15, "--trials", "2", "--cap", "3", *_SIM_OUT],
                     "--cap", id="collapse---cap"),
        pytest.param(["simulate", "collapse", *_T15, "--trials", "2", "--pair", "rg", *_SIM_OUT],
                     "--pair", id="collapse---pair"),
        pytest.param(["simulate", "collapse", *_T15, "--trials", "2", "--kind", "inner",
                      *_SIM_OUT], "--kind", id="collapse---kind"),
        pytest.param(["simulate", "collapse", *_T15, "--trials", "2", "--exhaustive-weight1",
                      *_SIM_OUT], "--exhaustive-weight1", id="collapse---exhaustive-weight1"),
        pytest.param(["simulate", "collapse", *_T15, "--trials", "2", "--work", "1", *_SIM_OUT],
                     "--work", id="collapse-abbreviated---work"),
        pytest.param(["simulate", "singleshot", *_T15, "--trials", "2", "--trace", *_SIM_OUT],
                     "--trace", id="singleshot---trace"),
        pytest.param(["simulate", "singleshot", *_T15, "--trials", "2", "--exhaustive-weight1",
                      *_SIM_OUT], "--exhaustive-weight1", id="singleshot---exhaustive-weight1"),
        pytest.param(["simulate", "singleshot", *_T15, "--trials", "2", "--facet", "rg",
                      *_SIM_OUT], "--facet", id="singleshot-3d---facet"),
        pytest.param(["simulate", "exhaustive-weight1", *_T15, "--trace", *_SIM_OUT], "--trace",
                     id="exhaustive-weight1---trace"),
        pytest.param(["simulate", "exhaustive-weight1", *_T15, "--p", "0.1", *_SIM_OUT], "--p",
                     id="exhaustive-weight1---p"),
    ],
)
def test_simulate_flag_without_effect_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    """A flag the action would not read, a second lattice source or an
    abbreviated flag exits 2 and names the flag, before any work or output."""
    from colexjump.colex import save
    from colexjump.hexfamily import builtin_colex

    save(builtin_colex("tri7"), tmp_path / "tri7.json")
    (tmp_path / "seq.txt").write_text("0 1 2 0\n")
    assert main(["schedule", "make", "--stack", "4", "--sequence", str(tmp_path / "seq.txt"),
                 "--output", str(tmp_path / "sched.jsonl")]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLEXJUMP_OUTDIR", str(tmp_path / "env-out"))
    before = {path: path.read_bytes() for path in tmp_path.rglob("*")}
    files = {"colex": "tri7.json", "seq": "seq.txt", "sched": "sched.jsonl"}
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**files) for arg in argv])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert flag in out.err.splitlines()[-1]  # the error line, not the usage
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "argv, error",
    [
        (["colex", "hash", "--builtin", "tri7", "--save", "F"],
         "unrecognized arguments: --save F"),
        (["jump", "blowup", "--builtin", "tetra15", "--label", "r"],
         "unrecognized arguments: --label r"),
        (["schedule", "verify", "--schedule", "s.jsonl", "--stack", "3"],
         "unrecognized arguments: --stack 3"),
        (["simulate", "measure-k", "--builtin", "tetra15", "--pair", "ry"],
         "--pair 'ry' is not a color pair of the facet: use one of rg, rb, gb"),
        (["code", "build", "--builtin", "tetra15", "--kind", "2d", "--facet", "rgb"],
         "--facet applies only to --kind inner, not 2d"),
    ],
    ids=["colex-hash", "jump-blowup", "schedule-verify", "measure-k-pair", "code-build-facet"],
)
def test_usage_error_shows_the_action_usage(tmp_path, capsys, monkeypatch, argv, error):
    """A flag the action does not read (argparse's check) and a bad value
    found after parsing (`SystemExit2`) both print the action's own usage
    line and error prefix, and exit 2."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    prog = f"colexjump {argv[0]} {argv[1]}"
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"usage: {prog} [-h] ")
    assert out.err.splitlines()[-1] == f"{prog}: error: {error}"
    assert list(tmp_path.iterdir()) == []


# what each action's parser takes, as `colexjump <command> <action> -h` lists it
_SOURCE = ["--builtin", "--colex"]
_NOISE = ["--p", "--q", "--trials", "--seed"]
_ACTION_FLAGS = {
    ("colex", "validate"): _SOURCE,
    ("colex", "hash"): _SOURCE,
    ("colex", "info"): [*_SOURCE, "--save"],
    ("code", "build"): [*_SOURCE, "--kind", "--facet", "--no-distance", "--output"],
    ("jump", "collapse"): [*_SOURCE, "--facet", *_NOISE],
    ("jump", "blowup"): [*_SOURCE, "--facet", *_NOISE],
    ("jump", "roundtrip"): [*_SOURCE, "--facet", *_NOISE],
    ("simulate", "collapse"): [*_SOURCE, "--facet", *_NOISE, "--label", "--out-dir",
                               "--workers", "--trace"],
    ("simulate", "singleshot"): [*_SOURCE, "--kind", "--facet", *_NOISE, "--label",
                                 "--out-dir", "--workers"],
    ("simulate", "measure-k"): [*_SOURCE, "--facet", "--pair", "--cap", "--label", "--out-dir"],
    ("simulate", "exhaustive-weight1"): [*_SOURCE, "--facet", "--label", "--out-dir"],
    ("schedule", "make"): ["--stack", "--sequence", "--output"],
    ("schedule", "verify"): ["--schedule"],
}


def action_parsers():
    """(command, action) -> the argparse parser of that action, walked from
    `cli.build_parser()`."""
    import argparse

    from colexjump.cli import build_parser

    def children(parser):
        sub = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return sub[0].choices if sub else {}

    return {
        (command, action): leaf
        for command, parser in children(build_parser()).items()
        for action, leaf in children(parser).items()
    }


def test_each_action_takes_exactly_its_flags():
    parsers = action_parsers()
    flags = {
        key: [a.option_strings[0] for a in p._actions if a.option_strings and a.dest != "help"]
        for key, p in parsers.items()
    }
    assert flags == _ACTION_FLAGS
    assert sum(map(len, flags.values())) == 72
    assert not any(p.allow_abbrev for p in parsers.values())


_CONFIG_KEYS = {
    "collapse": {"action", "builtin", "command", "facet", "label", "out_dir", "p", "q", "seed",
                 "trace", "trials", "workers"},
    "singleshot": {"action", "builtin", "command", "kind", "label", "out_dir", "p", "q", "seed",
                   "trials", "workers"},
    "measure-k": {"action", "builtin", "cap", "command", "facet", "label", "out_dir"},
    "exhaustive-weight1": {"action", "builtin", "command", "facet", "label", "out_dir"},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "--trials", "3", "--trace"],
        ["singleshot", "--trials", "3"],
        ["singleshot", "--trials", "3", "--kind", "inner"],
        ["measure-k", "--pair", "rg"],
        ["exhaustive-weight1"],
    ],
    ids=["collapse", "singleshot-3d", "singleshot-inner", "measure-k", "exhaustive-weight1"],
)
def test_simulate_config_echoes_exactly_the_flags_read(tmp_path, capsys, argv):
    """The JSON config holds the action's parsed flags that are not None,
    plus command and action; an inner code's facet is echoed even when it
    is the default. Only runs that draw from a seed embed one."""
    from colexjump.cli import build_parser

    full = ["simulate", *argv, "--builtin", "tetra15", "--label", "c", "--out-dir", str(tmp_path)]
    code, out, _ = run(full, capsys)
    assert code == 0
    payload = json.loads((tmp_path / "c.json").read_text())
    parsed = {k: v for k, v in vars(build_parser().parse_args(full)).items()
              if k != "func" and v is not None}
    inner = "inner" in argv
    keys = _CONFIG_KEYS[argv[0]] | ({"pair"} if "--pair" in argv else set())
    assert payload["config"] == {**parsed, **({"facet": "rgb"} if inner else {})}
    assert payload["config"].keys() == keys | ({"facet"} if inner else set())
    seeded = argv[0] in ("collapse", "singleshot")
    assert ("seed" in payload) == seeded and out.startswith("seed 0\n") == seeded


@pytest.mark.parametrize("label", ["sub/r", ""], ids=["separator", "empty"])
@pytest.mark.parametrize("action", ["collapse", "measure-k"])
def test_label_must_be_a_file_stem(tmp_path, capsys, action, label):
    """A `--label` that is empty or holds a path separator exits 2 at parse
    time: no trial runs, no seed is printed and no `--out-dir` is made."""
    out_dir = tmp_path / "out1"
    trials = ["--trials", "7"] if action == "collapse" else []
    with pytest.raises(SystemExit) as exc:
        main(["simulate", action, "--builtin", "tetra15", *trials, "--label", label,
              "--out-dir", str(out_dir)])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --label: must be a file name stem" in out.err
    assert not out_dir.exists()


@pytest.mark.parametrize("p,q,seed", [(0.1, 0.1, 5), (0.15, 0.0, 7), (0.0, 0.2, 11)])
def test_jump_collapse_counts_monte_carlo_failures(ctx, capsys, p, q, seed):
    from colexjump.montecarlo import run_collapse_trials
    from colexjump.noise import NoiseSpec

    code, out, _ = run(
        [
            "jump", "collapse", "--builtin", "tetra15", "--p", str(p), "--q", str(q),
            "--trials", "40", "--seed", str(seed),
        ],
        capsys,
    )
    failures = run_collapse_trials(ctx, NoiseSpec(p, q, seed), 40).total_failures
    assert code == 0
    assert out.splitlines()[-1] == f"collapse: 40 trials, {failures} logical failures"


@pytest.mark.parametrize(
    "argv",
    [
        ["jump", "blowup", "--p", "1.5", "--trials", "2"],
        ["jump", "roundtrip", "--q", "-0.5"],
        ["jump", "collapse", "--p", "1.5"],
    ],
)
def test_jump_probability_out_of_range_fails(capsys, argv):
    """Every jump action range-checks --p and --q before any trial runs."""
    code, out, err = run(argv + ["--builtin", "tetra15"], capsys)
    assert code == 1
    assert "probabilities must lie in [0, 1]" in err
    assert "logical failures" not in out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["jump", "blowup", "--trials", "-3"], "--trials"),
        (["jump", "collapse", "--trials", "-1"], "--trials"),
        (["simulate", "collapse", "--trials", "-3"], "--trials"),
        (["simulate", "singleshot", "--trials", "-3"], "--trials"),
        (["simulate", "collapse", "--workers", "0"], "--workers"),
        (["simulate", "collapse", "--workers", "-2"], "--workers"),
        (["jump", "collapse", "--seed", "-1"], "--seed"),
        (["simulate", "collapse", "--seed", str(2**64)], "--seed"),
        (["simulate", "measure-k", "--cap", "0"], "--cap"),
        (["simulate", "measure-k", "--cap", "-1"], "--cap"),
        (["schedule", "make", "--stack", "0", "--output", "{out}"], "--stack"),
        (["schedule", "make", "--stack", "-1", "--output", "{out}"], "--stack"),
    ],
)
def test_bad_counts_are_usage_errors(monkeypatch, tmp_path, capsys, argv, flag):
    """A negative trial count, fewer than one worker, a seed outside
    [0, 2^64), a flux cap below 1 or a stack below 1 exits 2, writing
    nothing."""
    monkeypatch.setenv("COLEXJUMP_OUTDIR", str(tmp_path / "out"))
    seq = tmp_path / "seq.txt"
    seq.write_text("0 1 2 0\n")
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    extra = ["--sequence", str(seq)] if argv[0] == "schedule" else ["--builtin", "tetra15"]
    with pytest.raises(SystemExit) as exc:
        main(argv + extra)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "collapse", "--trace", "--label", "big"],
        ["simulate", "singleshot", "--kind", "3d"],
    ],
    ids=["collapse-trace", "singleshot"],
)
def test_trials_past_the_index_domain_are_usage_errors(tmp_path, capsys, argv):
    """Trial indices 0..trials - 1 must lie in [0, 2^64): 2^64 + 1 trials is
    a usage error under the action's usage line, before the output
    directory is made, the seed printed or the trace opened."""
    out_dir = tmp_path / "out"
    flags = ["--builtin", "tetra15", "--trials", str(2**64 + 1), "--out-dir", str(out_dir)]
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    out = capsys.readouterr()
    prog = f"colexjump {argv[0]} {argv[1]}"
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith(f"usage: {prog} [-h] ")
    assert out.err.splitlines()[-1].startswith(f"{prog}: error: argument --trials: must be below")
    assert list(tmp_path.iterdir()) == []


def test_largest_seed_runs(monkeypatch, tmp_path, capsys):
    """2^64 - 1 is the top of the seed range and still keys a generator."""
    monkeypatch.setenv("COLEXJUMP_OUTDIR", str(tmp_path))
    flags = ["--builtin", "tetra15", "--p", "0.05", "--seed", str(2**64 - 1)]
    code, out, _ = run(["jump", "collapse"] + flags, capsys)
    assert code == 0 and f"seed {2**64 - 1}" in out
    code, _, _ = run(["simulate", "collapse", "--trials", "3"] + flags, capsys)
    assert code == 0
    assert json.loads((tmp_path / "results.json").read_text())["seed"] == 2**64 - 1


# SHA-256 prefixes of [value, signed stabilizer group] over trials 0..19 of
# `montecarlo.jump_trial` on tetra15 rgb: the tracked logical's value and the
# canonical signed stabilizer group (`tableau_checks.signed_group`) of the
# state it was read from, which fixes the state but not its tableau rows
_JUMP_TRIAL_GOLDEN = {
    ("blowup", 0.02, 0.02, 1): "ccaa612a60",
    ("blowup", 0.1, 0.05, 3): "995f023ad5",
    ("blowup", 0, 0, 4): "ccaa612a60",
    ("blowup", 1, 1, 2): "e422dcbf6b",
    ("roundtrip", 0.02, 0.02, 1): "8ca8f16303",
    ("roundtrip", 0.1, 0.05, 3): "68c6a09e03",
    ("roundtrip", 0, 0, 4): "8ca8f16303",
    ("roundtrip", 1, 1, 2): "2e30ed0314",
}


@pytest.mark.parametrize("action,p,q,seed", list(_JUMP_TRIAL_GOLDEN))
def test_jump_trial_pinned(ctx, monkeypatch, action, p, q, seed):
    from tableau_checks import signed_group

    from colexjump.montecarlo import jump_trial
    from colexjump.noise import NoiseSpec
    from colexjump.tableau import Tableau

    read = []
    expect = Tableau.expect

    def recording(self, op):
        read[:] = [self.copy()]
        return expect(self, op)

    monkeypatch.setattr(Tableau, "expect", recording)
    spec = NoiseSpec(p, q, seed)
    trials = []
    for t in range(20):
        value = jump_trial(ctx, spec, action, t)
        trials.append([value, signed_group(read[0], expect)])
    text = json.dumps(trials, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:10]
    assert digest == _JUMP_TRIAL_GOLDEN[action, p, q, seed]


@pytest.mark.parametrize("action", ["blowup", "roundtrip"])
def test_jump_loop_draws_per_batch_not_per_trial(monkeypatch, capsys, action):
    """After a warm-up run, `jump blowup|roundtrip` builds no generator per
    trial: its trials read one `philox_words` draw per batch."""
    from colexjump import montecarlo

    calls = []
    trial_rng = montecarlo.trial_rng

    def counting(seed, t):
        calls.append(t)
        return trial_rng(seed, t)

    monkeypatch.setattr(montecarlo, "trial_rng", counting)
    argv = ["jump", action, "--builtin", "tetra15", "--p", "0.05", "--q", "0.05"]
    assert run(argv + ["--trials", "2"], capsys)[0] == 0
    calls.clear()
    code, out, _ = run(argv + ["--trials", "30", "--seed", "3"], capsys)
    assert code == 0 and f"{action}: 30 trials" in out
    assert calls == []


def test_a_huge_stack_is_rejected_before_scheduling(monkeypatch, tmp_path, capsys):
    """`schedule make --stack` above `STACK_MAX` (here 10^18) exits 2 at
    parsing, naming the bound, before the scheduler is reached; the
    scheduler is replaced so that nothing is allocated even if the check
    were gone."""
    from colexjump import cli, scheduler

    def refuse(*args, **kwargs):
        raise AssertionError("the scheduler ran")

    monkeypatch.setattr(scheduler, "schedule", refuse)
    seq = tmp_path / "seq.txt"
    seq.write_text("0 1 2 0\n")
    out = tmp_path / "sched.jsonl"
    for stack in (str(10**18), str(cli.STACK_MAX + 1)):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "make", "--stack", stack, "--sequence", str(seq),
                  "--output", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--stack" in err and f"must be below {cli.STACK_MAX + 1}" in err
    assert not out.exists()
    usage = cli._parsers()[1]["schedule", "make"].format_help()
    assert cli.STACK_MAX == 2**16 and f"1 to {cli.STACK_MAX}" in usage


@pytest.mark.parametrize("action", ["collapse", "singleshot"])
def test_too_many_workers_are_rejected_before_any_process_starts(
    monkeypatch, tmp_path, capsys, action
):
    """`simulate --workers` above `WORKERS_MAX` (here 10^6, with as many
    trials) exits 2 at parsing, naming the bound, and writes nothing; the
    process pool is replaced so that no process starts even if the check
    were gone."""
    import concurrent.futures

    from colexjump import cli

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for workers in (str(10**6), str(cli.WORKERS_MAX + 1)):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", action, "--builtin", "tetra15", "--trials", str(10**6),
                  "--workers", workers, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and f"must be below {cli.WORKERS_MAX + 1}" in err
    assert not (tmp_path / "out").exists()
    usage = cli._parsers()[1]["simulate", action].format_help()
    assert cli.WORKERS_MAX == 64 and f"1 to {cli.WORKERS_MAX}" in usage


# -- the CLI contract, fuzzed ------------------------------------------------------

# Value pools by flag, as (good values, bad values). The bad ones are
# boundary and out-of-range numbers, names the run rejects, and for a file
# flag a missing file, a directory, an empty file, a file that is not UTF-8
# and a truncated one. `--trials`,
# `--workers` and `--stack` draw only sizes that run in milliseconds on at
# most two worker processes.
_BAD_FILES = ["missing.txt", "a-dir", "empty.txt", "latin1.txt"]
_RATES = (["0", "0.05", "1", "-0.0"], ["-1", "1.5", "nan", "inf", str(2**64), "x"])
_POOLS = {
    "--builtin": (["tetra15", "tetra15", "tri7"], ["tri9"]),
    "--colex": (["tetra15.json", "tetra15.json", "tri7.json"], ["trunc.json", *_BAD_FILES]),
    "--sequence": (["seq.txt"], _BAD_FILES),
    "--schedule": (["sched.jsonl"], ["trunc.jsonl", *_BAD_FILES]),
    "--save": (["w.txt", "seq.txt"], ["no-dir/w.txt", "a-dir"]),
    "--output": (["w.txt", "seq.txt"], ["no-dir/w.txt", "a-dir"]),
    "--out-dir": (["out", "out/deep", "a-dir"], ["seq.txt"]),
    "--label": (["ab", "."], ["", "sub/r", "x" * 300]),
    "--facet": (["rgb", "gbr"], ["rg", "rgy", ""]),
    "--kind": (["3d", "inner", "2d"], ["4d"]),
    "--pair": (["rg", "gb"], ["ry", ""]),
    "--p": _RATES,
    "--q": _RATES,
    "--seed": (["0", "3", str(2**64 - 1)], ["-1", str(2**64), "nan", "1.5"]),
    "--cap": (["1", "4", str(2**64 - 1)], ["0", "-1", "x"]),
    "--trials": (["0", "1", "3", "20"], ["-1", "2.5", "nan", "x"]),
    "--workers": (["1", "2"], ["0", "-1"]),
    "--stack": (["4", "6"], ["1", "0", "-1", "nan", "x"]),
}


def _fuzz_files(root):
    """The input files of the pools, written under `root`."""
    from colexjump.colex import save
    from colexjump.hexfamily import builtin_colex

    for name in ("tri7", "tetra15"):
        save(builtin_colex(name), root / f"{name}.json")
    text = (root / "tetra15.json").read_text()
    (root / "trunc.json").write_text(text[: len(text) // 2])
    (root / "seq.txt").write_text("0 1 2 0 3 1\n")
    (root / "a-dir").mkdir()
    (root / "empty.txt").write_text("")
    (root / "latin1.txt").write_bytes(b"\xff\xfe 0 1\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["schedule", "make", "--stack", "4", "--sequence", str(root / "seq.txt"),
                     "--output", str(root / "sched.jsonl")]) == 0
    text = (root / "sched.jsonl").read_text()
    (root / "trunc.jsonl").write_text(text[: len(text) - 9])


def _tree(root):
    return {
        path.relative_to(root): path.read_bytes() if path.is_file() else None
        for path in root.rglob("*")
    }


@st.composite
def _invocations(draw):
    """`[command, action, flags...]`: a lattice source (mostly one, sometimes
    none or two), some of the action's own flags and, one time in four, a
    flag drawn from every action's, in any order. A value is drawn from its
    flag's good values three times in four, else from all of its pool."""
    parsers = action_parsers()
    arity = {
        a.option_strings[0]: a.nargs != 0
        for p in parsers.values() for a in p._actions if a.option_strings and a.dest != "help"
    }
    command, action = draw(st.sampled_from(sorted(parsers)))
    own = [flag for flag in _ACTION_FLAGS[command, action] if flag not in _SOURCE]
    flags = []
    if own:
        flags = draw(st.lists(st.sampled_from(own), unique=True))
    if command != "schedule":
        one = [["--builtin"]] * 3 + [["--colex"]] * 2
        flags += draw(st.sampled_from([*one, [], _SOURCE]))
    if draw(st.integers(0, 3)) == 0:
        flags.append(draw(st.sampled_from(sorted(arity))))
    argv = [command, action]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if arity[flag]:
            good, bad = _POOLS[flag]
            argv.append(draw(st.sampled_from(good if draw(st.integers(0, 3)) else good + bad)))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_invocations())
# the fault classes the fuzz has found, run on every run: a `--label` that
# holds a separator, is empty, or is too long for a file name
@example(["simulate", "collapse", "--builtin", "tetra15", "--trials", "2", "--label", "sub/r"])
@example(["simulate", "measure-k", "--builtin", "tetra15", "--label", ""])
@example(["simulate", "collapse", "--builtin", "tetra15", "--trials", "2", "--trace",
          "--label", "x" * 300])
@example(["simulate", "singleshot", "--builtin", "tetra15", "--trials", "2",
          "--label", "x" * 300])
def test_cli_contract_fuzzed(argv):
    """Any flags on any action: the exit code is 0, 1 or 2, only argparse's
    SystemExit(2) escapes, and a run that ends in an `error:` line or a
    usage error leaves the directory tree as it was. A verdict (INVALID,
    VIOLATION, exhaustive weight-1 failures) is not an error."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _fuzz_files(root)
        before = _tree(root)
        out, err = io.StringIO(), io.StringIO()
        old_env = os.environ.get("COLEXJUMP_OUTDIR")
        os.environ["COLEXJUMP_OUTDIR"] = str(root / "env-out")
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code == 2
                    code = 2
        finally:
            os.chdir(cwd)
            if old_env is None:
                del os.environ["COLEXJUMP_OUTDIR"]
            else:
                os.environ["COLEXJUMP_OUTDIR"] = old_env
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        verdict = code == 1 and any(
            word in out for word in ("INVALID", "VIOLATION", "exhaustive weight-1:")
        )
        if code == 2 or (code == 1 and not verdict):
            assert code == 2 or err.startswith("error: ")
            assert _tree(root) == before
