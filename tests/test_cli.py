"""Command-line interface: exit codes, outputs, reproducibility."""

import hashlib
import json
import os

import pytest

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
    assert exc.value.code == 2
    assert out.out == "" and "needs --" in out.err


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
    ],
    ids=["collapse-facet", "singleshot-facet", "measure-k-facet", "measure-k-pair", "rate"],
)
def test_simulate_failure_makes_no_out_dir(tmp_path, capsys, argv, want):
    """A run that fails a check neither creates `--out-dir` nor prints the
    seed."""
    out_dir = tmp_path / "fresh"
    try:
        code = main(["simulate", argv[0], "--builtin", "tetra15", *argv[1:], "--trials", "2",
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
            "simulate", "collapse", "--builtin", "tetra15", "--exhaustive-weight1",
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


@pytest.mark.parametrize(
    "action,flag",
    [
        ("singleshot", "--trace"),
        ("measure-k", "--trace"),
        ("singleshot", "--exhaustive-weight1"),
        ("measure-k", "--exhaustive-weight1"),
    ],
)
def test_simulate_flag_without_effect_is_a_usage_error(tmp_path, capsys, action, flag):
    """A flag the action would ignore exits 2 before any work or output."""
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate", action, "--builtin", "tetra15", "--trials", "2", flag,
                "--label", "x", "--out-dir", str(tmp_path / "out"),
            ]
        )
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    ],
)
def test_bad_counts_are_usage_errors(monkeypatch, tmp_path, capsys, argv, flag):
    """A negative trial count, fewer than one worker, a seed outside
    [0, 2^64) or a flux cap below 1 exits 2, writing nothing."""
    monkeypatch.setenv("COLEXJUMP_OUTDIR", str(tmp_path / "out"))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--builtin", "tetra15"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seed_runs(monkeypatch, tmp_path, capsys):
    """2^64 - 1 is the top of the seed range and still keys a generator."""
    monkeypatch.setenv("COLEXJUMP_OUTDIR", str(tmp_path))
    flags = ["--builtin", "tetra15", "--p", "0.05", "--seed", str(2**64 - 1)]
    code, out, _ = run(["jump", "collapse"] + flags, capsys)
    assert code == 0 and f"seed {2**64 - 1}" in out
    code, _, _ = run(["simulate", "collapse", "--trials", "3"] + flags, capsys)
    assert code == 0
    assert json.loads((tmp_path / "results.json").read_text())["seed"] == 2**64 - 1


# SHA-256 prefixes of [value, final tableau rows] over trials 0..19 of
# `montecarlo.jump_trial` on tetra15 rgb: the tracked logical's value and the 2n rows
# (as signed Pauli strings) of the state it was read from, recorded with the
# numpy tableau
_JUMP_TRIAL_GOLDEN = {
    ("blowup", 0.02, 0.02, 1): "2edb6d81cb",
    ("blowup", 0.1, 0.05, 3): "fdf757ac3f",
    ("blowup", 0, 0, 4): "fcb382900a",
    ("blowup", 1, 1, 2): "dff814f47d",
    ("roundtrip", 0.02, 0.02, 1): "5710e969d1",
    ("roundtrip", 0.1, 0.05, 3): "e496fd817f",
    ("roundtrip", 0, 0, 4): "09417e93ad",
    ("roundtrip", 1, 1, 2): "e62e7c79b4",
}


@pytest.mark.parametrize("action,p,q,seed", list(_JUMP_TRIAL_GOLDEN))
def test_jump_trial_pinned(ctx, monkeypatch, action, p, q, seed):
    from colexjump.montecarlo import jump_trial
    from colexjump.noise import NoiseSpec
    from colexjump.pauli import PauliOperator
    from colexjump.tableau import Tableau

    read = []
    expect = Tableau.expect

    def recording(self, op):
        read.append([
            repr(PauliOperator(self.n, x, z, s))
            for x, z, s in zip(self.xs, self.zs, self.signs)
        ])
        return expect(self, op)

    monkeypatch.setattr(Tableau, "expect", recording)
    spec = NoiseSpec(p, q, seed)
    trials = []
    for t in range(20):
        value = jump_trial(ctx, spec, action, t)
        trials.append([value, read[-1]])
    text = json.dumps(trials, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:10]
    assert digest == _JUMP_TRIAL_GOLDEN[action, p, q, seed]
