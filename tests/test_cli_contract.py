"""The CLI's exit-code contract, fuzzed in-process.

Whatever argv it is given, ``voskit`` exits 0, 2 or 3 and prints no
traceback: malformed input, or a path the operating system refuses, exits
2, and a missing companion input exits 3. Exit 1 is a failed gradcheck
report and nothing else. Hypothesis draws argv for every subcommand from
the parser's own actions: tiny valid values, and malformed classes
(numbers that are huge, negative, NaN, infinite, non-numeric or empty;
paths that are missing, of the wrong kind, too long or looping; PGM,
``.tvck`` and scene files cut short at a drawn byte; PGM headers broken
in each of the ways that ``PGM_HEADER_MUTATIONS`` lists). Each argv runs
through ``cli.main`` in this process with every warning an error, from a
fresh directory that it must leave as it found it.

This module needs hypothesis, so it stays out of test_cli.py, whose tests
also run where only numpy and pytest are installed.
"""

import argparse
import io
import json
import os
import shutil
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voskit import checkpoint
from voskit.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_MISSING, EXIT_OK, build_parser, main
from voskit.motion_mlp import MotionPredictor

SCENE = {
    "height": 12,
    "width": 16,
    "frames": 4,
    "seed": 3,
    "objects": [{"id": 1, "box": [2, 3, 4, 3], "motion": {"kind": "linear", "v": [1, 1]}}],
    "corruption": {"blobs": 1, "blob_size": [2, 3], "min_distance": 4.0, "flip_prob": 0.05},
}

SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

# Valid numbers stay at or below these, so that no draw renders, trains or
# checks for long. These options are always given: their defaults (50
# epochs, 10 gradcheck seeds at size 16) take longer than a draw should.
CAPS = {"sequences": 2, "epochs": 3, "batch": 8, "seeds": 2, "size": 8}

HUGE = "1" + "0" * 400  # past the float range, within int()'s digit limit
MALFORMED_NUMBERS = [
    HUGE, "-" + HUGE, "1" + "0" * 5000, "1e400", "-1e400", "nan", "NaN", "inf", "-inf",
    "-1", "-0.5", "ten", "", " ", "0x10", "1.5", "1e-400",
]

# The role of each path-valued argument, by subcommand and dest.
PATH_ROLES = {
    ("synth", "scene"): "scene",
    ("synth", "out"): "out_dir",
    ("filter", "in_corpus"): "corpus",
    ("filter", "out_corpus"): "out_dir",
    ("filter", "weights"): "weights",
    ("eval", "pred_corpus"): "corpus",
    ("eval", "gt_corpus"): "corpus",
    ("eval", "report"): "out_file",
    ("train-pt", "corpus"): "corpus",
    ("train-pt", "out"): "out_file",
    ("transplant", "target"): "weights",
    ("transplant", "source"): "weights",
    ("transplant", "out"): "out_file",
}
TEXT_DESTS = {("transplant", "prefix"): ["pt.", "pt.layer0.", "pt.layer9.", "", "zzz"]}

# The valid cases of each path role, then its malformed ones; every role
# also takes each of BAD_PATHS.
PATH_CASES = {
    "scene": (["valid"], ["dir", "truncated", "pgm"]),
    "weights": (["valid"], ["dir", "truncated", "scene"]),
    "corpus": (["valid"], ["file", "dir", "truncated", "header", "short_pred", "sequence_dir"]),
    "out_dir": (["fresh", "nested"], ["file"]),
    "out_file": (["fresh"], ["dir", "dev_full"]),
}
BAD_PATHS = ["missing", "long", "long_parent", "long_total", "loop", "in_loop", "in_file", "empty"]

# Ways to break the header of a PGM that write_pgm wrote, "P5\n<w> <h>\n255\n"
# and pixels of ids 0 and 1, each with the problem that read_pgm reports.
PGM_HEADER_MUTATIONS = {
    "comment_without_newline": (
        lambda data: b"P5\n# a comment that the file ends in",
        "unterminated comment in header",
    ),
    "maxval_without_whitespace": (
        lambda data: data.replace(b"\n255\n", b"\n255", 1),
        "malformed PGM header",
    ),
    "5000_digit_width": (
        lambda data: b"P5\n" + b"1" * 5000 + data[data.index(b" ") :],
        "5000-digit number in PGM header",
    ),
    "stray_byte": (lambda data: data.replace(b"\n", b"\n-", 1), "malformed PGM header"),
}


def numbers(kind, dest, malformed):
    if malformed:
        return st.sampled_from(MALFORMED_NUMBERS)
    if kind == "int":
        valid = st.integers(0, CAPS[dest]) if dest in CAPS else st.integers()
    else:
        valid = st.floats(min_value=0.0, allow_infinity=False)
    return valid.map(repr)


def value(command, action, malformed=False):
    """Strategy for one value of ``action``, valid or malformed: a string,
    or a (role, case, cut) token that ``materialize`` turns into a path;
    ``cut`` picks the file and the byte at which a "truncated" case ends."""
    key = (command, action.dest)
    if key in PATH_ROLES:
        role = PATH_ROLES[key]
        valid, bad = PATH_CASES[role]
        cases = bad + BAD_PATHS if malformed else valid
        return st.sampled_from(cases).flatmap(
            lambda case: st.tuples(
                st.just(role),
                st.just(case),
                st.integers(0, 1 << 16) if case in ("truncated", "header") else st.just(0),
            )
        )
    if key in TEXT_DESTS:
        return st.one_of(st.sampled_from(TEXT_DESTS[key]), st.text(max_size=8))
    if action.choices is not None:
        return st.sampled_from(["bogus", ""] if malformed else list(action.choices))
    kind = getattr(action.type, "__name__", None)
    if kind in ("int", "float"):
        return numbers(kind, action.dest, malformed)
    raise KeyError(f"no strategy for {command} {action.dest}: add one here")


@st.composite
def argv_for(draw, command):
    """argv for ``command``: every positional, and each optional action
    present or not (required and capped ones always). At most one value is malformed,
    or one unknown argument is appended, so that each malformed class
    reaches the check that it is meant for."""
    slots = []  # (option string, or None for a positional; action) per value
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            slots += [(None, action)] * (draw(st.integers(1, 2)) if action.nargs == "+" else 1)
        elif action.required or action.dest in CAPS or draw(st.booleans()):
            slots.append((action.option_strings[0], action))
    fault = draw(st.integers(0, len(slots) + 1))  # len(slots): one argument more; past it: none
    parts = [command]
    for i, (option, action) in enumerate(slots):
        parts += [option] if option else []
        if action.nargs != 0:
            parts.append(draw(value(command, action, malformed=i == fault)))
    if fault == len(slots):
        parts.append(draw(st.sampled_from(["--bogus", "extra"])))
    return parts


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A valid scene, corpus and weights file, and paths of the wrong kind."""
    root = tmp_path_factory.mktemp("contract")
    (root / "scene.json").write_text(json.dumps(SCENE))
    with redirect_stdout(io.StringIO()):
        assert main(["synth", str(root / "scene.json"), str(root / "corpus")]) == EXIT_OK
    predictor = MotionPredictor.for_frame(SCENE["height"], SCENE["width"], seed=1)
    checkpoint.save(checkpoint.ParamStore.from_items(predictor.param_items()), root / "w.tvck")
    (root / "adir").mkdir()
    (root / "afile").write_text("not a directory\n")
    (root / "loop").symlink_to("loop")
    return root


def materialize(token, base, work):
    """The path that a drawn token names; files it needs are made in ``work``.
    A "header" corpus has the first frame of each of its mask directories
    broken by the mutation that ``cut`` picks."""
    role, case, cut = token
    work = Path(tempfile.mkdtemp(dir=work))
    valid = {"scene": base / "scene.json", "weights": base / "w.tvck", "corpus": base / "corpus"}
    if case == "valid":
        return valid[role]
    if case in ("fresh", "nested"):
        return work / ("a/b/out" if case == "nested" else "out")
    if case == "truncated" and role != "corpus":
        data = valid[role].read_bytes()
        path = work / valid[role].name
        path.write_bytes(data[: cut % len(data)])
        return path
    if case in ("truncated", "header", "short_pred"):
        path = work / "corpus"
        shutil.copytree(base / "corpus", path)
        if case == "short_pred":
            max(path.glob("seq0000/masks_pred/*.pgm")).unlink()
        elif case == "header":
            mutate, _ = list(PGM_HEADER_MUTATIONS.values())[cut % len(PGM_HEADER_MUTATIONS)]
            for first in path.glob("seq0000/masks_*/00001.pgm"):
                first.write_bytes(mutate(first.read_bytes()))
        else:
            frames = sorted(path.glob("seq0000/masks_*/*.pgm"))
            victim = frames[cut % len(frames)]
            data = victim.read_bytes()
            victim.write_bytes(data[: cut % len(data)])
        return path
    if case == "dev_full" and not os.path.exists("/dev/full"):
        return work / "out"
    return {
        "pgm": base / "corpus" / "seq0000" / "masks_gt" / "00001.pgm",
        "scene": base / "scene.json",
        "dir": base / "adir",
        "file": base / "afile",
        "sequence_dir": base / "corpus" / "seq0000",
        "dev_full": "/dev/full",
        "missing": work / "missing",
        "long": work / ("a" * 300),
        "long_parent": work / ("a" * 300) / "x",
        "long_total": work.joinpath(*["d" * 200] * 21),
        "loop": base / "loop",
        "in_loop": base / "loop" / "x",
        "in_file": base / "afile" / "x",
        "empty": "",
    }[case]


def run_main(argv):
    """(exit code, whether main returned rather than argparse exiting,
    stdout, stderr) of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    returned = True
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code, returned = exc.code, False
    return code, returned, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_argv_exits_0_2_or_3_without_a_traceback(command, data, base):
    drawn = data.draw(argv_for(command))
    work, cwd = Path(tempfile.mkdtemp(dir=base)), os.getcwd()
    try:
        argv = [str(materialize(p, base, work)) if isinstance(p, tuple) else p for p in drawn]
        made = sorted(os.listdir(work))
        os.chdir(work)
        code, returned, out, err = run_main(argv)
        assert sorted(os.listdir(work)) == made, (argv, "wrote to the current directory")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
    assert "Traceback" not in err and "error: internal" not in err, (argv, err)
    if any(isinstance(p, tuple) and p[1] == "header" for p in drawn):
        # Every command that reads the corpus stops at its first frame; only
        # a pt filter without weights stops before, with exit 3.
        assert code in (EXIT_INPUT, EXIT_MISSING), (argv, code, err)
    if code == EXIT_INTERNAL:
        assert command == "gradcheck" and "FAIL" in out and err == "", (argv, out, err)
    else:
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_MISSING), (argv, code, err)
    if code == EXIT_OK:
        assert err == "", (argv, err)
    elif code != EXIT_INTERNAL and returned:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("mutation", sorted(PGM_HEADER_MUTATIONS))
@pytest.mark.parametrize("command", ["filter", "eval", "train-pt"])
def test_malformed_pgm_header_exits_2_with_one_error_line(command, mutation, base, tmp_path):
    mutate, problem = PGM_HEADER_MUTATIONS[mutation]
    corpus = tmp_path / "corpus"
    shutil.copytree(base / "corpus", corpus)
    for first in corpus.glob("seq0000/masks_*/00001.pgm"):
        first.write_bytes(mutate(first.read_bytes()))
    argv = {
        "filter": ["filter", str(corpus), str(tmp_path / "out")],
        "eval": ["eval", str(corpus), str(corpus)],
        "train-pt": ["train-pt", str(corpus), "--out", str(tmp_path / "w.tvck"), "--epochs", "1"],
    }[command]
    code, returned, out, err = run_main(argv)
    assert (code, returned, out) == (EXIT_INPUT, True, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"00001.pgm: {problem}\n"), err


def test_every_argument_of_every_subcommand_is_drawn():
    # A new option fails here until the fuzzer draws values for it.
    for command, parser in SUBCOMMANDS.items():
        for action in parser._actions:
            if not isinstance(action, (argparse._HelpAction, argparse._StoreTrueAction)):
                value(command, action, malformed=False)
                value(command, action, malformed=True)
