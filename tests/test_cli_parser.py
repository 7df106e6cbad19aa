"""`cli.main` builds only the parser of the command its argv names.

The oracle is the full tree of `build_parser()`: for each argv below, `main`
must give the same exit code, stdout and stderr as `main` made to build the
full tree.  Both run in one interpreter, so argparse's own wording, which
differs between Python versions, is the same on both sides.
"""

import argparse
import sys

import pytest

from plasmakit import cli
from plasmakit.cli import build_parser, main


def subparsers(parser):
    """name -> parser of the commands registered under parser."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def tree(parser, path=()):
    """path -> parser for every parser of the tree, the top one first."""
    found = {path: parser}
    for name, sub in subparsers(parser).items():
        found.update(tree(sub, path + (name,)))
    return found


FULL = tree(build_parser())
LEAVES = [path for path, parser in FULL.items() if not subparsers(parser)]
# The flags each leaf needs to parse; the handlers then run on them.
REQUIRED = {
    ("probe", "analyze"): ["--n", "1", "--r1", "1e6", "--c1", "1e-12", "--r0", "1e3", "--c0", "0"],
    ("probe", "design"): ["--ratio", "0.5", "--n", "1", "--r1", "1e3", "--c1", "1e-12"],
    ("probe", "bode"): ["--n", "1", "--r1", "1e6", "--c1", "1e-12", "--r0", "1e3", "--c0", "0",
                        "--points", "3"],
    ("cal", "fit"): ["--in", "no-such-dir/samples.csv"],
    ("cal", "eval"): ["--input", "1"],
    ("cal", "invert"): ["--lux", "1"],
    ("acq", "power"): ["--v", "400", "--i", "0.02"],
    ("acq", "replay"): ["--in", "no-such-dir/frames.csv"],
    ("characterize",): ["--in", "no-such-dir/run.csv"],
}
CAL_FLAGS = ["--a0", "0", "--a1", "1", "--a2", "0", "--a3", "0"]

ARGVS = [
    *([*path, "--help"] for path in FULL),
    *([*leaf] for leaf in LEAVES),                              # a required flag missing
    *([*leaf, *REQUIRED[leaf]] for leaf in LEAVES),             # parses; the handler runs
    *([*leaf, *REQUIRED[leaf], "--bogus"] for leaf in LEAVES),  # unrecognized, top usage
    *([*leaf, *REQUIRED[leaf], "stray"] for leaf in LEAVES),
    ["acq", "power", "--v", "x", "--i", "1"],                   # bad type=float value
    ["characterize", "--in", "run.csv", "--i-min", "1e-3x"],
    ["probe", "bode", *REQUIRED["probe", "bode"], "--points", "2.5"],
    ["cal", "eval", *CAL_FLAGS, "--kind", "lumens", "--input", "1"],   # bad choices
    ["probe", "bode", *REQUIRED["probe", "bode"], "--spacing", "cubic"],
    ["characterize", "--in", "no-such-dir/run.csv", "--tr"],   # abbreviated flags
    ["cal", "eval", *CAL_FLAGS, "--ki", "voltage", "--inp", "2"],
    ["characterize", "--i", "run.csv"],                         # an ambiguous one
    ["characterize", "-h", "--in"],
    [],                                                         # no command
    ["bogus"],                                                  # unknown command
    ["acq", "bogus"],                                           # unknown subcommand
    ["acq"],                                                    # missing subcommand
    ["-h", "characterize"],                                     # option before command
    ["--in", "run.csv", "characterize"],
    ["characterize", "acq", "replay"],
    ["probe", "-h", "analyze"],
]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_full_tree_has_13_parsers_and_9_leaves():
    assert len(FULL) == 13
    assert sorted(LEAVES) == sorted(REQUIRED)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_lean_path_matches_the_full_tree(capsys, monkeypatch, argv):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda path=None: built.append(path) or
                        build_parser(path))
    lean = outcome(capsys, argv)
    assert built == [cli._leaf_path(argv)]
    monkeypatch.setattr(cli, "_leaf_path", lambda argv: None)
    assert outcome(capsys, argv) == lean
    assert built[-1] is None


@pytest.mark.parametrize("argv, path", [
    (["characterize", "--in", "x"], ("characterize",)),
    (["acq", "replay", "-h"], ("acq", "replay")),
    (["probe", "bode"], ("probe", "bode")),
    (["acq"], None),
    (["acq", "-h"], None),
    (["acq", "bogus"], None),
    (["-h", "characterize"], None),
    (["--", "characterize"], None),
    ([], None),
])
def test_only_an_argv_that_starts_with_a_leaf_is_lean(argv, path):
    assert cli._leaf_path(argv) == path


@pytest.mark.parametrize("leaf", LEAVES, ids=" ".join)
def test_a_lean_tree_registers_every_command_but_flags_only_its_leaf(leaf):
    lean = tree(build_parser(leaf))
    assert list(subparsers(lean[()])) == list(subparsers(FULL[()]))
    flagged = [path for path, parser in lean.items() if len(parser._actions) > 1]
    assert flagged == [path for path in lean if path in (leaf, leaf[:1], ())]
    assert [a.dest for a in lean[leaf]._actions] == [a.dest for a in FULL[leaf]._actions]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["characterize", "--in", "no-such-dir/run.csv", "--trim"]
    expected = outcome(capsys, argv)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda path=None: built.append(path) or
                        build_parser(path))
    monkeypatch.setattr(sys, "argv", ["plasmakit", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected
    assert expected[0] == 1 and built == [("characterize",)]
