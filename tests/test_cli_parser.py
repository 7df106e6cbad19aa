"""`cli.main` parses every call with one parser tree, built once.

The oracle is a reference implementation: the full tree, built afresh from
`cli._COMMANDS` with plain argparse.  For each argv below, `main` must give
the same exit code, stdout and stderr as `main` made to parse with that
tree.  Both run in one interpreter, so argparse's own wording, which differs
between Python versions, is the same on both sides.  The reference keeps
argparse's own negative-number rule, so no argv here holds a word such as
-1e-05, which the two read differently.  The shared tree must be the full
one, and no call may leave state in it.
"""

import argparse
import dataclasses
import random
import sys

import pytest

from plasmakit import ChannelConfig, InputKind, cli
from plasmakit.acquisition import IGNITION_I_MIN
from plasmakit.cli import build_parser, main


def reference_parser():
    """The full tree, eagerly built from cli._COMMANDS."""
    def add(parser, commands, dest):
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (text, *body) in commands.items():
            p = sub.add_parser(name, help=text)
            if len(body) == 1:
                add(p, body[0], "subcommand")
            else:
                handler, flags = body
                for flag, kwargs in flags.items():
                    p.add_argument(flag, **kwargs)
                p.set_defaults(func=handler)

    parser = argparse.ArgumentParser(prog="plasmakit", description=build_parser().description)
    add(parser, cli._COMMANDS, "command")
    return parser


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


def described(parser):
    """What argparse was told of each of parser's arguments."""
    return [(a.option_strings, a.dest, a.type, a.default, a.choices, a.required, a.help,
             type(a)) for a in parser._actions if not isinstance(a, argparse._SubParsersAction)]


FULL = tree(reference_parser())
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
ODD_ARGVS = [
    ["--"], ["-"], ["-1"], ["--he"], ["--", "characterize"], ["-", "acq"],
    ["characterize", "--"], ["characterize", "--he"], ["acq", "--", "power"],
    ["probe", "--he"], ["cal", "-1"], ["acq", "power", "--v", "-1", "--i", "-1"],
]

# The random sweep's words: commands, flags (some abbreviated), values and odd tokens.
TOKENS = ["probe", "cal", "acq", "characterize", "analyze", "design", "bode", "fit", "eval",
          "invert", "power", "replay", "bogus", "-h", "--help", "--he", "--", "-", "-1", "",
          "--n", "1", "3", "--r1", "1e6", "--c1", "1e-12", "--r0", "1e3", "--c0", "0",
          "--tol", "0.5", "--ratio", "--fmin", "--fmax", "--points", "--spacing", "log",
          "--out", "--in", "no-such-dir/x.csv", "--kind", "voltage", "power", "--trim", "--plot",
          "--a0", "--a1", "--a2", "--a3", "--curve", "--input", "--lux", "--v", "--i", "--config",
          "--strict", "--probe-ratio", "--adc-bits", "--i-min", "x", "--tr", "--inp", "--ki"]


def sweep(seed, count):
    """count argvs of up to 8 TOKENS after nothing, a leaf's path, or a leaf's
    path and its REQUIRED flags, in turn."""
    rng = random.Random(seed)
    heads = [lambda: (), lambda: rng.choice(LEAVES),
             lambda: (leaf := rng.choice(LEAVES)) + tuple(REQUIRED[leaf])]
    return [[*heads[k % 3](), *(rng.choice(TOKENS) for _ in range(rng.randint(0, 8)))]
            for k in range(count)]


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv)."""
    try:
        code = main(argv if argv is None else list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reference_outcome(capsys, monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", reference_parser)
        return outcome(capsys, argv)


def test_the_full_tree_has_13_parsers_and_9_leaves():
    assert len(FULL) == 13
    assert sorted(LEAVES) == sorted(REQUIRED)


@pytest.mark.parametrize("argv", ARGVS + ODD_ARGVS, ids=" ".join)
def test_main_matches_the_full_tree(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert outcome(capsys, argv) == reference_outcome(capsys, monkeypatch, argv)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_random_argvs_match_the_full_tree(capsys, monkeypatch, tmp_path, seed):
    monkeypatch.chdir(tmp_path)
    codes, differ = set(), []
    for argv in sweep(seed, 500):
        got = outcome(capsys, argv)
        codes.add(got[0])
        if got != reference_outcome(capsys, monkeypatch, argv):
            differ.append(argv)
    assert differ == []
    assert codes == {0, 1, 2}


def test_build_parser_returns_one_full_tree():
    parser = build_parser()
    assert build_parser() is parser
    parsers = tree(parser)
    assert list(parsers) == list(FULL)
    assert [described(p) for p in parsers.values()] == [described(p) for p in FULL.values()]


def snapshot(parser):
    """described(), the set_defaults values and format_help() of each parser of the tree."""
    return {path: (described(p), dict(p._defaults), p.format_help())
            for path, p in tree(parser).items()}


def test_calls_leave_the_shared_tree_as_built(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    codes = {outcome(capsys, argv)[0] for argv in [*ARGVS, *ODD_ARGVS, *sweep(5, 300)]}
    assert codes == {0, 1, 2}  # handlers ran, and help and usage errors exited
    assert snapshot(build_parser()) == snapshot(reference_parser())


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["characterize", "--in", "no-such-dir/run.csv", "--trim"]
    expected = outcome(capsys, argv)
    monkeypatch.setattr(sys, "argv", ["plasmakit", *argv])
    assert outcome(capsys, None) == expected
    assert expected[0] == 1


def test_the_parsers_literals_match_the_library():
    """The parser states InputKind's values, ChannelConfig's fields with the
    types of their defaults, and the --i-min default as literals, so that
    building it imports neither module; each must match the library."""
    parsers = tree(build_parser())
    assert cli._KINDS == [kind.value for kind in InputKind]
    assert [a.choices for p in parsers.values() for a in p._actions if a.dest == "kind"] == \
        [cli._KINDS] * 3
    fields = [(f.name, type(f.default)) for f in dataclasses.fields(ChannelConfig)]
    assert list(cli._CONFIG_TYPES.items()) == fields
    replay = parsers[("acq", "replay")]
    assert [(a.dest, a.type) for a in replay._actions if a.dest in cli._CONFIG_TYPES] == fields
    assert parsers[("characterize",)].get_default("i_min") == IGNITION_I_MIN
