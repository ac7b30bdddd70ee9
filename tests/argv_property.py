"""The CLI's direct argv reader against argparse, as a `hypothesis`
property: on every argv, `cli._read_argv` returns None or the namespace
that `parse_args` returns, and None wherever argparse exits.  The argvs are
token sequences drawn from the grammar's own words and from tokens argparse
reads in its own ways (an abbreviation, `--op=T`, `-h`, a negative number,
the empty string, non-ASCII digits, an int over the digit limit), both at
random and as a command line that a perturbation may break.

`test_cli.py` runs this file in a child interpreter; run it alone with
`python -m pytest tests/argv_property.py`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.cli import _OPTIONS, _SUBCOMMANDS, _targets
from tests.test_cli import argparse_namespace, assert_read_as_argparse_reads

_GRAMMAR = sorted(
    set(_OPTIONS) | set(_SUBCOMMANDS)
    | {target for command in _SUBCOMMANDS for target in _targets(command)
       if target is not None}
    | {flag for _, options in _SUBCOMMANDS.values() for flag in options}
    | {choice for _, options in _SUBCOMMANDS.values()
       for spec in options.values() for choice in spec.get("choices", ())})
_VALUES = ["T", "N,S", "doc.json", "0", "2", "12", "007"]
_ODD = ["--op=T", "--max", "--fix", "-h", "--help", "-1", "", "--", "-",
        "٣", "３", "+3", " 3", "1_0", "9" * 5000]
_tokens = st.sampled_from(_GRAMMAR + _VALUES + _ODD)


@st.composite
def _command_lines(draw):
    """A command line built by the grammar, then perhaps one token
    replaced, dropped or repeated."""
    argv = []
    if draw(st.booleans()):
        argv += ["--fixture", draw(st.sampled_from(_VALUES + _GRAMMAR))]
    if draw(st.booleans()):
        argv.append("--json")
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv.append(command)
    if _targets(command) != [None]:
        argv.append(draw(st.sampled_from(_targets(command))))
    options = _SUBCOMMANDS[command][1]
    for flag in draw(st.lists(st.sampled_from(sorted(options) or ["--op"]),
                              max_size=4, unique=True)):
        spec = options.get(flag, {})
        argv.append(flag)
        argv.append(draw(st.sampled_from(spec["choices"]) if "choices" in spec
                         else _tokens))
    edit = draw(st.integers(0, 3))
    if edit and argv:
        at = draw(st.integers(0, len(argv) - 1))
        if edit == 1:
            argv[at] = draw(_tokens)
        elif edit == 2:
            del argv[at]
        else:
            argv.insert(at, argv[at])
    return argv


@settings(max_examples=1500, deadline=None)
@given(st.one_of(st.lists(_tokens, max_size=8), _command_lines()))
def test_the_reader_returns_none_or_what_argparse_returns(argv):
    assert_read_as_argparse_reads(argv, argparse_namespace(argv))
