"""What the package offers, and what each command loads to offer it.

The package resolves its public names on first access, and each command
imports the layers it runs when it runs; a fresh process that answers
``count`` never compiles the verify suites, and no command loads
``dataclasses``.
"""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fibpcubes
from fibpcubes import cli
from fibpcubes.polynomials import MARKERS

SRC = str(Path(fibpcubes.__file__).parents[1])
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
))

# What `count` loads: |V| and |E| are jumps in sequences, the census is in strings.
COUNT_LAYERS = {"cli", "errors", "sequences", "strings"}
EVERY_LAYER = COUNT_LAYERS | {
    "cubes", "graph", "invariants", "polynomials", "series", "verify",
}


@functools.cache
def loaded_modules(*argv):
    """The modules a fresh `python -m fibpcubes` imports; one child per argv."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fibpcubes", *argv],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert done.returncode in (0, 2), done.stderr
    return frozenset(
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    )


def loaded_layers(*argv):
    """The fibpcubes submodules a fresh `python -m fibpcubes` imports."""
    names = loaded_modules(*argv)
    return {name.split(".", 1)[1] for name in names if name.startswith("fibpcubes.")}


# One argv per kind of command, and the fibpcubes layers it loads.
COMMANDS = pytest.mark.parametrize(
    "argv, layers",
    [
        (("--help",), {"cli", "errors"}),
        (("count", "--p", "1", "--n", "5"), COUNT_LAYERS),
        (("count", "--p", "1", "--n", "5", "--format", "json"), COUNT_LAYERS),
        (("count", "--p", "x", "--n", "5"), {"cli", "errors"}),
        (("indices", "--p", "2", "--n", "9", "--cap", "0"),
         COUNT_LAYERS | {"graph", "invariants"}),
        (("export", "--p", "1", "--n", "4", "--format", "json"),
         COUNT_LAYERS | {"graph"}),
        (("poly", "cube", "--p", "0", "--n", "9"),
         {"cli", "errors", "polynomials", "sequences", "strings"}),
        (("verify", "gf", "--p", "0", "--N", "4"), EVERY_LAYER),
    ],
    ids=["help", "count", "count-json", "usage-error", "indices-closed", "export",
         "poly", "verify"],
)


@COMMANDS
def test_each_command_loads_only_its_layers(argv, layers):
    assert loaded_layers(*argv) == layers


@COMMANDS
def test_no_command_loads_dataclasses_or_inspect(argv, layers):
    # dataclasses brings in inspect, ast, dis and tokenize: about 10 ms and
    # 1 MB of peak RSS at every process start.
    assert not {"dataclasses", "inspect"} & loaded_modules(*argv)


@pytest.mark.parametrize(
    "argv, loads",
    [
        (("count", "--p", "1", "--n", "5"), True),
        (("indices", "--p", "2", "--n", "9", "--cap", "0", "--format", "text"), False),
        (("poly", "cube", "--p", "0", "--n", "9"), False),
        (("verify", "cubes", "--p", "1", "--n", "0..4"), False),
    ],
    ids=["count", "indices-text", "poly", "verify-cubes"],
)
def test_only_a_printed_or_checked_row_loads_decimal(argv, loads):
    assert ("decimal" in loaded_modules(*argv)) == loads


def test_public_names_are_their_submodules_objects():
    for name, module in fibpcubes._MODULE_OF.items():
        defining = importlib.import_module(f"fibpcubes.{module}")
        assert getattr(fibpcubes, name) is getattr(defining, name), name
    assert fibpcubes.__all__ == list(fibpcubes._MODULE_OF)
    from fibpcubes import build, wiener_closed  # noqa: F401  the documented form


def test_dir_lists_every_public_name():
    assert set(fibpcubes.__all__) <= set(dir(fibpcubes))
    assert "__version__" in dir(fibpcubes)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fibpcubes.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from fibpcubes import no_such_name  # noqa: F401


def test_parser_choices_are_the_layers_own():
    from fibpcubes import series, verify

    assert cli.SUITE_CHOICES == verify.CHOICES
    assert cli.POLY_KINDS == tuple(MARKERS)
    assert cli.DEFAULT_ORDER == series.DEFAULT_ORDER
    parser = cli.build_parser()
    for suite in verify.CHOICES:
        args = parser.parse_args(["verify", suite])
        assert (args.suite, args.order) == (suite, series.DEFAULT_ORDER)
    for kind in MARKERS:
        assert parser.parse_args(["poly", kind, "--p", "0", "--n", "0"]).kind == kind
