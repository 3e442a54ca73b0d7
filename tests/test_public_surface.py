"""The package keeps no public surface that no command reaches.

A pinned set of small CLI commands runs in process under ``sys.setprofile``:
every subcommand, text and ``--json`` output, and a refused file.  Every
public function or method that a module of ``isodec`` defines must have
been entered by one of them, apart from ``ALLOWED``: the names the
acceptance gate (``tests/test_acceptance.py``) and the benchmark
(``bench/``) reach on their own.  A name that some command enters must not
be in ``ALLOWED``, so the list cannot go stale.  Dunders and underscore
names are not public.

A definition is matched by ``(co_filename, co_firstlineno)`` of its code,
not by its name, so a method that shares its name with another (``order``,
``to_jsonable``) is checked on its own.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys

import isodec
from test_cli import run_cli

# Reached by no command, and kept for the reason given above each group.
ALLOWED = {
    # the acceptance gate: the paper's formulas and the subgroup lattice
    "abgroup.Subgroup.is_contained_in",
    "abgroup.Subgroup.minimal_overgroups",
    "action.complementary_subvariety",
    "qalgebra.averaging_idempotent",
    "qalgebra.central_idempotent",
    "qalgebra.product_formula_idempotent",
    # bench/ traces these by name
    "ratlinalg.MatQ.mul_vector",
    "ratlinalg.SubspaceQ.contains_subspace",
}

# (files to write first, command, expected exit code); "{dir}" is tmp_path
COMMANDS = [
    ([], ["fixture", "regular", "6", "-o", "{dir}/reg6.json"], 0),
    ([], ["fixture", "paper-example", "2", "3", "-o", "{dir}/pe23.json"], 0),
    (
        [],
        ["fixture", "semisimple", "--group", "2", "--multiplicities", "1,1",
         "-o", "{dir}/odd.json"],
        0,
    ),
    (
        [],
        ["fixture", "random-conjugated", "--group", "6", "--seed", "3",
         "-o", "{dir}/rc6.json"],
        0,
    ),
    ([], ["fixture", "regular", "4"], 0),
    ([], ["decompose", "{dir}/reg6.json"], 0),
    ([], ["decompose", "{dir}/reg6.json", "--json"], 0),
    ([], ["decompose", "{dir}/odd.json", "--check-plausibility"], 0),
    ([], ["roan", "{dir}/pe23.json"], 0),
    ([], ["roan", "{dir}/reg6.json", "--json"], 0),
    ([], ["verify", "{dir}/pe23.json"], 0),
    ([], ["verify", "{dir}/rc6.json", "--json"], 0),
    ([], ["characters", "--group", "6"], 0),
    ([], ["characters", "--group", "8,9", "--json"], 0),
    # (4, 4) has the lattice ((2, 1), (0, 2)), whose G/H takes a Smith pass
    ([], ["subgroups", "--group", "4,4"], 0),
    ([], ["subgroups", "--group", "8,9", "--kernels", "--json"], 0),
    (
        [("bad.json", {"group": [2], "generators": [[[0, 1], [1, 1]]]})],
        ["decompose", "{dir}/bad.json"],
        2,
    ),
]


def _modules():
    for info in pkgutil.iter_modules(isodec.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            yield importlib.import_module(f"isodec.{info.name}")


def _functions_of(member):
    """The plain functions behind a function, cached function, classmethod,
    staticmethod, property or cached property."""
    if isinstance(member, property):
        return [member.fget]
    if isinstance(member, functools.cached_property):
        return [member.func]
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    member = inspect.unwrap(member)
    return [member] if inspect.isfunction(member) else []


def _public_definitions() -> dict[tuple[str, int], str]:
    """(co_filename, co_firstlineno) -> "module.Qualname" for every public
    function and method the package's modules define."""
    out = {}
    for module in _modules():
        short = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            own = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not own:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(name, obj)]
            for attr, member in members:
                if attr.startswith("_"):
                    continue
                for fn in _functions_of(member):
                    code = fn.__code__
                    out[code.co_filename, code.co_firstlineno] = f"{short}.{fn.__qualname__}"
    return out


def _clear_caches() -> None:
    """A cache hit never enters the wrapped function, so start cold."""
    for module in _modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_every_public_definition_runs_under_some_command(tmp_path):
    defs = _public_definitions()
    assert ALLOWED <= set(defs.values()), sorted(ALLOWED - set(defs.values()))

    entered: set = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    _clear_caches()
    for files, argv, expected in COMMANDS:
        for name, obj in files:
            (tmp_path / name).write_text(json.dumps(obj))
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        sys.setprofile(profile)
        try:
            code, _, err = run_cli(argv)
        finally:
            sys.setprofile(None)
        assert code == expected, (argv, err)

    ran = {(c.co_filename, c.co_firstlineno) for c in entered}
    unreached = sorted(
        name for key, name in defs.items() if key not in ran and name not in ALLOWED
    )
    assert not unreached, f"public names no command reaches: {unreached}"
    # an allowance that a command makes needless goes too
    needless = sorted(
        name for key, name in defs.items() if key in ran and name in ALLOWED
    )
    assert not needless, f"allowed names that a command reaches: {needless}"
