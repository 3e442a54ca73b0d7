"""Command-line interface.

Commands::

    decompose <file>      isotypical decomposition of an action file
    roan <file>           the order-filtration of a cyclic action
    verify <file>         cross-check filtration vs. isotypical components
    characters --group …  the rational irreducible classes of a group
    subgroups --group …   all subgroups (or --kernels: the class kernels)
    fixture <kind> …      generate a test action file of known decomposition

Each handler returns a JSON document (a dict), text lines, or a file's
text (``fixture`` without ``-o``), and ``main``, the only writer of stdout,
writes it once the handler has returned, so a refused command prints
nothing.  The table
``_COMMANDS`` is the one place where a subcommand, its handler and its
arguments are declared.

Common flags: ``--json`` for machine output (default is aligned text),
``--max-order`` to cap the group order (default 10000), and
``--check-plausibility`` to print warnings about actions that cannot arise
from an abelian variety.  Output is deterministic: identical inputs and
flags give identical bytes.

Exit codes: 0 success; 1 stdout closed by its reader before the end, with
nothing on stderr; 2 invalid input (parse or validation failure, or a
``ground_truth`` claim that the decomposition refutes); 3 precondition
failure (valid input outside the supported domain, e.g. ``roan`` on a
non-cyclic group); 4 internal cross-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .abgroup import FinAbGroup, all_subgroups
from .action import GAction, IsotypicalReport, isotypical_decomposition
from .actionfile import (
    ActionFile,
    _json_text,
    check_max_order,
    load_action_file,
    serialize_action_file,
)
from .chars import RationalIrrep, rational_irreps
from .errors import InternalCheckError, PreconditionError, ValidationError
from .fixtures import FIXTURE_KINDS, FixtureSpec, _fixture_parameters, make_fixture
from .ratlinalg import _parse_rational
from .roan import RoanReport, _cyclic_roan, verify_roan_matching

__all__ = ["main"]

DEFAULT_MAX_ORDER = 10_000


def _group_line(group: FinAbGroup) -> str:
    label = " x ".join(f"Z/{n}" for n in group.moduli)
    return f"group {label} (order {group.order})"


def _action_lines(action: GAction, *more: str) -> list[str]:
    """The group and action lines that open the text of a file command."""
    name = f"action {action.name or '(unnamed)'}"
    return [_group_line(action.group), "  ".join((name, f"dim {action.dim}", *more))]


def _fmt_intmat(rows) -> str:
    # an int list's repr is its JSON text
    return str([list(r) for r in rows])


def _render_table(headers, rows) -> list[str]:
    cells = [list(headers)] + [[str(c) for c in r] for r in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(headers))]
    out = []
    for r in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return out


def _irrep_json(w: RationalIrrep) -> dict:
    """An irreducible class as ``characters`` writes it; ``decompose`` adds keys."""
    return {
        "kernel_hnf": w.kernel.hnf_basis.to_jsonable(),
        "order": w.order,
        "degree": w.degree,
        "representative": list(w.representative.exps),
    }


def _roan_json(report: RoanReport) -> dict:
    """The ``roan`` document; ``verify`` nests it under ``"roan"``."""
    return {
        "dim": report.dim,
        "exponent": report.exponent,
        "orders": list(report.orders),
        "filtration_dims": list(report.filtration_dims),
        "components": [
            {"order": d, "dim": s.dim, "basis": s.basis.to_jsonable()}
            for d, s in report.components
        ],
    }


def _parse_group_arg(text: str, max_order: int | None = None) -> FinAbGroup:
    try:
        group = FinAbGroup(_parse_int_list(text, "group"))
    except PreconditionError as e:
        raise ValidationError(str(e)) from None
    check_max_order(group, max_order)
    return group


def _load_file(path: str, max_order: int) -> ActionFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ValidationError(f"cannot read {path}: not UTF-8 ({e.reason})") from None
    return load_action_file(text, max_order)


# ---------------------------------------------------------------- decompose


def _cmd_decompose(args) -> dict | list[str]:
    af = _load_file(args.file, args.max_order)
    action = af.action
    report = isotypical_decomposition(action)
    if args.json:
        return {
            "group": list(action.group.moduli),
            "name": action.name,
            "dim": action.dim,
            "faithful": report.faithful,
            "components": [
                {
                    **_irrep_json(c.irrep),
                    "multiplicity": c.multiplicity,
                    "dim": c.dim,
                    "basis": c.subspace.basis.to_jsonable(),
                }
                for c in report.components
            ],
            "warnings": list(report.warnings),
        }
    faithful = f"faithful {'yes' if report.faithful else 'no'}"
    lines = _action_lines(action, faithful) + [""]
    rows = []
    for c in report.components:
        rows.append(
            (
                c.irrep.order,
                c.irrep.degree,
                c.multiplicity,
                c.dim,
                _fmt_intmat(c.irrep.kernel.hnf_basis.entries),
            )
        )
    lines += _render_table(("order", "degree", "mult", "dim", "kernel"), rows)
    nonzero = len(report.nonzero_components)
    lines.append("")
    lines.append(
        f"{len(report.components)} isotypical classes, {nonzero} nonzero; "
        f"dimensions sum to {sum(c.dim for c in report.components)}"
    )
    if args.check_plausibility:
        lines.append("")
        if report.warnings:
            lines += [f"warning: {w}" for w in report.warnings]
        else:
            lines.append("plausibility: no warnings")
    return lines


# --------------------------------------------------------------------- roan


def _cmd_roan(args) -> dict | list[str]:
    af = _load_file(args.file, args.max_order)
    report = _cyclic_roan(af.action)
    if args.json:
        return _roan_json(report)
    lines = _action_lines(af.action) + [
        f"eigenvalue orders: {', '.join(map(str, report.orders))}",
        f"filtration dims: {' > '.join(map(str, report.filtration_dims))}",
        "",
    ]
    return lines + _render_table(
        ("order", "dim"), [(d, s.dim) for d, s in report.components]
    )


# ------------------------------------------------------------------- verify


def _cmd_verify(args) -> dict | list[str]:
    af = _load_file(args.file, args.max_order)
    match = verify_roan_matching(af.action)
    gt_status = _check_ground_truth(af, match.decomposition)
    if args.json:
        return {
            "roan": _roan_json(match.roan),
            "matches": [
                {"order": d, "kernel_hnf": k.hnf_basis.to_jsonable(), "dim": dim}
                for d, k, dim in match.matches
            ],
            "zero_components": [
                {"kernel_hnf": k.hnf_basis.to_jsonable()}
                for k in match.zero_components
            ],
            "ground_truth": gt_status,
        }
    lines = _action_lines(af.action) + [""]
    rows = [
        (d, dim, _fmt_intmat(k.hnf_basis.entries)) for d, k, dim in match.matches
    ]
    lines += _render_table(("order", "dim", "kernel"), rows)
    lines.append("")
    lines.append(
        f"filtration pieces matched: {len(match.matches)}; "
        f"zero components: {len(match.zero_components)}"
    )
    lines.append(f"ground truth: {gt_status}")
    lines.append("verify: OK")
    return lines


def _check_ground_truth(af: ActionFile, report: IsotypicalReport) -> str:
    """Compare the multiplicities of a decomposition of the file's action
    against the file's expectations.  The decomposition carries its own
    certificates, so a claim it refutes is bad input, not a failed check."""
    if af.ground_truth is None:
        return "absent"
    computed = {
        c.irrep.kernel.hnf_basis.entries: c.multiplicity for c in report.components
    }
    expected = dict.fromkeys(computed, 0)
    for k, m in af.ground_truth:
        if k.entries not in expected:
            raise ValidationError(
                f"ground truth names an unknown kernel {_fmt_intmat(k.entries)}"
            )
        expected[k.entries] = m
    bad = {k: (expected[k], computed[k]) for k in computed if expected[k] != computed[k]}
    if bad:
        details = "; ".join(
            f"kernel {_fmt_intmat(k)}: expected {e}, computed {c}"
            for k, (e, c) in sorted(bad.items())
        )
        raise ValidationError(f"decomposition differs from ground truth: {details}")
    return "ok"


# --------------------------------------------------------------- characters


def _cmd_characters(args) -> dict | list[str]:
    group = _parse_group_arg(args.group, args.max_order)
    irreps = rational_irreps(group)
    if args.json:
        return {"group": list(group.moduli), "irreps": list(map(_irrep_json, irreps))}
    lines = [f"{_group_line(group)}: {len(irreps)} rational irreducible classes", ""]
    rows = [
        (
            w.order,
            w.degree,
            "(" + ",".join(map(str, w.representative.exps)) + ")",
            _fmt_intmat(w.kernel.hnf_basis.entries),
        )
        for w in irreps
    ]
    return lines + _render_table(("order", "degree", "representative", "kernel"), rows)


# ---------------------------------------------------------------- subgroups


def _cmd_subgroups(args) -> dict | list[str]:
    group = _parse_group_arg(args.group, args.max_order)
    # the class kernels are the subgroups with cyclic quotient Z/order, in
    # the lattice's order, so --kernels never enumerates the lattice; only
    # the quotient's invariants are shown, no generator
    if args.kernels:
        quotients = [(w.kernel, (w.order,)) for w in rational_irreps(group)]
    else:
        quotients = [(s, s.quotient_invariants) for s in all_subgroups(group)]
    infos = []
    for s, invariants in quotients:
        inv = [d for d in invariants if d > 1]
        infos.append((s, inv, len(inv) <= 1))
    if args.json:
        return {
            "group": list(group.moduli),
            "kernels_only": bool(args.kernels),
            "subgroups": [
                {
                    "hnf": s.hnf_basis.to_jsonable(),
                    "index": s.index,
                    "order": s.order,
                    "quotient_invariants": inv,
                    "cyclic_quotient": cyclic,
                }
                for s, inv, cyclic in infos
            ],
        }
    what = "cyclic-quotient subgroups (kernels)" if args.kernels else "subgroups"
    lines = [f"{_group_line(group)}: {len(infos)} {what}", ""]
    rows = []
    for s, inv, cyclic in infos:
        rows.append(
            (
                s.index,
                s.order,
                "trivial" if not inv else " x ".join(f"Z/{d}" for d in inv),
                "yes" if cyclic else "no",
                _fmt_intmat(s.hnf_basis.entries),
            )
        )
    return lines + _render_table(("index", "order", "quotient", "cyclic", "hnf"), rows)


# ------------------------------------------------------------------ fixture


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(_parse_rational(p.strip()) for p in text.split(","))
        if {*map(type, values)} == {int}:
            return values
    except ValueError:
        pass
    raise ValidationError(
        f"cannot parse {what} {text!r}: expected comma-separated integers"
    )


def _cmd_fixture(args) -> str:
    options = {
        "--group": args.group,
        "--multiplicities": args.multiplicities,
        "--seed": args.seed,
        "--max-dim": args.max_dim,
    }
    given = [o for o, v in options.items() if v is not None]
    names = _fixture_parameters(args.kind, len(args.params), given)
    fields = dict(zip(names, args.params), seed=args.seed, max_dim=args.max_dim)
    if args.multiplicities is not None:
        fields["multiplicities"] = _parse_int_list(args.multiplicities, "--multiplicities")
    if args.group is not None:
        fields["moduli"] = _parse_group_arg(args.group).moduli
    spec = FixtureSpec(args.kind, **{f: v for f, v in fields.items() if v is not None})
    af = make_fixture(spec, args.max_order)
    text = serialize_action_file(af)
    if not args.output:
        return text
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValidationError(f"cannot write {args.output}: {e.strerror or e}") from None
    return ""


# ------------------------------------------------------------------- parser


def _arg(*flags, **options):
    """The names or flags and the keywords of one ``add_argument`` call."""
    return flags, options


_FILE = _arg("file", help="action file (JSON)")
_GROUP = _arg("--group", required=True, metavar="n1,n2,…", help="moduli, e.g. 8,9")
_JSON = _arg("--json", action="store_true", help="machine-readable JSON output")
_MAX_ORDER = _arg("--max-order", type=int, default=DEFAULT_MAX_ORDER, metavar="N",
                  help=f"refuse groups of order above N (default {DEFAULT_MAX_ORDER})")

# Every subcommand: its help and handler, then its arguments in --help order.
# build_parser gives each one --max-order after its own arguments.
_COMMANDS = {
    "decompose": (
        "isotypical decomposition of an action file", _cmd_decompose,
        _FILE,
        _arg("--check-plausibility", action="store_true",
             help="print warnings for actions no abelian variety can realize"),
        _JSON,
    ),
    "roan": (
        "order-filtration of a cyclic action", _cmd_roan,
        _FILE,
        _JSON,
    ),
    "verify": (
        "cross-check the filtration against the isotypical components", _cmd_verify,
        _FILE,
        _JSON,
    ),
    "characters": (
        "rational irreducible classes of a group", _cmd_characters,
        _GROUP,
        _JSON,
    ),
    "subgroups": (
        "subgroup lattice of a group", _cmd_subgroups,
        _GROUP,
        _arg("--kernels", action="store_true",
             help="only subgroups with cyclic quotient (irreducible kernels)"),
        _JSON,
    ),
    "fixture": (
        "generate an action file of known decomposition", _cmd_fixture,
        _arg("kind", help=f"one of: {', '.join(FIXTURE_KINDS)}"),
        _arg("params", nargs="*", type=int, help="regular: n; paper-example: p q"),
        _arg("--group", metavar="n1,n2,…", help="moduli for (semi)simple kinds"),
        _arg("--multiplicities", metavar="m1,m2,…",
             help="one per irreducible class (canonical order)"),
        _arg("--seed", type=int, help=f"randomness seed (default {FixtureSpec.seed})"),
        _arg("--max-dim", type=int,
             help="dimension budget for random multiplicities "
             f"(default {FixtureSpec.max_dim})"),
        _arg("-o", "--output", metavar="FILE", help="write here instead of stdout"),
    ),
}


@cache  # built on first use, then shared by every main() in the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isodec",
        description=(
            "Exact isotypical decomposition of finite abelian group actions "
            "on rational vector spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, *arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, options in (*arguments, _MAX_ORDER):
            p.add_argument(*flags, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InternalCheckError as e:
        print(f"internal check failed: {e}", file=sys.stderr)
        return 4
    if isinstance(result, dict):
        result = _json_text(result)
    elif isinstance(result, list):
        result = "\n".join(result) + "\n"
    # started without a stdout (print writes nothing then), or fixture wrote -o
    if sys.stdout is None or not result:
        return 0
    try:
        # the last character goes alone: on an unbuffered stdout (-u), a
        # write that the reader cuts short fails only at the next write
        sys.stdout.write(result[:-1])
        sys.stdout.write(result[-1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered is flushed at exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
