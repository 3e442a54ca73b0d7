"""Reading and writing group actions as JSON files.

The format::

    {
      "group": [8, 9],
      "generators": [ [[0, -1], [1, 1]], ... ],   one matrix per modulus
      "name": "optional label",
      "ground_truth": [                            optional, for fixtures
        {"kernel_hnf": [[2, 0], [0, 3]], "multiplicity": 2}, ...
      ]                                            at most one entry per kernel
    }

Matrix entries are JSON integers or strings of exactly the form ``"p"`` or
``"p/q"`` (optional sign on p, digits only, q nonzero), such as ``"-3/4"``;
decimal, exponent and padded strings are refused.  Unknown keys are ignored
so files can carry extra annotations.  Serialization is canonical:
two-space indentation, sorted keys, trailing newline — byte-identical output
for equal inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .abgroup import FinAbGroup
from .action import GAction, validate_action
from .errors import PreconditionError, ValidationError
from .ratlinalg import MatQ, MatZ

__all__ = [
    "ActionFile",
    "load_action_file",
    "serialize_action_file",
]


@dataclass(frozen=True)
class ActionFile:
    """A parsed action file: the action plus optional expected multiplicities."""

    action: GAction
    ground_truth: tuple[tuple[MatZ, int], ...] | None = None


def _parse_matrix(obj, where: str) -> MatQ:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValidationError(f"{where}: matrix must be a non-empty list of rows")
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise ValidationError(f"{where}: matrix rows must be non-empty and equal length")
    try:
        return MatQ(obj)
    except TypeError:
        raise ValidationError(f"{where}: matrix entry must be an integer or 'p/q'") from None
    except ValueError as e:  # "cannot parse ..." from the entry grammar
        raise ValidationError(f"{where}: {e}") from None


def _parse_moduli(obj) -> FinAbGroup:
    if not isinstance(obj, list):
        raise ValidationError("'group' must be a non-empty list of integers")
    try:
        return FinAbGroup(tuple(obj))
    except PreconditionError as e:
        raise ValidationError(str(e)) from None


def check_max_order(group: FinAbGroup, max_order: int | None) -> None:
    """Refuse a group whose order exceeds the cap set by ``--max-order``
    (no cap when None)."""
    if max_order is not None and group.order > max_order:
        try:
            order = str(group.order)
        except ValueError:  # more digits than the interpreter converts
            order = f"of {group.order.bit_length()} bits"
        raise ValidationError(f"group order {order} exceeds --max-order {max_order}")


def load_action_file(text: str, max_order: int | None = None) -> ActionFile:
    """Parse and fully validate an action file, ground truth included.

    With ``max_order`` set, a larger group is refused as soon as it is
    parsed, before any matrix work.
    """
    try:
        obj = json.loads(text)
    except ValueError as e:  # a syntax error, or an integer over the digit limit
        raise ValidationError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValidationError("top level must be a JSON object")
    if "group" not in obj:
        raise ValidationError("missing required key 'group'")
    if "generators" not in obj:
        raise ValidationError("missing required key 'generators'")
    group = _parse_moduli(obj["group"])
    check_max_order(group, max_order)
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise ValidationError("'generators' must be a list of matrices")
    mats = [
        _parse_matrix(g, f"generator {i + 1}") for i, g in enumerate(gens)
    ]
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ValidationError("'name' must be a string")
    action = validate_action(group, mats, name=name)

    ground_truth = None
    if obj.get("ground_truth") is not None:
        gt = obj["ground_truth"]
        if not isinstance(gt, list):
            raise ValidationError("'ground_truth' must be a list")
        rows = []
        entry_of: dict[tuple, int] = {}  # kernel -> its entry number
        for i, item in enumerate(gt):
            where = f"ground_truth entry {i + 1}"
            if not isinstance(item, dict):
                raise ValidationError(f"{where}: must be an object")
            if "kernel_hnf" not in item or "multiplicity" not in item:
                raise ValidationError(
                    f"{where}: needs 'kernel_hnf' and 'multiplicity'"
                )
            try:
                k = MatZ(item["kernel_hnf"])
            except (TypeError, ValueError):
                raise ValidationError(
                    f"{where}: 'kernel_hnf' must be a non-empty rectangular "
                    "integer matrix"
                ) from None
            m = item["multiplicity"]
            if not isinstance(m, int) or isinstance(m, bool) or m < 0:
                raise ValidationError(
                    f"{where}: 'multiplicity' must be a non-negative integer"
                )
            if k.entries in entry_of:
                raise ValidationError(
                    f"{where}: kernel {[list(r) for r in k.entries]} repeats "
                    f"ground_truth entry {entry_of[k.entries]}"
                )
            entry_of[k.entries] = i + 1
            rows.append((k, m))
        ground_truth = tuple(rows)
    return ActionFile(action, ground_truth)


def _json_text(obj) -> str:
    """Canonical JSON text: indent 2, sorted keys, trailing newline.

    For a document of dicts with string keys, lists, strings, numbers,
    bools and None, the bytes are exactly ``json.dumps(obj, indent=2,
    sort_keys=True) + "\\n"``.  With an indent, `json` runs its pure-Python
    encoder; this writer walks the containers itself, writes ``true``,
    ``false`` and ``null`` as they are, and leaves the other scalars to
    `json`'s C string encoder, to ``int.__repr__`` (a list of ints in one
    join) and, for the rest, to ``json.dumps``.
    """
    # small parts joined once: returning each container's text and joining
    # those held larger transient strings and raised peak RSS on `lattice`
    parts: list[str] = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, nl: str, out) -> None:
    """Write obj through out; nl is a newline and the indent of obj's line."""
    if isinstance(obj, str):
        out(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = nl + "  "
        if all(type(v) is int for v in obj):
            out("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for v in obj:
            out(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in sorted(obj.items()):
            out(sep + encode_basestring_ascii(key) + ": ")
            _write_json(v, inner, out)
            sep = "," + inner
        out(nl + "}")
    elif type(obj) is int:
        out(int.__repr__(obj))
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif obj is None:
        out("null")
    else:
        out(json.dumps(obj))


def serialize_action_file(af: ActionFile) -> str:
    obj = {
        "group": list(af.action.group.moduli),
        "generators": [m.to_jsonable() for m in af.action.gen_matrices],
    }
    if af.action.name is not None:
        obj["name"] = af.action.name
    if af.ground_truth is not None:
        obj["ground_truth"] = [
            {"kernel_hnf": k.to_jsonable(), "multiplicity": m}
            for k, m in af.ground_truth
        ]
    return _json_text(obj)
