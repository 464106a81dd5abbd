"""File formats and canonical serialization.

All structured output is JSON with sorted keys, two-space indent, ASCII
escapes and a trailing newline, and every array whose members are all JSON
scalars (strings, numbers, booleans, null) stands on one line as
``[a, b, c]``; every other array and every object has one member per line.
Reports are written by a small recursive writer that walks the result
objects in one pass and writes what ``to_jsonable`` makes of them, floats
as ``json.dumps`` writes them.  Canonical files are byte-identical after
serialize(parse(file)).
JSON input may not hold the non-finite constants NaN, Infinity or -Infinity,
which are not JSON, nor numbers such as 1e400 that overflow to them.
Distance matrices come in as headerless CSV; its cells and the CLI's
``--radii`` go through one number reader, ``parse_number``, which accepts
ASCII decimal numbers only and refuses non-finite values.  Parse errors
carry the position that failed.

A space is written as its points, its depth and one ``[a, b, k]`` per
unordered pair of distinct points related at some scale, k being the
finest scale that relates them (``space_to_spec``).  ``space_from_spec``
reads that form, explicit per-scale pair lists (``scales``) and distance
matrices (``matrix`` with ``radii``), and refuses a spec of two forms.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii

from .actions import ActionSpec, close_group
from .quotients import FilteredMap
from .rips import AbelianGroupInv
from .spaces import FilteredSpace, from_finest, from_metric, validate_space
from .towers import InvalidTower, SpaceTower, TowerAb

SCHEMA = "scalecover-report/4"


class ParseError(ValueError):
    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message if position is None else f"{position}: {message}")


_SCALARS = frozenset({str, int, float, bool, type(None)})
# orders a set's converted elements by their compact sorted-key JSON text
_set_sort_key = json.JSONEncoder(sort_keys=True, default=str).encode


@functools.cache
def _public_fields(cls):
    """The public field names of a dataclass type, None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls) if not f.name.startswith("_"))


def _key(k) -> str:
    if type(k) is str:
        return k
    return ",".join(map(str, k)) if isinstance(k, tuple) else str(k)


def to_jsonable(obj):
    """Deterministic conversion of result objects into JSON-ready values.

    Dataclass instances become dicts of their public (not ``_``-prefixed)
    fields, dict keys become strings (tuples joined by commas), lists and
    tuples become lists, sets and frozensets become lists sorted by each
    element's compact JSON text, JSON scalars stay as they are and any other
    object becomes ``str(obj)``.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    if cls is list or cls is tuple:
        return [v if type(v) in _SCALARS else to_jsonable(v) for v in obj]
    if cls is dict:
        return {_key(k): v if type(v) in _SCALARS else to_jsonable(v) for k, v in obj.items()}
    if cls is frozenset or cls is set:
        return sorted(map(to_jsonable, obj), key=_set_sort_key)
    names = _public_fields(cls)
    if names is not None:
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    # subclasses of the types above
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(map(to_jsonable, obj), key=_set_sort_key)
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float)):
        return obj
    return str(obj)


class _Written(str):
    """JSON text already written for the place it stands in; the writer
    copies it as it is."""


_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda v: "null",
    float: json.dumps,  # repr for finite floats, NaN/Infinity as json writes them
    _Written: str.__str__,
}


_CONTAINERS = (list, tuple, dict, set, frozenset)
_INTS = frozenset({int})


def _leaf_line(values):
    """The one-line text of ``values``, an array, when each member is
    written as a JSON scalar (to_jsonable makes it a str, int, float, bool or
    None), else None."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        if kinds == _INTS:  # repr writes a list of ints as JSON does
            return repr(values if type(values) is list else list(values))
        return "[" + ", ".join([_SCALAR_TEXT[type(v)](v) for v in values]) + "]"
    if not kinds.isdisjoint(_CONTAINERS):
        return None
    texts = []
    for v in values:  # subclasses of the scalars, and str() of anything else
        if _public_fields(type(v)) is not None or isinstance(v, _CONTAINERS):
            return None
        piece = []
        _write(v, piece, "")
        texts.append(piece[0])
    return "[" + ", ".join(texts) + "]"


def _write(value, out: list, newline: str) -> None:
    """Append the canonical JSON text of ``to_jsonable(value)`` to ``out``.

    ``newline`` is a newline plus the indentation of the line ``value``
    starts on.  An array of scalars is appended as one line; each key and
    each scalar member of any other array is appended together with the
    separator before it, so few pieces are made.
    """
    cls = type(value)
    if cls is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in sorted({_key(k): v for k, v in value.items()}.items()):
            text = _SCALAR_TEXT.get(type(v))
            if text is not None:
                out.append(sep + encode_basestring_ascii(k) + ": " + text(v))
            else:
                out.append(sep + encode_basestring_ascii(k) + ": ")
                _write(v, out, inner)
            sep = comma
        out.append(newline + "}")
    elif cls is list or cls is tuple:
        if not value:
            out.append("[]")
            return
        line = _leaf_line(value)
        if line is not None:
            out.append(line)
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for v in value:
            text = _SCALAR_TEXT.get(type(v))
            if text is not None:
                out.append(sep + text(v))
            else:
                out.append(sep)
                _write(v, out, inner)
            sep = comma
        out.append(newline + "]")
    elif (names := _public_fields(cls)) is not None:
        _write({name: getattr(value, name) for name in names}, out, newline)
    elif (text := _SCALAR_TEXT.get(cls)) is not None:
        out.append(text(value))
    else:  # sets, subclasses of the types above, and str() of anything else
        jsonable = to_jsonable(value)
        if jsonable is value:  # json.dumps writes a str, int or float subclass as its base
            out.append(json.dumps(value))
        else:
            _write(jsonable, out, newline)


def canonical_dumps(obj) -> str:
    """The canonical report text of ``obj``: ``to_jsonable(obj)`` as JSON
    with sorted keys, two-space indent, ASCII escapes, each array of scalars
    on one line, and a trailing newline."""
    out = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def written_field(obj):
    """``obj`` written once, as (field, digest).

    ``digest`` hashes the canonical text of ``obj`` as its own document.
    ``field`` is that text without its trailing newline, indented to stand
    as the value of a top-level key of another document, and
    ``canonical_dumps`` copies it as it is.  The re-indent is exact because
    ``encode_basestring_ascii`` escapes every control character inside
    strings, so every newline in canonical text is structural.
    """
    out = []
    _write(obj, out, "\n")
    text = "".join(out)
    digest = "sha256:" + hashlib.sha256((text + "\n").encode()).hexdigest()
    return _Written(text.replace("\n", "\n  ")), digest


# ---------------------------------------------------------------------------
# spaces


def space_to_spec(space: FilteredSpace) -> dict:
    """The space as its points, its depth and one ``[a, b, k]`` per related
    pair of distinct points, k the finest scale relating them, listed in
    point order with a before b."""
    finest = {pair: k for k, pairs in enumerate(space.scales, start=1) for pair in pairs}
    return {
        "kind": "space",
        "points": list(space.points),
        "depth": space.depth,
        "pairs": [[a, b, finest[a, b]] for a, b in space.sorted_pairs(1)],
        "hausdorff": space.hausdorff,
    }


# JSON scalars, and the tuple points of specs built in Python by *_to_spec
_POINT_TYPES = frozenset({str, int, float, bool, type(None), tuple})


def _as_point(value):
    try:
        return _point(value)
    except RecursionError:
        raise ParseError("a point is nested too deeply") from None


def _point(value):
    if type(value) in _POINT_TYPES:
        return value
    if isinstance(value, list):
        return tuple(_point(v) for v in value)
    raise ParseError(f"a point must be a JSON scalar or array, got {value!r}")


def _points(values, what) -> list:
    """An array of points: the array itself when it holds only JSON scalars
    (each its own point), else each member read by ``_as_point``."""
    if set(map(type, _expect(values, list, what))) <= _POINT_TYPES:
        return values
    return [_as_point(p) for p in values]


def _expect(value, kind, what):
    """The value if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise ParseError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _field(spec, key, what=None):
    """spec[key], or a ParseError naming the field when it is missing."""
    if key not in spec:
        raise ParseError(f"{what or 'field ' + key} is missing")
    return spec[key]


def _numbers(values, what, kinds=frozenset({int, float})):
    """The array, if it holds only JSON numbers of the given types (no bools)."""
    if not set(map(type, _expect(values, list, what))) <= kinds:
        bad = next(v for v in values if type(v) not in kinds)
        raise ParseError(f"{what} must hold {'/'.join(sorted(t.__name__ for t in kinds))}"
                         f" values, got {bad!r}")
    return values


def _pair(value):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"a pair must be an array of two points, got {value!r}")
    return _as_point(value[0]), _as_point(value[1])


def _scale(value):
    """A scale's pairs of points: the array itself when it holds only arrays
    of two JSON scalars (each its own point), else each entry read by
    ``_pair``, which names the first bad one."""
    scale = _expect(value, list, "a scale")
    if (set(map(type, scale)) <= {list} and set(map(len, scale)) <= {2}
            and set(map(type, chain.from_iterable(scale))) <= _POINT_TYPES):
        return scale
    return [_pair(pair) for pair in scale]


def _finest_pairs(spec):
    """The depth and the (a, b, k) triples of a space spec's pairs form."""
    depth = _field(spec, "depth")
    if type(depth) is not int or depth < 1:
        raise ParseError(f"depth must be a positive integer, got {depth!r}")
    triples = []
    for entry in _expect(_field(spec, "pairs"), list, "pairs"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ParseError(f"a pair must be an array [a, b, k], got {entry!r}")
        a, b, k = entry
        if type(k) is not int or not 1 <= k <= depth:
            raise ParseError(f"the finest scale of a pair must be an integer in 1..{depth}, "
                             f"got {entry!r}")
        triples.append((_as_point(a), _as_point(b), k))
    return depth, triples


def _hausdorff(spec):
    hausdorff = spec.get("hausdorff", False)
    if type(hausdorff) is not bool:
        raise ParseError(f"hausdorff must be true or false, got {hausdorff!r}")
    return hausdorff


def space_from_spec(spec: dict) -> FilteredSpace:
    """A space from its points with either its pairs form (``depth`` and
    ``pairs``, as ``space_to_spec`` writes) or explicit per-scale pair lists
    (``scales``), or from a distance matrix with ``radii``, whose points are
    named in ``names``.  A spec holds exactly one of ``pairs``, ``scales``
    and ``matrix``."""
    if _expect(spec, dict, "a space spec").get("kind") not in (None, "space"):
        raise ParseError(f"expected a space spec, got kind {spec.get('kind')!r}")
    forms = [form for form in ("pairs", "scales", "matrix") if form in spec]
    if not forms:
        raise ParseError("a space spec needs one of pairs, scales and matrix")
    if len(forms) > 1:
        raise ParseError(f"a space spec holds one of pairs, scales and matrix, "
                         f"got {', '.join(forms)}")
    if forms == ["matrix"]:
        if "points" in spec:
            raise ParseError("a matrix spec names its points in names, not points")
        matrix = [_numbers(row, "a matrix row")
                  for row in _expect(spec["matrix"], list, "matrix")]
        names = spec.get("names")
        if names is not None:
            names = _points(names, "names")
        return from_metric(matrix, _numbers(_field(spec, "radii"), "radii"), names)
    points = _points(_field(spec, "points"), "points")
    if forms == ["pairs"]:
        depth, triples = _finest_pairs(spec)
        return from_finest(points, depth, triples, _hausdorff(spec))
    scales = [_scale(scale) for scale in _expect(spec["scales"], list, "scales")]
    return validate_space(points, scales, _hausdorff(spec))


# On these characters alone int() and float() read exactly the ASCII decimal
# grammar: one optional sign, digits with an optional fraction and exponent,
# spaces and tabs around.  Underscores, other scripts' digits and other
# whitespace, which they also accept, are refused before they are called.
_NUMBER_CHARS = frozenset("0123456789+-.eE \t")


def parse_number(text: str, position=None):
    """A finite number: a float when the text holds a '.' or an exponent, else an int."""
    try:
        if not _NUMBER_CHARS.issuperset(text):
            raise ValueError(text)
        value = float(text) if "." in text or "e" in text.lower() else int(text)
    except ValueError:
        raise ParseError(f"bad number {text!r}", position) from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ParseError(f"number {text!r} is not finite", position)
    return value


def parse_distance_csv(text: str):
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        # inside a line, int() reads only ASCII digits, signs, spaces, tabs and
        # underscores, so on an ASCII line without underscores it reads each
        # cell as parse_number does, or refuses it
        if line.isascii() and "_" not in line:
            try:
                rows.append(list(map(int, line.split(","))))
                continue
            except ValueError:
                pass
        rows.append([parse_number(cell, f"line {lineno}") for cell in line.split(",")])
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ParseError(
                f"row has {len(row)} entries but the matrix has {n} rows",
                f"line {lineno}",
            )
    return rows


# ---------------------------------------------------------------------------
# maps, actions, towers


def map_to_spec(f: FilteredMap) -> dict:
    return {
        "kind": "map",
        "source": space_to_spec(f.source),
        "target": space_to_spec(f.target),
        "assignment": list(f.assignment),
    }


def map_from_spec(spec: dict) -> FilteredMap:
    if _expect(spec, dict, "a map spec").get("kind") not in (None, "map"):
        raise ParseError(f"expected a map spec, got kind {spec.get('kind')!r}")
    source = space_from_spec(_field(spec, "source"))
    target = space_from_spec(_field(spec, "target"))
    assignment = _points(_field(spec, "assignment"), "assignment")
    return FilteredMap(source, target, tuple(assignment))


def counterexample_from_spec(spec, what: str) -> dict:
    """A stored map counterexample with its points read back as points.

    Its ``*_scale`` fields must be integers and its ``chains`` an array of
    arrays; ``quotients.counterexample_holds`` rejects the rest.
    """
    out = {}
    for key, value in _expect(spec, dict, what).items():
        if key.endswith("_scale") and type(value) is not int:
            raise ParseError(f"{what}.{key} must be an integer, got {value!r}")
        if key == "chains":
            for chain in _expect(value, list, f"{what}.chains"):
                _expect(chain, list, f"a chain of {what}")
        out[key] = _as_point(value)
    return out


def action_to_spec(action: ActionSpec) -> dict:
    return {
        "kind": "action",
        "space": space_to_spec(action.space),
        "generators": [list(action.perm_of_points(g)) for g in action.generators],
    }


def action_from_spec(spec: dict) -> ActionSpec:
    if _expect(spec, dict, "an action spec").get("kind") not in (None, "action"):
        raise ParseError(f"expected an action spec, got kind {spec.get('kind')!r}")
    space = space_from_spec(_field(spec, "space"))
    generators = [_points(g, "a generator")
                  for g in _expect(_field(spec, "generators"), list, "generators")]
    return close_group(space, generators)


def space_tower_to_spec(tower: SpaceTower) -> dict:
    return {
        "kind": "space_tower",
        "spaces": [space_to_spec(sp) for sp in tower.spaces],
        "bondings": [list(f.assignment) for f in tower.bondings],
        "stabilization": tower.stabilization,
    }


def space_tower_from_spec(spec: dict, base_dir: str = ".") -> SpaceTower:
    """Tower spaces may be inline specs or {"ref": path} file references."""
    import os

    def resolve(entry):
        if "ref" in _expect(entry, dict, "a tower space"):
            if not isinstance(entry["ref"], str):
                raise ParseError(f"a tower space ref must be a path, got {entry['ref']!r}")
            return space_from_spec(load_json(os.path.join(base_dir, entry["ref"])))
        return space_from_spec(entry)

    _expect(spec, dict, "a tower spec")
    spaces = tuple(resolve(s) for s in _expect(_field(spec, "spaces"), list, "spaces"))
    assignments = _expect(_field(spec, "bondings"), list, "bondings")
    if len(assignments) != len(spaces) - 1:
        raise InvalidTower("need exactly one bonding map per adjacent pair")
    bondings = tuple(
        FilteredMap(spaces[i + 1], spaces[i],
                    tuple(_points(assignment, "a bonding")))
        for i, assignment in enumerate(assignments)
    )
    return SpaceTower(spaces, bondings, spec.get("stabilization", "none"))


def abelian_tower_to_spec(tab: TowerAb) -> dict:
    return {
        "kind": "abelian_tower",
        "groups": [
            {"rank": g.rank, "torsion": list(g.torsion)} for g in tab.groups
        ],
        "matrices": [[list(row) for row in m] for m in tab.matrices],
        "stabilization": tab.stabilization,
    }


def abelian_tower_from_spec(spec: dict) -> TowerAb:
    groups = []
    for g in _expect(_field(_expect(spec, dict, "a tower spec"), "groups"), list, "groups"):
        rank = _field(_expect(g, dict, "a group"), "rank")
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
            raise ParseError(f"a group rank must be a nonnegative integer, got {rank!r}")
        torsion = _numbers(_field(g, "torsion"), "torsion", {int})
        groups.append(AbelianGroupInv(rank, tuple(torsion)))
    matrices = tuple(
        tuple(tuple(_numbers(row, "a matrix row", {int})) for row in _expect(m, list, "a matrix"))
        for m in _expect(_field(spec, "matrices"), list, "matrices")
    )
    for m in matrices:
        if len(set(map(len, m))) > 1:
            raise ParseError(f"a tower matrix must be rectangular, got rows of lengths "
                             f"{[len(row) for row in m]}")
    if spec.get("g") is not None:
        telescope_elements(spec["g"])
    return TowerAb(tuple(groups), matrices, spec.get("stabilization", "none"))


def telescope_elements(value) -> list:
    """An abelian tower's 'g' entry: an array of integer coordinate vectors."""
    return [tuple(_numbers(v, "an element of g", {int})) for v in _expect(value, list, "g")]


def load_json(path: str) -> dict:
    """The JSON object in the file; NaN, Infinity and -Infinity are rejected,
    and so are numbers such as 1e400 that overflow to them, and documents
    nested deeper than the parser's recursion allows."""
    def non_finite(constant):
        raise ParseError(f"{constant} is not a JSON number", path)

    try:
        with open(path) as fh:
            doc = json.load(fh, parse_constant=non_finite,
                            parse_float=lambda text: parse_number(text, path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"{path}:{exc.lineno}:{exc.colno}") from None
    except RecursionError:
        raise ParseError("the document is nested too deeply", path) from None
    except OSError as exc:
        raise ParseError(str(exc)) from None
    return _expect(doc, dict, f"the top level of {path}")
