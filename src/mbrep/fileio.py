"""JSON file formats: systems (float or exact entries), vectors, quotient
specifications, virtually-free group data, and subgroup dumps.

Omitted map entries are zero maps; "e" or the empty string denotes the
identity word.  Files with exact entries declare a radicand and write
scalars as strings like "1/2", "1/3*rt", or "1/2+1/3*rt", rt standing for
the square root of the radicand; they load as floats.  Every ``ValidationError`` a loader
raises names the file.
"""

from __future__ import annotations

import cmath
import functools
import json
import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ValidationError
from .multrep import MultVector, RepSpace
from .subgroups import (CosetTable, FiniteGroup, SchreierData,
                        coset_table_from_quotient)
from .system import FormTuple, MatrixSystem
from .vfree import FreeProduct, VFGroupDatum, psl2z_datum
from .words import DEFAULT_CAP, Alphabet, Word


def _names_file(load):
    """Prefix the file's path to every ``ValidationError`` that ``load``
    raises, so that each message names the bad file."""
    @functools.wraps(load)
    def named(path, *args):
        try:
            return load(path, *args)
        except ValidationError as err:
            raise ValidationError(f"{path}: {err}") from None
    return named


def _entry_to_complex(entry, field: str) -> complex:
    """A number or [re, im], finite: JSON's NaN, Infinity and 1e400 are rejected."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if not all(isinstance(part, (int, float)) for part in parts):
        raise ValidationError(
            f"field {field!r} has bad entry {entry!r}: expected a number or [re, im]")
    try:
        value = complex(*parts)
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ValidationError(f"field {field!r} has non-finite entry {entry!r}")


def _complex_to_entry(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


_RAT = r"-?\d+(?:/\d*[1-9]\d*)?"
#: b*rt or a+b*rt; between a and b stands a '+' or the sign of b
_EXACT_RE = re.compile(rf"^(?:({_RAT})(?:\+|(?=-)))?({_RAT})\*rt$")


def _parse_exact(entry) -> Tuple[Fraction, Fraction]:
    """The rationals (a, b) of an exact entry: a rational a, or b*rt, or a+b*rt."""
    text = str(entry).replace(" ", "")
    try:
        return Fraction(text), Fraction(0)
    except (ValueError, ZeroDivisionError):
        pass
    m = _EXACT_RE.match(text)
    if not m:
        raise ValidationError(f"bad exact entry {entry!r}")
    return Fraction(m.group(1) or 0), Fraction(m.group(2))


def _read_json(path: str) -> dict:
    """The top-level object of a JSON file; malformed text is a
    ``ValidationError``."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise ValidationError(f"invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ValidationError("top level must be a JSON object")
    return doc


def _require(doc: dict, key: str):
    try:
        return doc[key]
    except KeyError:
        raise ValidationError(f"missing field {key!r}") from None


#: the largest letter dimension or cyclic order: a form or group table holds its square
_MAX_ORDER = int(DEFAULT_CAP ** 0.5)


def _int(value, field: str, lo: float = -cmath.inf, hi: float = cmath.inf) -> int:
    """A JSON integer in [lo, hi]; floats, booleans and numeric strings fail."""
    if type(value) is not int:
        raise ValidationError(f"field {field!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValidationError(f"field {field!r} must lie in [{lo}, {hi}], got {value}")
    return value


def _list(doc: dict, key: str, item=object) -> list:
    """A required JSON list whose entries are all of type ``item``."""
    value = _require(doc, key)
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ValidationError(f"field {key!r} must be a JSON list"
                              + ("" if item is object else f" of {item.__name__} entries"))
    return value


def _table(doc: dict, key: str) -> dict:
    """An optional field holding a JSON object keyed by name; absent or null
    reads as empty."""
    table = {} if doc.get(key) is None else doc[key]
    if not isinstance(table, dict):
        raise ValidationError(f"field {key!r} must be a JSON object")
    return table


@_names_file
def load_system(path: str) -> Tuple[MatrixSystem, Optional[FormTuple]]:
    """Read a system file; returns the float system and its forms when
    present.  An exact entry a + b*rt loads as the float
    float(a) + float(b) * sqrt(radicand)."""
    doc = _read_json(path)
    alphabet = Alphabet(_list(doc, "alphabet"), _list(doc, "involution"))
    n = len(alphabet)
    dims_doc = doc.get("dims")
    if not isinstance(dims_doc, dict):
        raise ValidationError("system file needs a 'dims' table keyed by letter name")
    dims = [0] * n
    for name, d in dims_doc.items():
        dims[alphabet.letter(name)] = _int(d, f"dims.{name}", 0, _MAX_ORDER)

    exact = bool(doc.get("exact"))
    try:
        radicand = Fraction(str(doc.get("radicand", 1)))
    except (ValueError, ZeroDivisionError):
        radicand = None
    if radicand is None or radicand <= 0:
        raise ValidationError(
            f"field 'radicand' must be a positive rational, got {doc.get('radicand')!r}")

    def parse_matrix(rows, shape, field: str) -> np.ndarray:
        if (not isinstance(rows, list) or len(rows) != shape[0]
                or any(not isinstance(r, list) or len(r) != shape[1] for r in rows)):
            raise ValidationError(f"field {field!r} has wrong shape, expected {shape}")
        if not exact:
            return np.array([[_entry_to_complex(e, field) for e in row] for row in rows],
                            dtype=np.complex128)
        parts = [[_parse_exact(e) for e in row] for row in rows]
        try:
            m = np.array([[float(a) + float(b) * float(radicand) ** 0.5 for a, b in row]
                          for row in parts], dtype=np.complex128)
        except OverflowError:
            m = None
        if m is None or not np.isfinite(m).all():
            raise ValidationError(f"field {field!r} has an entry beyond the float range")
        return m

    maps: Dict[Tuple[int, int], np.ndarray] = {}
    for key, rows in _table(doc, "maps").items():
        try:
            bn, an = key.split("|")
        except ValueError:
            raise ValidationError(f"map key {key!r} must look like 'b|a'") from None
        b, a = alphabet.letter(bn), alphabet.letter(an)
        maps[(b, a)] = parse_matrix(rows, (dims[b], dims[a]), f"maps.{key}")

    forms = None
    if doc.get("forms"):
        mats = [np.zeros((d, d), dtype=np.complex128) for d in dims]
        for name, rows in _table(doc, "forms").items():
            a = alphabet.letter(name)
            mats[a] = parse_matrix(rows, (dims[a], dims[a]), f"forms.{name}")
        forms = FormTuple(mats)

    system = MatrixSystem(alphabet, dims, maps)
    if exact and forms is None:
        raise ValidationError("exact system files must carry forms")
    return system, forms


def save_system(path: str, system: MatrixSystem, forms: Optional[FormTuple] = None) -> None:
    alphabet = system.alphabet
    names = alphabet.names
    doc = {
        "alphabet": list(names),
        "involution": [[names[i], names[j]] for i, j in enumerate(alphabet.inv) if i < j],
        "dims": {names[a]: system.dims[a] for a in range(len(alphabet))},
        "maps": {},
    }
    for b, a, m in system.nonzero_pairs():
        doc["maps"][f"{names[b]}|{names[a]}"] = [[_complex_to_entry(z) for z in row]
                                                 for row in m.tolist()]
    if forms is not None:
        doc["forms"] = {names[a]: [[_complex_to_entry(z) for z in row]
                                   for row in forms[a].tolist()]
                        for a in range(len(alphabet))}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _vector_doc(path: str, alphabet: Alphabet, entry) -> Tuple[int, dict]:
    """The depth of a vector file and its values, word -> list of entries,
    each read by ``entry(e, field)``."""
    doc = _read_json(path)
    depth, values = _int(doc.get("depth", 0), "depth"), {}
    for text, entries in _table(doc, "values").items():
        w = Word.parse(alphabet, text)
        if not isinstance(entries, list):
            raise ValidationError(f"field 'values.{text}' must be a list of entries")
        values[w] = [entry(e, f"values.{text}") for e in entries]
    return depth, values


@_names_file
def load_vector(path: str, space: RepSpace) -> MultVector:
    return MultVector(space, *_vector_doc(path, space.alphabet, _entry_to_complex))


@_names_file
def load_quotient(path: str, alphabet: Alphabet) -> CosetTable:
    """Quotient specification: a finite group (cyclic order or multiplication
    table) and letter images; the subgroup is the kernel."""
    doc = _read_json(path)
    spec = doc.get("quotient")
    if not isinstance(spec, dict):
        raise ValidationError("quotient file needs a 'quotient' object")
    if "cyclic" in spec:
        group = FiniteGroup.cyclic(_int(spec["cyclic"], "quotient.cyclic", 1, _MAX_ORDER))
    elif "table" in spec:
        table = spec["table"]
        n = len(table) if isinstance(table, list) else 0
        if not n or not all(isinstance(row, list) and len(row) == n
                            and all(type(e) is int and 0 <= e < n for e in row) for row in table):
            raise ValidationError("field 'quotient.table' must be a square list of "
                                  "lists of element indices")
        group = FiniteGroup(table)
    else:
        raise ValidationError("quotient needs either 'cyclic' or 'table' order data")
    images_doc = spec.get("images")
    if not isinstance(images_doc, dict):
        raise ValidationError("quotient needs an 'images' table keyed by letter name")
    images = {alphabet.letter(name): _int(v, f"quotient.images.{name}")
              for name, v in images_doc.items()}
    return coset_table_from_quotient(alphabet, group, images)


def dump_schreier(path: str, data: SchreierData) -> None:
    names = data.table.alphabet.names
    doc = {
        "index": data.index,
        "rank": data.rank,
        "transversal": [str(t) for t in data.transversal],
        "generators": {data.subgroup_alphabet.names[j]: str(w)
                       for j, w in enumerate(data.generator_words)},
        "pairs": {names[a]: [[str(data.transversal[u]), data.subgroup_alphabet.names[j]]
                             for u, j in data.pairs[a]]
                  for a in range(len(names))},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


@_names_file
def load_vf_datum(path_or_name: str) -> VFGroupDatum:
    if path_or_name == "psl2z":
        return psl2z_datum()
    doc = _read_json(path_or_name)
    group = FreeProduct([_int(m, "factors") for m in _list(doc, "factors")],
                        _list(doc, "generators", str))
    transversal = [group.parse(t) for t in _list(doc, "transversal", str)]
    elements = [group.parse(t) for t in _list(doc, "free_basis", str)]
    alphabet = Alphabet.rank(len(elements))
    basis = [e for el in elements for e in (el, group.inverse(el))]
    t_pos = {group.format(t): i for i, t in enumerate(transversal)}
    gen_pos = {nm: i for i, nm in enumerate(group.names)}
    table = {}
    _require(doc, "table")
    for key, val in _table(doc, "table").items():
        try:
            t_txt, s_txt = key.split("|")
            table[(t_pos[t_txt], gen_pos[s_txt])] = (Word.parse(alphabet, val[1]), t_pos[val[0]])
        except (KeyError, IndexError, TypeError, ValueError):
            raise ValidationError(f"bad table entry {key!r}: {val!r}") from None
    return VFGroupDatum(group, transversal, alphabet, basis, table,
                        name=doc.get("name", ""))
