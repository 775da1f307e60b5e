"""JSON file formats: systems (float or exact entries), vectors, quotient
specifications, virtually-free group data, and subgroup dumps.

Omitted map entries are zero maps; "e" or the empty string denotes the
identity word.  Exact files declare a radicand and write scalars as strings
like "1/2", "1/3*rt", or "1/2+1/3*rt", rt standing for the square root of
the radicand.
"""

from __future__ import annotations

import cmath
import json
import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

import numpy as np

from ._exact import ExactSystem, ExactVector, QuadExt
from .errors import ValidationError
from .multrep import MultVector, RepSpace
from .subgroups import (CosetTable, FiniteGroup, SchreierData,
                        coset_table_from_quotient)
from .system import FormTuple, MatrixSystem
from .vfree import FreeProduct, VFGroupDatum, psl2z_datum
from .words import DEFAULT_CAP, Alphabet, Word


def _entry_to_complex(entry, path: str, field: str) -> complex:
    """A number or [re, im], finite: JSON's NaN, Infinity and 1e400 are rejected."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if not all(isinstance(part, (int, float)) for part in parts):
        raise ValidationError(
            f"{path}: field {field!r} has bad entry {entry!r}: expected a number or [re, im]")
    try:
        value = complex(*parts)
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ValidationError(f"{path}: field {field!r} has non-finite entry {entry!r}")


def _complex_to_entry(z: complex):
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


_RAT = r"-?\d+(?:/\d*[1-9]\d*)?"
_EXACT_RE = re.compile(rf"^({_RAT})?(?:(?:(?<=.)\+)?({_RAT})\*rt)?$")


def _parse_exact(entry: str, radicand) -> QuadExt:
    text = str(entry).replace(" ", "")
    try:
        return QuadExt(Fraction(text), 0, radicand)
    except (ValueError, ZeroDivisionError):
        pass
    m = _EXACT_RE.match(text)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ValidationError(f"bad exact entry {entry!r}")
    a = Fraction(m.group(1)) if m.group(1) else Fraction(0)
    b = Fraction(m.group(2)) if m.group(2) else Fraction(0)
    return QuadExt(a, b, radicand)


def _read_json(path: str) -> dict:
    """The top-level object of a JSON file; malformed text is a
    ``ValidationError`` naming the file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:
            raise ValidationError(f"{path}: invalid JSON ({err})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return doc


def _require(doc: dict, key: str, path: str):
    try:
        return doc[key]
    except KeyError:
        raise ValidationError(f"{path}: missing field {key!r}") from None


#: the largest letter dimension or cyclic order: a form or group table holds its square
_MAX_ORDER = int(DEFAULT_CAP ** 0.5)


def _int(value, path: str, field: str, lo: float = -cmath.inf, hi: float = cmath.inf) -> int:
    """A JSON integer in [lo, hi]; floats, booleans and numeric strings fail."""
    if type(value) is not int:
        raise ValidationError(f"{path}: field {field!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise ValidationError(f"{path}: field {field!r} must lie in [{lo}, {hi}], got {value}")
    return value


def _list(doc: dict, key: str, path: str, item=object) -> list:
    """A required JSON list whose entries are all of type ``item``."""
    value = _require(doc, key, path)
    if not isinstance(value, list) or not all(isinstance(v, item) for v in value):
        raise ValidationError(f"{path}: field {key!r} must be a JSON list"
                              + ("" if item is object else f" of {item.__name__} entries"))
    return value


def _table(doc: dict, key: str, path: str) -> dict:
    """An optional field holding a JSON object keyed by name; absent or null
    reads as empty."""
    table = {} if doc.get(key) is None else doc[key]
    if not isinstance(table, dict):
        raise ValidationError(f"{path}: field {key!r} must be a JSON object")
    return table


def load_system(path: str) -> Tuple[MatrixSystem, Optional[FormTuple], Optional[ExactSystem]]:
    """Read a system file; returns the float system, its forms when present,
    and the exact shadow when the file declares exact entries."""
    doc = _read_json(path)
    names, pairs = _list(doc, "alphabet", path), _list(doc, "involution", path)
    try:
        alphabet = Alphabet(names, pairs)
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from None
    n = len(alphabet)
    dims_doc = doc.get("dims")
    if not isinstance(dims_doc, dict):
        raise ValidationError(f"{path}: system file needs a 'dims' table keyed by letter name")
    dims = [0] * n
    for name, d in dims_doc.items():
        dims[alphabet.letter(name)] = _int(d, path, f"dims.{name}", 0, _MAX_ORDER)

    exact = bool(doc.get("exact"))
    try:
        radicand = Fraction(str(doc.get("radicand", 1)))
    except (ValueError, ZeroDivisionError):
        radicand = None
    if radicand is None or radicand <= 0:
        raise ValidationError(
            f"{path}: field 'radicand' must be a positive rational, got {doc.get('radicand')!r}")

    def parse_matrix(rows, shape, field: str) -> Tuple[np.ndarray, Optional[tuple]]:
        if (not isinstance(rows, list) or len(rows) != shape[0]
                or any(not isinstance(r, list) or len(r) != shape[1] for r in rows)):
            raise ValidationError(f"{path}: field {field!r} has wrong shape, expected {shape}")
        if exact:
            q = tuple(tuple(_parse_exact(e, radicand) for e in row) for row in rows)
            try:
                f = np.array([[float(e) for e in row] for row in q], dtype=np.complex128)
            except OverflowError:
                raise ValidationError(f"{path}: field {field!r} has an entry beyond the "
                                      "float range") from None
            return f, q
        f = np.array([[_entry_to_complex(e, path, field) for e in row] for row in rows],
                     dtype=np.complex128)
        return f, None

    maps: Dict[Tuple[int, int], np.ndarray] = {}
    exact_maps = {}
    for key, rows in _table(doc, "maps", path).items():
        try:
            bn, an = key.split("|")
        except ValueError:
            raise ValidationError(f"map key {key!r} must look like 'b|a'") from None
        b, a = alphabet.letter(bn), alphabet.letter(an)
        m, q = parse_matrix(rows, (dims[b], dims[a]), f"maps.{key}")
        maps[(b, a)] = m
        if q is not None:
            exact_maps[(b, a)] = q

    forms = None
    exact_forms = {}
    if doc.get("forms"):
        mats = [np.zeros((d, d), dtype=np.complex128) for d in dims]
        for name, rows in _table(doc, "forms", path).items():
            a = alphabet.letter(name)
            m, q = parse_matrix(rows, (dims[a], dims[a]), f"forms.{name}")
            mats[a] = m
            if q is not None:
                exact_forms[a] = q
        forms = FormTuple(mats)

    system = MatrixSystem(alphabet, dims, maps)
    exact_system = None
    if exact:
        if forms is None:
            raise ValidationError("exact system files must carry forms")
        exact_system = ExactSystem(alphabet, dims, exact_maps, exact_forms, radicand)
    return system, forms, exact_system


def save_system(path: str, system: MatrixSystem, forms: Optional[FormTuple] = None) -> None:
    alphabet = system.alphabet
    names = alphabet.names
    pairs = []
    seen = set()
    for i, j in enumerate(alphabet.inv):
        if i not in seen:
            pairs.append([names[i], names[j]])
            seen.update((i, j))
    doc = {
        "alphabet": list(names),
        "involution": pairs,
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
    depth, values = _int(doc.get("depth", 0), path, "depth"), {}
    for text, entries in _table(doc, "values", path).items():
        w = Word.parse(alphabet, text)
        if not isinstance(entries, list):
            raise ValidationError(f"{path}: field 'values.{text}' must be a list of entries")
        values[w] = [entry(e, f"values.{text}") for e in entries]
    return depth, values


def load_vector(path: str, space: RepSpace) -> MultVector:
    depth, values = _vector_doc(path, space.alphabet, lambda e, fd: _entry_to_complex(e, path, fd))
    return MultVector(space, depth, {w: np.array(v, np.complex128) for w, v in values.items()})


def load_exact_vector(path: str, exact_system: ExactSystem) -> ExactVector:
    depth, values = _vector_doc(path, exact_system.alphabet,
                                lambda e, _: _parse_exact(str(e), exact_system.radicand))
    return ExactVector(exact_system, depth, {w: tuple(v) for w, v in values.items()})


def load_quotient(path: str, alphabet: Alphabet) -> CosetTable:
    """Quotient specification: a finite group (cyclic order or multiplication
    table) and letter images; the subgroup is the kernel."""
    doc = _read_json(path)
    spec = doc.get("quotient")
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: quotient file needs a 'quotient' object")
    if "cyclic" in spec:
        group = FiniteGroup.cyclic(_int(spec["cyclic"], path, "quotient.cyclic", 1, _MAX_ORDER))
    elif "table" in spec:
        table = spec["table"]
        n = len(table) if isinstance(table, list) else 0
        if not n or not all(isinstance(row, list) and len(row) == n
                            and all(type(e) is int and 0 <= e < n for e in row) for row in table):
            raise ValidationError(f"{path}: field 'quotient.table' must be a square list of "
                                  "lists of element indices")
        group = FiniteGroup(table)
    else:
        raise ValidationError(f"{path}: quotient needs either 'cyclic' or 'table' order data")
    images_doc = spec.get("images")
    if not isinstance(images_doc, dict):
        raise ValidationError(f"{path}: quotient needs an 'images' table keyed by letter name")
    images = {alphabet.letter(name): _int(v, path, f"quotient.images.{name}")
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


def load_vf_datum(path_or_name: str) -> VFGroupDatum:
    if path_or_name == "psl2z":
        return psl2z_datum()
    path = path_or_name
    doc = _read_json(path)
    group = FreeProduct([_int(m, path, "factors") for m in _list(doc, "factors", path)],
                        _list(doc, "generators", path, str))
    transversal = [group.parse(t) for t in _list(doc, "transversal", path, str)]
    elements = [group.parse(t) for t in _list(doc, "free_basis", path, str)]
    alphabet = Alphabet.rank(len(elements))
    basis = [e for el in elements for e in (el, group.inverse(el))]
    t_pos = {group.format(t): i for i, t in enumerate(transversal)}
    gen_pos = {nm: i for i, nm in enumerate(group.names)}
    table = {}
    _require(doc, "table", path)
    for key, val in _table(doc, "table", path).items():
        try:
            t_txt, s_txt = key.split("|")
            table[(t_pos[t_txt], gen_pos[s_txt])] = (Word.parse(alphabet, val[1]), t_pos[val[0]])
        except (KeyError, IndexError, TypeError, ValueError):
            raise ValidationError(f"{path}: bad table entry {key!r}: {val!r}") from None
    return VFGroupDatum(group, transversal, alphabet, basis, table,
                        name=doc.get("name", ""))
