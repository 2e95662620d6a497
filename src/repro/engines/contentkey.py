"""Content keys: stable hashes over the pipeline's static inputs.

The path cache (:mod:`repro.engines.pathcache`) keys every entry by a
blake2b digest of the *content* that determines the computation —
node position and antenna, tower/emitter layout, material stock,
obstruction map, frequency set, and (for RNG-consuming stages) the
exact generator state. Two calls with equal content produce equal
keys; mutating any static input — a tower moved, a material swapped,
a frequency added — changes the digest and forces a recompute. That
property is what lets cached results claim bit-identity.

Hashing walks the object graph into a byte stream (no intermediate
canonical string), with type tags so ``1`` and ``1.0`` and ``"1"``
never collide. Dataclasses hash as (qualified class name, field
values); numpy arrays as (dtype, shape, raw bytes). Anything the
walker cannot prove stable — a bare callable, an open file, an
arbitrary object — raises :class:`UncacheableValue`, and callers skip
the cache rather than risk a wrong hit.

The byte stream is a persisted format. Job keys
(:meth:`repro.runtime.jobs.CalibrationJob.content_key`) name the
``--cache-dir`` entries, which a stopped campaign resumes from, so
any change to a tag, a length prefix or a field order orphans every
cache written before it. ``tests/test_engines_contentkey.py`` pins
the stream with golden digests and a reference walker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Digest size for content keys (hex length 32).
_DIGEST_BYTES = 16

#: A float's record: the same 8 bytes as ``np.float64(x).tobytes()``.
_pack_float = struct.Struct("=d").pack
#: A length prefix: the same 8 bytes as ``n.to_bytes(8, "little")``.
_pack_len = struct.Struct("<Q").pack


class UncacheableValue(TypeError):
    """A value whose content cannot be hashed safely.

    Raised for callables and unknown object types. Call sites catch
    this and fall through to the uncached computation — a skipped
    cache is always correct; a mis-keyed one never is.
    """


# Each emitter appends one value's tagged records to ``out``; the
# chunks are hashed once, joined, in :func:`content_key`.


def _emit_none(obj: Any, out: List[bytes]) -> None:
    out.append(b"N")


def _emit_bool(obj: Any, out: List[bytes]) -> None:
    out.append(b"T" if obj else b"F")


def _emit_bytes(obj: Any, out: List[bytes]) -> None:
    out += (b"b", _pack_len(len(obj)), obj)


def _emit_str(obj: Any, out: List[bytes]) -> None:
    raw = obj.encode("utf-8")
    out += (b"s", _pack_len(len(raw)), raw)


def _emit_int(obj: Any, out: List[bytes]) -> None:
    raw = str(obj).encode("ascii")
    out += (b"i", _pack_len(len(raw)), raw)


def _emit_float(obj: Any, out: List[bytes]) -> None:
    out += (b"f", _pack_float(obj))


def _emit_array(obj: Any, out: List[bytes]) -> None:
    arr = np.ascontiguousarray(obj)
    out.append(b"a")
    _emit_str(str(arr.dtype), out)
    _emit_seq(arr.shape, out)
    out.append(arr.tobytes())


def _emit_generic(obj: Any, out: List[bytes]) -> None:
    out.append(b"g")
    _emit_str(str(obj.dtype), out)
    out.append(obj.tobytes())


def _emit_seq(obj: Any, out: List[bytes]) -> None:
    out += (b"l", _pack_len(len(obj)))
    for item in obj:
        emit = _EMITTERS.get(type(item))
        if emit is None:
            _walk(item, out)
        else:
            emit(item, out)


def _emit_dict(obj: Any, out: List[bytes]) -> None:
    out += (b"d", _pack_len(len(obj)))
    for key in sorted(obj, key=repr):
        _walk(key, out)
        _walk(obj[key], out)


def _emit_set(obj: Any, out: List[bytes]) -> None:
    out += (b"e", _pack_len(len(obj)))
    for item in sorted(obj, key=repr):
        _walk(item, out)


def _emit_token(obj: Any, out: List[bytes]) -> None:
    # Opt-in protocol: the object supplies the value that defines its
    # content (used to exclude runtime state like RNG caches).
    out.append(b"c")
    _emit_str(type(obj).__qualname__, out)
    _walk(obj.content_token(), out)


#: Emitters by *exact* type. A subclass misses here and takes the
#: ``isinstance`` chain in :func:`_walk_subclass`. ``bool`` has its own
#: entry, so it never reaches ``int``; ``np.float64`` subclasses
#: ``float`` and hashes as one, while other numpy scalars (``np.int64``,
#: ``np.bool_``) fall through to the ``np.generic`` test.
_EMITTERS: Dict[type, Callable[[Any, List[bytes]], None]] = {
    type(None): _emit_none,
    bool: _emit_bool,
    bytes: _emit_bytes,
    str: _emit_str,
    int: _emit_int,
    float: _emit_float,
    np.float64: _emit_float,
    np.ndarray: _emit_array,
    tuple: _emit_seq,
    list: _emit_seq,
    dict: _emit_dict,
    set: _emit_set,
    frozenset: _emit_set,
}

#: Per dataclass: its ``D`` tag and qualname record as one chunk,
#: then (field-name record, field name) per field. Built once per
#: class — ``dataclasses.fields`` rebuilds its tuple on every call.
_Header = Tuple[bytes, Tuple[Tuple[bytes, str], ...]]
_DATACLASS_HEADERS: Dict[type, _Header] = {}


def _dataclass_header(cls: type) -> _Header:
    header = _DATACLASS_HEADERS.get(cls)
    if header is None:
        prefix: List[bytes] = [b"D"]
        _emit_str(cls.__qualname__, prefix)
        fields = []
        for f in dataclasses.fields(cls):
            record: List[bytes] = []
            _emit_str(f.name, record)
            fields.append((b"".join(record), f.name))
        header = (b"".join(prefix), tuple(fields))
        _DATACLASS_HEADERS[cls] = header
    return header


def _emit_dataclass(obj: Any, header: _Header, out: List[bytes]) -> None:
    prefix, fields = header
    out.append(prefix)
    for record, name in fields:
        out.append(record)
        value = getattr(obj, name)
        emit = _EMITTERS.get(type(value))
        if emit is None:
            _walk(value, out)
        else:
            emit(value, out)


def _walk(obj: Any, out: List[bytes]) -> None:
    """Append one object's type-tagged records to ``out``."""
    emit = _EMITTERS.get(type(obj))
    if emit is not None:
        emit(obj, out)
        return
    # A cached header means the class already fell through every
    # builtin test below; only the per-instance token check remains.
    header = _DATACLASS_HEADERS.get(type(obj))
    if header is not None and not hasattr(obj, "content_token"):
        _emit_dataclass(obj, header, out)
    else:
        _walk_subclass(obj, out)


def _walk_subclass(obj: Any, out: List[bytes]) -> None:
    """The type tests, in tag-precedence order, for unlisted types.

    ``None`` and ``bool`` cannot be subclassed, so only the table
    sees them.
    """
    if isinstance(obj, bytes):
        _emit_bytes(obj, out)
    elif isinstance(obj, str):
        _emit_str(obj, out)
    elif isinstance(obj, int):
        _emit_int(obj, out)
    elif isinstance(obj, float):
        _emit_float(obj, out)
    elif isinstance(obj, np.ndarray):
        _emit_array(obj, out)
    elif isinstance(obj, np.generic):
        _emit_generic(obj, out)
    elif isinstance(obj, (tuple, list)):
        _emit_seq(obj, out)
    elif isinstance(obj, dict):
        _emit_dict(obj, out)
    elif isinstance(obj, (set, frozenset)):
        _emit_set(obj, out)
    elif hasattr(obj, "content_token"):
        _emit_token(obj, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _emit_dataclass(obj, _dataclass_header(type(obj)), out)
    else:
        raise UncacheableValue(
            f"cannot derive a content key for {type(obj).__qualname__}"
        )


def content_key(*parts: Any) -> str:
    """Blake2b digest (hex) over the content of ``parts``.

    Raises :class:`UncacheableValue` when any part contains a value
    whose content cannot be hashed (callables, unknown objects).
    """
    out: List[bytes] = []
    for part in parts:
        _walk(part, out)
    return hashlib.blake2b(
        b"".join(out), digest_size=_DIGEST_BYTES
    ).hexdigest()


def rng_state_token(rng: np.random.Generator) -> Tuple:
    """A hashable token of the generator's exact bit-stream position.

    Stages that consume randomness key their cache entries on this:
    equal state + equal content means the batched draws that follow
    are bit-identical, so the stage's outputs can be replayed and the
    saved post-state restored.
    """
    return _freeze(rng.bit_generator.state)


def capture_rng_state(rng: np.random.Generator):
    """The generator's state, for later :func:`restore_rng_state`."""
    return rng.bit_generator.state


def restore_rng_state(rng: np.random.Generator, state) -> None:
    """Advance ``rng`` to a previously captured post-stage state."""
    rng.bit_generator.state = state


def _freeze(obj: Any):
    """Recursively convert dict/list state into hashable tuples."""
    if isinstance(obj, dict):
        return tuple(
            (k, _freeze(v)) for k, v in sorted(obj.items())
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(v) for v in obj)
    if isinstance(obj, np.ndarray):
        return (str(obj.dtype), obj.shape, obj.tobytes())
    return obj
