"""Content keys: stable hashes over the pipeline's static inputs.

The path cache (:mod:`repro.engines.pathcache`) keys every entry by a
blake2b digest of the *content* that determines the computation —
node position and antenna, tower/emitter layout, material stock,
obstruction map, frequency set, and (for RNG-consuming stages) the
exact generator state. Two calls with equal content produce equal
keys; mutating any static input — a tower moved, a material swapped,
a frequency added — changes the digest and forces a recompute. That
property is what lets cached results claim bit-identity.

Hashing walks the object graph directly into the hasher (no
intermediate canonical string), with type tags so ``1`` and ``1.0``
and ``"1"`` never collide. Dataclasses hash as (qualified class name,
field values); numpy arrays as (dtype, shape, raw bytes). Anything
the walker cannot prove stable — a bare callable, an open file, an
arbitrary object — raises :class:`UncacheableValue`, and callers skip
the cache rather than risk a wrong hit.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Tuple

import numpy as np

#: Digest size for content keys (hex length 32).
_DIGEST_BYTES = 16

#: Per-class field lists, memoized — ``dataclasses.fields`` rebuilds
#: the tuple on every call, and hashing walks many instances.
_FIELDS_BY_CLASS: dict = {}


def _class_fields(cls):
    cached = _FIELDS_BY_CLASS.get(cls)
    if cached is None:
        cached = tuple(
            (f.name, f) for f in dataclasses.fields(cls)
        )
        _FIELDS_BY_CLASS[cls] = cached
    return cached


class UncacheableValue(TypeError):
    """A value whose content cannot be hashed safely.

    Raised for callables and unknown object types. Call sites catch
    this and fall through to the uncached computation — a skipped
    cache is always correct; a mis-keyed one never is.
    """


def _update(h, obj: Any) -> None:
    """Feed one object (recursively) into the hasher, type-tagged."""
    if obj is None:
        h.update(b"N")
    elif obj is True:
        h.update(b"T")
    elif obj is False:
        h.update(b"F")
    elif isinstance(obj, bytes):
        h.update(b"b")
        h.update(len(obj).to_bytes(8, "little"))
        h.update(obj)
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"s")
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    elif isinstance(obj, int):
        h.update(b"i")
        raw = str(obj).encode("ascii")
        h.update(len(raw).to_bytes(8, "little"))
        h.update(raw)
    elif isinstance(obj, float):
        h.update(b"f")
        h.update(np.float64(obj).tobytes())
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(b"a")
        _update(h, str(arr.dtype))
        _update(h, arr.shape)
        h.update(arr.tobytes())
    elif isinstance(obj, np.generic):
        h.update(b"g")
        _update(h, str(obj.dtype))
        h.update(obj.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"l")
        h.update(len(obj).to_bytes(8, "little"))
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(b"d")
        h.update(len(obj).to_bytes(8, "little"))
        for key in sorted(obj, key=repr):
            _update(h, key)
            _update(h, obj[key])
    elif isinstance(obj, (set, frozenset)):
        h.update(b"e")
        h.update(len(obj).to_bytes(8, "little"))
        for item in sorted(obj, key=repr):
            _update(h, item)
    elif hasattr(obj, "content_token"):
        # Opt-in protocol: the object supplies the value that defines
        # its content (used to exclude runtime state like RNG caches).
        h.update(b"c")
        _update(h, type(obj).__qualname__)
        _update(h, obj.content_token())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D")
        _update(h, type(obj).__qualname__)
        for name, _f in _class_fields(type(obj)):
            _update(h, name)
            _update(h, getattr(obj, name))
    else:
        raise UncacheableValue(
            f"cannot derive a content key for {type(obj).__qualname__}"
        )


def content_key(*parts: Any) -> str:
    """Blake2b digest (hex) over the content of ``parts``.

    Raises :class:`UncacheableValue` when any part contains a value
    whose content cannot be hashed (callables, unknown objects).
    """
    import hashlib

    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in parts:
        _update(h, part)
    return h.hexdigest()


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
