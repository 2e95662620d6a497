"""Content-addressed result cache for calibration jobs.

Keys are :meth:`CalibrationJob.content_key` hashes — a function of
the node config, the world seed, the per-job seed, and the pipeline
version — so a hit is *definitionally* the same result the job would
recompute, and any config change misses naturally (no explicit
invalidation protocol needed).

Two tiers: an in-memory dict, and optionally a directory of
``<key>.json`` envelopes (via :mod:`repro.core.serialize`) so warm
results survive across processes and campaign runs. The directory is
also what a killed campaign resumes from. Disk writes are atomic: each
goes to its own uniquely named temp file and is renamed into place, so
campaigns sharing a directory may write one key at once. A corrupt or
unreadable entry is treated as a miss, never an error.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.network import NodeAssessment
from repro.core.serialize import (
    SHAPE_ERRORS,
    assessment_from_dict,
    assessment_to_dict,
)

#: Envelope schema version for on-disk entries.
CACHE_FORMAT = 1


class ResultCache:
    """Memory + optional JSON-on-disk cache of node assessments."""

    def __init__(
        self, cache_dir: Optional[Union[str, Path]] = None
    ) -> None:
        self._memory: Dict[str, NodeAssessment] = {}
        self._dir = Path(cache_dir) if cache_dir is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}.json"

    def get(self, key: str) -> Optional[NodeAssessment]:
        """The cached assessment for a content key, or ``None``."""
        cached = self._memory.get(key)
        if cached is None and self._dir is not None:
            cached = self._read_disk(key)
            if cached is not None:
                self._memory[key] = cached
        if cached is None:
            self.misses += 1
        else:
            self.hits += 1
        return cached

    def put(self, key: str, assessment: NodeAssessment) -> None:
        """Store an assessment under its content key."""
        self._memory[key] = assessment
        if self._dir is not None:
            self._write_disk(key, assessment)

    def _read_disk(self, key: str) -> Optional[NodeAssessment]:
        path = self._path(key)
        try:
            envelope = json.loads(path.read_text())
            if not isinstance(envelope, dict):
                return None
            if envelope.get("format") != CACHE_FORMAT:
                return None
            if envelope.get("key") != key:
                return None
            return assessment_from_dict(envelope["assessment"])
        except (OSError, *SHAPE_ERRORS):
            return None  # unreadable/corrupt/mis-shaped entry == miss

    def _write_disk(self, key: str, assessment: NodeAssessment) -> None:
        envelope = {
            "format": CACHE_FORMAT,
            "key": key,
            "node_id": assessment.node_id,
            "assessment": assessment_to_dict(assessment),
        }
        path = self._path(key)
        tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_text(json.dumps(envelope))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def __len__(self) -> int:
        return len(self._memory)
