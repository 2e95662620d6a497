"""JSON-friendly serialization of calibration results.

A crowd-sourced network ships scans and reports between nodes and the
cloud; these converters produce plain dict/JSON structures (and read
them back) so results can be stored, diffed, and audited. Round-trip
fidelity is tested for every record type.

Each persisted record type is declared once, as a :class:`Record`: a
table of :class:`Field` rows, one per JSON key, each naming where the
value lives on the object, how it is written and read (its codec) and,
for keys older files lack, the value to read in their place. At import
every table is compiled, the way :mod:`dataclasses` compiles
``__init__``, into plain functions: ``<name>_to_dict``,
``<name>_from_dict`` and, for the records on the campaign path, a
method of the campaign writer. A new persisted field is one table row.

:func:`network_to_json` and :func:`assessment_to_json` return the text
of ``json.dumps`` of the ``*_to_dict`` records. ``repro fleet --json``
writes campaign files with ``indent=2``, a persisted format; the
default layout is what the repository benchmark encodes per campaign.
Readers parse the JSON and do not depend on the layout; the bytes are
pinned so that files written before and after a change stay diffable.
For those two layouts the functions write the text directly (see the
campaign writer below); ``tests/test_core_serialize_writer.py``
compares them with ``json.dumps`` and pins two standard campaigns by
sha256 in each.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.adsb.icao import IcaoAddress
from repro.core.abs_power import AbsolutePowerCalibration
from repro.core.classify import Classification, InstallationFeatures
from repro.core.fov import FieldOfViewEstimate
from repro.core.frequency import BandMeasurement, FrequencyProfile
from repro.core.network import (
    AssessmentFailure,
    NetworkAssessments,
    NodeAssessment,
    TrustAssessment,
    TrustCheck,
)
from repro.core.observations import AircraftObservation, DirectionalScan
from repro.core.report import BandGrade, CalibrationReport, ClaimViolation
from repro.geo.coords import GeoPoint
from repro.interference.collisions import CollisionStats

#: What the ``*_from_dict`` readers raise on valid JSON of the wrong
#: shape: a list or number where an object belongs, a missing key, a
#: value of the wrong type, a number too large for a float. Readers of
#: stored state catch these.
SHAPE_ERRORS = (
    AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError
)


# -- field tables ------------------------------------------------------------


class Leaf(NamedTuple):
    """Codec of a value that is not a record.

    Each member is a source template applied to the source text of the
    value: ``write`` gives the JSON-ready value, ``load`` the value read
    back, and ``text`` its JSON text in the campaign writer, which has
    ``number`` (the writer's float memo) in scope. ``text=None`` leaves
    the value to ``json.dumps`` of ``write``.
    """

    write: str = "{}"
    load: str = "{}"
    text: Optional[str] = "_scalar_text({})"

    def to(self, value: str) -> str:
        return self.write.format(value)

    def read(self, value: str) -> str:
        return self.load.format(value)


#: A string, bool or ``None``, kept as it is.
VALUE = Leaf()
#: A float field (``None``, ints and ``np.float64`` pass through too).
NUMBER = Leaf(text="number({})")
#: A count: read back only from an int or an integral float.
COUNT = Leaf(load="_count({})")
ICAO = Leaf("str({})", "IcaoAddress.from_hex({})", "_str_text(str({}))")
ICAOS = Leaf(
    "[str(g) for g in {}]", "[IcaoAddress.from_hex(g) for g in {}]", None
)
FLAGS = Leaf("list({})", "[bool(f) for f in {}]", None)
FLOATS = Leaf("list({})", "[float(r) for r in {}]", None)
MAPPING = Leaf("dict({})", "dict({})", None)


class One(NamedTuple):
    """Codec of a nested record; ``optional`` also admits ``None``."""

    record: "Record"
    optional: bool = False

    def to(self, value: str) -> str:
        call = f"{self.record.name}_to_dict({value})"
        if self.optional:
            return f"({call} if {value} is not None else None)"
        return call

    def read(self, value: str) -> str:
        call = f"{self.record.name}_from_dict({value})"
        if self.optional:
            return f"({call} if {value} is not None else None)"
        return call


class Many(NamedTuple):
    """Codec of a list of records."""

    record: "Record"

    def to(self, value: str) -> str:
        return f"[{self.record.name}_to_dict(x) for x in {value}]"

    def read(self, value: str) -> str:
        return f"[{self.record.name}_from_dict(x) for x in {value}]"


class Keyed(NamedTuple):
    """Codec of a mapping of id -> record, written in id order."""

    record: "Record"

    def to(self, value: str) -> str:
        item = f"{self.record.name}_to_dict(x)"
        return "{k: " + item + f" for k, x in sorted({value}.items())}}"

    def read(self, value: str) -> str:
        item = f"{self.record.name}_from_dict(x)"
        return "{k: " + item + f" for k, x in {value}.items()}}"


_REQUIRED = object()


class Field(NamedTuple):
    """One JSON key of a record.

    ``get`` is a source template applied to the record object (the
    attribute of the same name by default). ``default`` is read when
    the key is missing, for files written before the field existed;
    without one the key is required. ``write_only`` fields are derived
    and never read back. ``omit_empty`` leaves the key out when the
    value is empty; such fields come last.
    """

    key: str
    codec: Any
    get: str = ""
    default: Any = _REQUIRED
    write_only: bool = False
    omit_empty: bool = False

    def value(self, obj: str) -> str:
        return (self.get or "{}." + self.key).format(obj)


class Record:
    """A persisted record type: its constructor and its field table.

    ``build`` is called with one keyword argument per read field; it is
    ``None`` for records that are only ever written. ``direct`` records
    are formatted by the campaign writer itself, which hands every
    other record to ``json.dumps``. The compiled converters
    (:attr:`converters`) reach each other's functions by their
    module-level names, which the end of this module binds, so a
    wrapper installed on one (a tracer, a mock) sees every call.
    """

    def __init__(
        self, name: str, build: Any, *fields: Field, direct: bool = False
    ) -> None:
        assert all(f.key.isidentifier() for f in fields), name
        self.name, self.build, self.fields = name, build, fields
        self.direct = direct
        self.converters: Tuple[Callable[..., Any], ...] = (
            _compile(f"{name}_to_dict", _to_dict_source(self)),
        )
        if build is not None:
            self.converters += (
                _compile(f"{name}_from_dict", _from_dict_source(self)),
            )
        if direct:
            setattr(
                _DocumentWriter, name, _compile(name, _writer_source(self))
            )

    @property
    def flat(self) -> bool:
        """Whether the writer can format it inside one expression."""
        return all(
            not f.omit_empty
            and (
                (isinstance(f.codec, Leaf) and f.codec.text is not None)
                or (
                    isinstance(f.codec, One)
                    and f.codec.record.direct
                    and f.codec.record.flat
                )
            )
            for f in self.fields
        )


def _compile(name: str, source: str) -> Callable[..., Any]:
    namespace: Dict[str, Any] = {}
    exec(source, globals(), namespace)
    return namespace[name]


def _to_dict_source(record: Record) -> str:
    kept = [f for f in record.fields if not f.omit_empty]
    omitted = record.fields[len(kept):]
    assert all(f.omit_empty for f in omitted), "omitted keys come last"
    members = ", ".join(
        f"{_str_text(f.key)}: {f.codec.to(f.value('obj'))}" for f in kept
    )
    lines = [f"def {record.name}_to_dict(obj):", f"    out = {{{members}}}"]
    lines += [
        f"    if {f.value('obj')}: out[{_str_text(f.key)}] = "
        + f.codec.to(f.value("obj"))
        for f in omitted
    ]
    return "\n".join(lines + ["    return out"])


def _from_dict_source(record: Record) -> str:
    assert globals()[record.build.__name__] is record.build, record.name
    args = [
        f"{f.key}="
        + f.codec.read(
            f"data[{_str_text(f.key)}]"
            if f.default is _REQUIRED
            else f"data.get({_str_text(f.key)}, {f.default!r})"
        )
        for f in record.fields
        if not f.write_only
    ]
    return (
        f"def {record.name}_from_dict(data):\n"
        f"    return {record.build.__name__}({', '.join(args)})"
    )


def _count(value: Any) -> int:
    """A stored count: an int, or a float with an integral value."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"not a count: {value!r}")


def _network(
    assessments: Dict[str, NodeAssessment],
    failures: Dict[str, AssessmentFailure],
    metrics: Dict[str, Any],
) -> NetworkAssessments:
    out = NetworkAssessments(assessments)
    out.failures = failures
    out.metrics = metrics
    return out


# -- the campaign writer -----------------------------------------------------
#
# Emits the bytes of ``json.dumps`` of the ``*_to_dict`` records, in the
# default layout or an indented one, straight from the objects along the
# network -> assessment -> report -> scan -> observation chain, and
# through band measurements and grades (the ``direct`` records); the
# other records go through ``json.dumps`` of their ``*_to_dict``. A
# campaign repeats the same aircraft positions once per node (§3.1 joins
# every node against one ground-truth snapshot), co-sited nodes repeat
# arrival geometry and every node repeats the band frequencies, so the
# writer formats each distinct float once per document instead of once
# per leaf.

_str_text = json.encoder.encode_basestring_ascii


def _scalar_text(value: Any) -> str:
    """``json.dumps(value)`` of a leaf; common types skip the encoder."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is str:
        return _str_text(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value)


class _FloatTexts(Dict[float, str]):
    """Exact-``float`` value -> its JSON text, formatted on first use.

    Only ever indexed with exact floats. Zeros are never stored
    (``0.0 == -0.0``, but they print differently), nor are non-finite
    values (they print as ``NaN`` and ``Infinity``).
    """

    def __missing__(self, value: float) -> str:
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        text = float.__repr__(value)
        if value:
            self[value] = text
        return text


def _writer(json_kwargs: Dict[str, Any]) -> Optional["_DocumentWriter"]:
    """The writer for these ``json.dumps`` arguments, if it has one.

    It covers no arguments and ``indent`` alone (as ``json.dumps``
    does, an int indents by that many spaces and ``None`` means the
    default layout); anything else is left to ``json.dumps``.
    """
    if json_kwargs.keys() - {"indent"}:
        return None
    indent = json_kwargs.get("indent")
    if indent is not None and not isinstance(indent, str):
        indent = " " * indent
    return _DocumentWriter(indent)


class _DocumentWriter:
    """Writes one document in ``json.dumps`` layout.

    ``indent`` is ``None`` for the default layout, or the text of one
    indent level, as ``json.dumps(..., indent=...)`` uses it. Each
    ``direct`` record adds a method of its name (``network``,
    ``assessment``, ...), compiled from its table, which takes the
    record and its nesting depth (only an indented layout needs it).
    The float memo lives as long as the writer, i.e. one document;
    every value that is not an exact float goes through
    :func:`_scalar_text`.
    """

    network: Callable[..., str]
    assessment: Callable[..., str]

    def __init__(self, indent: Optional[str] = None) -> None:
        self._floats = _FloatTexts()
        self._indent = indent

    def number(self, value: Any) -> str:
        if type(value) is float:
            return self._floats[value]
        return _scalar_text(value)

    def braces(self, depth: int) -> Tuple[str, str, str]:
        """Opening brace, member separator and closing brace at ``depth``."""
        if self._indent is None:
            return "{", ", ", "}"
        inner = "\n" + self._indent * (depth + 1)
        return "{" + inner, "," + inner, "\n" + self._indent * depth + "}"

    def members(
        self, depth: int, opener: str, closer: str, items: List[str]
    ) -> str:
        """A list or object at ``depth`` from its item texts."""
        if not items:
            return opener + closer
        if self._indent is None:
            return f"{opener}{', '.join(items)}{closer}"
        inner = "\n" + self._indent * (depth + 1)
        return (
            f"{opener}{inner}{(',' + inner).join(items)}"
            f"\n{self._indent * depth}{closer}"
        )

    def dumps(self, value: Any, depth: int) -> str:
        """``json.dumps`` of a record at ``depth``.

        Every newline in indented ``json.dumps`` output starts a line
        (strings escape theirs), so shifting each one indents the
        record to ``depth``.
        """
        if self._indent is None:
            return json.dumps(value)
        return json.dumps(value, indent=self._indent).replace(
            "\n", "\n" + self._indent * depth
        )


class _WriterSource:
    """Statements and brace depths of one writer method being compiled.

    The method returns one f-string (single-quoted, so no member
    expression may hold a single quote or a backslash). A list of
    records is built first, in a local, because its items are f-strings
    too; a ``flat`` item's text is inlined into the comprehension, any
    other item is a call of its record's writer method.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depths: Set[int] = set()

    def local(self, expr: str) -> str:
        name = f"_v{len(self.lines)}"
        self.lines.append(f"    {name} = {expr}")
        return name

    def braces(self, k: int) -> Tuple[str, str, str]:
        self.depths.add(k)
        return f"{{_o{k}}}", f"{{_s{k}}}", f"{{_c{k}}}"


def _record_text(record: Record, obj: str, k: int, src: _WriterSource) -> str:
    """f-string body of ``record`` held by ``obj`` at ``depth + k``."""
    o, s, c = src.braces(k)
    body = ""
    for i, f in enumerate(record.fields):
        member = (
            f"{_str_text(f.key)}: "
            f"{_member_text(f.codec, f.value(obj), k + 1, src)}"
        )
        if f.omit_empty:
            body += "{" + src.local(
                f"f'{s}{member}' if {f.value(obj)} else \"\""
            ) + "}"
        else:
            body += (s if i else o) + member
    return body + c


def _member_text(codec: Any, value: str, k: int, src: _WriterSource) -> str:
    """f-string body of a field value at ``depth + k``."""
    if isinstance(codec, Leaf):
        if codec.text is not None:
            return "{" + codec.text.format(value) + "}"
    elif codec.record.direct:
        record = codec.record
        if isinstance(codec, One):
            assert not codec.optional, record.name
            return _record_text(record, value, k, src)
        x = f"_x{k}"
        if record.flat:
            item = _record_text(record, x, k + 1, src)
        else:
            item = f"{{self.{record.name}({x}, depth + {k + 1})}}"
        if isinstance(codec, Keyed):
            item = f"{{_str_text(_k{k})}}: {item}"
            loop = f"_k{k}, {x} in sorted({value}.items())"
            brackets = '"{", "}"'
        else:
            loop, brackets = f"{x} in {value}", '"[", "]"'
        return "{" + src.local(
            f"self.members(depth + {k}, {brackets}, [f'{item}' for {loop}])"
        ) + "}"
    return "{self.dumps(" + codec.to(value) + f", depth + {k})}}"


def _writer_source(record: Record) -> str:
    src = _WriterSource()
    body = _record_text(record, "obj", 0, src)
    lines = [
        f"def {record.name}(self, obj, depth=0):",
        "    number = self.number",
    ] + [
        f"    _o{k}, _s{k}, _c{k} = self.braces(depth + {k})"
        for k in sorted(src.depths)
    ]
    return "\n".join(lines + src.lines + [f"    return f'{body}'"])


# -- the records -------------------------------------------------------------

POSITION = Record(
    "position",
    GeoPoint,
    Field("lat_deg", NUMBER),
    Field("lon_deg", NUMBER),
    Field("alt_m", NUMBER),
    direct=True,
)
OBSERVATION = Record(
    "observation",
    AircraftObservation,
    Field("icao", ICAO),
    Field("callsign", VALUE),
    Field("bearing_deg", NUMBER),
    Field("ground_range_m", NUMBER),
    Field("elevation_deg", NUMBER),
    Field("position", One(POSITION)),
    Field("received", VALUE),
    Field("n_messages", COUNT),
    Field("mean_rssi_dbfs", NUMBER),
    direct=True,
)
COLLISION_STATS = Record(
    "collision_stats",
    CollisionStats,
    *(
        Field(key, COUNT)
        for key in ("n_events", "n_contested", "n_captured", "n_garbled")
    ),
)
SCAN = Record(
    "scan",
    DirectionalScan,
    Field("node_id", VALUE),
    Field("duration_s", NUMBER),
    Field("radius_m", NUMBER),
    Field("observations", Many(OBSERVATION)),
    Field("decoded_message_count", COUNT),
    Field("ghost_icaos", ICAOS),
    # Scans written before the interference layer lack it.
    Field("collision_stats", One(COLLISION_STATS, True), default=None),
    direct=True,
)
FOV = Record(
    "fov",
    FieldOfViewEstimate,
    Field("bin_deg", NUMBER),
    Field("open_flags", FLAGS),
    Field("max_range_km", FLOATS),
)
MEASUREMENT = Record(
    "measurement",
    BandMeasurement,
    Field("source", VALUE),
    Field("label", VALUE),
    Field("freq_hz", NUMBER),
    Field("measured", NUMBER),
    Field("expected", NUMBER),
    Field("excess_attenuation_db", NUMBER),
    Field("decoded", VALUE),
    # Profiles written before the interference layer lack it.
    Field("interference_dbm", NUMBER, default=None),
    direct=True,
)
PROFILE = Record(
    "profile",
    FrequencyProfile,
    Field("node_id", VALUE),
    Field("measurements", Many(MEASUREMENT)),
    direct=True,
)
FEATURES = Record(
    "features",
    InstallationFeatures,
    Field("fov_open_fraction", NUMBER),
    Field("max_received_range_km", NUMBER),
    Field("reach_km", NUMBER),
    Field("high_band_decode_fraction", NUMBER),
    Field("high_band_excess_db", NUMBER),
    Field("low_band_excess_db", NUMBER),
)
CLASSIFICATION = Record(
    "classification",
    Classification,
    Field("installation", VALUE),
    Field("outdoor", VALUE),
    Field("outdoor_probability", NUMBER),
)
BAND_GRADE = Record(
    "band_grade",
    BandGrade,
    Field("label", VALUE),
    Field("freq_hz", NUMBER),
    Field("grade", VALUE),
    Field("excess_attenuation_db", NUMBER),
    direct=True,
)
#: A report's ``(directional, frequency, overall)`` scores tuple.
SCORES = Record(
    "scores",
    None,
    Field("directional", NUMBER, get="{}[0]"),
    Field("frequency", NUMBER, get="{}[1]"),
    Field("overall", NUMBER, get="{}[2]"),
)
REPORT = Record(
    "report",
    CalibrationReport,
    Field("node_id", VALUE),
    Field("scan", One(SCAN)),
    Field("fov", One(FOV)),
    Field("profile", One(PROFILE)),
    Field("features", One(FEATURES)),
    Field("classification", One(CLASSIFICATION)),
    Field("band_grades", Many(BAND_GRADE)),
    Field("scores", One(SCORES), get="{}.scores()", write_only=True),
    direct=True,
)
TRUST_CHECK = Record(
    "trust_check",
    TrustCheck,
    Field("name", VALUE),
    Field("passed", VALUE),
    Field("score", NUMBER),
    Field("detail", VALUE),
)
TRUST = Record(
    "trust",
    TrustAssessment,
    Field("node_id", VALUE),
    Field("checks", Many(TRUST_CHECK)),
)
VIOLATION = Record(
    "violation",
    ClaimViolation,
    Field("claim", VALUE),
    Field("evidence", VALUE),
)
ABS_POWER = Record(
    "abs_power",
    AbsolutePowerCalibration,
    Field("full_scale_dbm_estimate", NUMBER),
    Field("spread_db", NUMBER),
    Field("anchor_label", VALUE),
    Field("anchor_bearing_deg", NUMBER),
    Field("n_signals", COUNT),
    Field("reliable", VALUE),
)
ASSESSMENT = Record(
    "assessment",
    NodeAssessment,
    Field("node_id", VALUE),
    Field("report", One(REPORT)),
    Field("trust", One(TRUST)),
    Field("claim_violations", Many(VIOLATION)),
    Field("abs_power", One(ABS_POWER, True)),
    direct=True,
)
FAILURE = Record(
    "failure",
    AssessmentFailure,
    Field("node_id", VALUE),
    Field("error", VALUE),
    Field("exception_type", VALUE),
)
NETWORK = Record(
    "network",
    _network,
    Field("assessments", Keyed(ASSESSMENT), get="{}"),
    # Plain batch evaluations have no failures or metrics key; a
    # campaign's counters ride along so `repro serve --source file` can
    # surface them.
    Field("failures", Keyed(FAILURE), default={}),
    Field("metrics", MAPPING, default={}, omit_empty=True),
    direct=True,
)

# The compiled converters call each other by these names. The readers
# the ``*_from_json`` parsers below return from carry their types.
report_from_dict: Callable[[Any], CalibrationReport]
assessment_from_dict: Callable[[Any], NodeAssessment]
network_from_dict: Callable[[Any], NetworkAssessments]
position_to_dict, position_from_dict = POSITION.converters
observation_to_dict, observation_from_dict = OBSERVATION.converters
collision_stats_to_dict, collision_stats_from_dict = (
    COLLISION_STATS.converters
)
scan_to_dict, scan_from_dict = SCAN.converters
fov_to_dict, fov_from_dict = FOV.converters
measurement_to_dict, measurement_from_dict = MEASUREMENT.converters
profile_to_dict, profile_from_dict = PROFILE.converters
features_to_dict, features_from_dict = FEATURES.converters
classification_to_dict, classification_from_dict = CLASSIFICATION.converters
band_grade_to_dict, band_grade_from_dict = BAND_GRADE.converters
(scores_to_dict,) = SCORES.converters
report_to_dict, report_from_dict = REPORT.converters
trust_check_to_dict, trust_check_from_dict = TRUST_CHECK.converters
trust_to_dict, trust_from_dict = TRUST.converters
violation_to_dict, violation_from_dict = VIOLATION.converters
abs_power_to_dict, abs_power_from_dict = ABS_POWER.converters
assessment_to_dict, assessment_from_dict = ASSESSMENT.converters
failure_to_dict, failure_from_dict = FAILURE.converters
network_to_dict, network_from_dict = NETWORK.converters


def report_to_json(report: CalibrationReport, **json_kwargs) -> str:
    """Serialize a report straight to a JSON string."""
    return json.dumps(report_to_dict(report), **json_kwargs)


def report_from_json(text: str) -> CalibrationReport:
    """Parse a report from its JSON string."""
    return report_from_dict(json.loads(text))


def assessment_to_json(
    assessment: NodeAssessment, **json_kwargs
) -> str:
    """Serialize a node assessment straight to a JSON string.

    Always the text of
    ``json.dumps(assessment_to_dict(assessment), **json_kwargs)``. With
    no keyword arguments or ``indent`` alone, :class:`_DocumentWriter`
    writes it without building the dict.
    """
    writer = _writer(json_kwargs)
    if writer is None:
        return json.dumps(assessment_to_dict(assessment), **json_kwargs)
    return writer.assessment(assessment)


def assessment_from_json(text: str) -> NodeAssessment:
    """Parse a node assessment from its JSON string."""
    return assessment_from_dict(json.loads(text))


def network_to_json(
    network: NetworkAssessments, **json_kwargs: Any
) -> str:
    """Serialize a network evaluation straight to a JSON string.

    Always the text of
    ``json.dumps(network_to_dict(network), **json_kwargs)``. With no
    keyword arguments or ``indent`` alone (``repro fleet --json``
    writes ``indent=2``), :class:`_DocumentWriter` writes it without
    building the dict.
    """
    writer = _writer(json_kwargs)
    if writer is None:
        return json.dumps(network_to_dict(network), **json_kwargs)
    return writer.network(network)


def network_from_json(text: str) -> NetworkAssessments:
    """Parse a network evaluation from its JSON string."""
    return network_from_dict(json.loads(text))
