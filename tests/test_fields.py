"""The shared JSON readers and writer (:mod:`repro.fields`) behind every
``from_dict`` and most ``to_dict`` methods.

* The law: replacing any one field of a real document with arbitrary
  JSON either loads an object that writes back and reloads to the same
  document, or raises a ``ValueError`` naming the replaced field.
* The loose inputs the per-class readers used to coerce or ignore each
  raise a ``ValueError`` naming the field by its path.
* Every writer built on :func:`repro.fields.dump` writes its init fields
  in declaration order plus only the keys it derives, and its reader
  loads that form back.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fields import FieldError, dump, load
from repro.fleet import FleetSpec, load_journal, run_campaign
from repro.fleet.checkpoint import device_records
from repro.fleet.report import DeviceRecord
from repro.provision import (
    Candidate,
    CandidateEvaluation,
    CandidateSpace,
    CostModel,
    LotProvision,
    ParetoPoint,
    ProvisionReport,
    ProvisionSearch,
)
from repro.screen import (
    ScreenConstraints,
    ScreenDecision,
    ScreenedFleetReport,
    ScreenPlan,
    plan_screen,
    run_screened_campaign,
)
from repro.service.leases import Lease, try_acquire
from repro.service.shards import CampaignShard, plan_subset_shards
from repro.verify.equivalence import EquivalenceReport, EquivalenceRow
from repro.verify.harness import InvariantCase, InvariantReport, VerifyReport
from repro.verify.metamorphic import MetamorphicReport, PropertyCase, PropertyResult

from .provision.conftest import make_spec as provision_spec
from .provision.conftest import small_space
from .screen.conftest import make_constraints
from .screen.conftest import make_spec as screen_spec
from .strategies import JSON_VALUES


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> dict:
    """One real document per reader, as the program writes it."""
    spec = screen_spec()
    plan = plan_screen(spec, make_constraints(spec)).to_dict()
    report = ProvisionSearch(provision_spec(), small_space()).run().to_dict()
    lot = report["lots"][0]
    evaluation = lot["evaluations"][0]
    root = tmp_path_factory.mktemp("documents")
    run_campaign(screen_spec(devices=2), checkpoint=root / "journal.jsonl")
    _, journaled = load_journal(root / "journal.jsonl")
    records = device_records(root / "journal.jsonl", journaled)
    escalated = [d["index"] for d in plan["decisions"] if d["method"] == "mc"]
    return {
        ScreenConstraints: plan["constraints"],
        ScreenDecision: plan["decisions"][escalated[0]],
        ScreenPlan: plan,
        CostModel: report["cost_model"],
        Candidate: evaluation["candidate"],
        CandidateSpace: report["space"],
        CandidateEvaluation: evaluation,
        LotProvision: lot,
        ProvisionReport: report,
        ParetoPoint: ParetoPoint(key="k", values=(1.0, 2.5)).to_dict(),
        DeviceRecord: records[1].to_dict(),
        Lease: try_acquire(root / "lease.json", "w1").to_dict(),
        CampaignShard: plan_subset_shards(escalated, 1)[0].to_dict(),
    }


def written(obj) -> str:
    return json.dumps(obj.to_dict(), sort_keys=True)


class TestEveryReader:
    @pytest.mark.parametrize("reader", [
        ScreenConstraints, ScreenDecision, ScreenPlan, CostModel, Candidate,
        CandidateSpace, CandidateEvaluation, LotProvision, ProvisionReport,
        ParetoPoint, DeviceRecord, Lease, CampaignShard,
    ], ids=lambda reader: reader.__name__)
    @given(data=st.data())
    def test_any_field_value_loads_or_names_the_field(self, documents, reader, data):
        document = documents[reader]
        key = data.draw(st.sampled_from(sorted(document)))
        value = data.draw(JSON_VALUES)
        mutated = json.loads(json.dumps({**document, key: value}))
        try:
            loaded = reader.from_dict(mutated)
        except ValueError as error:
            assert key in str(error)
            return
        assert written(reader.from_dict(json.loads(written(loaded)))) == written(loaded)


def decision(**fields) -> dict:
    return {"index": 0, "lot": "a", "classification": "pass", **fields}


def record(**fields) -> dict:
    return {
        "index": 0, "lot": "a", "seed": 1, "temperature_k": 300.0,
        "nu_mu_scale": 1.0, "nu_sigma_scale": 1.0, **fields,
    }


def evaluation(**fields) -> dict:
    numbers = (
        "expected_ue", "expected_writes", "scrub_energy_j", "fit_scaled",
        "energy_per_gib_j", "writes_per_device", "dollars_per_gib",
        "carbon_per_gib_kg",
    )
    return {
        "lot": "a",
        "candidate": {"policy": "threshold", "interval": 3600.0},
        "devices": 1, "surrogate_devices": 1, "mc_devices": 0,
        **dict.fromkeys(numbers, 1.0),
        **fields,
    }


LEASE = {"worker": "w", "pid": 12, "host": "h", "acquired": 1.0, "heartbeat": 2.0}


#: Inputs the per-class readers used to coerce or ignore, with the path
#: each error must name.
LOOSE_INPUTS = [
    (ScreenConstraints, {"fit_limit": "5"}, "fit_limit"),
    (ScreenConstraints, {"fit_limit": True}, "fit_limit"),
    (ScreenConstraints, {"fit_limit": 5, "confidnce": 0.5}, "confidnce"),
    (ScreenConstraints, [1, 2], "top level"),
    (ScreenPlan, {
        "spec_hash": "h",
        "constraints": {"fit_limit": 5.0},
        "decisions": [decision(index=i) for i in (0, 1, 2, 2.7)],
    }, "decisions[3].index"),
    (ScreenDecision, decision(classification="maybe"), "classification"),
    (ScreenDecision, decision(reasons="ab"), "reasons"),
    (ScreenDecision, decision(lot=7), "lot"),
    (CostModel, {"dollars_per_gib": "4"}, "dollars_per_gib"),
    (CampaignShard, {"id": 0, "start": 0.9, "stop": "4"}, "start"),
    (CampaignShard, {"id": 0, "start": 0, "stop": "4"}, "stop"),
    (CampaignShard, {"id": 0, "start": 0, "stop": 2, "devices": [0.5, 1.9]},
     "devices[0]"),
    (Lease, {**LEASE, "worker": 1}, "worker"),
    (Lease, {**LEASE, "pid": "12"}, "pid"),
    (Lease, {**LEASE, "host": None}, "host"),
    (Lease, {**LEASE, "acquired": "1"}, "acquired"),
    (Lease, {**LEASE, "heartbeat": True}, "heartbeat"),
    (ParetoPoint, {"key": 5, "values": [1.0]}, "key"),
    (ParetoPoint, {"key": "k", "values": "12"}, "values"),
    (DeviceRecord, record(index="3"), "index"),
    (DeviceRecord, record(seed=2.5), "seed"),
    (DeviceRecord, record(temperature_k=True), "temperature_k"),
    (CandidateEvaluation, evaluation(feasible="false"), "feasible"),
    (LotProvision, {"lot": "a", "devices": 1, "evaluations": [],
                    "frontier": "abc"}, "frontier"),
    (ProvisionReport, {
        "name": "n", "spec_hash": "h", "devices": 1, "horizon": 1.0,
        "mc_device_runs": 0,
        "lots": [{"lot": "a", "devices": 1,
                  "evaluations": [evaluation(feasible="false")],
                  "frontier": []}],
    }, "lots[0].evaluations[0].feasible"),
]


@pytest.mark.parametrize(
    "reader, data, path", LOOSE_INPUTS,
    ids=[f"{reader.__name__}-{path}" for reader, _, path in LOOSE_INPUTS],
)
def test_loose_input_raises_naming_its_path(reader, data, path):
    with pytest.raises(ValueError) as error:
        reader.from_dict(copy.deepcopy(data))
    assert path in str(error.value)


REPORT = {"name": "n", "spec_hash": "h", "devices": 1, "horizon": 1.0,
          "lots": [], "mc_device_runs": 0}


#: Documents omitting every key the readers have always defaulted, with
#: the defaults those keys must keep.
OMITTED_KEYS = [
    (DeviceRecord, record(), {"endurance_mean": None, "summary": {},
                              "final_state": {}, "runtime_seconds": 0.0}),
    (LotProvision, {"lot": "a", "devices": 1, "evaluations": [], "frontier": []},
     {"recommended": None}),
    (ProvisionReport, REPORT, {
        "fit_limit": None, "confidence": 0.95, "exhaustive": False,
        "cost_model": CostModel(), "space": CandidateSpace(),
    }),
    (CandidateEvaluation, evaluation(), {"feasible": True, "infeasible_reason": ""}),
    (ScreenDecision, decision(), {"reasons": (), "expected_ue": None}),
    (CampaignShard, {"id": 0, "start": 0, "stop": 2}, {"devices": None}),
]


@pytest.mark.parametrize(
    "reader, data, defaults", OMITTED_KEYS,
    ids=[reader.__name__ for reader, _, _ in OMITTED_KEYS],
)
def test_omitted_keys_keep_their_defaults(reader, data, defaults):
    loaded = reader.from_dict(data)
    assert {key: getattr(loaded, key) for key in defaults} == defaults


@dataclass(frozen=True)
class Point:
    x: int
    label: str = ""
    tags: tuple[str, ...] = ()
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.x < 0:
            raise ValueError("x must be >= 0")

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data, path: str = "") -> "Point":
        return load(cls, data, path)


@dataclass(frozen=True)
class Pair:
    first: Point
    second: Point | None = None

    def to_dict(self) -> dict:
        return dump(self)

    @classmethod
    def from_dict(cls, data, path: str = "") -> "Pair":
        return load(cls, data, path)


@dataclass(frozen=True)
class Shape:
    """Every annotation kind :func:`dump` writes by a rule."""

    points: tuple[Point, ...]
    meta: dict
    anchor: Point | None = None
    weights: tuple[float | None, ...] = ()
    pairs: tuple[Pair, ...] = ()


class TestLoad:
    def test_reads_each_annotation(self):
        pair = Pair.from_dict({
            "first": {"x": 2.0, "tags": ["a"], "scale": 3},
            "second": None,
        })
        assert pair == Pair(Point(2, tags=("a",), scale=3.0))
        assert type(pair.first.x) is int and type(pair.first.scale) is float

    @pytest.mark.parametrize("data, message", [
        ({"first": {}}, "field first.x: is required"),
        ({"first": {"x": 1, "tags": ["a", 2]}}, "field first.tags[1]: expected a string"),
        ({"first": {"x": 1}, "extra": 1}, "top level has unknown keys ['extra']"),
        ({"first": {"x": -1}}, "field first: x must be >= 0"),
    ])
    def test_errors_name_the_path(self, data, message):
        with pytest.raises(FieldError, match=message.replace("[", r"\[")):
            Pair.from_dict(data)

    def test_top_level_constructor_error_keeps_its_type(self):
        with pytest.raises(ValueError, match="^x must be >= 0$"):
            Point.from_dict({"x": -1})

    def test_ignored_keys_are_skipped(self):
        assert load(Point, {"x": 1, "kind": "point"}, ignore=("kind",)) == Point(1)


SHAPES = [
    Shape(points=(), meta={}),
    Shape(
        points=(Point(1, tags=("a", "b")), Point(2, label="p", scale=0.5)),
        meta={"k": [1, 2], "nested": {"x": None}},
        anchor=Point(3),
        weights=(0.25, None),
        pairs=(Pair(Point(4)), Pair(Point(5), Point(6, tags=("c",)))),
    ),
]


class TestDump:
    def test_writes_each_annotation(self):
        written = dump(SHAPES[1])
        assert written == {
            "points": [
                {"x": 1, "label": "", "tags": ["a", "b"], "scale": None},
                {"x": 2, "label": "p", "tags": [], "scale": 0.5},
            ],
            "meta": {"k": [1, 2], "nested": {"x": None}},
            "anchor": {"x": 3, "label": "", "tags": [], "scale": None},
            "weights": [0.25, None],
            "pairs": [
                {"first": {"x": 4, "label": "", "tags": [], "scale": None},
                 "second": None},
                {"first": {"x": 5, "label": "", "tags": [], "scale": None},
                 "second": {"x": 6, "label": "", "tags": ["c"], "scale": None}},
            ],
        }
        assert list(written) == [field.name for field in dataclasses.fields(Shape)]
        assert type(written["points"][0]["tags"]) is list
        assert dump(SHAPES[0])["anchor"] is None

    def test_a_dict_field_is_a_copy(self):
        shape = SHAPES[1]
        written = dump(shape)
        assert written["meta"] == shape.meta and written["meta"] is not shape.meta
        written["meta"]["k"] = "changed"
        assert shape.meta["k"] == [1, 2]

    @pytest.mark.parametrize("shape", SHAPES, ids=["empty", "full"])
    def test_load_reads_back_what_dump_writes(self, shape):
        assert load(Shape, dump(shape)) == shape
        assert load(Shape, json.loads(json.dumps(dump(shape)))) == shape


#: Keys each writer built on ``dump`` derives beyond its init fields.
DERIVED = {
    ScreenConstraints: (), ScreenDecision: ("method",), ScreenPlan: (),
    ScreenedFleetReport: (), Lease: (), DeviceRecord: (),
    Candidate: ("key",), CandidateSpace: (), CandidateEvaluation: ("method",),
    LotProvision: (), ParetoPoint: (), CostModel: (),
    ProvisionReport: ("version", "axes", "candidates_evaluated", "frontier_size",
                      "recommended"),
    EquivalenceRow: (), PropertyCase: (), PropertyResult: (), InvariantCase: (),
    EquivalenceReport: ("passed",), MetamorphicReport: ("passed",),
    InvariantReport: ("passed",), VerifyReport: ("passed",),
}


@pytest.fixture(scope="module")
def written_objects(documents) -> dict:
    """One real instance of every class whose writer is built on ``dump``."""
    objects = {
        reader: reader.from_dict(document)
        for reader, document in documents.items()
        if reader in DERIVED
    }
    spec = screen_spec()
    objects[ScreenedFleetReport] = run_screened_campaign(
        spec, make_constraints(spec), jobs=1
    ).report
    row = EquivalenceRow(check="analytic", label="T=1.0h t=2", metric="uncorrectable",
                         observed=3.0, expected=2.5, low=1.0, high=6.0, passed=True)
    result = PropertyResult(name="interval", relation="UE non-decreasing",
                            cases=(PropertyCase(label="T=1h", value=2.0),), passed=True)
    case = InvariantCase(name="basic", passed=False,
                         violation={"invariant": "conservation"}, visits=3)
    objects[EquivalenceRow] = row
    objects[PropertyCase] = result.cases[0]
    objects[PropertyResult] = result
    objects[InvariantCase] = case
    objects[EquivalenceReport] = EquivalenceReport(rows=(row,))
    objects[MetamorphicReport] = MetamorphicReport(results=(result,))
    objects[InvariantReport] = InvariantReport(cases=(case,))
    objects[VerifyReport] = VerifyReport(
        objects[InvariantReport], objects[MetamorphicReport], objects[EquivalenceReport]
    )
    return objects


@pytest.mark.parametrize("cls", list(DERIVED), ids=lambda cls: cls.__name__)
def test_writer_writes_its_fields_and_derived_keys(written_objects, cls):
    obj = written_objects[cls]
    written = obj.to_dict()
    fields = [field.name for field in dataclasses.fields(cls) if field.init]
    derived = DERIVED[cls]
    assert len(written) == len(fields) + len(derived)
    assert [key for key in written if key not in derived] == fields
    assert set(derived) <= set(written)
    if "passed" in derived:
        assert next(iter(written)) == "passed"
    if hasattr(cls, "from_dict"):
        # ``load`` rejects any key it neither reads nor ignores, so this
        # holds only if every derived key is among the reader's ``ignore``.
        assert cls.from_dict(json.loads(json.dumps(written))) == obj


def test_cost_model_holds_floats():
    written = CostModel(dollars_per_gib=4).to_dict()["dollars_per_gib"]
    assert written == 4.0 and type(written) is float


def test_report_horizon_is_a_float_for_an_integer_spec_horizon():
    document = json.loads(json.dumps(provision_spec().to_dict()))
    document["config"]["horizon"] = 864000
    spec = FleetSpec.from_dict(document)
    assert type(spec.base_config.horizon) is int
    written = ProvisionSearch(spec, small_space()).run().to_dict()["horizon"]
    assert written == 864000.0 and type(written) is float
