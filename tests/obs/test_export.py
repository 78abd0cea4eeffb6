"""JSONL export round-trip tests."""

import json

from repro.obs.export import dump_jsonl, load_jsonl, record_as_dict, revision, write_jsonl
from repro.obs.records import OffloadRecord, PlacementRecord
from repro.obs.tracer import DecisionTracer


def sample_records():
    return [
        PlacementRecord(
            node=0,
            obj=7,
            action="migrate",
            outcome="accepted",
            affinity=2,
            unit_rate=0.5,
            threshold=0.6,
            candidates=(4, 3),
            target=4,
        ),
        OffloadRecord(
            node=1,
            offloading=True,
            relieved=False,
            ran=True,
            recipient=2,
            moved=3,
            reason="source-relieved",
            lower_load=9.0,
            low_watermark=10.0,
        ),
    ]


def test_record_as_dict_puts_kind_first_and_flattens_tuples():
    data = record_as_dict(sample_records()[0])
    assert list(data)[0] == "kind"
    assert data["kind"] == "placement"
    assert data["candidates"] == [4, 3]
    assert data["target"] == 4


def test_dump_jsonl_one_json_object_per_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    with path.open("w") as handle:
        count = dump_jsonl(sample_records(), handle)
    assert count == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["kind"] == "offload"


def test_write_and_load_round_trip(tmp_path):
    path = tmp_path / "deep" / "trace.jsonl"
    records = sample_records()
    assert write_jsonl(records, path) == 2
    loaded = load_jsonl(path)
    assert [entry["kind"] for entry in loaded] == ["placement", "offload"]
    assert loaded[0] == record_as_dict(records[0])


def test_tracer_records_export_cleanly(tmp_path):
    tracer = DecisionTracer()
    for record in sample_records():
        tracer.record(record)
    path = tmp_path / "trace.jsonl"
    write_jsonl(tracer.records(), path)
    loaded = load_jsonl(path)
    assert [entry["seq"] for entry in loaded] == [0, 1]


def test_a_provenance_header_leads_the_trace_and_is_not_counted(tmp_path):
    path = tmp_path / "trace.jsonl"
    records = sample_records()
    header = {"revision": revision(), "seed": 3}
    assert write_jsonl(records, path, header) == 2
    loaded = load_jsonl(path)
    assert loaded[0] == {"kind": "provenance", "revision": revision(), "seed": 3}
    assert loaded[1:] == [record_as_dict(record) for record in records]
