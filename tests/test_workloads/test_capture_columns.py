"""Captures and the draw table: byte-stable rendering and capture rules.

A trace holds its draws as one columnar table, filled directly by the
generator and the capture parsers.  These tests pin the bytes every
builtin workload renders to, check that the table round-trips through
the capture text and through :meth:`WorkloadTrace.from_frames`, and
check that each rule of the per-draw objects (:class:`DrawCall`,
:class:`Camera`, :class:`Frame`, the trace's own consistency rules)
still refuses a malformed capture.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.errors import ConfigError
from repro.scene.trace import WorkloadTrace
from repro.workloads import get_workload, load_workload_file, make_benchmark
from repro.workloads.replay import parse_workload_text, render_workload_text
from tests.test_workloads.test_replay import _csv_row, _csv_text

#: sha256 of ``render_workload_text(get_workload(key).build(0.05))``.
CAPTURE_SHA256 = {
    "asp": "a7e26252eaf47bb2ec5b90d606071e7c31bb8ec49987011a24fd5c69f3f11a87",
    "bbr1": "da9ddafa0e3fb9373d8b81c4bdf9b5cbf22ce222cf58b8c84892abc05ec16cbd",
    "bbr2": "edd01fc8b06899658124a7c7b8f156e3fce7a667abeb0ec8bd99e1757236ef56",
    "hcr": "ca14b2cdff377153053a11b9dc05c617633e8f394e5939490df51ea7c4e67d42",
    "hwh": "4c06962e445cba5d6f384d12a7552cdcb1a3ca6b3d27b610d35a83312224dca4",
    "jjo": "2255a795863fb73a0bc5d5b05dc34ac76391352443e39c253ac1d3a1570e1e56",
    "pvz": "4f9125a4062a820db4786c239c6b27e3c44516f87b5fd37eee452a7b1939f5b1",
    "spd": "a6198f36e0706099ba36ca6d7afb523476ee7185b811e5b19a1c124d07fd2715",
    "hcr-osc": "bddbdae5e7b3ca0924d447a5e491f0b005d4532ad47c542568dc9b74dad7b7d4",
    "hcr-flip": "f70028cdd886a720730a9fcafefaf2e0ddef63841aca67cbcb60d57de6067148",
    "hcr-drift": "b809314e2950431e27d39256d227aa091ccafeb65b0423b1168d3164fea2830c",
}


@pytest.mark.parametrize("key", sorted(CAPTURE_SHA256))
def test_builtin_capture_bytes_and_round_trips(key):
    trace = get_workload(key).build(0.05)
    text = render_workload_text(trace)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CAPTURE_SHA256[key]
    assert parse_workload_text(text, name=key).trace == trace
    assert WorkloadTrace.from_frames(
        trace.name, trace.vertex_shaders, trace.fragment_shaders,
        trace.meshes, trace.textures, trace.frames,
    ) == trace


# ----------------------------------------------------------------------
# Capture rules, one malformed capture per rule.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def capture_lines():
    """A small valid JSONL capture as parsed lines (header, then frames)."""
    text = render_workload_text(make_benchmark("hcr", scale=0.02))
    return [json.loads(line) for line in text.splitlines()]


def _textured_draw(lines):
    """(frame line, draw index) of a draw whose fragment shader samples."""
    sampling = {
        shader["shader_id"]
        for shader in lines[0]["fragment_shaders"]
        if shader["texture_samples"]
    }
    for frame in lines[1:]:
        for index, draw in enumerate(frame["draw_calls"]):
            if draw["fragment_shader"] in sampling:
                return frame, index
    raise AssertionError("the capture has no texture-sampling draw")


def _set_draw(field, value):
    def edit(lines):
        lines[1]["draw_calls"][0][field] = value
    return edit


def _set_camera(field, value):
    def edit(lines):
        lines[1]["camera"][field] = value
    return edit


def _shader_outside_table(kind):
    def edit(lines):
        table = lines[0][f"{kind}_shaders"]
        lines[1]["draw_calls"][0][f"{kind}_shader"] = len(table)
    return edit


def _unknown_texture(lines):
    frame, index = _textured_draw(lines)
    frame["draw_calls"][index]["texture_ids"][0] = 10**6


def _unbound_slot(lines):
    frame, index = _textured_draw(lines)
    frame["draw_calls"][index]["texture_ids"] = []


def _frame_out_of_order(lines):
    lines[2]["frame_id"] = 5


def _frame_count_mismatch(lines):
    lines[0]["frame_count"] += 1


JSONL_RULES = {
    "scale <= 0": _set_draw("scale", 0.0),
    "instance_count < 1": _set_draw("instance_count", 0),
    "instance_count not an integer": _set_draw("instance_count", 2.0),
    "overdraw < 1": _set_draw("overdraw", 0.5),
    "fov below 1": _set_camera("fov_y_degrees", 0.5),
    "fov above 179": _set_camera("fov_y_degrees", 180.0),
    "fov NaN": _set_camera("fov_y_degrees", math.nan),
    "ortho_height <= 0": _set_camera("ortho_height", 0.0),
    "near <= 0": _set_camera("near", 0.0),
    "unknown mesh id": _set_draw("mesh_id", 10**6),
    "vertex shader outside its table": _shader_outside_table("vertex"),
    "fragment shader outside its table": _shader_outside_table("fragment"),
    "unknown texture id": _unknown_texture,
    "sampled slot >= bound textures": _unbound_slot,
    "frame_id out of order": _frame_out_of_order,
    "frame_count mismatch": _frame_count_mismatch,
}


def _write_jsonl(lines, path):
    path.write_text(
        "\n".join(json.dumps(line, sort_keys=True) for line in lines) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("rule", sorted(JSONL_RULES))
def test_jsonl_capture_breaking_a_rule_is_refused(capture_lines, rule, tmp_path):
    lines = json.loads(json.dumps(capture_lines))
    JSONL_RULES[rule](lines)
    with pytest.raises(ConfigError):
        load_workload_file(_write_jsonl(lines, tmp_path / "bad.jsonl"))


def test_unedited_capture_loads(capture_lines, tmp_path):
    path = _write_jsonl(capture_lines, tmp_path / "good.jsonl")
    assert load_workload_file(path).trace.frame_count == len(capture_lines) - 1


@pytest.mark.parametrize(
    "edit", [_set_draw("scale", math.nan), _set_camera("near", math.nan)]
)
def test_nan_passes_a_rule_written_as_a_rejection(capture_lines, edit, tmp_path):
    # `scale <= 0` and `near <= 0` are False for NaN, so NaN passes them,
    # as it always has; `not 1 <= fov <= 179` refuses it (above).
    lines = json.loads(json.dumps(capture_lines))
    edit(lines)
    load_workload_file(_write_jsonl(lines, tmp_path / "nan.jsonl"))


CSV_RULES = {
    "scale <= 0": {"draw_scale": 0.0},
    "instance_count < 1": {"instances": 0},
    "overdraw < 1": {"overdraw": 0.5},
    "fov below 1": {"fov_y": 0.5},
    "fov above 179": {"fov_y": 180.0},
    "ortho_height <= 0": {"ortho_height": 0.0},
    "near <= 0": {"near": 0.0},
}


@pytest.mark.parametrize("rule", sorted(CSV_RULES) + ["frame out of order"])
def test_csv_capture_breaking_a_rule_is_refused(rule, tmp_path):
    if rule == "frame out of order":
        rows = [_csv_row(3), _csv_row(1)]
    else:
        rows = [_csv_row(0), _csv_row(1, **CSV_RULES[rule])]
    path = tmp_path / "bad.csv"
    path.write_text(_csv_text(*rows))
    with pytest.raises(ConfigError):
        load_workload_file(path)
