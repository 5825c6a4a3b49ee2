"""Unit tests for the surviving hot paths: the IS-k options, the lean
device pickle and the ``--profile`` CLI report."""

import json
import pickle

import pytest

from repro.baselines.isk import ISKOptions
from repro.benchgen.suite import paper_instance
from repro.floorplan.device import FabricDevice, zynq_7z020
from repro.floorplan.placements import candidate_placements
from repro.model import ResourceVector


class TestLeanPickle:
    def test_warm_device_pickles_like_fresh(self):
        warm = zynq_7z020()
        fresh = FabricDevice(
            name=warm.name,
            rows=warm.rows,
            columns=warm.columns,
            reserved_columns=warm.reserved_columns,
        )
        baseline = len(pickle.dumps(fresh))
        # Warm every per-device memo the hot paths populate.
        warm.packed_geometry()
        candidate_placements(warm, ResourceVector({"CLB": 600, "DSP": 40}))
        assert len(warm._candidate_cache) > 0
        assert warm._packed_geometry is not None
        assert len(pickle.dumps(warm)) == baseline
        # And the round-tripped device rebuilds its memos lazily.
        clone = pickle.loads(pickle.dumps(warm))
        assert clone._packed_geometry is None
        assert clone._candidate_cache == {}
        assert clone.packed_geometry().keys() == warm.packed_geometry().keys()


class TestPreviewBackends:
    def test_preview_option_validated(self):
        """IS-k ranks options with one read-only preview; there is no
        user-set option for it."""
        with pytest.raises(TypeError):
            ISKOptions(preview="scalar")


class TestProfileCLI:
    def test_schedule_profile_emits_phase_json(self, tmp_path, capsys):
        from repro.cli import main

        instance = paper_instance(12, seed=5)
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(instance.to_dict()))
        out_path = tmp_path / "profile.json"
        rc = main(
            [
                "schedule", str(inst_path),
                "--algorithm", "pa",
                "--profile-out", str(out_path),
            ]
        )
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["total_wall_s"] > 0
        assert {"selection", "regions", "mapping"} <= report["phases"].keys()
        for row in report["phases"].values():
            assert row["calls"] >= 1
            assert row["wall_s"] >= 0
