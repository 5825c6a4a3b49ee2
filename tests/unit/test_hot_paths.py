"""Unit tests for the surviving hot paths: IS-k preview ranking, the
lean device pickle and the ``--profile`` CLI report."""

import json
import pickle

import pytest

from repro.baselines import isk as isk_mod
from repro.baselines.isk import ISKOptions, ISKScheduler
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
    def test_ranked_options_identical_per_call(self, monkeypatch):
        """Every ranking call returns the same keys in the same order
        from the batched preview as from the per-option loop (the
        frontier-size gate lowered so the batched limb always runs)."""
        monkeypatch.setattr(isk_mod, "_VECTOR_PREVIEW_MIN", 1)
        instance = paper_instance(20, seed=77)
        scheduler = ISKScheduler(ISKOptions(k=2))
        orig = ISKScheduler._ranked_options

        def checked(self, state, task_id):
            ranked = orig(self, state, task_id)
            try:
                ready = state.ready_time(task_id)
            except ValueError:
                return ranked
            options = self._task_options(state, task_id)
            scalar = [
                (self._preview_key(state, o, ready), o) for o in options
            ]
            scalar.sort(key=lambda item: item[0])
            assert [k for k, _ in ranked] == [k for k, _ in scalar]
            # _task_options is deterministic, so (impl, target) pairs
            # identify options across the two independently built lists.
            assert [(o.impl.name, o.target) for _, o in ranked] == (
                [(o.impl.name, o.target) for _, o in scalar]
            )
            return ranked

        monkeypatch.setattr(ISKScheduler, "_ranked_options", checked)
        scheduler.schedule(instance)

    @pytest.mark.parametrize("k", [1, 3])
    def test_schedules_bit_identical(self, monkeypatch, k):
        """Batched preview on every call vs. never: same schedule."""
        instance = paper_instance(25, seed=13)
        monkeypatch.setattr(isk_mod, "_VECTOR_PREVIEW_MIN", 1)
        rv = ISKScheduler(ISKOptions(k=k)).schedule(instance)
        monkeypatch.setattr(isk_mod, "_VECTOR_PREVIEW_MIN", 10**9)
        rs = ISKScheduler(ISKOptions(k=k)).schedule(instance)
        assert rv.makespan == rs.makespan
        sv, ss = rv.schedule, rs.schedule
        assert {
            t: (st.start, st.end, st.implementation.name)
            for t, st in sv.tasks.items()
        } == {
            t: (st.start, st.end, st.implementation.name)
            for t, st in ss.tasks.items()
        }

    def test_preview_option_validated(self):
        """Only the frontier-size gate picks the preview limb; there is
        no user-set option for it."""
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
